"""Discrete biorthogonal rational functions and their addition formula."""

import numpy as np
import pytest

from conftest import draw_quad, rel
from ellsixj.errors import DomainError
from ellsixj.harness import SampleConfig, Shape, sample_generic
from ellsixj.sixj import ParamQuad, R_explicit
from ellsixj.wilson import (
    WilsonParams,
    eto_norm,
    eto_pairing_sum,
    eto_weight,
    mu,
    quad_to_wilson,
    rational_R,
    rational_R_from_matrix,
    rational_S,
    rational_S_from_matrix,
    wilson_addition,
    wilson_biorth_sum,
    wilson_norm,
    wilson_r,
    wilson_to_quad,
)


def _wp(seed=51, N=4):
    cfg = SampleConfig(seed=seed, N_max=N)
    return sample_generic(cfg, Shape.WILSON, N=N)


def test_wilson_params_constraints():
    q = 0.45
    with pytest.raises(DomainError):
        WilsonParams(1.1, 0.9, 0.8, 1.2, 0.7, 1.3, q, 2)
    wp = _wp()
    assert abs(wp.a * wp.b - wp.q ** -wp.N) < 1e-9
    assert abs(wp.a * wp.b * wp.c * wp.d * wp.e * wp.f - wp.q) < 1e-9
    swapped = wp.swapped_ef()
    assert (swapped.e, swapped.f) == (wp.f, wp.e)
    z = wp.grid_z(2)
    assert rel(wp.grid_x(2), (z + 1 / z) / 2) < 1e-15


def test_wilson_function_is_z_inversion_symmetric():
    wp = _wp(52)
    for n in range(3):
        for z in (1.31 + 0.42j, 0.77 - 0.15j):
            assert rel(wilson_r(n, z, wp), wilson_r(n, 1 / z, wp)) < 1e-11


def test_wilson_grid_biorthogonality():
    wp = _wp(53)
    for n in range(wp.N + 1):
        for m in range(wp.N + 1):
            total, scale = wilson_biorth_sum(n, m, wp)
            want = wilson_norm(n, wp) if n == m else 0j
            assert abs(total - want) / max(scale, abs(want)) < 1e-10


def test_rational_pairing_biorthogonality():
    quad = draw_quad(54, 4)
    top = quad.N
    for n in range(top + 1):
        for m in range(top + 1):
            total, scale = eto_pairing_sum(n, m, quad)
            want = eto_norm(n, quad) if n == m else 0j
            assert abs(total - want) / max(scale, abs(want)) < 1e-10


def test_rational_functions_match_matrix_entries():
    # the same rational values must come out of the coefficient matrix rows
    quad = draw_quad(55, 3)
    R = R_explicit(quad).entries
    back = ParamQuad(quad.c, quad.d, quad.a, quad.b, quad.N, quad.ctx)
    S = R_explicit(back).entries
    for n in range(quad.N + 1):
        for k in range(quad.N + 1):
            via_row = rational_R_from_matrix(n, k, quad, R[n, k])
            assert rel(rational_R(n, k, quad), via_row) < 1e-9
            via_back = rational_S_from_matrix(n, k, quad, S[k, n])
            assert rel(rational_S(n, k, quad), via_back) < 1e-9


def test_rational_weights_are_nonzero_on_grid():
    quad = draw_quad(56, 3)
    for k in range(quad.N + 1):
        assert abs(eto_weight(k, quad)) > 1e-12
        assert np.isfinite(abs(mu(k, quad)))


def test_param_map_round_trip():
    quad = draw_quad(57, 3)
    wp = quad_to_wilson(quad)
    quad2 = wilson_to_quad(wp)
    assert quad2.N == quad.N
    # the round trip may flip every parameter's sign at once; nothing
    # evaluated downstream can see that
    gap = min(
        max(
            abs(s * quad2.a - quad.a), abs(s * quad2.b - quad.b),
            abs(s * quad2.c - quad.c), abs(s * quad2.d - quad.d),
        )
        for s in (1.0, -1.0)
    )
    assert gap < 1e-10
    assert rel(R_explicit(quad2).entries, R_explicit(quad).entries) < 1e-9


def test_param_map_rejects_nome(ell_ctx):
    quad = ParamQuad(0.9 + 0.2j, 1.3, 0.8 - 0.3j, 1.1 + 0.4j, 2, ell_ctx)
    with pytest.raises(DomainError):
        quad_to_wilson(quad)


def test_addition_formula_three_ways():
    wp = _wp(58, N=3)
    s, t = 1.13 + 0.21j, 0.87 - 0.34j
    for n, m in ((0, 0), (1, 2), (3, 1)):
        lhs, mid, rhs = wilson_addition(n, m, s, t, wp)
        scale = max(abs(lhs), abs(mid))
        assert abs(lhs - mid) / scale < 1e-9
        assert rhs is not None
        assert abs(mid - rhs) / max(scale, abs(rhs)) < 1e-9


def test_addition_formula_degenerates_to_pairing():
    # at s = t = 1 the third expression is 0 times a divergent sum and is
    # withheld; the first two collapse to the biorthogonality values
    wp = _wp(59, N=3)
    for n, m in ((1, 1), (1, 2)):
        lhs, mid, rhs = wilson_addition(n, m, 1.0, 1.0, wp)
        assert rhs is None
        want = wilson_norm(n, wp) if n == m else 0j
        ref, scale = wilson_biorth_sum(n, m, wp)
        assert abs(lhs - ref) / scale < 1e-9
        assert abs(mid - want) / max(scale, abs(want)) < 1e-9
