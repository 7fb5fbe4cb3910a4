"""Discrete biorthogonal rational functions and their addition formula."""

import numpy as np
import pytest

from conftest import draw_quad, rel
from ellsixj import scalar
from ellsixj.errors import DomainError
from ellsixj.harness import SampleConfig, Shape, sample_generic
from ellsixj.sixj import ParamQuad, R_explicit, entry_series
from ellsixj.wilson import (
    WilsonParams,
    eto_norm,
    eto_pairing_sum,
    eto_weight,
    mu,
    rational_R,
    rational_S,
    wilson_addition,
    wilson_biorth_sum,
    wilson_norm,
    wilson_r,
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
    assert wp.grid_z(2) == wp.a * wp.q**2


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


def rational_R_from_matrix(n, k, quad, row_entry):
    """R_n(mu(k)) rebuilt from the matrix entry R_n^k(a, b, c, d; N)."""
    a, b, c, d, N = quad.a, quad.b, quad.c, quad.d, quad.N
    q = quad.ctx.q
    num = (
        scalar.qpochs(q, n, q ** (-N))
        * scalar.qpochs(q, k, q ** (k - N) * c / d, b * c)
        * scalar.qpochs(q, N - k, q ** (-k) * d / c, b * d)
        * scalar.qpochs(q, N, c * d)
    )
    den = (
        scalar.qpochs(q, k, b / d)
        * scalar.qpochs(q, N - n, b * c, b * d)
        * scalar.qpochs(q, N - k, b / c)
        * (c * d) ** n
        * scalar.q_binomial(N, k, q)
    )
    return q ** (k * (N - k)) * num / den * row_entry


def rational_S_from_matrix(m, k, quad, back_entry):
    """S_m(mu(k)) rebuilt from the reverse entry R_k^m(c, d, a, b; N)."""
    a, b, c, d, N = quad.a, quad.b, quad.c, quad.d, quad.N
    q = quad.ctx.q
    num = (
        scalar.qpochs(q, m, q ** (-N), a * c, a * d, q ** (m - N) * a / b)
        * scalar.qpochs(q, N - m, q ** (-m) * b / a)
        * scalar.qpochs(q, N, a * b)
    )
    den = (
        scalar.qpochs(q, k, a * c, c / a)
        * scalar.qpochs(q, N - k, a * d, d / a)
        * (a * b) ** m
        * scalar.q_binomial(N, m, q)
    )
    return q ** (m * (N - m)) * num / den * back_entry


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


def test_rational_functions_reject_nome(ell_ctx):
    # the prefactors are trigonometric; an elliptic series under them
    # would be neither function
    quad = ParamQuad(0.9 + 0.2j, 1.3, 0.8 - 0.3j, 1.1 + 0.4j, 2, ell_ctx)
    for fn in (rational_R, rational_S):
        with pytest.raises(DomainError):
            fn(1, 1, quad)


def test_weight_norm_and_grid_reject_nome(ell_ctx):
    # they read only q, so at p != 0 they would return trigonometric values
    quad = ParamQuad(0.9 + 0.2j, 1.3, 0.8 - 0.3j, 1.1 + 0.4j, 2, ell_ctx)
    for fn in (eto_weight, eto_norm, mu):
        with pytest.raises(DomainError):
            fn(1, quad)


@pytest.mark.parametrize(
    "fn",
    (entry_series, rational_R, rational_S, eto_weight, eto_norm, mu),
    ids=lambda fn: fn.__name__,
)
def test_rational_picture_rejects_indices_outside_0_to_N(fn, trig_ctx):
    # at N = 2 these returned 1, 0 or a stray series value for index 3..7
    quad = ParamQuad(0.9 + 0.2j, 1.3, 0.8 - 0.3j, 1.1 + 0.4j, 2, trig_ctx)
    two = fn in (entry_series, rational_R, rational_S)

    def call(*idx):
        return fn(quad, *idx) if fn is entry_series else fn(*idx, quad)

    for bad in (-1, 3, 5, 7):
        for idx in ((bad, 1), (1, bad), (bad, 0), (0, bad)) if two else ((bad,),):
            with pytest.raises(DomainError):
                call(*idx)
    assert np.isfinite(call(*((2, 1) if two else (2,))))


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
