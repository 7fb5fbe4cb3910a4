"""Connection-coefficient matrices: routes, inverses, symmetries, limits."""

import cmath
import itertools
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from conftest import draw_quad, rel
from ellsixj import basis, scalar, sixj
from ellsixj.basis import h_value
from ellsixj.context import make_context
from ellsixj.errors import DomainError, IllConditionedError, SixjError
from ellsixj.harness import LEVEL_TOL, Level, SampleConfig, Shape, sample_generic
from ellsixj.sixj import (
    CoeffMatrix,
    LimitKind,
    ParamQuad,
    R_double_sum,
    R_explicit,
    R_matrix,
    R_paths,
    Route,
    band_quad,
    elliptic_W6j,
    gbt_row,
    inverted_a,
    krawtchouk_K,
    krawtchouk_addition_sides,
    krawtchouk_inverse,
    krawtchouk_matrix,
    limit_ell_to_trig,
    limit_h_product,
    limit_trig_to_qkraw,
    limit_trig_to_qracah,
    multiconv_rhs,
    paths_gf,
    paths_qbinomial,
    qracah_C,
    qracah_D,
    qracah_matrix,
    sl2_compose,
    sl2_inverse,
    subset_expansion_sides,
)


def _offgrid_points(n=7, radius=1.37):
    # xi values distinct from every collocation fan used internally
    return [radius * cmath.exp(2j * math.pi * (j + 0.41) / n) for j in range(n)]


# -- defining property --------------------------------------------------------


@pytest.mark.parametrize("level", [Level.TRIG, Level.ELLIPTIC])
def test_matrix_satisfies_defining_expansion(level):
    quad = draw_quad(31, 3, level)
    R = R_explicit(quad)
    ctx, N = quad.ctx, quad.N
    for xi in _offgrid_points():
        x = xi + 1 / xi
        for k in range(N + 1):
            lhs = h_value(x, quad.a, k, ctx) * h_value(x, quad.b, N - k, ctx)
            rhs = sum(
                R.entries[k, l]
                * h_value(x, quad.c, l, ctx)
                * h_value(x, quad.d, N - l, ctx)
                for l in range(N + 1)
            )
            assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-9


@pytest.mark.parametrize("level", [Level.TRIG, Level.ELLIPTIC])
def test_four_routes_agree(level):
    tol = 1e-9 if level == Level.TRIG else 1e-8
    quad = draw_quad(32, 4, level)
    mats = [R_matrix(quad, route).entries for route in Route]
    for A, B in itertools.combinations(mats, 2):
        assert rel(A, B) < tol


def test_explicit_records_fallback_entries():
    quad = draw_quad(33, 3)
    # b/c exactly on the inverse lattice is fine for the basis but resonant
    # for the closed form; those entries must come back via collocation
    pinned = ParamQuad(
        quad.a, quad.c / quad.ctx.q, quad.c, quad.d, quad.N, quad.ctx
    )
    R = R_explicit(pinned)
    assert R.fallback
    direct = R_matrix(pinned, Route.SOLVE).entries
    assert rel(R.entries, direct) < 1e-8
    for k, l in R.fallback:
        assert R.entries[k, l] == direct[k, l]


def test_solve_builds_one_collocation_system(monkeypatch):
    quad = draw_quad(32, 4)
    calls = []
    real = basis.solve_in_basis

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(basis, "solve_in_basis", counting)
    R_matrix(quad, Route.SOLVE)
    assert len(calls) == 1


def test_solve_raises_only_sixj_errors_at_large_N():
    # the collocation matrix is hopeless at N = 16 and non-finite from
    # N = 18; both must surface as SixjError, never as numpy's LinAlgError
    ctx = make_context(0.41, p=0.17)
    for N, err in ((16, IllConditionedError), (18, SixjError), (20, SixjError)):
        quad = ParamQuad(1.2 + 0.3j, 0.8 - 0.2j, 1.1 + 0.4j, 0.7 + 0.2j, N, ctx)
        with pytest.raises(err):
            R_matrix(quad, Route.SOLVE)


def test_route_requires_nondegenerate_basis(trig_ctx):
    quad = ParamQuad(0.9, 1.1, 1.2 * trig_ctx.q, 1.2, 2, trig_ctx)
    for route in Route:
        with pytest.raises(DomainError):
            R_matrix(quad, route)


@pytest.mark.parametrize("level", [Level.TRIG, Level.ELLIPTIC])
def test_paths_match_recurrence_past_small_N(level):
    quad = draw_quad(34, 12, level)
    got = R_paths(quad).entries
    assert rel(got, R_double_sum(quad).entries) < LEVEL_TOL[level]


def test_non_finite_matrix_raises():
    # the entries of this quad overflow at N = 20; no route may return
    # them, and none may warn on the way to the error
    ctx = make_context(0.41, p=0.17)
    quad = ParamQuad(1.2 + 0.3j, 0.8 - 0.2j, 1.1 + 0.4j, 0.7 + 0.2j, 20, ctx)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for route in (Route.RECURRENCE, Route.PATHS, Route.EXPLICIT):
            with pytest.raises(DomainError, match="N = 20"):
                R_matrix(quad, route)


def test_param_quad_validation(ell_ctx):
    with pytest.raises(DomainError):
        ParamQuad(1.0, 1.0, 1.0, 1.0, -1, ell_ctx)
    with pytest.raises(DomainError):
        ParamQuad(0.0, 1.0, 1.1, 0.9, 2, ell_ctx)


@pytest.mark.parametrize("p", [0.0, 0.1])
def test_gbt_row_satisfies_its_expansion(p):
    # h_N(x; a) = sum_k C_k h_k(x; b) h_{N-k}(x; c) away from the grid
    ctx = make_context(0.43, p=p)
    a, b, c = 0.83 + 0.21j, 1.17 - 0.34j, 0.71 + 0.45j
    for N in range(10):
        row = gbt_row(a, b, c, N, ctx)
        for xi in _offgrid_points():
            x = xi + 1 / xi
            lhs = h_value(x, a, N, ctx)
            rhs = sum(
                row[k] * h_value(x, b, k, ctx) * h_value(x, c, N - k, ctx)
                for k in range(N + 1)
            )
            assert abs(lhs - rhs) / max(abs(lhs), abs(rhs)) < 1e-11


def test_recurrence_matches_explicit_at_elliptic_N16():
    # the composed product formulas hold EXPLICIT's accuracy where the
    # entries already span many decades
    quad = draw_quad(30, 16, Level.ELLIPTIC)
    assert rel(R_double_sum(quad).entries, R_explicit(quad).entries) < 1e-10


# -- pairing inverses ---------------------------------------------------------


@pytest.mark.parametrize("level", [Level.TRIG, Level.ELLIPTIC])
def test_swapped_matrix_is_inverse(level):
    tol = 1e-9 if level == Level.TRIG else 1e-8
    quad = draw_quad(35, 3, level)
    A = R_explicit(quad).entries
    back = ParamQuad(quad.c, quad.d, quad.a, quad.b, quad.N, quad.ctx)
    B = R_explicit(back).entries
    assert rel(A @ B, np.eye(quad.N + 1)) < tol


def test_qracah_swapped_matrix_is_inverse():
    quad = draw_quad(36, 3)
    A = qracah_matrix(quad)
    back = ParamQuad(
        quad.c, quad.d, quad.a, quad.b, quad.N, quad.ctx.inverse_base()
    )
    B = qracah_matrix(back)
    assert rel(A @ B, np.eye(quad.N + 1)) < 1e-9


# -- q-Racah against straight polynomial collocation --------------------------


def _xpoch(v, q, k, x):
    out = 1.0 + 0j
    for j in range(k):
        out *= 1 - v * x * q**j
    return out


def _poly_collocate(quad, k, base_lhs):
    a, b, c, d, N = quad.a, quad.b, quad.c, quad.d, quad.N
    q = quad.ctx.q
    xs = [0.31 + 0.67j * j + 0.11 * j * j for j in range(N + 1)]
    A = np.empty((N + 1, N + 1), dtype=complex)
    rhs = np.empty(N + 1, dtype=complex)
    for i, x in enumerate(xs):
        rhs[i] = _xpoch(a, base_lhs, k, x) * _xpoch(b, base_lhs, N - k, x)
        for l in range(N + 1):
            A[i, l] = _xpoch(c, q, l, x) * _xpoch(d, q, N - l, x)
    return np.linalg.solve(A, rhs)


def test_qracah_coefficients_match_collocation():
    quad = draw_quad(37, 3)
    q = quad.ctx.q
    for k in range(quad.N + 1):
        lam_C = _poly_collocate(quad, k, 1 / q)
        lam_D = _poly_collocate(quad, k, q)
        for l in range(quad.N + 1):
            assert rel(qracah_C(k, l, quad), lam_C[l]) < 1e-9
            assert rel(qracah_D(k, l, quad), lam_D[l]) < 1e-9


def test_qracah_rejects_nome(ell_ctx):
    quad = ParamQuad(0.9 + 0.2j, 1.3, 0.8 - 0.3j, 1.1 + 0.4j, 2, ell_ctx)
    with pytest.raises(DomainError):
        qracah_C(0, 0, quad)


# -- symmetries ---------------------------------------------------------------


@pytest.mark.parametrize("level", [Level.TRIG, Level.ELLIPTIC])
def test_symmetries_reindex_the_matrix(level):
    quad = draw_quad(38, 3, level)
    a, b, c, d, N, ctx = quad.a, quad.b, quad.c, quad.d, quad.N, quad.ctx
    M = R_explicit(quad)
    E = M.entries
    assert rel(R_explicit(ParamQuad(b, a, c, d, N, ctx)).entries, E[::-1, :]) < 1e-9
    assert rel(R_explicit(ParamQuad(a, b, d, c, N, ctx)).entries, E[:, ::-1]) < 1e-9
    assert rel(inverted_a(M).entries, E) < 1e-9


# -- addition through an intermediate basis -----------------------------------


@pytest.mark.parametrize("level", [Level.TRIG, Level.ELLIPTIC])
def test_addition_through_intermediate_basis(level):
    tol = 1e-9 if level == Level.TRIG else 1e-8
    cfg = SampleConfig(seed=39, N_max=3)
    a, b, c, d, e, f, N, ctx = sample_generic(
        cfg, Shape.TRIPLE, N=3, level=level
    )
    direct = R_explicit(ParamQuad(a, b, e, f, N, ctx)).entries
    step1 = R_explicit(ParamQuad(a, b, c, d, N, ctx)).entries
    step2 = R_explicit(ParamQuad(c, d, e, f, N, ctx)).entries
    assert rel(step1 @ step2, direct) < tol


# -- Krawtchouk level ---------------------------------------------------------


def _poly_coeff(k, l, N, a, b, c, d):
    P = np.polynomial.polynomial
    prod = P.polymul(P.polypow([b, a], k), P.polypow([d, c], N - k))
    return prod[l] if l < len(prod) else 0j


def test_krawtchouk_matches_polynomial_expansion():
    rng = np.random.default_rng(41)
    for _ in range(8):
        b = complex(rng.normal(), rng.normal())
        c = complex(rng.normal(), rng.normal())
        d = complex(rng.normal(), rng.normal()) + 1.5
        a = (1 + b * c) / d
        N = int(rng.integers(1, 7))
        for k in range(N + 1):
            for l in range(N + 1):
                want = _poly_coeff(k, l, N, a, b, c, d)
                got = krawtchouk_K(k, l, N, a, b, c, d)
                assert abs(got - want) < 1e-9 * max(1.0, abs(want))


def test_krawtchouk_degenerate_branches():
    # d = 0 forces bc = -1; the finite double expansion must take over
    a, b, c, d = 0.7 + 0.2j, 2.0, -0.5, 0.0
    N = 5
    for k in range(N + 1):
        for l in range(N + 1):
            want = _poly_coeff(k, l, N, a, b, c, d)
            got = krawtchouk_K(k, l, N, a, b, c, d)
            assert abs(got - want) < 1e-10 * max(1.0, abs(want))
    # tiny bc with d away from zero
    b2 = 1e-12
    d2 = 1.3
    a2 = (1 + b2 * c) / d2
    got = krawtchouk_K(2, 1, 4, a2, b2, c, d2)
    want = _poly_coeff(2, 1, 4, a2, b2, c, d2)
    assert abs(got - want) < 1e-10 * max(1.0, abs(want))


def test_krawtchouk_normalization_guard():
    with pytest.raises(DomainError):
        krawtchouk_K(0, 0, 2, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        krawtchouk_K(3, 0, 2, 1.0, 0.0, 0.0, 1.0)


def test_krawtchouk_inverse_and_group_law():
    rng = np.random.default_rng(43)
    b, c = rng.normal(), rng.normal()
    d = rng.normal() + 1.7
    A = (complex((1 + b * c) / d), complex(b), complex(c), complex(d))
    N = 4
    K = krawtchouk_matrix(N, *A)
    Ki = krawtchouk_inverse(N, *A)
    assert rel(K @ Ki, np.eye(N + 1)) < 1e-10
    assert sl2_compose(A, sl2_inverse(A)) == pytest.approx((1, 0, 0, 1))

    B = (complex((1 + 0.3 * 0.9) / 1.2), 0.3 + 0j, 0.9 + 0j, 1.2 + 0j)
    lhs, rhs = krawtchouk_addition_sides(N, A, B)
    assert rel(lhs, rhs) < 1e-10


# -- convolution and fusion ----------------------------------------------------


@pytest.mark.parametrize("level", [Level.TRIG, Level.ELLIPTIC])
def test_index_splitting_convolution(level):
    M, Nn = 1, 2
    quad = draw_quad(44, M + Nn, level)
    fused = R_explicit(quad).entries
    scale = float(np.abs(fused).max())
    for sigma in ((0, 1), (1, 0)):
        for tau in ((0, 1), (1, 0)):
            for k1 in range(M + 1):
                for k2 in range(Nn + 1):
                    for l in range(M + Nn + 1):
                        rhs = multiconv_rhs((k1, k2), l, (M, Nn), quad, sigma, tau)
                        assert abs(fused[k1 + k2, l] - rhs) / scale < 1e-9


def test_multifactor_fusion_is_permutation_invariant():
    quad = draw_quad(45, 3, Level.ELLIPTIC)
    Ms = (1, 1, 1)
    ks = (1, 0, 1)
    l = 2
    vals = [
        multiconv_rhs(ks, l, Ms, quad, sigma, tau)
        for sigma in itertools.permutations(range(3))
        for tau in (tuple(range(3)), (2, 0, 1))
    ]
    fused = R_explicit(quad).entries[sum(ks), l]
    for v in vals:
        assert rel(v, fused) < 1e-9


def test_multiconv_rhs_rejects_bad_indices():
    quad = draw_quad(45, 3, Level.TRIG)
    with pytest.raises(DomainError):
        multiconv_rhs((1, 0, 1), 2, (1, 1, 1), quad, (0, 0, 2), (0, 1, 2))
    with pytest.raises(DomainError):
        multiconv_rhs((2, 0, 1), 2, (1, 1, 1), quad, (0, 1, 2), (0, 1, 2))


@pytest.mark.parametrize("level", [Level.TRIG, Level.ELLIPTIC])
def test_multiconv_rhs_builds_no_sub_matrix(level, monkeypatch):
    # each factor is one closed-form entry: neither a route nor the
    # explicit matrix of a sub-quad may be built on a generic quad
    quad = draw_quad(44, 3, level)
    fused = R_explicit(quad).entries
    cases = [
        ((k1, k2), l, (1, 2), sigma, tau)
        for sigma in ((0, 1), (1, 0))
        for tau in ((0, 1), (1, 0))
        for k1 in range(2)
        for k2 in range(3)
        for l in range(4)
    ]
    cases += [
        (ks, l, (1, 1, 1), sigma, tau)
        for ks in ((1, 0, 1), (0, 1, 1))
        for l in range(4)
        for sigma in itertools.permutations(range(3))
        for tau in (tuple(range(3)), (2, 0, 1))
    ]

    def no_build(*args, **kwargs):
        raise AssertionError("multiconv_rhs built a sub-matrix")

    monkeypatch.setattr(sixj, "R_matrix", no_build)
    monkeypatch.setattr(sixj, "R_explicit", no_build)
    scale = float(np.abs(fused).max())
    for ks, l, Ms, sigma, tau in cases:
        rhs = multiconv_rhs(ks, l, Ms, quad, sigma, tau)
        assert abs(fused[sum(ks), l] - rhs) / scale < 1e-9


# -- limit transitions ---------------------------------------------------------


def test_limit_reports_pass_and_carry_orders():
    quad = draw_quad(46, 2)
    q = quad.ctx.q
    reps = {
        LimitKind.H_PRODUCT_LIMITS: limit_h_product(
            a=0.83 + 0.31j, x=1.24 - 0.45j, k=2, q=q
        ),
        LimitKind.TRIG_TO_QRACAH: limit_trig_to_qracah(quad=quad),
        LimitKind.TRIG_TO_QKRAW: limit_trig_to_qkraw(
            a=quad.a, b=quad.b, d=quad.d, k=1, l=1, N=quad.N, q=q
        ),
        LimitKind.ELL_TO_TRIG: limit_ell_to_trig(quad=quad),
    }
    for rep in reps.values():
        assert rep.passed, rep
    assert reps[LimitKind.H_PRODUCT_LIMITS].order == 2
    assert reps[LimitKind.TRIG_TO_QRACAH].order == 2
    assert reps[LimitKind.TRIG_TO_QKRAW].order == 1
    assert reps[LimitKind.ELL_TO_TRIG].order == 1
    assert reps[LimitKind.ELL_TO_TRIG].extra_residual == 0.0
    lo, hi = reps[LimitKind.TRIG_TO_QKRAW].window
    assert lo == pytest.approx(5.0) and hi == pytest.approx(20.0)
    lo2, hi2 = reps[LimitKind.TRIG_TO_QRACAH].window
    assert lo2 == pytest.approx(50.0) and hi2 == pytest.approx(200.0)


def test_qkraw_limit_with_pinned_c_misses_the_window():
    # holding c fixed makes the c-error floor the decay, which the window
    # logic must report as a failure rather than paper over
    quad = draw_quad(47, 2)
    rep = limit_trig_to_qkraw(
        a=quad.a, b=quad.b, d=quad.d, k=1, l=0, N=quad.N, q=quad.ctx.q,
        c=1e-4 + 0j,
    )
    assert not rep.passed


# -- banded normalization --------------------------------------------------------


def test_band_quad_support():
    ctx = make_context(0.45, p=0.1)
    a, b = 1.13 + 0.29j, 0.71 - 0.43j
    M, m, N = 2, 1, 3
    quad = band_quad(a, b, m, M, N, ctx)
    E = R_explicit(quad).entries
    scale = float(np.abs(E).max())
    for k in range(N + 1):
        for l in range(N + 1):
            if l < k - m or l > k + M - m:
                assert abs(E[k, l]) < 1e-10 * scale


def test_w6j_band_and_consistency():
    ctx = make_context(0.45, p=0.1)
    u, xp = 0.83 + 0.21j, 0.57 - 0.33j
    M, N = 1, 2
    vals = {}
    for i in (0, 1):
        for j in (0, 1):
            if (M + j - i) % 2 or not 0 <= (M + j - i) // 2 <= M:
                continue
            m = (M + j - i) // 2
            for k in range(N + 1):
                for l in range(N + 1):
                    v = elliptic_W6j(i, j, k, l, u, xp, M, N, ctx)
                    vals[(i, j, k, l)] = v
                    if l < k - m or l > k + M - m:
                        assert v == 0j
    assert any(abs(v) > 1e-12 for v in vals.values())

    with pytest.raises(DomainError):
        elliptic_W6j(0, 0, 0, 0, u, xp, 1, 2, ctx)  # parity violated
    with pytest.raises(DomainError):
        elliptic_W6j(4, 0, 0, 0, u, xp, 2, 2, ctx)  # shift split outside range
    with pytest.raises(DomainError):
        elliptic_W6j(0, 0, 3, 0, u, xp, 2, 2, ctx)  # k beyond N


# -- exact path combinatorics ----------------------------------------------------


def test_paths_area_statistic_is_gaussian_binomial():
    q = 0.37 + 0.21j
    for N in range(1, 9):
        for l in range(N + 1):
            got = paths_qbinomial(N, l, q)
            assert rel(got, scalar.q_binomial(N, l, q)) < 1e-12


def test_paths_height_marker():
    q, t = 0.52, 0.81 - 0.37j
    N, l = 5, 2
    # after all N steps the height is N - l, deterministically
    full = paths_gf(N, l, N, q, t)
    assert rel(full, t ** (N - l) * paths_qbinomial(N, l, q)) < 1e-12
    # k = 0 never marks anything
    assert rel(paths_gf(N, l, 0, q, t), paths_qbinomial(N, l, q)) < 1e-12
    # at q = 1 the height distribution is plain binomial counting
    k = 3
    want = sum(
        math.comb(k, jj) * math.comb(N - k, N - l - jj) * t**jj
        for jj in range(max(0, k - l), min(k, N - l) + 1)
    )
    assert rel(paths_gf(N, l, k, 1.0, t), want) < 1e-12


def test_subset_expansion_exhaustive_small():
    t = Fraction(3, 7)
    for N in range(1, 6):
        for l in range(N + 1):
            for bits in itertools.product((0, 1), repeat=N):
                K = tuple(i for i, b in enumerate(bits) if b)
                lhs, rhs = subset_expansion_sides(N, l, K, t)
                assert lhs == rhs
