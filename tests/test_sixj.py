"""Connection-coefficient matrices: routes, inverses, symmetries, limits."""

import cmath
import itertools
import math
import warnings
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import draw_quad, rel
from ellsixj import basis, scalar, sixj
from ellsixj.backend import kernels
from ellsixj.basis import h_value
from ellsixj.context import make_context
from ellsixj.errors import DomainError, IllConditionedError, SixjError
from ellsixj.harness import LEVEL_TOL, Level, SampleConfig, Shape, sample_generic
from ellsixj.sixj import (
    LimitReport,
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


def test_zero_parameters_give_a_matrix_or_a_sixj_error(trig_ctx):
    # a route that divides by the zero parameter names it; the others
    # return the matrix of the definition
    base = (0.9 + 0.2j, 1.3, 0.8 - 0.3j, 1.1 + 0.4j)
    returns = {("a", Route.RECURRENCE), ("a", Route.PATHS), ("b", Route.PATHS)}
    for i, name in enumerate("abcd"):
        quad = ParamQuad(*base[:i], 0j, *base[i + 1 :], 3, trig_ctx)
        solved = R_matrix(quad, Route.SOLVE).entries
        for route in (Route.EXPLICIT, Route.RECURRENCE, Route.PATHS):
            if (name, route) in returns:
                assert rel(R_matrix(quad, route).entries, solved) < 1e-9
            else:
                with pytest.raises(DomainError, match=f"needs {name} != 0"):
                    R_matrix(quad, route)


def _count_theta(monkeypatch) -> list:
    """Theta values computed, one per `kernels.theta` call and per argument
    of a `kernels.thetas` batch."""
    calls = [0]
    one, batch = kernels.theta, kernels.thetas

    def counting_one(*args):
        calls[0] += 1
        return one(*args)

    def counting_batch(xs, *args):
        calls[0] += len(xs)
        return batch(xs, *args)

    monkeypatch.setattr(kernels, "theta", counting_one)
    monkeypatch.setattr(kernels, "thetas", counting_batch)
    return calls


def test_explicit_reads_quadratic_theta_rows(monkeypatch):
    # 12N - 2 prefactor values and 3N^2 + 12N + 2 series values per matrix,
    # the same for every quad of one N
    calls = _count_theta(monkeypatch)
    for N in (1, 4, 9, 16):
        for seed in (36, 37):
            calls[0] = 0
            R = R_explicit(draw_quad(seed, N, Level.ELLIPTIC))
            assert not R.fallback
            assert calls[0] == 3 * N * N + 24 * N


def test_explicit_entries_equal_the_single_entry_series():
    # the series rows change when theta values are computed, never how:
    # each entry is bit for bit its prefactor times entry_series (eval_V12)
    for level in (Level.TRIG, Level.ELLIPTIC):
        for N in (1, 4, 8, 12):
            for seed in range(30, 35):
                quad = draw_quad(seed, N, level)
                R = R_explicit(quad)
                assert not R.fallback
                prefactor = sixj._theta_rows(sixj._prefactor_specs(quad), quad.ctx)
                for k in range(N + 1):
                    for l in range(N + 1):
                        single = SimpleNamespace(
                            sum=lambda bs, z, n: sixj.entry_series(quad, k, l)
                        )
                        want = sixj._r_entry_explicit(quad, prefactor, single, k, l)
                        assert R.entries[k, l] == want, (level, N, seed, k, l)


def _explicit_outcome(quad) -> tuple:
    """R_explicit's entry bits and fallback entries, or its error and text."""
    try:
        R = R_explicit(quad)
    except SixjError as exc:
        return type(exc).__name__, str(exc)
    return R.entries.tobytes(), R.fallback


def test_explicit_matrix_path_is_the_per_entry_loop_bit_for_bit(monkeypatch):
    # from the cutover up every entry advances together; with the cutover
    # moved either way R_explicit gives the same entry bits, the same
    # fallback entries and the same errors, warning about nothing
    quads = [
        draw_quad(seed, N, level)
        for level in (Level.TRIG, Level.ELLIPTIC)
        for N in (1, 2, 3, 4, 5, 6, 9)
        for seed in (30, 31)
    ]
    vanishing = []
    for level in (Level.TRIG, Level.ELLIPTIC):
        # b = c q^-2 and a = c q^-1 zero prefactor factors of 16 and 5 entries
        base = draw_quad(33, 3, level)
        a, b, c, d, q = base.a, base.b, base.c, base.d, base.ctx.q
        vanishing += [
            (ParamQuad(a, c / q**2, c, d, 3, base.ctx), 16),
            (ParamQuad(c / q, b, c, d, 3, base.ctx), 5),
        ]
    # entries that overflow (ROADMAP item 4)
    ctx = make_context(0.41, p=0.17)
    huge = ParamQuad(1.2 + 0.3j, 0.8 - 0.2j, 1.1 + 0.4j, 0.7 + 0.2j, 20, ctx)
    cutover = sixj.EXPLICIT_MATRIX_N, sixj.EXPLICIT_MATRIX_N_TRIG
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for quad in quads + [quad for quad, _ in vanishing] + [huge]:
            assert sixj._explicit_matrix(quad) is not None
            outcomes = []
            for ell, trig in ((0, 0), cutover, (10**6, 10**6)):
                monkeypatch.setattr(sixj, "EXPLICIT_MATRIX_N", ell)
                monkeypatch.setattr(sixj, "EXPLICIT_MATRIX_N_TRIG", trig)
                outcomes.append(_explicit_outcome(quad))
            assert outcomes[0] == outcomes[1] == outcomes[2], quad
    for quad, flagged in vanishing:
        assert len(R_explicit(quad).fallback) == flagged
    overflow = ("DomainError", "non-finite matrix entries at N = 20")
    assert _explicit_outcome(huge) == overflow


def test_explicit_cutover_picks_the_path(monkeypatch):
    # the per-entry loop runs up to elliptic N = 2 and trigonometric N = 5,
    # the whole-matrix path from elliptic N = 3 and trigonometric N = 6
    whole = sixj._explicit_matrix
    used = []

    def spy(quad):
        used.append(quad.N)
        out = whole(quad)
        assert out is not None
        return out

    monkeypatch.setattr(sixj, "_explicit_matrix", spy)
    # the choice of path, whether or not this interpreter's arrays are exact
    monkeypatch.setattr(kernels, "EXACT_ARRAYS", True)
    for level, loop, matrix in ((Level.ELLIPTIC, 2, 3), (Level.TRIG, 5, 6)):
        for N in (loop, matrix):
            used.clear()
            R_explicit(draw_quad(30, N, level))
            assert used == ([N] if N == matrix else []), (level, N)


def test_explicit_keeps_the_per_entry_loop_where_arrays_differ(monkeypatch):
    # an interpreter whose complex arithmetic the arrays do not reproduce
    quad = draw_quad(30, 8, Level.ELLIPTIC)
    want = _explicit_outcome(quad)
    monkeypatch.setattr(kernels, "EXACT_ARRAYS", False)
    monkeypatch.setattr(sixj, "_explicit_matrix", None)
    assert _explicit_outcome(quad) == want


def test_balanced_ratio_pairs_its_factors():
    assert sixj._balanced_ratio([2.0, 3j], [4.0, 1j], "x") == 1.5
    with pytest.raises(ValueError, match="2 numerator and 1 denominator"):
        sixj._balanced_ratio([1.0, 2.0], [1.0], "x")


def test_paths_reads_linear_theta_rows(monkeypatch):
    # 19N - 8 theta values per matrix, then O(N^3) products
    calls = _count_theta(monkeypatch)
    for N in (1, 4, 9):
        calls[0] = 0
        R_paths(draw_quad(36, N, Level.ELLIPTIC))
        assert calls[0] == 19 * N - 8


def test_row_routes_match_recurrence_at_elliptic_N12():
    # PATHS is the least accurate closed route: 3.1e-11 at seed 30 (its
    # theta arguments reach |q|^(2-2N); see ROADMAP item 4)
    for seed in range(30, 35):
        quad = draw_quad(seed, 12, Level.ELLIPTIC)
        want = R_double_sum(quad).entries
        assert rel(R_explicit(quad).entries, want) < 1e-12
        assert rel(R_paths(quad).entries, want) < 1e-10


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
    lhs, bridge, KB = krawtchouk_addition_sides(N, A, B)
    assert rel(lhs, bridge @ KB) < 1e-10


# -- convolution and fusion ----------------------------------------------------


@pytest.mark.parametrize("level", [Level.TRIG, Level.ELLIPTIC])
def test_index_splitting_convolution(level):
    M, Nn = 1, 2
    quad = draw_quad(44, M + Nn, level)
    fused = R_explicit(quad).entries
    scale = float(np.abs(fused).max())
    cases = [
        ((k1, k2), l)
        for k1 in range(M + 1)
        for k2 in range(Nn + 1)
        for l in range(M + Nn + 1)
    ]
    for sigma in ((0, 1), (1, 0)):
        for tau in ((0, 1), (1, 0)):
            rhss = multiconv_rhs(cases, (M, Nn), quad, sigma, tau)
            assert len(rhss) == len(cases)
            for (ks, l), rhs in zip(cases, rhss):
                assert abs(fused[sum(ks), l] - rhs) / scale < 1e-9


def test_multifactor_fusion_is_permutation_invariant():
    quad = draw_quad(45, 3, Level.ELLIPTIC)
    Ms = (1, 1, 1)
    ks = (1, 0, 1)
    l = 2
    vals = [
        multiconv_rhs([(ks, l)], Ms, quad, sigma, tau)[0]
        for sigma in itertools.permutations(range(3))
        for tau in (tuple(range(3)), (2, 0, 1))
    ]
    fused = R_explicit(quad).entries[sum(ks), l]
    for v in vals:
        assert rel(v, fused) < 1e-9


def test_multiconv_rhs_rejects_bad_indices():
    quad = draw_quad(45, 3, Level.TRIG)
    with pytest.raises(DomainError):
        multiconv_rhs([((1, 0, 1), 2)], (1, 1, 1), quad, (0, 0, 2), (0, 1, 2))
    with pytest.raises(DomainError):
        multiconv_rhs([((2, 0, 1), 2)], (1, 1, 1), quad, (0, 1, 2), (0, 1, 2))
    with pytest.raises(DomainError):
        multiconv_rhs([((1, 0), 1)], (1, 1, 1), quad, (0, 1, 2), (0, 1, 2))


@pytest.mark.parametrize("level", [Level.TRIG, Level.ELLIPTIC])
def test_multiconv_rhs_builds_each_sub_matrix_once(level, monkeypatch):
    # within one call every factor is an entry of its sub-quad's R_explicit
    # matrix, built once however many cases and compositions read it
    quad = draw_quad(44, 3, level)
    fused = R_explicit(quad).entries
    scale = float(np.abs(fused).max())
    binary = [((k1, k2), l) for k1 in range(2) for k2 in range(3) for l in range(4)]
    fusion = [(ks, l) for ks in ((1, 0, 1), (0, 1, 1)) for l in range(4)]
    calls = [
        (binary, (1, 2), sigma, tau)
        for sigma in ((0, 1), (1, 0))
        for tau in ((0, 1), (1, 0))
    ]
    calls += [
        (fusion, (1, 1, 1), sigma, tau)
        for sigma in itertools.permutations(range(3))
        for tau in (tuple(range(3)), (2, 0, 1))
    ]
    built = []
    explicit = sixj.R_explicit

    def counted(sub):
        built.append(sub)
        return explicit(sub)

    monkeypatch.setattr(sixj, "R_explicit", counted)
    for cases, Ms, sigma, tau in calls:
        built.clear()
        rhss = multiconv_rhs(cases, Ms, quad, sigma, tau)
        assert built and len(set(built)) == len(built), (Ms, sigma, tau)
        assert len(rhss) == len(cases)
        for (ks, l), rhs in zip(cases, rhss):
            assert abs(fused[sum(ks), l] - rhs) / scale < 1e-9


# -- limit transitions ---------------------------------------------------------


def test_limit_reports_pass_and_carry_orders():
    quad = draw_quad(46, 2)
    q = quad.ctx.q
    reps = {
        "h_product": limit_h_product(
            a=0.83 + 0.31j, x=1.24 - 0.45j, k=2, q=q
        ),
        "trig_to_qracah": limit_trig_to_qracah(quad=quad),
        "trig_to_qkraw": limit_trig_to_qkraw(
            a=quad.a, b=quad.b, d=quad.d, k=1, l=1, N=quad.N, q=q
        ),
        "ell_to_trig": limit_ell_to_trig(quad=quad),
    }
    for rep in reps.values():
        assert rep.miss == 0.0, rep
    assert reps["h_product"].order == 2
    assert reps["trig_to_qracah"].order == 2
    assert reps["trig_to_qkraw"].order == 1
    assert reps["ell_to_trig"].order == 1
    assert reps["ell_to_trig"].extra_residual == 0.0
    lo, hi = reps["trig_to_qkraw"].window
    assert lo == pytest.approx(5.0) and hi == pytest.approx(20.0)
    lo2, hi2 = reps["trig_to_qracah"].window
    assert lo2 == pytest.approx(50.0) and hi2 == pytest.approx(200.0)


def test_qkraw_limit_with_pinned_c_misses_the_window():
    # holding c fixed at 1e-4 in the q-Krawtchouk limit makes the c-error
    # floor the decay: on draw_quad(47, 2) at k = 1, l = 0 the residual
    # grew from 0.154 to 2.06 between the two scales.  A stalled or growing
    # pair falls outside the window, which must report it as a failure
    # rather than paper over it
    for residuals in ((0.154, 2.06), (1e-6, 1e-6)):
        rep = LimitReport(residuals)
        assert rep.miss > LEVEL_TOL[Level.TRIG], rep


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


def test_subset_expansion_exhaustive_small():
    t = Fraction(3, 7)
    for N in range(1, 6):
        for l in range(N + 1):
            for bits in itertools.product((0, 1), repeat=N):
                K = tuple(i for i, b in enumerate(bits) if b)
                lhs, rhs = subset_expansion_sides(N, l, K, t)
                assert lhs == rhs
