"""Acceptance gates: every headline identity at its stated tolerance.

One test per criterion; each prints a single PASS/FAIL line with the
worst observed residual so a failing run pinpoints the broken identity.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from ellsixj import scalar
from ellsixj.basis import BasisPair, basis_valid
from ellsixj.context import make_context
from ellsixj.errors import SingularParameterError
from ellsixj.harness import (
    Level,
    SampleConfig,
    _ctx_for,
    _draw,
    _draw_N,
    _draw_q,
    _lattice_clear,
    _pair_screen,
    _product_residual,
    _sample_quad,
    _sample_triple,
    _sample_wilson,
    _trial_rng,
    verify_biorthogonality,
    verify_jackson,
    verify_limits,
    verify_multiconv,
    verify_sklyanin,
)
from ellsixj.sixj import (
    ParamQuad,
    R_double_sum,
    R_explicit,
    R_matrix,
    Route,
    band_quad,
    multiconv_rhs,
    paths_qbinomial,
    subset_expansion_sides,
)
from ellsixj.sklyanin import DiffOpSpec, off_band_mass, operator_matrix
from ellsixj.wilson import (
    eto_norm,
    eto_pairing_sum,
    wilson_addition,
    wilson_biorth_sum,
    wilson_norm,
)


def _report(label, worst, bound):
    ok = worst <= bound
    line = f"{'PASS' if ok else 'FAIL'}  {label}  max={worst:.3e}  bound={bound:.0e}"
    print(line)
    assert ok, line


def test_c01_terminating_sum_closed_form():
    trig = verify_jackson(
        SampleConfig(seed=101, trials=100, N_max=6, tol=1e-10),
        levels=(Level.TRIG,),
    )
    _report("closed-form summation (no nome)", trig.max_residual, 1e-10)
    ell = verify_jackson(
        SampleConfig(seed=102, trials=100, N_max=6, tol=1e-9, p_max=0.3),
        levels=(Level.ELLIPTIC,),
    )
    _report("closed-form summation (nome up to 0.3)", ell.max_residual, 1e-9)


def test_c02_four_route_agreement():
    for level, bound in ((Level.TRIG, 1e-8), (Level.ELLIPTIC, 1e-7)):
        cfg = SampleConfig(seed=201, trials=50, N_max=5)
        worst = 0.0
        for t in range(cfg.trials):
            rng = _trial_rng(cfg, t)
            ctx = _ctx_for(cfg, rng, level)
            N = _draw_N(cfg, rng, 5)
            quad = _sample_quad(rng, N, ctx)
            mats = [R_matrix(quad, route).entries for route in Route]
            for A, B in itertools.combinations(mats, 2):
                scale = max(
                    float(np.abs(A).max()), float(np.abs(B).max()), 1e-300
                )
                worst = max(worst, float(np.abs(A - B).max()) / scale)
        _report(f"route agreement ({level.value})", worst, bound)


def test_c03_inverse_pairing_all_levels():
    bounds = {
        Level.KRAWTCHOUK: 1e-8,
        Level.QRACAH: 1e-8,
        Level.TRIG: 1e-8,
        Level.ELLIPTIC: 1e-7,
    }
    for level, bound in bounds.items():
        rep = verify_biorthogonality(
            SampleConfig(seed=301, trials=50, N_max=4, tol=bound),
            levels=(level,),
        )
        _report(f"two-sided inverse ({level.value})", rep.max_residual, bound)


def test_c04_intermediate_basis_addition():
    for p in (0.0, 0.15):
        cfg = SampleConfig(seed=401, trials=30, N_max=3)
        worst = 0.0
        for t in range(cfg.trials):
            rng = _trial_rng(cfg, t)
            ctx = make_context(_draw_q(rng), p=complex(p))
            N = _draw_N(cfg, rng, 3)
            a, b, c, d, e, f = _sample_triple(rng, N, ctx)
            lhs = R_explicit(ParamQuad(a, b, e, f, N, ctx)).entries
            A = R_explicit(ParamQuad(a, b, c, d, N, ctx)).entries
            B = R_explicit(ParamQuad(c, d, e, f, N, ctx)).entries
            worst = max(worst, _product_residual(A, B, lhs))
        _report(f"three-basis addition (p={p})", worst, 1e-7)


def test_c05_binary_convolution_variants():
    for level in (Level.TRIG, Level.ELLIPTIC):
        worst = 0.0
        for pair_idx, (M, Nn) in enumerate(((1, 1), (1, 2), (2, 2))):
            cfg = SampleConfig(seed=501 + pair_idx, trials=20, N_max=M + Nn)
            for t in range(cfg.trials):
                rng = _trial_rng(cfg, t)
                ctx = _ctx_for(cfg, rng, level)
                quad = _sample_quad(rng, M + Nn, ctx)
                fused = R_explicit(quad).entries
                scale = max(float(np.abs(fused).max()), 1e-300)
                cases = [
                    ((k1, k2), l)
                    for k1 in range(M + 1)
                    for k2 in range(Nn + 1)
                    for l in range(M + Nn + 1)
                ]
                for sigma in ((0, 1), (1, 0)):
                    for tau in ((0, 1), (1, 0)):
                        rhss = multiconv_rhs(cases, (M, Nn), quad, sigma, tau)
                        for (ks, l), rhs in zip(cases, rhss):
                            worst = max(
                                worst,
                                abs(fused[sum(ks), l] - rhs) / max(scale, abs(rhs)),
                            )
        _report(f"split convolution ({level.value})", worst, 1e-7)


def test_c06_multifactor_fusion():
    rep = verify_multiconv(
        SampleConfig(seed=601, trials=24, N_max=4, tol=1e-8),
        levels=(Level.TRIG, Level.ELLIPTIC),
    )
    _report("multifactor fusion vs direct entries", rep.max_residual, 1e-8)

    # permutation labels must be immaterial
    cfg = SampleConfig(seed=602, trials=3, N_max=3)
    worst = 0.0
    for t in range(3):
        rng = _trial_rng(cfg, t)
        ctx = _ctx_for(cfg, rng, (Level.TRIG, Level.ELLIPTIC)[t % 2])
        quad = _sample_quad(rng, 3, ctx)
        ks, l = (1, 0, 1), int(rng.integers(0, 4))
        vals = [
            multiconv_rhs([(ks, l)], (1, 1, 1), quad, sigma, (0, 1, 2))[0]
            for sigma in itertools.permutations(range(3))
        ]
        base = max(abs(v) for v in vals)
        worst = max(
            worst,
            max(abs(u - v) for u, v in itertools.combinations(vals, 2)) / base,
        )
    _report("fusion permutation invariance", worst, 1e-8)


def test_c07_rational_grid_biorthogonality_and_addition():
    cfg = SampleConfig(seed=701, trials=10, N_max=5)
    worst_pair = 0.0
    worst_add = 0.0
    for t in range(cfg.trials):
        rng = _trial_rng(cfg, t)
        ctx = _ctx_for(cfg, rng, Level.TRIG)
        N = _draw_N(cfg, rng, 5)
        quad = _sample_quad(rng, N, ctx)
        wp = _sample_wilson(rng, N, ctx.q)
        for n in range(N + 1):
            for m in range(N + 1):
                total, _ = wilson_biorth_sum(n, m, wp)
                want = wilson_norm(n, wp) if n == m else 0j
                worst_pair = max(
                    worst_pair,
                    abs(total - want) / abs(wilson_norm(n, wp)),
                )
                # grid cousin; off-diagonal sums cancel terms far larger
                # than the norm, so scale by whichever is bigger
                total, tscale = eto_pairing_sum(n, m, quad)
                want = eto_norm(n, quad) if n == m else 0j
                worst_pair = max(
                    worst_pair,
                    abs(total - want)
                    / max(abs(eto_norm(n, quad)), tscale),
                )
        n, m = int(rng.integers(0, N + 1)), int(rng.integers(0, N + 1))
        for _ in range(100):
            s = _draw(rng, 0.7, 1.4)
            tt = _draw(rng, 0.7, 1.4)
            if _lattice_clear((s, tt, s * tt, s / tt), ctx, N):
                lhs, mid, rhs = wilson_addition(n, m, s, tt, wp)
                break
        else:
            raise AssertionError("no generic deformation found")
        sc = max(abs(lhs), abs(mid), 1e-300)
        worst_add = max(worst_add, abs(lhs - mid) / sc)
        if rhs is not None:
            worst_add = max(worst_add, abs(mid - rhs) / max(sc, abs(rhs)))
    _report("grid biorthogonality vs norms", worst_pair, 1e-8)
    _report("deformed addition, three expressions", worst_add, 1e-7)


def test_c08_operator_eigenstructure():
    rep = verify_sklyanin(
        SampleConfig(seed=801, trials=30, N_max=4, tol=1e-7)
    )
    _report("shift-operator eigenstructure", rep.max_residual, 1e-7)

    cfg = SampleConfig(seed=802, trials=5, N_max=3)
    worst = 0.0
    for t in range(5):
        rng = _trial_rng(cfg, t)
        ctx = make_context(_draw_q(rng))
        N = _draw_N(cfg, rng, 3)
        for _ in range(100):
            vals = tuple(_draw(rng) for _ in range(5))
            if _lattice_clear(_pair_screen(vals), ctx, N):
                a, b, c, lam, mu = vals
                break
        else:
            raise AssertionError("no generic operator data found")
        op = DiffOpSpec.three(a, b, c, N, ctx)
        res = off_band_mass(operator_matrix(op, lam, mu, N, ctx))
        worst = max(worst, res)
    _report("polynomial-limit band structure", worst, 1e-7)


def test_c09_degeneration_decay_rates():
    rep = verify_limits(
        SampleConfig(seed=901, trials=10, N_max=3, tol=1e-12)
    )
    _report("degeneration decay windows", rep.max_residual, 1e-12)


def test_c10_exact_combinatorics():
    bad = 0
    for N in range(1, 9):
        for l in range(N + 1):
            for bits in itertools.product((0, 1), repeat=N):
                K = tuple(i for i, b in enumerate(bits) if b)
                for t in (Fraction(2, 3), Fraction(5, 7), Fraction(-3, 4)):
                    lhs, rhs = subset_expansion_sides(N, l, K, t)
                    bad += lhs != rhs
    _report("subset-overlap expansion, exact", float(bad), 0.0)

    q = 0.41 + 0.18j
    worst = 0.0
    for N in range(1, 11):
        for l in range(N + 1):
            got = paths_qbinomial(N, l, q)
            want = scalar.q_binomial(N, l, q)
            worst = max(worst, abs(got - want) / abs(want))
    _report("path area statistic vs Gaussian binomial", worst, 1e-12)


def test_c11_band_support():
    cfg = SampleConfig(seed=1101, trials=20, N_max=3)
    worst = 0.0
    for M, N in ((1, 2), (2, 3)):
        for t in range(cfg.trials):
            rng = _trial_rng(cfg, t)
            ctx = _ctx_for(cfg, rng, Level.ELLIPTIC)
            m = int(rng.integers(0, M + 1))
            for _ in range(100):
                a, b = _draw(rng), _draw(rng)
                quad = band_quad(a, b, m, M, N, ctx)
                cd_ok = basis_valid(BasisPair(quad.c, quad.d, N), ctx)
                if cd_ok and basis_valid(BasisPair(a, b, N), ctx):
                    break
            else:
                raise AssertionError("no generic banded quad found")
            # the closed form is resonant on a band quad; RECURRENCE is not
            with pytest.raises(SingularParameterError, match="resonant at entry"):
                R_explicit(quad)
            E = R_double_sum(quad).entries
            scale = float(np.abs(E).max())
            for k in range(N + 1):
                for l in range(N + 1):
                    if l < k - m or l > k + M - m:
                        worst = max(worst, abs(E[k, l]) / scale)
    _report("fused-weight band support", worst, 1e-10)
