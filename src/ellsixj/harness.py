"""Seeded randomized verification of the cross-cutting identities.

Suites
------
expansion    collocation round trips and agreement of the four routes
biorth       two-sided inversion of the coefficient matrix, all four levels
addition     triple-basis factorization and the SL(2) group law
convolution  binary index-splitting, all four shift placements
multiconv    multifactor fusion under random permutation pairs, exact counts
jackson      terminating very-well-poised summation, series against product
symmetry     parameter swaps and the inversion covariance
limits       the degeneration cascade, with decay-order windows
wilson       biorthogonality and deformed addition in the rational picture
sklyanin     difference-operator eigenrelations, band structure, and the GEVP

Every trial draws parameters from a counter-split Philox stream keyed by
(seed, trial index), so runs are reproducible and trials independent.
Residuals are normalized by the largest term magnitude met while forming
the identity, not by the (possibly cancelling) result.  The sampler
rejects parameters that land within `basis.GEN_DELTA`, the tolerance the
routes' validity tests use, of any lattice point a denominator could
vanish on; after 100 rejections it gives up loudly rather than report a
vacuous pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from . import scalar
from . import sklyanin as skl
from .basis import (
    BasisPair,
    _near_lattice,
    basis_valid,
    expand_by_solve,
    expansion_residual,
    h_pair_fn,
)
from .context import make_context
from .errors import DomainError, SamplingError, SixjError
from .series import eval_V12, jackson_rhs, jackson_spec, series_terms
from .sixj import (
    ParamQuad,
    Route,
    R_explicit,
    R_matrix,
    inverted_a,
    krawtchouk_addition_sides,
    krawtchouk_inverse,
    krawtchouk_matrix,
    limit_ell_to_trig,
    limit_h_product,
    limit_trig_to_qkraw,
    limit_trig_to_qracah,
    multiconv_rhs,
    paths_qbinomial,
    qracah_matrix,
    subset_expansion_sides,
)
from .wilson import (
    WilsonParams,
    eto_norm,
    eto_pairing_sum,
    wilson_addition,
    wilson_biorth_sum,
    wilson_norm,
)

RESAMPLE_BUDGET = 100
#: moduli of the sampled parameters
MODULUS_RANGE = (0.5, 2.0)


class Level(str, Enum):
    KRAWTCHOUK = "krawtchouk"
    QRACAH = "qracah"
    TRIG = "trig"
    ELLIPTIC = "elliptic"


LEVEL_TOL = {
    Level.KRAWTCHOUK: 1e-9,
    Level.QRACAH: 1e-9,
    Level.TRIG: 1e-8,
    Level.ELLIPTIC: 1e-7,
}


class Shape(str, Enum):
    QUAD = "quad"
    TRIPLE = "triple"
    WILSON = "wilson"
    SKLYANIN = "sklyanin"


@dataclass(frozen=True)
class SampleConfig:
    seed: int = 0
    trials: int = 20
    N_max: int = 4
    p_max: float = 0.3
    tol: float | None = None  # None picks the per-level default

    def __post_init__(self) -> None:
        if not 0 <= self.p_max < 1:
            raise DomainError("p_max must lie in [0, 1)")
        if self.trials < 1 or self.N_max < 1:
            raise DomainError("need trials >= 1 and N_max >= 1")
        if self.tol is not None:
            require_tol(self.tol)


def require_tol(tol: float) -> None:
    """Reject a tolerance that is not a finite positive number."""
    if not (math.isfinite(tol) and tol > 0):
        raise DomainError(f"tol must be a finite positive number, not {tol}")


@dataclass
class Failure:
    trial: int
    params: dict
    residual: float


@dataclass
class VerifyReport:
    suite: str
    trials: int
    seed: int
    tol: float
    max_residual: float
    failures: list

    @property
    def passed(self) -> bool:
        return not self.failures


# -- sampling ----------------------------------------------------------------


def _trial_rng(cfg: SampleConfig, trial: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=cfg.seed).jumped(trial))


def _draw(rng, lo: float = MODULUS_RANGE[0], hi: float = MODULUS_RANGE[1]) -> complex:
    r = rng.uniform(lo, hi)
    ang = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(ang), r * math.sin(ang))


def _draw_q(rng) -> complex:
    return complex(rng.uniform(0.32, 0.55))


def _draw_N(cfg: SampleConfig, rng, cap: int) -> int:
    return int(rng.integers(1, min(cfg.N_max, cap) + 1))


def _ctx_for(cfg: SampleConfig, rng, level: Level):
    q = _draw_q(rng)
    p = complex(rng.uniform(0.05, cfg.p_max)) if level == Level.ELLIPTIC else 0j
    return make_context(q, p=p)


def _lattice_clear(vals, ctx, N: int) -> bool:
    span = range(-(2 * N + 2), 2 * N + 3)
    for v in vals:
        if not 1e-12 < abs(v) < 1e12:
            return False
        if _near_lattice(v, ctx.q, span, ctx.p) is not None:
            return False
    return True


def _pair_screen(params) -> list:
    out = []
    for i in range(len(params)):
        for j in range(i + 1, len(params)):
            out.append(params[i] * params[j])
            out.append(params[i] / params[j])
    return out


def _sample_quad(rng, N: int, ctx) -> ParamQuad:
    for _ in range(RESAMPLE_BUDGET):
        a, b, c, d = (_draw(rng) for _ in range(4))
        if not basis_valid(BasisPair(c, d, N), ctx):
            continue
        if not basis_valid(BasisPair(a, b, N), ctx):
            continue
        if _lattice_clear(_pair_screen((a, b, c, d)), ctx, N):
            return ParamQuad(a, b, c, d, N, ctx)
    raise SamplingError("no generic quadruple within the rejection budget")


def _sample_triple(rng, N: int, ctx) -> tuple:
    for _ in range(RESAMPLE_BUDGET):
        vals = tuple(_draw(rng) for _ in range(6))
        a, b, c, d, e, f = vals
        ok = all(
            basis_valid(BasisPair(u, v, N), ctx)
            for u, v in ((a, b), (c, d), (e, f))
        )
        if ok and _lattice_clear(_pair_screen(vals), ctx, N):
            return vals
    raise SamplingError("no generic basis triple within the rejection budget")


def _sample_wilson(rng, N: int, q: complex) -> WilsonParams:
    ctx = make_context(q)
    for _ in range(RESAMPLE_BUDGET):
        a, c, d, e = (_draw(rng) for _ in range(4))
        b = q ** (-N) / a
        f = q ** (N + 1) / (c * d * e)
        vals = (a, b, c, d, e, f)
        # a*b sits on the lattice by construction; screen everything else
        screen = [v for v in _pair_screen(vals) if abs(v - a * b) > 1e-15]
        if not _lattice_clear(screen, ctx, N):
            continue
        try:
            return WilsonParams(a, b, c, d, e, f, q, N)
        except DomainError:
            continue
    raise SamplingError("no generic sextuple within the rejection budget")


def _sample_sklyanin(rng, N: int, ctx) -> tuple:
    for _ in range(RESAMPLE_BUDGET):
        a, b, c = (_draw(rng) for _ in range(3))
        d = ctx.q ** (-N) / (a * b * c)
        vals = (a, b, c, d)
        screen = _pair_screen(vals)
        # the operator shifts arguments by half q-powers as well
        screen += [v / ctx.q_half for v in _pair_screen(vals)[::2]]
        if _lattice_clear(screen, ctx, N):
            return vals
    raise SamplingError("no generic operator parameters within the budget")


def _sample_sl2(rng) -> tuple:
    for _ in range(RESAMPLE_BUDGET):
        b, c, d = (_draw(rng) for _ in range(3))
        if abs(d) < 0.05:
            continue
        a = (1.0 + b * c) / d
        if 0.05 < abs(a) < 50.0:
            return (a, b, c, d)
    raise SamplingError("no generic unimodular matrix within the budget")


def sample_generic(cfg: SampleConfig, shape: Shape, rng=None, N: int | None = None,
                   level: Level = Level.TRIG):
    """Draw one generic parameter set of the requested shape.

    Deterministic in cfg.seed when no generator is supplied.
    """
    shape = Shape(shape)
    if rng is None:
        rng = _trial_rng(cfg, 0)
    if N is None:
        N = _draw_N(cfg, rng, cfg.N_max)
    ctx = _ctx_for(cfg, rng, level)
    if shape == Shape.QUAD:
        return _sample_quad(rng, N, ctx)
    if shape == Shape.TRIPLE:
        return (*_sample_triple(rng, N, ctx), N, ctx)
    if shape == Shape.WILSON:
        return _sample_wilson(rng, N, ctx.q)
    return (*_sample_sklyanin(rng, N, ctx), N, ctx)


# -- residual helpers ---------------------------------------------------------


def _product_residual(A, B, target) -> float:
    """max |(AB - target)[k,l]| over the largest summand met on the way."""
    A = np.asarray(A, dtype=complex)
    B = np.asarray(B, dtype=complex)
    target = np.asarray(target, dtype=complex)
    terms = A[:, :, None] * B[None, :, :]
    scale = max(float(np.abs(terms).max()), float(np.abs(target).max()), 1e-300)
    return float(np.abs(terms.sum(axis=1) - target).max() / scale)


def _entry_residual(got, want) -> float:
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    scale = max(float(np.abs(want).max()), float(np.abs(got).max()), 1e-300)
    return float(np.abs(got - want).max() / scale)


def _cval(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def _quad_params(quad: ParamQuad) -> dict:
    return {
        "a": _cval(quad.a), "b": _cval(quad.b), "c": _cval(quad.c),
        "d": _cval(quad.d), "N": quad.N, "q": _cval(quad.ctx.q),
        "p": _cval(quad.ctx.p),
    }


def _levels(levels, default: tuple) -> tuple:
    if levels is None:
        return default
    return tuple(Level(l) for l in levels)


def _run(suite: str, cfg: SampleConfig, levels: tuple, trial_fn) -> VerifyReport:
    tol = cfg.tol if cfg.tol is not None else max(LEVEL_TOL[l] for l in levels)
    worst = 0.0
    failures = []
    for t in range(cfg.trials):
        rng = _trial_rng(cfg, t)
        level = levels[t % len(levels)]
        try:
            residual, params = trial_fn(rng, level)
        except SixjError as exc:
            residual, params = 1e300, {"error": f"{type(exc).__name__}: {exc}"}
        if not math.isfinite(residual):
            residual = 1e300
        params["level"] = level.value
        worst = max(worst, residual)
        if not (residual <= tol):
            failures.append(Failure(t, params, residual))
    return VerifyReport(suite, cfg.trials, cfg.seed, tol, worst, failures)


# -- suites -------------------------------------------------------------------


def verify_expansion(cfg: SampleConfig, levels=None) -> VerifyReport:
    """Collocation round trip plus agreement of all four matrix routes."""
    levels = _levels(levels, (Level.TRIG, Level.ELLIPTIC))

    def trial(rng, level):
        ctx = _ctx_for(cfg, rng, level)
        N = _draw_N(cfg, rng, 5)
        quad = _sample_quad(rng, N, ctx)
        pair = quad.pair_cd()
        lam = np.array([_draw(rng) for _ in range(N + 1)])
        fns = [h_pair_fn(pair.c, pair.d, j, N, ctx) for j in range(N + 1)]

        def f(x):
            return sum(w * g(x) for w, g in zip(lam, fns))

        coeffs = expand_by_solve([f], pair, ctx)[0]
        r1 = expansion_residual(f, coeffs, pair, ctx)
        mats = [R_matrix(quad, route).entries for route in Route]
        scale = max(float(np.abs(mats[0]).max()), 1e-300)
        r2 = max(float(np.abs(mats[0] - M).max()) / scale for M in mats[1:])
        return max(r1, r2), _quad_params(quad)

    return _run("expansion", cfg, levels, trial)


def verify_biorthogonality(cfg: SampleConfig, levels=None) -> VerifyReport:
    """The matrix against its parameter-swapped partner is the identity."""
    levels = _levels(
        levels, (Level.TRIG, Level.ELLIPTIC, Level.KRAWTCHOUK, Level.QRACAH)
    )

    def trial(rng, level):
        if level == Level.KRAWTCHOUK:
            N = _draw_N(cfg, rng, 6)
            A1 = _sample_sl2(rng)
            K = krawtchouk_matrix(N, *A1)
            Ki = krawtchouk_inverse(N, *A1)
            res = _product_residual(K, Ki, np.eye(N + 1))
            return res, {"N": N, "abcd": [_cval(v) for v in A1]}
        ctx = _ctx_for(cfg, rng, level)
        N = _draw_N(cfg, rng, 4)
        quad = _sample_quad(rng, N, ctx)
        if level == Level.QRACAH:
            A = qracah_matrix(quad)
            back = ParamQuad(quad.c, quad.d, quad.a, quad.b, N, ctx.inverse_base())
            B = qracah_matrix(back)
        else:
            A = R_matrix(quad).entries
            back = ParamQuad(quad.c, quad.d, quad.a, quad.b, N, ctx)
            B = R_matrix(back).entries
        res = _product_residual(A, B, np.eye(N + 1))
        return res, _quad_params(quad)

    return _run("biorth", cfg, levels, trial)


def verify_addition(cfg: SampleConfig, levels=None) -> VerifyReport:
    """Connection through an intermediate basis factors the direct one."""
    levels = _levels(levels, (Level.TRIG, Level.ELLIPTIC, Level.KRAWTCHOUK))

    def trial(rng, level):
        if level == Level.KRAWTCHOUK:
            N = _draw_N(cfg, rng, 5)
            A1 = _sample_sl2(rng)
            A2 = _sample_sl2(rng)
            lhs, bridge, K2 = krawtchouk_addition_sides(N, A1, A2)
            res = _product_residual(bridge, K2, lhs)
            return res, {
                "N": N,
                "A1": [_cval(v) for v in A1],
                "A2": [_cval(v) for v in A2],
            }
        ctx = _ctx_for(cfg, rng, level)
        N = _draw_N(cfg, rng, 3)
        a, b, c, d, e, f = _sample_triple(rng, N, ctx)
        lhs = R_matrix(ParamQuad(a, b, e, f, N, ctx)).entries
        A = R_matrix(ParamQuad(a, b, c, d, N, ctx)).entries
        B = R_matrix(ParamQuad(c, d, e, f, N, ctx)).entries
        res = _product_residual(A, B, lhs)
        return res, {
            "a": _cval(a), "b": _cval(b), "c": _cval(c), "d": _cval(d),
            "e": _cval(e), "f": _cval(f), "N": N, "q": _cval(ctx.q),
            "p": _cval(ctx.p),
        }

    return _run("addition", cfg, levels, trial)


_MN_CHOICES = ((1, 1), (1, 2), (2, 2))


def verify_convolution(cfg: SampleConfig, levels=None) -> VerifyReport:
    """Binary index splitting, all four placements of the shifts."""
    levels = _levels(levels, (Level.TRIG, Level.ELLIPTIC, Level.KRAWTCHOUK))

    def trial(rng, level):
        M, Nn = _MN_CHOICES[int(rng.integers(0, len(_MN_CHOICES)))]
        if level == Level.KRAWTCHOUK:
            A1 = _sample_sl2(rng)
            big = krawtchouk_matrix(M + Nn, *A1)
            left = krawtchouk_matrix(M, *A1)
            right = krawtchouk_matrix(Nn, *A1)
            scale = max(float(np.abs(big).max()), 1e-300)
            gaps = []
            for k in range(M + 1):
                for j in range(Nn + 1):
                    for l in range(M + Nn + 1):
                        s = 0j
                        for m in range(max(0, l - Nn), min(M, l) + 1):
                            term = left[k, m] * right[j, l - m]
                            s += term
                            scale = max(scale, abs(term))
                        gaps.append(abs(big[k + j, l] - s))
            worst = max(gaps) / scale
            return worst, {"M": M, "N": Nn, "abcd": [_cval(v) for v in A1]}
        ctx = _ctx_for(cfg, rng, level)
        quad = _sample_quad(rng, M + Nn, ctx)
        fused = R_explicit(quad).entries
        scale = max(float(np.abs(fused).max()), 1e-300)
        worst = 0.0
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
                        worst, abs(fused[sum(ks), l] - rhs) / max(scale, abs(rhs))
                    )
        params = _quad_params(quad)
        params.update({"M": M, "Npart": Nn})
        return worst, params

    return _run("convolution", cfg, levels, trial)


def verify_multiconv(cfg: SampleConfig, levels=None) -> VerifyReport:
    """Multifactor fusion with random permutation labels; exact path counts."""
    levels = _levels(levels, (Level.TRIG, Level.ELLIPTIC, Level.KRAWTCHOUK))

    def trial(rng, level):
        if level == Level.KRAWTCHOUK:
            q = _draw_q(rng)
            N = int(rng.integers(2, 9))
            l = int(rng.integers(0, N + 1))
            ksize = int(rng.integers(0, N + 1))
            K = tuple(sorted(int(v) for v in rng.choice(N, size=ksize, replace=False)))
            t = Fraction(int(rng.integers(1, 7)), int(rng.integers(7, 13)))
            lhs, rhs = subset_expansion_sides(N, l, K, t)
            exact = 0.0 if lhs == rhs else 1.0
            qb = paths_qbinomial(N, l, q)
            want = scalar.q_binomial(N, l, q)
            rel = abs(qb - want) / max(abs(want), 1e-300)
            return max(exact, rel), {"N": N, "l": l, "K": list(K), "q": _cval(q)}
        ctx = _ctx_for(cfg, rng, level)
        n = int(rng.integers(3, 5))
        Ms = [1] * n
        if n == 3 and rng.integers(0, 2):
            Ms[int(rng.integers(0, 3))] = 2
        total = sum(Ms)
        ks = tuple(int(rng.integers(0, Mi + 1)) for Mi in Ms)
        l = int(rng.integers(0, total + 1))
        sigma = tuple(int(v) for v in rng.permutation(n))
        tau = tuple(int(v) for v in rng.permutation(n))
        quad = _sample_quad(rng, total, ctx)
        (rhs,) = multiconv_rhs([(ks, l)], Ms, quad, sigma, tau)
        lhs = R_explicit(quad).entries[sum(ks), l]
        res = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)
        params = _quad_params(quad)
        params.update({"ks": list(ks), "Ms": list(Ms), "l": l,
                       "sigma": list(sigma), "tau": list(tau)})
        return res, params

    return _run("multiconv", cfg, levels, trial)


def verify_jackson(cfg: SampleConfig, levels=None) -> VerifyReport:
    """Terminating very-well-poised sum against its closed product."""
    levels = _levels(levels, (Level.TRIG, Level.ELLIPTIC))

    def trial(rng, level):
        ctx = _ctx_for(cfg, rng, level)
        N = _draw_N(cfg, rng, 6)
        for _ in range(RESAMPLE_BUDGET):
            a, b, c, xi = (_draw(rng) for _ in range(4))
            if _lattice_clear(_pair_screen((a, b, c, xi)), ctx, N):
                break
        else:
            raise SamplingError("no generic summation data within the budget")
        spec = jackson_spec(a, b, c, xi, N, ctx)
        lhs = eval_V12(spec)
        rhs = jackson_rhs(a, b, c, xi, N, ctx)
        scale = max(
            max(abs(t) for t in series_terms(spec)), abs(rhs), 1e-300
        )
        res = abs(lhs - rhs) / scale
        return res, {
            "a": _cval(a), "b": _cval(b), "c": _cval(c), "xi": _cval(xi),
            "N": N, "q": _cval(ctx.q), "p": _cval(ctx.p),
        }

    return _run("jackson", cfg, levels, trial)


def verify_symmetry(cfg: SampleConfig, levels=None) -> VerifyReport:
    """Row/column reversal under swaps, and the inversion covariance."""
    levels = _levels(levels, (Level.TRIG, Level.ELLIPTIC))

    def trial(rng, level):
        ctx = _ctx_for(cfg, rng, level)
        N = _draw_N(cfg, rng, 4)
        quad = _sample_quad(rng, N, ctx)
        a, b, c, d = quad.a, quad.b, quad.c, quad.d
        M = R_explicit(quad)
        E = M.entries
        swap_ab = R_explicit(ParamQuad(b, a, c, d, N, ctx)).entries
        swap_cd = R_explicit(ParamQuad(a, b, d, c, N, ctx)).entries
        res = max(
            _entry_residual(swap_ab, E[::-1, :]),
            _entry_residual(swap_cd, E[:, ::-1]),
            _entry_residual(inverted_a(M).entries, E),
        )
        return res, _quad_params(quad)

    return _run("symmetry", cfg, levels, trial)


def verify_limits(cfg: SampleConfig, levels=None) -> VerifyReport:
    """Each degeneration decays at its stated order, and nome zero is exact."""
    levels = _levels(levels, (Level.TRIG,))

    def trial(rng, level):
        q = _draw_q(rng)
        ctx = make_context(q)
        N = _draw_N(cfg, rng, 3)
        quad = _sample_quad(rng, N, ctx)
        a, x = _draw(rng), _draw(rng)
        k = int(rng.integers(1, 4))
        reps = [
            limit_h_product(a=a, x=x, k=k, q=q),
            limit_trig_to_qracah(quad=quad),
            limit_trig_to_qkraw(
                a=quad.a, b=quad.b, d=quad.d,
                k=int(rng.integers(0, N + 1)),
                l=int(rng.integers(0, N + 1)),
                N=N, q=q,
            ),
            limit_ell_to_trig(quad=quad),
        ]
        res = max(rep.miss for rep in reps)
        params = _quad_params(quad)
        params.update({"hk": k, "ha": _cval(a), "hx": _cval(x)})
        return res, params

    return _run("limits", cfg, levels, trial)


def verify_wilson(cfg: SampleConfig, levels=None) -> VerifyReport:
    """Discrete biorthogonality, its rational form, and deformed addition.

    All three live at the trigonometric level: the rational weight and
    norm are built from plain q-shifted factorials.
    """
    levels = _levels(levels, (Level.TRIG,))

    def trial(rng, level):
        ctx = _ctx_for(cfg, rng, level)
        N = _draw_N(cfg, rng, 4)
        worst = 0.0
        quad = _sample_quad(rng, N, ctx)
        top = min(N, 2)
        for n in range(top + 1):
            for m in range(top + 1):
                s, sc = eto_pairing_sum(n, m, quad)
                want = eto_norm(n, quad) if n == m else 0j
                worst = max(worst, abs(s - want) / max(sc, abs(want), 1e-300))
        params = _quad_params(quad)
        wp = _sample_wilson(rng, N, ctx.q)
        for n in range(top + 1):
            for m in range(top + 1):
                s, sc = wilson_biorth_sum(n, m, wp)
                want = wilson_norm(n, wp) if n == m else 0j
                worst = max(worst, abs(s - want) / max(sc, abs(want), 1e-300))
        n, m = int(rng.integers(0, top + 1)), int(rng.integers(0, top + 1))
        for _ in range(RESAMPLE_BUDGET):
            sdef = _draw(rng, 0.7, 1.4)
            tdef = _draw(rng, 0.7, 1.4)
            if _lattice_clear((sdef, tdef, sdef * tdef, sdef / tdef), ctx, N):
                try:
                    lhs, mid, rhs = wilson_addition(n, m, sdef, tdef, wp)
                    break
                except SixjError:
                    continue
        else:
            raise SamplingError("no generic deformation within the budget")
        sc = max(abs(lhs), abs(mid), 1e-300)
        worst = max(worst, abs(lhs - mid) / sc)
        if rhs is not None:
            worst = max(worst, abs(mid - rhs) / max(sc, abs(rhs)))
        params.update({"wn": n, "wm": m, "ws": _cval(sdef), "wt": _cval(tdef)})
        return worst, params

    return _run("wilson", cfg, levels, trial)


def verify_sklyanin(cfg: SampleConfig, levels=None) -> VerifyReport:
    """Operator eigenrelations, band structure, and the two-operator GEVP."""
    levels = _levels(levels, (Level.TRIG, Level.ELLIPTIC))

    def trial(rng, level):
        ctx = _ctx_for(cfg, rng, level)
        N = _draw_N(cfg, rng, 4)
        a, b, c, d = _sample_sklyanin(rng, N, ctx)
        k = int(rng.integers(0, N + 1))
        worst = skl.eigenrelation_check(a, b, c, k, N, ctx)
        for _ in range(RESAMPLE_BUDGET):
            lam, mu = _draw(rng), _draw(rng)
            pair = BasisPair(ctx.q_half * lam, ctx.q_half * mu, N)
            if basis_valid(pair, ctx) and _lattice_clear(
                _pair_screen((lam, mu, a, b, c, d)), ctx, N
            ):
                break
        else:
            raise SamplingError("no generic band basis within the budget")
        op = skl.DiffOpSpec(a, b, c, d, N, ctx)
        mat = skl.operator_matrix(op, lam, mu, N, ctx)
        worst = max(worst, skl.off_band_mass(mat))
        if N <= 3:
            for _ in range(RESAMPLE_BUDGET):
                d2 = _draw(rng)
                if _lattice_clear(
                    _pair_screen((a, b, d2))
                    + [a * d2 / ctx.q_half, b * d2 / ctx.q_half],
                    ctx, N,
                ):
                    break
            else:
                raise SamplingError("no generic second operator within the budget")
            rep = skl.gevp_check(a, b, c, d2, N, ctx)
            worst = max(worst, max(rep.eigen_residuals))
        return worst, {
            "a": _cval(a), "b": _cval(b), "c": _cval(c), "d": _cval(d),
            "lam": _cval(lam), "mu": _cval(mu), "N": N,
            "q": _cval(ctx.q), "p": _cval(ctx.p),
        }

    return _run("sklyanin", cfg, levels, trial)


# -- registry ------------------------------------------------------------------

SUITES = {
    "expansion": verify_expansion,
    "biorth": verify_biorthogonality,
    "addition": verify_addition,
    "convolution": verify_convolution,
    "multiconv": verify_multiconv,
    "jackson": verify_jackson,
    "symmetry": verify_symmetry,
    "limits": verify_limits,
    "wilson": verify_wilson,
    "sklyanin": verify_sklyanin,
}

#: every named identity the library claims, and the one suite exercising it
IDENTITY_COVERAGE = {
    "pairing-biorthogonality": "biorth",
    "qracah-orthogonality": "biorth",
    "krawtchouk-orthogonality": "biorth",
    "triple-basis-addition": "addition",
    "sl2-addition": "addition",
    "index-splitting-convolution": "convolution",
    "binomial-convolution": "convolution",
    "multi-factor-fusion": "multiconv",
    "fused-coefficient-product": "multiconv",
    "lattice-path-count": "multiconv",
    "parameter-symmetries": "symmetry",
    "level-degenerations": "limits",
    "weighted-rational-pairing": "wilson",
    "wilson-orthogonality": "wilson",
    "wilson-addition": "wilson",
    "operator-eigenrelation": "sklyanin",
    "operator-tridiagonality": "sklyanin",
}


@dataclass
class AggregateReport:
    reports: tuple
    seed: int

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.reports)

    @property
    def max_residual(self) -> float:
        return max((r.max_residual for r in self.reports), default=0.0)


def run_suite(names, cfg: SampleConfig) -> AggregateReport:
    """Run the named suites (or 'all') and aggregate deterministically."""
    names = set(names)
    if "all" in names:
        names = set(SUITES)
    unknown = names - set(SUITES)
    if unknown:
        raise DomainError(f"unknown suite(s): {', '.join(sorted(unknown))}")
    reports = tuple(SUITES[n](cfg) for n in sorted(names))
    return AggregateReport(reports, cfg.seed)


# -- serialization --------------------------------------------------------------


def _json_fragment(obj) -> str:
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, str):
        import json as _json

        return _json.dumps(obj)
    if isinstance(obj, int):
        return repr(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise DomainError("non-finite value in report")
        return format(obj, ".17g")
    if isinstance(obj, complex):
        return _json_fragment([obj.real, obj.imag])
    if isinstance(obj, dict):
        inner = ",".join(
            f"{_json_fragment(str(k))}:{_json_fragment(v)}"
            for k, v in sorted(obj.items())
        )
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_json_fragment(v) for v in obj) + "]"
    raise DomainError(f"unserializable value of type {type(obj).__name__}")


def report_dict(report: VerifyReport) -> dict:
    """The JSON shape; it holds no wall time, so reports are byte-reproducible."""
    return {
        "suite": report.suite,
        "trials": report.trials,
        "seed": report.seed,
        "tol": report.tol,
        "max_residual": report.max_residual,
        "pass": report.passed,
        "failures": [
            {"trial": f.trial, "params": f.params, "residual": f.residual}
            for f in report.failures
        ],
    }


def report_json(report: VerifyReport) -> str:
    return _json_fragment(report_dict(report))


def aggregate_json(agg: AggregateReport) -> str:
    return _json_fragment(
        {
            "pass": agg.passed,
            "seed": agg.seed,
            "max_residual": agg.max_residual,
            "reports": [report_dict(r) for r in agg.reports],
        }
    )
