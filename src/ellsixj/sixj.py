"""Connection coefficients between twisted-monomial bases.

The central object is the matrix R with

    h_k(x; a) h_{N-k}(x; b) = sum_l  R_k^l  h_l(x; c) h_{N-l}(x; d),

computed by four independent routes:

  EXPLICIT    closed form: balanced prefactor times a terminating
              very-well-poised series (twelve-over-eleven at the elliptic
              level, ten-over-nine below),
  RECURRENCE  composition of two one-parameter expansions, each from its
              closed theta-product formula (RECURRENCE stays the route's
              label, as in `--method recurrence`),
  PATHS       weighted lattice-path sum,
  SOLVE       dense collocation against the definition.

The degenerations of R (q-Racah and Krawtchouk coefficient matrices), the
parameter symmetries, the limit transitions between levels, and the
statistical-mechanics normalization live here too.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction

import numpy as np

from .basis import BasisPair, basis_valid, expand_by_solve, h_pair_fn
from .context import EllipticContext
from .errors import DomainError, SingularParameterError
from .series import eval_V12, eval_rphi_s, phi_spec, v12_spec
from . import scalar

#: magnitude below which a prefactor denominator counts as resonant
PREFACTOR_EPS = 1e-13


@dataclass(frozen=True)
class ParamQuad:
    a: complex
    b: complex
    c: complex
    d: complex
    N: int
    ctx: EllipticContext

    def __post_init__(self) -> None:
        if self.N < 0:
            raise DomainError("N must be >= 0")
        if self.ctx.p != 0 and 0 in (self.a, self.b, self.c, self.d):
            raise DomainError("zero parameters are not allowed at p != 0")

    def pair_cd(self) -> BasisPair:
        return BasisPair(self.c, self.d, self.N)


class Route(str, Enum):
    EXPLICIT = "explicit"
    RECURRENCE = "recurrence"
    PATHS = "paths"
    SOLVE = "solve"


@dataclass
class CoeffMatrix:
    entries: np.ndarray
    route: Route
    quad: ParamQuad
    # entries recomputed through the collocation fallback, as (k, l) pairs
    fallback: tuple = ()

    def __post_init__(self) -> None:
        if not np.isfinite(self.entries).all():
            raise DomainError(f"non-finite matrix entries at N = {self.quad.N}")


# -- Krawtchouk level -------------------------------------------------------


def krawtchouk_K(
    k: int, l: int, N: int, a: complex, b: complex, c: complex, d: complex
) -> complex:
    """Coefficient of x^l in (a x + b)^k (c x + d)^(N-k), ad - bc = 1.

    The finite double expansion of both binomials, which has no
    degenerate parameters.
    """
    if not (0 <= k <= N and 0 <= l <= N):
        raise DomainError("need 0 <= k, l <= N")
    if abs(a * d - b * c - 1.0) > 1e-9 * max(1.0, abs(a * d)):
        raise DomainError("normalization ad - bc = 1 violated")
    total = 0j
    for i in range(max(0, l - (N - k)), min(k, l) + 1):
        total += (
            math.comb(k, i)
            * math.comb(N - k, l - i)
            * a**i
            * b ** (k - i)
            * c ** (l - i)
            * d ** (N - k - l + i)
        )
    return total


def krawtchouk_matrix(
    N: int, a: complex, b: complex, c: complex, d: complex
) -> np.ndarray:
    if N < 0:
        raise DomainError("N must be >= 0")
    out = np.empty((N + 1, N + 1), dtype=complex)
    for k in range(N + 1):
        for l in range(N + 1):
            out[k, l] = krawtchouk_K(k, l, N, a, b, c, d)
    return out


def krawtchouk_inverse(
    N: int, a: complex, b: complex, c: complex, d: complex
) -> np.ndarray:
    """Inverse of the Krawtchouk matrix, by parameter substitution.

    Expanding monomials back in the (a x + b)^k (c x + d)^(N-k) basis is
    the same problem for the inverted group element (d, -b, -c, a).
    """
    return krawtchouk_matrix(N, d, -b, -c, a)


# -- q-Racah level -----------------------------------------------------------


def qracah_C(k: int, l: int, quad: ParamQuad) -> complex:
    """Connection coefficient of the one-variable q-Racah problem.

    (a x; 1/q)_k (b x; 1/q)_{N-k} = sum_l C_k^l (c x; q)_l (d x; q)_{N-l}

    Closed form: q^(l(l-N)) [N,l]_q * balanced prefactor * terminating 4phi3.
    """
    a, b, c, d, N = quad.a, quad.b, quad.c, quad.d, quad.N
    if quad.ctx.p != 0:
        raise DomainError("the q-Racah level has no nome")
    if not (0 <= k <= N and 0 <= l <= N):
        raise DomainError("need 0 <= k, l <= N")
    q = quad.ctx.q
    # q^(l(l-N)) rides as one factor q^(l-N) on each factor of
    # (q^(1-N) b/d)_l, which the interleaving pairs with (q^(l-N) c/d)_l
    shift = q ** (l - N)
    num = [f * shift for f in _efactors(quad.ctx, [(q ** (1 - N) * b / d, l)])]
    num += _efactors(quad.ctx, [
        (q ** (1 - N) * b / c, N - l),
        (q ** (1 - k) * a / c, k),
    ])
    den = _efactors(quad.ctx, [
        (q ** (l - N) * c / d, l),
        (q ** (-l) * d / c, N - l),
        (q ** (1 - N) * b / c, k),
    ])
    pref = scalar.q_binomial(N, l, q) * _balanced_ratio(
        num, den, "q-Racah prefactor"
    )
    n = min(k, l)
    top = (
        q ** (k - N) * b / a,
        q ** (l - N) * c / d,
        q ** (-max(k, l)),
        q ** (-n),
    )
    bottom = (q ** (-N), c / a, q ** (1 - N) * b / d)
    return pref * eval_rphi_s(phi_spec(top, bottom, q, q, n))


def qracah_D(k: int, l: int, quad: ParamQuad) -> complex:
    """Coefficients of the companion problem with (a x; q)_k (b x; q)_{N-k}.

    Same engine after the parameter shift (a, b) -> (a q^(k-1), b q^(N-k-1)).
    """
    q = quad.ctx.q
    shifted = ParamQuad(
        quad.a * q ** (k - 1), quad.b * q ** (quad.N - k - 1),
        quad.c, quad.d, quad.N, quad.ctx,
    )
    return qracah_C(k, l, shifted)


def qracah_matrix(quad: ParamQuad) -> np.ndarray:
    N = quad.N
    out = np.empty((N + 1, N + 1), dtype=complex)
    for k in range(N + 1):
        for l in range(N + 1):
            out[k, l] = qracah_C(k, l, quad)
    if not np.isfinite(out).all():
        raise DomainError(f"non-finite matrix entries at N = {N}")
    return out


# -- one-parameter expansions (generalized binomial) -------------------------


def gbt_row(
    a: complex, b: complex, c: complex, N: int, ctx: EllipticContext
) -> np.ndarray:
    """Coefficients C_k of h_N(x; a) = sum_k C_k h_k(x; b) h_{N-k}(x; c).

    The product formula

        C_k = q^(k(k-N)) [N, k]_{q,p} (a/c, q^(N-k) a c; q, p)_k
              (a/b, q^k a b; q, p)_{N-k}
              / ((q^(k-N) b/c; q, p)_k (q^(-k) c/b; q, p)_{N-k} (b c; q, p)_N).

    Every Pochhammer is a slice of one theta list per base, so a row costs
    O(N) theta values.  q^(k(k-N)) rides along as one factor q^(k-N) on each
    factor of (a/c)_k, which keeps the running product near its final size
    where the power alone would overflow.
    """
    check = basis_valid(BasisPair(b, c, N), ctx)
    if not check:
        raise SingularParameterError(
            f"degenerate expansion pair ({check.condition}): {check.detail}"
        )
    q = ctx.q
    ac, acq, ab, abq, bc, qq = (
        _efactors(ctx, [(base, N)]) for base in (a / c, a * c, a / b, a * b, b * c, q)
    )
    bc_lo = _efactors(ctx, [(q ** (-N) * b / c, 2 * N)])
    cb_lo = _efactors(ctx, [(q ** (-N) * c / b, 2 * N)])
    out = np.empty(N + 1, dtype=complex)
    for k in range(N + 1):
        shift = q ** (k - N)
        num = [f * shift for f in ac[:k]] + acq[N - k:] + ab[: N - k] + abq[k:] + qq
        den = bc_lo[k : 2 * k] + cb_lo[N - k : 2 * (N - k)] + bc + qq[:k] + qq[: N - k]
        out[k] = _balanced_ratio(num, den, "expansion prefactor")
    return out


# -- prefactor plumbing ------------------------------------------------------


def _efactors(ctx: EllipticContext, pochs) -> list:
    """Individual theta factors of a list of (a, length) pairs."""
    out = []
    for a, n in pochs:
        aj = a
        for _ in range(n):
            out.append(scalar.theta(aj, ctx))
            aj *= ctx.q
    return out


def _balanced_ratio(num: list, den: list, what: str) -> complex:
    """Product(num)/product(den) with interleaved factors.

    Interleaving keeps the running magnitude near its final size, which
    matters once pochhammer lengths reach a few dozen factors.
    """
    acc = 1.0 + 0j
    for i in range(max(len(num), len(den))):
        if i < len(num):
            acc *= num[i]
        if i < len(den):
            f = den[i]
            if abs(f) < PREFACTOR_EPS:
                raise SingularParameterError(f"{what}: denominator factor ~ 0")
            acc /= f
    return acc


# -- route EXPLICIT ----------------------------------------------------------


def _r_entry_explicit(quad: ParamQuad, k: int, l: int) -> complex:
    a, b, c, d, N, ctx = quad.a, quad.b, quad.c, quad.d, quad.N, quad.ctx
    q = ctx.q
    # q^(l(l-N)) rides as one factor q^(l-N) on each factor of (b/d)_l,
    # which the interleaving pairs with (q^(l-N) c/d)_l; the power alone
    # overflows (at N = 64 for q = 0.41)
    shift = q ** (l - N)
    num = [f * shift for f in _efactors(ctx, [(b / d, l)])]
    num += _efactors(ctx, [
        (a * c, k),
        (a / c, k),
        (q ** (N - l) * b * d, l),
        (b / c, N - k),
        (b / c, N - l),
        (b * c, N - k),
        (q, N),  # binomial numerator
    ])
    den = _efactors(ctx, [
        (q ** (l - N) * c / d, l),
        (q ** (-l) * d / c, N - l),
        (c * d, N),
        (b / c, N),
        (b * c, l),
        (q, l),
        (q, N - l),
    ])
    pref = _balanced_ratio(num, den, "entry prefactor")
    alpha = q ** (-N) * c / b
    shared = (q ** (k - N) * a / b, q ** (l - N) * c / d, c * d,
              q ** (1 - N) / (a * b), q * c / b)
    if k <= l:
        bs = (q ** (-l), *shared, q ** (-k))
        n = k
    else:
        bs = (q ** (-k), *shared, q ** (-l))
        n = l
    series = eval_V12(v12_spec(alpha, bs, q, ctx.p, n), ctx)
    return pref * series


def R_explicit(quad: ParamQuad) -> CoeffMatrix:
    """Full coefficient matrix from the closed form.

    Individual entries whose prefactor or series is resonant (while the
    basis itself is fine) are taken from R_solve and reported in
    `fallback`.
    """
    _require_valid(quad)
    N = quad.N
    ent = np.empty((N + 1, N + 1), dtype=complex)
    flagged = []
    for k in range(N + 1):
        for l in range(N + 1):
            try:
                ent[k, l] = _r_entry_explicit(quad, k, l)
            except SingularParameterError:
                flagged.append((k, l))
    if flagged:
        solved = R_solve(quad).entries
        for k, l in flagged:
            ent[k, l] = solved[k, l]
    return CoeffMatrix(ent, Route.EXPLICIT, quad, tuple(flagged))


# -- route RECURRENCE (two-step composition) ---------------------------------


def R_double_sum(quad: ParamQuad) -> CoeffMatrix:
    """Route RECURRENCE: compose two one-parameter expansions.

    First h_k(x; a) is expanded over (c, b q^{N-k}) and the b-legs merged;
    then each h_{N-j}(x; b) is expanded over (c q^j, d) and the c-legs
    merged.  The double sum collapses to min(k, l) + 1 terms.  Both
    expansions are gbt_row product formulas, so the matrix costs O(N^2)
    theta values.
    """
    _require_valid(quad)
    a, b, c, d, N, ctx = quad.a, quad.b, quad.c, quad.d, quad.N, quad.ctx
    q = ctx.q
    # Python complex arithmetic: an overflow here reaches CoeffMatrix as
    # inf/NaN, which it rejects, without numpy warnings on the way
    second = [gbt_row(b, c * q**j, d, N - j, ctx).tolist() for j in range(N + 1)]
    ent = np.zeros((N + 1, N + 1), dtype=complex)
    for k in range(N + 1):
        first = gbt_row(a, c, b * q ** (N - k), k, ctx).tolist()
        for l in range(N + 1):
            acc = 0j
            for j in range(min(k, l) + 1):
                acc += first[j] * second[j][l - j]
            ent[k, l] = acc
    return CoeffMatrix(ent, Route.RECURRENCE, quad)


# -- route PATHS -------------------------------------------------------------


def _step_weight(quad, early: bool, right: bool, x: int, y: int, k: int) -> complex:
    a, b, c, d, ctx = quad.a, quad.b, quad.c, quad.d, quad.ctx
    q = ctx.q
    if right:
        den = scalar.thetas(ctx, q ** (x + y) * c * d, q ** (x - y) * c / d)
        if early:
            num = scalar.thetas(ctx, q ** (x + 2 * y) * a * d, q**x * a / d)
        else:
            num = scalar.thetas(ctx, q ** (x + 2 * y - k) * b * d, q ** (x - k) * b / d)
    else:
        den = scalar.thetas(ctx, q ** (x + y) * c * d, q ** (y - x) * d / c)
        if early:
            num = scalar.thetas(ctx, q ** (2 * x + y) * a * c, q**y * a / c)
        else:
            num = scalar.thetas(ctx, q ** (2 * x + y - k) * b * c, q ** (y - k) * b / c)
    if abs(den) < PREFACTOR_EPS:
        raise SingularParameterError("path step denominator vanishes")
    return num / den


def _path_sums(N: int, step) -> list:
    """Weighted sums over up-right paths (0,0) -> (l, N-l), for l = 0..N.

    step(x, y, right) is the weight of the step leaving corner (x, y).  One
    sweep over the anti-diagonals x + y = s carries the total weight of all
    paths reaching each corner; diag[x] is the corner (x, s - x).
    """
    diag = [1.0 + 0j]
    for s in range(N):
        nxt = [0j] * (s + 2)
        for x, w in enumerate(diag):
            nxt[x + 1] += w * step(x, s - x, True)
            nxt[x] += w * step(x, s - x, False)
        diag = nxt
    return diag


def R_paths(quad: ParamQuad) -> CoeffMatrix:
    """Entry (k, l) as a sum over up-right paths (0,0) -> (l, N-l).

    The first k of the N steps carry the `early` weights (parameter a),
    the rest the `late` ones (parameter b, offset by q^-k).  Weights are
    evaluated at the step's starting corner (x, y), so row k is one
    lattice sweep of _path_sums: O(N^2) step weights per row.
    """
    _require_valid(quad)
    N = quad.N
    ent = np.empty((N + 1, N + 1), dtype=complex)
    for k in range(N + 1):
        ent[k] = _path_sums(
            N, lambda x, y, right: _step_weight(quad, x + y < k, right, x, y, k)
        )
    return CoeffMatrix(ent, Route.PATHS, quad)


# -- route SOLVE -------------------------------------------------------------


def R_solve(quad: ParamQuad) -> CoeffMatrix:
    """Rows straight from the definition, by one collocation system."""
    N = quad.N
    rows = [h_pair_fn(quad.a, quad.b, k, N, quad.ctx) for k in range(N + 1)]
    return CoeffMatrix(
        expand_by_solve(rows, quad.pair_cd(), quad.ctx), Route.SOLVE, quad
    )


def R_matrix(quad: ParamQuad, route: Route = Route.EXPLICIT) -> CoeffMatrix:
    return {
        Route.EXPLICIT: R_explicit,
        Route.RECURRENCE: R_double_sum,
        Route.PATHS: R_paths,
        Route.SOLVE: R_solve,
    }[Route(route)](quad)


def _require_valid(quad: ParamQuad) -> None:
    check = basis_valid(quad.pair_cd(), quad.ctx)
    if not check:
        raise DomainError(
            f"target basis is degenerate ({check.condition}): {check.detail}"
        )


# -- symmetries --------------------------------------------------------------


def inverted_a(M: CoeffMatrix) -> CoeffMatrix:
    """Row k recomputed with a -> q^(1-k)/a and scaled by q^(2 C(k,2)) a^(2k).

    By the inversion covariance the result equals M itself.
    """
    quad, route = M.quad, M.route
    ctx, q, N = quad.ctx, quad.ctx.q, quad.N
    ent = np.empty((N + 1, N + 1), dtype=complex)
    for k in range(N + 1):
        inverted = ParamQuad(
            q ** (1 - k) / quad.a, quad.b, quad.c, quad.d, N, ctx
        )
        row = R_matrix(inverted, route).entries[k]
        ent[k] = q ** (2 * math.comb(k, 2)) * quad.a ** (2 * k) * row
    return CoeffMatrix(ent, route, quad)


# -- multivariate convolution -------------------------------------------------


def _compositions(total: int, caps) -> list:
    out = []
    for m in itertools.product(*(range(c + 1) for c in caps)):
        if sum(m) == total:
            out.append(m)
    return out


def multiconv_rhs(ks, l: int, Ms, quad: ParamQuad, sigma, tau) -> complex:
    """Multifactor convolution sum.

    sum over m_1 + ... + m_n = l of  prod_i  R_{k_i}^{m_i} with parameters
    (a q^{|k|_i^sigma}, b q^{|M-k|_i^tau}, c q^{|m|_i}, d q^{|M-m|_i}; M_i),
    where |v|_i^pi sums v_j over the indices j ranked before i by pi, and
    the c/d shifts use the identity order.  The value is independent of
    sigma and tau.

    Each factor is one closed-form entry of its sub-quad; an entry whose
    closed form is resonant takes the collocation value of R_solve.
    """
    n = len(ks)
    if len(Ms) != n or sorted(sigma) != list(range(n)) or sorted(tau) != list(range(n)):
        raise DomainError("need permutations of range(n) and matching lengths")
    for ki, Mi in zip(ks, Ms):
        if not 0 <= ki <= Mi:
            raise DomainError("need 0 <= k_i <= M_i")
    a, b, c, d, ctx = quad.a, quad.b, quad.c, quad.d, quad.ctx
    q = ctx.q
    kshift = [sum(ks[j] for j in range(n) if sigma[j] < sigma[i]) for i in range(n)]
    mkshift = [
        sum(Ms[j] - ks[j] for j in range(n) if tau[j] < tau[i]) for i in range(n)
    ]

    def entry(i: int, cpow: int, dpow: int, mi: int) -> complex:
        sub = ParamQuad(
            a * q ** kshift[i],
            b * q ** mkshift[i],
            c * q**cpow,
            d * q**dpow,
            Ms[i],
            ctx,
        )
        _require_valid(sub)
        try:
            value = _r_entry_explicit(sub, ks[i], mi)
        except SingularParameterError:
            return R_solve(sub).entries[ks[i], mi]
        if not cmath.isfinite(value):
            raise DomainError(f"non-finite matrix entries at N = {sub.N}")
        return value

    total = 0j
    for m in _compositions(l, Ms):
        cpow = dpow = 0
        prod = 1.0 + 0j
        for i in range(n):
            prod *= entry(i, cpow, dpow, m[i])
            cpow += m[i]
            dpow += Ms[i] - m[i]
        total += prod
    return total


# -- limit transitions --------------------------------------------------------


class LimitKind(str, Enum):
    ELL_TO_TRIG = "ell_to_trig"
    TRIG_TO_QRACAH = "trig_to_qracah"
    TRIG_TO_QKRAW = "trig_to_qkraw"
    H_PRODUCT_LIMITS = "h_product_limits"


#: the two scales each limit transition is probed at
LIMIT_SCALES = (1e-3, 1e-4)


@dataclass
class LimitReport:
    """Quantitative convergence record for one limit transition.

    `order` is the power of the scale parameter governing the residual:
    transitions whose parameter dependence enters only through products
    of two scaled parameters converge one order faster than the scale
    itself, and their ratio window reflects that.
    """

    kind: LimitKind
    residuals: tuple
    order: int = 1
    extra_residual: float = 0.0
    t_values: tuple = field(init=False, default=())
    ratio: float = field(init=False, default=0.0)
    window: tuple = field(init=False, default=())
    passed: bool = field(init=False, default=False)

    def __post_init__(self) -> None:
        self.t_values = LIMIT_SCALES
        self.ratio = self.residuals[0] / max(self.residuals[1], 1e-300)
        r = (LIMIT_SCALES[0] / LIMIT_SCALES[1]) ** self.order
        lo, hi = 0.5 * r, 2.0 * r
        self.window = (lo, hi)
        self.passed = (lo <= self.ratio <= hi) and self.extra_residual <= 1e-12


def limit_h_product(a: complex, x: complex, k: int, q: complex) -> LimitReport:
    """First-order decay of both twisted-monomial scaling limits.

    h_k(x/t; a t) -> (a x; q)_k   and
    t^{2k} h_k(x/t; a/t) -> a^{2k} q^{k(k-1)} (x/a; 1/q)_k.
    """
    from .basis import h_value
    from .context import make_context

    ctx = make_context(q)
    res = []
    for t in LIMIT_SCALES:
        v1 = h_value(x / t, a * t, k, ctx)
        r1 = abs(v1 - scalar.q_pochhammer(a * x, q, k)) / max(abs(v1), 1e-300)
        v2 = t ** (2 * k) * h_value(x / t, a / t, k, ctx)
        ref2 = a ** (2 * k) * q ** (k * (k - 1)) * scalar.q_pochhammer(
            x / a, 1 / q, k
        )
        r2 = abs(v2 - ref2) / max(abs(ref2), 1e-300)
        res.append(max(r1, r2))
    # the scaled point contributes a*t*(x/t) = a*x plus an O(t^2) tail,
    # so the approach is quadratic in t
    return LimitReport(LimitKind.H_PRODUCT_LIMITS, tuple(res), order=2)


def limit_trig_to_qracah(quad: ParamQuad) -> LimitReport:
    """R at uniformly scaled parameters approaches the q-Racah matrix.

    Scaling all four parameters by t sends both bases to their polynomial
    degenerations, so R(at, bt, ct, dt; N) converges (first order in t) to
    the companion q-Racah matrix.
    """
    a, b, c, d, N, ctx = quad.a, quad.b, quad.c, quad.d, quad.N, quad.ctx
    target = np.empty((N + 1, N + 1), dtype=complex)
    for k in range(N + 1):
        for l in range(N + 1):
            target[k, l] = qracah_D(k, l, quad)
    scale = np.abs(target).max()
    res = []
    for t in LIMIT_SCALES:
        scaled = ParamQuad(a * t, b * t, c * t, d * t, N, ctx)
        diff = np.abs(R_explicit(scaled).entries - target).max()
        res.append(diff / scale)
    # every factor of the coefficients involves either a t-free ratio or
    # a product of two scaled parameters, so the residual decays as t^2
    return LimitReport(LimitKind.TRIG_TO_QRACAH, tuple(res), order=2)


def limit_trig_to_qkraw(
    a: complex, b: complex, d: complex, k: int, l: int, N: int, q: complex,
    c: complex | None = None,
) -> LimitReport:
    """Prefactored R entry approaches the q-Krawtchouk 3phi2.

    (q^k d/(b s))^{N-l} R_k^l(a s, b s, c, d; N) against
    [N,l]_q (q^k a/b)^k 3phi2.  This is a double limit: the target also
    needs c -> 0, and the c-error enters as c/s.  By default c = s^2 so
    both contributions decay first order in s; an explicit c (held fixed
    across the probes) is honored for spot checks.
    """
    from .context import make_context

    ctx = make_context(q)
    top = (q ** (-l), q ** (-k) * b / a, q ** (-k))
    bottom = (q ** (-N), 0j)
    target = (
        scalar.q_binomial(N, l, q)
        * (q**k * a / b) ** k
        * eval_rphi_s(phi_spec(top, bottom, q, q, k))
    )
    res = []
    for s in LIMIT_SCALES:
        cs = complex(s * s) if c is None else complex(c)
        quad = ParamQuad(a * s, b * s, cs, d, N, ctx)
        val = (q**k * d / (b * s)) ** (N - l) * R_explicit(quad).entries[k, l]
        res.append(abs(val - target) / max(abs(target), 1e-300))
    return LimitReport(LimitKind.TRIG_TO_QKRAW, tuple(res))


def limit_ell_to_trig(quad: ParamQuad) -> LimitReport:
    """Nome decay of the elliptic matrix onto the trigonometric one.

    The residual at each nome must shrink first order, and at p = 0 the
    elliptic code path must reproduce the trigonometric matrix exactly.
    """
    trig = ParamQuad(
        quad.a, quad.b, quad.c, quad.d, quad.N, quad.ctx.with_nome(0j)
    )
    base = R_explicit(trig).entries
    scale = np.abs(base).max()
    res = []
    for p in LIMIT_SCALES:
        ell = ParamQuad(
            quad.a, quad.b, quad.c, quad.d, quad.N, quad.ctx.with_nome(p)
        )
        res.append(np.abs(R_explicit(ell).entries - base).max() / scale)
    # negligible nome engages the truncated-product branch, which must
    # round to the p = 0 fast path exactly
    tiny = ParamQuad(
        quad.a, quad.b, quad.c, quad.d, quad.N, quad.ctx.with_nome(1e-300)
    )
    extra = float(np.abs(R_explicit(tiny).entries - base).max() / scale)
    return LimitReport(LimitKind.ELL_TO_TRIG, tuple(res), extra_residual=extra)


# -- statistical-mechanics normalization --------------------------------------


def elliptic_W6j(
    i: int, j: int, k: int, l: int, u: complex, xi_param: complex,
    M: int, N: int, ctx: EllipticContext,
) -> complex:
    """Face weight W_{MN} in terms of a banded coefficient matrix.

    The height differences must be admissible: (i - j) and its partner in
    {-M, 2-M, ..., M}, the k/l heights within [0, N].  Outside the band
    l in [k - m, k + M - m] the value is an exact zero: the underlying
    coefficient matrix has no support there (see band_quad).
    """
    if not (0 <= k <= N and 0 <= l <= N):
        raise DomainError("k and l must lie in [0, N]")
    if (M + j - i) % 2:
        raise DomainError("M + j - i must be even")
    m = (M + j - i) // 2
    if not 0 <= m <= M:
        raise DomainError("shift split (M + j - i)/2 outside [0, M]")
    if l < k - m or l > k + M - m:
        return 0j
    lg = cmath.log(ctx.q_half)

    def half_power(w: complex) -> complex:
        return cmath.exp(w * lg)

    base = u + 1 - N
    quad = ParamQuad(
        half_power(base + xi_param + i),
        half_power(base - xi_param - i),
        half_power(base + xi_param + j + M),
        half_power(base - xi_param - j + M),
        N,
        ctx,
    )
    entry = R_explicit(quad).entries[k, l]
    w = (xi_param + j + k + l - N) * (l - k) + N * (N - u) / 2 + (N - 2 * k) * (i - j) / 2
    pref = half_power(2 * w)
    pref *= scalar.elliptic_pochhammer(
        half_power(2 * (u + M + 1 - N)), N, ctx
    ) / scalar.elliptic_pochhammer(ctx.q, N, ctx)
    return pref * entry


def band_quad(
    a: complex, b: complex, m: int, M: int, N: int, ctx: EllipticContext
) -> ParamQuad:
    """Quad whose matrix is supported on the band k - m <= l <= k + M - m."""
    q = ctx.q
    return ParamQuad(a, b, a * q**m, b * q ** (M - m), N, ctx)


# -- Krawtchouk group law ------------------------------------------------------


def sl2_inverse(A) -> tuple:
    """(a, b, c, d) -> (d, -b, -c, a), assuming ad - bc = 1."""
    a, b, c, d = A
    return (d, -b, -c, a)


def sl2_compose(A1, A2) -> tuple:
    a1, b1, c1, d1 = A1
    a2, b2, c2, d2 = A2
    return (
        a1 * a2 + b1 * c2,
        a1 * b2 + b1 * d2,
        c1 * a2 + d1 * c2,
        c1 * b2 + d1 * d2,
    )


def krawtchouk_addition_sides(N: int, A1, A2):
    """Both sides of the group-law factorization of Krawtchouk matrices.

    The basis attached to A1, expanded over the one attached to A2 and
    then over plain monomials, must reproduce its direct expansion:
    T(A1) == T(A1 A2^{-1}) T(A2).  Returns (lhs, rhs).
    """
    lhs = krawtchouk_matrix(N, *A1)
    bridge = krawtchouk_matrix(N, *sl2_compose(A1, sl2_inverse(A2)))
    rhs = bridge @ krawtchouk_matrix(N, *A2)
    return lhs, rhs


# -- exact path combinatorics --------------------------------------------------


def paths_gf(N: int, l: int, k: int, q: complex, t: complex) -> complex:
    """sum over up-right paths (0,0)->(l,N-l) of q^(area) t^(height after k).

    Each up step at abscissa x contributes q^x, times t when it is one of
    the first k steps.
    """
    return _path_sums(
        N, lambda x, y, right: 1.0 if right else q**x * (t if x + y < k else 1.0)
    )[l]


def paths_qbinomial(N: int, l: int, q: complex) -> complex:
    """Area generating function over paths; equals the Gaussian binomial."""
    return paths_gf(N, l, 0, q, 1.0)


def subset_expansion_sides(N: int, l: int, K, t: Fraction):
    """Both sides of the subset-overlap expansion, in exact arithmetic.

    binom(N, l) 2F1(-l, -|K|; -N; 1 - t)  ==  sum over l-subsets L of
    t^{|L cap K|}.  Returns the pair (hypergeometric side, subset side).
    """
    Kset = frozenset(K)
    kk = len(Kset)
    one_minus_t = 1 - t
    lhs = Fraction(0)
    term = Fraction(1)
    top_j = min(l, kk)
    for jj in range(top_j + 1):
        lhs += term
        if jj < top_j:
            num = Fraction((-l + jj) * (-kk + jj), (jj + 1) * (-N + jj))
            term *= num * one_minus_t
    lhs *= math.comb(N, l)
    rhs = Fraction(0)
    for L in itertools.combinations(range(N), l):
        rhs += t ** len(Kset & frozenset(L))
    return lhs, rhs
