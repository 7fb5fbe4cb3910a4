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

EXPLICIT's prefactors and PATHS's step weights read their theta values
from rows theta(u q^m; p), one per base u, built once per matrix: O(N)
theta values a matrix.  EXPLICIT's entry series read one
`kernels.VwpRows` table per matrix, the row builder the single-entry
series `entry_series` reads too, so the whole matrix costs O(N^2) of them.

A formula asks for all its rows in one call of the batched kernel
`kernels.thetas`.  The batch equals the scalar kernel bit for bit because
it avoids numpy's complex arithmetic, which rounds products and quotients
differently from Python's in the last bit: EXPLICIT's entries are checked
against RECURRENCE's, and which entries pass can turn on such a bit.  From
N = EXPLICIT_MATRIX_N up (EXPLICIT_MATRIX_N_TRIG at p = 0) `R_explicit`
computes every entry at once, on float64 arrays with Python's complex
formulas spelled out, and gets the bits of the per-entry loop it runs
below that, whose series grow their shared table value by value.

The degenerations of R (q-Racah and Krawtchouk coefficient matrices), the
parameter symmetries, the limit transitions between levels, and the
statistical-mechanics normalization live here too.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .backend import kernels
from .basis import BasisPair, basis_valid, expand_by_solve, h_pair_fn
from .context import EllipticContext, inverse_power
from .errors import DomainError, SingularParameterError
from .series import eval_V12, eval_rphi_s, phi_spec, v12_spec
from . import scalar


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
        inverse_power(self.ctx.q, self.N)
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
    the same problem for the inverted group element.
    """
    return krawtchouk_matrix(N, *sl2_inverse((a, b, c, d)))


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
    ctx = quad.ctx
    q = ctx.q
    # q^(l(l-N)) rides as one factor q^(l-N) on each factor of
    # (q^(1-N) b/d)_l, which the interleaving pairs with (q^(l-N) c/d)_l
    shift = q ** (l - N)
    bd, bc, ac, cd, dc = _theta_rows(
        (
            (q ** (1 - N) * b / d, 0, l),
            (q ** (1 - N) * b / c, 0, max(N - l, k)),
            (q ** (1 - k) * a / c, 0, k),
            (q ** (l - N) * c / d, 0, l),
            (q ** (-l) * d / c, 0, N - l),
        ),
        ctx,
    )
    num = [f * shift for f in bd] + bc[: N - l] + ac
    den = cd + dc + bc[:k]
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

    Every Pochhammer is a slice of one theta row per base, so a row costs
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
    ac, acq, ab, abq, bc, qq, bc_lo, cb_lo = _theta_rows(
        (
            *((base, 0, N) for base in (a / c, a * c, a / b, a * b, b * c, q)),
            (q ** (-N) * b / c, 0, 2 * N),
            (q ** (-N) * c / b, 0, 2 * N),
        ),
        ctx,
    )
    out = np.empty(N + 1, dtype=complex)
    for k in range(N + 1):
        shift = q ** (k - N)
        num = [f * shift for f in ac[:k]] + acq[N - k:] + ab[: N - k] + abq[k:] + qq
        den = bc_lo[k : 2 * k] + cb_lo[N - k : 2 * (N - k)] + bc + qq[:k] + qq[: N - k]
        out[k] = _balanced_ratio(num, den, "expansion prefactor")
    return out


# -- prefactor plumbing ------------------------------------------------------


def _theta_rows(specs, ctx: EllipticContext) -> list:
    """One row theta(u q^m; p), m = lo, ..., hi - 1, per spec (u, lo, hi), lo <= 0.

    A Pochhammer (u q^j; q, p)_n is the slice [j - lo : j - lo + n] of u's
    row, so a formula builds one row per base u and slices it.  The
    arguments are those of `_theta_args`, and all rows come from one
    `kernels.thetas` call.
    """
    xs, ends = _theta_args(specs, ctx)
    values = kernels.thetas(xs, ctx.p, ctx.theta_factors)
    return [values[i:j] for i, j in zip([0, *ends], ends)]


def _theta_args(specs, ctx: EllipticContext) -> tuple:
    """The arguments of `_theta_rows`, row after row, and where each row ends.

    From m = 0 up each argument is the previous one times q, as in
    (u; q, p)_hi itself.  Below 0 each takes q^m as one power: there
    |u q^m| grows along the row and theta(x) ~ -x, so rounding that drifted
    along a chain of products would pass into the theta value in full.
    Every argument is checked as `scalar.theta` checks it; one that left
    double range while u did not is named by its u and m.
    """
    q, xs, ends = ctx.q, [], []
    for u, lo, hi in specs:
        if lo < 0:
            xs += [u * q**m for m in range(lo, 0)]
        xs += kernels.powers(u, q, hi)
        ends.append(len(xs))
    try:
        return [scalar.theta_arg(x, ctx) for x in xs], ends
    except DomainError:
        steps = [(u, m) for u, lo, hi in specs for m in range(lo, hi)]
        for x, (u, m) in zip(xs, steps):
            if u != 0 and cmath.isfinite(u) and (x == 0 or not cmath.isfinite(x)):
                what = f"theta argument u q^m = {x} left double range"
                raise DomainError(f"{what} at u = {u}, m = {m}") from None
        raise


def _require_nonzero(quad: ParamQuad, names: str, route: Route) -> None:
    """A route that divides by a parameter rejects it at 0 (trig level)."""
    for name in names:
        if getattr(quad, name) == 0:
            raise DomainError(f"route {route.value} needs {name} != 0")


def _balanced_ratio(num: list, den: list, what: str) -> complex:
    """Product(num)/product(den) with interleaved factors.

    Interleaving keeps the running magnitude near its final size, which
    matters once pochhammer lengths reach a few dozen factors.  Every
    formula pairs as many numerator factors as denominator ones.
    """
    if len(num) != len(den):
        raise ValueError(
            f"{what}: {len(num)} numerator and {len(den)} denominator factors"
        )
    acc = 1.0 + 0j
    for f, g in zip(num, den):
        acc *= f
        if abs(g) < kernels.SINGULAR_EPS:
            raise SingularParameterError(f"{what}: denominator factor ~ 0")
        acc /= g
    return acc


# -- route EXPLICIT ----------------------------------------------------------


def _prefactor_specs(quad: ParamQuad) -> tuple:
    """The `_theta_rows` specs of EXPLICIT's prefactors: m = 0 .. N-1 for u
    in b/d, ac, a/c, bd, b/c, bc, cd, q, and m = 1-N .. N-1 for u in c/d,
    d/c; 12N - 2 theta values."""
    a, b, c, d, N = quad.a, quad.b, quad.c, quad.d, quad.N
    bases = (b / d, a * c, a / c, b * d, b / c, b * c, c * d, quad.ctx.q)
    return (*((u, 0, N) for u in bases), *((u, 1 - N, N) for u in (c / d, d / c)))


def _r_entry_explicit(quad: ParamQuad, prefactor, series, k: int, l: int) -> complex:
    b_d, ac, a_c, bd, b_c, bc, cd, qq, c_d, d_c = prefactor
    N = quad.N
    # q^(l(l-N)) rides as one factor q^(l-N) on each factor of (b/d)_l,
    # which the interleaving pairs with (q^(l-N) c/d)_l; the power alone
    # overflows (at N = 64 for q = 0.41)
    shift = quad.ctx.q ** (l - N)
    num = (
        [f * shift for f in b_d[:l]]
        + ac[:k]
        + a_c[:k]
        + bd[N - l :]  # (q^(N-l) b d)_l
        + b_c[: N - k]
        + b_c[: N - l]
        + bc[: N - k]
        + qq  # binomial numerator
    )
    # c_d and d_c start at m = 1 - N: (q^(l-N) c/d)_l and (q^(-l) d/c)_(N-l)
    den = (
        c_d[l - 1 : 2 * l - 1]
        + d_c[N - l - 1 : 2 * (N - l) - 1]
        + cd
        + b_c
        + bc[:l]
        + qq[:l]
        + qq[: N - l]
    )
    pref = _balanced_ratio(num, den, "entry prefactor")
    _, bs, n = _series_params(quad, k, l)
    try:
        return pref * series.sum(bs, quad.ctx.q, n)
    except ZeroDivisionError as exc:
        raise SingularParameterError(str(exc)) from None


def _series_params(quad: ParamQuad, k: int, l: int) -> tuple:
    """alpha, the seven (key, b) pairs and n of entry (k, l)'s series.

    A key names b's family and the index it depends on, so equal keys
    mean equal values: q^(-m) is keyed by m, whether m is k or l.
    """
    a, b, c, d, N = quad.a, quad.b, quad.c, quad.d, quad.N
    q = quad.ctx.q
    alpha = q ** (-N) * c / b
    n, m = sorted((k, l))
    bs = (
        (("m", m), q ** (-m)),
        (("k", k), q ** (k - N) * a / b),
        (("l", l), q ** (l - N) * c / d),
        ("cd", c * d),
        ("ab", q ** (1 - N) / (a * b)),
        ("cb", q * c / b),
        (("m", n), q ** (-n)),
    )
    return alpha, bs, n


def entry_series(quad: ParamQuad, k: int, l: int) -> complex:
    """The terminating very-well-poised series of entry (k, l).

    Leading parameter q^(-N) c/b, min(k, l) + 1 terms; twelve over eleven
    at p != 0 and ten over nine at p = 0.  This is the single-entry form;
    `R_explicit` sums the same series, through the same `kernels.VwpRows`
    rows, over one table per matrix.
    """
    if not (0 <= k <= quad.N and 0 <= l <= quad.N):
        raise DomainError("need 0 <= k, l <= N")
    alpha, bs, n = _series_params(quad, k, l)
    ctx = quad.ctx
    return eval_V12(v12_spec(alpha, [u for _, u in bs], ctx.q, ctx.p, n))


# From these N up (the first at p != 0, the second at p = 0, where theta is
# one subtraction) R_explicit computes all entries together
# (`_explicit_matrix`) rather than one by one; the two give the same bits.
# Per-entry over whole-matrix time, medians over 30 quads of the fastest of
# 5 interleaved runs each (2-core x86-64, Python 3.11, numpy 2.4): elliptic
# N = 2, 3, 4, 5 0.84x, 1.08x, 1.34x, 1.59x; trigonometric N = 4, 5, 6, 7
# 0.66x, 0.86x, 1.08x, 1.31x.
EXPLICIT_MATRIX_N = 3
EXPLICIT_MATRIX_N_TRIG = 6


def R_explicit(quad: ParamQuad) -> CoeffMatrix:
    """Full coefficient matrix from the closed form.

    Entry (k, l) is a balanced prefactor, a ratio of 4N + l interleaved
    theta factor pairs read from rows built once for the matrix (12N - 2
    theta values), times the terminating very-well-poised series
    `entry_series`, whose rows the matrix shares (3N^2 + 12N + 2 theta
    values); each entry is bit for bit its prefactor times `entry_series`.
    From N = EXPLICIT_MATRIX_N up (EXPLICIT_MATRIX_N_TRIG at p = 0), where
    the interpreter's complex arithmetic is the one `kernels` spells out on
    arrays (`kernels.EXACT_ARRAYS`), every entry advances together
    (`_explicit_matrix`); below it, or should that path decline, the
    entries are computed one by one from the prefactor rows of
    `_prefactor_specs` and a `kernels.VwpRows` table of the entry series,
    whose rows grow value by value as entries read them.
    Individual entries whose prefactor or series is resonant (while the
    basis itself is fine) are taken from R_solve and reported in
    `fallback`.
    """
    _require_valid(quad)
    _require_nonzero(quad, "abcd", Route.EXPLICIT)
    N = quad.N
    start = EXPLICIT_MATRIX_N if quad.ctx.p != 0 else EXPLICIT_MATRIX_N_TRIG
    whole = _explicit_matrix(quad) if N >= start and kernels.EXACT_ARRAYS else None
    if whole:
        ent, flagged = whole
    else:
        ctx = quad.ctx
        prefactor = _theta_rows(_prefactor_specs(quad), ctx)
        alpha = _series_params(quad, 0, 0)[0]  # the same for every entry
        series = kernels.VwpRows(alpha, ctx.q, ctx.p, N, ctx.theta_factors)
        ent = np.empty((N + 1, N + 1), dtype=complex)
        flagged = []
        for k in range(N + 1):
            for l in range(N + 1):
                try:
                    ent[k, l] = _r_entry_explicit(quad, prefactor, series, k, l)
                except SingularParameterError:
                    flagged.append((k, l))
    if flagged:
        solved = R_solve(quad).entries
        for k, l in flagged:
            ent[k, l] = solved[k, l]
    return CoeffMatrix(ent, Route.EXPLICIT, quad, tuple(flagged))


def _explicit_matrix(quad: ParamQuad):
    """R_explicit's per-entry loop with every entry computed at once, bit for bit.

    One `kernels.thetas` call gives the 12N - 2 prefactor and the
    3N^2 + 12N + 2 series theta values, from the arguments the per-entry
    path forms.  The prefactor products then run as 5N numpy steps over
    the whole matrix, step i taking factor pair i of every entry that has
    one; the series form every term's numerator and denominator products
    at once and chain them over the shrinking squares of entries that
    have a term t.  The arithmetic is CPython's complex product and
    quotient spelled out on float64 arrays (`kernels._mul`, `_quot`), in
    the per-entry order, and every test that makes an entry raise (and
    fall back to R_solve) is made on the same values.  Arrays are indexed
    [l, k] and hold O(N^3) values at most.

    Returns None, for the per-entry path to decide, where a series
    parameter is 0 or a series theta argument is 0 at p != 0 (both raise
    there), or a theta value is finite with an infinite modulus (abs
    raises on it).
    """
    a, b, c, d, N, ctx = quad.a, quad.b, quad.c, quad.d, quad.N, quad.ctx
    q = ctx.q
    xs, ends = _theta_args(_prefactor_specs(quad), ctx)
    alpha = _series_params(quad, 0, 0)[0]
    # the series parameters of `_series_params` by family: q^(-m), q^(k-N) a/b
    # and q^(l-N) c/d for an index 0..N, then cd, ab and cb
    params = (
        [q ** (-j) for j in range(N + 1)]
        + [q ** (j - N) * a / b for j in range(N + 1)]
        + [q ** (j - N) * c / d for j in range(N + 1)]
        + [c * d, q ** (1 - N) / (a * b), q * c / b]
    )
    if 0 in params:
        return None
    # the `kernels.VwpRows` rows theta(u q^t), t < n, as (u, n): alpha and q,
    # then each parameter b and each alpha q / b, as long as its longest sum
    bases = [alpha, q, *params, *(alpha * q / u for u in params)]
    lengths = [N, N] + 2 * ([*range(N + 1)] * 3 + [N] * 3)
    qk = kernels.powers(1.0 + 0.0j, q, N)
    xs += [alpha, *kernels.powers(alpha + 0.0j, q * q, N + 1)]
    xs += [u * x for u, n in zip(bases, lengths) for x in qk[:n]]
    try:
        values = kernels.thetas(xs, ctx.p, ctx.theta_factors)
    except ZeroDivisionError:
        return None
    # then b/d's row times q^(l-N) for each l, as `_r_entry_explicit` forms it
    values += [f * q ** (l - N) for l in range(N + 1) for f in values[:l]]
    table = np.array(values, dtype=complex)
    re, im = table.real.copy(), table.imag.copy()
    with np.errstate(over="ignore"):
        if (np.isinf(np.hypot(re, im)) & np.isfinite(table)).any():
            return None
    series = ends[-1]  # theta(alpha), the well-poised row, then the rows
    at = [0, *ends]  # where each prefactor row starts
    L = np.arange(N + 1)
    l, k = L[:, None], L[None, :]
    # `_r_entry_explicit`'s factor lists as slices of the table: numerator
    # slice j of entry [l, k] starts at s0 + sl l + st l(l-1)/2 and is
    # n0 + nl l + nk k long
    s0, sl, st, n0, nl, nk = np.array(
        [
            (len(xs), 0, 1, 0, 1, 0),  # (b/d)_l q^(l(l-N))
            (at[1], 0, 0, 0, 0, 1),  # (ac)_k
            (at[2], 0, 0, 0, 0, 1),  # (a/c)_k
            (at[3] + N, -1, 0, 0, 1, 0),  # (q^(N-l) bd)_l
            (at[4], 0, 0, N, 0, -1),  # (b/c)_(N-k)
            (at[4], 0, 0, N, -1, 0),  # (b/c)_(N-l)
            (at[5], 0, 0, N, 0, -1),  # (bc)_(N-k)
            (at[7], 0, 0, N, 0, 0),  # (q)_N
        ]
    ).T[..., None, None]
    num = _slice_index(
        5 * N, s0 + sl * l + st * (l * (l - 1) // 2), n0 + nl * l + nk * k
    )
    # and denominator slice j of row l starts at s0 + sl l and is n0 + nl l long
    s0, sl, n0, nl = np.array(
        [
            (at[8] - 1, 1, 0, 1),  # (q^(l-N) c/d)_l
            (at[9] + N - 1, -1, N, -1),  # (q^(-l) d/c)_(N-l)
            (at[6], 0, N, 0),  # (cd)_N
            (at[4], 0, N, 0),  # (b/c)_N
            (at[5], 0, 0, 1),  # (bc)_l
            (at[7], 0, 0, 1),  # (q)_l
            (at[7], 0, N, -1),  # (q)_(N-l)
        ]
    ).T[..., None]
    den = _slice_index(5 * N, s0 + sl * L, n0 + nl * L)
    with np.errstate(all="ignore"):
        pr, pi, singular = _interleaved_ratios(re, im, num, den, N)
        head, rows = table[series : series + N + 2], table[series + N + 2 : len(xs)]
        sr, si, series_singular = _series_square(quad, head, rows, lengths)
        ent = np.empty((N + 1, N + 1), dtype=complex)
        ent.real = (pr * sr - pi * si).T
        ent.imag = (pr * si + pi * sr).T
    flagged = (series_singular | singular[:, None]).T
    return ent, [(k, l) for k, l in np.argwhere(flagged).tolist()]


def _slice_index(steps: int, starts, lens) -> np.ndarray:
    """Table indices of factor lists made of consecutive table slices.

    Each entry's list runs through the slices [starts[j], starts[j] +
    lens[j]) of a flat table for j = 0, 1, ... (starts broadcast to the
    shape of lens).  Returns idx with idx[i] the table index of each
    entry's factor i, i < steps; past an entry's last factor it runs on
    along its last slice.  Built by broadcasting: a jump at the first step
    of each slice, summed over the steps.
    """
    shape, size = lens.shape[1:], lens[0].size
    begin = lens.cumsum(0)  # the step each slice begins at
    begin[1:] = begin[:-1]
    begin[0] = 0
    off = starts - begin  # table index minus step, along each slice
    jumps = off.copy()
    jumps[1:] -= off[:-1]
    where = begin * size + np.arange(size).reshape(shape)
    jump = np.bincount(where.ravel(), jumps.ravel(), (steps + 1) * size)
    idx = jump[: steps * size].astype(np.int32).reshape(steps, *shape)
    np.cumsum(idx, 0, out=idx)
    idx += np.arange(steps, dtype=np.int32).reshape(-1, *(1,) * len(shape))
    return idx


def _interleaved_ratios(re, im, num, den, N: int) -> tuple:
    """`_balanced_ratio` of every entry at once.

    (re, im)[num[i]] (shape (L, K)) and (re, im)[den[i]] (shape (L,)) are
    factor pair i of each entry; entry [l, k] has 4N + l pairs, so from
    step 4N on the rows l done fall away.  The factors are gathered
    kernels.THETA_BLOCK values at a time.  Returns the real and imaginary
    parts of the ratios and, per row l, whether a denominator factor
    within its pairs has modulus below SINGULAR_EPS, where
    `_balanced_ratio` raises.
    """
    steps, dr, di = len(num), re[den], im[den]
    live = np.arange(steps)[:, None] < 4 * N + np.arange(N + 1)
    singular = ((np.hypot(dr, di) < kernels.SINGULAR_EPS) & live).any(0)
    accr, acci = np.ones((N + 1, N + 1)), np.zeros((N + 1, N + 1))
    acc, scratch = (accr, acci), (np.empty_like(accr), np.empty_like(accr))
    block = max(1, kernels.THETA_BLOCK // accr.size)
    for i0 in range(0, steps, block):
        rows = slice(i0, i0 + block)
        # each row's divisors spread over its entries: same-shape operands
        # make the small ufunc calls of a step about half as costly
        div = kernels._divisor(dr[rows], di[rows])
        div = [np.repeat(x[..., None], N + 1, 2) for x in div]
        for i, pair in enumerate(zip(re[num[rows]], im[num[rows]], *div), i0):
            if i >= 4 * N:  # rows 0 .. i - 4N are done
                pair = [x[i - 4 * N + 1 :] for x in pair]
                acc, scratch = [x[1:] for x in acc], [x[1:] for x in scratch]
            kernels._mul(*acc, *pair[:2], *scratch)
            kernels._div(*acc, *pair[2:], *scratch)
    return accr, acci, singular


def _series_square(quad: ParamQuad, head, values, lengths) -> tuple:
    """`kernels.VwpRows.sum` of every entry series at once.

    `head` is theta(alpha) and the well-poised row theta(alpha q^(2t)),
    t = 0..N; `values` are the rows theta(u q^t), t < n, for the (u, n)
    of `_explicit_matrix`, end to end.  Entry [l, k] sums min(k, l) + 1
    terms; term t + 1 is term t times z top_t / bottom_t.  The products
    top_t and bottom_t are formed for every t and entry at once, side by
    side, then run_t chains over t, and the terms run_t wp_t / theta(alpha)
    add up over the squares [t:, t:] of entries that have a term t.
    Returns the real and imaginary parts of the sums and where `sum`
    raises: a denominator factor with modulus below SINGULAR_EPS or a zero
    bottom_t within an entry's terms, or theta(alpha) below it.
    """
    N, z = quad.N, quad.ctx.q
    R = len(lengths)
    rows = np.ones((R, N), dtype=complex)
    rows[np.arange(N) < np.array(lengths)[:, None]] = values
    cols = rows.T  # cols[t, r]: value t of row r
    fam = N + 1  # rows of one parameter family
    L = np.arange(N + 1)
    l, k, lo = L[:, None], L[None, :], np.minimum.outer(L, L)
    # the numerator and denominator rows that `sum` reads, side by side: alpha's
    # and q's (whose product starts from 1 + 0j), then those of the parameters
    # ("m", m), ("k", k), ("l", l), cd, ab, cb and ("m", n) of _series_params
    side = np.array([2, 2 + 3 * fam + 3])[:, None, None]
    gathers = [
        side + np.maximum(l, k), side + fam + k, side + 2 * fam + l,
        side + 3 * fam, side + 3 * fam + 1, side + 3 * fam + 2, side + lo,
    ]
    shape = (N, 2, N + 1, N + 1)  # [t, top or bottom, l, k]
    pr, pi = np.empty(shape), np.empty(shape)
    pr[:, 0], pi[:, 0] = cols[:, 0, None, None].real, cols[:, 0, None, None].imag
    one = np.ones(N), np.zeros(N)
    kernels._mul(*one, cols[:, 1].real, cols[:, 1].imag, np.empty(N), np.empty(N))
    pr[:, 1], pi[:, 1] = one[0][:, None, None], one[1][:, None, None]
    scratch = np.empty(shape), np.empty(shape)
    small = np.hypot(rows.real, rows.imag) < kernels.SINGULAR_EPS
    singular = np.zeros((N, N + 1, N + 1), dtype=bool)
    if small[1].any() or small[2 + 3 * fam + 3 :].any():
        singular |= small[1][:, None, None]
        for i in gathers:
            singular |= small.T[:, i[1]]
    for i in gathers:
        f = cols[:, i]
        kernels._mul(pr, pi, f.real, f.imag, *scratch)
    top, bottom = (pr[:, 0], pi[:, 0]), (pr[:, 1], pi[:, 1])
    singular |= (bottom[0] == 0) & (bottom[1] == 0)
    kernels._mul(*top, z.real, z.imag, *(x[:, 0] for x in scratch))
    fr, fi = kernels._quot(*top, *bottom)
    singular = (singular & (np.arange(N)[:, None, None] < lo)).any(0)
    if abs(complex(head[0])) < kernels.SINGULAR_EPS:
        singular[...] = True
    # run_t for every t, each entry's from its own run_(t-1) while it has
    # terms (the others' are never read), then the terms, then their sums
    runr, runi = np.empty((N + 1, N + 1, N + 1)), np.empty((N + 1, N + 1, N + 1))
    runr[0], runi[0] = 1.0, 0.0
    u, v = np.empty((N + 1, N + 1)), np.empty((N + 1, N + 1))
    for t in range(N):
        runr[t + 1], runi[t + 1] = runr[t], runi[t]
        kernels._mul(runr[t + 1], runi[t + 1], fr[t], fi[t], u, v)
    wp = head[1:, None, None]
    scratch = np.empty_like(runr), np.empty_like(runr)
    kernels._mul(runr, runi, wp.real, wp.imag, *scratch)
    kernels._div(runr, runi, *kernels._divisor(head[:1].real, head[:1].imag), *scratch)
    totr, toti = np.zeros((N + 1, N + 1)), np.zeros((N + 1, N + 1))
    for t in range(N + 1):
        totr[t:, t:] += runr[t, t:, t:]
        toti[t:, t:] += runi[t, t:, t:]
    return totr, toti, singular


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
    _require_nonzero(quad, "bcd", Route.RECURRENCE)
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


def _step_rows(quad: ParamQuad) -> tuple:
    """The theta rows every PATHS step weight of `quad` reads.

    A step leaves a corner (x, y) with x + y <= N - 1 and reads
    theta(u q^m; p) for eleven bases u: m = 0 .. N-1 for cd, a/d, a/c,
    m = 0 .. 2N-2 for ad, bd, ac, bc, and m = 1-N .. N-1 for c/d, d/c,
    b/d, b/c; 19N - 8 theta values.
    """
    _require_nonzero(quad, "cd", Route.PATHS)
    a, b, c, d, N, ctx = quad.a, quad.b, quad.c, quad.d, quad.N, quad.ctx
    return _theta_rows(
        (
            *((u, 0, N) for u in (c * d, a / d, a / c)),
            *((u, 0, 2 * N - 1) for u in (a * d, b * d, a * c, b * c)),
            *((u, 1 - N, N) for u in (c / d, d / c, b / d, b / c)),
        ),
        ctx,
    )


def _step_weight(rows: tuple, k: int):
    """Weight of the step leaving corner (x, y) in row k, as step(x, y, right).

    The first k steps carry the `early` weights (parameter a), the rest
    the `late` ones (parameter b, offset by q^-k).
    """
    cd, a_d, a_c, ad, bd, ac, bc, c_d, d_c, b_d, b_c = rows
    n = len(cd) - 1  # rows over signed m hold m at index m + n

    def step(x: int, y: int, right: bool) -> complex:
        if right:
            den = cd[x + y] * c_d[x - y + n]
            if x + y < k:
                num = ad[x + 2 * y] * a_d[x]
            else:
                num = bd[x + 2 * y - k] * b_d[x - k + n]
        else:
            den = cd[x + y] * d_c[y - x + n]
            if x + y < k:
                num = ac[2 * x + y] * a_c[y]
            else:
                num = bc[2 * x + y - k] * b_c[y - k + n]
        if abs(den) < kernels.SINGULAR_EPS:
            raise SingularParameterError("path step denominator vanishes")
        return num / den

    return step


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

    Weights are evaluated at the step's starting corner (x, y), so row k
    is one lattice sweep of _path_sums: O(N^2) step weights per row, each
    a product of four theta values looked up in rows built once for the
    matrix (19N - 8 theta values, then O(N^3) products).
    """
    _require_valid(quad)
    N = quad.N
    rows = _step_rows(quad)
    ent = np.empty((N + 1, N + 1), dtype=complex)
    for k in range(N + 1):
        ent[k] = _path_sums(N, _step_weight(rows, k))
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


def multiconv_rhs(cases, Ms, quad: ParamQuad, sigma, tau) -> list:
    """Multifactor convolution sums, one for each (ks, l) of `cases`.

    sum over m_1 + ... + m_n = l of  prod_i  R_{k_i}^{m_i} with parameters
    (a q^{|k|_i^sigma}, b q^{|M-k|_i^tau}, c q^{|m|_i}, d q^{|M-m|_i}; M_i),
    where |v|_i^pi sums v_j over the indices j ranked before i by pi, and
    the c/d shifts use the identity order.  The value is independent of
    sigma and tau.

    Each factor is an entry of its sub-quad's `R_explicit` matrix.  A
    sub-quad's matrix is built when a composition first reads it, once per
    call: the cases of one call share it.
    """
    n, perm = len(Ms), list(range(len(Ms)))
    for ks, _ in cases:
        if len(ks) != n or sorted(sigma) != perm or sorted(tau) != perm:
            raise DomainError("need permutations of range(n) and matching lengths")
        if not all(0 <= ki <= Mi for ki, Mi in zip(ks, Ms)):
            raise DomainError("need 0 <= k_i <= M_i")
    a, b, c, d, ctx = quad.a, quad.b, quad.c, quad.d, quad.ctx
    q = ctx.q
    subs = {}  # each sub-quad's entries, keyed by its powers of q and its M_i
    out = []
    for ks, l in cases:
        kshift = [sum(ks[j] for j in range(n) if sigma[j] < sigma[i]) for i in range(n)]
        mkshift = [
            sum(Ms[j] - ks[j] for j in range(n) if tau[j] < tau[i]) for i in range(n)
        ]
        total = 0j
        for m in _compositions(l, Ms):
            cpow = dpow = 0
            prod = 1.0 + 0j
            for i in range(n):
                key = kshift[i], mkshift[i], cpow, dpow, Ms[i]
                if key not in subs:
                    sub = ParamQuad(
                        a * q ** kshift[i],
                        b * q ** mkshift[i],
                        c * q**cpow,
                        d * q**dpow,
                        Ms[i],
                        ctx,
                    )
                    subs[key] = R_explicit(sub).entries.tolist()
                prod *= subs[key][ks[i]][m[i]]
                cpow += m[i]
                dpow += Ms[i] - m[i]
            total += prod
        out.append(total)
    return out


# -- limit transitions --------------------------------------------------------


#: the two scales each limit transition is probed at
LIMIT_SCALES = (1e-3, 1e-4)


@dataclass(frozen=True)
class LimitReport:
    """Quantitative convergence record for one limit transition.

    `order` is the power of the scale parameter governing the residual:
    transitions whose parameter dependence enters only through products
    of two scaled parameters converge one order faster than the scale
    itself, and their ratio window reflects that.  `miss` is how far the
    ratio of the two residuals falls outside the window, relative to the
    nearer bound, plus `extra_residual`; the harness holds it to the
    suite tolerance.
    """

    residuals: tuple
    order: int = 1
    extra_residual: float = 0.0

    @property
    def window(self) -> tuple:
        r = (LIMIT_SCALES[0] / LIMIT_SCALES[1]) ** self.order
        return (0.5 * r, 2.0 * r)

    @property
    def miss(self) -> float:
        lo, hi = self.window
        ratio = self.residuals[0] / max(self.residuals[1], 1e-300)
        return max(0.0, (lo - ratio) / lo, (ratio - hi) / hi) + self.extra_residual


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
    return LimitReport(tuple(res), order=2)


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
    return LimitReport(tuple(res), order=2)


def limit_trig_to_qkraw(
    a: complex, b: complex, d: complex, k: int, l: int, N: int, q: complex
) -> LimitReport:
    """Prefactored R entry approaches the q-Krawtchouk 3phi2.

    (q^k d/(b s))^{N-l} R_k^l(a s, b s, c, d; N) against
    [N,l]_q (q^k a/b)^k 3phi2.  This is a double limit: the target also
    needs c -> 0, and the c-error enters as c/s.  With c = s^2 both
    contributions decay first order in s.
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
        quad = ParamQuad(a * s, b * s, complex(s * s), d, N, ctx)
        val = (q**k * d / (b * s)) ** (N - l) * R_explicit(quad).entries[k, l]
        res.append(abs(val - target) / max(abs(target), 1e-300))
    return LimitReport(tuple(res))


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
    return LimitReport(tuple(res), extra_residual=extra)


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


def krawtchouk_addition_sides(N: int, A1, A2) -> tuple:
    """The three Krawtchouk matrices of the group-law factorization.

    The basis attached to A1, expanded over the one attached to A2 and
    then over plain monomials, must reproduce its direct expansion:
    T(A1) == T(A1 A2^{-1}) T(A2).  Returns (T(A1), T(A1 A2^{-1}), T(A2)).
    """
    return (
        krawtchouk_matrix(N, *A1),
        krawtchouk_matrix(N, *sl2_compose(A1, sl2_inverse(A2))),
        krawtchouk_matrix(N, *A2),
    )


# -- exact path combinatorics --------------------------------------------------


def paths_qbinomial(N: int, l: int, q: complex) -> complex:
    """Area generating function over paths; equals the Gaussian binomial.

    The sum over up-right paths (0,0)->(l,N-l) of q^(area): each up step at
    abscissa x contributes q^x.
    """
    return _path_sums(N, lambda x, y, right: 1.0 if right else q**x)[l]


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
