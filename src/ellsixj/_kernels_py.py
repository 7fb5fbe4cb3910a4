"""Pure-Python scalar kernels.

These are the hot inner loops: truncated theta products, q-Pochhammer
loops, and the terminating sums every higher-level formula reduces to.
Callers reach them through `backend.kernels`.

Conventions:

- all inputs are assumed finite and pre-validated by the wrappers in
  `scalar`/`series`; the kernels only guard against divisions that the
  wrappers cannot see ahead of time,
- a (numerically) vanishing denominator factor raises ZeroDivisionError
  with a short description; wrappers translate that into
  SingularParameterError,
- every sum runs the term recurrence forward (O(n) factor updates per
  term), never recomputing Pochhammers from scratch,
- very-well-poised sums read their theta values from `VwpRows`, the one
  row builder of both the single sum `vwp_sum` and `sixj`'s per-entry
  EXPLICIT path, whose entry series of one matrix share one table and
  grow its rows value by value as they read them,
- `thetas` computes a batch of theta values in one numpy pass, equal bit
  for bit to `theta` on each argument.  It carries real and imaginary
  parts as float64 arrays and spells out CPython's own complex formulas
  (`_mul`, `_quot`), because numpy's complex ufuncs round differently: on
  x86-64 with numpy 2.4 they differ from CPython's `complex` in the last
  bit on 46% of random products and 43% of quotients.  Route checks
  compare matrices from different routes, and their pass/fail flags turn
  on such bits.  Where CPython versions differ (the sign of a zero part
  of `1.0 - z` and `1.0 / x`), it follows the running interpreter.
  `sixj.R_explicit`'s whole-matrix path does all its arithmetic with
  `_mul` and `_quot` too, where EXACT_ARRAYS says they are the running
  interpreter's `*` and `/`.
"""

from __future__ import annotations

import numpy as np

# magnitude below which a denominator factor counts as an exact zero; the
# `scalar` wrappers and the `sixj` prefactors test against it as well
SINGULAR_EPS = 1e-13
# Below this many arguments `thetas` loops the scalar kernel.  The loop
# costs 5-12 us a value for p from 0.05 to 0.3 (15 to 33 factor pairs);
# the batch pass broke even with it at 24-32 values and was 1.2-1.9x
# faster at 40 (2-core x86-64 machine, Python 3.11, numpy 2.4).
THETA_BATCH = 40
# Values one block of factor rows holds: `thetas` builds the rows
# 1 - p^j x and 1 - p^(j+1) / x of THETA_BLOCK // n factor pairs at a time
# for n arguments, of all of them when n is small.  Over 24 elliptic
# R_explicit matrices (N = 4 to 16) peak RSS rose 0.3 MB with this budget
# against no batching, 0.5 MB with 8 pairs a block and 2.4 MB with all
# pairs at once; the few blocks of a small batch made it 12-30% faster
# than 8 pairs a block at 40 to 300 arguments.  `sixj.R_explicit`'s
# whole-matrix path gathers its prefactor factors in blocks of this many
# values too.
THETA_BLOCK = 4096


def theta(x: complex, p: complex, nfac: int) -> complex:
    """Truncated theta product; exactly 1 - x when p == 0.

    prod_{j=0}^{nfac-1} (1 - p**j * x) * (1 - p**(j+1) / x)
    """
    if p == 0:
        return 1.0 - x
    acc = 1.0 + 0.0j
    pj = 1.0 + 0.0j
    inv = 1.0 / x
    for _ in range(nfac):
        pj1 = pj * p
        acc *= (1.0 - pj * x) * (1.0 - pj1 * inv)
        pj = pj1
    return acc


_theta = theta  # the scalar kernel, for `thetas` whatever replaces `theta`


def thetas(xs: list, p: complex, nfac: int) -> list:
    """[theta(x, p, nfac) for x in xs] bit for bit, for complex xs.

    From THETA_BATCH arguments at p != 0 the values come from one numpy
    pass over real and imaginary float64 arrays, with CPython's formulas:
    a b = (ar br - ai bi, ar bi + ai br), and `1.0 - z` and `1.0 / x` as
    the running interpreter forms them (see `_NEG`).  The factors
    j = 0 .. nfac-1 multiply into each value in j order, as in `theta`, and
    a zero argument raises as `theta` does.
    """
    if p == 0:
        return [1.0 - x for x in xs]  # `theta` at p == 0
    if len(xs) < THETA_BATCH or _RECIP is None:
        return [_theta(x, p, nfac) for x in xs]
    z = np.array(xs, dtype=complex)
    xr, xi = z.real.copy(), z.imag.copy()
    if ((xr == 0) & (xi == 0)).any():
        return [_theta(x, p, nfac) for x in xs]
    pw = [1.0 + 0.0j]  # p^j, chained as `theta` chains it
    for _ in range(nfac):
        pw.append(pw[-1] * p)
    pr = np.array([w.real for w in pw])[:, None]
    pi = np.array([w.imag for w in pw])[:, None]
    with np.errstate(all="ignore"):
        ir, ii = _RECIP(xr, xi)
        accr, acci = np.ones_like(xr), np.zeros_like(xr)
        rows = max(1, min(nfac, THETA_BLOCK // len(xs)))
        buf = np.empty((6, rows, len(xs)))
        t0, u0 = buf[4, 0], buf[5, 0]  # scratch rows for the running product
        for j in range(0, nfac, rows):
            k = min(j + rows, nfac)
            ar, ai, br, bi, t, u = buf[:, : k - j]
            _one_minus(pr[j:k], pi[j:k], xr, xi, ar, ai, t)  # 1 - p^j x
            _one_minus(pr[j + 1 : k + 1], pi[j + 1 : k + 1], ir, ii, br, bi, t)
            _mul(ar, ai, br, bi, t, u)
            for fr, fi in zip(ar, ai):
                _mul(accr, acci, fr, fi, t0, u0)
    z.real, z.imag = accr, acci
    out = z.tolist()
    # an overflow that left a NaN part is recomputed by the scalar kernel,
    # since an interpreter may recover infinities there (C11 Annex G) where
    # the array product does not
    for i in np.flatnonzero(np.isnan(accr) | np.isnan(acci)).tolist():
        out[i] = _theta(xs[i], p, nfac)
    return out


def _one_minus(cr, ci, xr, xi, outr, outi, t) -> None:
    """1 - c x into (outr, outi), c a column and x a row; t is scratch."""
    np.multiply(cr, xr, out=outr)
    np.multiply(ci, xi, out=t)
    np.subtract(outr, t, out=outr)
    np.subtract(1.0, outr, out=outr)
    np.multiply(cr, xi, out=outi)
    np.multiply(ci, xr, out=t)
    np.add(outi, t, out=outi)
    _NEG(outi, out=outi)


def _mul(ar, ai, br, bi, t, u) -> None:
    """a *= b in place, as CPython multiplies: (ar br - ai bi, ar bi + ai br).

    t and u are scratch of a's shape.  (Outputs are passed by position: a
    keyword costs more than the arithmetic on the small arrays of
    `sixj._explicit_matrix`.)
    """
    np.multiply(ar, bi, t)
    np.multiply(ai, bi, u)
    np.multiply(ar, br, ar)
    np.subtract(ar, u, ar)
    np.multiply(ai, br, ai)
    np.add(t, ai, ai)


def _divisor(br, bi) -> tuple:
    """(s, t, d) with a / b = ((ar s + ai t) / d, (ai s - ar t) / d).

    That is CPython's `_Py_c_quot`, which divides through by the larger
    of |br| and |bi|: with ratio = bi / br, d = br + bi ratio and s, t =
    1, ratio where |br| >= |bi|; with ratio = br / bi, d = br ratio + bi
    and s, t = ratio, 1 elsewhere (x * 1.0 is x, bit for bit).  A zero b,
    where CPython raises, is the caller's to exclude.
    """
    big = abs(br) >= abs(bi)
    u, v = np.where(big, br, bi), np.where(big, bi, br)
    ratio = v / u
    return np.where(big, 1.0, ratio), np.where(big, ratio, 1.0), u + v * ratio


def _div(ar, ai, s, t, d, u, v) -> None:
    """a /= b in place, for b's `_divisor` (s, t, d); u and v are scratch
    of a's shape."""
    np.multiply(ar, t, u)
    np.multiply(ai, t, v)
    np.multiply(ar, s, ar)
    np.add(ar, v, ar)
    np.multiply(ai, s, ai)
    np.subtract(ai, u, ai)
    np.divide(ar, d, ar)
    np.divide(ai, d, ai)


def _quot(ar, ai, br, bi) -> tuple:
    """a / b as CPython divides complex numbers; b != 0."""
    s, t, d = _divisor(br, bi)
    shape = np.broadcast_shapes(np.shape(ar), np.shape(ai), np.shape(d))
    qr, qi, u, v = (np.empty(shape) for _ in range(4))
    qr[...], qi[...] = ar, ai
    _div(qr, qi, s, t, d, u, v)
    return qr, qi


# CPython up to 3.13 promotes the real 1.0 of `1.0 - z` and `1.0 / x` to
# 1 + 0j; CPython 3.14 follows C99's mixed real/complex rules instead.  The
# two differ only in the sign of a zero part, which square roots and
# logarithms read on their branch cuts, so `thetas` uses the forms of the
# running interpreter: `_NEG` is the imaginary part of 1 - z from that of
# z, and `_RECIP` is 1 / x.  Both are chosen once, on signed-zero cases,
# and `_mul` and `_quot` are checked against complex * and / there and on
# overflowing pairs, where an interpreter may recover infinities (C11
# Annex G) that the plain formulas leave as NaN, or may fuse a multiply
# and an add.  Where no form matches the interpreter on finite values,
# `_RECIP` is None and `thetas` loops `theta`; where `_mul` or `_quot`
# differs anywhere, EXACT_ARRAYS is False and `sixj.R_explicit` keeps its
# per-entry loop.


def _neg_promoted(v, out):
    """0 - v, the imaginary part of (1 + 0j) - z."""
    return np.subtract(0.0, v, out=out)


def _recip_promoted(xr, xi) -> tuple:
    """(1 + 0j) / x."""
    return _quot(1.0, 0.0, xr, xi)


def _recip_real(xr, xi) -> tuple:
    """1 / x for a real 1: `_recip_promoted` without the zero's terms."""
    big = abs(xr) >= abs(xi)
    ratio = np.where(big, xi / xr, xr / xi)
    denom = np.where(big, xr + xi * ratio, xr * ratio + xi)
    return np.where(big, 1.0, ratio) / denom, np.where(big, -ratio, -1.0) / denom


def _parts(values: list) -> tuple:
    z = np.array(values, dtype=complex)
    return z.real.copy(), z.imag.copy()


def _same(want: list, re, im) -> bool:
    """Whether (re, im) hold the bits of the complex values `want`."""
    got = np.empty(len(want), dtype=complex)
    got.real, got.imag = re, im
    return got.tobytes() == np.array(want, dtype=complex).tobytes()


def _matching(want: list, forms: tuple, apply):
    """The first of `forms` for which `apply(form)`, a pair of real and
    imaginary arrays, holds the bits of the complex values `want`."""
    for form in forms:
        with np.errstate(all="ignore"):
            re, im = apply(form)
        if _same(want, re, im):
            return form
    return None


def _products_match(pairs: list) -> bool:
    """Whether `_mul` and `_quot` give complex x * y and x / y on `pairs`."""
    (xr, xi), (yr, yi) = _parts([x for x, _ in pairs]), _parts([y for _, y in pairs])
    with np.errstate(all="ignore"):
        qr, qi = _quot(xr, xi, yr, yi)
        _mul(xr, xi, yr, yi, np.empty_like(xr), np.empty_like(xr))
    return _same([x * y for x, y in pairs], xr, xi) and _same(
        [x / y for x, y in pairs], qr, qi
    )


def _rules(probes: list, wide: list) -> tuple:
    """(_NEG, _RECIP, EXACT_ARRAYS) for the running interpreter.

    `_NEG` and `_RECIP` form 1.0 - z and 1.0 / x as it does on the nonzero
    complex `probes`; _RECIP is None if either has no matching form or if
    `_mul` and `_quot` miss a product or quotient of two probes.
    EXACT_ARRAYS says whether they hold on the pairs of `wide` too, whose
    values overflow.
    """
    zr, zi = _parts(probes)
    neg = _matching(
        [1.0 - x for x in probes],
        (_neg_promoted, np.negative),
        lambda f: (1.0 - zr, f(zi, out=np.empty_like(zi))),
    )
    recip = _matching(
        [1.0 / x for x in probes], (_recip_promoted, _recip_real), lambda f: f(zr, zi)
    )
    if neg is None or not _products_match([(x, y) for x in probes for y in probes]):
        return _neg_promoted, None, False
    return neg, recip, recip is not None and _products_match(
        [(x, y) for x in wide for y in wide if y]
    )


_SIGNED = [
    complex(r, i)
    for r in (2.0, 0.0, -0.0, -3.0, 0.7071067811865476)
    for i in (0.0, -0.0, 5.0, -1.0, -0.3333333333333333)
    if r or i
]
_WIDE = _SIGNED + [
    complex(r, i)
    for r in (1e300, -1.5e308, 1e-300, 0.0)
    for i in (1e300, -0.0, 1.5e308, -1e-310)
]
_NEG, _RECIP, EXACT_ARRAYS = _rules(_SIGNED, _WIDE)


def qpoch(a: complex, q: complex, k: int) -> complex:
    """(a; q)_k for k >= 0."""
    acc = 1.0 + 0.0j
    aj = a + 0.0j
    for _ in range(k):
        acc *= 1.0 - aj
        aj *= q
    return acc


def epoch(a: complex, q: complex, p: complex, k: int, nfac: int) -> complex:
    """(a; q, p)_k = prod_{j<k} theta(a q^j; p) for k >= 0."""
    if p == 0:
        return qpoch(a, q, k)
    acc = 1.0 + 0.0j
    aj = a + 0.0j
    for _ in range(k):
        acc *= theta(aj, p, nfac)
        aj *= q
    return acc


def powers(x: complex, step: complex, n: int) -> list:
    """x, x step, x step^2, ...: n values, each the previous one times step."""
    out = []
    for _ in range(n):
        out.append(x)
        x *= step
    return out


class VwpRows:
    """Theta rows of very-well-poised sums that share a leading parameter a.

    The rows theta(u q^j; p) of a and q, one per numerator parameter u and
    one per denominator a q / u, each under a key the caller chooses (equal
    keys must mean equal u), and the well-poised row theta(a q^(2j)), its
    argument chained by q q from a; q^j is chained by q from 1.  A row grows
    to the longest sum that has read it, so sums of up to n_max + 1 terms
    that share parameters share their theta values, and a caller that
    reads a few sums pays for those.  Rows grow value by value through
    `theta` as the sums read them.
    """

    def __init__(self, a: complex, q: complex, p: complex, n_max: int, nfac: int):
        self.a, self.q, self.p, self.nfac = a, q, p, nfac
        self.qk = powers(1.0 + 0.0j, q, n_max)
        self.wp_args = powers(a + 0.0j, q * q, n_max + 1)
        self.th_a = None
        self.wp, self.a_row, self.q_row, self.num, self.den = [], [], [], {}, {}

    def _row(self, row: list, u: complex, n: int) -> list:
        for x in self.qk[len(row) : n]:
            row.append(theta(u * x, self.p, self.nfac))
        return row

    def sum(self, bs: tuple, z: complex, n: int) -> complex:
        """The sum of `vwp_sum` over the (key, b) pairs bs, n + 1 terms.

        Term k + 1 is term k times z * prod(numerators) / prod(denominators)
        at k.  The well-poised factor is read per term rather than chained,
        so a theta zero at an intermediate k kills that term without
        poisoning the recurrence.
        """
        a, q, p, nfac = self.a, self.q, self.p, self.nfac
        if self.th_a is None:
            self.th_a = theta(a, p, nfac)
        for _, b in bs:
            if b == 0:
                raise ZeroDivisionError("well-poised parameter b = 0")
        wp = self.wp
        for x in self.wp_args[len(wp) : n + 1]:
            wp.append(theta(x, p, nfac))
        num = [self._row(self.a_row, a, n)]
        den = [self._row(self.q_row, q, n)]
        for key, b in bs:
            num.append(self._row(self.num.setdefault(key, []), b, n))
            den.append(self._row(self.den.setdefault(key, []), a * q / b, n))
        if abs(self.th_a) < SINGULAR_EPS:
            raise ZeroDivisionError("well-poised leading factor theta(a) vanishes")
        first, *rest = num
        total = 0.0 + 0.0j
        run = 1.0 + 0.0j  # z^k * (a,bs;q,p)_k / (q,aq/bs;q,p)_k
        for k in range(n + 1):
            total += run * wp[k] / self.th_a
            if k == n:
                break
            top = first[k]
            for row in rest:
                top *= row[k]
            bottom = 1.0 + 0.0j
            for row in den:
                f = row[k]
                if abs(f) < SINGULAR_EPS:
                    raise ZeroDivisionError(
                        f"denominator Pochhammer factor vanishes at term {k + 1}"
                    )
                bottom *= f
            run *= z * top / bottom
        return total


def vwp_sum(
    a: complex,
    bs: tuple,
    q: complex,
    p: complex,
    z: complex,
    n: int,
    nfac: int,
) -> complex:
    """Terminating very-well-poised sum with leading parameter a.

    sum_{k=0}^{n}  theta(a q^{2k}; p) / theta(a; p)
                   * (a, bs...; q, p)_k / (q, a q / bs...; q, p)_k * z^k

    At p == 0 this is the classical very-well-poised series of length
    len(bs) + 3 over len(bs) + 2; at p != 0 (with z == q) the elliptic one.
    """
    return VwpRows(a, q, p, n, nfac).sum(tuple(enumerate(bs)), z, n)


def phi_sum(
    top: tuple, bottom: tuple, q: complex, z: complex, n: int, corr: int
) -> complex:
    """Terminating basic hypergeometric sum.

    sum_{k=0}^{n} (top; q)_k / ((q; q)_k (bottom; q)_k)
                  * ((-1)^k q^binom(k,2))^corr * z^k

    with corr = 1 + len(bottom) - len(top).  Zero entries in `bottom` are
    legal ((0; q)_k == 1).
    """
    total = 0.0 + 0.0j
    run = 1.0 + 0.0j
    qk = 1.0 + 0.0j
    for k in range(n + 1):
        total += run
        if k == n:
            break
        num = 1.0 + 0.0j
        for t in top:
            num *= 1.0 - t * qk
        den = 1.0 - q * qk
        if abs(den) < SINGULAR_EPS:
            raise ZeroDivisionError(f"(q;q) factor vanishes at term {k + 1}")
        for b in bottom:
            f = 1.0 - b * qk
            if abs(f) < SINGULAR_EPS:
                raise ZeroDivisionError(
                    f"denominator Pochhammer factor vanishes at term {k + 1}"
                )
            den *= f
        fac = z
        if corr > 0:
            g = -qk
            for _ in range(corr):
                fac *= g
        elif corr < 0:
            g = -qk
            for _ in range(-corr):
                fac /= g
        run *= num / den * fac
        qk *= q
    return total


def f_sum(top: tuple, bottom: tuple, x: complex, n: int) -> complex:
    """Terminating ordinary hypergeometric sum.

    sum_{k=0}^{n} (top)_k / ((bottom)_k k!) * x^k
    """
    total = 0.0 + 0.0j
    run = 1.0 + 0.0j
    for k in range(n + 1):
        total += run
        if k == n:
            break
        num = 1.0 + 0.0j
        for t in top:
            num *= t + k
        den = k + 1.0
        for b in bottom:
            f = b + k
            if abs(f) < SINGULAR_EPS:
                raise ZeroDivisionError(
                    f"denominator rising factorial vanishes at term {k + 1}"
                )
            den *= f
        run *= num / den * x
    return total
