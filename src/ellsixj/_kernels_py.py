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
  row builder of both the single sum `vwp_sum` and `sixj.R_explicit`,
  whose entry series of one matrix share one table.
"""

from __future__ import annotations

# magnitude below which a denominator factor counts as an exact zero; the
# `scalar` wrappers and the `sixj` prefactors test against it as well
SINGULAR_EPS = 1e-13


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
    reads a few sums pays for those.
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
