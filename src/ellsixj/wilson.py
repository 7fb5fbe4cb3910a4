"""Biorthogonal rational functions attached to the coefficient matrices.

Two equivalent pictures of the same biorthogonal system:

  * rational functions R_n, S_m of mu(k) = q^-k + q^(k-N) c/d, each a
    prefactor times the very-well-poised series of one coefficient-matrix
    entry, discretely biorthogonal with weights `eto_weight`;
  * Wilson-style functions r_n((z + 1/z)/2; a,...,f) with abcdef = q and
    ab = q^-N, biorthogonal on the grid z_k = a q^k.

`wilson_addition` evaluates the three expressions of the degree-raising
addition formula (whose s = t = 1 case is the biorthogonality itself).
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .context import inverse_power, make_context
from .errors import DomainError, SingularParameterError
from .series import eval_W, w_spec
from .sixj import ParamQuad, R_double_sum, entry_series
from . import scalar, sixj

# No code here reads it: the benchmark's traced run (perfbench/tracing.py)
# wraps `wilson.R_explicit` by attribute, and the name goes with that entry.
R_explicit = sixj.R_explicit

#: relative slack when validating the two Wilson parameter constraints
CONSTRAINT_RTOL = 1e-8


@dataclass(frozen=True)
class WilsonParams:
    a: complex
    b: complex
    c: complex
    d: complex
    e: complex
    f: complex
    q: complex
    N: int

    def __post_init__(self) -> None:
        q_inv = inverse_power(self.q, self.N)
        prod = self.a * self.b * self.c * self.d * self.e * self.f
        if abs(prod - self.q) > CONSTRAINT_RTOL * abs(self.q):
            raise DomainError("need a*b*c*d*e*f = q")
        if abs(self.a * self.b - q_inv) > CONSTRAINT_RTOL * abs(q_inv):
            raise DomainError("need a*b = q^-N")

    def swapped_ef(self) -> "WilsonParams":
        return WilsonParams(
            self.a, self.b, self.c, self.d, self.f, self.e, self.q, self.N
        )

    def grid_z(self, k: int) -> complex:
        return self.a * self.q**k


def wilson_r(n: int, z: complex, wp: WilsonParams) -> complex:
    """r_n((z + 1/z)/2), normalized to be symmetric in a, b, c, d.

    Prefactor (ab, ac, ad, 1/af; q)_n / (aq/e; q)_n times the terminating
    very-well-poised series on base point a/e.
    """
    a, b, c, d, e, f, q = wp.a, wp.b, wp.c, wp.d, wp.e, wp.f, wp.q
    if not 0 <= n <= wp.N:
        raise DomainError("need 0 <= n <= N")
    num = scalar.qpochs(q, n, a * b, a * c, a * d, 1 / (a * f))
    den = scalar.qpochs(q, n, a * q / e)
    if abs(den) < 1e-280:
        raise SingularParameterError("prefactor pole at a*q/e")
    bs = (
        a * z,
        a / z,
        q / (b * e),
        q / (c * e),
        q / (d * e),
        q**n / (e * f),
        q ** (-n),
    )
    return num / den * eval_W(w_spec(a / e, bs, q, q, n))


def wilson_weight(k: int, wp: WilsonParams) -> complex:
    a, b, c, d, e, f, q = wp.a, wp.b, wp.c, wp.d, wp.e, wp.f, wp.q
    num = (1 - a**2 * q ** (2 * k)) * scalar.qpochs(
        q, k, a**2, a * b, a * c, a * d, a * e, a * f
    )
    den = (1 - a**2) * scalar.qpochs(
        q, k, q, a * q / b, a * q / c, a * q / d, a * q / e, a * q / f
    )
    return num / den * q**k


def wilson_norm(n: int, wp: WilsonParams) -> complex:
    a, b, c, d, e, f, q, N = wp.a, wp.b, wp.c, wp.d, wp.e, wp.f, wp.q, wp.N
    head = scalar.qpochs(
        q, N, a**2 * q, q / (c * d), q / (c * e), q / (d * e)
    ) / scalar.qpochs(q, N, a * q / c, a * q / d, a * q / e, b * f)
    tail = scalar.qpochs(
        q, n, q, q**n / (e * f), a * b, a * c, a * d, b * c, b * d, c * d
    ) / scalar.q_pochhammer(q / (e * f), q, 2 * n)
    return head * tail * q ** (-n)


def wilson_biorth_sum(n: int, m: int, wp: WilsonParams) -> tuple:
    """(sum, largest term magnitude) of the discrete pairing of r_n, r_m.

    The second member of the pair carries e and f interchanged.
    """
    swapped = wp.swapped_ef()
    total = 0j
    scale = 0.0
    for k in range(wp.N + 1):
        z = wp.grid_z(k)
        term = wilson_weight(k, wp) * wilson_r(n, z, wp) * wilson_r(m, z, swapped)
        total += term
        scale = max(scale, abs(term))
    return total, scale


# -- rational picture ----------------------------------------------------------


def _require_wilson(quad: ParamQuad, *indices: int) -> None:
    """The Wilson picture has no nome, and its indices lie in 0..N."""
    if quad.ctx.p != 0:
        raise DomainError("the Wilson picture has no nome")
    if not all(0 <= i <= quad.N for i in indices):
        raise DomainError("need 0 <= index <= N")


def mu(k: int, quad: ParamQuad) -> complex:
    _require_wilson(quad, k)
    q = quad.ctx.q
    return q ** (-k) + q ** (k - quad.N) * quad.c / quad.d


def rational_R(n: int, k: int, quad: ParamQuad) -> complex:
    """R_n at the k-th grid point: the series of matrix entry (n, k)."""
    a, b, c, d, N = quad.a, quad.b, quad.c, quad.d, quad.N
    _require_wilson(quad, n, k)
    q = quad.ctx.q
    pref = scalar.qpochs(
        q, n, q ** (-N), a * c, q ** (1 - N) / (b * d), a / c
    ) / scalar.qpochs(q, n, q ** (1 - N) * c / b)
    return pref * entry_series(quad, n, k)


def rational_S(m: int, k: int, quad: ParamQuad) -> complex:
    """S_m at the k-th grid point: the series of entry (k, m) of (c, d, a, b)."""
    a, b, c, d, N = quad.a, quad.b, quad.c, quad.d, quad.N
    _require_wilson(quad, m, k)
    q = quad.ctx.q
    pref = scalar.qpochs(
        q, m, q ** (-N), a * c, q ** (1 - N) / (b * d), d / b
    ) / scalar.qpochs(q, m, q ** (1 - N) * a / d)
    return pref * entry_series(ParamQuad(c, d, a, b, N, quad.ctx), k, m)


def eto_weight(k: int, quad: ParamQuad) -> complex:
    a, b, c, d, N = quad.a, quad.b, quad.c, quad.d, quad.N
    _require_wilson(quad, k)
    q = quad.ctx.q
    head = (1 - q ** (2 * k - N) * c / d) / (1 - q ** (-N) * c / d)
    num = scalar.qpochs(
        q, k, q ** (-N) * c / d, q ** (-N), a * c, q ** (1 - N) / (b * d),
        b / d, c / a,
    )
    den = scalar.qpochs(
        q, k, q, q * c / d, q ** (1 - N) / (a * d), b * c,
        q ** (1 - N) * c / b, q ** (1 - N) * a / d,
    )
    return head * num / den * q**k


def eto_norm(n: int, quad: ParamQuad) -> complex:
    a, b, c, d, N = quad.a, quad.b, quad.c, quad.d, quad.N
    _require_wilson(quad, n)
    q = quad.ctx.q
    head = scalar.qpochs(q, N, b * a, b / a, d * c, d / c) / scalar.qpochs(
        q, N, b * c, b / c, d * a, d / a
    )
    mid = (1 - q ** (-N) * a / b) / (1 - q ** (2 * n - N) * a / b)
    tail = scalar.qpochs(
        q, n, q, q ** (-N), a * c, a * d, q ** (1 - N) / (b * c),
        q ** (1 - N) / (b * d), a * q / b,
    ) / scalar.qpochs(q, n, q ** (-N) * a / b)
    return head * mid * tail * q ** (-n)


def eto_pairing_sum(n: int, m: int, quad: ParamQuad) -> tuple:
    """(sum, largest term magnitude) of sum_k w_k R_n(mu(k)) S_m(mu(k))."""
    total = 0j
    scale = 0.0
    for k in range(quad.N + 1):
        term = eto_weight(k, quad) * rational_R(n, k, quad) * rational_S(m, k, quad)
        total += term
        scale = max(scale, abs(term))
    return total, scale


# -- addition formula -----------------------------------------------------------


def wilson_addition(n: int, m: int, s: complex, t: complex, wp: WilsonParams) -> tuple:
    """The three expressions of the addition formula, as (lhs, mid, rhs).

    lhs: grid pairing of r_n with the (s, t)-deformed partner under the
         deformed weights.
    mid: closed form X times a single coefficient-matrix entry.
    rhs: closed form Y times one deformed Wilson function at the m-th
         grid point of its own parameter set.

    All radicals inside one expression derive from a single square root,
    and each expression is invariant under flipping that root.  At the
    degeneration s = t = 1 (where mid collapses to the biorthogonality
    delta) the third expression becomes 0 times a divergent series and is
    returned as None.
    """
    a, b, c, d, e, f, q, N = wp.a, wp.b, wp.c, wp.d, wp.e, wp.f, wp.q, wp.N
    partner = WilsonParams(a, b, c * s, d * t, f / s, e / t, q, N)
    deformed = WilsonParams(a, b, c * s, d, e, f / s, q, N)

    lhs = 0j
    for k in range(N + 1):
        z = wp.grid_z(k)
        lhs += (
            wilson_weight(k, deformed) * wilson_r(n, z, wp) * wilson_r(m, z, partner)
        )

    sigma = cmath.sqrt(c / f)
    tau = c / sigma  # so sigma * tau = c exactly
    quad = ParamQuad(
        sigma, q / (d * tau), s * sigma, q / (t * d * tau), N, make_context(q)
    )
    X = (
        scalar.qpochs(
            q, N, a**2 * q, q / (c * d * s * t), q * t / (c * e * s), q / (d * e)
        )
        / scalar.qpochs(q, N, a * q / (c * s), a * q / d, a * q / e, b * f / s)
        * scalar.qpochs(q, n, a * b, a * d, b * d)
        * scalar.qpochs(
            q, m, q, q**m * s * t / (e * f), a * c * s, b * c * s, c * d * s * t
        )
        / scalar.q_pochhammer(q * s * t / (e * f), q, 2 * m)
        * q ** (-n)
        * t ** (2 * m - N)
        * q ** (m**2 - n**2)
        * (c * e**2 * f) ** (n - m)
    )
    # at s = t = 1 the quad has a = c and b = d (R = I), where the closed
    # form is resonant, so the entry comes from RECURRENCE
    mid = X * R_double_sum(quad).entries[n, m]

    gamma = cmath.sqrt(e * s / (f * t))
    big = WilsonParams(
        s / (f * gamma),
        a * b * f * gamma / s,
        c * gamma,
        d / gamma,
        e / gamma,
        f * gamma,
        q,
        N,
    )
    Y = (
        scalar.qpochs(
            q, N, a**2 * q, q / (d * e), q / (c * d * s), q / (c * e * s)
        )
        / scalar.qpochs(q, N, a * q / (c * s), a * q / d, a * q / e, b * f / s)
        * scalar.qpochs(q, n, a * d, b * d)
        / scalar.qpochs(q, n, q / (c * e * s), d * t / e)
        * scalar.qpochs(q, m, a * b, t, a * c * s, b * c * s, d * t / e)
        / scalar.qpochs(q, m, q * s / (d * f), q * s / (e * f))
    )
    try:
        rhs = Y * wilson_r(n, big.grid_z(m), big)
    except SingularParameterError:
        rhs = None
    return lhs, mid, rhs
