"""Scalar building blocks: factorials, Pochhammers, theta.

Thin validating wrappers around the scalar kernels.  Negative Pochhammer
indices are handled here by the inversion rule

    (a; q)_k = 1 / (a q^k; q)_{-k},          k < 0,

and likewise for the theta-Pochhammer, so the kernels only ever see
non-negative lengths.
"""

from __future__ import annotations

import math

from .backend import kernels
from .context import EllipticContext
from .errors import DomainError, SingularParameterError


def _check_finite(*zs: complex) -> None:
    for z in zs:
        z = complex(z)
        if not (math.isfinite(z.real) and math.isfinite(z.imag)):
            raise DomainError("non-finite scalar input")


def rising_factorial(a: complex, k: int) -> complex:
    """(a)_k = a (a+1) ... (a+k-1); empty product for k = 0."""
    if k < 0:
        raise DomainError("rising factorial needs k >= 0")
    _check_finite(a)
    acc = 1.0 + 0.0j
    for j in range(k):
        acc *= a + j
    return acc


def q_pochhammer(a: complex, q: complex, k: int) -> complex:
    """(a; q)_k, any integer k (negative k via inversion)."""
    _check_finite(a, q)
    if q == 0:
        raise DomainError("q = 0 is outside the supported regime")
    if k >= 0:
        return kernels.qpoch(complex(a), complex(q), k)
    shifted = a * q**k
    for j in range(-k):
        if abs(1.0 - shifted * q**j) < 1e-13:
            raise SingularParameterError(
                f"(a;q)_{k}: factor 1 - a q^{k + j} vanishes"
            )
    return 1.0 / kernels.qpoch(complex(shifted), complex(q), -k)


def q_binomial(N: int, k: int, q: complex) -> complex:
    """Gaussian binomial coefficient; 0 outside 0 <= k <= N."""
    _check_finite(q)
    if k < 0 or k > N:
        return 0j
    for j in range(1, N + 1):
        if abs(1.0 - q**j) < 1e-13:
            raise SingularParameterError(
                f"q-binomial at root of unity: 1 - q^{j} vanishes"
            )
    qq = complex(q)
    return kernels.qpoch(qq, qq, N) / (
        kernels.qpoch(qq, qq, k) * kernels.qpoch(qq, qq, N - k)
    )


def theta(x: complex, ctx: EllipticContext) -> complex:
    """theta(x; p) = prod_{j>=0} (1 - p^j x)(1 - p^{j+1}/x), truncated.

    The truncation length is ctx.theta_factors; with p == 0 the value is
    exactly 1 - x.
    """
    _check_finite(x)
    if ctx.p != 0 and x == 0:
        raise DomainError("theta(0; p) is undefined for p != 0")
    return kernels.theta(complex(x), ctx.p, ctx.theta_factors)


def elliptic_pochhammer(a: complex, k: int, ctx: EllipticContext) -> complex:
    """(a; q, p)_k = prod_{j<k} theta(a q^j; p), any integer k."""
    _check_finite(a)
    if ctx.p != 0 and a == 0:
        raise DomainError("theta-Pochhammer of 0 is undefined for p != 0")
    if k >= 0:
        return kernels.epoch(complex(a), ctx.q, ctx.p, k, ctx.theta_factors)
    shifted = a * ctx.q**k
    for j in range(-k):
        # theta(x; p) vanishes on x = p^m, and only at x = 1 when p = 0
        x = shifted * ctx.q**j
        m = round(math.log(abs(x)) / math.log(abs(ctx.p))) if ctx.p != 0 else 0
        if abs(1.0 - x * ctx.p ** -m) < 1e-13:
            raise SingularParameterError(
                f"(a;q,p)_{k}: factor theta(a q^{k + j}) vanishes"
            )
    return 1.0 / kernels.epoch(complex(shifted), ctx.q, ctx.p, -k, ctx.theta_factors)


def thetas(ctx: EllipticContext, *xs: complex) -> complex:
    """Product of theta values, mirroring the theta(x1, x2, ...; p) shorthand."""
    acc = 1.0 + 0.0j
    for x in xs:
        acc *= theta(x, ctx)
    return acc


def epochs(ctx: EllipticContext, k: int, *args: complex) -> complex:
    """Product of (a; q, p)_k over the given arguments."""
    acc = 1.0 + 0.0j
    for a in args:
        acc *= elliptic_pochhammer(a, k, ctx)
    return acc


def qpochs(q: complex, k: int, *args: complex) -> complex:
    """Product of (a; q)_k over the given arguments."""
    acc = 1.0 + 0.0j
    for a in args:
        acc *= q_pochhammer(a, q, k)
    return acc
