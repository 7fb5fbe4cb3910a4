"""Terminating hypergeometric-type series.

A SeriesSpec is a frozen description of one terminating sum.  Termination
is structural: the LAST numerator parameter is the designated termination
slot and must equal q**(-terms) (or -terms for the ordinary family).  It
is never inferred by scanning the parameter list, so two coincidentally
integral parameters cannot silently change the summation range.

Families:

  F    ordinary  r F s  (argument x, factor 1/k!)
  PHI  basic     r phi s with the ((-1)^k q^C(k,2))^(1+s-r) convention
  W    very-well-poised r+1 W r  (top[0] is the leading parameter)
  V12  elliptic very-well-poised, twelve over eleven; argument fixed to q
       and the balancing constraint  a^3 q^(n+2) = b c d e f g  enforced
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .backend import kernels
from .context import EllipticContext, inverse_power, make_context, theta_factors
from .errors import BalancingError, DomainError, SingularParameterError
from . import scalar

#: relative tolerance for the structural termination-slot check
TERMINATION_RTOL = 1e-10

_FAMILIES = ("F", "PHI", "W", "V12")


@dataclass(frozen=True)
class SeriesSpec:
    family: str
    top: tuple
    bottom: tuple
    base: complex  # q; ignored by family F
    nome: complex  # p; only V12 may set it nonzero
    argument: complex
    terms: int

    def __post_init__(self) -> None:
        if self.family not in _FAMILIES:
            raise DomainError(f"unknown series family {self.family!r}")
        if self.terms < 0:
            raise DomainError("terms must be >= 0")
        if not self.top:
            raise DomainError("need at least the termination parameter")
        object.__setattr__(self, "top", tuple(complex(t) for t in self.top))
        object.__setattr__(self, "bottom", tuple(complex(b) for b in self.bottom))
        n = self.terms
        if self.family == "F":
            ref = complex(-n)
            if abs(self.top[-1] - ref) > TERMINATION_RTOL * max(1.0, abs(ref)):
                raise DomainError(
                    "termination slot must hold -terms for family F"
                )
            return
        q = complex(self.base)
        if q == 0:
            raise DomainError("q = 0 is outside the supported regime")
        ref = inverse_power(q, n)
        if abs(self.top[-1] - ref) > TERMINATION_RTOL * abs(ref):
            raise DomainError(
                "termination slot must hold q**(-terms) for this family"
            )
        if self.family != "V12" and self.nome != 0:
            raise DomainError("only family V12 carries a nonzero nome")
        if self.family in ("W", "V12") and self.bottom:
            raise DomainError(
                "well-poised denominators are generated, not supplied"
            )
        if self.family == "V12":
            if len(self.top) != 8:
                raise DomainError("V12 needs a leading parameter plus seven")
            if self.nome != 0 and 0 in self.top:
                raise DomainError("theta(0; p) is undefined for p != 0")
            if abs(self.argument - q) > TERMINATION_RTOL * abs(q):
                raise DomainError("V12 argument is fixed to q")
            a = self.top[0]
            prod = 1.0 + 0.0j
            for b in self.top[1:7]:
                prod *= b
            ref = a**3 * q ** (n + 2)
            if abs(prod - ref) > 1e-8 * max(abs(prod), abs(ref)):
                raise BalancingError(
                    "V12 balancing a^3 q^(n+2) = b c d e f g violated"
                )


# -- constructors ----------------------------------------------------------


def f_spec(top, bottom, x: complex, n: int) -> SeriesSpec:
    """Ordinary rFs; the last entry of `top` must be -n."""
    return SeriesSpec("F", tuple(top), tuple(bottom), 0j, 0j, complex(x), n)


def phi_spec(top, bottom, q: complex, z: complex, n: int) -> SeriesSpec:
    """Basic r phi s; the last entry of `top` must be q**-n."""
    return SeriesSpec("PHI", tuple(top), tuple(bottom), complex(q), 0j, complex(z), n)


def w_spec(a: complex, bs, q: complex, z: complex, n: int) -> SeriesSpec:
    """Very-well-poised series with leading parameter a; bs[-1] == q**-n."""
    return SeriesSpec("W", (complex(a), *map(complex, bs)), (), complex(q), 0j, complex(z), n)


def v12_spec(a: complex, bs, q: complex, p: complex, n: int) -> SeriesSpec:
    """Elliptic very-well-poised series; seven parameters, bs[-1] == q**-n."""
    return SeriesSpec(
        "V12", (complex(a), *map(complex, bs)), (), complex(q), complex(p), complex(q), n
    )


# -- evaluation ------------------------------------------------------------


def eval_rFs(spec: SeriesSpec) -> complex:
    if spec.family != "F":
        raise DomainError("spec is not an ordinary hypergeometric series")
    try:
        return kernels.f_sum(spec.top, spec.bottom, spec.argument, spec.terms)
    except ZeroDivisionError as exc:
        raise SingularParameterError(str(exc)) from None


def eval_rphi_s(spec: SeriesSpec) -> complex:
    if spec.family != "PHI":
        raise DomainError("spec is not a basic hypergeometric series")
    corr = 1 + len(spec.bottom) - len(spec.top)
    try:
        return kernels.phi_sum(
            spec.top, spec.bottom, spec.base, spec.argument, spec.terms, corr
        )
    except ZeroDivisionError as exc:
        raise SingularParameterError(str(exc)) from None


def eval_W(spec: SeriesSpec) -> complex:
    if spec.family != "W":
        raise DomainError("spec is not a very-well-poised series")
    try:
        return kernels.vwp_sum(
            spec.top[0], spec.top[1:], spec.base, 0j, spec.argument, spec.terms, 0
        )
    except ZeroDivisionError as exc:
        raise SingularParameterError(str(exc)) from None


def eval_V12(spec: SeriesSpec) -> complex:
    if spec.family != "V12":
        raise DomainError("spec is not an elliptic very-well-poised series")
    try:
        return kernels.vwp_sum(
            spec.top[0],
            spec.top[1:],
            spec.base,
            spec.nome,
            spec.argument,
            spec.terms,
            theta_factors(spec.nome),
        )
    except ZeroDivisionError as exc:
        raise SingularParameterError(str(exc)) from None


def series_terms(spec: SeriesSpec) -> Iterator[complex]:
    """Individual terms, each built from scratch with O(k) Pochhammers.

    Deliberately independent of the kernel recurrences; the tests compare
    the two, and the harness uses the largest |term| for normalization.
    """
    n = spec.terms
    if spec.family == "F":
        for k in range(n + 1):
            num = 1.0 + 0.0j
            for t in spec.top:
                num *= scalar.rising_factorial(t, k)
            den = scalar.rising_factorial(1, k)
            for b in spec.bottom:
                den *= scalar.rising_factorial(b, k)
            yield num / den * spec.argument**k
        return
    q = spec.base
    if spec.family == "PHI":
        corr = 1 + len(spec.bottom) - len(spec.top)
        for k in range(n + 1):
            num = scalar.qpochs(q, k, *spec.top)
            den = scalar.q_pochhammer(q, q, k) * scalar.qpochs(q, k, *spec.bottom)
            sign = ((-1) ** k * q ** (k * (k - 1) // 2)) ** corr
            yield num / den * sign * spec.argument**k
        return
    # well-poised families share the term shape
    ctx = make_context(q, spec.nome)
    a = spec.top[0]
    bs = spec.top[1:]
    th_a = scalar.theta(a, ctx)
    for k in range(n + 1):
        num = scalar.theta(a * q ** (2 * k), ctx) / th_a
        num *= scalar.epochs(ctx, k, a, *bs)
        den = scalar.elliptic_pochhammer(q, k, ctx)
        den *= scalar.epochs(ctx, k, *[a * q / b for b in bs])
        yield num / den * spec.argument**k


# -- the quadratic summation of the eighth order ---------------------------


def jackson_rhs(
    a: complex, b: complex, c: complex, xi: complex, N: int, ctx: EllipticContext
) -> complex:
    """Closed product side of the terminating well-poised summation.

    (c b, c/b, a xi, a/xi; q, p)_N / (a b, a/b, c xi, c/xi; q, p)_N
    """
    num = scalar.epochs(ctx, N, c * b, c / b, a * xi, a / xi)
    den = scalar.epochs(ctx, N, a * b, a / b, c * xi, c / xi)
    if abs(den) < 1e-250:
        raise SingularParameterError("product side denominator vanishes")
    return num / den


def jackson_spec(
    a: complex, b: complex, c: complex, xi: complex, N: int, ctx: EllipticContext
) -> SeriesSpec:
    """Series side as a V12 spec.

    The natural series here has five free parameters; it embeds into the
    twelve-over-eleven frame by appending a pair (f, alpha*q/f) whose
    numerator and denominator contributions cancel term by term.  Any f
    clear of theta zeros works; a few fixed candidates are tried.
    """
    q = ctx.q
    alpha = q ** (-N) * b / c
    core = (q ** (1 - N) / (a * c), a / c, b * xi, b / xi)
    for f in (1.37 * 1j**0.5, 0.73 - 0.41j, 1.9 + 0.3j):
        pair = (f, alpha * q / f)
        ok = all(
            abs(scalar.theta(v * q**j, ctx)) > 1e-6
            for v in pair
            for j in range(N + 1)
        )
        if ok:
            return v12_spec(alpha, (*core, *pair, q ** (-N)), q, ctx.p, N)
    raise SingularParameterError("no regular filler pair found")
