"""Evaluation context shared by every level of the hierarchy.

A context bundles the base q, a fixed square root of q (several operators
shift arguments by half a q-power, and the branch must be chosen once and
used consistently) and the elliptic nome p, which fixes the length of the
truncated theta products.  p == 0 recovers the trigonometric level exactly.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

from .errors import DomainError

#: truncation target for theta tails
THETA_EPS = 1e-16
#: relative tolerance of the q_half**2 == q check
DEFAULT_TOL = 1e-9


def _finite(z: complex) -> bool:
    return math.isfinite(z.real) and math.isfinite(z.imag)


@dataclass(frozen=True)
class EllipticContext:
    q: complex
    q_half: complex
    p: complex = 0j
    # number of factor pairs kept in truncated theta products; derived
    theta_factors: int = field(init=False, default=0)

    def __post_init__(self) -> None:
        q, qh, p = complex(self.q), complex(self.q_half), complex(self.p)
        if not (_finite(q) and _finite(qh) and _finite(p)):
            raise DomainError("context parameters must be finite")
        if q == 0:
            raise DomainError("q = 0 is outside the supported regime")
        if abs(qh * qh - q) > DEFAULT_TOL * abs(q):
            raise DomainError("q_half**2 does not match q")
        if abs(p) >= 1:
            raise DomainError("the nome must satisfy |p| < 1")
        nfac = 0
        if p != 0:
            # |p|^J <= THETA_EPS with two guard factors
            nfac = math.ceil(math.log(THETA_EPS) / math.log(abs(p))) + 2
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "q_half", qh)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "theta_factors", nfac)

    @property
    def trigonometric(self) -> bool:
        return self.p == 0

    def with_nome(self, p: complex) -> "EllipticContext":
        return EllipticContext(self.q, self.q_half, p)

    def inverse_base(self) -> "EllipticContext":
        """Context for the same nome with q replaced by 1/q."""
        return EllipticContext(1 / self.q, 1 / self.q_half, self.p)


def make_context(q: complex, p: complex = 0j) -> EllipticContext:
    """Build a context with q_half the principal square root of q."""
    return EllipticContext(q, cmath.sqrt(q), p)
