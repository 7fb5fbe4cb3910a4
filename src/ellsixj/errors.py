"""Exception hierarchy.

Everything raised deliberately by this package derives from SixjError, so
callers can catch one type at the boundary (the CLI does).
"""


class SixjError(Exception):
    """Base class for all package errors."""


class DomainError(SixjError, ValueError):
    """Input outside the mathematical domain of an operation."""


class SingularParameterError(SixjError, ValueError):
    """A parameter combination makes a denominator vanish (resonance)."""


class BalancingError(SixjError, ValueError):
    """A series spec violates its balancing constraint."""


class IllConditionedError(SixjError, RuntimeError):
    """A collocation system is too ill-conditioned to trust."""


class SamplingError(SixjError, RuntimeError):
    """The rejection sampler failed to find generic parameters."""


class EvaluationPointError(SixjError, ValueError):
    """An evaluation point sits on (or too near) a removable singularity."""
