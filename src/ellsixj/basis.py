"""Twisted monomials, basis validity, and the collocation oracle.

The objects of interest are products

    h_k(x; a) = (a xi; q, p)_k (a / xi; q, p)_k,    xi + 1/xi = x,

which are symmetric in xi <-> 1/xi, and two-sided bases

    { h_l(x; c) h_{N-l}(x; d) }_{l=0..N}.

`expand_by_solve` expands a batch of functions in such a basis by dense
collocation, filling one collocation matrix for the whole batch; it is the
definition-level oracle every closed formula in `sixj` is checked against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .context import EllipticContext
from .errors import DomainError, IllConditionedError
from . import scalar

#: genericity tolerance: relative distance from a lattice point below which
#: a parameter counts as resonant; the routes' validity tests and the
#: harness's sampler share it, so the sampler draws only what the routes accept
GEN_DELTA = 1e-5
#: half-width of the nome-power window for elliptic resonance tests
M_MAX = 3
#: default collocation radius (|xi| of the sample points)
DEFAULT_RADIUS = 1.3
#: condition-number ceiling before the points are resampled
COND_LIMIT = 1e10


def xi_from_x(x: complex) -> complex:
    """The root of xi^2 - x xi + 1 = 0 with |xi| >= 1."""
    x = complex(x)
    if not (math.isfinite(x.real) and math.isfinite(x.imag)):
        raise DomainError("non-finite point")
    s = cmath.sqrt(x * x - 4.0)
    r1 = (x + s) / 2.0
    r2 = (x - s) / 2.0
    return r1 if abs(r1) >= abs(r2) else r2


@dataclass(frozen=True)
class BasisPair:
    c: complex
    d: complex
    N: int


def _h_xi(xi: complex, a: complex, k: int, ctx: EllipticContext) -> complex:
    """h_k(x; a) at x = xi + 1/xi."""
    return scalar.elliptic_pochhammer(a * xi, k, ctx) * scalar.elliptic_pochhammer(
        a / xi, k, ctx
    )


def h_value(x: complex, a: complex, k: int, ctx: EllipticContext) -> complex:
    """h_k(x; a), evaluated through either root of xi + 1/xi = x."""
    return _h_xi(xi_from_x(x), a, k, ctx)


def h_pair_xi(
    a: complex, b: complex, k: int, N: int, ctx: EllipticContext
) -> Callable[[complex], complex]:
    """xi -> h_k(x; a) h_{N-k}(x; b) at x = xi + 1/xi."""

    return lambda xi: _h_xi(xi, a, k, ctx) * _h_xi(xi, b, N - k, ctx)


def h_pair_fn(
    a: complex, b: complex, k: int, N: int, ctx: EllipticContext
) -> Callable[[complex], complex]:
    """x -> h_k(x; a) h_{N-k}(x; b)."""
    g = h_pair_xi(a, b, k, N, ctx)
    return lambda x: g(xi_from_x(x))


# -- validity --------------------------------------------------------------


@dataclass(frozen=True)
class BasisCheck:
    valid: bool
    condition: str | None = None
    detail: str = ""

    def __bool__(self) -> bool:
        return self.valid


def _near_lattice(
    value: complex, q: complex, exponents: range, p: complex
) -> int | None:
    """Smallest exponent j with value ~ q^j (times a nome power), else None."""
    # nome shifts only matter for a nome of sane size; p^-m overflows below it
    ms = range(-M_MAX, M_MAX + 1) if abs(p) > 1e-30 else range(0, 1)
    for j in exponents:
        target = q**j
        for m in ms:
            t = target * p**m if m else target
            if abs(value - t) <= GEN_DELTA * max(abs(t), 1e-30):
                return j
    return None


def basis_valid(pair: BasisPair, ctx: EllipticContext) -> BasisCheck:
    """Test the pair against the three degeneration conditions.

    c1: c/d on the lattice q^{1-N}, ..., q^{N-1}  (nome-shifted when p != 0)
    c2: c*d on the lattice q^{1-N}, ..., q^0
    c3: c = d = 0
    """
    c, d, N = pair.c, pair.d, pair.N
    if abs(c) < 1e-30 and abs(d) < 1e-30:
        return BasisCheck(False, "c3", "both parameters vanish")
    if ctx.p != 0 and (c == 0 or d == 0):
        return BasisCheck(False, "c3", "zero parameter at elliptic level")
    if c != 0 and d != 0:
        j = _near_lattice(c / d, ctx.q, range(1 - N, N), ctx.p)
        if j is not None:
            return BasisCheck(False, "c1", f"c/d within {GEN_DELTA} of q^{j}")
    j = _near_lattice(c * d, ctx.q, range(1 - N, 1), ctx.p)
    if j is not None:
        return BasisCheck(False, "c2", f"c*d within {GEN_DELTA} of q^{j}")
    return BasisCheck(True)


# -- collocation -----------------------------------------------------------


def collocation_points(N: int, radius: float = DEFAULT_RADIUS, phase: float = 0.37):
    """N+1 xi-values fanned over the upper half circle of given radius.

    The fractional phase keeps the set clear of xi = +-1 (where x'(xi)=0)
    and of complex-conjugate collisions.
    """
    return [
        radius * cmath.exp(1j * math.pi * (j + phase) / (N + 1)) for j in range(N + 1)
    ]


def solve_in_basis(
    fs: Sequence[Callable[[complex], complex]],
    basis_fns: Sequence[Callable[[complex], complex]],
    points: Sequence[complex],
) -> tuple[np.ndarray, float]:
    """Solve sum_l lam_l basis_l(x_j) = f(x_j) for every f in fs.

    Returns (lam, cond), lam holding one row per f.  The matrix and its
    condition number are built once for the batch.  Each right-hand side
    gets its own dense solve with partial pivoting plus one step of
    iterative refinement, which is enough at these sizes to push the
    forward error to the order of the condition number times machine
    epsilon; one multi-column solve would round differently.
    """
    n = len(basis_fns)
    if len(points) != n:
        raise DomainError("need exactly one point per basis function")
    A = np.array([[g(x) for g in basis_fns] for x in points], dtype=complex)
    rhs = np.array([[f(x) for x in points] for f in fs], dtype=complex)
    if not (np.isfinite(A).all() and np.isfinite(rhs).all()):
        raise DomainError("non-finite collocation system")
    cond = float(np.linalg.cond(A))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise IllConditionedError(f"collocation matrix condition {cond:.3e}")
    lam = np.empty((len(fs), n), dtype=complex)
    for i, b in enumerate(rhs):
        lam[i] = np.linalg.solve(A, b)
        lam[i] += np.linalg.solve(A, b - A @ lam[i])
    return lam, cond


def expand_by_solve(
    fs: Sequence[Callable[[complex], complex]],
    pair: BasisPair,
    ctx: EllipticContext,
) -> np.ndarray:
    """Coefficients of each f in fs in the pair basis, one row per f.

    All functions share one collocation matrix.  On ill-conditioning the
    radius is perturbed and the points resampled, up to five attempts.
    Points are xi-values; the basis is evaluated at x = xi + 1/xi.
    """
    check = basis_valid(pair, ctx)
    if not check:
        raise DomainError(f"degenerate basis ({check.condition}): {check.detail}")
    N = pair.N
    fns = [h_pair_fn(pair.c, pair.d, l, N, ctx) for l in range(N + 1)]
    last: Exception | None = None
    for attempt, scale in enumerate((1.0, 1.12, 0.91, 1.27, 0.78)):
        xis = collocation_points(N, DEFAULT_RADIUS * scale, 0.37 + 0.11 * attempt)
        try:
            lam, _ = solve_in_basis(fs, fns, [xi + 1.0 / xi for xi in xis])
            return lam
        except IllConditionedError as exc:
            last = exc
    raise IllConditionedError(f"collocation failed after resampling: {last}")


def expansion_residual(
    f: Callable[[complex], complex],
    coeffs: Sequence[complex],
    pair: BasisPair,
    ctx: EllipticContext,
) -> float:
    """Relative max-residual of an expansion at held-out check points."""
    N = pair.N
    fns = [h_pair_fn(pair.c, pair.d, l, N, ctx) for l in range(N + 1)]
    pts = [xi + 1.0 / xi for xi in collocation_points(2 * N + 1, 1.45, 0.61)]
    worst = 0.0
    scale = 0.0
    for x in pts:
        fx = f(x)
        approx = sum(lam * g(x) for lam, g in zip(coeffs, fns))
        worst = max(worst, abs(fx - approx))
        scale = max(scale, abs(fx), 1e-300)
    return worst / max(scale, 1e-300)

