"""Theta-coefficient difference operators acting on the twisted monomials.

The operator

    D(a,b,c,d) f(xi) = [ xi^-2 theta(a xi, b xi, c xi, d xi; p) f(q^(1/2) xi)
                       - xi^2 theta(a/xi, b/xi, c/xi, d/xi; p) f(q^(-1/2) xi) ]
                       / ( xi theta(xi^-2; p) )

with a*b*c*d = q^-N preserves the theta-function space spanned by the
products h_k(x; lam) h_{N-k}(x; mu).  On the matched basis it acts
diagonally (the eigenrelation), on any other it acts tridiagonally, and
pairs of such operators form the generalized eigenvalue problem whose
change-of-basis matrices are the connection coefficients.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .basis import BasisPair, expand_by_solve, h_pair_xi, xi_from_x
from .context import EllipticContext, inverse_power
from .errors import DomainError, EvaluationPointError
from . import scalar

#: relative slack for the a*b*c*d = q^-N constraint
CONSTRAINT_RTOL = 1e-8
#: the denominator xi*theta(xi^-2) below this (times scale) is a bad point
DENOM_EPS = 1e-12


@dataclass(frozen=True)
class DiffOpSpec:
    a: complex
    b: complex
    c: complex
    d: complex
    N: int
    ctx: EllipticContext

    def __post_init__(self) -> None:
        if self.N < 0:
            raise DomainError("N must be >= 0")
        target = inverse_power(self.ctx.q, self.N)
        if abs(self.a * self.b * self.c * self.d - target) > CONSTRAINT_RTOL * abs(
            target
        ):
            raise DomainError("need a*b*c*d = q^-N")

    @classmethod
    def three(cls, a: complex, b: complex, c: complex, N: int,
              ctx: EllipticContext) -> "DiffOpSpec":
        """The three-parameter form, with d pinned by the constraint."""
        return cls(a, b, c, inverse_power(ctx.q, N) / (a * b * c), N, ctx)


def apply_delta(op: DiffOpSpec, f, xi: complex) -> complex:
    """Evaluate (D f)(xi).  `f` is a function of xi, not of x."""
    ctx = op.ctx
    if xi == 0:
        raise EvaluationPointError("xi = 0")
    den = xi * scalar.theta(xi ** (-2), ctx)
    up = scalar.thetas(ctx, op.a * xi, op.b * xi, op.c * xi, op.d * xi)
    dn = scalar.thetas(ctx, op.a / xi, op.b / xi, op.c / xi, op.d / xi)
    scale = max(abs(up), abs(dn), 1.0)
    if abs(den) < DENOM_EPS * scale:
        raise EvaluationPointError("xi too close to a zero of theta(xi^-2)")
    num = xi ** (-2) * up * f(ctx.q_half * xi) - xi**2 * dn * f(xi / ctx.q_half)
    return num / den


def _relative_gap(lhs: complex, rhs: complex) -> float:
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-300)


def _sample_points(N: int) -> list:
    n = N + 3
    return [
        (1.18 + 0.07 * (j % 3)) * cmath.exp(2j * cmath.pi * (j + 0.29) / n)
        for j in range(n)
    ]


def eigenrelation_check(
    a: complex, b: complex, c: complex, k: int, N: int, ctx: EllipticContext
) -> float:
    """Max relative residual of the diagonal action on the matched basis.

    D(a,b,c) applied to h_k(x; q^(1/2) a) h_{N-k}(x; q^(1/2) b) must equal
    q^-N/(abc) theta(q^k ac, q^(N-k) bc, q^N ab; p) h_k(x; a) h_{N-k}(x; b).
    """
    if not 0 <= k <= N:
        raise DomainError("need 0 <= k <= N")
    op = DiffOpSpec.three(a, b, c, N, ctx)
    q = ctx.q
    lhs_in = h_pair_xi(ctx.q_half * a, ctx.q_half * b, k, N, ctx)
    rhs_base = h_pair_xi(a, b, k, N, ctx)
    mult = (
        q ** (-N)
        / (a * b * c)
        * scalar.thetas(ctx, q**k * a * c, q ** (N - k) * b * c, q**N * a * b)
    )
    worst = 0.0
    for xi in _sample_points(N):
        lhs = apply_delta(op, lhs_in, xi)
        rhs = mult * rhs_base(xi)
        worst = max(worst, _relative_gap(lhs, rhs))
    return worst


def operator_matrix(
    op: DiffOpSpec, lam: complex, mu: complex, N: int, ctx: EllipticContext
) -> np.ndarray:
    """Matrix of D from basis h_k(x;lam)h_{N-k}(x;mu) to its q^(1/2) shift.

    Column k holds the expansion of D g_k over h_j(x; q^(1/2) lam)
    h_{N-j}(x; q^(1/2) mu); the content away from |j - k| <= 1 is the
    band violation.
    """
    target = BasisPair(ctx.q_half * lam, ctx.q_half * mu, N)

    def image(g):
        return lambda x: apply_delta(op, g, xi_from_x(x))

    images = [image(h_pair_xi(lam, mu, k, N, ctx)) for k in range(N + 1)]
    return expand_by_solve(images, target, ctx).T


def off_band_mass(mat: np.ndarray) -> float:
    """Largest magnitude off the tridiagonal band over its column's scale."""
    n = mat.shape[0]
    worst = 0.0
    for k in range(n):
        col = np.abs(mat[:, k])
        scale = col.max()
        for j in range(n):
            if abs(j - k) > 1:
                worst = max(worst, col[j] / max(scale, 1e-300))
    return worst


@dataclass
class GevpReport:
    eigen_residuals: tuple
    lambdas: tuple


def gevp_check(
    a: complex, b: complex, c: complex, d2: complex, N: int, ctx: EllipticContext
) -> GevpReport:
    """Generalized eigenvalue problem solved by e_k = h_k(x;a)h_{N-k}(x;b).

    D1 e_k = lambda_k D2 e_k with D1, D2 built on the q^(-1/2)-shifted
    (a, b) and third parameters c, d2.  The eigenvalue is the ratio of the
    two diagonal actions:

        lambda_k = (d2/c) theta(q^k a'c, q^(N-k) b'c; p)
                         / theta(q^k a'd2, q^(N-k) b'd2; p),

    with a' = q^(-1/2) a, b' = q^(-1/2) b.
    """
    q = ctx.q
    ap = a / ctx.q_half
    bp = b / ctx.q_half
    op1 = DiffOpSpec.three(ap, bp, c, N, ctx)
    op2 = DiffOpSpec.three(ap, bp, d2, N, ctx)
    pts = _sample_points(N)
    residuals = []
    lambdas = []
    for k in range(N + 1):
        ek = h_pair_xi(a, b, k, N, ctx)
        lam_num = scalar.thetas(ctx, q**k * ap * c, q ** (N - k) * bp * c)
        lam_den = scalar.thetas(ctx, q**k * ap * d2, q ** (N - k) * bp * d2)
        lam = (d2 / c) * lam_num / lam_den
        lambdas.append(lam)
        worst = 0.0
        for xi in pts:
            v1 = apply_delta(op1, ek, xi)
            v2 = apply_delta(op2, ek, xi)
            worst = max(worst, _relative_gap(v1, lam * v2))
        residuals.append(worst)
    return GevpReport(tuple(residuals), tuple(lambdas))

