"""Shift-operator eigenrelations, band structure, and theta identities."""

import numpy as np
import pytest

from conftest import rel
from ellsixj import scalar
from ellsixj.context import make_context
from ellsixj.errors import DomainError, EvaluationPointError
from ellsixj.harness import Level, SampleConfig, Shape, sample_generic
from ellsixj.sklyanin import (
    DiffOpSpec,
    apply_delta,
    eigenrelation_check,
    gevp_check,
    off_band_mass,
    operator_matrix,
)


def _op_data(seed, N, level=Level.TRIG):
    cfg = SampleConfig(seed=seed, N_max=N)
    return sample_generic(cfg, Shape.SKLYANIN, N=N, level=level)


def test_op_spec_constraint():
    ctx = make_context(0.45)
    with pytest.raises(DomainError):
        DiffOpSpec(1.0, 1.1, 0.9, 1.2, 2, ctx)
    op = DiffOpSpec.three(1.1, 0.8, 1.3, 2, ctx)
    assert abs(op.a * op.b * op.c * op.d - ctx.q**-2) < 1e-10


def test_apply_delta_rejects_fixed_points():
    a, b, c, d, N, ctx = _op_data(61, 2)
    op = DiffOpSpec(a, b, c, d, N, ctx)
    with pytest.raises(EvaluationPointError):
        apply_delta(op, lambda z: 1.0, 1.0)
    with pytest.raises(EvaluationPointError):
        apply_delta(op, lambda z: 1.0, -1.0)


@pytest.mark.parametrize("level", [Level.TRIG, Level.ELLIPTIC])
def test_matched_basis_diagonalizes_the_operator(level):
    a, b, c, d, N, ctx = _op_data(62, 3, level)
    for k in range(N + 1):
        assert eigenrelation_check(a, b, c, k, N, ctx) < 1e-9


@pytest.mark.parametrize("level", [Level.TRIG, Level.ELLIPTIC])
def test_operator_matrix_is_banded(level):
    a, b, c, d, N, ctx = _op_data(63, 3, level)
    lam, mu = 0.93 + 0.37j, 1.21 - 0.29j
    op = DiffOpSpec(a, b, c, d, N, ctx)
    mat = operator_matrix(op, lam, mu, N, ctx)
    assert off_band_mass(mat) < 1e-9


def test_off_band_mass_semantics():
    banded = np.array([[1.0, 2.0, 0.0], [1.0, 1.0, 1.0], [0.0, 3.0, 1.0]])
    assert off_band_mass(banded) == 0.0
    spiked = np.array(banded, copy=True)
    spiked[0, 2] = 5.0
    assert off_band_mass(spiked) == 1.0


@pytest.mark.parametrize("level", [Level.TRIG, Level.ELLIPTIC])
def test_generalized_eigenvalue_pair(level):
    a, b, c, d, N, ctx = _op_data(64, 3, level)
    d2 = 1.07 - 0.23j
    rep = gevp_check(a, b, c, d2, N, ctx)
    assert max(rep.eigen_residuals) < 1e-9
    assert len(rep.lambdas) == N + 1


def test_gevp_equal_operators_have_unit_eigenvalues():
    a, b, c, d, N, ctx = _op_data(65, 2)
    rep = gevp_check(a, b, c, c, N, ctx)
    for lam in rep.lambdas:
        assert rel(lam, 1.0) < 1e-12


# -- theta identities --------------------------------------------------------
# Reference oracles for the classical identities the operator facts rest on.


def pfl_residual(a_list, b_list, xi, ctx):
    """Relative residual of the partial-fraction theta identity at xi.

    a_list has n entries and b_list n + 2, with prod(a) * prod(b) = 1.
    """
    if len(b_list) != len(a_list) + 2:
        raise DomainError("need two more b's than a's")
    prod = 1.0 + 0j
    for v in (*a_list, *b_list):
        prod *= v
    if abs(prod - 1) > 1e-8:
        raise DomainError("need prod(a) * prod(b) = 1")
    n = len(a_list)
    lhs = xi ** (-n - 1)
    for v in (*a_list, *b_list):
        lhs *= scalar.theta(v * xi, ctx)
    down = xi ** (n + 1)
    for v in (*a_list, *b_list):
        down *= scalar.theta(v / xi, ctx)
    lhs -= down
    prod_a = 1.0 + 0j
    for v in a_list:
        prod_a *= v
    rhs = 0j
    for k in range(n):
        term = 1.0 + 0j
        for bj in b_list:
            term *= scalar.theta(a_list[k] * bj, ctx)
        for j in range(n):
            if j != k:
                term *= scalar.thetas(ctx, a_list[j] * xi, a_list[j] / xi)
                term /= scalar.theta(a_list[k] / a_list[j], ctx)
        rhs += term
    rhs *= (-1) ** n * xi * scalar.theta(xi ** (-2), ctx) / prod_a
    return rel(lhs, rhs)


def riemann_residual(u, v, x, y, ctx):
    """Relative residual of the three-term theta addition formula."""
    lhs = v / x * scalar.thetas(ctx, x * y, x / y, u * v, u / v)
    rhs = scalar.thetas(ctx, u * x, u / x, v * y, v / y) - scalar.thetas(
        ctx, u * y, u / y, v * x, v / x
    )
    return rel(lhs, rhs)


def tadd_residual(u, v, x, y):
    """The three-term addition at nome zero, in plain 1 - z factors.

    Independent of the theta code, so it is a reference for the trig level.
    """
    lhs = v / x * (1 - x * y) * (1 - x / y) * (1 - u * v) * (1 - u / v)
    rhs = (1 - u * x) * (1 - u / x) * (1 - v * y) * (1 - v / y) - (
        1 - u * y
    ) * (1 - u / y) * (1 - v * x) * (1 - v / x)
    return rel(lhs, rhs)


def test_theta_identity_pfl():
    ctx = make_context(0.41, p=0.17)
    rng = np.random.default_rng(67)
    for n in range(1, 5):
        vals = [
            complex(rng.uniform(0.6, 1.4) * np.exp(1j * rng.uniform(0, 6.28)))
            for _ in range(2 * n + 1)
        ]
        a_list = vals[:n]
        b_list = vals[n:]
        prod = np.prod(a_list) * np.prod(b_list)
        b_list.append(1.0 / prod)
        res = pfl_residual(a_list, b_list, 1.19 + 0.23j, ctx)
        assert res < 1e-10


def test_theta_identity_pfl_validation():
    ctx = make_context(0.41, p=0.1)
    with pytest.raises(DomainError):
        pfl_residual([1.1], [0.9, 1.0 / 0.99], 1.2, ctx)
    with pytest.raises(DomainError):
        pfl_residual([1.1], [0.9, 0.8, 0.7], 1.2, ctx)


def test_theta_identity_three_term_and_its_trig_shadow():
    ctx = make_context(0.41, p=0.17)
    uvxy = (1.13 + 0.21j, 0.87 - 0.34j, 1.31 + 0.12j, 0.74 + 0.45j)
    assert riemann_residual(*uvxy, ctx) < 1e-12
    assert tadd_residual(*uvxy) < 1e-12


def test_theta_identity_leonard_band():
    ctx = make_context(0.43)
    a, b, c, d, N, _ = _op_data(68, 2)
    op = DiffOpSpec.three(a, b, c, N, ctx)
    res = off_band_mass(operator_matrix(op, 0.93 + 0.37j, 1.21 - 0.29j, N, ctx))
    assert res < 1e-9
