"""Twisted monomials and the collocation expansion oracle."""

import cmath
import math

import numpy as np
import pytest

from conftest import rel
from ellsixj import scalar
from ellsixj.basis import (
    BasisPair,
    basis_valid,
    collocation_points,
    expand_by_solve,
    expansion_residual,
    h_pair_fn,
    h_value,
    solve_in_basis,
    xi_from_x,
)
from ellsixj.errors import DomainError, IllConditionedError


def test_xi_from_x_inverts_the_joukowski_map():
    rng = np.random.default_rng(21)
    for _ in range(25):
        x = complex(rng.normal(), rng.normal()) * 1.5
        xi = xi_from_x(x)
        assert abs(xi + 1 / xi - x) < 1e-12 * max(1.0, abs(x))
        assert abs(xi) >= 1 - 1e-12
    with pytest.raises(DomainError):
        xi_from_x(complex("inf"))


def test_h_value_is_root_symmetric(ell_ctx):
    # the same x reached through xi or 1/xi gives the same value
    a = 0.83 + 0.41j
    for k in (0, 1, 3):
        for xi in (1.4 * cmath.exp(0.7j), 0.6 * cmath.exp(-1.1j)):
            x = xi + 1 / xi
            direct = scalar.elliptic_pochhammer(
                a * xi, k, ell_ctx
            ) * scalar.elliptic_pochhammer(a / xi, k, ell_ctx)
            assert rel(h_value(x, a, k, ell_ctx), direct) < 1e-12
    assert h_value(0.7 + 0.2j, a, 0, ell_ctx) == 1


def test_basis_valid_degenerations(trig_ctx, ell_ctx):
    q = trig_ctx.q
    ok = basis_valid(BasisPair(0.9 + 0.4j, 1.3 - 0.2j, 3), trig_ctx)
    assert ok and ok.condition is None

    c1 = basis_valid(BasisPair(1.1 * q**2, 1.1, 3), trig_ctx)
    assert not c1 and c1.condition == "c1"

    c2 = basis_valid(BasisPair(0.9 / q, 1 / 0.9, 3), trig_ctx)  # c*d = q^-1
    assert not c2 and c2.condition == "c2"

    c3 = basis_valid(BasisPair(0.0, 0.0, 2), trig_ctx)
    assert not c3 and c3.condition == "c3"

    # a single zero parameter is fine without a nome, fatal with one
    assert basis_valid(BasisPair(0.0, 1.2, 2), trig_ctx)
    assert not basis_valid(BasisPair(0.0, 1.2, 2), ell_ctx)

    # nome-shifted resonance: c/d = q^2 p
    shifted = basis_valid(BasisPair(1.1 * q**2 * ell_ctx.p, 1.1, 3), ell_ctx)
    assert not shifted and shifted.condition == "c1"


def test_expand_by_solve_round_trip(ell_ctx):
    N = 4
    pair = BasisPair(0.87 + 0.52j, 1.31 - 0.24j, N)
    rng = np.random.default_rng(22)
    lam = rng.normal(size=N + 1) + 1j * rng.normal(size=N + 1)
    fns = [h_pair_fn(pair.c, pair.d, l, N, ell_ctx) for l in range(N + 1)]

    def f(x):
        return sum(w * g(x) for w, g in zip(lam, fns))

    got = expand_by_solve([f], pair, ell_ctx)[0]
    assert rel(got, lam) < 1e-10
    assert expansion_residual(f, got, pair, ell_ctx) < 1e-10


def test_expand_rejects_degenerate_basis(trig_ctx):
    pair = BasisPair(1.3 * trig_ctx.q, 1.3, 2)
    with pytest.raises(DomainError):
        expand_by_solve([lambda x: x], pair, trig_ctx)


def test_collocation_points_clear_of_branch_points():
    pts = collocation_points(6)
    assert len(pts) == 7
    assert all(abs(abs(z) - 1.3) < 1e-12 for z in pts)
    xs = [z + 1 / z for z in pts]
    # x'(xi) = 0 at xi = +-1, i.e. x = +-2
    assert all(abs(x - 2) > 1e-3 and abs(x + 2) > 1e-3 for x in xs)
    for i in range(len(xs)):
        for j in range(i + 1, len(xs)):
            assert abs(xs[i] - xs[j]) > 1e-6


def test_solve_in_basis_contracts():
    with pytest.raises(DomainError):
        solve_in_basis([lambda x: x], [lambda x: 1.0, lambda x: x], [2.1])
    with pytest.raises(IllConditionedError):
        solve_in_basis(
            [lambda x: x],
            [lambda x: 1.0 + 0j, lambda x: 1.0 + 0j],
            [0.3, 0.9],
        )
    # a non-finite system is rejected before the SVD sees it
    for fs, fns in (
        ([lambda x: x], [lambda x: 1.0, lambda x: math.inf * x]),
        ([lambda x: math.nan], [lambda x: 1.0, lambda x: x]),
    ):
        with pytest.raises(DomainError, match="non-finite collocation system"):
            solve_in_basis(fs, fns, [0.3, 0.9])


def test_batched_rows_match_single_solves(ell_ctx):
    # one shared matrix must give each row exactly what its own solve gives
    N = 4
    pair = BasisPair(0.87 + 0.52j, 1.31 - 0.24j, N)
    fs = [h_pair_fn(1.1 - 0.3j, 0.7 + 0.2j, k, N, ell_ctx) for k in range(N + 1)]
    batch = expand_by_solve(fs, pair, ell_ctx)
    assert batch.shape == (N + 1, N + 1)
    for k, f in enumerate(fs):
        assert np.array_equal(batch[k], expand_by_solve([f], pair, ell_ctx)[0])


def wn_membership(f, N, ctx):
    """Max relative residual of the two defining symmetries of the space.

    f(xi) = f(1/xi)  and, for p != 0,  f(p xi) = (p xi^2)^{-N} f(xi).
    The input is a function of xi (not of x).
    """
    worst = 0.0
    for j in range(8):
        xi = (1.15 + 0.09 * (j % 3)) * cmath.exp(2j * math.pi * (j + 0.23) / 8)
        fx = f(xi)
        finv = f(1.0 / xi)
        scale = max(abs(fx), abs(finv), 1e-300)
        worst = max(worst, abs(fx - finv) / scale)
        if ctx.p != 0:
            fp = f(ctx.p * xi)
            ref = (ctx.p * xi * xi) ** (-N) * fx
            scale = max(abs(fp), abs(ref), 1e-300)
            worst = max(worst, abs(fp - ref) / scale)
    return worst


def test_wn_membership(ell_ctx):
    N = 3
    a, b = 0.91 + 0.33j, 1.22 - 0.41j

    def f(xi):
        x = xi + 1 / xi
        return h_value(x, a, 1, ell_ctx) * h_value(x, b, N - 1, ell_ctx)

    assert wn_membership(f, N, ell_ctx) < 1e-9
    # a bare power violates the xi <-> 1/xi symmetry
    assert wn_membership(lambda xi: xi**2, N, ell_ctx) > 1e-2
