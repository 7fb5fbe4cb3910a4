"""Product-side scalars: shifted factorials, theta, Gaussian binomials."""

import math
from fractions import Fraction

import numpy as np
import pytest

import ellsixj
from conftest import rel
from ellsixj import backend, scalar
from ellsixj.context import EllipticContext, make_context
from ellsixj.errors import DomainError, SingularParameterError
from ellsixj.series import eval_V12, jackson_spec


def _rng(seed):
    return np.random.default_rng(seed)


def _cnum(rng, lo=0.4, hi=1.8):
    r = rng.uniform(lo, hi)
    t = rng.uniform(0, 2 * math.pi)
    return complex(r * math.cos(t), r * math.sin(t))


def test_q_pochhammer_matches_direct_product():
    rng = _rng(1)
    for _ in range(25):
        a, q = _cnum(rng), _cnum(rng, 0.2, 0.8)
        k = int(rng.integers(0, 9))
        want = 1.0 + 0j
        for j in range(k):
            want *= 1 - a * q**j
        assert rel(scalar.q_pochhammer(a, q, k), want) < 1e-13


def test_q_pochhammer_empty():
    assert scalar.q_pochhammer(2.3 + 1j, 0.4, 0) == 1


def test_q_pochhammer_negative_reflects():
    # (a; q)_{-k} (a q^{-k}; q)_k == 1
    rng = _rng(2)
    for _ in range(20):
        a, q = _cnum(rng), _cnum(rng, 0.2, 0.8)
        k = int(rng.integers(1, 6))
        got = scalar.q_pochhammer(a, q, -k) * scalar.q_pochhammer(a * q**-k, q, k)
        assert rel(got, 1.0) < 1e-12


def test_q_pochhammer_negative_singular():
    q = 0.37
    with pytest.raises(SingularParameterError):
        scalar.q_pochhammer(q**2, q, -2)


def test_rising_factorial():
    rng = _rng(3)
    for _ in range(20):
        a = _cnum(rng)
        k = int(rng.integers(0, 7))
        want = 1.0 + 0j
        for j in range(k):
            want *= a + j
        assert rel(scalar.rising_factorial(a, k), want) < 1e-13
    assert scalar.rising_factorial(1.0, 6) == pytest.approx(math.factorial(6))


def _gauss_exact(N, k, q):
    if k < 0 or k > N:
        return Fraction(0)
    if k == 0 or k == N:
        return Fraction(1)
    return _gauss_exact(N - 1, k - 1, q) + q**k * _gauss_exact(N - 1, k, q)


def test_q_binomial_against_pascal_recursion():
    q = Fraction(2, 5)
    for N in range(9):
        for k in range(N + 1):
            want = complex(_gauss_exact(N, k, q))
            assert rel(scalar.q_binomial(N, k, float(q)), want) < 1e-12


def test_q_binomial_symmetry_and_classical_limit():
    q = 0.31 + 0.17j
    for N in range(1, 8):
        for k in range(N + 1):
            assert rel(
                scalar.q_binomial(N, k, q), scalar.q_binomial(N, N - k, q)
            ) < 1e-12
    assert abs(scalar.q_binomial(7, 3, 1 - 1e-9) - math.comb(7, 3)) < 1e-4


def _theta_ref(x, p, J=220):
    out = 1.0 + 0j
    for j in range(J):
        out *= (1 - x * p**j) * (1 - p ** (j + 1) / x)
    return out


def test_theta_trig_is_linear(trig_ctx):
    rng = _rng(5)
    for _ in range(10):
        x = _cnum(rng)
        assert scalar.theta(x, trig_ctx) == 1 - x


def test_theta_matches_reference_product():
    rng = _rng(6)
    ctx = make_context(0.5, p=0.29)
    for _ in range(20):
        x = _cnum(rng, 0.3, 2.5)
        assert rel(scalar.theta(x, ctx), _theta_ref(x, 0.29)) < 1e-12


def test_theta_inversion_and_nome_shift():
    # theta(1/x) = theta(p x) = -theta(x) / x
    rng = _rng(7)
    ctx = make_context(0.5, p=0.23)
    for _ in range(15):
        x = _cnum(rng, 0.3, 2.2)
        t = scalar.theta(x, ctx)
        assert rel(scalar.theta(1 / x, ctx), -t / x) < 1e-11
        assert rel(scalar.theta(ctx.p * x, ctx), -t / x) < 1e-11


def test_elliptic_pochhammer_is_theta_product():
    rng = _rng(8)
    ctx = make_context(0.45, p=0.2)
    for _ in range(15):
        a = _cnum(rng)
        k = int(rng.integers(0, 7))
        want = 1.0 + 0j
        for j in range(k):
            want *= scalar.theta(a * ctx.q**j, ctx)
        assert rel(scalar.elliptic_pochhammer(a, k, ctx), want) < 1e-12


def test_elliptic_pochhammer_negative_index():
    # (a; q, p)_{-k} (a q^{-k}; q, p)_k == 1, and a vanishing inverted factor
    # raises: at a = q^2, k = -3 the factors are theta(q^-1) theta(1) theta(q)
    ctx = make_context(0.45, p=0.2)
    a = 0.8 + 0.35j
    got = scalar.elliptic_pochhammer(a, -3, ctx) * scalar.elliptic_pochhammer(
        a * ctx.q**-3, 3, ctx
    )
    assert rel(got, 1.0) < 1e-12
    with pytest.raises(SingularParameterError):
        scalar.elliptic_pochhammer(ctx.q**2, -3, ctx)


def test_multi_argument_wrappers():
    ctx = make_context(0.41, p=0.12)
    args = (0.7 + 0.3j, 1.4 - 0.2j, 0.9 + 0.9j)
    want = 1.0 + 0j
    for v in args:
        want *= scalar.theta(v, ctx)
    assert rel(scalar.thetas(ctx, *args), want) < 1e-13
    want = 1.0 + 0j
    for v in args:
        want *= scalar.elliptic_pochhammer(v, 3, ctx)
    assert rel(scalar.epochs(ctx, 3, *args), want) < 1e-13
    want = 1.0 + 0j
    for v in args:
        want *= scalar.q_pochhammer(v, ctx.q, 3)
    assert rel(scalar.qpochs(ctx.q, 3, *args), want) < 1e-13


def test_non_finite_input_rejected():
    ctx = make_context(0.4)
    with pytest.raises(DomainError):
        scalar.theta(complex("nan"), ctx)


class TestContext:
    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            make_context(0.0)
        with pytest.raises(DomainError):
            make_context(0.4, p=1.0)
        with pytest.raises(DomainError):
            EllipticContext(0.4, 0.9)

    def test_nome_and_inverse_base(self):
        ctx = make_context(0.36, p=0.1)
        assert ctx.with_nome(0j).trigonometric
        assert not ctx.trigonometric
        inv = ctx.inverse_base()
        assert rel(inv.q, 1 / ctx.q) < 1e-15
        assert rel(inv.q_half * inv.q_half, inv.q) < 1e-12


def test_kernels_are_called_through_the_backend_module(monkeypatch, ell_ctx):
    # perfbench keys its results on BACKEND and counts kernel calls by
    # replacing the attributes of backend.kernels
    assert ellsixj.BACKEND == "python"
    for name in ("theta", "qpoch", "epoch", "vwp_sum", "phi_sum", "f_sum"):
        assert callable(getattr(backend.kernels, name))
    calls = []
    inner = backend.kernels.theta

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(backend.kernels, "theta", counted)
    scalar.theta(0.7 + 0.2j, ell_ctx)
    assert len(calls) == 1
    spec = jackson_spec(1.21 + 0.33j, 0.77 - 0.41j, 1.63 + 0.12j, 0.91 + 0.54j, 3, ell_ctx)
    calls.clear()
    eval_V12(spec, ell_ctx)
    assert calls
