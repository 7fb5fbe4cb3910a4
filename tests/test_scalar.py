"""Product-side scalars: shifted factorials, theta, Gaussian binomials."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

import ellsixj
from conftest import rel
from ellsixj import backend, scalar
from ellsixj.context import EllipticContext, make_context, theta_factors
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
        assert ctx.with_nome(0j) == make_context(0.36)
        inv = ctx.inverse_base()
        assert rel(inv.q, 1 / ctx.q) < 1e-15
        assert rel(inv.q_half * inv.q_half, inv.q) < 1e-12


def test_kernels_are_called_through_the_backend_module(monkeypatch, ell_ctx):
    # perfbench keys its results on BACKEND and counts kernel calls by
    # replacing the attributes of backend.kernels
    assert ellsixj.BACKEND == "python"
    for name in ("theta", "thetas", "qpoch", "epoch", "vwp_sum", "phi_sum", "f_sum"):
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
    eval_V12(spec)
    assert calls


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ZeroDivisionError as exc:
        return f"error: {exc}"


def _bits(values) -> bytes:
    """The exact bits of complex values, signed zeros and NaNs included."""
    return np.array(values, dtype=complex).tobytes()


def _theta_args(rng, n: int) -> list:
    """Python complex arguments, |x| log-uniform on [1e-12, 1e12]; every
    fifth on an axis, so both branches of the complex division and signed
    zero parts come up."""
    xs = []
    for i in range(n):
        r = 10.0 ** rng.uniform(-12, 12)
        t = rng.uniform(0, 2 * math.pi)
        x = complex(r * math.cos(t), r * math.sin(t))
        if i % 5 == 3:
            x = complex(x.real, -0.0 if i % 2 else 0.0)
        elif i % 5 == 4:
            x = complex(-0.0 if i % 2 else 0.0, x.imag)
        xs.append(x)
    return xs


@pytest.mark.parametrize("p", [0, 1e-300, 0.05, 0.17 + 0.02j, 0.3, 0.29 - 0.1j])
def test_theta_batch_is_the_scalar_kernel_bit_for_bit(p):
    # numpy scalars round differently in the scalar kernel too, so the
    # arguments are Python complex numbers, as every caller passes them
    kernels = backend.kernels
    p = complex(p)
    nfac = theta_factors(p)
    rng = _rng(41)
    cut = kernels.THETA_BATCH
    for n in (0, 1, cut - 1, cut, cut + 1, 3 * cut + 5):
        xs = _theta_args(rng, n)
        got = kernels.thetas(xs, p, nfac)
        assert isinstance(got, list) and len(got) == n
        assert _bits(got) == _bits([kernels.theta(x, p, nfac) for x in xs]), n
    # values that overflow come out as the scalar kernel's infinities and NaNs,
    # because the array arithmetic is the same IEEE operations in the same order
    xs = [x * 1e200 for x in _theta_args(rng, 2 * cut)]
    want = [kernels.theta(x, p, nfac) for x in xs]
    assert _bits(kernels.thetas(xs, p, nfac)) == _bits(want)


def test_theta_batch_raises_on_a_zero_argument_as_the_scalar_kernel():
    kernels = backend.kernels
    nfac = theta_factors(0.2)
    for n in (3, 2 * kernels.THETA_BATCH):
        xs = _theta_args(_rng(43), n)
        xs[n // 2] = 0j
        with pytest.raises(ZeroDivisionError, match="^complex division by zero$"):
            kernels.thetas(xs, 0.2 + 0j, nfac)
    # theta(0; 0) = 1
    many = kernels.THETA_BATCH
    assert kernels.thetas([0j] * many, 0j, 0) == [1.0 + 0j] * many


def _quot(x: complex, promoted: bool) -> complex:
    """1.0 / x in Python floats: as (1 + 0j) / x with `_Py_c_quot`'s
    formulas, or with C99's real-over-complex ones, which drop the zero's
    terms."""
    if abs(x.real) >= abs(x.imag):
        r = x.imag / x.real
        d = x.real + x.imag * r
        if promoted:
            return complex((1.0 + 0.0 * r) / d, (0.0 - 1.0 * r) / d)
        return complex(1.0 / d, -r / d)
    r = x.real / x.imag
    d = x.real * r + x.imag
    if promoted:
        return complex((1.0 * r + 0.0) / d, (0.0 * r - 1.0) / d)
    return complex(r / d, -1.0 / d)


def test_theta_batch_follows_the_interpreters_mixed_arithmetic():
    # CPython up to 3.13 promotes the 1.0 of `1.0 - z` and `1.0 / x` to
    # 1 + 0j, and 3.14 follows C99's mixed real/complex rules; the results
    # differ in the sign of a zero part only.  Each rule's values pick the
    # array form written for it, and this interpreter's pick one of them.
    kernels = backend.kernels
    xs = [complex(r, i) for r in (2.0, -0.0, 0.0, -3.0) for i in (0.0, -0.0, 5.0)]
    xs = [x for x in xs if x]
    z = np.array(xs)
    zr, zi = z.real.copy(), z.imag.copy()
    negs = (kernels._neg_promoted, np.negative)
    for want, form in (
        ([complex(1.0 - x.real, 0.0 - x.imag) for x in xs], kernels._neg_promoted),
        ([complex(1.0 - x.real, -x.imag) for x in xs], np.negative),
    ):
        got = kernels._matching(want, negs, lambda f: (1.0 - zr, f(zi, out=zi * 0)))
        assert got is form
    recips = (kernels._recip_promoted, kernels._recip_real)
    for promoted, form in ((True, recips[0]), (False, recips[1])):
        want = [_quot(x, promoted) for x in xs]
        assert kernels._matching(want, recips, lambda f: f(zr, zi)) is form
    assert kernels._NEG in negs and kernels._RECIP in recips


def _c_prod(x: complex, y: complex, fused: bool = False) -> complex:
    """CPython's `_Py_c_prod` in Python floats; `fused` (finite values only)
    rounds each part's product and sum once, as a compiler that contracts
    them to fma does."""

    def dot(a, b, c, d):  # a b + c d
        if fused:
            return float(Fraction(a) * Fraction(b) + Fraction(c * d))
        return a * b + c * d

    return complex(
        dot(x.real, y.real, -x.imag, y.imag), dot(x.real, y.imag, x.imag, y.real)
    )


def _c_quot(x: complex, y: complex) -> complex:
    """CPython's `_Py_c_quot` (y != 0) in Python floats: divided through by
    the larger of |y.real| and |y.imag|, NaN where neither compares."""
    if abs(y.real) >= abs(y.imag):
        r = y.imag / y.real
        d = y.real + y.imag * r
        return complex((x.real + x.imag * r) / d, (x.imag - x.real * r) / d)
    if abs(y.imag) >= abs(y.real):
        r = y.real / y.imag
        d = y.real * r + y.imag
        return complex((x.real * r + x.imag) / d, (x.imag * r - x.real) / d)
    return complex(math.nan, math.nan)


def test_array_products_and_quotients_are_cpythons_formulas():
    # R_explicit's whole-matrix path multiplies and divides on float arrays
    # with `_mul` and `_quot`; they are the two formulas above bit for bit, on
    # probes with signed zeros, both division branches and overflow, and the
    # interpreter is trusted with arrays only where it computes them too
    kernels = backend.kernels
    pairs = [(x, y) for x in kernels._WIDE for y in kernels._WIDE if y]
    xs, ys = np.array([x for x, _ in pairs]), np.array([y for _, y in pairs])
    ar, ai = xs.real.copy(), xs.imag.copy()
    scratch = np.empty_like(ar), np.empty_like(ar)
    with np.errstate(all="ignore"):
        kernels._mul(ar, ai, ys.real, ys.imag, *scratch)
        qr, qi = kernels._quot(xs.real, xs.imag, ys.real, ys.imag)
    prods = [_c_prod(x, y) for x, y in pairs]
    quots = [_c_quot(x, y) for x, y in pairs]
    assert _bits(prods) == _bits([complex(r, i) for r, i in zip(ar, ai)])
    assert _bits(quots) == _bits([complex(r, i) for r, i in zip(qr, qi)])
    native = [x * y for x, y in pairs] + [x / y for x, y in pairs]
    assert kernels.EXACT_ARRAYS == (_bits(native) == _bits(prods + quots))
    # what the probes can tell apart: a product rounded once per part, and
    # overflow, where C11 Annex G would recover infinities from NaN parts
    signed = [(x, y) for x in kernels._SIGNED for y in kernels._SIGNED]
    assert any(_c_prod(x, y, fused=True) != _c_prod(x, y) for x, y in signed)
    for values in (prods, quots):
        assert not all(cmath.isfinite(v) for v in values)
    assert {abs(y.real) >= abs(y.imag) for _, y in pairs} == {True, False}


def test_shared_vwp_rows_equal_fresh_sums():
    # sums read from one table, in shuffled order and with keys shared
    # between and within sums, are bit for bit fresh vwp_sum calls, or raise
    # the same message; theta(a) = 0 at a = 1, theta(0) at a = 0, and b = 0
    # under key 0
    kernels = backend.kernels
    rng = np.random.default_rng(23)

    def c(lo, hi):
        return complex(rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0, 2 * math.pi)))

    seen = set()
    for case in range(300):
        p = 0j if case % 2 else complex(rng.uniform(0.05, 0.3))
        q, nfac = c(0.3, 0.7), theta_factors(p)
        z = q if p else c(0.5, 1.5)
        a = 1.0 + 0j if case % 10 == 3 else c(0.5, 1.6)
        if case % 10 == 4:
            a = 0j
        pool = [c(0.5, 1.6) for _ in range(10)]
        if case % 10 in (6, 7):
            pool[0] = 0j
        n_max = int(rng.integers(0, 7))
        sums = []
        for _ in range(5):
            bs = tuple((int(k), pool[k]) for k in rng.integers(0, 10, size=7))
            sums.append((bs, int(rng.integers(0, n_max + 1))))
        rows = kernels.VwpRows(a, q, p, n_max, nfac)
        for i in rng.permutation(len(sums)):
            bs, n = sums[i]
            want = _outcome(kernels.vwp_sum, a, [b for _, b in bs], q, p, z, n, nfac)
            got = _outcome(rows.sum, bs, z, n)
            assert got == want, (case, i)
            if isinstance(got, str):
                seen.add(got)
    assert seen == {
        "error: well-poised parameter b = 0",
        "error: well-poised leading factor theta(a) vanishes",
        "error: complex division by zero",
    }
