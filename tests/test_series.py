"""Terminating hypergeometric families against classical closed forms."""

import math

import numpy as np
import pytest

from conftest import rel
from ellsixj import scalar
from ellsixj.errors import BalancingError, DomainError, SingularParameterError
from ellsixj.series import (
    SeriesSpec,
    eval_V12,
    eval_W,
    eval_rFs,
    eval_rphi_s,
    eval_series,
    f_spec,
    jackson_rhs,
    jackson_spec,
    phi_spec,
    series_terms,
    v12_spec,
    w_spec,
)


def _rng(seed):
    return np.random.default_rng(seed)


def _cnum(rng, lo=0.4, hi=1.8):
    r = rng.uniform(lo, hi)
    t = rng.uniform(0, 2 * math.pi)
    return complex(r * math.cos(t), r * math.sin(t))


def test_chu_vandermonde():
    rng = _rng(11)
    for _ in range(20):
        b, c = _cnum(rng), _cnum(rng, 0.8, 2.4)
        n = int(rng.integers(0, 7))
        spec = f_spec((b, -n), (c,), 1.0, n)
        got = eval_rFs(spec)
        want = scalar.rising_factorial(c - b, n) / scalar.rising_factorial(c, n)
        assert rel(got, want) < 1e-11
        # the from-scratch terms are the oracle of the kernel sum
        terms = list(series_terms(spec))
        assert len(terms) == n + 1
        assert rel(sum(terms), got) < 1e-12


def test_q_vandermonde():
    rng = _rng(12)
    q = 0.47
    for _ in range(20):
        b, c = _cnum(rng), _cnum(rng)
        n = int(rng.integers(0, 7))
        z = c * q**n / b
        got = eval_rphi_s(phi_spec((b, q**-n), (c,), q, z, n))
        want = scalar.q_pochhammer(c / b, q, n) / scalar.q_pochhammer(c, q, n)
        assert rel(got, want) < 1e-11


def test_terminating_q_binomial_theorem():
    rng = _rng(13)
    q = 0.39
    for _ in range(15):
        z = _cnum(rng)
        n = int(rng.integers(0, 8))
        got = eval_rphi_s(phi_spec((q**-n,), (), q, z, n))
        want = scalar.q_pochhammer(q**-n * z, q, n)
        assert rel(got, want) < 1e-11


def test_elliptic_family_reduces_to_well_poised_at_zero_nome():
    rng = _rng(14)
    q = 0.43
    for _ in range(10):
        n = int(rng.integers(1, 5))
        a = _cnum(rng)
        b, c, d, e2, f = (_cnum(rng) for _ in range(5))
        g = a**3 * q ** (n + 2) / (b * c * d * e2 * f)
        bs = (b, c, d, e2, f, g, q**-n)
        got = eval_V12(v12_spec(a, bs, q, 0j, n))
        want = eval_W(w_spec(a, bs, q, q, n))
        assert rel(got, want) < 1e-11


def test_terminating_well_poised_summation(trig_ctx, ell_ctx):
    for ctx in (trig_ctx, ell_ctx):
        a, b, c, xi = 1.21 + 0.33j, 0.77 - 0.41j, 1.63 + 0.12j, 0.91 + 0.54j
        N = 4
        spec = jackson_spec(a, b, c, xi, N, ctx)
        lhs = eval_V12(spec, ctx)
        rhs = jackson_rhs(a, b, c, xi, N, ctx)
        scale = max(max(abs(t) for t in series_terms(spec, ctx)), abs(rhs))
        assert abs(lhs - rhs) / scale < 1e-11


def test_termination_slot_must_be_last():
    q = 0.41
    with pytest.raises(DomainError):
        phi_spec((q**-3, 0.7), (0.3,), q, 0.5, 3)
    with pytest.raises(DomainError):
        f_spec((-3.0, 0.7), (0.3,), 0.5, 3)


def test_double_termination_orders_by_smaller_index():
    # with two lattice entries on top, either one may sit in the slot as
    # long as it matches `terms`; both readings give the same sum because
    # the shorter factor kills the tail
    q = 0.44
    t = 0.83 - 0.29j
    short = phi_spec((q**-5, t, q**-2), (0.6,), q, 0.7, 2)
    long = phi_spec((q**-2, t, q**-5), (0.6,), q, 0.7, 5)
    terms = list(series_terms(short))
    assert len(terms) == 3
    assert rel(eval_rphi_s(short), sum(terms)) < 1e-13
    assert rel(eval_rphi_s(short), eval_rphi_s(long)) < 1e-12


def test_v12_validation():
    q = 0.5
    with pytest.raises(DomainError):
        v12_spec(1.1, (0.5, q**-2), q, 0j, 2)
    bs = (0.8, 0.9, 1.1, 1.2, 1.3, 2.0, q**-2)
    with pytest.raises(BalancingError):
        v12_spec(1.1, bs, q, 0j, 2)
    with pytest.raises(DomainError):
        SeriesSpec("PHI", (0.7, q**-2), (0.4,), q, 0.1, 0.5, 2)


def test_series_terms_consistency():
    q = 0.37
    spec = phi_spec((0.9 + 0.2j, q**-4), (0.55,), q, 0.8 - 0.1j, 4)
    terms = list(series_terms(spec))
    assert len(terms) == 5
    assert terms[0] == 1
    assert rel(sum(terms), eval_series(spec)) < 1e-13


def test_unknown_family_rejected():
    with pytest.raises(DomainError):
        SeriesSpec("X", (1.0,), (), 0j, 0j, 1.0, 0)


_Q = 0.5


@pytest.mark.parametrize(
    "evaluate, spec, message",
    [
        (eval_rphi_s, phi_spec((_Q**-2,), (_Q**-1,), _Q, 0.3, 2),
         "denominator Pochhammer factor vanishes at term 2"),
        (eval_W, w_spec(1.0, (0.7, _Q**-1), _Q, _Q, 1),
         "well-poised leading factor theta(a) vanishes"),
        (eval_W, w_spec(0.9, (0.0, _Q**-1), _Q, _Q, 1),
         "well-poised parameter b = 0"),
    ],
    ids=["phi-denominator", "w-leading-theta", "w-zero-parameter"],
)
def test_singular_kernel_denominators_raise(evaluate, spec, message):
    with pytest.raises(SingularParameterError) as exc:
        evaluate(spec)
    assert str(exc.value) == message
