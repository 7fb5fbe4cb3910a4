"""Verification harness: determinism, sensitivity, coverage, reports."""

import json
import math

import pytest

from ellsixj import basis, harness, sixj
from ellsixj.backend import kernels
from ellsixj.errors import DomainError, SamplingError
from ellsixj.harness import (
    IDENTITY_COVERAGE,
    LEVEL_TOL,
    SUITES,
    Level,
    SampleConfig,
    Shape,
    aggregate_json,
    report_dict,
    report_json,
    run_suite,
    sample_generic,
)

FAST = {
    "expansion": SampleConfig(seed=3, trials=2, N_max=3),
    "biorth": SampleConfig(seed=3, trials=4, N_max=3),
    "addition": SampleConfig(seed=3, trials=3, N_max=2),
    "convolution": SampleConfig(seed=3, trials=3, N_max=3),
    "multiconv": SampleConfig(seed=3, trials=3, N_max=3),
    "jackson": SampleConfig(seed=3, trials=2, N_max=3),
    "symmetry": SampleConfig(seed=3, trials=2, N_max=3),
    "limits": SampleConfig(seed=3, trials=1, N_max=2),
    "wilson": SampleConfig(seed=3, trials=2, N_max=3),
    "sklyanin": SampleConfig(seed=3, trials=2, N_max=3),
}


def test_config_validation():
    with pytest.raises(DomainError):
        SampleConfig(trials=0)
    with pytest.raises(DomainError):
        SampleConfig(p_max=1.0)
    with pytest.raises(DomainError):
        SampleConfig(tol=0.0)


def test_sampling_is_deterministic():
    cfg = SampleConfig(seed=42, N_max=3)
    a = sample_generic(cfg, Shape.QUAD, level=Level.ELLIPTIC)
    b = sample_generic(cfg, Shape.QUAD, level=Level.ELLIPTIC)
    assert (a.a, a.b, a.c, a.d, a.N) == (b.a, b.b, b.c, b.d, b.N)
    assert a.ctx.p == b.ctx.p


def test_sampled_shapes_respect_their_constraints():
    cfg = SampleConfig(seed=7, N_max=3)
    wp = sample_generic(cfg, Shape.WILSON, N=3)
    assert abs(wp.a * wp.b - wp.q**-3) < 1e-9
    a, b, c, d, N, ctx = sample_generic(cfg, Shape.SKLYANIN, N=2)
    assert abs(a * b * c * d - ctx.q**-2) < 1e-12


def test_sampler_gives_up_inside_an_impossible_window(monkeypatch):
    monkeypatch.setattr(basis, "GEN_DELTA", 10.0)
    cfg = SampleConfig(seed=1, N_max=2)
    with pytest.raises(SamplingError):
        sample_generic(cfg, Shape.QUAD)


def test_every_suite_passes_a_fast_pass():
    for name, fn in SUITES.items():
        rep = fn(FAST[name])
        assert rep.passed, f"{name}: {rep.max_residual:.3e}"


_INJECTED = ("theta", "thetas", "qpoch", "epoch", "vwp_sum", "phi_sum", "f_sum")


def _skew(out):
    return out * (1.0 + 1e-6 * math.sin(1e3 * (abs(out) + 0.37)))


def _skewed(fn):
    """fn with a relative error of about 1e-6 that varies with its output;
    a batch kernel's values are skewed one by one."""

    def wrapped(*args):
        out = fn(*args)
        return [_skew(v) for v in out] if isinstance(out, list) else _skew(out)

    return wrapped


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suites_detect_an_injected_error(name, monkeypatch):
    # every scalar kernel is reached as an attribute of this one module, so
    # skewing it there corrupts every level, route and suite at once; the
    # Krawtchouk level calls no kernel, so its one entry formula is skewed too
    for kernel in _INJECTED:
        monkeypatch.setattr(
            kernels, kernel, _skewed(getattr(kernels, kernel))
        )
    monkeypatch.setattr(sixj, "krawtchouk_K", _skewed(sixj.krawtchouk_K))
    rep = SUITES[name](FAST[name])
    assert not rep.passed, name
    assert rep.max_residual >= 1e-7, name
    assert len(rep.failures) == rep.trials, name


def test_report_json_is_byte_deterministic():
    cfg = FAST["biorth"]
    one = report_json(SUITES["biorth"](cfg))
    two = report_json(SUITES["biorth"](cfg))
    assert one == two


def test_report_schema():
    rep = SUITES["symmetry"](FAST["symmetry"])
    doc = json.loads(report_json(rep))
    assert list(doc) == sorted(doc)
    assert set(doc) == {
        "suite", "trials", "seed", "tol", "max_residual", "pass", "failures"
    }
    assert doc["pass"] is True
    assert doc["failures"] == []
    # timing is deliberately left out so equal runs serialize equally
    assert "elapsed" not in doc
    d = report_dict(rep)
    assert d["suite"] == "symmetry"


def test_failures_collect_iff_above_tolerance():
    rep = SUITES["biorth"](SampleConfig(seed=3, trials=4, N_max=3, tol=1e-30))
    assert not rep.passed
    assert len(rep.failures) == rep.trials
    for f in rep.failures:
        assert f.residual > rep.tol
        assert "level" in f.params
    # a NaN residual fails, recorded as the finite error sentinel
    cfg = SampleConfig(seed=3, trials=2)
    rep = harness._run("nan", cfg, (Level.TRIG,), lambda rng, level: (math.nan, {}))
    assert len(rep.failures) == rep.trials
    assert rep.max_residual == 1e300
    assert all(f.residual == 1e300 for f in rep.failures)


def test_a_raising_trial_fails_with_the_error_recorded():
    def trial(rng, level):
        raise DomainError("boom")

    cfg = SampleConfig(seed=3, trials=3)
    rep = harness._run("raising", cfg, (Level.TRIG,), trial)
    assert len(rep.failures) == rep.trials
    want = {"error": "DomainError: boom", "level": "trig"}
    for f in rep.failures:
        assert f.residual == 1e300 and f.params == want
    doc = json.loads(report_json(rep))
    assert doc["pass"] is False and doc["max_residual"] == 1e300
    assert [f["params"] for f in doc["failures"]] == [want] * rep.trials


def test_default_tolerance_tracks_the_loosest_level():
    rep = SUITES["expansion"](SampleConfig(seed=3, trials=2, N_max=3))
    assert rep.tol == LEVEL_TOL[Level.ELLIPTIC]
    rep = SUITES["expansion"](
        SampleConfig(seed=3, trials=2, N_max=3), levels=(Level.TRIG,)
    )
    assert rep.tol == LEVEL_TOL[Level.TRIG]


def test_run_suite_aggregates_and_rejects_unknown_names():
    agg = run_suite({"biorth", "symmetry"}, FAST["symmetry"])
    assert {r.suite for r in agg.reports} == {"biorth", "symmetry"}
    assert agg.passed
    doc = json.loads(aggregate_json(agg))
    assert set(doc) == {"pass", "seed", "max_residual", "reports"}
    assert len(doc["reports"]) == 2
    with pytest.raises(DomainError):
        run_suite({"nonsense"}, FAST["symmetry"])


def test_run_suite_all_expands_to_everything():
    agg = run_suite(
        {"all"}, SampleConfig(seed=3, trials=1, N_max=2)
    )
    assert {r.suite for r in agg.reports} == set(SUITES)


def test_identity_coverage_is_total():
    assert len(IDENTITY_COVERAGE) == 17
    for tag, suite in IDENTITY_COVERAGE.items():
        assert suite in SUITES, tag
