"""The benchmark's tracer patches names in the library by attribute.

A library change that renames one of those names, changes the positional
signature of a kernel the benchmark times, or drops an attribute the
tracer reads off a result, would otherwise fail only the traced benchmark
run; here it fails the test suite.  The tests read perfbench/ and edit
nothing there.
"""

import importlib
import math
from pathlib import Path
from types import SimpleNamespace

import numpy as np

from conftest import draw_quad
from ellsixj import harness
from ellsixj.harness import Level
from ellsixj.sixj import Route

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_installs_and_restores_every_hook(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    importlib.import_module("workloads")
    tracer = tracing.Tracer()
    try:
        tracer.install(SimpleNamespace(do_op=lambda item: item))
        patched = list(tracer._undo)
    finally:
        tracer.uninstall()
    assert patched
    for owner, attr, original in patched:
        assert tracing._get(owner, attr) is original, attr


def test_kernel_timings_call_every_kernel(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    timings = run.kernel_calls(np.random.default_rng(0))
    assert set(timings) == {
        f"kernels.{name}.call_us" for name in ("theta", "epoch", "vwp_sum", "phi_sum")
    }
    assert all(value > 0 for value, _ in timings.values())


def test_tracer_metrics_over_one_op_of_each_workload(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    # VerifySuites hooks harness._run for good; monkeypatch puts it back
    monkeypatch.setattr(harness, "_run", harness._run)
    ell, trig = workloads.EllExplicit(0), workloads.TrigRoutes(0)
    verify = workloads.VerifySuites(0)
    ops = [(ell, draw_quad(30, 4, Level.ELLIPTIC))]
    ops += [(trig, (draw_quad(30, 3, Level.TRIG), route)) for route in Route]
    ops += [(verify, ("wilson", 3, 1))]
    tracer = tracing.Tracer()
    outs = []
    for wl, item in ops:
        tracer.install(wl)
        try:
            outs.append(wl.do_op(item))
        finally:
            tracer.uninstall()
    for out in outs[:-1]:
        assert isinstance(out, np.ndarray) and np.isfinite(out).all()
    assert outs[-1][0] == 0 and verify.call_failures(ops[-1][1], outs[-1]) == 0
    metrics = tracer.metrics(len(ops), workloads.VerifySuites.SUITES, 1, {})
    assert all(math.isfinite(value) for value, _ in metrics.values())
    assert metrics["sixj.R_explicit.fallback_entries"][0] == 0
    assert metrics["harness.wilson.share"][0] > 0
    assert tracer.calls["bench.op"] == len(ops)
    assert tracer.calls["sixj.route.explicit"] == 2
    for route in ("recurrence", "paths", "solve"):
        assert tracer.calls[f"sixj.route.{route}"] >= 1, route
        assert metrics[f"sixj.route.{route}.failed"][0] == 0, route
