"""The benchmark's tracer patches names in the library by attribute.

A library change that renames one of those names, or changes the positional
signature of a kernel the benchmark times, would otherwise fail only the
traced benchmark run; here it fails the test suite.  The test reads
perfbench/ and edits nothing there.
"""

import importlib
from pathlib import Path
from types import SimpleNamespace

import numpy as np

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
