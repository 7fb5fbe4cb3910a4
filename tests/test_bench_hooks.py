"""The benchmark's tracer patches names in the library by attribute.

A library change that renames one of those names would otherwise fail only
the traced benchmark run; here it fails the test suite.  The test reads
perfbench/ and edits nothing there.
"""

import importlib
from pathlib import Path
from types import SimpleNamespace

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
