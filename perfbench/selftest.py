"""Self-tests of the benchmark's failure accounting and tracer.

    PYTHONPATH=src python3 perfbench/selftest.py

injection_checks() runs at the start of every benchmark run: it feeds a
NaN matrix to the matrix checks and NaN and infinite residuals through
the CLI's verify path, and each must come out counted as failed.  The
standalone run adds the exact kernel-call counts of elliptic R_explicit.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from ellsixj import harness
from ellsixj.harness import Level, SampleConfig, Shape, sample_generic
from workloads import EllExplicit, TrigRoutes, VerifySuites


def _nan_matrix_counted() -> bool:
    quad = sample_generic(SampleConfig(seed=0), Shape.QUAD, N=2, level=Level.TRIG)
    good = EllExplicit(0).do_op(quad)
    bad = np.full_like(good, math.nan)
    ell = EllExplicit(0).failures([quad, quad], [good, bad]) == [False, True]
    trig = TrigRoutes(0)
    items = [(quad, r) for r in trig.ROUTES]
    outs = [trig.do_op(item) for item in items]
    outs[1] = bad
    return ell and trig.failures(items, outs) == [False, True, False, False]


def _residual_counted(value: float, trials: int = 12) -> bool:
    """A suite whose every trial returns `value` must fail all its trials."""
    name = "_injected"

    def suite(cfg):
        return harness._run(name, cfg, (Level.TRIG,), lambda rng, level: (value, {}))

    wl = VerifySuites(0)
    harness.SUITES[name] = suite
    try:
        item = (name, 0, trials)
        return wl.call_failures(item, wl.do_op(item)) == trials
    finally:
        del harness.SUITES[name]
        harness._run = VerifySuites._orig_run


def injection_checks() -> bool:
    return (_nan_matrix_counted() and _residual_counted(math.nan)
            and _residual_counted(math.inf) and not _residual_counted(0.0))


def theta_reference_counts() -> bool:
    """kernels.theta calls of one elliptic R_explicit, counted by the tracer."""
    from run import THETA_CALLS_REFERENCE
    from tracing import Tracer

    wl = EllExplicit(0)
    ok = True
    for N, want in THETA_CALLS_REFERENCE.items():
        quad = sample_generic(wl.cfg, Shape.QUAD, N=N, level=Level.ELLIPTIC)
        tracer = Tracer()
        tracer.install(wl)
        try:
            wl.do_op(quad)
        finally:
            tracer.uninstall()
        got = tracer.calls["kernels.theta"]
        print(f"N={N}: {got} theta calls, reference {want}, fallback entries "
              f"{tracer.fallback_entries}")
        ok &= tracer.fallback_entries > 0 or got == want
    return ok


if __name__ == "__main__":
    ok = injection_checks()
    print("injection checks", "pass" if ok else "FAIL")
    ok &= theta_reference_counts()
    sys.exit(0 if ok else 1)
