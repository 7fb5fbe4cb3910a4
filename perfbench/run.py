"""Layered benchmark for ellsixj.

    python3 perfbench/run.py --workload ell_explicit --seed 0 --seconds 20 --trace 0

One process, one closed-loop client: each op starts when the previous one
has returned.  Inputs come from the harness sampler, seeded by --seed,
outside the timed region; every output is checked afterwards.  A run is
a whole number of passes (see workloads.py) and lasts at least --seconds
of timed work: the seed's distinct passes once, then repeats of them.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones from
a traced replay of two passes, with the tracing overhead.  The last line
of stdout is one JSON object: correct, attempted, failed, metrics.  The
lines before it give the provenance and a readable report.  --out also
writes the full result, provenance included, as JSON for compare.py.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
# one BLAS and OpenMP thread, here and in every child, before numpy loads
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_SPAWNS = 9
# a fixed pure-Python loop of complex arithmetic, the kind of work the
# library does, and the time it takes on this machine when no neighbour is
# busy (2-core x86-64 sandbox, Python 3.11)
CALIBRATION_LOOP = 3000
CALIBRATION_S = 0.84e-3
TRACE_PASSES = 2
# p90 at most, so the percentile stays put when a faster build fits more ops
# into a run; lower only when a run has fewer than 100 samples
TAIL_LADDER = (90.0, 75.0, 50.0)
# kernels.theta calls of one elliptic R_explicit without fallback entries,
# for the closed form evaluated factor by factor
THETA_CALLS_REFERENCE = {4: 1460, 5: 2627, 8: 9462, 12: 29640, 16: 67626}


def tail_percentile(lat: list) -> tuple:
    """Highest ladder percentile with at least ten samples beyond it, and its value."""
    s = sorted(lat)
    n = len(s)
    for pct in TAIL_LADDER:
        rank = -(-int(pct * n) // 100)  # nearest rank, ceil(pct/100 * n)
        if n - rank >= 10:
            return pct, s[rank - 1]
    return 100.0, s[-1]


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed: int) -> dict:
    import numpy
    import ellsixj

    return {
        "commit": git_commit(),
        "backend": ellsixj.BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def calibration() -> float:
    """Seconds a fixed pure-Python loop takes right now, best of three."""
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        z, acc = 0.3 + 0.4j, 0j
        for i in range(CALIBRATION_LOOP):
            acc += cmath.exp(z * (i % 7)) * (1 - z ** (i % 5))
        best = min(best, perf_counter() - t0)
    return best


def run_passes(wl, passes: list) -> tuple:
    """Run every op of the passes, timing each op and the machine around it.

    Returns the outputs and, per op, (seconds, calibration, latencies),
    where calibration is the mean of the calibration loop just before and
    just after the op.
    """
    outs, recs = [], []
    before = calibration()
    for items in passes:
        for item in items:
            t0 = perf_counter()
            out = wl.do_op(item)
            dt = perf_counter() - t0
            after = calibration()
            recs.append((dt, (before + after) / 2, wl.op_latencies(dt, out)))
            outs.append(out)
            before = after
    return outs, recs


def measure_setup(wl, item) -> list:
    """(wall seconds, calibration) of fresh interpreters that import ellsixj and run one op."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **THREAD_PINS)
    arg = json.dumps(wl.item_to_json(wl.warmup_item(item)))
    spawns = []
    before = calibration()
    for _ in range(SETUP_SPAWNS):
        t0 = perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "warmup.py"), wl.name, arg],
            env=env, cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        dt = perf_counter() - t0
        after = calibration()
        spawns.append((dt, (before + after) / 2))
        before = after
    return spawns


def end_to_end(wl, rng, seconds: float) -> tuple:
    """Time the seed's distinct passes, then repeat them until --seconds is full.

    attempted and failed count the distinct ops, each checked once.  A
    repeated op must reproduce its first output exactly, or the run is not
    correct.  So the same seed always gives the same attempted and failed,
    while the timed work still fills --seconds.
    """
    passes = [wl.make_pass(rng) for _ in range(wl.distinct_passes(seconds))]
    spawns = measure_setup(wl, passes[0][0])
    timed, flags, recs, prints, repeats_same = 0.0, [], [], [], True
    sizes, done, k = [], 0, 0
    while k < len(passes) or timed < seconds:
        items = passes[k % len(passes)]
        outs, pass_recs = run_passes(wl, [items])
        recs += pass_recs
        timed += sum(dt for dt, _, _ in pass_recs)
        got = [wl.fingerprint(out) for out in outs]
        if k < len(passes):
            pass_flags = wl.failures(items, outs)
            flags += pass_flags
            sizes.append(len(pass_flags))
            prints.append(got)
            first_recs = len(recs)
        else:
            repeats_same = repeats_same and got == prints[k % len(passes)]
        done += sizes[k % len(passes)]
        k += 1
    attempted, failed = len(flags), sum(flags)
    correct = repeats_same and wl.final_check(passes[0][0])

    # The machine is shared: for seconds at a time everything runs up to
    # 1.6x slower, sometimes for a whole run.  Each time is scaled by
    # CALIBRATION_S over what the calibration loop took around it, so the
    # figures read as if the loop always took CALIBRATION_S (this machine
    # when quiet) and describe the program, not the neighbours.
    lats = [t * CALIBRATION_S / c for _, c, ts in recs for t in ts]
    busy = sum(dt * CALIBRATION_S / c for dt, c, _ in recs)
    setup_s = statistics.median(dt * CALIBRATION_S / c for dt, c in spawns)
    pct, tail = tail_percentile(lats)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (done / busy, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(lats), "ms"),
        "latency_tail_ms": (1e3 * tail, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    raw = [t for _, _, ts in recs for t in ts]
    first_busy = sum(dt * CALIBRATION_S / c for dt, c, _ in recs[:first_recs])
    extra = {
        "fail_share": failed / attempted,
        "ops_done": done,
        "ops_repeated": done - attempted,
        # a cache kept across ops would speed up only the repeats
        "first_cycle_ops_per_s": attempted / first_busy,
        "tail_percentile": pct,
        "latency_samples": len(lats),
        "timed_s": timed,
        "uncorrected": {
            "setup_s": statistics.median(dt for dt, _ in spawns),
            "ops_per_s": done / timed,
            "latency_p50_ms": 1e3 * statistics.median(raw),
            "latency_tail_ms": 1e3 * tail_percentile(raw)[1],
        },
        "calibration_ms": {
            "min": 1e3 * min(c for _, c, _ in recs),
            "median": 1e3 * statistics.median(c for _, c, _ in recs),
            "max": 1e3 * max(c for _, c, _ in recs),
        },
        "ops": recs,
    }
    return correct, attempted, failed, metrics, extra


def kernel_calls(rng) -> dict:
    """Best-of-five microseconds per call of each hot kernel, on fixed-shape inputs.

    The shapes are those of an elliptic N=5 matrix build (q = 0.41,
    p = 0.17, 24 theta factors); the arguments come from the seed.
    """
    from ellsixj.backend import kernels

    q, p, nfac = 0.41 + 0j, 0.17 + 0j, 24

    def z(lo=0.5, hi=2.0):
        r, a = rng.uniform(lo, hi), rng.uniform(0, 2 * math.pi)
        return complex(r * math.cos(a), r * math.sin(a))

    bs = (z(), z(), z(), z(), z(), q**-4)
    calls = {
        "theta": [(z(), p, nfac) for _ in range(200)],
        "epoch": [(z(), q, p, 6, nfac) for _ in range(200)],
        "vwp_sum": [(z(0.9, 1.1), bs, q, p, q, 4, nfac) for _ in range(60)],
        "phi_sum": [((q**-3, z(), q**-2), (q**-5, z()), q, q, 3, 1) for _ in range(200)],
    }
    out = {}
    for name, args_list in calls.items():
        fn = getattr(kernels, name)
        best = math.inf
        for _ in range(5):
            t0 = perf_counter()
            for args in args_list:
                fn(*args)
            best = min(best, perf_counter() - t0)
        out[f"kernels.{name}.call_us"] = (1e6 * best / len(args_list), "us")
    return out


def per_layer(wl, rng) -> tuple:
    from tracing import Tracer
    from workloads import VerifySuites

    tracer = Tracer()
    tracer.install(wl)  # the sampler's counters see input generation too
    passes = [wl.make_pass(rng) for _ in range(TRACE_PASSES)]
    tracer.uninstall()
    _, recs = run_passes(wl, passes)
    plain_s = sum(dt for dt, _, _ in recs)
    tracer.install(wl)
    traced_s, theta_counts = 0.0, []
    outs = []
    try:
        for items in passes:
            for item in items:
                before = (tracer.calls["kernels.theta"], tracer.fallback_entries)
                t0 = perf_counter()
                outs.append(wl.do_op(item))
                traced_s += perf_counter() - t0
                if hasattr(item, "N") and before[1] == tracer.fallback_entries:
                    theta_counts.append((item.N, tracer.calls["kernels.theta"] - before[0]))
    finally:
        tracer.uninstall()
    items = [item for p in passes for item in p]
    flags = wl.failures(items, outs)
    trials_failed = wl.failures_by_suite(items, flags)
    metrics = tracer.metrics(len(flags), VerifySuites.SUITES, VerifySuites.TRIALS, trials_failed)
    metrics["trace.overhead_share"] = (traced_s / plain_s - 1.0, "share")
    metrics.update(kernel_calls(rng))
    # the same op shape must always make the same number of kernel calls
    by_n = {}
    for n, c in theta_counts:
        by_n.setdefault(n, set()).add(c)
    repeat = all(len(v) == 1 for v in by_n.values())
    matches = {n: THETA_CALLS_REFERENCE.get(n) in v for n, v in by_n.items()}
    extra = {
        "theta_calls_by_N": {n: sorted(v) for n, v in by_n.items()},
        "theta_calls_match_reference": matches,
        "traced_s": traced_s,
        "untraced_s": plain_s,
    }
    return repeat, len(flags), sum(flags), metrics, extra


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="also write the full result here")
    args = ap.parse_args(argv)

    if not (SRC / "ellsixj" / "__init__.py").is_file():
        print(f"error: no ellsixj sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)
    sys.path.insert(0, str(SRC))
    import numpy as np
    from selftest import injection_checks
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    prov = provenance(args.seed)
    print(json.dumps({"provenance": prov}))
    checks_ok = injection_checks()
    wl = WORKLOADS[args.workload](args.seed)
    rng = np.random.default_rng(args.seed)
    if args.trace:
        ok, attempted, failed, metrics, extra = per_layer(wl, rng)
    else:
        ok, attempted, failed, metrics, extra = end_to_end(wl, rng, args.seconds)
    correct = bool(ok and checks_ok)

    report = {name: f"{value:.6g} {unit}" for name, (value, unit) in metrics.items()}
    shown = {k: v for k, v in extra.items() if k != "ops"}
    print(json.dumps({"workload": wl.name, "trace": args.trace, "report": report,
                      "fail_share": failed / attempted, **shown}))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        full = dict(result, workload=wl.name, seconds=args.seconds, trace=args.trace,
                    provenance=prov, extra=extra)
        args.out.write_text(json.dumps(full, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
