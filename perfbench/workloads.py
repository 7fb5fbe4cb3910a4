"""The benchmark's three workloads.

Each workload turns a seeded generator into passes of inputs, runs one op
per input (the timed part) and checks every output afterwards.  A pass
always has the same shape (the same N values, routes or suites), so a run
is a whole number of passes and its metrics do not depend on where the
clock happened to stop.  How many distinct passes a run draws depends only
on --seconds (see distinct_passes), so the same seed checks the same
inputs and finds the same failures however fast the machine is.

Why each workload exists:

ell_explicit   R_explicit at the elliptic level, p up to 0.3, N from 4 to
               16.  The theta kernel takes about 72% of self time here and
               theta calls per matrix grow as O(N^3) (1,460 at N=4, 67,626
               at N=16), so a theta table or an overflow-safe theta shows
               here first.  At N=16 the closed form already returns
               non-finite entries for some quads, and at N >= 12 it can
               disagree with the RECURRENCE route: failures are expected
               and counted.
trig_routes    all four routes at p = 0, N from 3 to 11.  The kernel theta
               is one subtraction here, so the time goes to the routes'
               own algorithms: exhaustive path enumeration dominates, then
               the scalar wrappers and collocation.  It shows a path DP or
               triangular collocation, should not move for kernel-only
               changes, and catches per-matrix set-up that costs more than
               it saves at small N.  SOLVE fails from N of about 10.
verify_suites  the identity suites through the CLI, in process, with 12
               trials per call so every level of every suite runs.  It is
               the harness use the README documents: many tiny matrices
               with sampler rejections.  It is the only workload that
               reaches cli, harness, wilson and sklyanin, and the multiconv
               suite's sub-matrix rebuilds in multiconv_rhs are where
               sub-matrix sharing shows.  sklyanin fails at the elliptic
               level on some seeds.  The convolution suite is left out: its
               four elliptic trials per call take 50 ms to 1.4 s each
               depending on the drawn sizes and nome, and with them the
               workload's throughput and tail spread by 30-40% from seed to
               seed, wider than any useful bound.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from time import perf_counter

import numpy as np

from ellsixj import cli, harness, sixj
from ellsixj.context import make_context
from ellsixj.errors import SixjError
from ellsixj.harness import LEVEL_TOL, Level, SampleConfig, Shape, sample_generic


def residual(got, want) -> float:
    """Largest entry difference over the largest entry magnitude."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    scale = max(float(np.abs(got).max()), float(np.abs(want).max()), 1e-300)
    return float(np.abs(got - want).max()) / scale


def agrees(got, want, tol: float) -> bool:
    """True only for two finite matrices within tol; NaN never agrees."""
    if isinstance(got, Exception) or isinstance(want, Exception):
        return False
    if not (np.isfinite(got).all() and np.isfinite(want).all()):
        return False
    return residual(got, want) <= tol


def quad_to_json(quad: sixj.ParamQuad) -> dict:
    pair = lambda z: [complex(z).real, complex(z).imag]  # noqa: E731
    return {
        "a": pair(quad.a), "b": pair(quad.b), "c": pair(quad.c),
        "d": pair(quad.d), "N": quad.N, "q": pair(quad.ctx.q),
        "p": pair(quad.ctx.p),
    }


def quad_from_json(d: dict) -> sixj.ParamQuad:
    z = {k: complex(*d[k]) for k in ("a", "b", "c", "d", "q", "p")}
    ctx = make_context(z["q"], p=z["p"])
    return sixj.ParamQuad(z["a"], z["b"], z["c"], z["d"], d["N"], ctx)


class Workload:
    """Defaults for workloads whose op is one matrix."""

    # Distinct inputs fill this share of --seconds at PASS_S seconds a
    # pass, the time one pass takes on a quiet 2-core x86-64 machine with
    # the pure-Python backend; the rest of the run repeats them.
    DISTINCT_SHARE = 0.8

    def distinct_passes(self, seconds: float) -> int:
        return max(1, math.ceil(self.DISTINCT_SHARE * seconds / self.PASS_S))

    def fingerprint(self, out):
        """What a repeat of the same input must reproduce exactly."""
        if isinstance(out, Exception):
            return type(out).__name__, str(out)
        return np.asarray(out).tobytes()

    def op_latencies(self, dt: float, out) -> list:
        return [dt]

    def warmup_item(self, item):
        return item

    def final_check(self, item) -> bool:
        return True

    def failures_by_suite(self, items, flags) -> dict:
        return {}


class EllExplicit(Workload):
    name = "ell_explicit"
    # ops per pass at each N.  Sorted by cost, 25 ops put the median and
    # p90 halfway into one op each (an N=5 op and the middle-nome N=12 op),
    # not on the edge between two; N=16 carries the overflow defect.
    COUNTS = {4: 9, 5: 7, 8: 5, 12: 3, 16: 1}
    PASS_S = 1.5
    # the sampler draws the nome uniformly from [0.05, p_max)
    P_MIN, P_MAX = 0.05, 0.3
    TOL = LEVEL_TOL[Level.ELLIPTIC]

    def __init__(self, seed: int):
        self.cfg = SampleConfig(seed=seed, N_max=max(self.COUNTS), p_max=self.P_MAX)

    def make_pass(self, rng) -> list:
        """Quads from the sampler, the nomes of each size stratified.

        Theta products get longer as |p| grows, so an op's cost follows
        its nome.  The k ops of one size take one draw from each of k
        equal slices of [P_MIN, P_MAX), so every pass costs about the same.
        """
        quads = []
        width = self.P_MAX - self.P_MIN
        for N, count in self.COUNTS.items():
            for b in range(count):
                lo = self.P_MIN + width * b / count
                hi = self.P_MIN + width * (b + 1) / count
                while True:
                    quad = sample_generic(self.cfg, Shape.QUAD, rng=rng, N=N,
                                          level=Level.ELLIPTIC)
                    if lo <= quad.ctx.p.real < hi:
                        break
                quads.append(quad)
        return quads

    def do_op(self, quad):
        try:
            return sixj.R_explicit(quad).entries
        except SixjError as exc:
            return exc

    def failures(self, items, outs) -> list:
        """Per op: failed unless it matches the RECURRENCE route."""
        flags = []
        for quad, got in zip(items, outs):
            try:
                want = sixj.R_double_sum(quad).entries
            except SixjError as exc:
                want = exc
            flags.append(not agrees(got, want, self.TOL))
        return flags

    def item_to_json(self, quad):
        return quad_to_json(quad)

    def item_from_json(self, d):
        return quad_from_json(d)


class TrigRoutes(Workload):
    name = "trig_routes"
    # Sorted by cost, the 48 ops of a pass put the median inside the four
    # N=6 EXPLICIT and SOLVE ops (3.6 ms each) and p90 inside the four N=8
    # PATHS ops (80 ms), not on the edge between two kinds of op
    NS = (3, 3, 4, 4, 6, 6, 8, 8, 8, 8, 10, 11)
    ROUTES = tuple(sixj.Route)
    TOL = LEVEL_TOL[Level.TRIG]
    PASS_S = 2.05

    def __init__(self, seed: int):
        self.cfg = SampleConfig(seed=seed, N_max=max(self.NS))

    def make_pass(self, rng) -> list:
        items = []
        for N in self.NS:
            quad = sample_generic(self.cfg, Shape.QUAD, rng=rng, N=N, level=Level.TRIG)
            items.extend((quad, route) for route in self.ROUTES)
        return items

    def do_op(self, item):
        quad, route = item
        try:
            return sixj.R_matrix(quad, route).entries
        except SixjError as exc:
            return exc

    def failures(self, items, outs) -> list:
        """Per op: failed unless it matches at least two of the other routes."""
        n = len(self.ROUTES)
        flags = []
        for start in range(0, len(outs), n):
            group = outs[start:start + n]
            for i, got in enumerate(group):
                votes = sum(agrees(got, other, self.TOL)
                            for j, other in enumerate(group) if j != i)
                flags.append(votes < 2)
        return flags

    def item_to_json(self, item):
        quad, route = item
        return {"quad": quad_to_json(quad), "route": route.value}

    def item_from_json(self, d):
        return quad_from_json(d["quad"]), sixj.Route(d["route"])


class VerifySuites(Workload):
    name = "verify_suites"
    SUITES = tuple(sorted(set(harness.SUITES) - {"convolution"}))
    # levels cycle with period 1 to 4 per suite; 12 trials cover all of them
    TRIALS = 12
    PASS_S = 0.7

    _orig_run = staticmethod(harness._run)

    def __init__(self, seed: int):
        self.calls = []
        harness._run = self._hooked_run

    def _hooked_run(self, suite, cfg, levels, trial_fn):
        """harness._run with every trial timed and its residual kept.

        The harness's own pass test lets a NaN residual through, so the
        benchmark keeps each residual and applies its own test to it.
        """
        recs = []

        def timed(rng, level):
            t0 = perf_counter()
            try:
                out = trial_fn(rng, level)
            except SixjError:
                recs.append((perf_counter() - t0, math.nan))
                raise
            recs.append((perf_counter() - t0, out[0]))
            return out

        report = self._orig_run(suite, cfg, levels, timed)
        self.calls.append((recs, report.tol))
        return report

    def make_pass(self, rng) -> list:
        seed = int(rng.integers(0, 2**31))
        return [(suite, seed, self.TRIALS) for suite in self.SUITES]

    def do_op(self, item):
        suite, seed, trials = item
        self.calls.clear()
        argv = ["verify", "--suite", suite, "--trials", str(trials), "--seed", str(seed)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.run_command(argv)
        return rc, out.getvalue(), list(self.calls)

    def op_latencies(self, dt: float, out) -> list:
        return [t for recs, _ in out[2] for t, _ in recs]

    def warmup_item(self, item):
        return (item[0], item[1], 1)

    def fingerprint(self, out):
        rc, text, calls = out
        return rc, text, [(repr([r for _, r in recs]), tol) for recs, tol in calls]

    def call_failures(self, item, out) -> int:
        """Failed trials of one CLI call; all of them when it exits 2."""
        trials = item[2]
        rc, text, calls = out
        if rc == 2 or len(calls) != 1 or len(calls[0][0]) != trials:
            return trials
        recs, tol = calls[0]
        bad = {t for t, (_, r) in enumerate(recs) if not (r <= tol)}
        bad |= {f["trial"] for f in json.loads(text)["failures"]}
        return len(bad)

    def failures(self, items, outs) -> list:
        flags = []
        for item, out in zip(items, outs):
            n_bad = self.call_failures(item, out)
            flags.extend([True] * n_bad + [False] * (item[2] - n_bad))
        return flags

    def failures_by_suite(self, items, flags) -> dict:
        out, pos = {}, 0
        for suite, _, trials in items:
            out[suite] = out.get(suite, 0) + sum(flags[pos:pos + trials])
            pos += trials
        return out

    def final_check(self, item) -> bool:
        """The same call twice gives byte-identical output, as documented."""
        first, second = self.do_op(item), self.do_op(item)
        return first[:2] == second[:2]

    def item_to_json(self, item):
        return list(item)

    def item_from_json(self, d):
        return tuple(d)


WORKLOADS = {w.name: w for w in (EllExplicit, TrigRoutes, VerifySuites)}
