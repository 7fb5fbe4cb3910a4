"""Per-layer tracing for the benchmark's traced run.

Wrappers go on module attributes at each layer boundary, where callers
look the names up.  Each wrapper opens a span on one stack; when the span
closes, its duration, its self time (duration minus the time its child
spans cover) and its call count are folded into totals by name, so memory
stays flat however many calls a pass makes.  The hot kernel boundary uses
a cheaper leaf wrapper that only counts and times.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

import numpy as np

from ellsixj import backend, basis, cli, harness, scalar, sixj, sklyanin, wilson
from ellsixj.errors import SixjError

KERNELS = ("theta", "qpoch", "epoch", "vwp_sum", "phi_sum", "f_sum")
# kernels that call other kernels through their module's globals
KERNEL_PARENTS = ("epoch", "vwp_sum")
SCALAR = ("theta", "thetas", "elliptic_pochhammer", "epochs", "q_pochhammer",
          "qpochs", "q_binomial", "rising_factorial")
ROUTES = {
    "explicit": "R_explicit", "recurrence": "R_double_sum",
    "paths": "R_paths", "solve": "R_solve",
}
WILSON = ("eto_pairing_sum", "eto_norm", "wilson_biorth_sum", "wilson_norm",
          "wilson_addition")
SKLYANIN = ("eigenrelation_check", "operator_matrix", "off_band_mass", "gevp_check")


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _put(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    def __init__(self):
        self.stack = [["root", 0.0]]
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.calls = Counter()
        self.failed = Counter()
        self.by_parent = Counter()
        self.fallback_entries = 0
        self.cond_max = 0.0
        self._undo = []

    def _set(self, owner, attr, new):
        self._undo.append((owner, attr, _get(owner, attr)))
        _put(owner, attr, new)

    def span(self, owner, attr, name, on_result=None):
        fn = _get(owner, attr)
        stack, total, self_time, calls = self.stack, self.total, self.self_time, self.calls

        def wrapper(*args, **kwargs):
            self.by_parent[name, stack[-1][0]] += 1
            frame = [name, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except SixjError:
                self.failed[name] += 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                stack[-1][1] += dt
                total[name] += dt
                self_time[name] += dt - frame[1]
                calls[name] += 1
            if on_result is not None:
                on_result(out)
            return out

        self._set(owner, attr, wrapper)

    def leaf(self, owner, attr, name):
        fn = _get(owner, attr)
        stack, total, self_time, calls = self.stack, self.total, self.self_time, self.calls

        def wrapper(*args):
            t0 = perf_counter()
            try:
                return fn(*args)
            finally:
                dt = perf_counter() - t0
                stack[-1][1] += dt
                total[name] += dt
                self_time[name] += dt
                calls[name] += 1

        self._set(owner, attr, wrapper)

    def install(self, workload) -> None:
        k = backend.kernels
        for name in KERNELS:
            if name in KERNEL_PARENTS:
                self.span(k, name, f"kernels.{name}")
            else:
                self.leaf(k, name, f"kernels.{name}")
        for name in SCALAR:
            self.span(scalar, name, f"scalar.{name}")
        for owner in (sixj, harness):
            self.span(owner, "eval_V12", "series.eval_V12")
        for owner in (sixj, harness, sklyanin):
            self.span(owner, "expand_by_solve", "basis.expand_by_solve")
        self.span(basis, "solve_in_basis", "basis.solve_in_basis", self._on_solve)
        for route, fn in ROUTES.items():
            self.span(sixj, fn, f"sixj.route.{route}", self._on_route(route))
        for owner in (harness, wilson):
            self.span(owner, "R_explicit", "sixj.route.explicit", self._on_route("explicit"))
        for owner in (sixj, harness):
            self.span(owner, "R_matrix", "sixj.R_matrix")
        self.span(harness, "multiconv_rhs", "sixj.multiconv_rhs")
        for name in WILSON:
            self.span(harness, name, f"wilson.{name}")
        for name in SKLYANIN:
            self.span(sklyanin, name, f"sklyanin.{name}")
        for suite in list(harness.SUITES):
            self.span(harness.SUITES, suite, f"harness.{suite}")
        self.span(harness, "basis_valid", "harness.basis_valid")
        for name in ("_sample_quad", "_sample_triple"):
            self.span(harness, name, "harness.sampler.accepted")
        self.span(cli, "run_command", "cli.run_command")
        self.span(workload, "do_op", "bench.op")

    def uninstall(self) -> None:
        while self._undo:
            _put(*self._undo.pop())

    def _on_solve(self, out) -> None:
        self.cond_max = max(self.cond_max, float(out[1]))

    def _on_route(self, route):
        name = f"sixj.route.{route}"

        def check(out) -> None:
            if not np.isfinite(out.entries).all():
                self.failed[name] += 1
            if route == "explicit":
                self.fallback_entries += len(out.fallback)

        return check

    def metrics(self, ops: int, suites, trials_per_call: int, trials_failed: dict) -> dict:
        """Per-layer metrics over the `ops` benchmark ops of the traced passes."""
        op_s = self.total["bench.op"]
        share = lambda s: s / op_s  # noqa: E731
        per_op = lambda name: self.calls[name] / ops  # noqa: E731
        layer_self = lambda prefix: sum(  # noqa: E731
            v for k, v in self.self_time.items() if k.startswith(prefix)
        )
        m = {
            "kernels.theta.calls_per_op": (per_op("kernels.theta"), "count"),
            "kernels.theta.self_s": (self.self_time["kernels.theta"], "s"),
            "kernels.vwp_sum.self_s": (self.self_time["kernels.vwp_sum"], "s"),
            "kernels.epoch.self_share": (share(self.self_time["kernels.epoch"]), "share"),
            "kernels.phi_sum.self_share": (share(self.self_time["kernels.phi_sum"]), "share"),
            "kernels.self_share": (share(layer_self("kernels.")), "share"),
            "scalar.theta.calls_per_op": (per_op("scalar.theta"), "count"),
            "scalar.self_share": (share(layer_self("scalar.")), "share"),
            "series.eval_V12.calls_per_op": (per_op("series.eval_V12"), "count"),
            "series.eval_V12.self_s": (self.self_time["series.eval_V12"], "s"),
            "sixj.R_explicit.self_s": (self.self_time["sixj.route.explicit"], "s"),
            "sixj.R_explicit.fallback_entries": (self.fallback_entries, "count"),
            "sixj.route.explicit.s": (self.total["sixj.route.explicit"], "s"),
        }
        for route in ("recurrence", "paths", "solve"):
            m[f"sixj.route.{route}.share"] = (share(self.total[f"sixj.route.{route}"]), "share")
        for route in ROUTES:
            m[f"sixj.route.{route}.failed"] = (self.failed[f"sixj.route.{route}"], "count")
        conv_calls = self.calls["harness.convolution"] + self.calls["harness.multiconv"]
        m["sixj.multiconv_rhs.R_matrix_calls_per_trial"] = (
            self.by_parent["sixj.R_matrix", "sixj.multiconv_rhs"]
            / max(conv_calls * trials_per_call, 1), "count")
        expands = self.calls["basis.expand_by_solve"]
        m["basis.expand_by_solve.calls"] = (expands, "count")
        m["basis.expand_by_solve.failed"] = (self.failed["basis.expand_by_solve"], "count")
        m["basis.solve_in_basis.attempts_per_expand"] = (
            self.calls["basis.solve_in_basis"] / max(expands, 1), "ratio")
        m["basis.cond_max"] = (self.cond_max, "ratio")
        m["wilson.self_share"] = (share(layer_self("wilson.")), "share")
        m["sklyanin.self_share"] = (share(layer_self("sklyanin.")), "share")
        for suite in suites:
            m[f"harness.{suite}.share"] = (share(self.total[f"harness.{suite}"]), "share")
            m[f"harness.{suite}.trials_failed"] = (trials_failed.get(suite, 0), "count")
        valid_calls = self.calls["harness.basis_valid"]
        accepted = self.calls["harness.sampler.accepted"] - self.failed["harness.sampler.accepted"]
        m["harness.sampler.accept_ratio"] = (accepted / max(valid_calls, 1), "ratio")
        m["cli.run_command.self_share"] = (share(self.self_time["cli.run_command"]), "share")
        return m
