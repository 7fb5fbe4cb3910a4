"""Command-line front end.

Verbs: theta, series, sixj, wilson, sklyanin, verify.  Complex values are
written "re" or "re,im".  Output goes to stdout as a single JSON document
(numbers at 17 significant digits) or, for sixj matrices, as CSV with
header k,l,re,im.  Each verb accepts only the options it reads.  Exit
codes: 0 success or all-pass, 1 verification failure, 2 usage error,
141 (128 + SIGPIPE) when stdout closes early, e.g. under `| head`.  The
environment variable SIXJ_TOL supplies the default tolerance of sklyanin
and verify; an explicit --tol wins.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .context import make_context
from .errors import SixjError
from .harness import (
    SUITES,
    SampleConfig,
    _json_fragment,
    aggregate_json,
    report_json,
    run_suite,
)
from .series import eval_series, f_spec, phi_spec, v12_spec, w_spec
from .sixj import ParamQuad, Route, R_matrix, krawtchouk_matrix, qracah_matrix
from .sklyanin import eigenrelation_check
from .wilson import WilsonParams, wilson_r
from . import scalar

DEFAULT_Q = 0.5
#: exit status when stdout closes early, 128 + SIGPIPE
EXIT_BROKEN_PIPE = 141


def parse_complex(s: str) -> complex:
    s = s.strip().replace("−", "-")
    if "," in s:
        re_s, im_s = s.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(float(s), 0.0)


def _tol(args, fallback: float | None) -> float | None:
    if args.tol is not None:
        return args.tol
    env = os.environ.get("SIXJ_TOL")
    if env:
        return float(env)
    return fallback


def _emit_matrix(mat: np.ndarray, fmt: str, meta: dict) -> str:
    if fmt == "csv":
        lines = ["k,l,re,im"]
        n = mat.shape[0]
        for k in range(n):
            for l in range(n):
                v = complex(mat[k, l])
                lines.append(
                    f"{k},{l},{format(v.real, '.17g')},{format(v.imag, '.17g')}"
                )
        return "\n".join(lines)
    meta = dict(meta)
    meta["entries"] = [[complex(v) for v in row] for row in mat]
    return _json_fragment(meta)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ellsixj")
    sub = top.add_subparsers(dest="verb", required=True)

    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("theta")
    p.add_argument("--x", type=parse_complex, required=True)
    p.add_argument("--p", type=parse_complex, default=0j)

    p = sub.add_parser("series")
    p.add_argument("--family", choices=("F", "phi", "W", "V12"), required=True)
    p.add_argument("--top", type=parse_complex, action="append", default=[])
    p.add_argument("--bottom", type=parse_complex, action="append", default=[])
    p.add_argument("--a", type=parse_complex)
    p.add_argument("--b", type=parse_complex, action="append", default=[])
    p.add_argument("--q", type=parse_complex, default=complex(DEFAULT_Q))
    p.add_argument("--p", type=parse_complex, default=0j)
    p.add_argument("--z", type=parse_complex, default=1.0 + 0j)
    p.add_argument("--terms", type=int, required=True)

    p = sub.add_parser("sixj")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument(
        "--level",
        choices=("krawtchouk", "qracah", "trig", "elliptic"),
        default="trig",
    )
    p.add_argument(
        "--method",
        choices=tuple(r.value for r in Route),
        default=Route.EXPLICIT.value,
    )
    for name in ("a", "b", "c", "d"):
        p.add_argument(f"--{name}", type=parse_complex, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--q", type=parse_complex, default=complex(DEFAULT_Q))
    p.add_argument("--p", type=parse_complex, default=0j)

    p = sub.add_parser("wilson")
    for name in ("a", "b", "c", "d", "e", "f"):
        p.add_argument(f"--{name}", type=parse_complex, required=True)
    p.add_argument("--q", type=parse_complex, default=complex(DEFAULT_Q))
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--z", type=parse_complex)
    p.add_argument("--k", type=int, help="grid index used when --z is absent")

    p = sub.add_parser("sklyanin", parents=[tol])
    for name in ("a", "b", "c"):
        p.add_argument(f"--{name}", type=parse_complex, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--q", type=parse_complex, default=complex(DEFAULT_Q))
    p.add_argument("--p", type=parse_complex, default=0j)

    p = sub.add_parser("verify", parents=[tol])
    p.add_argument("--suite", action="append", default=None)
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--N-max", type=int, default=4)
    p.add_argument("--p-max", type=float, default=0.3)
    p.add_argument("--gen-delta", type=float, default=1e-5)
    return top


def run_command(argv) -> int:
    try:
        args = _build_parser().parse_args(list(argv))
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0

    try:
        if args.verb == "theta":
            ctx = make_context(complex(DEFAULT_Q), p=args.p)
            val = scalar.theta(args.x, ctx)
            print(_json_fragment({"x": args.x, "p": args.p, "value": val}))
            return 0

        if args.verb == "series":
            if args.family == "F":
                spec = f_spec(args.top, args.bottom, args.z, args.terms)
            elif args.family == "phi":
                spec = phi_spec(args.top, args.bottom, args.q, args.z, args.terms)
            elif args.family == "W":
                spec = w_spec(args.a, args.b, args.q, args.z, args.terms)
            else:
                spec = v12_spec(args.a, args.b, args.q, args.p, args.terms)
            ctx = make_context(args.q, p=args.p)
            val = eval_series(spec, ctx if args.family == "V12" else None)
            print(_json_fragment({"family": args.family, "value": val}))
            return 0

        if args.verb == "sixj":
            meta = {
                "level": args.level, "N": args.N,
                "a": args.a, "b": args.b, "c": args.c, "d": args.d,
            }
            if args.level == "krawtchouk":
                mat = krawtchouk_matrix(args.N, args.a, args.b, args.c, args.d)
            else:
                p = args.p if args.level == "elliptic" else 0j
                ctx = make_context(args.q, p=p)
                quad = ParamQuad(args.a, args.b, args.c, args.d, args.N, ctx)
                meta.update({"q": args.q, "p": p})
                if args.level == "qracah":
                    mat = qracah_matrix(quad)
                else:
                    mat = R_matrix(quad, Route(args.method)).entries
            print(_emit_matrix(mat, args.format, meta))
            return 0

        if args.verb == "wilson":
            wp = WilsonParams(
                args.a, args.b, args.c, args.d, args.e, args.f, args.q, args.N
            )
            z = args.z if args.z is not None else wp.grid_z(args.k or 0)
            val = wilson_r(args.n, z, wp)
            print(_json_fragment({"n": args.n, "z": z, "value": val}))
            return 0

        if args.verb == "sklyanin":
            ctx = make_context(args.q, p=args.p)
            res = eigenrelation_check(args.a, args.b, args.c, args.k, args.N, ctx)
            tol = _tol(args, 1e-7)
            print(_json_fragment({"residual": res, "tol": tol, "pass": res <= tol}))
            return 0 if res <= tol else 1

        cfg = SampleConfig(
            seed=args.seed,
            trials=args.trials,
            N_max=args.N_max,
            gen_delta=args.gen_delta,
            p_max=args.p_max,
            tol=_tol(args, None),
        )
        names = set(args.suite) if args.suite else {"all"}
        agg = run_suite(names, cfg)
        if len(agg.reports) == 1:
            print(report_json(agg.reports[0]))
        else:
            print(aggregate_json(agg))
        return 0 if agg.passed else 1
    except (SixjError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: point stdout at devnull so that the flush at
        # interpreter exit cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        code = EXIT_BROKEN_PIPE
    sys.exit(code)


if __name__ == "__main__":
    main()
