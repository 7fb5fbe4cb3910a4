"""Command-line front end.

Verbs: theta, series, sixj, wilson, sklyanin, verify.  Complex values are
written "re" or "re,im".  Output goes to stdout as a single JSON document
(numbers at 17 significant digits) or, for sixj matrices, as CSV with
header k,l,re,im.  Each verb accepts only the options it reads, series
only those its --family reads and sixj only those its --level reads.
Series families W and V12 need --a; an absent --q, --z or --p is 0.5, 1
or 0.  The elliptic level needs a nonzero --p.  wilson takes a degree --n
in 0..N and either --z or a grid index --k in 0..N, not both.  --tol is
the only way to override the default tolerance of sklyanin and verify,
and must be a finite positive number.
Exit codes: 0 success or all-pass, 1 verification failure, 2 usage error,
141 (128 + SIGPIPE) when stdout closes early, e.g. under `| head`.
"""

from __future__ import annotations

import argparse
import cmath
import os
import sys

import numpy as np

from .context import make_context
from .errors import DomainError, SixjError
from .harness import (
    SampleConfig,
    _json_fragment,
    aggregate_json,
    report_json,
    require_tol,
    run_suite,
)
from .series import eval_V12, eval_W, eval_rFs, eval_rphi_s
from .series import f_spec, phi_spec, v12_spec, w_spec
from .sixj import ParamQuad, Route, R_matrix, krawtchouk_matrix, qracah_matrix
from .sklyanin import eigenrelation_check
from .wilson import WilsonParams, wilson_r
from . import scalar

DEFAULT_Q = 0.5
#: exit status when stdout closes early, 128 + SIGPIPE
EXIT_BROKEN_PIPE = 141
#: the optional options each series family reads
SERIES_READS = {
    "F": ("top", "bottom", "z"),
    "phi": ("top", "bottom", "q", "z"),
    "W": ("a", "b", "q", "z"),
    "V12": ("a", "b", "q", "p"),
}
#: the optional options each sixj level reads
SIXJ_READS = {
    "krawtchouk": (),
    "qracah": ("q",),
    "trig": ("method", "q"),
    "elliptic": ("method", "q", "p"),
}


def parse_complex(s: str) -> complex:
    s = s.strip().replace("−", "-")
    if "," in s:
        re_s, im_s = s.split(",", 1)
        return complex(float(re_s), float(im_s))
    return complex(float(s), 0.0)


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


def _print_doc(verb: str, doc: dict) -> None:
    """Print a verb's JSON document, once each of its numbers is finite."""
    for name, v in doc.items():
        if isinstance(v, (float, complex)) and not cmath.isfinite(v):
            raise DomainError(f"{verb}: {name} left double range: {v}")
    print(_json_fragment(doc))


def _reject_unread(args, table: dict, key: str, what: str) -> bool:
    """Report the options of `table` that were given but table[key] lacks.

    Returns True if there are any.  An option counts as given unless its
    value is None or an empty list.
    """
    # vars(args) lists the options in the order the parser declares them
    names = {n for reads in table.values() for n in reads}
    given = [n for n in vars(args) if n in names and getattr(args, n) not in (None, [])]
    unread = [f"--{n}" for n in given if n not in table[key]]
    if unread:
        print(f"error: {what} {key} does not read {', '.join(unread)}", file=sys.stderr)
    return bool(unread)


def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="ellsixj")
    sub = top.add_subparsers(dest="verb", required=True)

    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("theta")
    p.add_argument("--x", type=parse_complex, required=True)
    p.add_argument("--p", type=parse_complex, default=0j)

    # here and in sixj, None or [] marks an option as not given: a family
    # or level that does not read it rejects it rather than drop it
    p = sub.add_parser("series")
    p.add_argument("--family", choices=tuple(SERIES_READS), required=True)
    p.add_argument("--top", type=parse_complex, action="append", default=[])
    p.add_argument("--bottom", type=parse_complex, action="append", default=[])
    p.add_argument("--a", type=parse_complex)
    p.add_argument("--b", type=parse_complex, action="append", default=[])
    p.add_argument("--q", type=parse_complex)
    p.add_argument("--p", type=parse_complex)
    p.add_argument("--z", type=parse_complex)
    p.add_argument("--terms", type=int, required=True)

    p = sub.add_parser("sixj")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument(
        "--level",
        choices=("krawtchouk", "qracah", "trig", "elliptic"),
        default="trig",
    )
    p.add_argument("--method", choices=tuple(r.value for r in Route))
    for name in ("a", "b", "c", "d"):
        p.add_argument(f"--{name}", type=parse_complex, required=True)
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--q", type=parse_complex)
    p.add_argument("--p", type=parse_complex)

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
            _print_doc("theta", {"x": args.x, "p": args.p, "value": val})
            return 0

        if args.verb == "series":
            family = args.family
            if _reject_unread(args, SERIES_READS, family, "family"):
                return 2
            if family in ("W", "V12") and args.a is None:
                print(f"error: family {family} needs --a", file=sys.stderr)
                return 2
            q = args.q if args.q is not None else complex(DEFAULT_Q)
            p = args.p if args.p is not None else 0j
            z = args.z if args.z is not None else 1.0 + 0j
            make_context(q, p=p)  # rejects q = 0 and |p| >= 1 for every family
            if family == "F":
                val = eval_rFs(f_spec(args.top, args.bottom, z, args.terms))
            elif family == "phi":
                val = eval_rphi_s(phi_spec(args.top, args.bottom, q, z, args.terms))
            elif family == "W":
                val = eval_W(w_spec(args.a, args.b, q, z, args.terms))
            else:
                val = eval_V12(v12_spec(args.a, args.b, q, p, args.terms))
            _print_doc("series", {"family": family, "value": val})
            return 0

        if args.verb == "sixj":
            if _reject_unread(args, SIXJ_READS, args.level, "level"):
                return 2
            if args.level == "elliptic" and not args.p:
                print("error: level elliptic needs a nonzero --p", file=sys.stderr)
                return 2
            meta = {
                "level": args.level, "N": args.N,
                "a": args.a, "b": args.b, "c": args.c, "d": args.d,
            }
            if args.level == "krawtchouk":
                mat = krawtchouk_matrix(args.N, args.a, args.b, args.c, args.d)
            else:
                q = args.q if args.q is not None else complex(DEFAULT_Q)
                p = args.p if args.p is not None else 0j
                ctx = make_context(q, p=p)
                quad = ParamQuad(args.a, args.b, args.c, args.d, args.N, ctx)
                meta.update({"q": q, "p": p})
                if args.level == "qracah":
                    mat = qracah_matrix(quad)
                else:
                    method = Route(args.method or Route.EXPLICIT.value)
                    mat = R_matrix(quad, method).entries
            print(_emit_matrix(mat, args.format, meta))
            return 0

        if args.verb == "wilson":
            if args.z is not None and args.k is not None:
                print("error: give --z or --k, not both", file=sys.stderr)
                return 2
            if args.k is not None and not 0 <= args.k <= args.N:
                print(f"error: need 0 <= --k <= --N = {args.N}", file=sys.stderr)
                return 2
            wp = WilsonParams(
                args.a, args.b, args.c, args.d, args.e, args.f, args.q, args.N
            )
            z = args.z if args.z is not None else wp.grid_z(args.k or 0)
            val = wilson_r(args.n, z, wp)
            _print_doc("wilson", {"n": args.n, "z": z, "value": val})
            return 0

        if args.verb == "sklyanin":
            tol = args.tol if args.tol is not None else 1e-7
            require_tol(tol)
            ctx = make_context(args.q, p=args.p)
            res = eigenrelation_check(args.a, args.b, args.c, args.k, args.N, ctx)
            _print_doc("sklyanin", {"residual": res, "tol": tol, "pass": res <= tol})
            return 0 if res <= tol else 1

        cfg = SampleConfig(
            seed=args.seed,
            trials=args.trials,
            N_max=args.N_max,
            p_max=args.p_max,
            tol=args.tol,
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
