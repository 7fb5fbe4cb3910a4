"""SHA-256 fingerprints of ellsixj's outputs, one line per group.

Two checkouts that print the same digest for a group give the same bits
in every output that group covers, so a change meant to keep every output
as it was can be checked against its parent by running this script in
both:

    PYTHONPATH=src python3 tools/fingerprint.py [GROUP ...]
        [--suites S,S,...] [--seeds K,K,...]

Each line is `group count digest`, count being the outputs hashed.  An
output that is an error is hashed as its type and message.  A matrix is
hashed with its `fallback` field, always () as no route defers entries
to another, so digests stay comparable with older checkouts.
Groups (all five when none is named):

  explicit   R_explicit entries on the quads draw_quad(30..39, N) of the
             tests, elliptic N = 0..16 and trigonometric N = 0..8, 12, 16,
             32, 64
  routes     the four routes on the same quads at trigonometric N <= 8
  multiconv  multiconv_rhs on the inputs of the acceptance test
             test_c05_binary_convolution_variants: 480 calls, 12,960
             values
  band       RECURRENCE, PATHS and EXPLICIT on band quads, where the
             closed form is mostly resonant: the 40 quads of the
             acceptance test test_c11_band_support and the 56 quads
             elliptic_W6j reads at q = 0.43, p = 0.11, u = 0.37 + 0.1i,
             xi = 0.21, M = 1, 2 and N = 1..8
  verify     exit code, stdout and stderr of
             `python3 -m ellsixj.cli verify --suite S --trials 12 --seed K`
             for each of --suites (default all ten) and --seeds
             (default 3,7,11)
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ellsixj.basis import BasisPair, basis_valid
from ellsixj.context import make_context
from ellsixj.errors import SixjError
from ellsixj.harness import (
    SUITES,
    Level,
    SampleConfig,
    Shape,
    _ctx_for,
    _draw,
    _sample_quad,
    _trial_rng,
    sample_generic,
)
from ellsixj.sixj import (
    R_explicit,
    R_matrix,
    Route,
    _w6j_quad,
    band_quad,
    multiconv_rhs,
)

SRC = Path(__file__).resolve().parent.parent / "src"
SEEDS = range(30, 40)


def _quad(seed: int, N: int, level: Level):
    """The quad `draw_quad(seed, N, level)` of the tests."""
    cfg = SampleConfig(seed=seed, N_max=max(N, 1))
    return sample_generic(cfg, Shape.QUAD, N=N, level=level)


def _outcome(fn, *args) -> bytes:
    """fn(*args) as bytes, or its SixjError as type and message."""
    try:
        out = fn(*args)
    except SixjError as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    if hasattr(out, "entries"):
        return out.entries.tobytes() + repr(out.fallback).encode()
    return np.array(out, dtype=complex).tobytes()


def explicit():
    sizes = [(Level.ELLIPTIC, N) for N in range(17)]
    sizes += [(Level.TRIG, N) for N in (*range(9), 12, 16, 32, 64)]
    for level, N in sizes:
        for seed in SEEDS:
            yield _outcome(R_explicit, _quad(seed, N, level))


def routes():
    for N in range(9):
        for seed in SEEDS:
            quad = _quad(seed, N, Level.TRIG)
            for route in Route:
                yield _outcome(R_matrix, quad, route)


def multiconv():
    """One output per (sigma, tau) call of the c05 loop, of all its cases."""
    for level in (Level.TRIG, Level.ELLIPTIC):
        for pair, (M, Nn) in enumerate(((1, 1), (1, 2), (2, 2))):
            cfg = SampleConfig(seed=501 + pair, trials=20, N_max=M + Nn)
            cases = [
                ((k1, k2), l)
                for k1 in range(M + 1)
                for k2 in range(Nn + 1)
                for l in range(M + Nn + 1)
            ]
            for t in range(cfg.trials):
                rng = _trial_rng(cfg, t)
                quad = _sample_quad(rng, M + Nn, _ctx_for(cfg, rng, level))
                for sigma in ((0, 1), (1, 0)):
                    for tau in ((0, 1), (1, 0)):
                        yield _outcome(multiconv_rhs, cases, (M, Nn), quad, sigma, tau)


def _band_quads():
    """The quads of test_c11_band_support, drawn as it draws them, then
    those of elliptic_W6j at the heights i, j of each M."""
    cfg = SampleConfig(seed=1101, trials=20, N_max=3)
    for M, N in ((1, 2), (2, 3)):
        for t in range(cfg.trials):
            rng = _trial_rng(cfg, t)
            ctx = _ctx_for(cfg, rng, Level.ELLIPTIC)
            m = int(rng.integers(0, M + 1))
            for _ in range(100):
                a, b = _draw(rng), _draw(rng)
                quad = band_quad(a, b, m, M, N, ctx)
                cd_ok = basis_valid(BasisPair(quad.c, quad.d, N), ctx)
                if cd_ok and basis_valid(BasisPair(a, b, N), ctx):
                    yield quad
                    break
    ctx = make_context(0.43, p=0.11)
    for N in range(1, 9):
        for M in (1, 2):
            for i in range(M + 1):
                for j in range(M + 1):
                    if (M + j - i) % 2 == 0:
                        yield _w6j_quad(i, j, 0.37 + 0.1j, 0.21, M, N, ctx)


def band():
    for quad in _band_quads():
        for route in (Route.RECURRENCE, Route.PATHS, Route.EXPLICIT):
            yield _outcome(R_matrix, quad, route)


def verify(suites, seeds):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    for suite in suites:
        for seed in seeds:
            argv = ["verify", "--suite", suite, "--trials", "12", "--seed", str(seed)]
            run = subprocess.run(
                [sys.executable, "-m", "ellsixj.cli", *argv],
                capture_output=True, env=env, check=False,
            )
            yield b"%d\n%b\n%b" % (run.returncode, run.stdout, run.stderr)


def digest(outputs) -> tuple:
    """The number of outputs and the SHA-256 of them, each length-prefixed."""
    h, count = hashlib.sha256(), 0
    for out in outputs:
        h.update(len(out).to_bytes(8, "little") + out)
        count += 1
    return count, h.hexdigest()


def main(argv=None) -> int:
    groups = {
        "explicit": explicit, "routes": routes, "multiconv": multiconv, "band": band,
    }
    parser = argparse.ArgumentParser(prog="fingerprint")
    parser.add_argument("groups", nargs="*", help=", ".join([*groups, "verify"]))
    parser.add_argument("--suites", default=",".join(SUITES))
    parser.add_argument("--seeds", default="3,7,11")
    args = parser.parse_args(argv)
    unknown = set(args.groups) - {*groups, "verify"}
    if unknown:
        parser.error(f"unknown group(s): {', '.join(sorted(unknown))}")
    for name in args.groups or [*groups, "verify"]:
        if name == "verify":
            seeds = [int(s) for s in args.seeds.split(",")]
            outputs = verify(args.suites.split(","), seeds)
        else:
            outputs = groups[name]()
        print(name, *digest(outputs), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
