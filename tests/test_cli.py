"""Command-line surface: parsing, formats, exit codes, tolerances."""

import json
import os
import sys

import numpy as np
import pytest

from conftest import rel
from ellsixj import cli
from ellsixj.cli import parse_complex, run_command
from ellsixj.harness import LEVEL_TOL, Level
from ellsixj.context import make_context
from ellsixj.sixj import ParamQuad, R_explicit


def _run(capsys, *argv):
    code = run_command(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_complex_forms():
    assert parse_complex("1.5") == 1.5 + 0j
    assert parse_complex(" 2,-3 ") == 2 - 3j
    assert parse_complex("−1.5") == -1.5 + 0j  # unicode minus
    with pytest.raises(ValueError):
        parse_complex("one")


def test_theta_verb(capsys):
    code, out, _ = _run(capsys, "theta", "--x", "1", "--p", "0.2")
    assert code == 0
    doc = json.loads(out)
    assert doc["value"] == [0.0, 0.0]


def test_series_verb(capsys):
    code, out, _ = _run(
        capsys, "series", "--family", "phi", "--top", "0.9", "--top", "16",
        "--bottom", "0.55", "--q", "0.25", "--z", "0.3", "--terms", "2",
    )
    assert code == 0
    val = json.loads(out)["value"]
    assert np.isfinite(val[0]) and np.isfinite(val[1])


def test_sixj_csv_round_trips_matrix_entries(capsys):
    args = ["sixj", "--level", "elliptic", "--a", "1.2,0.3", "--b", "0.8,-0.2",
            "--c", "1.1,0.4", "--d", "0.7,0.2", "--N", "2", "--q", "0.45",
            "--p", "0.1", "--format", "csv"]
    code, out, _ = _run(capsys, *args)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,l,re,im"
    assert len(lines) == 1 + 9
    ctx = make_context(0.45, p=0.1)
    want = R_explicit(
        ParamQuad(1.2 + 0.3j, 0.8 - 0.2j, 1.1 + 0.4j, 0.7 + 0.2j, 2, ctx)
    ).entries
    for row in lines[1:]:
        k, l, re, im = row.split(",")
        # 17 significant digits round-trip doubles exactly
        assert complex(float(re), float(im)) == want[int(k), int(l)]


def test_sixj_json_format(capsys):
    code, out, _ = _run(
        capsys, "sixj", "--a", "1.2", "--b", "0.8", "--c", "1.1",
        "--d", "0.7,0.2", "--N", "1", "--q", "0.45",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["level"] == "trig"
    assert len(doc["entries"]) == 2


def test_sixj_krawtchouk_level(capsys):
    code, out, _ = _run(
        capsys, "sixj", "--level", "krawtchouk", "--a", "2", "--b", "1",
        "--c", "1", "--d", "1", "--N", "2", "--format", "csv",
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 10


def test_wilson_verb(capsys):
    q, N = 0.45, 2
    a = 1.1
    b = q**-N / a
    c, d, e = 0.8, 1.2, 0.7
    f = q ** (N + 1) / (c * d * e)
    code, out, _ = _run(
        capsys, "wilson", "--a", str(a), "--b", str(b), "--c", str(c),
        "--d", str(d), "--e", str(e), "--f", str(f), "--q", str(q),
        "--N", str(N), "--n", "1", "--k", "1",
    )
    assert code == 0
    assert "value" in json.loads(out)


def test_sklyanin_verb_passes_and_fails_by_tol(capsys):
    args = ["sklyanin", "--a", "1.1,0.2", "--b", "0.8,-0.3", "--c", "1.3,0.1",
            "--k", "1", "--N", "2", "--q", "0.45"]
    code, out, _ = _run(capsys, *args)
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True and doc["tol"] == 1e-7
    code, out, _ = _run(capsys, *args, "--tol", "1e-30")
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_verify_single_suite_is_deterministic(capsys):
    args = ["verify", "--suite", "symmetry", "--trials", "2", "--N-max", "3",
            "--seed", "5"]
    code1, out1, _ = _run(capsys, *args)
    code2, out2, _ = _run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["suite"] == "symmetry" and doc["pass"] is True


def test_verify_multiple_suites_aggregate(capsys):
    code, out, _ = _run(
        capsys, "verify", "--suite", "biorth", "--suite", "symmetry",
        "--trials", "2", "--N-max", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert len(doc["reports"]) == 2


def test_verify_failure_exit_code(capsys):
    code, out, _ = _run(
        capsys, "verify", "--suite", "symmetry", "--trials", "2",
        "--N-max", "3", "--tol", "1e-30",
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


def test_usage_errors_exit_two(capsys):
    code, _, _ = _run(capsys, "sixj", "--a", "1.1")  # missing required args
    assert code == 2
    code, _, _ = _run(capsys, "frobnicate")
    assert code == 2
    # domain failures surface as usage errors on stderr, not tracebacks
    code, _, err = _run(
        capsys, "sixj", "--a", "1.1", "--b", "0.9", "--c", "1.2", "--d", "0.8",
        "--N", "-2", "--q", "0.45",
    )
    assert code == 2
    assert "error:" in err
    code, out, err = _run(
        capsys, "sixj", "--level", "krawtchouk", "--a", "1", "--b", "0",
        "--c", "0", "--d", "1", "--N", "-1",
    )
    assert code == 2 and out == ""
    assert err.startswith("error:")
    # the elliptic level needs a nonzero nome: p = 0 is the trig level
    elliptic = ["sixj", "--level", "elliptic", "--a", "1.3", "--b", "0.8",
                "--c", "0.6,0.2", "--d", "1.1", "--N", "1", "--q", "0.45"]
    for extra in ([], ["--p", "0"]):
        code, out, err = _run(capsys, *elliptic, *extra)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
    # a wilson grid index must lie in 0..N
    wilson = ["wilson", "--n", "1", "--a", "1.2", "--b", "2.314814814814815",
              "--c", "1.1", "--d", "0.9", "--e", "1.3",
              "--f", "0.16783216783216784", "--N", "2", "--q", "0.6"]
    assert _run(capsys, *wilson, "--k", "2")[0] == 0
    for k in ("7", "-1"):
        code, out, err = _run(capsys, *wilson, "--k", k)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1


def test_verbs_reject_options_they_do_not_read(capsys):
    theta = ["theta", "--x", "1", "--p", "0.2"]
    wilson = ["wilson", "--a", "1.1", "--b", "0.9", "--c", "0.8", "--d", "1.2",
              "--e", "0.7", "--f", "1.3", "--N", "2", "--n", "1"]
    verify = ["verify", "--suite", "symmetry", "--trials", "1", "--N-max", "2"]
    quad = ["--a", "1.2", "--b", "0.8", "--c", "1.1", "--d", "0.7", "--N", "2"]
    for argv in (
        ["sixj", *quad, "--level", "trig", "--p", "0.2"],
        ["sixj", *quad, "--level", "qracah", "--p", "0.2"],
        ["sixj", *quad, "--level", "qracah", "--method", "solve"],
        ["sixj", *quad, "--level", "krawtchouk", "--method", "explicit"],
        ["sixj", *quad, "--level", "krawtchouk", "--q", "0.45"],
        ["sixj", *quad, "--level", "krawtchouk", "--p", "0.2"],
        [*verify, "--theta-eps", "1e-12"],
        [*verify, "--gen-delta", "1e-5"],
        [*verify, "--format", "csv"],
        [*wilson, "--tol", "1e-3"],
        [*wilson, "--theta-eps", "1e-12"],
        [*theta, "--format", "csv"],
        [*theta, "--tol", "1e-3"],
        [*theta, "--theta-eps", "1e-12"],
    ):
        code, out, _ = _run(capsys, *argv)
        assert code == 2 and out == ""
    # valid Wilson parameters, so only giving both --z and --k is at fault
    wilson_ok = ["wilson", "--n", "1", "--a", "1.2", "--b", "2.314814814814815",
                 "--c", "1.1", "--d", "0.9", "--e", "1.3",
                 "--f", "0.16783216783216784", "--N", "2", "--q", "0.6"]
    assert _run(capsys, *wilson_ok, "--z", "0.5")[0] == 0
    code, out, err = _run(capsys, *wilson_ok, "--z", "0.5", "--k", "1")
    assert code == 2 and out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_help_exits_cleanly(capsys):
    code, _, _ = _run(capsys, "--help")
    assert code == 0


def test_large_N_exits_cleanly(capsys):
    # prefactor powers q^(l(l-N)) overflow a complex power at N = 64
    quad = ["--a", "1.2,0.3", "--b", "0.8,-0.2", "--c", "1.1,0.4",
            "--d", "0.7,0.2", "--N", "64", "--q", "0.41"]
    mats = {}
    for method in ("explicit", "recurrence"):
        code, out, _ = _run(capsys, "sixj", *quad, "--method", method)
        assert code == 0
        mats[method] = np.array(
            [[complex(*v) for v in row] for row in json.loads(out)["entries"]]
        )
    assert rel(mats["explicit"], mats["recurrence"]) < LEVEL_TOL[Level.TRIG]
    # the q-Racah entries exceed a double here: a usage error, not a traceback
    code, out, err = _run(capsys, "sixj", *quad, "--level", "qracah")
    assert code == 2 and out == "" and err.startswith("error: non-finite")


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def __init__(self, fd):
        self.fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def fileno(self):
        return self.fd


def test_main_exits_quietly_on_closed_stdout(monkeypatch, tmp_path, capsys):
    fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
    try:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(fd))
        monkeypatch.setattr(
            sys, "argv", ["ellsixj", "theta", "--x", "1.7,0.3", "--p", "0.2"]
        )
        with pytest.raises(SystemExit) as exc:
            cli.main()
    finally:
        os.close(fd)
    assert exc.value.code == cli.EXIT_BROKEN_PIPE == 141
    assert capsys.readouterr().err == ""
