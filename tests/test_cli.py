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
from ellsixj.series import (
    eval_V12,
    eval_W,
    eval_rFs,
    eval_rphi_s,
    f_spec,
    phi_spec,
    v12_spec,
    w_spec,
)
from ellsixj.sixj import ParamQuad, R_explicit, Route


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
    # V12 parameters balanced as a^3 q^(n+2) = b1 ... b6, with a = 1.1, q = 0.5
    b6 = 1.1**3 * 0.5**3 / (0.5 * 0.7 * 1.2 * 1.3 * 0.9)
    v12_bs = (0.5, 0.7, 1.2, 1.3, 0.9, b6, 2.0)
    cases = {
        "F": (["--top", "0.5", "--top", "-2", "--bottom", "1.5", "--z", "0.3"],
              eval_rFs(f_spec((0.5, -2), (1.5,), 0.3, 2))),
        "phi": (["--top", "0.9", "--top", "16", "--bottom", "0.55", "--q", "0.25",
                 "--z", "0.3"],
                eval_rphi_s(phi_spec((0.9, 16), (0.55,), 0.25, 0.3, 2))),
        "W": (["--a", "1.1", "--b", "0.8", "--b", "4", "--z", "0.3"],
              eval_W(w_spec(1.1, (0.8, 4), 0.5, 0.3, 2))),
        "V12": (["--a", "1.1", *[o for b in v12_bs for o in ("--b", repr(b))],
                 "--p", "0.1"],
                eval_V12(v12_spec(1.1, v12_bs, 0.5, 0.1, 1))),
    }
    for family, (opts, want) in cases.items():
        terms = "1" if family == "V12" else "2"
        code, out, _ = _run(
            capsys, "series", "--family", family, *opts, "--terms", terms
        )
        assert code == 0, family
        assert complex(*json.loads(out)["value"]) == want, family
    # each family rejects an option it does not read, and W and V12 need --a
    rejected = (
        ["F", "--top", "0.5", "--top", "-2", "--terms", "2", "--a", "7"],
        ["phi", "--top", "16", "--q", "0.25", "--terms", "2", "--p", "0.2"],
        ["W", "--a", "1.1", "--b", "4", "--terms", "2", "--bottom", "1.5"],
        ["V12", *cases["V12"][0], "--terms", "1", "--z", "0.3"],
        ["W", "--b", "4", "--terms", "2"],
        # q = 0 is outside the supported regime for every family that reads q
        ["phi", "--top", "0.9", "--top", "16", "--bottom", "0.55", "--q", "0",
         "--terms", "2"],
        ["W", "--a", "1.1", "--b", "4", "--q", "0", "--terms", "2"],
    )
    for argv in rejected:
        code, out, err = _run(capsys, "series", "--family", *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error:") and len(err.splitlines()) == 1, argv


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


def test_krawtchouk_values_out_of_double_range_are_usage_errors(capsys):
    # ad - bc is NaN at 1e200, a power overflows at 1e160, and a product
    # of finite powers at 1e154: one error line naming the value, exit 2
    argvs = {
        ("1e200", "1e200", "1e200", "1e200"): "ad - bc = (nan+0j) left double range",
        ("1e160", "0", "0", "1e-160"): "power (1e+160+0j)**2 left double range",
        ("1e154", "1e154", "0", "1e-154"): "non-finite matrix entries at N = 2",
    }
    for (a, b, c, d), msg in argvs.items():
        code, out, err = _run(
            capsys, "sixj", "--level", "krawtchouk", "--a", a, "--b", b,
            "--c", c, "--d", d, "--N", "2",
        )
        assert (code, out, err) == (2, "", f"error: {msg}\n"), (a, b, c, d)


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
    # a zero parameter the route divides by is named, not a traceback
    zero_d = ["sixj", "--a", "1.1", "--b", "0.9", "--c", "1.2", "--d", "0",
              "--N", "2", "--q", "0.45"]
    code, out, err = _run(capsys, *zero_d)
    assert code == 2 and out == ""
    assert err == "error: route explicit needs d != 0\n"
    assert _run(capsys, *zero_d, "--method", "solve")[0] == 0
    # a wilson grid index must lie in 0..N
    wilson = ["wilson", "--n", "1", "--a", "1.2", "--b", "2.314814814814815",
              "--c", "1.1", "--d", "0.9", "--e", "1.3",
              "--f", "0.16783216783216784", "--N", "2", "--q", "0.6"]
    assert _run(capsys, *wilson, "--k", "2")[0] == 0
    for k in ("7", "-1"):
        code, out, err = _run(capsys, *wilson, "--k", k)
        assert code == 2 and out == ""
        assert err.startswith("error:") and len(err.splitlines()) == 1
    # and so must the degree: the last --n given replaces the first
    for n in ("3", "-1"):
        code, out, err = _run(capsys, *wilson, "--n", n)
        assert code == 2 and out == ""
        assert err == "error: need 0 <= n <= N\n"


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
    # the unread options are named in the order the parser declares them
    code, _, err = _run(capsys, "sixj", *quad, "--level", "krawtchouk",
                        "--q", "0.5", "--method", "explicit")
    assert code == 2
    assert err == "error: level krawtchouk does not read --method, --q\n"
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


def test_base_powers_out_of_double_range_are_usage_errors(capsys):
    # q^N or q^-N underflows to 0 or overflows: one error line, exit 2
    quad = ["--a", "1.2,0.3", "--b", "0.8,-0.2", "--c", "1.1,0.4",
            "--d", "0.7,0.2"]
    sixj = ["sixj", *quad, "--N", "40"]
    argvs = [[*sixj, "--q", q, "--method", route.value]
             for q in ("1e-10", "1e10") for route in Route]
    argvs += [
        [*sixj, "--q", "1e-10", "--level", "qracah"],
        ["sixj", *quad, "--N", "8", "--q", "1e-40", "--level", "elliptic",
         "--p", "0.1"],
        ["sklyanin", "--a", "1.2", "--b", "1", "--c", "1.1", "--k", "0", "--N", "40",
         "--q", "1e-10"],
        ["series", "--family", "phi", "--top", "2", "--q", "1e-10", "--terms", "40"],
        ["wilson", "--a", "1e150", "--b", "1e150", "--c", "1e-150", "--d", "1e-150",
         "--e", "1", "--f", "1e-10", "--q", "1e-10", "--N", "31", "--n", "1",
         "--k", "0"],
        ["wilson", "--a", "1.2", "--b", "1", "--c", "1.1", "--d", "0.9", "--e", "0.8",
         "--f", "0", "--q", "0", "--N", "2", "--n", "1", "--k", "0"],
    ]
    for argv in argvs:
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith("error: q = ") and len(err.splitlines()) == 1, argv


def test_overflowing_values_name_the_verb(capsys):
    # these verbs build no report: the error names the verb and the value
    argvs = {
        "theta": ["theta", "--x", "1e300", "--p", "0.5"],
        "series": ["series", "--family", "W", "--a", "1.1", "--b", "1.2",
                   "--b", "1e200", "--q", "1e-10", "--terms", "20"],
    }
    for verb, argv in argvs.items():
        code, out, err = _run(capsys, *argv)
        assert code == 2 and out == "", argv
        assert err.startswith(f"error: {verb}: value left double range: ")
        assert len(err.splitlines()) == 1


def test_underflowed_theta_argument_is_named(capsys):
    # PATHS's step row u q^m underflows to 0 at m = 9 though no parameter is 0
    code, out, err = _run(
        capsys, "sixj", "--a", "1.2,0.3", "--b", "0.8,-0.2", "--c", "1.1,0.4",
        "--d", "0.7,0.2", "--N", "7", "--q", "1e-40", "--level", "elliptic",
        "--p", "0.1", "--method", "paths",
    )
    assert code == 2 and out == ""
    assert err.startswith("error: theta argument u q^m = 0j left double range at u = ")
    assert err.rstrip().endswith(", m = 9") and len(err.splitlines()) == 1


def test_tol_must_be_finite_and_positive(monkeypatch, capsys):
    # rejected with one message before any trial or check runs
    def no_work(*_):
        raise AssertionError("work done before --tol was checked")

    monkeypatch.setattr(cli, "run_suite", no_work)
    monkeypatch.setattr(cli, "eigenrelation_check", no_work)
    verbs = (
        ["verify", "--suite", "symmetry", "--trials", "1"],
        ["sklyanin", "--a", "1.1,0.2", "--b", "0.8,-0.3", "--c", "1.3,0.1",
         "--k", "1", "--N", "2", "--q", "0.45"],
    )
    for argv in verbs:
        for tol in ("nan", "inf", "-inf", "-1", "0"):
            code, out, err = _run(capsys, *argv, f"--tol={tol}")
            assert code == 2 and out == "", (argv, tol)
            assert err.startswith("error: tol must be a finite positive number")
            assert len(err.splitlines()) == 1


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
