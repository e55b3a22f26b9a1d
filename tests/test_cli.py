import hashlib
import json
import math
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest

from algmech.algebroid import Subbundle
from algmech.cli import _FIELD, _g, main
from algmech.config import bundle_to_config
from algmech.models import get_model


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "algmech.cli", *args],
        capture_output=True,
        text=True,
    )
    return proc.returncode, proc.stdout


def test_list_models():
    code, out = run_cli("list-models")
    assert code == 0
    for name in ("rigid-body", "suslov", "pendulum"):
        assert name in out


def test_validate_pass_and_fail(tmp_path):
    code, out = run_cli("validate", "--model", "rigid-body")
    assert code == 0 and "verdict: pass" in out

    broken = {
        "m": 1,
        "n": 2,
        "r": 2,
        "anchor": [["1", "x1"]],
        "structure": {},
        "lagrangian": "0.5 * y1^2 + 0.5 * y2^2",
        "subbundle": "adapted:2",
        "box": [[-0.5, 0.5]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(broken))
    code, out = run_cli("validate", "--config", str(path))
    assert code == 2 and "verdict: fail" in out
    assert "residual_eq1: 1" in out

    code, out = run_cli("validate", "--model", "pendulum", "--samples", "1000")
    assert code == 0


def test_validate_requires_a_model():
    code, out = run_cli("validate")
    assert code == 6


def test_simulate_writes_csv_and_reports_drift(tmp_path):
    out_csv = tmp_path / "run.csv"
    code, out = run_cli(
        "simulate",
        "--model", "rigid-body",
        "--y0", "1,1,1",
        "--h", "0.01",
        "--T", "2",
        "--out", str(out_csv),
    )
    assert code == 0
    assert "E0: 3" in out
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "t,y1,y2,y3,p1,p2,p3,E_L,res_kin,res_mom"
    assert len(lines) == 202
    # energy column stays at 3 to tight tolerance
    for ln in lines[1:]:
        E = float(ln.split(",")[7])
        assert abs(E - 3.0) <= 1e-8


def test_simulate_degenerate_exit_code():
    code, out = run_cli(
        "simulate", "--model", "degenerate-demo", "--x0", "0", "--y0", "0.5,0.5",
        "--h", "0.01", "--T", "0.1",
    )
    assert code == 3 and "degenerate" in out


def test_simulate_implicit_midpoint_is_deterministic():
    args = ("simulate", "--model", "rigid-body", "--y0", "1,1,1", "--h", "0.01",
            "--T", "0.3", "--method", "implicit_midpoint")
    code, out = run_cli(*args)
    assert code == 0
    assert "method: implicit_midpoint" in out and "steps: 30" in out
    assert run_cli(*args) == (code, out)


@pytest.mark.parametrize(
    "args",
    [
        ("simulate", "--model", "pendulum", "--x0", "0.1", "--y0", "0.1",
         "--h", "0.003", "--T", "1"),
        ("simulate", "--model", "pendulum", "--x0", "nan", "--y0", "0.1"),
        ("dirac-check", "--model", "rigid-body", "--points", "0"),
        ("validate", "--model", "rigid-body", "--samples", "0"),
        ("hj-check", "--model", "harmonic-oscillator", "--x0", "1.5"),
        ("simulate", "--model", "rigid-body", "--y0", "1e200,1,1"),
    ],
)
def test_bad_numeric_options_exit_6_with_one_error_line(args):
    _assert_exit_with_one_error_line(args)


def test_midpoint_on_a_huge_state_exits_4_with_one_error_line():
    # the Newton stopping test once passed here because |u|^2 overflowed
    _assert_exit_with_one_error_line(
        ("simulate", "--model", "rigid-body", "--y0", "1.5e154,2e153,1e153",
         "--h", "1e-2", "--T", "0.02", "--method", "implicit_midpoint"),
        code=4,
    )


def _assert_exit_with_one_error_line(args, code=6):
    proc = subprocess.run(
        [sys.executable, "-m", "algmech.cli", *args], capture_output=True, text=True
    )
    assert proc.returncode == code
    assert len(proc.stdout.splitlines()) == 1 and proc.stdout.startswith("error: ")
    assert "Traceback" not in proc.stderr and "Warning" not in proc.stderr
    return proc.stdout


@pytest.mark.parametrize(
    "change, args",
    [
        # a non-adapted subbundle is refused before integrating
        ({"subbundle": [["1", "0"], ["0", "1"], ["0", "0"]]}, ("simulate", "--y0", "1,1")),
        # constant structure data fails while the algebroid is built
        ({"structure": {"3,1,2": "ln(-1)"}}, ("validate",)),
        ({"lagrangian": "ln(-1) * y1^2 + y2^2 + y3^2"}, ("simulate", "--y0", "1,1")),
        # a JSON boolean is not an integer, though suslov's m is 0
        ({"m": False}, ("validate",)),
        # an undeclared variable is refused when the config is read: RK4
        # once ended in a KeyError traceback, dirac-check once passed
        ({"lagrangian": "0.5 * y1^2 + y2^2 + y3^2 + z9"}, ("simulate", "--y0", "1,1")),
        ({"hj_sections": {"s": {"gamma": ["q", "0", "0"], "gammabar": ["0", "0", "0"]}}},
         ("dirac-check",)),
    ],
)
def test_bad_configs_exit_6_with_one_error_line(tmp_path, change, args):
    cfg = bundle_to_config(get_model("suslov"))
    cfg.update(change)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    _assert_exit_with_one_error_line((*args, "--config", str(path)))


# a line (m = 1) with two velocity directions, the first free: its
# section x1^2 + 1 moves the base along tan, which leaves every bound
LINE = {
    "m": 1, "n": 2, "r": 1, "anchor": [["1", "0"]], "structure": {},
    "lagrangian": "0.5 * y1^2 + 0.5 * y2^2", "subbundle": "adapted:1",
    "box": [[-1.0, 1.0]],
    "hj_sections": {"blowup": {"gamma": ["x1^2 + 1", "0"], "gammabar": ["x1^2 + 1", "0"]}},
}

# m = n = r = 1 with L = y1: gamma = 1e300 is in U and Legendre-consistent
HUGE = {
    "n": 1, "anchor": [["1"]], "lagrangian": "y1",
    "hj_sections": {"huge": {"gamma": ["1e300"], "gammabar": ["1"]}},
}


@pytest.mark.parametrize(
    "change, args",
    [
        ({}, ("hj-check", "--section", "blowup", "--x0", "1", "--T", "2")),
        ({"subbundle": [["x1 - x1"], ["0"]]}, ("dirac-check",)),
        # an evaluation fault in the span is not a rank failure
        ({"subbundle": [["1"], ["sqrt(x1)"]]}, ("validate",)),
        ({"box": [["a", "b"]]}, ("validate",)),
        ({"box": [[0, None]]}, ("validate",)),
        ({"box": [[-math.inf, 1]]}, ("validate",)),
        ({"box": [["10", "9"]]}, ("validate",)),
        ({"box": [[-1e308, 1e308]]}, ("validate",)),
        ({"hj_sections": {"s": [1, 2]}}, ("hj-check", "--section", "s", "--x0", "0")),
        ({"hj_sections": [1]}, ("hj-check", "--x0", "0")),
        # an RK4 stage of the base flow overflows: a blow-up, not a traceback
        (HUGE, ("hj-check", "--section", "huge", "--x0", "0", "--h", "1e9", "--T", "2e9")),
    ],
)
def test_bad_line_configs_exit_6_with_one_error_line(tmp_path, change, args):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**LINE, **change}))
    _assert_exit_with_one_error_line((*args, "--config", str(path)))


def test_simulate_suslov_constant_csv(tmp_path):
    out_csv = tmp_path / "s.csv"
    code, _ = run_cli(
        "simulate", "--model", "suslov", "--y0", "0.3,0.4",
        "--h", "0.01", "--T", "1", "--out", str(out_csv),
    )
    assert code == 0
    lines = out_csv.read_text().splitlines()
    first = lines[1].split(",")[1:4]
    last = lines[-1].split(",")[1:4]
    assert first == last


def test_dirac_check():
    code, out = run_cli(
        "dirac-check", "--model", "suslov", "--points", "20", "--pairs", "100"
    )
    assert code == 0 and "verdict: pass" in out
    code, out = run_cli(
        "dirac-check", "--model", "affine-rank2", "--points", "10", "--pairs", "0"
    )
    assert code == 0


def test_hj_check_exit_codes(tmp_path):
    code, out = run_cli("hj-check", "--model", "harmonic-oscillator", "--x0", "0")
    assert code == 0 and "consistent: True" in out

    cfg = bundle_to_config(get_model("harmonic-oscillator"))
    cfg["hj_sections"]["bad-legendre"] = {
        "gamma": ["sqrt(2 - x1^2)"],
        "gammabar": ["sqrt(2 - x1^2) + 0.1"],
    }
    cfg["hj_sections"]["hj-fails"] = {
        "gamma": ["sqrt(2 - x1^2) + 0.1"],
        "gammabar": ["sqrt(2 - x1^2) + 0.1"],
    }
    path = tmp_path / "ho.json"
    path.write_text(json.dumps(cfg))
    code, out = run_cli(
        "hj-check", "--config", str(path), "--section", "bad-legendre", "--x0", "0"
    )
    assert code == 5 and "hypothesis" in out

    code, out = run_cli(
        "hj-check", "--config", str(path), "--section", "hj-fails", "--x0", "0",
        "--T", "0.5",
    )
    assert code == 2 and "hj_pass: False" in out and "consistent: True" in out

    code, out = run_cli("hj-check", "--model", "harmonic-oscillator",
                        "--section", "absent", "--x0", "0")
    assert code == 6


def test_config_error_exit_code(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{")
    code, out = run_cli("validate", "--config", str(path))
    assert code == 6 and "error:" in out


PENDULUM = ("simulate", "--model", "pendulum", "--x0", "0.1", "--y0", "0.2")


@pytest.mark.parametrize(
    "argv",
    [
        (*PENDULUM, "--h", "abc"),
        ("simulate", "--model", "pendulum", "--bogus"),
        ("validate", "--model", "rigid-body", "--samples", "x"),
        (*PENDULUM, "--method", "euler"),
        ("nope",),
        (),
        # --h once abbreviated --help here and exited 0 without running
        ("dirac-check", "--model", "rigid-body", "--h", "1e-3"),
        # argparse on Python 3.10-3.12 reads "--h=--" as an empty list
        (*PENDULUM, "--h=--"),
        # a negative seed once reached numpy as a traceback
        ("validate", "--model", "rigid-body", "--seed", "-1"),
        # these once ran: a negative pair count tested nothing and passed,
        # and a nan or negative tolerance failed the check with exit 2
        ("dirac-check", "--model", "rigid-body", "--pairs", "-3"),
        ("validate", "--model", "rigid-body", "--tol", "nan"),
        ("hj-check", "--model", "harmonic-oscillator", "--tol", "-1"),
    ],
)
def test_usage_errors_exit_6_with_one_error_line(capsys, argv):
    # argparse once printed usage text on stderr and exited 2
    code, out = _main(capsys, *argv)
    assert code == 6 and len(out.splitlines()) == 1 and out.startswith("error: ")


def test_help_still_exits_0(capsys):
    # --help once raised argparse's SystemExit(0) out of main
    assert main(["simulate", "--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: algmech simulate")


def test_model_with_config_exits_6_with_one_error_line(tmp_path, capsys):
    # --model was once ignored without a word when --config was given
    path = _config_file(tmp_path, LINE)
    code, out = _main(capsys, "validate", "--model=nope", "--config", path)
    assert code == 6 and out == "error: give --model or --config, not both\n"


def test_out_under_a_missing_directory_exits_6_with_one_error_line(tmp_path, capsys):
    code, out = _main(capsys, *PENDULUM, "--T", "0.01", "--out", tmp_path / "missing" / "x.csv")
    assert code == 6 and out.startswith("error: cannot write --out") and len(out.splitlines()) == 1


@pytest.mark.parametrize(
    "data, message",
    [(b"\xff\xfe{}", "is not valid UTF-8 JSON"), (b"5", "must be a JSON object")],
)
def test_config_that_is_not_a_utf8_json_object_exits_6_with_one_error_line(
    tmp_path, capsys, data, message
):
    # both once ended in a traceback
    path = tmp_path / "model.json"
    path.write_bytes(data)
    code, out = _main(capsys, "validate", "--config", path)
    assert code == 6 and len(out.splitlines()) == 1 and out.startswith("error: ")
    assert message in out


@pytest.mark.parametrize(
    "entries",
    [
        # the parser's recursive descent, four frames a level
        '"lagrangian": "' + "(" * 250 + "0.5 * y1^2" + ")" * 250 + '"',
        # json.load
        '"lagrangian": "0.5 * y1^2", "doc": ' + "[" * 990 + "]" * 990,
        # parsed in a loop, but the jet compiler recurses into the sum
        '"lagrangian": "0.5 * y1^2' + " + x1" * 3000 + '"',
    ],
    ids=["parentheses", "doc", "sum"],
)
def test_deep_input_exits_6_with_one_error_line(tmp_path, entries):
    # each once ended in a RecursionError traceback
    path = tmp_path / "model.json"
    path.write_text('{"m": 1, "n": 1, "r": 1, "anchor": [["1"]], ' + entries + "}")
    out = _assert_exit_with_one_error_line(("validate", "--config", str(path)))
    assert out.startswith("error: input nested too deeply: maximum recursion depth exceeded")


def test_determinism_byte_identical(tmp_path):
    outs = []
    csvs = []
    for k in range(2):
        out_csv = tmp_path / f"d{k}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "algmech.cli", "simulate", "--model", "suslov",
             "--y0", "0.5,-0.4", "--h", "0.01", "--T", "1", "--out", str(out_csv)],
            capture_output=True, text=True,
        )
        outs.append(proc.stdout.replace(str(out_csv), "OUT"))
        csvs.append(out_csv.read_bytes())
    assert outs[0] == outs[1]
    assert csvs[0] == csvs[1]

    reports = [
        run_cli("dirac-check", "--model", "rigid-body", "--points", "10",
                "--pairs", "50")[1]
        for _ in range(2)
    ]
    assert reports[0] == reports[1]


def test_huge_section_prints_one_error_line_and_no_warning(tmp_path, capsys):
    # the in-U norm of gamma = 1e300 must not overflow at x0
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({**LINE, **HUGE}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["hj-check", "--config", str(path), "--section", "huge", "--x0", "0",
                     "--h", "1e-2", "--T", "2e-2"])
    out = capsys.readouterr().out
    assert code == 6
    assert out.splitlines() == ["error: base flow left |x| <= 1e+06 at t=0.01"]


def _main(capsys, *argv):
    """Exit code and stdout of an in-process run with every warning an
    error; stderr must hold nothing but the wall time."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert re.fullmatch(r"wall_time_s: \d+\.\d{3}\n", err)
    return code, out


def _config_file(tmp_path, cfg):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(cfg))
    return path


def test_validate_fails_on_a_nan_jacobi_defect(tmp_path, capsys):
    # C·C overflows and the cyclic sum is nan: once "residual_eq2: 0", pass
    keys = ["1,1,2", "1,2,3", "2,2,3", "3,1,2"]
    cfg = {"m": 0, "n": 3, "r": 3, "anchor": [], "lagrangian": "0.5 * y1^2"}
    code, out = _main(capsys, "validate", "--config", _config_file(
        tmp_path, {**cfg, "structure": dict.fromkeys(keys, "1")}))
    assert code == 2 and "residual_eq2: 1" in out.splitlines()
    code, out = _main(capsys, "validate", "--config", _config_file(
        tmp_path, {**cfg, "structure": dict.fromkeys(keys, "1e300")}))
    assert code == 2
    assert "residual_eq2: nan" in out.splitlines() and out.endswith("verdict: fail\n")


def test_hj_check_exits_5_on_a_nan_closedness(tmp_path, capsys):
    cfg = {
        "m": 1, "n": 2, "r": 2, "anchor": [["1", "0"]], "structure": {"2,1,2": "1e300"},
        "lagrangian": "y1 + 1e300 * y2",
        "hj_sections": {"s": {"gamma": ["0", "0"], "gammabar": ["1", "1e300"]}},
    }
    code, out = _main(capsys, "hj-check", "--config", _config_file(tmp_path, cfg),
                      "--section", "s", "--x0", "0", "--h", "1e-2", "--T", "0.02")
    assert code == 5
    assert out.splitlines() == [
        "error: hypothesis violated: hypothesis closedness on U-pairs violated at [0.]"
        " (residual nan)"
    ]


def test_rk4_runs_on_a_rank_zero_subbundle(tmp_path, capsys):
    cfg = {"m": 0, "n": 1, "r": 0, "anchor": [], "structure": {},
           "lagrangian": "0.5 * y1^2", "subbundle": "adapted:0"}
    path = _config_file(tmp_path, cfg)
    outs = []
    for method in ("rk4", "implicit_midpoint"):
        code, out = _main(capsys, "simulate", "--config", path, "--h", "1e-2", "--T", "0.02",
                          "--method", method)
        assert code == 0
        outs.append(out.replace(f"method: {method}", "method: -"))
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "args",
    [
        # p·y overflows: E0 was inf and the drift nan
        ("--model", "free-particle", "--x0=0,0", "--y0=1e154,1e154", "--h", "0.5", "--T", "1"),
        # the midpoint's I/h overflowed before Newton diverged
        ("--model", "pendulum", "--x0=0", "--y0=1", "--h", "5e-324", "--T", "1e-323",
         "--method", "implicit_midpoint"),
    ],
)
def test_simulate_at_the_float_limits_exits_6_with_one_error_line(capsys, args):
    code, out = _main(capsys, "simulate", *args)
    assert code == 6 and len(out.splitlines()) == 1 and out.startswith("error: ")


# 1e300 * 1e300 overflows to inf and inf - inf is nan, so the restricted
# velocity Hessian is nan: RK4's field reads it unchecked, the midpoint checked
NAN_HESSIAN = {
    "m": 1, "n": 1, "r": 1, "anchor": [["1"]], "box": [[-1, 1]],
    "lagrangian": "0.5 * y1^2 + 1e300 * 1e300 * y1^2 - 1e300 * 1e300 * y1^2",
}


@pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
def test_a_nan_velocity_hessian_exits_6_with_one_error_line(tmp_path, capsys, method):
    code, out = _main(capsys, "simulate", "--config", _config_file(tmp_path, NAN_HESSIAN),
                      "--x0", "0.1", "--y0", "0.2", "--h", "1e-2", "--T", "0.02",
                      "--method", method)
    assert code == 6 and out == "error: evaluation failed: non-finite derivative result\n"


def test_a_nan_gradient_under_rk4_exits_6_naming_the_step_that_made_it(tmp_path, capsys):
    # dL/dx is nan and the velocity Hessian finite: RK4 integrates nan
    # states to T, and the refusal names the step where they began
    cfg = dict(NAN_HESSIAN, lagrangian="0.5 * y1^2 + (1e300 * 1e300 - 1e300 * 1e300) * x1")
    code, out = _main(capsys, "simulate", "--config", _config_file(tmp_path, cfg),
                      "--x0", "0.1", "--y0", "0.2", "--h", "1e-2", "--T", "0.02")
    assert code == 6
    assert out == "error: state component x must be finite in the RK4 step from t=0 at x=[0.1]\n"


def test_csv_residuals_at_the_float_limits_print_no_warning(tmp_path, capsys):
    # the finite-difference stencil of x ~ 1e308 overflows inside the CSV pass
    out_csv = tmp_path / "o.csv"
    code, out = _main(capsys, "simulate", "--model", "pendulum", "--x0=1e308", "--y0=1",
                      "--h", "1e-2", "--T", "0.04", "--out", out_csv)
    assert code == 0 and len(out_csv.read_text().splitlines()) == 6


def test_csv_rows_format_each_value_as_g_does(tmp_path, capsys):
    values = [-0.0, 5e-324, 1e22, 1e-300, 0.1, math.pi, -1.5e308, math.nan, math.inf, -math.inf,
              np.float64(-0.0), np.float64(5e-324), np.float64(1e22), np.float64(1e-300),
              np.float64(1 / 3)]
    row = ",".join([_FIELD] * len(values))
    assert row % tuple(values) == ",".join(map(_g, values))
    out_csv = tmp_path / "o.csv"
    code, _ = _main(capsys, "simulate", "--model", "rigid-body", "--y0=1e-300,-0.0,5e-324",
                    "--h", "1e-2", "--T", "0.05", "--out", out_csv)
    fields = [f for line in out_csv.read_text().splitlines()[1:] for f in line.split(",")]
    assert code == 0 and len(fields) == 6 * 10
    assert all(_g(float(f)) == f for f in fields)


# the config of test_dynamics._x_dependent_config: with anchor 1 + x1^2,
# x' grows like x1^2, and from this start x blows up near t = 0.26
BLOW_UP = (
    {
        "m": 1, "n": 2, "r": 2, "anchor": [["1 + x1^2", "x1"]],
        "structure": {"1,1,2": "sin(x1)", "2,1,2": "x1^2 - 1"},
        "lagrangian": "0.5 * y1^2 + 0.5 * (1 + x1^2) * y2^2 + x1 * y1 * y2 - cos(x1)",
    },
    "--x0=-0.8287016657127513", "--y0=-1.2778325156570909,0.20904942336288942",
    "--h", "1e-2", "--T", "0.3",
)


def test_rk4_blow_up_exits_3_naming_the_step_and_the_point(tmp_path, capsys):
    # the restricted Hessian has determinant 1 everywhere, so the error
    # names where x went
    cfg, *argv = BLOW_UP
    code, out = _main(capsys, "simulate", "--config", _config_file(tmp_path, cfg), *argv)
    assert code == 3
    assert re.fullmatch(r"error: degenerate system: restricted velocity Hessian has condition"
                        r" number \S+ in the RK4 step from t=0\.25 at x=\[-7\.99\d*\]\n", out)


def test_midpoint_blow_up_exits_4_naming_the_step_and_the_point(tmp_path, capsys):
    cfg, *argv = BLOW_UP
    code, out = _main(capsys, "simulate", "--config", _config_file(tmp_path, cfg), *argv,
                      "--method", "implicit_midpoint")
    assert code == 4
    assert re.fullmatch(r"error: implicit solver diverged: Newton failed to converge at step 24"
                        r" \(last residual \S+\) in the midpoint step from t=0\.24"
                        r" at x=\[-4\.56\d*\]\n", out)


def _counting_completions(monkeypatch):
    calls = []
    real = Subbundle.completion

    def counted(self, x, *args, **kwargs):
        calls.append(x.x.tolist())
        return real(self, x, *args, **kwargs)

    monkeypatch.setattr(Subbundle, "completion", counted)
    return calls


# a rank-one span in a rank-two bundle over a line
SPAN = {"m": 1, "n": 2, "r": 1, "anchor": [["1", "0"]], "structure": {},
        "lagrangian": "0.5 * y1^2 + 0.5 * y2^2", "box": [[-1, 1]]}


@pytest.mark.parametrize("span, rank_ok", [([["1"], ["1"]], True), ([["0"], ["0"]], False)])
def test_validate_checks_the_rank_of_a_constant_span_once(tmp_path, capsys, monkeypatch,
                                                           span, rank_ok):
    calls = _counting_completions(monkeypatch)
    code, out = _main(capsys, "validate", "--config",
                      _config_file(tmp_path, {**SPAN, "subbundle": span}), "--samples", "5")
    assert len(calls) == 1
    assert f"subbundle_rank_ok: {rank_ok}" in out.splitlines()
    assert code == (0 if rank_ok else 2)


def test_validate_checks_an_x_dependent_span_at_every_sample(tmp_path, capsys, monkeypatch):
    # the validate samples of seed 7 on the box [-1, 1]
    xs = np.random.default_rng(7).uniform(-1.0, 1.0, size=5).tolist()
    calls = _counting_completions(monkeypatch)
    path = _config_file(tmp_path, {**SPAN, "subbundle": [["1"], ["x1"]]})
    code, out = _main(capsys, "validate", "--config", path, "--samples", "5", "--seed", "7")
    assert code == 0 and "subbundle_rank_ok: True" in out.splitlines()
    assert calls == [[x] for x in xs]
    # a span that vanishes at the fourth sample only
    calls.clear()
    path = _config_file(tmp_path, {**SPAN, "subbundle": [[f"x1 - {xs[3]!r}"], ["0"]]})
    code, out = _main(capsys, "validate", "--config", path, "--samples", "5", "--seed", "7")
    assert code == 2 and "subbundle_rank_ok: False" in out.splitlines()
    assert calls == [[x] for x in xs[:4]]


# sha256 of the stdout of dirac-check runs: the bench command, the README
# example, acceptance criterion 10's run and one run on each other model
DIRAC_CHECK_STDOUT = [
    (("suslov", "--points", "10", "--pairs", "100", "--seed", "1866217508"),
     "f5323a51a044cbcf697423a3bab89e012edd18626a15d2655469de6cb4ab3997"),
    (("suslov", "--points", "100", "--pairs", "1000"),
     "dfd7d00b1210c49b1a92ed57b044dfda6dca48436495ab13e57714cba2531a16"),
    (("suslov", "--points", "20", "--pairs", "100"),
     "7a8d8dc4e1fdfa665d2f7f60b84aaa8929233b5de8aad90c2bb65af48a0c00eb"),
    (("rigid-body", "--points", "10", "--pairs", "50", "--seed", "3"),
     "e7cd9abda0af4b01ce72e62b2205cdce7b2b734018304e640d84f619bf83038e"),
    (("affine-rank2", "--points", "7", "--pairs", "200", "--seed", "5"),
     "4836c30b67dd2f7096bc94c509f4e6d7f15370adf6d6e0b23ad6430c8fc7d2e7"),
    (("pendulum", "--points", "3", "--pairs", "40", "--seed", "0"),
     "4a931871bb6c30167090ff25f9af67af35f208032d2697a7612e4dae259ad839"),
    (("free-particle", "--points", "5", "--pairs", "60", "--seed", "9"),
     "d1e652ded98165340ba2f0e161da2920b5f26e2065f94d96d44bed8f8c11e857"),
    (("harmonic-oscillator", "--points", "4", "--pairs", "30", "--seed", "7"),
     "6e345f9701ec89520e873a3e5b3e5567a9b265a0c1e9e1875ca14a18e630c96a"),
    (("degenerate-demo", "--points", "6", "--pairs", "90", "--seed", "11"),
     "7c9cdffdc2c4ba7116dbcbcc319a636835ab429afe22e6ccbffe9a58ec4fec48"),
]


@pytest.mark.parametrize("args, digest", DIRAC_CHECK_STDOUT)
def test_dirac_check_stdout_is_byte_identical_to_its_recorded_digest(capsys, args, digest):
    code, out = _main(capsys, "dirac-check", "--model", *args)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


# 2e-9 x1 is a singular value above U's one rank tol 1e-9 where x1 > 0.5
# and below it where x1 < 0.5
NARROW_SPAN = {
    "m": 1, "n": 2, "r": 2, "anchor": [["1", "0"]], "structure": {"1,1,2": "x1"},
    "lagrangian": "0.5 * y1^2 + 0.5 * y2^2", "subbundle": [["1", "0"], ["0", "2e-9 * x1"]],
    "box": [[0.3, 1.0]],
}


def _constant_span(second):
    """A config with no base whose span has singular values 1 and ``second``."""
    return {**NARROW_SPAN, "m": 0, "anchor": [], "structure": {}, "box": [],
            "subbundle": [["1", "0"], ["0", second]],
            "hj_sections": {"default": {"gamma": ["1", "0.5"], "gammabar": ["1", "0.5"]}}}


def test_every_command_holds_a_constant_span_to_one_rank_tol(tmp_path, capsys):
    # 5e-9 is above the rank tol 1e-9 and 5e-10 below it, for every command
    error = (6, "error: span has numerical rank 1, expected 2 at x=[]\n")
    for second, ok in (("5e-9", True), ("5e-10", False)):
        path = _config_file(tmp_path, _constant_span(second))
        for argv in (("dirac-check", "--pairs", "0", "--points", "3"),
                     ("dirac-check", "--pairs", "1", "--points", "3"), ("hj-check",)):
            code, out = _main(capsys, *argv, "--config", path)
            assert (code == 0 and out.endswith("verdict: pass\n")) if ok else (code, out) == error
        code, out = _main(capsys, "validate", "--config", path)
        assert f"subbundle_rank_ok: {ok}\n" in out
        assert (code == 0 and out.endswith("verdict: pass\n")) if ok else code == 2


@pytest.mark.parametrize("seed, error", [("0", "x=[0.31156934]"), ("1", "x=[0.31929138]")])
@pytest.mark.parametrize("pairs", ["0", "2", "40"])
def test_dirac_check_names_the_first_sampled_point_where_u_loses_rank(tmp_path, capsys, seed,
                                                                     error, pairs):
    # seed 0 samples x1 = 0.746, 0.312, ... and seed 1 x1 = 0.658, 0.964,
    # 0.879, 0.319, 0.531: the generators check U's rank at every point
    code, out = _main(capsys, "dirac-check", "--config", _config_file(tmp_path, NARROW_SPAN),
                      "--seed", seed, "--points", "5", "--pairs", pairs)
    assert (code, out) == (6, f"error: span has numerical rank 1, expected 2 at {error}\n")
