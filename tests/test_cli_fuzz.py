"""Seeded fuzz of the CLI error contract: random small configurations and
option values, many at the float limits, run through ``cli.main``
in-process with every warning turned into an error.  Every run must end
with a documented exit code; a failure is one ``error:`` line on stdout,
and stderr carries nothing but the wall time."""

import contextlib
import io
import json
import re
import warnings

import numpy as np

from algmech.cli import main

CASES = 300
SEED = 20261018

TAME = ["0", "1", "2", "0.5", "-1"]
HUGE = ["1e300", "1e-300", "1e308", "1e154"]
FUNCTIONS = ["sin", "cos", "exp", "ln", "sqrt", "neg"]
VALUES = ["0", "0.5", "-1", "2"]
LIMITS = ["1e154", "1e300", "1e308", "-1e308"]
# (h, T): at most 100 steps, or refused by the step bounds (more than
# 2^53 steps, a step without a finite reciprocal), or not a run at all;
# step counts in between are real runs that take hours
STEPS = [("1e-2", "0.02"), ("0.1", "1"), ("0.5", "1"), ("1e-2", "0.5"), ("0.25", "25")]
EXTREME_STEPS = [
    ("1e300", "2e300"), ("1e308", "1e308"), ("1.7e308", "1.7e308"), ("1e-300", "1e-298"),
    ("2.2e-308", "4.4e-308"), ("5e-324", "1e-323"), ("1e-310", "2e-310"),
    ("1e-2", "1e300"), ("1e-2", "1e17"), ("1", "18014398509481984"),
    ("0.3", "1"), ("0", "1"), ("-1e-2", "1"), ("1e-2", "inf"), ("nan", "1"),
]
WALL_TIME = re.compile(r"wall_time_s: \d+\.\d{3}\n")


def _pick(rng, items):
    return items[int(rng.integers(len(items)))]


def _expression(rng, names, wild, depth=2):
    """A random expression of the grammar over ``names``; a wild one also
    draws huge numbers, poles, logarithms of negatives and ^400."""
    u = rng.uniform()
    if u < 0.4 or depth == 0:
        return _pick(rng, TAME + HUGE) if wild and u < 0.1 else _pick(rng, TAME)
    if u < 0.6 and names:
        return _pick(rng, names)
    sub = _expression(rng, names, wild, depth - 1)
    if wild and u < 0.7:
        v = _pick(rng, names) if names else sub
        return _pick(rng, ["1e300", "sqrt(-1)", f"1/{v}", f"ln({v})", f"neg({v})", f"({v})^400"])
    if u < 0.75:
        return f"{_pick(rng, FUNCTIONS if wild else ['sin', 'cos', 'exp'])}({sub})"
    if u < 0.8:
        return f"({sub})^{_pick(rng, [2, 3, 400] if wild else [2, 3])}"
    if u < 0.85:
        return f"-({sub})"
    op = _pick(rng, list("+-*/") if wild else list("+-*"))
    return f"({sub}) {op} ({_expression(rng, names, wild, depth - 1)})"


def _exprs(rng, names, wild, count):
    return [_expression(rng, names, wild) for _ in range(count)]


def _config(rng):
    m, n = int(rng.integers(3)), int(rng.integers(1, 4))
    r = int(rng.integers(n + 1))
    wild = rng.uniform() < 0.5
    xs = [f"x{i + 1}" for i in range(m)]
    ys = [f"y{a + 1}" for a in range(n)]
    keys = [(g, a, b) for g in range(n) for a in range(n) for b in range(a + 1, n)]
    structure = {
        f"{g + 1},{a + 1},{b + 1}": _expression(rng, xs, wild)
        for g, a, b in keys
        if rng.uniform() < 0.4
    }
    section = {"gamma": _exprs(rng, xs, wild, n), "gammabar": _exprs(rng, xs, wild, n)}
    if rng.uniform() < 0.5:  # a regular Lagrangian, so that runs also succeed
        lagrangian = " + ".join(f"0.5 * {y}^2" for y in ys)
        if rng.uniform() < 0.5:  # and a section whose momentum is its Legendre image
            section["gammabar"] = section["gamma"]
    else:
        lagrangian = _expression(rng, xs + ys, wild)
    cfg = {
        "m": m, "n": n, "r": r,
        "anchor": [_exprs(rng, xs, wild, n) for _ in range(m)],
        "structure": structure,
        "lagrangian": lagrangian,
        "hj_sections": {"s": section},
    }
    if rng.uniform() < 0.3:
        cfg["subbundle"] = [_exprs(rng, xs, wild, r) for _ in range(n)]
    else:
        cfg["subbundle"] = f"adapted:{r}"
    if rng.uniform() < 0.3:
        box = [[-1, 1], [0.5, 2], [1e300, 1.0000001e300], [-1e154, 1e154], [-1e308, 1e308]]
        cfg["box"] = [_pick(rng, box) for _ in range(m)]
    return cfg, m, r


def _vector(rng, size):
    if rng.uniform() < 0.1:  # empty or of the wrong length
        size = 0 if size else 1
    values = VALUES + LIMITS if rng.uniform() < 0.3 else VALUES
    return ",".join(_pick(rng, values) for _ in range(size))


def _argv(rng, path, m, r):
    command = _pick(rng, ["validate", "simulate", "dirac-check", "hj-check"])
    argv = [command, f"--config={path}", f"--seed={int(rng.integers(100))}"]
    if command == "validate":
        return argv + [f"--samples={int(rng.integers(1, 4))}"]
    if command == "dirac-check":
        return argv + [f"--points={int(rng.integers(1, 3))}", f"--pairs={int(rng.integers(6))}"]
    h, T = _pick(rng, STEPS if rng.uniform() < 0.6 else EXTREME_STEPS)
    argv += [f"--x0={_vector(rng, m)}", f"--h={h}", f"--T={T}"]
    if command == "hj-check":
        return argv + ["--section=s"]
    argv += [f"--y0={_vector(rng, r)}", f"--method={_pick(rng, ['rk4', 'implicit_midpoint'])}"]
    if rng.uniform() < 0.2:
        argv += [f"--out={path.with_suffix('.csv')}"]
    return argv


def test_cli_error_contract_holds_on_random_inputs(tmp_path):
    rng = np.random.default_rng(SEED)
    path = tmp_path / "model.json"
    codes = []
    for case in range(CASES):
        cfg, m, r = _config(rng)
        path.write_text(json.dumps(cfg))
        argv = _argv(rng, path, m, r)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        where = f"case {case}: {json.dumps(cfg)} {argv[0]} {argv[2:]}"
        assert code in (0, 2, 3, 4, 5, 6), where
        if code >= 3:
            lines = out.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), where
        assert WALL_TIME.fullmatch(err.getvalue()), where
        codes.append(code)
    # the draw reaches every exit code
    assert set(codes) == {0, 2, 3, 4, 5, 6}


MALFORMED_CASES = 400
MALFORMED_SEED = 20261019

# tokens for a numeric option: not numbers, numbers of the wrong kind,
# and numbers out of every range an option accepts
MALFORMED = [
    "abc", "", "1e", "0x10", "1,2", "1..2", "--", "-", "+-1", "nan", "-inf", "1e999",
    "1e-400", "-1", "-5e-324", "0.0", "1_0", " 2", "2.5", "١", "9" * 40,
]
NUMERIC = ["--seed", "--samples", "--points", "--pairs", "--h", "--T", "--tol", "--x0", "--y0"]
UNKNOWN = ["--bogus", "-q", "--h5", "--out-dir=x", "extra", "--model=nope", "--section=nope"]


def _bytes_of(rng, cfg):
    """The config as JSON, truncated, as random bytes, or as a JSON value
    that is not an object."""
    text = json.dumps(cfg).encode()
    u = rng.uniform()
    if u < 0.5:
        return text[: int(rng.integers(len(text)))]
    if u < 0.75:
        return rng.bytes(int(rng.integers(1, 40)))
    return _pick(rng, [b"5", b"null", b'"m"', b"[]", b"\xff\xfe{}", b"{}"])


def _malformed(rng, argv, path):
    """``argv`` with one or two of: a malformed token for one of its own
    numeric options, an unknown or repeated flag, a flag missing its
    value, a bad --method, and an --out under a missing directory."""
    argv = list(argv)
    numeric = [a.split("=")[0] for a in argv[2:] if a.split("=")[0] in NUMERIC]
    for _ in range(int(rng.integers(1, 3))):
        u = rng.uniform()
        if u < 0.4:
            argv.append(f"{_pick(rng, numeric)}={_pick(rng, MALFORMED)}")
        elif u < 0.55:
            argv.insert(int(rng.integers(1, len(argv) + 1)), _pick(rng, UNKNOWN))
        elif u < 0.65:
            argv.append(_pick(rng, argv[1:]))
        elif u < 0.75:
            argv.append(_pick(rng, NUMERIC))
        elif u < 0.85:
            argv.append(f"--method={_pick(rng, ['euler', 'RK4', '', 'implicit'])}")
        else:
            argv.append(f"--out={path.parent / 'missing' / 'x.csv'}")
    return argv


def test_cli_error_contract_holds_on_malformed_inputs(tmp_path):
    rng = np.random.default_rng(MALFORMED_SEED)
    path = tmp_path / "model.json"
    for case in range(MALFORMED_CASES):
        cfg, m, r = _config(rng)
        argv = _argv(rng, path, m, r)
        if rng.uniform() < 0.4:  # a config that cannot be read, with a usable argv
            data = _bytes_of(rng, cfg)
        else:
            data, argv = json.dumps(cfg).encode(), _malformed(rng, argv, path)
        path.write_bytes(data)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            code = main(argv)
        where = f"case {case}: {data!r} {argv[0]} {argv[2:]}"
        assert code in (0, 2, 3, 4, 5, 6), where
        if code >= 3:
            lines = out.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), where
        assert WALL_TIME.fullmatch(err.getvalue()), where
