"""What ``cli.main`` keeps between calls in one process: the one parser,
and the code objects of emitted sources (``expr._code``), which every
rebuilt jet, RK4 field and midpoint step runs in a namespace of its own."""

import builtins
import contextlib
import io
import json

import pytest

from algmech import cli, dynamics, expr
from algmech.expr import CODE_CACHE_SIZE, compile_jet2, parse


def _run(*argv):
    """Exit code and stdout of an in-process ``cli.main`` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _counting_compile(monkeypatch):
    calls = []
    real = builtins.compile

    def counted(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else kwargs.get("filename"))
        return real(*args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counted)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        ("simulate", "--model", "affine-rank2", "--x0=0.1", "--y0=0.2,0.3", "--h", "1e-2",
         "--T", "0.05", "--method", "rk4"),
        ("simulate", "--model", "rigid-body", "--y0=0.4,-0.5,0.6", "--h", "1e-2", "--T", "0.05",
         "--method", "implicit_midpoint"),
    ],
)
def test_a_repeated_command_compiles_nothing(tmp_path, monkeypatch, argv):
    argv = (*argv, "--out", tmp_path / "o.csv")
    # the RK4 step and Newton kernels are kept per process by shape: clear
    # them too, so that the first run compiles them whatever ran before
    for cache in (expr._code, dynamics._rk4_kernel, dynamics._newton_kernel):
        cache.cache_clear()
    calls = _counting_compile(monkeypatch)
    first = _run(*argv), (tmp_path / "o.csv").read_bytes()
    compiled, misses = len(calls), expr._code.cache_info().misses
    assert compiled > 0 and misses == compiled
    second = _run(*argv), (tmp_path / "o.csv").read_bytes()
    assert first == second and first[0][0] == 0
    assert len(calls) == compiled and expr._code.cache_info().misses == misses
    rk4 = {"<adapted field>", "<rk4 step>"}
    assert set(calls) == {"<jet2>"} | ({"<midpoint step>"} if "implicit_midpoint" in argv else rk4)


def test_the_code_cache_keeps_at_most_its_bound():
    expr._code.cache_clear()
    for k in range(CODE_CACHE_SIZE + 20):
        jet = compile_jet2(parse(f"{k + 1} * x1"), ["x1"])
        assert jet({"x1": 2.0})[0] == 2.0 * (k + 1)
    info = expr._code.cache_info()
    assert info.maxsize == CODE_CACHE_SIZE and info.currsize == CODE_CACHE_SIZE
    assert info.misses == CODE_CACHE_SIZE + 20


# affine-rank2 as a config: an x-dependent anchor, a constant structure
BASE = {
    "m": 1, "n": 2, "r": 2, "anchor": [["1", "x1"]], "structure": {"1,1,2": "1"},
    "lagrangian": "0.5 * y1^2 + 0.5 * y2^2 + 0.25 * y1 * y2 - 0.5 * x1^2",
    "subbundle": "adapted:2", "box": [[-0.5, 0.5]],
}
VARIANTS = {
    "rho": {"anchor": [["1", "1.5 * x1"]]},
    "C": {"structure": {"1,1,2": "2"}},
    "L": {"lagrangian": "0.5 * y1^2 + 0.5 * y2^2 + 0.25 * y1 * y2 - 0.75 * x1^2"},
}


@pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
@pytest.mark.parametrize("change", sorted(VARIANTS))
def test_configs_one_constant_apart_get_their_own_code(tmp_path, method, change):
    paths = {}
    for name, cfg in (("base", BASE), (change, {**BASE, **VARIANTS[change]})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(cfg))
    out_csv = tmp_path / "o.csv"

    def run(name):
        result = _run("simulate", "--config", paths[name], "--x0=0.1", "--y0=0.2,-0.3",
                      "--h", "1e-2", "--T", "0.05", "--method", method, "--out", out_csv)
        return result, out_csv.read_bytes()

    cold = {}
    for name in paths:
        expr._code.cache_clear()
        cold[name] = run(name)
    assert cold["base"][0][0] == 0 and cold[change][0][0] == 0
    assert cold["base"][1] != cold[change][1]
    for name in ("base", change, "base", change):
        assert run(name) == cold[name]


def test_the_shared_parser_keeps_nothing_from_an_earlier_call(tmp_path):
    out_csv = tmp_path / "o.csv"
    pendulum = ("simulate", "--model", "pendulum", "--x0=0.1", "--y0=0.2", "--h", "1e-2")
    code, out = _run(*pendulum, "--T", "0.02", "--method", "implicit_midpoint",
                     "--out", out_csv)
    assert code == 0 and f"csv: {out_csv}" in out and out_csv.exists()
    out_csv.unlink()
    code, out = _run(*pendulum, "--T", "0.02")
    assert code == 0 and "csv:" not in out and not out_csv.exists()
    assert "method: rk4" in out
    for argv in (["validate", "--model", "pendulum", "--samples", "3", "--tol", "1e-9"],
                 ["validate"], ["simulate", "--h", "0.5", "--out", "x"], ["simulate"]):
        fresh = vars(cli.build_parser().parse_args(argv))
        assert vars(cli._parser().parse_args(argv)) == fresh
    assert cli._parser() is cli._parser()
    code, out = _run("validate", "--model", "pendulum", "--samples", "3", "--tol", "1e-9")
    assert code == 0 and "samples: 3  tol: 1.0000000000000001e-09" in out
    code, out = _run("validate", "--model", "pendulum")
    assert code == 0 and "samples: 100  tol: 1e-10" in out
