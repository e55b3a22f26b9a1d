"""What ``cli.main`` keeps between calls in one process: the one parser,
the built models (``cli._bundle``, by name or by config path and
content), and the code objects of emitted sources (``expr._code``), which
every rebuilt jet, RK4 field and midpoint step runs in a namespace of its
own."""

import builtins
import contextlib
import io
import json

import pytest

from algmech import cli, dynamics, expr
from algmech.algebroid import LieAlgebroid
from algmech.cli import BUNDLE_CACHE_SIZE
from algmech.config import bundle_to_config
from algmech.expr import CODE_CACHE_SIZE, compile_jet2, parse
from algmech.models import get_model


def _run(*argv):
    """Exit code and stdout of an in-process ``cli.main`` run."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def _counting(monkeypatch, owner, name):
    """The argument tuples of the calls to ``owner.name`` from now on."""
    calls = []
    real = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
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
    # the built models, and the RK4 step and Newton kernels by shape, are
    # kept per process: clear them too, so that the first run builds and
    # compiles them whatever ran before
    for cache in (cli._bundle, expr._code, dynamics._rk4_kernel, dynamics._newton_kernel):
        cache.cache_clear()
    calls = _counting(monkeypatch, builtins, "compile")
    first = _run(*argv), (tmp_path / "o.csv").read_bytes()
    compiled, misses = len(calls), expr._code.cache_info().misses
    assert compiled > 0 and misses == compiled
    second = _run(*argv), (tmp_path / "o.csv").read_bytes()
    assert first == second and first[0][0] == 0
    assert len(calls) == compiled and expr._code.cache_info().misses == misses
    rk4 = {"<adapted field>", "<rk4 step>"}
    labels = {filename for _, filename, _ in calls}
    assert labels == {"<jet2>"} | ({"<midpoint step>"} if "implicit_midpoint" in argv else rk4)


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
        cli._bundle.cache_clear()
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


def _bench_argvs(tmp_path):
    """The five commands of the bench's cli workload: a built-in model
    each, and the coupled Suslov model read from a config file."""
    coupled = get_model("suslov", inertia=[[2.0, 0.0, 0.3], [0.0, 1.5, 0.2], [0.3, 0.2, 1.0]])
    config = tmp_path / "suslov-coupled.json"
    config.write_text(json.dumps(bundle_to_config(coupled), indent=1, sort_keys=True))
    step = ("--h", "1e-3", "--T", "0.1")
    return [
        ("simulate", "--model", "rigid-body", "--y0=0.4,-0.5,0.6", *step,
         "--out", tmp_path / "simulate.csv"),
        ("validate", "--model", "affine-rank2", "--samples", "200", "--tol", "1e-10",
         "--seed", "11"),
        ("dirac-check", "--model", "suslov", "--points", "10", "--pairs", "100", "--seed", "12"),
        ("hj-check", "--model", "harmonic-oscillator", "--x0=0.1", "--T", "0.5"),
        ("simulate", "--config", config, "--y0=0.4,-0.5", *step),
    ]


def _outputs(argvs):
    """Exit code, stdout and --out CSV of each command, in order."""
    results = []
    for argv in argvs:
        code, out = _run(*argv)
        csv = argv[argv.index("--out") + 1].read_bytes() if "--out" in argv else b""
        results.append((code, out, csv))
    return results


def test_a_second_round_of_the_bench_commands_parses_compiles_and_builds_nothing(
        tmp_path, monkeypatch):
    argvs = _bench_argvs(tmp_path)
    cli._bundle.cache_clear()
    parsed = _counting(monkeypatch, expr, "parse")
    built = _counting(monkeypatch, LieAlgebroid, "__init__")
    compiled = _counting(monkeypatch, builtins, "compile")
    first = _outputs(argvs)
    assert [code for code, _, _ in first] == [0] * 5
    assert parsed and len(built) == 5
    for calls in (parsed, built, compiled):
        calls.clear()
    assert _outputs(argvs) == first
    assert parsed == built == compiled == []
    assert cli._bundle.cache_info().currsize == 5


def test_a_config_rewritten_at_the_same_path_is_built_again(tmp_path):
    path, out_csv = tmp_path / "model.json", tmp_path / "o.csv"
    argv = ("simulate", "--config", path, "--x0=0.1", "--y0=0.2,-0.3", "--h", "1e-2",
            "--T", "0.05", "--out", out_csv)
    results = []
    for cfg in (BASE, {**BASE, **VARIANTS["L"]}):
        path.write_text(json.dumps(cfg))
        results.append(_outputs([argv])[0])
    cli._bundle.cache_clear()
    assert _outputs([argv]) == results[1:]
    assert results[0][0] == results[1][0] == 0 and results[0][2] != results[1][2]
    assert f"model: {path}" in results[1][1]


def test_the_bundle_cache_keeps_at_most_its_bound(tmp_path):
    cli._bundle.cache_clear()
    for k in range(BUNDLE_CACHE_SIZE + 5):
        path = tmp_path / f"model{k % 3}.json"
        path.write_text(json.dumps({**BASE, "lagrangian": f"0.5 * y1^2 + 0.5 * y2^2 + {k} * x1"}))
        code, out = _run("validate", "--config", path, "--samples", "1")
        assert code == 0 and f"model: {path}" in out
    info = cli._bundle.cache_info()
    assert info.maxsize == BUNDLE_CACHE_SIZE and info.currsize == BUNDLE_CACHE_SIZE
    assert info.misses == BUNDLE_CACHE_SIZE + 5 and info.hits == 0


@pytest.mark.parametrize(
    "change, argv, message",
    [
        ({"lagrangian": "0.5 * y1^2 +"}, (), "error: lagrangian: "),
        ({"anchor": [["ln(0)", "1"]]}, (), "error: evaluation failed: "),
        ({"box": [[1, -1]]}, (), "error: box must be 1 pairs"),
        (None, ("--model", "nope"), "error: unknown model 'nope'"),
    ],
)
def test_a_failed_build_fails_the_same_way_again(tmp_path, change, argv, message):
    if change is not None:
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**BASE, **change}))
        argv = ("--config", path)
    cli._bundle.cache_clear()
    first = _run("validate", *argv, "--samples", "1")
    assert first[0] == 6 and first[1].startswith(message) and first[1].count("\n") == 1
    assert _run("validate", *argv, "--samples", "1") == first
    info = cli._bundle.cache_info()
    assert info.currsize == 0 and info.misses == 2


def test_every_command_on_a_kept_bundle_prints_what_a_fresh_build_prints(tmp_path):
    config = tmp_path / "affine.json"
    config.write_text(json.dumps(BASE))
    out_csv = tmp_path / "o.csv"
    argvs = [("list-models",)]
    for source in (("--model", "affine-rank2"), ("--config", config)):
        argvs += [
            ("validate", *source, "--samples", "20"),
            ("dirac-check", *source, "--points", "3", "--pairs", "10"),
            *(("simulate", *source, "--x0=0.1", "--y0=0.2,-0.3", "--h", "1e-2", "--T", "0.05",
               "--method", method, "--out", out_csv) for method in ("rk4", "implicit_midpoint")),
        ]
    argvs.append(("hj-check", "--model", "harmonic-oscillator", "--x0=0.1", "--T", "0.1"))
    fresh = []
    for argv in argvs:
        cli._bundle.cache_clear()
        fresh += _outputs([argv])
    assert all(code == 0 for code, _, _ in fresh)
    # each command after the others ran on the same kept bundles
    assert _outputs(argvs) == _outputs(argvs) == fresh
