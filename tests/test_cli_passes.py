import ast
import builtins
import importlib.util
import re
from pathlib import Path

import algmech.cli
import algmech.dirac
import algmech.expr

_spec = importlib.util.spec_from_file_location(
    "cli_passes", Path(__file__).resolve().parent.parent / "tools" / "cli_passes.py")
cli_passes = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(cli_passes)

PASS = re.compile(r"cli pass (\d): [\d.]+ s, exit codes (\[.*?\]), sources compiled (\d+), "
                  r"calls (\{.*\})$")


def test_the_second_pass_of_the_bench_cli_argvs_compiles_and_parses_nothing(
        monkeypatch, capsys, tmp_path):
    monkeypatch.chdir(tmp_path)  # the bench's config and the --out CSV land here
    pair = algmech.dirac.DiracPair
    wrapped = (builtins.compile, algmech.expr.parse, algmech.dirac.dirac_member_symplectic,
               algmech.dirac.dirac_member_poisson, pair.__init__)
    algmech.cli._bundle.cache_clear()  # so pass 1 builds, compiles and parses each model
    assert cli_passes.main() == 0
    assert (builtins.compile, algmech.expr.parse, algmech.dirac.dirac_member_symplectic,
            algmech.dirac.dirac_member_poisson, pair.__init__) == wrapped
    assert "_trusted" not in vars(pair)
    lines = capsys.readouterr().out.splitlines()
    (k1, codes1, compiled1, calls1), (k2, codes2, compiled2, calls2) = (
        PASS.match(line).groups() for line in lines[:2])
    assert (k1, k2) == ("1", "2") and codes1 == codes2 == "[0, 0, 0, 0, 0]"
    first, second = ast.literal_eval(calls1), ast.literal_eval(calls2)
    assert int(compiled1) == first["compile"] > 0 and first["parse"] > 0  # the counters count
    assert int(compiled2) == 0 and set(second.values()) == {0}
    assert [first[name] for name in ("dirac_member_symplectic", "dirac_member_poisson",
                                     "DiracPair")] == [0, 0, 0]
    assert len(lines) == 7 and all(line.startswith("  pass 2: ") for line in lines[2:])
    assert "--out" in lines[2]
    rows = (tmp_path / ".bench_out" / "work" / "simulate.csv").read_text().splitlines()
    assert rows[0] == "t,y1,y2,y3,p1,p2,p3,E_L,res_kin,res_mom"  # rigid body: no x
    assert len(rows) == 102  # the header and the 101 states of T = 0.1 at h = 1e-3
