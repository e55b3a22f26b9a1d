"""The five bench ``cli`` argvs, run twice in one process.

    PYTHONPATH=src python tools/cli_passes.py

prints, for each pass, its time, the exit codes, the sources compiled and
the calls counted, then each argv's time in pass 2.  The exit status is 1
if an exit code of pass 2 is not 0, if pass 2 compiles or parses anything,
or if either pass calls a per-pair Dirac membership test or builds a
``DiracPair``; else 0.  A repeated command reuses the model that the
first pass built, with its compiled jets, field and step.

The argvs are the bench ``cli`` workload's at seed 1; its ``setup`` writes
their config and the ``--out`` CSV under ``.bench_out/work`` in the
current directory.  The counters wrap ``builtins.compile``,
``expr.parse``, the two per-pair membership tests and ``DiracPair``'s two
constructors while the passes run, and are taken off after them.
"""

from __future__ import annotations

import builtins
import contextlib
import importlib
import io
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_MISSING = object()


@contextlib.contextmanager
def counting(lib):
    """A dict that counts, inside the block, the calls of ``compile``,
    ``parse``, each per-pair membership test and ``DiracPair``."""
    calls = dict.fromkeys(("compile", "parse", "dirac_member_symplectic",
                           "dirac_member_poisson", "DiracPair"), 0)
    pair = lib.dirac.DiracPair
    sites = [(builtins, "compile", "compile"), (lib.expr, "parse", "parse"),
             *((lib.dirac, name, name) for name in ("dirac_member_symplectic",
                                                    "dirac_member_poisson")),
             (pair, "__init__", "DiracPair"), (pair, "_trusted", "DiracPair")]
    saved = [(owner, attr, vars(owner).get(attr, _MISSING)) for owner, attr, _ in sites]

    def counted(name, f):
        def g(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)

        return g

    for owner, attr, name in sites:
        f = counted(name, getattr(owner, attr))
        setattr(owner, attr, staticmethod(f) if attr == "_trusted" else f)
    try:
        yield calls
    finally:
        for owner, attr, old in saved:
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)


def main() -> int:
    import algmech
    for mod in ("algebroid", "cli", "config", "dirac", "expr", "models"):
        importlib.import_module(f"algmech.{mod}")
    if str(ROOT / "bench") not in sys.path:
        sys.path.insert(0, str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    argvs = workloads.Cli().setup(algmech, 1)["argv"]
    paired = 0  # per-pair Dirac tests and DiracPairs, over both passes
    with counting(algmech) as calls:
        for k in (1, 2):
            t, codes, times = time.perf_counter(), [], []
            calls.update(dict.fromkeys(calls, 0))
            for argv in argvs:
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    codes.append(algmech.cli.main(list(argv)))
                times.append(time.perf_counter() - t0)
            compiled = calls["compile"]
            paired += sum(calls[name] for name in ("dirac_member_symplectic",
                                                   "dirac_member_poisson", "DiracPair"))
            print(f"cli pass {k}: {time.perf_counter() - t:.4f} s, exit codes {codes}, "
                  f"sources compiled {compiled}, calls {calls}")
    for argv, s in zip(argvs, times):
        print(f"  pass 2: {1e3 * s:7.2f} ms  {' '.join(argv)}")
    return int(codes != [0] * 5 or compiled != 0 or any(calls.values()) or paired != 0)


if __name__ == "__main__":
    raise SystemExit(main())
