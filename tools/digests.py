"""Digests of the library's outputs: one sha256 per group, and a total.

    python tools/digests.py [SRC]        the groups of the package under SRC
                                         (default: the src/ beside tools/)
    python tools/digests.py SRC OTHER    both trees, each in a subprocess of
                                         this interpreter, and the groups
                                         that differ

A change that keeps every output bit-identical keeps every group.  Each
group hashes floats exactly (``float.hex``, array bytes), and an error
by its type and message, so a run that raises is compared too:

- ``integrate``: RK4 and implicit-midpoint states and ``energy_drift`` of
  15 systems from 3 seeded starts at (h, T) = (1e-2, 0.3) and (1e-3, 0.05);
- ``lift``: the lift residuals of those trajectories;
- ``degenerate``: the RK4 errors of degenerate-demo from the same starts;
- ``hj``: ``base_flow`` and ``verify_theorem`` on every HJ section of the
  built-in models, and on seeded perturbations of them;
- ``geometry``: generator matrices, both membership reports and
  ``dirac_members`` at seeded points on the seven models and the three
  x-dependent configs;
- ``cli``: stdout and the ``--out`` CSV of the README commands and of the
  five bench ``cli`` argvs at seeds 1 and 7, run in a temporary directory.

Compare digests made by one interpreter only: ``sum`` compensates its
rounding from Python 3.12 on, and stacked numpy products may round
differently under another BLAS.  The exit status is 0 whatever differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GRIDS = ((1e-2, 0.3), (1e-3, 0.05))
README_ARGVS = (
    ("list-models",),
    ("validate", "--model", "rigid-body", "--samples", "100", "--tol", "1e-10"),
    ("simulate", "--model", "rigid-body", "--y0", "1,1,1", "--h", "1e-3", "--T", "10",
     "--out", "traj.csv"),
    ("dirac-check", "--model", "suslov", "--points", "100", "--pairs", "1000"),
    ("hj-check", "--model", "harmonic-oscillator", "--x0", "0", "--T", "1"),
)
COUPLED_INERTIA = [[2.0, 0.0, 0.3], [0.0, 1.5, 0.2], [0.3, 0.2, 1.0]]
X_DEPENDENT_CONFIGS = {
    "x-dependent-config": {
        "m": 1, "n": 2, "r": 2, "anchor": [["1 + x1^2", "x1"]],
        "structure": {"1,1,2": "sin(x1)", "2,1,2": "x1^2 - 1"},
        "lagrangian": "0.5 * y1^2 + 0.5 * (1 + x1^2) * y2^2 + x1 * y1 * y2 - cos(x1)",
    },
    "x-dependent-config-rank-2-of-3": {
        "m": 1, "n": 3, "r": 2, "anchor": [["1", "x1", "x1^2"]],
        "structure": {"1,1,2": "1 + x1", "3,1,2": "sin(x1)", "2,2,3": "x1"},
        "lagrangian": "0.5 * y1^2 + 0.5 * (2 + x1^2) * y2^2 + 0.5 * y3^2"
                      " + 0.3 * x1 * y1 * y2 + 0.2 * y2 * y3 - cos(x1)",
        "subbundle": "adapted:2",
    },
    "x-dependent-config-on-a-plane": {
        "m": 2, "n": 2, "r": 2, "anchor": [["1", "x1 * x2"], ["sin(x2)", "x1^2"]],
        "structure": {"1,1,2": "x1 + x2^3", "2,1,2": "cos(x1 * x2)"},
        "lagrangian": "0.5 * y1^2 + 0.5 * y2^2",
    },
}


def _constant_config(r: int) -> dict:
    return {
        "m": 3, "n": 3, "r": r,
        "anchor": [["0.7", "-1.3", "0.2"], ["0.1", "2.5", "-0.9"], ["1.1", "0.3", "0.6"]],
        "structure": {"1,1,2": "0.3", "2,1,3": "-1.7", "3,2,3": "2.9", "1,2,3": "0.45"},
        "lagrangian": "0.5 * y1^2 + 0.7 * y2^2 + 0.9 * y3^2 + 0.3 * y1 * y2"
                      " + x1 * y1 * y3 + sin(x2) * y2 - cos(x1) * x3",
        "subbundle": f"adapted:{r}",
    }


def _feed(h, obj) -> None:
    """Feed ``obj`` to the hash ``h`` exactly: arrays by dtype, shape and
    bytes, floats by ``float.hex``, sequences and carriers item by item."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, float):
        h.update(float(obj).hex().encode())
    elif isinstance(obj, (list, tuple)):
        h.update(b"[")
        for item in obj:
            _feed(h, item)
        h.update(b"]")
    elif isinstance(obj, BaseException):
        h.update(f"{type(obj).__name__}: {obj}".encode())
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        _feed(h, list(vars(obj).values()))
    else:
        h.update(repr(obj).encode())
    h.update(b";")


def _outcome(f, *args):
    """``f(*args)``, or the exception it raised."""
    try:
        return f(*args)
    except Exception as exc:  # an error is an output too
        return exc


def _starts(box, r, seed):
    """Three seeded (x0, ya0): x inside the box, each velocity component of
    magnitude in [0.2, 0.8] with a random sign."""
    rng = np.random.default_rng(seed)
    return [([rng.uniform(lo, hi) for lo, hi in box],
             rng.uniform(0.2, 0.8, r) * rng.choice([-1.0, 1.0], r)) for _ in range(3)]


def _check_systems(lib):
    """(label, system, box) of the 15 systems of the ``integrate`` group."""
    get, config = lib.models.get_model, lib.config.bundle_from_config
    bundles = [(name, get(name)) for name in lib.models.model_names()]
    bundles += [("free-particle-3d", get("free-particle", d=3)),
                ("suslov-coupled", get("suslov", inertia=np.array(COUPLED_INERTIA)))]
    bundles += [(name, config(cfg)) for name, cfg in X_DEPENDENT_CONFIGS.items()]
    bundles += [(f"constant-config-rank-{r}", config(_constant_config(r))) for r in (3, 2)]
    out = [(name, b.system, b.box) for name, b in bundles]
    A = lib.algebroid.LieAlgebroid(1, 2, [["1 + x1^2", "0"]], {(1, 0, 1): "sin(x1)"})
    Lg = lib.prolong.Lagrangian(
        A, "0.5 * y1^2 + 0.5 * (1 + x1^2) * y2^2 + x1 * y1 * y2 - cos(x1)")
    out.append(("x-dependent-bracket", lib.dynamics.ImplicitSystem(
        A, Lg, lib.algebroid.Subbundle.full(A)), ((-0.5, 0.5),)))
    return out


def _trajectory_groups(lib, groups) -> None:
    dyn = lib.dynamics
    for k, (label, sys_, box) in enumerate(_check_systems(lib)):
        for x0, ya0 in _starts(box, sys_.U.r, [k, 0]):
            for h, T in GRIDS:
                for method in ("rk4", "implicit_midpoint"):
                    traj = _outcome(dyn.integrate, sys_, (x0, ya0), h, T, method)
                    if label == "degenerate-demo" and method == "rk4":
                        _feed(groups["degenerate"], traj)
                        continue
                    _feed(groups["integrate"], [label, method, traj])
                    if not isinstance(traj, Exception):
                        _feed(groups["integrate"], _outcome(dyn.energy_drift, sys_, traj))
                        _feed(groups["lift"], _outcome(
                            dyn._lift_residuals, sys_, list(traj.states), h, np.inf))


def _hj_group(lib, h) -> None:
    get, BasePoint = lib.models.get_model, lib.algebroid.BasePoint
    for k, name in enumerate(lib.models.model_names()):
        bundle = get(name)
        sections = list(bundle.hj_sections.items())
        if bundle.perturb is not None and sections:
            sections += [(f"perturbed-{seed}", bundle.perturb(np.random.default_rng(seed),
                                                              seed % 2 == 0))
                         for seed in range(4)]
        rng = np.random.default_rng([k, 1])
        xs = [[0.5 * (lo + hi) for lo, hi in bundle.box]]
        xs += [[rng.uniform(lo, hi) for lo, hi in bundle.box] for _ in range(2)]
        for label, s in sections:
            for x in xs:
                x0 = BasePoint(x)
                _feed(h, [name, label, _outcome(lib.hj.base_flow, bundle.system, s, x0, 5e-3, 0.25),
                          _outcome(lib.hj.verify_theorem, bundle.system, s, x0, 5e-3, 0.25, 1e-8)])


def _geometry_group(lib, h) -> None:
    dirac, DualPoint = lib.dirac, lib.algebroid.DualPoint
    bundles = [(name, lib.models.get_model(name)) for name in lib.models.model_names()]
    bundles += [(name, lib.config.bundle_from_config(cfg))
                for name, cfg in X_DEPENDENT_CONFIGS.items()]
    for k, (name, bundle) in enumerate(bundles):
        A, U = bundle.system.A, bundle.system.U
        rng = np.random.default_rng([k, 2])
        points = [DualPoint([rng.uniform(lo, hi) for lo, hi in bundle.box],
                            rng.standard_normal(A.n)) for _ in range(8)]
        rows, at = [], []
        for j, pt in enumerate(points):
            M = _outcome(dirac.generator_matrix, A, U, pt)
            _feed(h, [name, M])
            if isinstance(M, Exception):
                continue
            for row in (rng.standard_normal(2 * A.n) @ M, rng.standard_normal(4 * A.n)):
                z, u, r, v = np.split(row, 4)
                pair = dirac.DiracPair(lib.prolong.ProlongVector(pt, z, u),
                                       lib.prolong.ProlongCovector(pt, r, v))
                _feed(h, [_outcome(dirac.dirac_member_symplectic, A, U, pair, 1e-8),
                          _outcome(dirac.dirac_member_poisson, A, U, pair, 1e-8)])
                rows.append(row)
                at.append(j)
        _feed(h, _outcome(dirac.dirac_members, A, U, points, rows, at, 1e-8))


def _cli_group(lib, h) -> None:
    sys.path.insert(0, str(ROOT / "bench"))
    workloads = importlib.import_module("workloads")
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            argvs = [*README_ARGVS]
            for seed in (1, 7):
                argvs += workloads.Cli().setup(lib, seed)["argv"]
            for argv in argvs:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = lib.cli.main(list(argv))
                csv = argv[argv.index("--out") + 1] if "--out" in argv else None
                _feed(h, [list(argv), code, out.getvalue(),
                          Path(csv).read_bytes() if csv else b""])
        finally:
            os.chdir(cwd)


def digests(src: Path) -> dict:
    """The sha256 of each group, and of all of them, for the package under src."""
    sys.path.insert(0, str(src))
    lib = importlib.import_module("algmech")
    if Path(lib.__file__).resolve().parent != (src / "algmech").resolve():
        raise SystemExit(f"error: algmech imported from {lib.__file__}, not from {src}")
    for mod in ("algebroid", "cli", "config", "dirac", "dynamics", "hj", "models", "prolong"):
        importlib.import_module(f"algmech.{mod}")
    names = ("integrate", "lift", "degenerate", "hj", "geometry", "cli")
    groups = {name: hashlib.sha256() for name in names}
    with np.errstate(all="ignore"):
        _trajectory_groups(lib, groups)
        _hj_group(lib, groups["hj"])
        _geometry_group(lib, groups["geometry"])
    _cli_group(lib, groups["cli"])
    out = {name: g.hexdigest() for name, g in groups.items()}
    out["total"] = hashlib.sha256("".join(out.values()).encode()).hexdigest()
    return out


def _parse(text: str) -> dict:
    return dict(line.split() for line in text.splitlines() if line.strip())


def main(argv) -> int:
    srcs = [Path(a) for a in argv] or [ROOT / "src"]
    if len(srcs) == 1:
        for name, value in digests(srcs[0]).items():
            print(f"{name} {value}")
        return 0
    if len(srcs) != 2:
        print(__doc__)
        return 2
    runs = [subprocess.run([sys.executable, __file__, str(s)], capture_output=True, text=True,
                           check=True).stdout for s in srcs]
    a, b = map(_parse, runs)
    for name in a:
        state = "same" if a[name] == b.get(name) else "DIFFERS"
        print(f"{name:10s} {state:7s} {a[name]}  {b.get(name)}")
    differ = [name for name in a if a[name] != b.get(name)]
    print(f"groups that differ: {', '.join(differ) or 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
