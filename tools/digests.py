"""Digests of the library's outputs: one sha256 per group, and a total.

    python tools/digests.py [SRC]        the groups of the package under SRC
                                         (default: the src/ beside tools/)
    python tools/digests.py SRC OTHER    both trees, each in a subprocess of
                                         this interpreter, the groups that
                                         differ, and by how much

A change that keeps every output bit-identical keeps every group.  Each
group hashes floats exactly (``float.hex``, array bytes), and an error
by its type and message, so a run that raises is compared too:

- ``integrate``: RK4 and implicit-midpoint states and ``energy_drift`` of
  15 systems from 3 seeded starts at (h, T) = (1e-2, 0.3), (1e-3, 0.05)
  and (1e-2, 1.0);
- ``lift``: the lift residuals of those trajectories;
- ``degenerate``: the RK4 errors of degenerate-demo from the same starts;
- ``hj``: ``base_flow`` and ``verify_theorem`` on every HJ section of the
  built-in models, and on seeded perturbations of them;
- ``geometry``: generator matrices, both membership reports and
  ``dirac_members`` at seeded points on the seven models and the three
  x-dependent configs;
- ``cli``: stdout and the ``--out`` CSV of the README commands and of the
  five bench ``cli`` argvs at seeds 1 and 7, run in a temporary directory;
- ``jets``: the flat jets of the 15 systems at 3 seeded points each
  (``Lagrangian._flat``, the list-form ``anchor_jet_at`` and
  ``structure_jet_at``), the parts of every HJ section of the ``hj``
  group at 3 seeded points, and the first (walked) and the compiled
  ``eval_jet2`` of one expression per derivative rule at 4 points,
  faults included.

For each group that differs, the two-tree form prints the largest
absolute deviation over the group's floats (the numbers in its text
included) and how many of them differ in any bit; for the trajectory
groups also per (h, T).  Where the two sides differ in structure (an error
on one side, other lengths, other text), it prints the first place instead.

Compare digests made by one interpreter only: ``sum`` compensates its
rounding from Python 3.12 on, and stacked numpy products may round
differently under another BLAS.  The exit status is 0 whatever differs.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import math
import os
import pickle
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
GRIDS = ((1e-2, 0.3), (1e-3, 0.05), (1e-2, 1.0))
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")
README_ARGVS = (
    ("list-models",),
    ("validate", "--model", "rigid-body", "--samples", "100", "--tol", "1e-10"),
    ("simulate", "--model", "rigid-body", "--y0", "1,1,1", "--h", "1e-3", "--T", "10",
     "--out", "traj.csv"),
    ("dirac-check", "--model", "suslov", "--points", "100", "--pairs", "1000"),
    ("hj-check", "--model", "harmonic-oscillator", "--x0", "0", "--T", "1"),
)
# one expression per derivative rule of the jet compiler: each function on
# a live and on a constant argument, the powers 0, 1 and 3, and division;
# JET_POINTS hold a fault for ln, sqrt, exp and the division
RULE_TEXTS = (
    *(form.format(f) for f in ("sin", "cos", "exp", "ln", "sqrt")
      for form in ("{}(x1 * x2)", "x2 * {}(0.7)")),
    "(x1 - x2)^0", "(x1 * x2)^1", "(x1 - 2 * x2)^3", "x1 / (x2 - 1)",
)
JET_POINTS = ([0.7, 1.3], [-0.5, 1.0], [0.0, 2.0], [800.0, 1.5])
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


class _Group:
    """A group's sha256, and the leaves it hashed in order: each float, and
    everything else as text with its numbers taken out as floats.  The
    leaves are kept per ``part``, which the trajectory groups set to the
    grid."""

    def __init__(self):
        self.sha, self.part, self.parts = hashlib.sha256(), "", {}

    def add(self, data: bytes, leaves: list) -> None:
        self.sha.update(data)
        self.parts.setdefault(self.part, []).extend(leaves)

    def text(self, text: str) -> None:
        self.add(text.encode(), [NUMBER.sub("#", text), *map(float, NUMBER.findall(text))])


def _feed(g: _Group, obj) -> None:
    """Feed ``obj`` to the group ``g`` exactly: arrays by dtype, shape and
    bytes, floats by ``float.hex``, sequences and carriers item by item."""
    if isinstance(obj, np.ndarray):
        g.add(f"{obj.dtype.str}{obj.shape}".encode(), [f"{obj.dtype.str}{obj.shape}"])
        values = obj.ravel().tolist()
        g.add(np.ascontiguousarray(obj).tobytes(),
              values if obj.dtype.kind == "f" else [repr(values)])
    elif isinstance(obj, float):
        g.add(float(obj).hex().encode(), [float(obj)])
    elif isinstance(obj, (list, tuple)):
        g.add(b"[", ["["])
        for item in obj:
            _feed(g, item)
        g.add(b"]", ["]"])
    elif isinstance(obj, BaseException):
        g.text(f"{type(obj).__name__}: {obj}")
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        g.add(type(obj).__name__.encode(), [type(obj).__name__])
        _feed(g, list(vars(obj).values()))
    else:
        g.text(repr(obj))
    g.add(b";", [])


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
                for name in ("integrate", "lift", "degenerate"):
                    groups[name].part = f"(h, T) = ({h:g}, {T:g})"
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


def _sections(bundle) -> list:
    """(label, section) of the bundle's HJ sections and, where it has
    any, of four seeded perturbations of them."""
    sections = list(bundle.hj_sections.items())
    if bundle.perturb is not None and sections:
        sections += [(f"perturbed-{seed}", bundle.perturb(np.random.default_rng(seed),
                                                          seed % 2 == 0))
                     for seed in range(4)]
    return sections


def _hj_group(lib, h) -> None:
    get, BasePoint = lib.models.get_model, lib.algebroid.BasePoint
    for k, name in enumerate(lib.models.model_names()):
        bundle = get(name)
        sections = _sections(bundle)
        rng = np.random.default_rng([k, 1])
        xs = [[0.5 * (lo + hi) for lo, hi in bundle.box]]
        xs += [[rng.uniform(lo, hi) for lo, hi in bundle.box] for _ in range(2)]
        for label, s in sections:
            for x in xs:
                x0 = BasePoint(x)
                _feed(h, [name, label, _outcome(lib.hj.base_flow, bundle.system, s, x0, 5e-3, 0.25),
                          _outcome(lib.hj.verify_theorem, bundle.system, s, x0, 5e-3, 0.25, 1e-8)])


def _jets_group(lib, h) -> None:
    for k, (label, sys_, box) in enumerate(_check_systems(lib)):
        A, Lg = sys_.A, sys_.Lg
        rng = np.random.default_rng([k, 3])
        for _ in range(3):
            x = [rng.uniform(lo, hi) for lo, hi in box]
            y = rng.standard_normal(A.n).tolist()
            _feed(h, [label, _outcome(Lg._flat, [*x, *y]), _outcome(A.anchor_jet_at, x),
                      _outcome(A.structure_jet_at, x)])
    for k, name in enumerate(lib.models.model_names()):
        bundle = lib.models.get_model(name)
        rng = np.random.default_rng([k, 4])
        xs = [[rng.uniform(lo, hi) for lo, hi in bundle.box] for _ in range(3)]
        for label, s in _sections(bundle):
            for x in xs:
                _feed(h, [name, label, *(_outcome(s._part, part, x, gradients)
                                         for part in (s.gamma, s.gammabar)
                                         for gradients in (False, True))])
    for text in RULE_TEXTS:
        for x in JET_POINTS:
            e = lib.expr.parse(text)  # a fresh pair: walked first, then compiled
            _feed(h, [text, *(_outcome(lib.expr.eval_jet2, e, x, ("x1", "x2"))
                              for _ in range(2))])


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
            M = _outcome(lambda: dirac.dirac_generators(A, U, pt).matrix())
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
    """The groups of the package under src, by name."""
    sys.path.insert(0, str(src))
    lib = importlib.import_module("algmech")
    if Path(lib.__file__).resolve().parent != (src / "algmech").resolve():
        raise SystemExit(f"error: algmech imported from {lib.__file__}, not from {src}")
    for mod in ("algebroid", "cli", "config", "dirac", "dynamics", "hj", "models", "prolong"):
        importlib.import_module(f"algmech.{mod}")
    names = ("integrate", "lift", "degenerate", "hj", "geometry", "cli", "jets")
    groups = {name: _Group() for name in names}
    with np.errstate(all="ignore"):
        _trajectory_groups(lib, groups)
        _hj_group(lib, groups["hj"])
        _geometry_group(lib, groups["geometry"])
        _jets_group(lib, groups["jets"])
    _cli_group(lib, groups["cli"])
    return groups


def _parse(text: str) -> dict:
    return dict(line.split() for line in text.splitlines() if line.strip())


def _deviation(a: list, b: list) -> str:
    """The largest absolute deviation between the floats of two leaf lists,
    and how many differ in any bit; or the first place where the lists
    differ in anything but a float."""
    worst, count, floats = 0.0, 0, 0
    for i, (u, v) in enumerate(zip(a, b)):
        if isinstance(u, float) and isinstance(v, float):
            floats += 1
            if u.hex() != v.hex():
                count, d = count + 1, abs(u - v)
                worst = max(worst, d if d <= math.inf else math.inf)  # a nan on one side
        elif u != v:
            j = 0
            if isinstance(u, str) and isinstance(v, str):
                j = next(j for j, (c, d) in enumerate(zip(u + "\0", v + "\1")) if c != d)
            cut = lambda w: w[max(j - 20, 0) : j + 40] if isinstance(w, str) else w
            return f"structure differs at leaf {i}: {cut(u)!r} against {cut(v)!r}"
    if len(a) != len(b):
        return f"structure differs: {len(a)} leaves against {len(b)}"
    return f"max abs dev {worst:.1e} ({count} of {floats} floats differ)"


def main(argv) -> int:
    # SRC --leaves FILE, as the two-tree form runs each tree: also pickle
    # the leaves of each group to FILE
    dump = argv.pop() if argv[1:2] == ["--leaves"] and len(argv) == 3 else None
    srcs = [Path(a) for a in argv[:1 if dump else None]] or [ROOT / "src"]
    if len(srcs) == 1:
        groups = digests(srcs[0])
        if dump:
            with open(dump, "wb") as fh:
                pickle.dump({name: g.parts for name, g in groups.items()}, fh)
        out = {name: g.sha.hexdigest() for name, g in groups.items()}
        out["total"] = hashlib.sha256("".join(out.values()).encode()).hexdigest()
        for name, value in out.items():
            print(f"{name} {value}")
        return 0
    if len(srcs) != 2:
        print(__doc__)
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        paths = [Path(tmp, f"{k}.pickle") for k in range(2)]
        runs = [subprocess.run([sys.executable, __file__, str(s), "--leaves", str(p)],
                               capture_output=True, text=True, check=True).stdout
                for s, p in zip(srcs, paths)]
        leaves = []
        for p in paths:
            with open(p, "rb") as fh:
                leaves.append(pickle.load(fh))
    a, b = map(_parse, runs)
    for name in a:
        state = "same" if a[name] == b.get(name) else "DIFFERS"
        print(f"{name:10s} {state:7s} {a[name]}  {b.get(name)}")
        if state == "same" or name == "total":
            continue
        parts = [leaves[0][name], leaves[1][name]]
        print(f"{'':10s} {_deviation(*(sum(p.values(), []) for p in parts))}")
        if len(parts[0]) > 1:
            for part in parts[0]:
                print(f"{'':12s} {part}: {_deviation(parts[0][part], parts[1].get(part, []))}")
    differ = [name for name in a if a[name] != b.get(name)]
    print(f"groups that differ: {', '.join(differ) or 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
