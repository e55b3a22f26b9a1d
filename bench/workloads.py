"""The four benchmark workloads.

Each workload has a ``setup(lib, seed)`` that builds what its ops need,
and a ``round(lib, ctx, seed, index)`` that draws the inputs of round
``index`` from the seed and returns that round's ops.  An op is a pair
of callables: ``run()`` makes the library calls that are timed, and
``check(result)`` compares the outputs against their references and
returns ``(failures, digest_bytes)``.  ``failures`` is a list of short
strings, empty when the op passed; a failed guard is a failure.

``lib`` is a namespace holding the nine algmech layer modules, so every
call goes through module attributes and is seen by the tracer.

Inputs of round ``index`` come from ``numpy.random.default_rng([seed,
index])`` alone, so a round is the same whether or not it is traced and
however many rounds a run manages.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os

import numpy as np

# The Suslov inertia used throughout: it couples the constrained axis to
# the free ones, so the constrained motion is not constant and the
# implicit solver has to iterate.  (The diagonal inertia of acceptance
# criterion 06 leaves the velocity fixed and Newton idle.)
COUPLED_INERTIA = [[2.0, 0.0, 0.3], [0.0, 1.5, 0.2], [0.3, 0.2, 1.0]]

# model label -> (built-in name, parameters)
MODELS = {
    "pendulum": ("pendulum", {}),
    "harmonic-oscillator": ("harmonic-oscillator", {}),
    "free-particle": ("free-particle", {}),
    "free-particle-3d": ("free-particle", {"d": 3}),
    "rigid-body": ("rigid-body", {}),
    "affine-rank2": ("affine-rank2", {}),
    "suslov-coupled": ("suslov", {"inertia": COUPLED_INERTIA}),
    "degenerate-demo": ("degenerate-demo", {}),
}

# Op sizes.  They are part of the benchmark definition and are echoed in
# every result; changing one makes results incomparable.
SIZES = {
    "trajectory": {
        "h": 1e-3,
        "T": 0.1,
        # an odd count keeps the median op inside one model's latencies
        "models": ["pendulum", "harmonic-oscillator", "free-particle",
                   "free-particle-3d", "rigid-body", "affine-rank2",
                   "suslov-coupled"],
        "oracle_tol": 1e-8,
        "drift_tol": 1e-9,
    },
    "geometry": {
        "points": 16,
        "hj_h": 5e-3,
        "hj_T": 0.25,
        "hj_tol": 1e-8,
        "models": ["free-particle", "pendulum", "harmonic-oscillator",
                   "rigid-body", "suslov-coupled", "degenerate-demo",
                   "affine-rank2"],
    },
    "implicit": {
        "h": 1e-2,
        "T": 0.3,
        "models": ["pendulum", "harmonic-oscillator", "rigid-body",
                   "affine-rank2", "suslov-coupled"],
        # second-order bound: deviation from the oracle (or energy drift
        # where there is no oracle) at most this constant times h^2
        "second_order_const": 1.0,
    },
    "cli": {
        "simulate_h": 1e-3,
        "simulate_T": 0.1,
        "validate_samples": 200,
        "dirac_points": 10,
        "dirac_pairs": 100,
        "hj_T": 0.5,
    },
}

# Guard thresholds.
MIN_JET_CALLS_PER_STEP = 2.0
# The diagonal inertia of criterion 06 gives a change of exactly 0.0; the
# coupled one gives at least 2e-5 over the shortest horizon used here.
MIN_SUSLOV_VELOCITY_CHANGE = 1e-8

WORK_DIR = os.path.join(".bench_out", "work")


def _g(v) -> str:
    return repr(float(v))


def _digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.digest()


def _build(lib, label):
    name, params = MODELS[label]
    return lib.models.get_model(name, **params)


def _warm(lib, bundle):
    """First evaluation of every compiled jet a model carries."""
    A, Lg = bundle.system.A, bundle.system.Lg
    x = np.array([0.5 * (lo + hi) for lo, hi in bundle.box])
    bp = lib.algebroid.BasePoint(x)
    A.anchor_jet_at(bp)
    A.structure_jet_at(bp)
    Lg.jet(lib.algebroid.FiberPoint(x, np.full(A.n, 0.5)))
    for section in bundle.hj_sections.values():
        section.momentum_jacobian(bp)


def _initial(bundle, rng):
    """Seeded (x0, ya0): x inside the model's box, each velocity component
    of magnitude in [0.2, 0.8] with a random sign, so no op starts at rest."""
    x0 = np.array([rng.uniform(lo, hi) for lo, hi in bundle.box])
    r = bundle.system.U.r
    ya0 = rng.uniform(0.2, 0.8, size=r) * rng.choice([-1.0, 1.0], size=r)
    return x0, ya0


class Counts:
    """Counts calls to ``Lagrangian.jet``, and the ``anchor_jet_at`` calls
    that missed the algebroid's cache (made an ``eval_jet2`` call), while
    active.  Used for the mechanism guards; it
    patches class and module attributes and restores them on exit."""

    def __init__(self, lib):
        self.lib = lib
        self.jet = 0
        self.anchor_miss = 0
        self._evals = 0

    def __enter__(self):
        lib = self.lib
        Lag, LA = lib.prolong.Lagrangian, lib.algebroid.LieAlgebroid
        self._saved = (Lag.__dict__["jet"], LA.__dict__["anchor_jet_at"], lib.expr.eval_jet2)
        jet, anchor, ev = self._saved
        counts = self

        def counted_jet(*a, **k):
            counts.jet += 1
            return jet(*a, **k)

        def counted_anchor(*a, **k):
            before = counts._evals
            out = anchor(*a, **k)
            if counts._evals != before:
                counts.anchor_miss += 1
            return out

        def counted_eval(*a, **k):
            counts._evals += 1
            return ev(*a, **k)

        Lag.jet = counted_jet
        LA.anchor_jet_at = counted_anchor
        lib.expr.eval_jet2 = counted_eval
        return self

    def __exit__(self, *exc):
        lib = self.lib
        lib.prolong.Lagrangian.jet, lib.algebroid.LieAlgebroid.anchor_jet_at, lib.expr.eval_jet2 = self._saved
        return False


def _max_dev(traj, ref):
    dev = 0.0
    for st, rs in zip(traj.states, ref.states):
        dev = max(dev, float(np.abs(st.y - rs.y).max()))
        if st.x.size:
            dev = max(dev, float(np.abs(st.x - rs.x).max()))
    return dev


def _velocity_change(traj):
    y0 = traj.states[0].y
    return max(float(np.abs(st.y - y0).max()) for st in traj.states)


def _mechanism_guards(label, counts, traj=None):
    fails = []
    if (traj is not None and label == "suslov-coupled"
            and _velocity_change(traj) < MIN_SUSLOV_VELOCITY_CHANGE):
        fails.append("guard: suslov velocity constant")
    if label == "affine-rank2" and counts.anchor_miss == 0:
        fails.append("guard: affine-rank2 never missed the anchor_jet_at cache")
    return fails


# ---------------------------------------------------------------------------
# trajectory: explicit RK4 + energy drift + oracle
# ---------------------------------------------------------------------------


class _ModelWorkload:
    """A workload whose ops each take one built-in model; set-up builds
    and warms every model once."""

    name = ""

    def setup(self, lib, seed):
        bundles = {}
        for label in SIZES[self.name]["models"]:
            bundles[label] = _build(lib, label)
            _warm(lib, bundles[label])
        return bundles


class Trajectory(_ModelWorkload):
    name = "trajectory"

    def round(self, lib, bundles, seed, index):
        size = SIZES[self.name]
        rng = np.random.default_rng([seed, index])
        return [
            self._op(lib, label, bundles[label], _initial(bundles[label], rng), size)
            for label in size["models"]
        ]

    def _op(self, lib, label, bundle, init, size):
        h, T = size["h"], size["T"]
        counts = Counts(lib)

        def run():
            with counts:
                traj = lib.dynamics.integrate(bundle.system, init, h, T)
                drift = lib.dynamics.energy_drift(bundle.system, traj)
                ref = None
                if bundle.oracle is not None:
                    ref = lib.models.oracle_trajectory(bundle, init, h, T)
            return traj, drift, ref

        def check(result):
            traj, (E0, drift), ref = result
            fails = []
            if len(traj.states) != round(T / h) + 1:
                fails.append("wrong number of states")
            if not drift <= size["drift_tol"]:
                fails.append(f"energy drift {drift:.3e}")
            dev = 0.0
            if ref is not None:
                dev = _max_dev(traj, ref)
                if not dev <= size["oracle_tol"]:
                    fails.append(f"oracle deviation {dev:.3e}")
            fails += _mechanism_guards(label, counts, traj)
            last = traj.states[-1]
            return fails, _digest(last.x, last.y, last.p, [E0, drift, dev])

        return label, run, check


# ---------------------------------------------------------------------------
# geometry: structure, Dirac generators, membership, canonical maps, HJ
# ---------------------------------------------------------------------------


class Geometry(_ModelWorkload):
    name = "geometry"

    def round(self, lib, bundles, seed, index):
        size = SIZES[self.name]
        rng = np.random.default_rng([seed, index])
        ops = []
        for label in size["models"]:
            b = bundles[label]
            n, k = b.system.A.n, size["points"]
            inputs = {
                "x": [np.array([rng.uniform(lo, hi) for lo, hi in b.box]) for _ in range(k)],
                "p": rng.standard_normal((k, n)),
                "coeff": rng.standard_normal((k, 2 * n)),
                "rand": rng.standard_normal((k, 4 * n)),
                "zu": rng.standard_normal((k, 2 * n)),
                "y": rng.standard_normal((k, n)),
            }
            hj = None
            if b.hj_sections:
                hj = {
                    "x0": rng.uniform(-0.2, 0.2, size=len(b.box)),
                    "perturb_seed": int(rng.integers(2**32)),
                    "failing": bool(index % 2 == 0),
                }
            ops.append(self._op(lib, label, b, inputs, hj, size))
        return ops

    def _op(self, lib, label, bundle, inp, hj, size):
        alg, dirac, prolong = lib.algebroid, lib.dirac, lib.prolong
        A, Lg, U = bundle.system.A, bundle.system.Lg, bundle.system.U
        n = A.n
        counts = Counts(lib)

        def run():
            out = {"orth": [], "rank": [], "inside": [], "random": [], "maps": []}
            with counts:
                pts = [alg.BasePoint(x) for x in inp["x"]]
                out["structure"] = A.validate_structure(pts, 1e-10)
                for k, x in enumerate(inp["x"]):
                    pt = alg.DualPoint(x, inp["p"][k])
                    basis = dirac.dirac_generators(A, U, pt)
                    out["orth"].append(dirac.check_self_orthogonal(basis))
                    M = basis.matrix()
                    out["rank"].append(int(np.linalg.matrix_rank(M, tol=1e-9)))
                    for key, v in (("inside", inp["coeff"][k] @ M), ("random", inp["rand"][k])):
                        cand = dirac.DiracPair(
                            prolong.ProlongVector(pt, v[:n], v[n : 2 * n]),
                            prolong.ProlongCovector(pt, v[2 * n : 3 * n], v[3 * n :]),
                        )
                        a = dirac.dirac_member_symplectic(A, U, cand, tol=1e-8)
                        b = dirac.dirac_member_poisson(A, U, cand, tol=1e-8)
                        out[key].append((a.member, b.member))
                    zu = inp["zu"][k]
                    X = prolong.ProlongVector(pt, zu[:n], zu[n:])
                    w = prolong.A_E_map(A, X)
                    a1 = prolong.gamma_E_map(A, w)
                    a2 = prolong.omega_flat(A, prolong.A_E_inverse(A, w))
                    Y = prolong.omega_sharp(A, prolong.omega_flat(A, X))
                    e = alg.FiberPoint(x, inp["y"][k])
                    DL = prolong.dirac_differential(Lg, e)
                    comp = prolong.gamma_E_map(A, prolong.d_TEE_L(Lg, e))
                    out["maps"].append(
                        max(
                            np.abs(a1.r - a2.r).max(initial=0.0), np.abs(a1.v - a2.v).max(initial=0.0),
                            np.abs(Y.z - X.z).max(initial=0.0), np.abs(Y.u - X.u).max(initial=0.0),
                            np.abs(DL.r - comp.r).max(initial=0.0), np.abs(DL.v - comp.v).max(initial=0.0),
                        )
                    )
                if hj is not None:
                    x0 = alg.BasePoint(hj["x0"])
                    section = bundle.perturb(np.random.default_rng(hj["perturb_seed"]), hj["failing"])
                    out["hj"] = [
                        lib.hj.verify_theorem(bundle.system, s, x0, size["hj_h"], size["hj_T"], size["hj_tol"])
                        for s in (bundle.hj_sections["default"], section)
                    ]
            return out

        def check(out):
            fails = []
            rep = out["structure"]
            if not rep.passed:
                fails.append(f"structure residuals {rep.max_residual_eq1:.2e} {rep.max_residual_eq2:.2e}")
            if max(out["orth"]) > 1e-10:
                fails.append(f"self-orthogonality {max(out['orth']):.2e}")
            if any(r != 2 * n for r in out["rank"]):
                fails.append("generator rank below 2n")
            if not all(a and b for a, b in out["inside"]):
                fails.append("a combination of generators tested as non-member")
            if any(a or b for a, b in out["random"]):
                fails.append("a random candidate tested as member")
            if max(out["maps"]) > 1e-12:
                fails.append(f"canonical map identity residual {max(out['maps']):.2e}")
            vals = [rep.max_residual_eq1, rep.max_residual_eq2, *out["orth"], *out["maps"]]
            if hj is not None:
                base, pert = out["hj"]
                if not (base.hj_pass and base.lift_pass and base.consistent):
                    fails.append("default HJ section failed the theorem check")
                if not pert.consistent or pert.hj_pass == hj["failing"]:
                    fails.append("perturbed HJ section broke the biconditional")
                vals += [base.max_hj_residual, base.max_lift_residual,
                         pert.max_hj_residual, pert.max_lift_residual]
            fails += _mechanism_guards(label, counts)
            return fails, _digest(vals, out["rank"], np.array(out["inside"] + out["random"], dtype=float))

        return label, run, check


# ---------------------------------------------------------------------------
# implicit: implicit-midpoint integration with Newton at every step
# ---------------------------------------------------------------------------


class Implicit(_ModelWorkload):
    name = "implicit"

    def round(self, lib, bundles, seed, index):
        size = SIZES[self.name]
        rng = np.random.default_rng([seed, index])
        return [
            self._op(lib, label, bundles[label], _initial(bundles[label], rng), size)
            for label in size["models"]
        ]

    def _op(self, lib, label, bundle, init, size):
        h, T = size["h"], size["T"]
        counts = Counts(lib)

        def run():
            with counts:
                return lib.dynamics.integrate(bundle.system, init, h, T, method="implicit_midpoint")

        def check(traj):
            fails = []
            steps = len(traj.states) - 1
            if steps != round(T / h):
                fails.append("wrong number of states")
            bound = size["second_order_const"] * h * h
            if bundle.oracle is not None:
                dev = _max_dev(traj, lib.models.oracle_trajectory(bundle, init, h, T))
            else:
                dev = lib.dynamics.energy_drift(bundle.system, traj)[1]
            if not dev <= bound:
                fails.append(f"second-order deviation {dev:.3e} > {bound:.1e}")
            per_step = counts.jet / max(steps, 1)
            if not per_step > MIN_JET_CALLS_PER_STEP:
                fails.append(f"guard: {per_step:.1f} Lagrangian.jet calls per step, Newton idle")
            fails += _mechanism_guards(label, counts, traj)
            last = traj.states[-1]
            return fails, _digest(last.x, last.y, last.p, [dev, counts.jet])

        return label, run, check


# ---------------------------------------------------------------------------
# cli: README commands run in-process through algmech.cli.main
# ---------------------------------------------------------------------------


class Cli:
    name = "cli"

    CONFIG_MODEL = "suslov-coupled"

    def setup(self, lib, seed):
        os.makedirs(WORK_DIR, exist_ok=True)
        cfg = lib.config.bundle_to_config(_build(lib, self.CONFIG_MODEL))
        path = os.path.join(WORK_DIR, "suslov-coupled.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh, indent=1, sort_keys=True)
        loaded = lib.config.bundle_from_config(lib.config.load_config(path), name=path)
        if lib.config.bundle_to_config(loaded) != cfg:
            raise RuntimeError("config does not round-trip through bundle_from_config")
        _warm(lib, loaded)
        return {"config": path, "outputs": {}, "argv": self._argv(seed, path)}

    def _argv(self, seed, config):
        size = SIZES[self.name]
        rng = np.random.default_rng([seed, 0])
        h, T = _g(size["simulate_h"]), _g(size["simulate_T"])
        w = rng.uniform(0.2, 0.8, size=3) * rng.choice([-1.0, 1.0], size=3)
        csv = os.path.join(WORK_DIR, "simulate.csv")
        return [
            ["simulate", "--model", "rigid-body", "--y0=" + ",".join(_g(v) for v in w),
             "--h", h, "--T", T, "--out", csv],
            ["validate", "--model", "affine-rank2", "--samples", str(size["validate_samples"]),
             "--tol", "1e-10", "--seed", str(int(rng.integers(2**31)))],
            ["dirac-check", "--model", "suslov", "--points", str(size["dirac_points"]),
             "--pairs", str(size["dirac_pairs"]), "--seed", str(int(rng.integers(2**31)))],
            ["hj-check", "--model", "harmonic-oscillator", "--x0=" + _g(rng.uniform(-0.3, 0.3)),
             "--T", _g(size["hj_T"])],
            ["simulate", "--config", config, "--y0=" + ",".join(_g(v) for v in w[:2]),
             "--h", h, "--T", T],
        ]

    def round(self, lib, ctx, seed, index):
        return [self._op(lib, argv, ctx["outputs"]) for argv in ctx["argv"]]

    def _op(self, lib, argv, seen):
        key = " ".join(argv)
        csv = argv[argv.index("--out") + 1] if "--out" in argv else None
        size = SIZES[self.name]

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = lib.cli.main(list(argv))
            body = b""
            if csv is not None:
                with open(csv, "rb") as fh:
                    body = fh.read()
            return code, out.getvalue(), body

        def check(result):
            code, stdout, body = result
            fails = []
            if code != 0:
                fails.append(f"exit code {code}")
            if argv[0] in ("validate", "dirac-check", "hj-check") and "verdict: pass" not in stdout:
                fails.append("no 'verdict: pass'")
            if argv[0] == "simulate":
                steps = round(size["simulate_T"] / size["simulate_h"])
                if f"steps: {steps}" not in stdout:
                    fails.append("wrong step count")
                if csv is not None:
                    rows = body.decode().splitlines()
                    if len(rows) != steps + 2 or not rows[0].endswith("E_L,res_kin,res_mom"):
                        fails.append("CSV is not a header plus steps + 1 rows with residual columns")
            first = seen.setdefault(key, (stdout, body))
            if first != (stdout, body):
                fails.append("output differs from the same argv earlier in the run")
            return fails, hashlib.sha256(stdout.encode() + body).digest()

        return argv[0], run, check


WORKLOADS = {w.name: w for w in (Trajectory(), Geometry(), Implicit(), Cli())}
