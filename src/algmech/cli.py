"""Command-line surface: model listing and validation, simulation with
energy reports, Dirac-structure certification, and Hamilton–Jacobi
verification.

All sampling is driven by a seeded 64-bit generator (default seed 42),
and every report line is printed with full double precision, so a
repeated command is byte-identical.  Wall-clock time goes to stderr to
keep stdout deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time

import numpy as np

from .algebroid import BasePoint, DualPoint
from .config import bundle_from_config, load_config
from .dirac import check_self_orthogonal, dirac_generators, dirac_members
from .dynamics import _drift, _energies, _lift_residuals, _steps, integrate
from .errors import (
    AlgmechError,
    ConfigError,
    Degenerate,
    EvaluationFault,
    HypothesisViolated,
    NewtonDivergence,
    RankDeficient,
)
from .hj import verify_theorem
from .models import get_model, model_names

EXIT_PASS = 0
EXIT_FAIL = 2
EXIT_DEGENERATE = 3
EXIT_NEWTON = 4
EXIT_HYPOTHESIS = 5
EXIT_CONFIG = 6

# built models kept per process: the bench's five commands use five, and
# each distinct config content one more
BUNDLE_CACHE_SIZE = 32


def _g(v: float) -> str:
    return format(float(v), ".17g")


_FIELD = "%.17g"  # one CSV field: the same text as _g


@functools.lru_cache(maxsize=BUNDLE_CACHE_SIZE)
def _bundle(name: str, text: str | None = None):
    """The built-in model ``name``, or the model of the config read from
    path ``name``, given as ``text``, its JSON in file order.  Built
    once per process for each key, so an edited config is built again; a
    failed build is not kept and fails again.

    Commands share a kept bundle safely: none mutates it, the state of one
    run is bound fresh on every call (``_adapted_field`` binds a fresh
    inverse-Hessian cache, ``_midpoint_step`` binds h), and
    ``Lagrangian._fields`` and the jets cached on its expressions hold
    only code.
    """
    if text is None:
        return get_model(name)
    return bundle_from_config(json.loads(text), name=name)


def _load_bundle(args):
    if args.config is not None:
        if args.model is not None:
            raise ConfigError("give --model or --config, not both")
        return _bundle(args.config, json.dumps(load_config(args.config)))
    if args.model is None:
        raise ConfigError("need --model or --config")
    return _bundle(args.model)


def _sample_x(bundle, rng) -> np.ndarray:
    return np.array([rng.uniform(lo, hi) for lo, hi in bundle.box])


def _parse_floats(text, count, what):
    items = [t for t in text.split(",") if t.strip()] if text else []
    if len(items) != count:
        raise ConfigError(f"{what} needs {count} comma-separated numbers")
    try:
        values = np.array([float(t) for t in items])
    except ValueError:
        raise ConfigError(f"{what} contains a non-number") from None
    if not np.isfinite(values).all():
        raise ConfigError(f"{what} must be finite")
    return values


def _check_args(args):
    """Refuse option values no command can run with, before any work."""
    for name, v in vars(args).items():
        if isinstance(v, list):  # "--opt=--", which argparse may read as []
            raise ConfigError(f"--{name} needs a value")
    for opt, low in (("samples", 1), ("points", 1), ("pairs", 0), ("seed", 0), ("tol", 0)):
        if not getattr(args, opt, low) >= low:  # nan is not
            raise ConfigError(f"--{opt} must be at least {low}")
    if hasattr(args, "h"):
        try:
            _steps(args.h, args.T)
        except ValueError as e:
            raise ConfigError(f"--h/--T: {e}") from None


def cmd_list_models(args) -> int:
    for name in model_names():
        print(f"{name}: {_bundle(name).doc}")
    return EXIT_PASS


def cmd_validate(args) -> int:
    bundle = _load_bundle(args)
    rng = np.random.default_rng(args.seed)
    pts = [BasePoint(_sample_x(bundle, rng)) for _ in range(args.samples)]
    report = bundle.system.A.validate_structure(pts, args.tol)
    U = bundle.system.U
    rank_ok = True
    for pt in pts[:1] if U.constant else pts:  # a constant span has one rank
        try:
            U.completion(pt)
        except RankDeficient:
            rank_ok = False
            break
    print(f"model: {bundle.name}")
    print(f"samples: {args.samples}  tol: {_g(args.tol)}")
    print(f"residual_eq1: {_g(report.max_residual_eq1)}")
    print(f"residual_eq2: {_g(report.max_residual_eq2)}")
    print(f"subbundle_rank_ok: {rank_ok}")
    ok = report.passed and rank_ok
    print(f"verdict: {'pass' if ok else 'fail'}")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_simulate(args) -> int:
    bundle = _load_bundle(args)
    sys_ = bundle.system
    if not sys_.U.adapted:
        raise ConfigError("simulate needs the subbundle in adapted form ('adapted:r')")
    m, n, r = sys_.A.m, sys_.A.n, sys_.U.r
    x0 = _parse_floats(args.x0, m, "--x0")
    ya0 = _parse_floats(args.y0, r, "--y0")
    traj = integrate(sys_, (x0, ya0), args.h, args.T, args.method)
    energies = _energies(sys_, traj.states)
    E0, drift = _drift(energies)

    if args.out:
        cols = (
            ["t"]
            + [f"x{i + 1}" for i in range(m)]
            + [f"y{a + 1}" for a in range(n)]
            + [f"p{a + 1}" for a in range(n)]
            + ["E_L", "res_kin", "res_mom"]
        )
        lines = [",".join(cols)]
        fmt = ",".join([_FIELD] * len(cols))
        reports = _lift_residuals(sys_, traj.states, args.h, np.inf)
        for t, st, E, rep in zip(traj.times, traj.states, energies, reports):
            lines.append(fmt % (t, *st.x, *st.y, *st.p, E, rep.r_kin, rep.r_mom))
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write("\n".join(lines) + "\n")
        except OSError as e:
            raise ConfigError(f"cannot write --out {args.out!r}: {e}") from None
    print(f"model: {bundle.name}  method: {args.method}")
    print(f"h: {_g(args.h)}  T: {_g(args.T)}  steps: {len(traj.states) - 1}")
    print(f"E0: {_g(E0)}")
    print(f"max_energy_drift: {_g(drift)}")
    if args.out:
        print(f"csv: {args.out}")
    return EXIT_PASS


def cmd_dirac_check(args) -> int:
    bundle = _load_bundle(args)
    sys_ = bundle.system
    A, U = sys_.A, sys_.U
    n = A.n
    rng = np.random.default_rng(args.seed)
    points = [DualPoint(_sample_x(bundle, rng), rng.standard_normal(n)) for _ in range(args.points)]
    bases = [dirac_generators(A, U, pt) for pt in points]
    worst_orth = float(np.max([check_self_orthogonal(b) for b in bases]))  # keeps nan
    rank_ok = all(np.linalg.matrix_rank(b.matrix(), tol=1e-9) == 2 * n for b in bases)
    rows = []
    for k in range(args.pairs):
        if rng.uniform() < 0.5:
            rows.append(rng.standard_normal(2 * n) @ bases[k % len(points)].matrix())
        else:
            rows.append(rng.standard_normal(4 * n))
    at = np.arange(args.pairs) % len(points)
    sym, poi = dirac_members(A, U, points, rows, at, tol=1e-8)
    agree = bool(np.array_equal(sym, poi))
    print(f"model: {bundle.name}")
    print(f"points: {args.points}  pairs: {args.pairs}")
    print(f"generator_rank_ok: {rank_ok}")
    print(f"self_orthogonality: {_g(worst_orth)}")
    print(f"constructions_agree: {agree}")
    ok = rank_ok and worst_orth <= 1e-10 and agree
    print(f"verdict: {'pass' if ok else 'fail'}")
    return EXIT_PASS if ok else EXIT_FAIL


def cmd_hj_check(args) -> int:
    bundle = _load_bundle(args)
    sys_ = bundle.system
    try:
        section = bundle.hj_sections[args.section]
    except KeyError:
        raise ConfigError(
            f"model {bundle.name!r} has no section {args.section!r}"
        ) from None
    x0 = BasePoint(_parse_floats(args.x0, sys_.A.m, "--x0"))
    report = verify_theorem(sys_, section, x0, args.h, args.T, args.tol)
    start = report.at_x0
    print(f"model: {bundle.name}  section: {args.section}")
    print(f"in_U_at_x0: {start.in_U}  legendre_gap: {_g(start.legendre_gap)}")
    print(f"closedness_at_x0: {_g(report.closedness_at_x0)}")
    print(f"max_hj_residual: {_g(report.max_hj_residual)}")
    print(f"max_lift_residual: {_g(report.max_lift_residual)}")
    print(f"hj_pass: {report.hj_pass}  lift_pass: {report.lift_pass}")
    print(f"consistent: {report.consistent}")
    ok = report.hj_pass and report.lift_pass and report.consistent
    print(f"verdict: {'pass' if ok else 'fail'}")
    return EXIT_PASS if ok else EXIT_FAIL


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ConfigError (exit 6 on one error: line); no flag
    is abbreviated, so ``--h`` cannot stand for ``--help``."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="algmech",
        description="Constrained implicit Lagrangian mechanics toolkit.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", help="built-in model name")
        p.add_argument("--config", help="JSON model description")
        p.add_argument("--seed", type=int, default=42)

    sub.add_parser("list-models", help="list built-in models")

    p = sub.add_parser("validate", help="check the structure equations")
    common(p)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--tol", type=float, default=1e-10)

    p = sub.add_parser("simulate", help="integrate and report energy drift")
    common(p)
    p.add_argument("--x0", default="", help="comma-separated base point")
    p.add_argument("--y0", default="", help="comma-separated velocity components")
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--method", choices=("rk4", "implicit_midpoint"), default="rk4")
    p.add_argument("--out", help="trajectory CSV path")

    p = sub.add_parser("dirac-check", help="certify the induced structure")
    common(p)
    p.add_argument("--points", type=int, default=100)
    p.add_argument("--pairs", type=int, default=1000)

    p = sub.add_parser("hj-check", help="verify a candidate section")
    common(p)
    p.add_argument("--section", default="default")
    p.add_argument("--x0", default="", help="comma-separated base point")
    p.add_argument("--h", type=float, default=5e-3)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--tol", type=float, default=1e-8)

    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call shares: parsing fills a fresh
    namespace each time and leaves the parser as it was."""
    return build_parser()


_COMMANDS = {
    "list-models": cmd_list_models,
    "validate": cmd_validate,
    "simulate": cmd_simulate,
    "dirac-check": cmd_dirac_check,
    "hj-check": cmd_hj_check,
}


def main(argv=None) -> int:
    started = time.perf_counter()
    try:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as e:  # --help printed the usage
            return e.code
        _check_args(args)
        with np.errstate(all="ignore"):  # an overflow ends in a check or an error: line
            code = _COMMANDS[args.command](args)
    except Degenerate as e:
        print(f"error: degenerate system: {e}")
        code = EXIT_DEGENERATE
    except NewtonDivergence as e:
        print(f"error: implicit solver diverged: {e}")
        code = EXIT_NEWTON
    except HypothesisViolated as e:
        print(f"error: hypothesis violated: {e}")
        code = EXIT_HYPOTHESIS
    except EvaluationFault as e:
        print(f"error: evaluation failed: {e}")
        code = EXIT_CONFIG
    except AlgmechError as e:  # usage, config, parse and option errors, FlowBlowUp, RankDeficient
        print(f"error: {e}")
        code = EXIT_CONFIG
    except RecursionError as e:  # JSON, an expression or its jet nested past the stack
        print(f"error: input nested too deeply: {e}")
        code = EXIT_CONFIG
    print(f"wall_time_s: {time.perf_counter() - started:.3f}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
