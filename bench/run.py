"""algmech benchmark runner.

    python3 bench/run.py --workload trajectory --seed 1 --seconds 20 --trace 0

Runs one workload as a closed loop, one op in flight, in this single
process and thread, against the package source in ``src/`` of the
checkout that holds this file.  The last line of stdout is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced;
with ``--trace 1`` they are the per-layer ones from a traced run of a
fixed number of rounds.  The line before it is a JSON report with the
host facts, op sizes, sample counts and digests.  See bench/README.md.
"""

from __future__ import annotations

import os

# numpy links a multi-threaded OpenBLAS; the benchmark measures one
# thread, and the setting only takes effect before numpy is loaded.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse
import gc
import hashlib
import importlib
import json
import math
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

import spans  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

# Set-ups per untraced run; the first warms the bytecode cache and is
# dropped, setup_s is the median of the rest.
SETUP_REPEATS = 5
# Rounds in a traced run (and in its untraced reference pass), per workload.
TRACE_ROUNDS = {"trajectory": 4, "geometry": 6, "implicit": 8, "cli": 8}
# Speed probe: a fixed mix of the work the library's inner loops do
# (small dicts, 3-vectors, a 3x3 product, a math call), run next to every
# op.  Its rate over CALIBRATION_REF_RATE is the host's current speed.
CALIBRATION_REPS = 8
CALIBRATION_REF_RATE = 1.0e4
_CAL_A = np.arange(9.0).reshape(3, 3)
_CAL_B = np.ones(3)
# Candidate tail percentiles, highest first; a run reports the highest
# that still has at least TAIL_MIN_BEYOND ops above it.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)
TAIL_MIN_BEYOND = 10

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    **{f"{layer}.{kind}": unit for layer in spans.LAYERS
       for kind, unit in (("calls", "count"), ("self_s", "s"))},
    "bench.self_s": "s",
    "expr.compile_jet2.calls": "count",
    "expr.compile_jet2.self_s": "s",
    "expr.eval_jet2.calls": "count",
    "expr.eval_jet2.us_per_call": "us",
    "algebroid.jet_cache_hit_ratio": "ratio",
    "algebroid.points_constructed": "count",
    "algebroid.point_init.self_s": "s",
    "prolong.vectors_constructed": "count",
    "prolong.vector_init.self_s": "s",
    "prolong.Lagrangian.jet.calls": "count",
    "prolong.Lagrangian.jet.us_per_call": "us",
    "dirac.generators.us_per_call": "us",
    "dirac.membership.us_per_call": "us",
    "dynamics.rk4.step_us": "us",
    "dynamics.energy_drift.us_per_state": "us",
    "dynamics.midpoint.step_us": "us",
    "dynamics.midpoint.jet_calls_per_step": "calls/step",
    "dynamics.residual.us_per_call": "us",
    "dynamics.states_constructed": "count",
    "dynamics.state_init.self_s": "s",
    "models.oracle.step_us": "us",
    "hj.verify_theorem.ms_per_call": "ms",
    "hj.base_flow.self_s": "s",
    "config.bundle_from_config.self_s": "s",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}


# ---------------------------------------------------------------------------
# library loading
# ---------------------------------------------------------------------------


def fresh_import():
    """Import the algmech layers from scratch (numpy stays loaded) and
    return them as a namespace."""
    for name in [n for n in sys.modules if n == "algmech" or n.startswith("algmech.")]:
        del sys.modules[name]
    mods = {layer: importlib.import_module(f"algmech.{layer}") for layer in spans.LAYERS}
    found = Path(mods["expr"].__file__).resolve()
    if SRC.resolve() not in found.parents:
        raise RuntimeError(f"algmech imported from {found}, not from {SRC}")
    return SimpleNamespace(**mods)


# ---------------------------------------------------------------------------
# host facts
# ---------------------------------------------------------------------------


def kernel_rate(seconds: float = 0.25) -> float:
    """Iterations per second of a fixed pure-Python loop: a probe of how
    fast this host runs interpreter-bound code right now."""
    done = 0
    t0 = time.perf_counter()
    while True:
        s = 0
        for i in range(10000):
            s += i * i
        done += 10000
        elapsed = time.perf_counter() - t0
        if elapsed >= seconds:
            return done / elapsed


def git_commit():
    """The checkout's commit, read from .git without running git; None
    when the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_facts(seed):
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_commit": git_commit(),
        "seed": seed,
    }


def host_speed():
    """(speed, ns): the probe's rate relative to the reference host, and
    the nanoseconds the probe took."""
    gc.disable()  # a collection of the library's garbage is not host speed
    t0 = time.perf_counter_ns()
    acc = 0.0
    for _ in range(CALIBRATION_REPS):
        for i in range(10):
            d = {f"x{j}": float(i + j) for j in range(4)}
            v = np.array([d["x0"], d["x1"], d["x2"]])
            acc += float(np.abs(_CAL_A @ v + _CAL_B).max()) + math.sin(0.1 * i)
    ns = time.perf_counter_ns() - t0
    gc.enable()
    return CALIBRATION_REPS * 1e9 / ns / CALIBRATION_REF_RATE, ns


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def tail(latencies):
    """(percentile, value, ops beyond) for the highest candidate
    percentile with at least TAIL_MIN_BEYOND ops above it (nearest rank)."""
    xs = sorted(latencies)
    n = len(xs)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * n)
        if n - rank >= TAIL_MIN_BEYOND:
            return p, xs[rank - 1], n - rank
    return 50.0, statistics.median(xs), n - math.ceil(n / 2)


# ---------------------------------------------------------------------------
# the loop
# ---------------------------------------------------------------------------


class Loop:
    """Runs rounds of one workload and keeps per-op results.

    With ``calibrate`` the host's speed is probed before the first op of a
    round and after every op; each op's latency is also kept scaled to the
    reference host by the mean of the probes on either side of it, and
    each round's time (minus the probes) by the mean speed over the round.
    """

    def __init__(self, workload, lib, ctx, seed, tracer=None, calibrate=False):
        self.w, self.lib, self.ctx, self.seed = workload, lib, ctx, seed
        self.tracer = tracer
        self.calibrate = calibrate
        self.latencies = []
        self.scaled_ms = []
        self.round_s = []
        self.round_scaled_s = []
        self.speeds = []
        self.failures = []
        self.by_label = {}
        self.digest = hashlib.sha256()
        self.ops = 0

    def round(self, index):
        tr = self.tracer
        t0 = time.perf_counter_ns()
        span = tr.open("bench.round") if tr else None
        probe_ns = 0
        factors = []
        if self.calibrate:
            speed, probe_ns = host_speed()
            self.speeds.append(speed)
        for label, run, check in self.w.round(self.lib, self.ctx, self.seed, index):
            if tr:
                tr.op = self.ops
                op_span = tr.open("bench.op")
            o0 = time.perf_counter_ns()
            try:
                result = run()
                error = None
            except (Exception, SystemExit) as exc:  # an op that raises or exits failed
                result, error = None, f"{type(exc).__name__}: {exc}"
            o1 = time.perf_counter_ns()
            if tr:
                tr.close(op_span)
                tr.op = -1
            ms = (o1 - o0) / 1e6
            if self.calibrate:
                after, ns = host_speed()
                probe_ns += ns
                self.speeds.append(after)
                factors.append(0.5 * (speed + after))
                speed = after
                self.scaled_ms.append(ms * factors[-1])
            if error is None:
                fails, digest = check(result)
            else:
                fails, digest = [error], b""
            self.latencies.append(ms)
            self.by_label.setdefault(label, []).append(ms)
            self.digest.update(digest)
            if fails:
                self.failures.append({"round": index, "op": label, "why": fails})
            self.ops += 1
        if tr:
            tr.close(span)
        busy = (time.perf_counter_ns() - t0 - probe_ns) / 1e9
        self.round_s.append(busy)
        if factors:
            self.round_scaled_s.append(busy * statistics.fmean(factors))


def set_up(workload, seed, tracer=None):
    """Fresh import plus the workload's set-up; returns (lib, ctx, seconds
    spent in the workload set-up, seconds including the import)."""
    t0 = time.perf_counter()
    lib = fresh_import()
    if tracer is not None:
        tracer.install()
    t1 = time.perf_counter()
    span = tracer.open("bench.setup") if tracer else None
    ctx = workload.setup(lib, seed)
    if tracer:
        tracer.close(span)
    t2 = time.perf_counter()
    return lib, ctx, t2 - t1, t2 - t0


def run_untraced(workload, seed, seconds):
    setups, setups_scaled = [], []
    speed, _ = host_speed()
    for _ in range(SETUP_REPEATS + 1):
        lib, ctx, _, total = set_up(workload, seed)
        after, _ = host_speed()
        setups.append(total)
        setups_scaled.append(total * 0.5 * (speed + after))
        speed = after
    gc.collect()
    loop = Loop(workload, lib, ctx, seed, calibrate=True)
    t0 = time.perf_counter()
    index = 0
    while True:
        loop.round(index)
        index += 1
        if time.perf_counter() - t0 >= seconds:
            break
    timed = time.perf_counter() - t0
    p, tail_ms, beyond = tail(loop.scaled_ms)
    metrics = {
        "setup_s": statistics.median(setups_scaled[1:]),
        "wall_s": statistics.median(loop.round_scaled_s),
        "ops_per_s": loop.ops / index / statistics.median(loop.round_scaled_s),
        "op_p50_ms": statistics.median(loop.scaled_ms),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb(),
    }
    raw_tail = tail(loop.latencies)[1]
    details = {
        "rounds": index,
        "ops_per_round": loop.ops // index,
        "timed_s": timed,
        "op_samples": len(loop.latencies),
        "op_tail_percentile": p,
        "op_tail_beyond": beyond,
        "failed_frac": len(loop.failures) / loop.ops,
        "host_speed": {
            "median": statistics.median(loop.speeds),
            "min": min(loop.speeds),
            "max": max(loop.speeds),
            "samples": len(loop.speeds),
        },
        "raw": {
            "setup_s": statistics.median(setups[1:]),
            "wall_s": statistics.median(loop.round_s),
            "ops_per_s": loop.ops / index / statistics.median(loop.round_s),
            "op_p50_ms": statistics.median(loop.latencies),
            "op_tail_ms": raw_tail,
        },
        "setup_samples_s": setups,
        "op_p50_ms_by_model": {k: statistics.median(v) for k, v in loop.by_label.items()},
        "digest": loop.digest.hexdigest(),
    }
    return loop, metrics, details


def run_traced(workload, seed, out_dir):
    rounds = TRACE_ROUNDS[workload.name]
    gc.collect()
    # untraced reference pass over the same rounds
    lib, ctx, setup_u, _ = set_up(workload, seed)
    ref = Loop(workload, lib, ctx, seed)
    t0 = time.perf_counter_ns()
    for i in range(rounds):
        ref.round(i)
    wall_u = (time.perf_counter_ns() - t0) / 1e9
    gc.collect()
    tracer = spans.Tracer()
    lib, ctx, setup_t, _ = set_up(workload, seed, tracer)
    loop = Loop(workload, lib, ctx, seed, tracer)
    t0 = time.perf_counter_ns()
    for i in range(rounds):
        loop.round(i)
    wall_t = (time.perf_counter_ns() - t0) / 1e9
    metrics = spans.reduce_spans(
        tracer.names, tracer.start, tracer.end, tracer.parent, tracer.name, tracer.meta
    )
    metrics["trace.overhead_frac"] = (setup_t + wall_t) / (setup_u + wall_u) - 1.0
    problems = []
    covered = setup_t + wall_t
    if abs(metrics["trace.self_sum_s"] - metrics["trace.wall_s"]) > 1e-6:
        problems.append("self times do not sum to the traced wall time")
    if abs(metrics["trace.wall_s"] - covered) > 1e-3 * covered + 1e-3:
        problems.append("spans do not cover the traced set-up and rounds")
    if loop.digest.hexdigest() != ref.digest.hexdigest():
        problems.append("traced outputs differ from untraced outputs")
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"spans-{workload.name}-seed{seed}.npz"
    tracer.write(path)
    details = {
        "rounds": rounds,
        "untraced_s": setup_u + wall_u,
        "traced_s": covered,
        "spans_file": os.path.relpath(path, ROOT),
        "digest": loop.digest.hexdigest(),
        "problems": problems,
    }
    return [ref, loop], metrics, details


def result_line(correct, attempted, failed, values, units):
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
        }
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "algmech" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'algmech'}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    facts = host_facts(args.seed)
    facts["kernel_rate_before"] = kernel_rate()
    if args.trace:
        loops, metrics, details = run_traced(workload, args.seed, ROOT / ".bench_out")
        units = PER_LAYER
        problems = details["problems"]
    else:
        loop, metrics, details = run_untraced(workload, args.seed, args.seconds)
        loops, units, problems = [loop], END_TO_END, []
    facts["kernel_rate_after"] = kernel_rate()
    attempted = sum(l.ops for l in loops)
    failures = [f for l in loops for f in l.failures]
    report = {
        "workload": workload.name,
        "trace": args.trace,
        "host": facts,
        "sizes": SIZES[workload.name],
        "units": units,
        **details,
        "failures": failures[:20],
    }
    print(json.dumps(report))
    correct = not failures and not problems
    print(result_line(correct, attempted, len(failures), metrics, units))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
