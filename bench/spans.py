"""Span recording around the public surface of the algmech modules, and
the reduction from spans to per-layer metrics.

Nothing here edits library code.  ``Tracer.install`` replaces every
public function, method, property and constructor of the nine layer
modules with a wrapper that records one span per call, and rebinds every
module attribute that refers to the same function object (so that
``from .prolong import energies`` inside ``dynamics`` is also caught).
Spans are kept in flat integer arrays while the run is live and written
out once it ends.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

LAYERS = (
    "expr",
    "algebroid",
    "prolong",
    "dirac",
    "dynamics",
    "hj",
    "models",
    "config",
    "cli",
)

# Spans opened by the benchmark itself (set-up, rounds, ops) belong to
# this pseudo-layer, so every nanosecond of a traced run has an owner.
BENCH = "bench"

POINT_CLASSES = ("BasePoint", "FiberPoint", "DualPoint")
VECTOR_CLASSES = ("ProlongVector", "ProlongCovector", "TEEVector", "TEECovector")


def _integrate_meta(args, kwargs, result):
    method = kwargs.get("method", args[4] if len(args) > 4 else "rk4")
    return method, len(result.states) - 1


def _oracle_meta(args, kwargs, result):
    return "steps", len(result.states) - 1


def _drift_meta(args, kwargs, result):
    traj = args[1] if len(args) > 1 else kwargs["traj"]
    return "states", len(traj.states)


# Calls whose span also records a (tag, count) pair, used to turn span
# time into per-step or per-state figures.
META = {
    "dynamics.integrate": _integrate_meta,
    "models.oracle_trajectory": _oracle_meta,
    "dynamics.energy_drift": _drift_meta,
}


class Tracer:
    """In-memory span store.  One span is (name id, start ns, end ns,
    parent span index, op id); ``op`` is -1 during set-up."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.name = array("q")
        self.op_of = array("q")
        self.meta = {}
        self.stack = [-1]
        self.op = -1

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        """Open a span by hand (used for the benchmark's own spans)."""
        idx = len(self.start)
        self.start.append(time.perf_counter_ns())
        self.end.append(0)
        self.parent.append(self.stack[-1])
        self.name.append(self.name_id(name))
        self.op_of.append(self.op)
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.stack.pop()

    def wrap(self, fn, name: str):
        nid = self.name_id(name)
        meta = META.get(name)
        start, end, parent = self.start, self.end, self.parent
        names, ops, stack = self.name, self.op_of, self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            parent.append(stack[-1])
            names.append(nid)
            ops.append(tracer.op)
            end.append(0)
            start.append(0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if meta is not None:
                tracer.meta[idx] = meta(args, kwargs, result)
            return result

        traced.__wrapped_by_bench__ = fn
        return traced

    # -- installation ---------------------------------------------------

    def install(self, package: str = "algmech") -> int:
        """Wrap the public callables of every layer module of ``package``
        (which must already be imported).  Returns the number wrapped."""
        replaced = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, f"{layer}.{obj.__name__}")
                elif callable(obj):
                    replaced[id(obj)] = (obj, self.wrap(obj, f"{layer}.{attr}"))
        # rebind every alias of a wrapped function across the package
        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        return len(replaced)

    def _wrap_class(self, cls, prefix: str) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr != "__init__" and attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if isinstance(obj, (classmethod, staticmethod)):
                new = type(obj)(self.wrap(obj.__func__, name))
            elif isinstance(obj, property) and obj.fget is not None:
                new = property(self.wrap(obj.fget, name), obj.fset, obj.fdel, obj.__doc__)
            elif callable(obj) and not isinstance(obj, type):
                new = self.wrap(obj, name)
            else:
                continue
            type.__setattr__(cls, attr, new)

    # -- output ---------------------------------------------------------

    def arrays(self):
        """Columnar numpy view of the spans recorded so far."""
        return {
            "start": np.frombuffer(self.start, dtype=np.int64).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int64).copy(),
            "name": np.frombuffer(self.name, dtype=np.int64).copy(),
            "op": np.frombuffer(self.op_of, dtype=np.int64).copy(),
        }

    def write(self, path) -> None:
        cols = self.arrays()
        meta_idx = np.array(sorted(self.meta), dtype=np.int64)
        meta_tag = np.array([str(self.meta[i][0]) for i in meta_idx], dtype=str)
        meta_cnt = np.array([self.meta[i][1] for i in meta_idx], dtype=np.int64)
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            meta_idx=meta_idx,
            meta_tag=meta_tag,
            meta_count=meta_cnt,
            **cols,
        )


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


def self_times(start, end, parent) -> np.ndarray:
    """Self time of each span in ns: its duration minus the durations of
    its direct children.  Children of one parent never overlap (one
    thread), so this is the part of the span no child covers."""
    dur = np.asarray(end, dtype=np.int64) - np.asarray(start, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    child = np.zeros(len(dur), dtype=np.int64)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur - child


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def reduce_spans(names, start, end, parent, name, meta) -> dict:
    """Per-layer metrics from a span table (see bench/README.md for the
    definition of each).  ``meta`` maps span index -> (tag, count)."""
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    name = np.asarray(name, dtype=np.int64)
    dur = end - start
    own = self_times(start, end, parent)
    if len(own) and own.min() < 0:
        raise ValueError("negative self time: spans overlap")
    span_layer = np.array([layer_of(nm) for nm in names] + [""], dtype=object)[name]

    def exact(*full):
        """Mask of the spans whose name is one of ``full``."""
        return np.isin(name, [i for i, nm in enumerate(names) if nm in full])

    out = {}
    for layer in LAYERS + (BENCH,):
        m = span_layer == layer
        out[f"{layer}.calls"] = int(m.sum())
        out[f"{layer}.self_s"] = float(own[m].sum()) / 1e9

    def per_call(m, scale):
        k = int(m.sum())
        return float(dur[m].sum()) / 1e9 * scale / k if k else 0.0

    m = exact("expr.compile_jet2")
    out["expr.compile_jet2.calls"] = int(m.sum())
    out["expr.compile_jet2.self_s"] = float(own[m].sum()) / 1e9
    m = exact("expr.eval_jet2")
    out["expr.eval_jet2.calls"] = int(m.sum())
    out["expr.eval_jet2.us_per_call"] = per_call(m, 1e6)

    jets = exact("algebroid.LieAlgebroid.anchor_jet_at", "algebroid.LieAlgebroid.structure_jet_at")
    evals = exact("expr.eval_jet2")
    missed = np.zeros(len(name), dtype=bool)
    missed[parent[evals & (parent >= 0)]] = True
    njets = int(jets.sum())
    out["algebroid.jet_cache_hit_ratio"] = (
        float((jets & ~missed).sum()) / njets if njets else 0.0
    )

    m = exact(*(f"algebroid.{c}.__init__" for c in POINT_CLASSES))
    out["algebroid.points_constructed"] = int(m.sum())
    out["algebroid.point_init.self_s"] = float(own[m].sum()) / 1e9
    m = exact(*(f"prolong.{c}.__init__" for c in VECTOR_CLASSES))
    out["prolong.vectors_constructed"] = int(m.sum())
    out["prolong.vector_init.self_s"] = float(own[m].sum()) / 1e9

    lag = exact("prolong.Lagrangian.jet")
    out["prolong.Lagrangian.jet.calls"] = int(lag.sum())
    out["prolong.Lagrangian.jet.us_per_call"] = per_call(lag, 1e6)

    out["dirac.generators.us_per_call"] = per_call(exact("dirac.dirac_generators"), 1e6)
    out["dirac.membership.us_per_call"] = per_call(
        exact("dirac.dirac_member_symplectic", "dirac.dirac_member_poisson"), 1e6
    )

    def per_count(span_name, tag):
        idx = [i for i, (t, _) in meta.items() if t == tag and names[name[i]] == span_name]
        steps = sum(meta[i][1] for i in idx)
        return float(dur[idx].sum()) / 1e3 / steps if steps else 0.0, idx, steps

    out["dynamics.rk4.step_us"] = per_count("dynamics.integrate", "rk4")[0]
    step_us, mid_idx, mid_steps = per_count("dynamics.integrate", "implicit_midpoint")
    out["dynamics.midpoint.step_us"] = step_us
    out["dynamics.midpoint.jet_calls_per_step"] = (
        int((descendants_of(parent, mid_idx) & lag).sum()) / mid_steps if mid_steps else 0.0
    )
    out["dynamics.energy_drift.us_per_state"] = per_count("dynamics.energy_drift", "states")[0]
    out["dynamics.residual.us_per_call"] = per_call(exact("dynamics.residual"), 1e6)
    m = exact("dynamics.State.__init__")
    out["dynamics.states_constructed"] = int(m.sum())
    out["dynamics.state_init.self_s"] = float(own[m].sum()) / 1e9
    out["models.oracle.step_us"] = per_count("models.oracle_trajectory", "steps")[0]
    out["hj.verify_theorem.ms_per_call"] = per_call(exact("hj.verify_theorem"), 1e3)
    out["hj.base_flow.self_s"] = float(own[exact("hj.base_flow")].sum()) / 1e9
    out["config.bundle_from_config.self_s"] = float(
        own[exact("config.bundle_from_config")].sum()
    ) / 1e9
    out["trace.spans"] = int(len(name))
    roots = parent < 0
    out["trace.wall_s"] = float(dur[roots].sum()) / 1e9
    out["trace.self_sum_s"] = float(own.sum()) / 1e9
    return out


def descendants_of(parent, roots) -> np.ndarray:
    """Boolean mask of the spans that lie strictly below any of ``roots``.
    Relies on a parent's index being lower than its children's, which
    holds because a span's index is taken when it opens."""
    parent = np.asarray(parent, dtype=np.int64)
    inside = np.zeros(len(parent), dtype=bool)
    if not len(roots):
        return inside
    marked = np.zeros(len(parent), dtype=bool)
    marked[list(roots)] = True
    for i in range(len(parent)):
        p = parent[i]
        if p >= 0 and (marked[p] or inside[p]):
            inside[i] = True
    return inside
