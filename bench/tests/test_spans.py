"""The reduction from spans to self time and per-layer metrics, on a
synthetic span tree with known answers."""

import numpy as np
import pytest

import spans


def _table(rows):
    """rows: (name, start, end, parent) -> reduce_spans arguments."""
    names = []
    ids = []
    for name, *_ in rows:
        if name not in names:
            names.append(name)
        ids.append(names.index(name))
    start = [r[1] for r in rows]
    end = [r[2] for r in rows]
    parent = [r[3] for r in rows]
    return names, start, end, parent, ids


# One round (0..100) holding an op (5..95).  Inside the op: an RK4
# integrate (10..60) whose anchor_at nests anchor_jet_at in the same
# layer, which calls eval_jet2 (a cache miss) across layers; a second
# anchor_jet_at (62..64) makes no child call (a cache hit); then a
# Lagrangian.jet (70..90) that calls eval_jet2 (72..80).
ROWS = [
    ("bench.round", 0, 100, -1),                                # 0
    ("bench.op", 5, 95, 0),                                     # 1
    ("dynamics.integrate", 10, 60, 1),                          # 2
    ("algebroid.LieAlgebroid.anchor_at", 20, 50, 2),            # 3
    ("algebroid.LieAlgebroid.anchor_jet_at", 22, 48, 3),        # 4
    ("expr.eval_jet2", 25, 40, 4),                              # 5
    ("expr.compile_jet2", 26, 27, 5),                           # 6
    ("algebroid.LieAlgebroid.anchor_jet_at", 62, 64, 1),        # 7
    ("prolong.Lagrangian.jet", 70, 90, 1),                      # 8
    ("expr.eval_jet2", 72, 80, 8),                              # 9
]


def test_self_time_subtracts_direct_children_only():
    names, start, end, parent, _ = _table(ROWS)
    own = spans.self_times(start, end, parent)
    assert own.tolist() == [10, 18, 20, 4, 11, 14, 1, 2, 12, 8]
    assert own.min() >= 0
    assert own.sum() == 100  # the root's duration


def test_layer_reduction_on_synthetic_tree():
    names, start, end, parent, ids = _table(ROWS)
    meta = {2: ("rk4", 5)}
    out = spans.reduce_spans(names, start, end, parent, ids, meta)
    ns = 1e-9
    assert out["bench.calls"] == 2
    assert out["bench.self_s"] == pytest.approx(28 * ns)
    assert out["dynamics.calls"] == 1
    assert out["dynamics.self_s"] == pytest.approx(20 * ns)
    # within-layer nesting: anchor_at's 4 ns plus both anchor_jet_at spans
    assert out["algebroid.calls"] == 3
    assert out["algebroid.self_s"] == pytest.approx((4 + 11 + 2) * ns)
    assert out["expr.calls"] == 3
    assert out["expr.self_s"] == pytest.approx((14 + 1 + 8) * ns)
    assert out["prolong.self_s"] == pytest.approx(12 * ns)
    assert out["expr.eval_jet2.calls"] == 2
    assert out["expr.eval_jet2.us_per_call"] == pytest.approx((15 + 8) / 2 * 1e-3)
    assert out["expr.compile_jet2.self_s"] == pytest.approx(1 * ns)
    assert out["algebroid.jet_cache_hit_ratio"] == pytest.approx(0.5)
    assert out["dynamics.rk4.step_us"] == pytest.approx(50 / 5 * 1e-3)
    assert out["prolong.Lagrangian.jet.calls"] == 1
    total = sum(out[f"{layer}.self_s"] for layer in spans.LAYERS + (spans.BENCH,))
    assert total == pytest.approx(out["trace.wall_s"])
    assert out["trace.wall_s"] == pytest.approx(100 * ns)


def test_midpoint_jet_calls_count_descendants_only():
    rows = [
        ("bench.op", 0, 100, -1),
        ("dynamics.integrate", 0, 50, 0),
        ("prolong.Lagrangian.jet", 1, 2, 1),
        ("dynamics.residual", 3, 10, 1),
        ("prolong.Lagrangian.jet", 4, 5, 3),
        ("prolong.Lagrangian.jet", 60, 61, 0),  # outside the integrate
    ]
    names, start, end, parent, ids = _table(rows)
    out = spans.reduce_spans(names, start, end, parent, ids, {1: ("implicit_midpoint", 2)})
    assert out["dynamics.midpoint.jet_calls_per_step"] == pytest.approx(1.0)
    assert out["dynamics.midpoint.step_us"] == pytest.approx(50 / 2 * 1e-3)


def test_overlapping_spans_are_rejected():
    rows = [("bench.op", 0, 10, -1), ("expr.parse", 0, 8, 0), ("expr.parse", 5, 9, 0)]
    names, start, end, parent, ids = _table(rows)
    with pytest.raises(ValueError):
        spans.reduce_spans(names, start, end, parent, ids, {})


def test_tracer_wraps_aliases_and_methods():
    import run

    lib = run.fresh_import()
    tracer = spans.Tracer()
    tracer.install()
    # `energies` is imported by name into dynamics; the alias is rebound
    assert lib.dynamics.energies is lib.prolong.energies
    assert hasattr(lib.prolong.energies, "__wrapped_by_bench__")
    A = lib.algebroid.LieAlgebroid(1, 2, [["1", "x1"]], {(0, 0, 1): "1"})
    A.anchor_at(lib.algebroid.BasePoint(np.array([0.25])))
    seen = {tracer.names[i] for i in tracer.name}
    assert {
        "algebroid.LieAlgebroid.__init__",
        "algebroid.LieAlgebroid.anchor_at",
        "algebroid.LieAlgebroid.anchor_jet_at",
        "algebroid.BasePoint.__init__",
        "algebroid.BasePoint.binding",
        "expr.eval_jet2",
        "expr.compile_jet2",
        "expr.parse",
    } <= seen
    own = spans.self_times(tracer.start, tracer.end, tracer.parent)
    assert own.min() >= 0
