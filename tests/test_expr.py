import math

import numpy as np
import pytest

from algmech import expr
from algmech.algebroid import base_names
from algmech.errors import EvaluationFault, ParseError
from algmech.models import get_model, model_names


def test_round_trip_parsing():
    for text in [
        "x1 + x2 * x3",
        "(x1 + x2) * x3",
        "sin(x1)^2 + cos(x1)^2",
        "-x1 / (1 + exp(-x2))",
        "sqrt(x1^2 + 1) - ln(x2)",
        "2.5e-3 * x1 - 0.5",
    ]:
        e = expr.parse(text)
        assert expr.parse(str(e)) == e


def test_precedence_and_associativity():
    assert expr.evaluate(expr.parse("2 + 3 * 4"), {}) == 14.0
    assert expr.evaluate(expr.parse("2 * 3^2"), {}) == 18.0
    assert expr.evaluate(expr.parse("8 / 4 / 2"), {}) == 1.0
    assert expr.evaluate(expr.parse("8 - 4 - 2"), {}) == 2.0
    # unary minus is part of the atom, so it binds tighter than '^'
    assert expr.evaluate(expr.parse("-2^2"), {}) == 4.0


def test_free_variables():
    e = expr.parse("x1 * sin(x3) + 2")
    assert expr.free_variables(e) == {"x1", "x3"}


def test_parse_error_offsets():
    with pytest.raises(ParseError) as exc:
        expr.parse("x1 +")
    assert "unexpected end of input" in str(exc.value)
    assert exc.value.offset == 4

    with pytest.raises(ParseError) as exc:
        expr.parse("x1 + foo(x2)")
    assert exc.value.offset == 5

    with pytest.raises(ParseError):
        expr.parse("x1 ^ 2.5")
    with pytest.raises(ParseError):
        expr.parse("x1 ^ -1")
    with pytest.raises(ParseError):
        expr.parse("(x1 + x2")
    with pytest.raises(ParseError):
        expr.parse("x1 x2")


def test_evaluate_faults():
    with pytest.raises(EvaluationFault):
        expr.evaluate(expr.parse("1 / x1"), {"x1": 0.0})
    with pytest.raises(EvaluationFault):
        expr.evaluate(expr.parse("ln(x1)"), {"x1": -1.0})
    with pytest.raises(EvaluationFault):
        expr.evaluate(expr.parse("sqrt(x1)"), {"x1": -2.0})
    with pytest.raises(EvaluationFault):
        expr.evaluate(expr.parse("x1 + x2"), {"x1": 1.0})
    with pytest.raises(EvaluationFault):
        expr.evaluate(expr.parse("exp(x1)"), {"x1": 1e10})


def test_jet_matches_hand_computation():
    e = expr.parse("x1^2 * x2 + sin(x1)")
    v, g, h = expr.eval_jet2(e, {"x1": 2.0, "x2": 3.0}, ("x1", "x2"))
    assert v == 12.0 + math.sin(2.0)
    assert g[0] == pytest.approx(12.0 + math.cos(2.0), abs=1e-15)
    assert g[1] == 4.0
    assert h[0, 0] == pytest.approx(6.0 - math.sin(2.0), abs=1e-15)
    assert h[0, 1] == h[1, 0] == 4.0
    assert h[1, 1] == 0.0


def test_jet_value_bit_identical_to_evaluate():
    rng = np.random.default_rng(3)
    e = expr.parse("sin(x1) * exp(x2 / 3) - x1^3 * x2 + sqrt(x1^2 + 1)")
    for _ in range(50):
        b = {"x1": float(rng.uniform(-2, 2)), "x2": float(rng.uniform(-2, 2))}
        v, _, _ = expr.eval_jet2(e, b, ("x1", "x2"))
        assert v == expr.evaluate(e, b)


def test_jet_chain_rules_against_finite_differences():
    rng = np.random.default_rng(11)
    texts = [
        "sin(x1 * x2)",
        "exp(x1) / (1 + x2^2)",
        "ln(2 + x1) * sqrt(1 + x2^2)",
        "(x1 - x2)^3 / (3 + x1)",
        "cos(x1)^2 * x2 + x1 / x2",
    ]
    s, sh = 1e-5, 3e-4
    for text in texts:
        e = expr.parse(text)
        for _ in range(20):
            b = {"x1": float(rng.uniform(0.2, 1.5)), "x2": float(rng.uniform(0.2, 1.5))}
            _, g, h = expr.eval_jet2(e, b, ("x1", "x2"))
            for i, nm in enumerate(("x1", "x2")):
                b1, b2 = dict(b), dict(b)
                b1[nm] += s
                b2[nm] -= s
                fd = (expr.evaluate(e, b1) - expr.evaluate(e, b2)) / (2 * s)
                assert fd == pytest.approx(g[i], rel=1e-7, abs=1e-7)
            for i, ni in enumerate(("x1", "x2")):
                for j, nj in enumerate(("x1", "x2")):
                    bpp, bpm, bmp, bmm = (dict(b) for _ in range(4))
                    bpp[ni] += sh
                    bpp[nj] += sh
                    bpm[ni] += sh
                    bpm[nj] -= sh
                    bmp[ni] -= sh
                    bmp[nj] += sh
                    bmm[ni] -= sh
                    bmm[nj] -= sh
                    fd = (
                        expr.evaluate(e, bpp)
                        - expr.evaluate(e, bpm)
                        - expr.evaluate(e, bmp)
                        + expr.evaluate(e, bmm)
                    ) / (4 * sh * sh)
                    assert fd == pytest.approx(h[i, j], rel=1e-5, abs=1e-5)


def test_jet_hessian_exactly_symmetric():
    e = expr.parse("exp(x1 * x2) * sin(x1 - x2^2)")
    _, _, h = expr.eval_jet2(e, {"x1": 0.7, "x2": -0.3}, ("x1", "x2"))
    assert np.array_equal(h, h.T)


def test_jet_fault_propagation():
    e = expr.parse("1 / x1")
    with pytest.raises(EvaluationFault):
        expr.eval_jet2(e, {"x1": 0.0}, ("x1",))
    with pytest.raises(EvaluationFault):
        expr.eval_jet2(expr.parse("sqrt(x1)"), {"x1": 0.0}, ("x1",))  # d/dx at 0


def test_jet_wrt_subset_and_constants():
    e = expr.parse("x1 * x2")
    v, g, h = expr.eval_jet2(e, {"x1": 2.0, "x2": 5.0}, ("x1",))
    assert (v, g[0], h[0, 0]) == (10.0, 5.0, 0.0)
    v, g, h = expr.eval_jet2(expr.parse("3.5"), {}, ("x1", "x2"))
    assert v == 3.5 and not g.any() and not h.any()


def test_integer_power_edge_cases():
    assert expr.evaluate(expr.parse("x1^0"), {"x1": 0.0}) == 1.0
    e = expr.parse("x1^1")
    _, g, h = expr.eval_jet2(e, {"x1": 3.0}, ("x1",))
    assert g[0] == 1.0 and h[0, 0] == 0.0


def _jet_or_fault(fn):
    try:
        v, g, h = fn()
    except EvaluationFault as exc:
        return str(exc)
    return [float(t).hex() for t in (v, *g, *np.ravel(h))]


def test_first_jet_call_agrees_with_the_compiled_form_bit_for_bit():
    # the first eval_jet2 of a pair walks the tree, later ones are compiled
    rng = np.random.default_rng(5)
    texts = [
        "sin(x1) * exp(x2 / 3) - x1^3 * x2 + sqrt(x1^2 + 1)",
        "0 * x1 + 0.0 / (x2 - 1) + x1^0 - (x2)^1",
        "ln(x1) / sqrt(x2) - cos(x1 * x2)^2",
        "-(x1 - x2)^3 / (3 + x1) + neg(x2)",
        "2 - x1 * x2",  # signed zeros when x2 is 0.0
    ]
    for text in texts:
        for wrt in [("x1", "x2"), ("x2",), ("x2", "x1", "x3"), ()]:
            e = expr.parse(text)
            for _ in range(5):
                b = {"x1": float(rng.uniform(-1, 2)), "x2": float(rng.choice([0.0, 1.0, -0.5, 1.7]))}
                fresh = expr.parse(text)
                first = _jet_or_fault(lambda: expr.eval_jet2(fresh, b, wrt))
                compiled = _jet_or_fault(lambda: expr.compile_jet2(e, wrt)(b))
                later = _jet_or_fault(lambda: expr.eval_jet2(fresh, b, wrt))
                assert first == compiled == later


def test_overflowing_literal_is_an_evaluation_fault():
    e = expr.parse("1e400 * x1")
    for _ in range(2):  # walked, then compiled
        with pytest.raises(EvaluationFault):
            expr.eval_jet2(e, {"x1": 1.0}, ("x1",))


def test_neg_function_node_negates():
    # the parser turns neg(...) into Neg; a programmatic Fun("neg", ...)
    # must give the same value and jets, walked and compiled
    b = {"x1": 4.0}
    fun = expr.Fun("neg", expr.Pow(expr.Var("x1"), 2))
    neg = expr.parse("neg(x1^2)")
    assert expr.evaluate(fun, b) == expr.evaluate(neg, b) == -16.0
    for _ in range(2):  # walked, then compiled
        v, g, h = expr.eval_jet2(fun, b, ("x1",))
        assert (v, g.tolist(), h.tolist()) == (-16.0, [-8.0], [[-2.0]])
    assert expr.parse(str(fun)) == neg


def _bits(*arrays) -> list:
    return [float(t).hex() for a in arrays for t in np.ravel(a)]


def _random_polynomial(rng, names) -> str:
    terms = []
    for _ in range(int(rng.integers(1, 4))):
        coeff = float(rng.choice([0.0, -0.0, 1.0, -2.5, float(rng.normal())]))
        factors = [f"{name}^{int(rng.integers(0, 4))}" for name in names if rng.random() < 0.6]
        terms.append(" * ".join([f"({coeff!r})"] + factors))
    return " + ".join(terms)


def _arrays_and_points():
    """(entries, wrt, bindings): every built-in model's anchor, full
    structure and HJ momentum arrays at points of its box, then seeded
    random polynomial arrays at points that include signed zeros."""
    rng = np.random.default_rng(17)
    for name in model_names():
        b = get_model(name)
        A = b.system.A
        wrt = base_names(A.m)
        points = [
            {n: float(rng.uniform(lo, hi)) for n, (lo, hi) in zip(wrt, b.box)} for _ in range(3)
        ]
        arrays = [A._rho_array, A._structure_array]
        arrays += [s.gammabar for s in b.hj_sections.values()]
        for entries in arrays:
            yield tuple(entries), wrt, points
            yield tuple(entries), wrt[::-1] + ("y1",), points
    names = ("x1", "x2", "x3")
    for _ in range(20):
        size = int(rng.integers(1, 7))
        entries = tuple(expr.parse(_random_polynomial(rng, names)) for _ in range(size))
        points = [
            {n: float(rng.choice([0.0, -0.0, 1.0, float(rng.normal())])) for n in names}
            for _ in range(3)
        ]
        yield entries, names[: int(rng.integers(0, 4))], points


def test_array_jet_is_bit_identical_to_entry_by_entry_jets():
    for entries, wrt, points in _arrays_and_points():
        for b in points:
            ref = [expr.eval_jet2(e, b, wrt) for e in entries]
            ref_bits = _bits([r[0] for r in ref], [r[1] for r in ref], [r[2] for r in ref])
            array = expr.Array(entries)
            first = expr.eval_jet2(array, b, wrt)  # walks the trees
            assert array._jet_cache[tuple(wrt)] is None
            second = expr.eval_jet2(array, b, wrt)  # compiled
            assert array._jet_cache[tuple(wrt)] is not None
            k = len(wrt)
            for v, g, h in (first, second):
                assert (v.shape, g.shape, h.shape) == ((len(entries),), (len(entries), k), (len(entries), k, k))
                assert _bits(v, g, h) == ref_bits
            # a plain tuple keeps no cache and is walked every time
            assert _bits(*expr.eval_jet2(entries, b, wrt)) == ref_bits
            if set(b) <= set(wrt):  # a list binds wrt only, in either order
                for order in (tuple(wrt), tuple(wrt[::-1])):
                    values = [b.get(name, 0.5) for name in order]
                    flat = expr.Array(entries)
                    walked = expr.eval_jet2(flat, values, order)
                    compiled = expr.eval_jet2(flat, values, order)
                    assert flat._jet_cache[order] is not None
                    v, g, h = expr.eval_jet2(expr.Array(entries), b, order)  # the mapping form
                    jet = expr.compile_jet2(expr.Array(entries), order)
                    checked = jet.checked(dict(zip(order, values)))
                    packed = [hx[j, l] for hx in h for j, l in expr._pairs(k)]
                    for got in (walked, compiled):
                        assert all(type(t) is tuple for t in got)
                        assert _bits(*got) == _bits(*checked) == _bits(v, g, packed)


@pytest.mark.parametrize(
    "texts, binding, message",
    [
        (["x1", "1e308 * x1"], {"x1": 10.0}, "non-finite derivative result"),
        (["x1", "x2 * x1"], {"x1": 1.0}, "unbound variable 'x2'"),
    ],
)
def test_array_jet_faults_are_evaluation_faults(texts, binding, message):
    array = expr.Array(expr.parse(t) for t in texts)
    flat = expr.Array(array)  # the list form, walked and compiled on its own
    for _ in range(2):  # walked, then compiled
        with pytest.raises(EvaluationFault, match=message) as mapped:
            expr.eval_jet2(array, binding, ("x1",))
        with pytest.raises(EvaluationFault) as listed:
            expr.eval_jet2(flat, [binding["x1"]], ("x1",))
        assert str(listed.value) == str(mapped.value)
    assert flat._jet_cache[("x1",)] is not None
