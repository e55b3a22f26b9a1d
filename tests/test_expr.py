import math
import re

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
        "(x1^2)^3",
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


# float.hex of the value, gradient and packed Hessian at x = (0.7, 1.3),
# wrt (x1, x2): each function's rule on a live argument, on a constant one,
# and through a square
RULE_JETS = {
    "sin(x1 * x2)": "0x1.9439d58c13793p-1 0x1.988259057eb73p-1 0x1.b7eed605eaecap-2"
                    " -0x1.5592265e0b55dp+0 -0x1.acdcb092422c8p-4 -0x1.8c24328e6500fp-2",
    "sin(2) * x1": "0x1.45e46712c6497p-1 0x1.d18f6ead1b446p-1 0x0.0p+0"
                   " 0x0.0p+0 0x0.0p+0 0x0.0p+0",
    "x1 * sin(x2)^2": "0x1.4cc124979ef27p-1 0x1.db5d0fb407a38p-1 0x1.7182ea047219fp-2"
                      " 0x0.0p+0 0x1.07efcbba085bbp-1 -0x1.331be2c8d77e8p+0",
    "cos(x1 * x2)": "0x1.3a3ce2043a16cp-1 -0x1.06bf3134a6420p+0 -0x1.1af548aeda6e7p-1"
                    " -0x1.0987ed105f2a5p+0 -0x1.591756bb29498p+0 -0x1.33f3fc3757a5ap-2",
    "cos(2) * x1": "-0x1.2a4b470540303p-2 -0x1.aa22657537205p-2 0x0.0p+0"
                   " 0x0.0p+0 0x0.0p+0 0x0.0p+0",
    "x1 * cos(x2)^2": "0x1.9a541cec773f4p-5 0x1.2517825fc2e41p-4 -0x1.7182ea047219fp-2"
                      " 0x0.0p+0 -0x1.07efcbba085bbp-1 0x1.331be2c8d77e8p+0",
    "exp(x1 * x2)": "0x1.3dfe47e0cd449p+1 0x1.9d642a3dd7a5fp+1 0x1.bd30cb0785c66p+0"
                    " 0x1.0cb44ea832925p+2 0x1.2faeff860bb5fp+2 0x1.37a227b8773e0p+0",
    "exp(2) * x1": "0x1.4b079b4950193p+2 0x1.d8e64b8d4ddaep+2 0x0.0p+0"
                   " 0x0.0p+0 0x0.0p+0 0x0.0p+0",
    "x1 * exp(x2)^2": "0x1.2d96759a72418p+3 0x1.aed6f125c7cb5p+3 0x1.2d96759a72418p+4"
                      " 0x0.0p+0 0x1.aed6f125c7cb5p+4 0x1.2d96759a72418p+5",
    "ln(x1 * x2)": "-0x1.824bea3fe15d2p-4 0x1.6db6db6db6db8p+0 0x1.89d89d89d89d9p-1"
                   " -0x1.05397829cbc16p+1 0x0.0p+0 -0x1.2ef5657dba51dp-1",
    "ln(2) * x1": "0x1.f0d90fe91844ep-2 0x1.62e42fefa39efp-1 0x0.0p+0"
                  " 0x0.0p+0 0x0.0p+0 0x0.0p+0",
    "x1 * ln(x2)^2": "0x1.8aba3b30f4f20p-5 0x1.19f2bc90aef60p-4 0x1.2153c5e06c827p-2"
                     " 0x0.0p+0 0x1.9d531aae51defp-2 0x1.38dcc0030e500p-1",
    "sqrt(x1 * x2)": "0x1.e86ab810ea912p-1 0x1.5cde8379cc1e8p-1 0x1.77b48d96dbd20p-2"
                     " -0x1.f26272adff071p-2 0x1.0c5c65229d03cp-2 -0x1.21010a740b8dep-3",
    "sqrt(2) * x1": "0x1.fadaa8f7eed52p-1 0x1.6a09e667f3bcdp+0 0x0.0p+0"
                    " 0x0.0p+0 0x0.0p+0 0x0.0p+0",
    "x1 * sqrt(x2)^2": "0x1.d1eb851eb8520p-1 0x1.4cccccccccccep+0 0x1.6666666666666p-1"
                       " 0x0.0p+0 0x1.0000000000000p+0 -0x1.6666666666666p-55",
}


@pytest.mark.parametrize("text", sorted(RULE_JETS))
def test_each_functions_jet_keeps_its_floats(text):
    e = expr.parse(text)
    for _ in range(2):  # walked, then compiled
        v, g, h = expr.eval_jet2(e, [0.7, 1.3], ("x1", "x2"))
        assert " ".join(float(t).hex() for t in (v, *g, *h)) == RULE_JETS[text]


def test_overflowing_literal_is_an_evaluation_fault():
    # the parser refuses such a literal; a tree made without it still faults
    e = expr.BinOp("*", expr.Num(math.inf), expr.Var("x1"))
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


def _outcome(fn):
    """The bits of a jet's flat tuples, or its fault as its type, message
    and the type of the error it maps."""
    try:
        v, g, h = fn()
    except Exception as exc:
        return type(exc), str(exc), type(exc.__cause__)
    return _bits(v, g, h)


# each derivative rule on a live argument, in a quotient and beside a
# square, and all of them as one Array; the points hold each fault: a
# division by zero, ln and sqrt of a negative, exp and ^ past the largest
# float, and an inf product that only the finiteness check refuses
LIST_FORM_TEXTS = {f: f"{f}(x1 * x2) / (x2 - 1) - x1^2" for f in expr._RULES}
LIST_FORM_POINTS = ([0.7, 1.3], [0.5, 1.0], [-0.5, 2.0], [800.0, 1.5], [1e200, 3.0], [1e100, 1e300])


@pytest.mark.parametrize(
    "wrt",
    [("x1", "x2"), ("x2", "x1"), ("x3", "x1", "x2"), ("x1",)],
    ids=["in-order", "reversed", "extra-name", "lacks-x2"],
)
@pytest.mark.parametrize("entry", [*expr._RULES, "array"])
def test_list_form_equals_the_checked_mapping_form_bit_for_bit(entry, wrt):
    def build():
        if entry == "array":
            return expr.Array(expr.parse(t) for t in LIST_FORM_TEXTS.values())
        return expr.parse(LIST_FORM_TEXTS[entry])

    compiled = expr.compile_jet2(build(), wrt)
    # the compiled program takes wrt by position unless a free name is missing
    assert compiled.flat.__name__ == ("by_position" if "x2" in wrt else "by_name")
    outcomes = set()
    for point in LIST_FORM_POINTS:
        values = [dict(zip(("x1", "x2"), point)).get(name, 0.25) for name in wrt]
        ref = _outcome(lambda: compiled.checked(dict(zip(wrt, values))))
        e = build()
        walked = _outcome(lambda: expr.eval_jet2(e, values, wrt))
        assert e._jet_cache[wrt] is None  # the first call walked the tree
        listed = _outcome(lambda: expr.eval_jet2(e, values, wrt))
        assert e._jet_cache[wrt] is not None
        assert walked == listed == ref == _outcome(lambda: compiled.flat(values))
        outcomes.add(ref if isinstance(ref, tuple) else "floats")
        # one value more or one fewer than wrt: as the zipped mapping reads them
        for other in (values + [9.0], values[:-1]):
            got = _outcome(lambda: compiled.flat(other))
            assert got == _outcome(lambda: compiled.checked(dict(zip(wrt, other))))
    if "x2" not in wrt:
        assert outcomes == {(EvaluationFault, "unbound variable 'x2'", KeyError)}
    else:
        assert "floats" in outcomes and len(outcomes) >= 4  # floats and three kinds of fault



FOLD_TEXTS = ["x1 * x1", "x1^2", "0.5 * x1^2", "x1^2 * x2", "-x1 * x2", "x1^3 - x2^1",
              "(x1 + x2)^1 * x1^0", "2 * x1 * x2 + x2 * 1", "sin(x1) * x2^2"]


@pytest.mark.parametrize("text", FOLD_TEXTS)
def test_the_folds_keep_the_types_of_the_bound_values(text):
    # x * 1.0 is x, but turns an int into a float: a variable bound to an
    # int keeps its product with 1.0, walked and compiled alike
    e, wrt = expr.parse(text), ("x1", "x2")
    compiled, walked = expr.compile_jet2(e, wrt).checked, expr._interpret_jet2(e, wrt).checked
    flat = lambda out: [out[0], *out[1], *out[2]]
    floats = flat(compiled({"x1": 3.0, "x2": -2.0}))
    for kind in (int, float, np.float64, np.int64, np.float32):
        b = {"x1": kind(3), "x2": kind(-2)}
        got, want = flat(compiled(b)), flat(walked(b))
        assert [type(v) for v in got] == [type(v) for v in want]
        assert [float(v).hex() for v in got] == [float(v).hex() for v in want]
        if kind is not np.float32:
            assert [float(v).hex() for v in got] == [v.hex() for v in floats]
            assert not any(isinstance(v, (int, np.integer)) for v in got[1:])
    assert expr.compile_jet2(expr.parse("x1*x1"), ("x1",)).checked({"x1": 3})[1] == (6.0,)
    assert type(expr.compile_jet2(expr.parse("x1*x1"), ("x1",)).checked({"x1": 3})[1][0]) is float


_LITERAL = r"(?:\d[\w.+-]*|\(-\d[\w.+-]*\))"


@pytest.mark.parametrize("name", model_names())
def test_the_built_in_jets_fold_their_exact_constants(monkeypatch, name):
    # no u ** 0 or u ** 1, no step of two literals, and a product with 1.0
    # only where it keeps a variable's type
    Lg, sources, real = get_model(name).system.Lg, [], compile

    def capture(source, filename, *args, **kwargs):
        sources.append(source)
        return real(source, filename, *args, **kwargs)

    monkeypatch.setattr("builtins.compile", capture)
    expr._build_jet2(Lg.L, Lg._names)  # the model may have compiled it already
    (source,) = sources
    steps = re.findall(r"^ +t\d+ = (.*)$", source, re.M)
    assert steps and not any(re.search(r"\*\* [01]\b", t) for t in steps)
    assert not any(re.fullmatch(rf"{_LITERAL} [-+*] {_LITERAL}", t) for t in steps)
    for t in steps:
        for one in re.findall(r"(\S+) \* 1\.0\b|\b1\.0 \* (\S+)", t):
            assert "".join(one).startswith("_v_"), t


@pytest.mark.parametrize("text, offset", [("0.5 * y1^2 - 1e999 * x1", 13), ("1e400", 0)])
def test_a_non_finite_number_literal_is_refused(text, offset):
    # it would print as inf, which reads back as a variable
    with pytest.raises(ParseError, match="is not finite") as exc:
        expr.parse(text)
    assert exc.value.offset == offset
