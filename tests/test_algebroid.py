import warnings

import numpy as np
import pytest

from algmech import expr
from algmech.algebroid import (
    BasePoint,
    DualPoint,
    LieAlgebroid,
    ScalarField,
    Subbundle,
    contract,
)
from algmech.errors import EvaluationFault, RankDeficient
from algmech.models import SO3_STRUCTURE


def so3():
    return LieAlgebroid(0, 3, [], SO3_STRUCTURE)


def tangent(d):
    rows = [[("1" if i == j else "0") for j in range(d)] for i in range(d)]
    return LieAlgebroid(d, d, rows, {})


def affine():
    return LieAlgebroid(1, 2, [["1", "x1"]], {(0, 0, 1): "1"})


ORIGIN = BasePoint(np.zeros(0))


def test_structure_array_antisymmetric_by_construction():
    A = so3()
    C = A.structure_at(ORIGIN)
    assert np.array_equal(C, -C.transpose(0, 2, 1))
    assert C[2, 0, 1] == 1.0 and C[2, 1, 0] == -1.0
    assert C[0, 1, 2] == 1.0 and C[1, 0, 2] == -1.0


def test_bad_structure_indices_rejected():
    with pytest.raises(ValueError):
        LieAlgebroid(0, 3, [], {(0, 1, 1): "1"})
    with pytest.raises(ValueError):
        LieAlgebroid(0, 3, [], {(0, 2, 1): "1"})
    with pytest.raises(ValueError):
        LieAlgebroid(1, 2, [["1"]], {})


def test_structure_equations_pass_for_valid_models():
    rng = np.random.default_rng(5)
    assert so3().validate_structure([ORIGIN], 1e-10).passed
    pts = [BasePoint(rng.uniform(-1, 1, size=2)) for _ in range(20)]
    assert tangent(2).validate_structure(pts, 1e-10).passed
    pts1 = [BasePoint(rng.uniform(-0.5, 0.5, size=1)) for _ in range(20)]
    rep = affine().validate_structure(pts1, 1e-10)
    assert rep.passed, rep


def test_structure_equations_fail_without_bracket_term():
    # x-dependent anchor with the bracket removed breaks the first equation
    broken = LieAlgebroid(1, 2, [["1", "x1"]], {})
    rep = broken.validate_structure([BasePoint([0.3])], 1e-10)
    assert rep.max_residual_eq1 == pytest.approx(1.0)
    assert not rep.passed


def test_structure_equations_fail_for_wrong_jacobi():
    # [e1,e2]=e3, [e1,e3]=-e2, [e2,e3]=e3 leaves a nonzero cyclic sum
    bad = LieAlgebroid(0, 3, [], {(2, 0, 1): "1", (1, 0, 2): "-1", (2, 1, 2): "1"})
    rep = bad.validate_structure([ORIGIN], 1e-10)
    assert rep.max_residual_eq2 >= 1.0


def test_d_function_contracts_gradient_with_anchor():
    A = affine()
    f = ScalarField("x1^2")
    df = A.d_function(f, BasePoint([0.5]))
    # gradient (1.0,) through anchor (1, x1)
    assert df == pytest.approx([1.0, 0.5])

    B = so3()
    assert np.array_equal(B.d_function(ScalarField("2"), ORIGIN), np.zeros(3))


def test_d_one_section_is_antisymmetric_and_kills_gradients():
    A = tangent(2)
    x = BasePoint([0.4, -0.2])
    # theta = gradient of W(x) = x1^2 * x2 has vanishing differential on TQ
    theta = ["2 * x1 * x2", "x1^2"]
    M = A.d_one_section(theta, x)
    assert np.abs(M).max() < 1e-14

    B = so3()
    M = B.d_one_section(["0", "0", "1"], ORIGIN)
    assert np.array_equal(M, -M.T)
    assert M[0, 1] == pytest.approx(-0.5)


def test_poisson_bracket_on_constant_structure():
    A = so3()
    pt = DualPoint([], [1.0, 2.0, 0.5])
    F, G = ScalarField("p1 * p2"), ScalarField("p3")
    # {p1 p2, p3} = p2^2 - p1^2 at this point
    assert A.poisson_bracket(F, G, pt) == pytest.approx(3.0)
    assert A.poisson_bracket(G, F, pt) == pytest.approx(-3.0)


def test_poisson_bracket_jacobi_identity_sampled():
    rng = np.random.default_rng(9)
    A = affine()
    fields = [ScalarField(t) for t in ("x1 * p1", "p2^2 + x1", "p1 * p2 - x1^2")]

    def bracket_fn(F, G):
        # numerical bracket as a new sampled function via finite differences
        return lambda pt: A.poisson_bracket(F, G, pt)

    # Jacobi via finite-difference differentiation of inner brackets
    h = 1e-5
    names = ["x1", "p1", "p2"]

    def grad(fn, pt):
        out = []
        base = np.concatenate([pt.x, pt.p])
        for j in range(3):
            qp, qm = base.copy(), base.copy()
            qp[j] += h
            qm[j] -= h
            out.append(
                (fn(DualPoint(qp[:1], qp[1:])) - fn(DualPoint(qm[:1], qm[1:]))) / (2 * h)
            )
        return np.array(out)

    def bracket_num(fa, fb, pt):
        ga, gb = grad(fa, pt), grad(fb, pt)
        rho = A.anchor_at(pt.base)
        C = A.structure_at(pt.base)
        first = ga[:1] @ rho @ gb[1:] - gb[:1] @ rho @ ga[1:]
        second = np.einsum("gab,g,a,b->", C, pt.p, ga[1:], gb[1:])
        return float(first - second)

    for _ in range(5):
        pt = DualPoint(rng.uniform(-0.5, 0.5, 1), rng.uniform(-1, 1, 2))
        F, G, H = fields
        total = (
            bracket_num(bracket_fn(F, G), lambda q: H.value(q.binding()), pt)
            + bracket_num(bracket_fn(G, H), lambda q: F.value(q.binding()), pt)
            + bracket_num(bracket_fn(H, F), lambda q: G.value(q.binding()), pt)
        )
        assert abs(total) < 1e-6


def test_subbundle_membership_and_annihilator():
    A = so3()
    U = Subbundle.adapted_rank(A, 2)
    assert U.member(ORIGIN, [0.3, -0.7, 0.0])
    assert not U.member(ORIGIN, [0.0, 0.0, 0.2])
    assert U.member_annihilator(ORIGIN, [0.0, 0.0, 5.0])
    assert not U.member_annihilator(ORIGIN, [1e-3, 0.0, 5.0])
    ann = U.annihilator(ORIGIN)
    assert ann.shape == (1, 3)
    assert abs(abs(ann[0, 2]) - 1.0) < 1e-14


@pytest.mark.filterwarnings("error")
def test_subbundle_membership_does_not_overflow():
    # the squares of these entries overflow; their norms do not
    U = Subbundle.adapted_rank(so3(), 2)
    assert U.member(ORIGIN, [1e300, 2e300, 0.0])
    assert not U.member(ORIGIN, [1e300, 0.0, 1e300])
    assert U.member_distance(ORIGIN, [0.0, 1e300, 1e300]) == 1e300
    assert U.member_distance(ORIGIN, [3.0, 0.0, 4.0]) == 4.0


def test_subbundle_completion_is_orthonormal():
    A = so3()
    U = Subbundle(A, 2, [["1", "0"], ["1", "1"], ["0", "1"]])
    Q = U.completion(ORIGIN)
    assert np.abs(Q.T @ Q - np.eye(3)).max() < 1e-12
    # first two columns must span the given columns
    S = U.span_at(ORIGIN)
    proj = Q[:, :2] @ (Q[:, :2].T @ S)
    assert np.abs(proj - S).max() < 1e-12


def test_subbundle_rank_deficiency_detected():
    A = so3()
    U = Subbundle(A, 2, [["1", "2"], ["1", "2"], ["0", "0"]])
    with pytest.raises(RankDeficient):
        U.completion(ORIGIN)


@pytest.mark.filterwarnings("error")
def test_x_dependent_jets_run_on_python_floats():
    # a numpy scalar binding would warn and report a non-finite derivative
    A = LieAlgebroid(1, 1, [["1/x1"]], {})
    with pytest.raises(EvaluationFault, match="float division by zero"):
        A.anchor_at(BasePoint([0.0]))


def test_base_dependent_subbundle():
    A = tangent(2)
    U = Subbundle(A, 1, [["1"], ["x1"]])
    x = BasePoint([2.0])
    # wrong length base is fine here: tangent(2) has m=2
    x = BasePoint([2.0, 0.0])
    assert U.member(x, [1.0, 2.0])
    assert not U.member(x, [1.0, 0.0])


@pytest.fixture
def calls(monkeypatch):
    """Counts of the jet evaluations and SVDs made while a test runs."""
    counts = {"eval_jet2": 0, "svd": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(expr, "eval_jet2", counted("eval_jet2", expr.eval_jet2))
    monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
    return counts


def test_constant_data_is_evaluated_once_at_construction(calls):
    A = so3()
    U = Subbundle.adapted_rank(A, 2)
    skew = Subbundle(A, 2, [["1", "0"], ["1", "1"], ["0", "1"]])
    built = dict(calls)
    assert A.constant and built["eval_jet2"] == 2  # one per array: anchor, structure
    for _ in range(3):
        A.anchor_jet_at(ORIGIN)
        A.structure_jet_at(ORIGIN)
        for V in (U, skew):
            V.completion(ORIGIN)
            V.annihilator(ORIGIN)
            V.member(ORIGIN, [0.3, -0.7, 0.0])
            V.annihilator_residual(ORIGIN, [0.0, 0.0, 1.0])
    assert calls == built


def test_a_non_finite_constant_array_keeps_the_jet_message():
    # with m = 0 the constant arrays come from jets with no variables
    with pytest.raises(EvaluationFault, match="non-finite derivative result"):
        LieAlgebroid(0, 2, [], {(0, 0, 1): "1e300 * 1e300"})
    with pytest.raises(EvaluationFault, match="non-finite derivative result"):
        LieAlgebroid(1, 1, [["1e300 * 1e300"]], {})


def test_x_dependent_anchor_is_evaluated_on_every_call(calls):
    A = affine()
    assert not A.constant
    for x in np.linspace(-0.5, 0.5, 6):
        pt = BasePoint([x])
        fresh = affine()
        rho, drho = fresh.anchor_jet_at(pt)
        for _ in range(2):
            before = calls["eval_jet2"]
            got, dgot = A.anchor_jet_at(pt)
            assert calls["eval_jet2"] - before == 1  # one for the whole anchor
            assert np.array_equal(got, rho) and np.array_equal(dgot, drho)


def test_x_dependent_structure_mirrors_each_entry_as_zero_minus_it():
    A = LieAlgebroid(2, 3, [["1", "0", "x2"], ["0", "1", "0"]],
                     {(0, 0, 1): "x1 * x2", (2, 1, 2): "sin(x1) - 1"})
    for x in ([0.0, 1.0], [-0.0, 1.0], [0.3, -0.7]):
        pt = BasePoint(x)
        C, dC = A.structure_jet_at(pt)
        ref, dref = np.zeros((3, 3, 3)), np.zeros((3, 3, 3, 2))
        for (g, a, b), e in A.structure.items():
            v, grad, _ = expr.eval_jet2(e, pt.binding(), ("x1", "x2"))
            ref[g, a, b], ref[g, b, a] = v, 0.0 - v
            dref[g, a, b], dref[g, b, a] = grad, 0.0 - grad
        assert C.tobytes() == ref.tobytes()  # the sign of zero included
        assert np.array_equal(dC, dref)


def test_span_rank_is_checked_on_use_with_the_callers_tol():
    A = tangent(2)
    U = Subbundle(A, 1, [["1"], ["x1"]])
    x = BasePoint([2.0, 0.0])
    assert U.member(x, [1.0, 2.0])
    with pytest.raises(RankDeficient):
        U.completion(x, tol=10.0)
    # a constant span is decomposed when built but rank-checked when used
    V = Subbundle(so3(), 2, [["1", "2"], ["1", "2"], ["0", "1e-12"]])
    assert V.completion(ORIGIN, tol=1e-14).shape == (3, 3)
    with pytest.raises(RankDeficient):
        V.completion(ORIGIN)


def test_contract_matches_einsum_on_antisymmetric_arrays():
    rng = np.random.default_rng(3)
    for n in (1, 2, 3, 5):
        C = rng.standard_normal((n, n, n))
        C = C - C.transpose(0, 2, 1)
        p = rng.standard_normal(n)
        assert np.allclose(contract(C, p), np.einsum("gab,g->ab", C, p), rtol=0, atol=1e-14)
        # a stack of N rows against one C, and against a stack of N
        P = rng.standard_normal((4, n))
        Cs = rng.standard_normal((4, n, n, n))
        Cs = Cs - Cs.transpose(0, 1, 3, 2)
        assert contract(C, P).shape == contract(Cs, P).shape == (4, n, n)
        assert np.allclose(contract(C, P), np.einsum("gab,kg->kab", C, P), rtol=0, atol=1e-14)
        assert np.allclose(contract(Cs, P), np.einsum("kgab,kg->kab", Cs, P), rtol=0, atol=1e-14)


def test_member_annihilator_does_not_overflow():
    # the square of 1e300 overflows; the scale of the test does not
    from algmech.models import get_model

    U = get_model("suslov").system.U
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert U.member_annihilator(ORIGIN, [0, 0, 1e300])
        assert not U.member_annihilator(ORIGIN, [1e300, 0, 1e300])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_membership_bounds_that_overflow_are_scaled():
    # |xi| overflows, so tol (1 + |xi|) is inf, and the finite pairing
    # 1e308 of xi with (1, 0) once passed against it
    A = LieAlgebroid(0, 2, [], {})
    U = Subbundle(A, 1, [["1"], ["0"]])
    assert U.annihilator_residual(ORIGIN, [1e308, 1.5e308]) == 1e308
    assert not U.member_annihilator(ORIGIN, [1e308, 1.5e308])
    assert U.member_annihilator(ORIGIN, [0.0, 1.5e308])
    # the same where the scale of a member overflows: it still passes
    B = LieAlgebroid(0, 3, [], {})
    V = Subbundle(B, 2, [["1", "0"], ["0", "1"], ["0", "0"]])
    W = Subbundle(B, 1, [["1"], ["0"], ["0"]])
    assert V.member(ORIGIN, [1.5e308, 1.5e308, 0.0])
    assert not V.member(ORIGIN, [1.5e308, 0.0, 1.5e308])
    assert W.member_annihilator(ORIGIN, [0.0, 1.5e308, 1.5e308])
    assert not W.member_annihilator(ORIGIN, [1.5e308, 0.0, 1.5e308])


def test_constant_span_rank_uses_the_callers_tol_at_its_singular_values():
    # singular values 1 and 1e-6: a tol on either side of their ratio
    # keeps or cuts the second one, on every call
    V = Subbundle(so3(), 2, [["1", "0"], ["0", "1e-6"], ["0", "0"]])
    for _ in range(2):
        assert V.completion(ORIGIN, tol=0.9e-6).shape == (3, 3)
        with pytest.raises(RankDeficient, match="numerical rank 1, expected 2"):
            V.completion(ORIGIN, tol=1.1e-6)
        with pytest.raises(RankDeficient):
            V.member(ORIGIN, [1.0, 0.0, 0.0], tol=1.1e-6)
    # a rank-0 span has no singular values and is never deficient
    assert Subbundle(so3(), 0, [[], [], []]).annihilator(ORIGIN, tol=10.0).shape == (3, 3)


def test_an_overflowing_jacobi_defect_fails_validation():
    # C·C overflows and the cyclic sum of the infinities is nan, which the
    # largest residual keeps: it must not pass (with all constants 1, the
    # same bracket fails with residual 1)
    keys = [(0, 0, 1), (0, 1, 2), (1, 1, 2), (2, 0, 1)]
    pts = [BasePoint([])] * 3
    assert LieAlgebroid(0, 3, [], dict.fromkeys(keys, "1")).validate_structure(
        pts, 1e-10
    ).max_residual_eq2 == 1.0
    A = LieAlgebroid(0, 3, [], dict.fromkeys(keys, "1e300"))
    with np.errstate(all="ignore"):
        rep = A.validate_structure(pts, 1e-10)
    assert rep.max_residual_eq1 == 0.0 and np.isnan(rep.max_residual_eq2)
    assert not rep.passed
