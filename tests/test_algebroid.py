import builtins
import functools
import math
import re
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
from algmech.models import SO3_STRUCTURE, get_model, model_names


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


def test_span_rank_is_checked_on_use_at_its_x_at_one_tol():
    # 1e-9 is the one rank tol: 2e-9 x1 keeps the second column where
    # x1 > 0.5 and cuts it below, at the x of each call
    U = Subbundle(tangent(2), 2, [["1", "0"], ["0", "2e-9 * x1"]])
    for _ in range(2):
        for x1, ok in ((2.0, True), (0.6, True), (0.4, False), (0.0, False)):
            x = BasePoint([x1, 0.0])
            readers = (U.span_at, U.completion, U.annihilator,
                       lambda x: U.member(x, [1.0, 0.0], tol=10.0),
                       lambda x: U.member_annihilator(x, [0.0, 0.0], tol=10.0))
            for read in readers:
                if ok:
                    read(x)
                else:
                    with pytest.raises(RankDeficient, match=re.escape(f"2 at x={x.x}")):
                        read(x)
    # a constant span is decomposed when built but rank-checked when used
    V = Subbundle(so3(), 2, [["1", "2"], ["1", "2"], ["0", "1e-12"]])
    with pytest.raises(RankDeficient):
        V.span_at(ORIGIN)


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


def test_constant_span_rank_is_one_tol_at_its_singular_values():
    # singular-value ratios 1e-6 and 1e-12 lie on either side of the rank
    # tol 1e-9, on every call, whatever tol a membership test is given
    wide = Subbundle(so3(), 2, [["1", "0"], ["0", "1e-6"], ["0", "0"]])
    thin = Subbundle(so3(), 2, [["1", "0"], ["0", "1e-12"], ["0", "0"]])
    for _ in range(2):
        assert wide.completion(ORIGIN).shape == (3, 3)
        assert wide.member(ORIGIN, [1.0, 0.0, 0.0], tol=1e-5)
        assert wide.member_annihilator(ORIGIN, [0.0, 0.0, 1.0], tol=1e-5)
        for read in (thin.span_at, thin.completion, thin.annihilator,
                     lambda x: thin.member(x, [1.0, 0.0, 0.0], tol=1e-14),
                     lambda x: thin.member_distance(x, [1.0, 0.0, 0.0]),
                     lambda x: thin.annihilator_residual(x, [0.0, 0.0, 1.0])):
            with pytest.raises(RankDeficient, match="numerical rank 1, expected 2"):
                read(ORIGIN)
    # no reader takes a rank tol of its own
    for read in (wide.completion, wide.annihilator):
        with pytest.raises(TypeError):
            read(ORIGIN, tol=1e-14)
    with pytest.raises(TypeError):
        wide.member_distance(ORIGIN, [1.0, 0.0, 0.0], 1e-14)
    # a rank-0 span has no singular values and is never deficient
    assert Subbundle(so3(), 0, [[], [], []]).annihilator(ORIGIN).shape == (3, 3)


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


def _loop_cp_dot(A, pt, zs):
    """(C·p) z as the plain loop over the bracket table, the one that
    ``dirac._cp_rows`` runs on columns: the reference ``cp_dot`` must equal
    bit for bit, nan signs included."""
    C = (A._structure_flat or A.structure_jet_at(pt.x.tolist()))[0]
    p = pt.p.tolist()
    out = [[0.0] * A.n for _ in zs]
    for w, z in zip(out, zs):
        for a, b, g, k in A._bracket:
            w[a] += p[g] * C[k] * z[b]
    return out


def _hexes(rows) -> list:
    return [[float(v).hex() for v in row] for row in rows]


def cp_cases():
    """(A, box) of every built-in model, of data whose bracket depends on
    x, and of rank-0 fibers."""
    line = [(-0.9, 0.9)]
    return [(b.system.A, b.box) for b in map(get_model, model_names())] + [
        (affine(), line),
        (LieAlgebroid(1, 3, [["1", "x1", "0"]],
                      {(0, 0, 1): "x1", (2, 1, 2): "1 + x1^2", (1, 0, 2): "2"}), line),
        (LieAlgebroid(2, 3, [["1", "0", "x2"], ["0", "1", "0"]],
                      {(0, 0, 1): "x1 * x2", (2, 1, 2): "sin(x1) - 1"}), line * 2),
        (LieAlgebroid(1, 0, [[]], {}), line),
        (LieAlgebroid(0, 0, [], {}), []),
    ]


# entries whose products are inf, nan (0·inf, inf - inf), a signed zero or
# overflow, beside plain ones
SPECIAL = [math.inf, -math.inf, math.nan, 0.0, -0.0, 1e308, -2.5]


def test_cp_dot_equals_the_loop_bit_for_bit():
    rng = np.random.default_rng(33)

    def entries(n):  # Python floats, as the callers of cp_dot pass
        return [SPECIAL[j] if j < len(SPECIAL) else v
                for j, v in zip(rng.integers(2 * len(SPECIAL), size=n), rng.standard_normal(n).tolist())]

    for A, box in cp_cases():
        for trial in range(12):
            x = [rng.uniform(lo, hi) for lo, hi in box]
            p = rng.standard_normal(A.n) if trial % 3 == 0 else entries(A.n)
            pt = DualPoint._trusted(x=np.array(x), p=np.array(p, dtype=float))
            zs = [rng.standard_normal(A.n).tolist(), entries(A.n), [0.0] * A.n, [-0.0] * A.n]
            with np.errstate(all="ignore"):
                for rows in (zs, zs[1:2], []):  # r = 0 pairs no z
                    got, ref = A.cp_dot(pt, rows), _loop_cp_dot(A, pt, rows)
                    assert len(got) == len(rows)
                    assert _hexes(got) == _hexes(ref)
                    assert np.array(got).tobytes() == np.array(ref).tobytes()


def test_cp_dot_compiles_nothing(monkeypatch):
    compiled, real = [], builtins.compile

    def capture(source, filename, *args, **kwargs):
        compiled.append(filename)
        return real(source, filename, *args, **kwargs)

    monkeypatch.setattr(builtins, "compile", capture)
    for A, box in cp_cases():
        x = [0.5 * (lo + hi) for lo, hi in box]
        pt = DualPoint(x, np.arange(1.0, A.n + 1.0))
        zs = [np.linspace(-1.0, 1.0, A.n).tolist()]
        for _ in range(2):  # an x-dependent structure jet is compiled on its second call
            A.structure_jet_at(x)
        compiled.clear()
        first = A.cp_dot(pt, zs)
        for _ in range(2):
            assert _hexes(A.cp_dot(pt, zs)) == _hexes(first)
        assert compiled == []


class _Unread(list):
    """A list of singular values that fails if it is read."""

    def _read(self, *args):
        raise AssertionError("singular values read after construction")

    __iter__ = __getitem__ = __len__ = __bool__ = _read


def test_a_constant_span_is_rank_checked_once_when_built():
    A = so3()
    for U in (Subbundle.adapted_rank(A, 2), Subbundle.full(A), Subbundle(A, 0, [[], [], []]),
              Subbundle(A, 2, [["1", "0"], ["1", "1"], ["0", "1"]])):
        S, Q, Qc, s = U._fixed
        U._fixed = (S, Q, Qc, _Unread(s))
        for _ in range(2):
            frames = U._frames(ORIGIN)
            assert frames[1] is Q and frames[2] is Qc


def test_held_constant_arrays_are_handed_out_read_only():
    # a write into a returned array must not change what later calls return
    for name in model_names():
        sys = get_model(name).system
        A, U = sys.A, sys.U
        x = BasePoint(np.full(A.m, 0.1))
        reads = []
        for constant, at, jet_at in ((A.constant_anchor, A.anchor_at, A.anchor_jet_at),
                                     (A.constant_structure, A.structure_at, A.structure_jet_at)):
            reads += [functools.partial(at, x), lambda jet_at=jet_at: jet_at(x)[1]] * constant
        reads += [functools.partial(U.span_at, x), functools.partial(U.annihilator, x)] * U.constant
        before = [read().copy() for read in reads]
        for read in reads:
            with pytest.raises(ValueError, match="read-only"):
                read()[...] = 5.0
        for read, want in zip(reads, before):
            assert read().tobytes() == want.tobytes()
        # the BasePoint and list forms still agree
        for jet_at in (A.anchor_jet_at, A.structure_jet_at):
            for a, flat in zip(jet_at(x), jet_at(x.x.tolist())):
                assert tuple(a.ravel().tolist()) == tuple(flat)
        if U.constant:
            _, Q, Qc, _ = U._frames(x)
            assert np.allclose(Q @ Q.T + Qc @ Qc.T, np.eye(A.n))
            assert np.abs(U.span_at(x).T @ Qc).max(initial=0.0) <= 1e-12


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_the_largest_pairing_is_numpys_max_with_its_nan_rule():
    # a nan anywhere among the pairings is the residual, as numpy's max
    # gives it; no pairings (r = 0) give 0.0
    A = LieAlgebroid(0, 2, [], {})
    for U in (Subbundle.full(A), Subbundle(A, 1, [["1"], ["1"]]), Subbundle(A, 0, [[], []])):
        S = U.span_at(ORIGIN)
        for xi in ([1.0, math.nan], [math.nan, 1.0], [math.inf, -1.0], [-0.0, 0.0],
                   [2.0, -3.0], [1e308, 1e308]):
            with np.errstate(all="ignore"):
                want = np.abs(np.array(xi) @ S).max(initial=0.0)
            got = U.annihilator_residual(ORIGIN, xi)
            assert type(got) is float and np.float64(got).tobytes() == want.tobytes()
