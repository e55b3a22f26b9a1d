import copy
import pickle
import warnings

import numpy as np
import pytest

from algmech.algebroid import DualPoint, LieAlgebroid, Subbundle, _norm
from algmech.dirac import (
    DiracBasis,
    DiracPair,
    check_self_orthogonal,
    dirac_generators,
    dirac_member_poisson,
    dirac_member_symplectic,
    dirac_members,
    lift_subbundle,
)
from algmech.errors import EvaluationFault, NonFinite, RankDeficient
from algmech.models import SO3_STRUCTURE, get_model, model_names
from algmech.prolong import ProlongCovector, ProlongVector, omega_flat, omega_sharp


def so3():
    return LieAlgebroid(0, 3, [], SO3_STRUCTURE)


def scenarios():
    """(algebroid, subbundle) pairs covering full, adapted and skew spans."""
    A1 = LieAlgebroid(2, 2, [["1", "0"], ["0", "1"]], {})
    A2 = so3()
    A3 = LieAlgebroid(1, 2, [["1", "x1"]], {(0, 0, 1): "1"})
    return [
        (A1, Subbundle.full(A1)),
        (A2, Subbundle.adapted_rank(A2, 2)),
        (A2, Subbundle(A2, 2, [["1", "0"], ["1", "1"], ["0", "1"]])),
        (A3, Subbundle.adapted_rank(A3, 1)),
    ]


def random_dual(A, rng):
    return DualPoint(rng.uniform(-1, 1, size=A.m), rng.standard_normal(A.n))


def as_pair(pt, v):
    n = len(pt.p)
    return DiracPair(
        ProlongVector(pt, v[:n], v[n : 2 * n]),
        ProlongCovector(pt, v[2 * n : 3 * n], v[3 * n :]),
    )


def test_lift_subbundle_layout():
    A = so3()
    pt = DualPoint([], [1.0, 2.0, 3.0])
    full = lift_subbundle(A, Subbundle.full(A), pt)
    assert len(full) == 6

    U = Subbundle.adapted_rank(A, 2)
    vecs = lift_subbundle(A, U, pt)
    assert len(vecs) == 5
    spans = np.array([v.z for v in vecs[:2]])
    assert np.abs(spans - np.eye(3)[:2]).max() < 1e-14
    assert all(not v.u.any() for v in vecs[:2])
    assert all(not v.z.any() for v in vecs[2:])

    zero = Subbundle(A, 0, [[], [], []])
    vecs = lift_subbundle(A, zero, pt)
    assert len(vecs) == 3 and all(not v.z.any() for v in vecs)


def test_membership_rotation_example():
    A = so3()
    U = Subbundle.adapted_rank(A, 2)
    pt = DualPoint([], [1.0, 2.0, 3.0])
    dp = DiracPair(
        ProlongVector(pt, [1.0, 0.0, 0.0], np.zeros(3)),
        ProlongCovector(pt, [0.0, 3.0, 0.0], [1.0, 0.0, 0.0]),
    )
    assert dirac_member_symplectic(A, U, dp, 1e-9).member
    assert dirac_member_poisson(A, U, dp, 1e-9).member


def test_membership_violations_flagged_separately():
    A = so3()
    U = Subbundle.adapted_rank(A, 2)
    pt = DualPoint([], [0.5, 0.5, 0.5])
    # v != z
    dp = DiracPair(
        ProlongVector(pt, [1.0, 0.0, 0.0], np.zeros(3)),
        ProlongCovector(pt, [0.0, 0.5, 0.0], [1.0, 0.01, 0.0]),
    )
    rep = dirac_member_symplectic(A, U, dp, 1e-9)
    assert not rep.member and rep.anchor_residual >= 1e-3
    # z outside U
    dp = DiracPair(
        ProlongVector(pt, [0.0, 0.0, 1.0], np.zeros(3)),
        ProlongCovector(pt, np.zeros(3), [0.0, 0.0, 1.0]),
    )
    rep = dirac_member_symplectic(A, U, dp, 1e-9)
    assert not rep.member and rep.span_residual >= 0.5


def test_graph_pairs_are_members_for_any_u_slot():
    rng = np.random.default_rng(2)
    for A, U in scenarios():
        for _ in range(50):
            pt = random_dual(A, rng)
            S = U.span_at(pt.base)
            z = S @ rng.standard_normal(U.r) if U.r else np.zeros(A.n)
            X = ProlongVector(pt, z, rng.standard_normal(A.n))
            dp = DiracPair(X, omega_flat(A, X))
            assert dirac_member_symplectic(A, U, dp, 1e-8).member
            al = ProlongCovector(pt, rng.standard_normal(A.n), z)
            dp = DiracPair(omega_sharp(A, al), al)
            assert dirac_member_poisson(A, U, dp, 1e-8).member


def test_constructions_agree_on_random_pairs():
    rng = np.random.default_rng(14)
    for A, U in scenarios():
        n = A.n
        for k in range(250):
            pt = random_dual(A, rng)
            if k % 2:
                basis = dirac_generators(A, U, pt)
                v = rng.standard_normal(2 * n) @ basis.matrix()
            else:
                v = rng.standard_normal(4 * n)
            dp = as_pair(pt, v)
            a = dirac_member_symplectic(A, U, dp, 1e-8)
            b = dirac_member_poisson(A, U, dp, 1e-8)
            assert a.member == b.member


def test_generators_span_and_self_orthogonality():
    rng = np.random.default_rng(23)
    for A, U in scenarios():
        for _ in range(100):
            pt = random_dual(A, rng)
            basis = dirac_generators(A, U, pt)
            assert len(basis.generators) == 2 * A.n
            assert np.linalg.matrix_rank(basis.matrix(), tol=1e-9) == 2 * A.n
            assert check_self_orthogonal(basis) <= 1e-10
            for g in basis.generators:
                assert dirac_member_symplectic(A, U, g, 1e-10).member


def test_generator_row_built_from_momenta_is_checked_finite():
    # rigid-body algebroid, skew rank-1 span q = (1, 1, 0)/sqrt(2): with
    # |p| near 1e308 the covector row -(C·p) q overflows and is refused
    A = get_model("rigid-body").system.A
    U = Subbundle(A, 1, [["1"], ["1"], ["0"]])
    pt = DualPoint([], [1.7e308, -1.7e308, 1.7e308])
    with np.errstate(over="ignore"), pytest.raises(
        ValueError, match="^components must be finite, got "
    ):
        dirac_generators(A, U, pt)
    # the same point with moderate momenta builds every generator
    basis = dirac_generators(A, U, DualPoint([], [1.7, -1.7, 1.7]))
    assert len(basis.generators) == 6 and check_self_orthogonal(basis) <= 1e-12


def test_self_orthogonality_detector():
    A = so3()
    U = Subbundle.adapted_rank(A, 2)
    pt = DualPoint([], [1.0, -2.0, 0.5])
    basis = dirac_generators(A, U, pt)
    g0 = basis.generators[0]
    corrupted = DiracPair(
        g0.X,
        ProlongCovector(pt, g0.alpha.r + np.array([1e-3, 0, 0]), g0.alpha.v),
    )
    from algmech.dirac import DiracBasis

    bad = DiracBasis(pt, (corrupted,) + basis.generators[1:])
    assert check_self_orthogonal(bad) >= 1e-4


def test_members_pair_to_zero_with_themselves():
    from algmech.prolong import pair

    rng = np.random.default_rng(31)
    A = so3()
    U = Subbundle.adapted_rank(A, 2)
    for _ in range(50):
        pt = random_dual(A, rng)
        basis = dirac_generators(A, U, pt)
        v = rng.standard_normal(6) @ basis.matrix()
        dp = as_pair(pt, v)
        assert abs(pair(dp.alpha, dp.X)) <= 1e-10 * (1 + v @ v)


def test_membership_invariant_under_span_recombination():
    rng = np.random.default_rng(40)
    A = so3()
    U1 = Subbundle(A, 2, [["1", "0"], ["0", "1"], ["0", "0"]])
    # same plane, differently presented
    U2 = Subbundle(A, 2, [["2", "1"], ["1", "1"], ["0", "0"]])
    for _ in range(100):
        pt = random_dual(A, rng)
        v = rng.standard_normal(12)
        if rng.uniform() < 0.5:
            v = rng.standard_normal(6) @ dirac_generators(A, U1, pt).matrix()
        dp = as_pair(pt, v)
        m1 = dirac_member_symplectic(A, U1, dp, 1e-8).member
        m2 = dirac_member_symplectic(A, U2, dp, 1e-8).member
        assert m1 == m2


def pairwise_self_orthogonality(basis):
    """The definition: max |alpha_i(X_j) + alpha_j(X_i)| over all pairs."""
    from algmech.prolong import pair

    gens = basis.generators
    return max(
        abs(pair(gi.alpha, gj.X) + pair(gj.alpha, gi.X))
        for i, gi in enumerate(gens)
        for gj in gens[i:]
    )


def test_stacked_self_orthogonality_matches_the_pairwise_definition():
    from algmech.dirac import DiracBasis
    from algmech.models import model_names

    rng = np.random.default_rng(8)
    for name in model_names():
        sys_ = get_model(name).system
        A, U = sys_.A, sys_.U
        for _ in range(20):
            pt = DualPoint(rng.uniform(-1, 1, A.m), rng.standard_normal(A.n))
            basis = dirac_generators(A, U, pt)
            assert abs(check_self_orthogonal(basis) - pairwise_self_orthogonality(basis)) <= 1e-15
            # a basis that is not isotropic scores the same both ways
            g = basis.generators
            bad = DiracBasis(pt, (DiracPair(g[-1].X, g[0].alpha),) + g[1:])
            worst = pairwise_self_orthogonality(bad)
            assert worst > 0.0
            assert abs(check_self_orthogonal(bad) - worst) <= 1e-15 * (1.0 + worst)
    # no generators at all: nothing to pair
    assert check_self_orthogonal(DiracBasis(DualPoint([], []), ())) == 0.0


def test_membership_scale_does_not_overflow():
    # |(z, u, r, v)|^2 overflows; the norm and the verdict do not warn
    A = get_model("rigid-body").system.A
    U = Subbundle.full(A)
    pt = DualPoint([], [0.0, 0.0, 0.0])
    big = [1e300, 0.0, 0.0]
    dp = DiracPair(ProlongVector(pt, big, np.zeros(3)), ProlongCovector(pt, np.zeros(3), big))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = dirac_member_symplectic(A, U, dp)
        assert rep.member and rep.anchor_residual == 0.0
        assert dirac_member_poisson(A, U, dp).member


def test_a_nan_annihilator_pairing_is_not_a_member():
    # (C·p) z overflows to (inf, -inf), whose pairing with the span column
    # (1, 1) is nan; max() once dropped it behind the two zero defects, so
    # this pair (u pairs to 1 with U) passed as a member
    A = LieAlgebroid(0, 2, [], {(0, 0, 1): "1e300"})
    U = Subbundle(A, 1, [["1"], ["1"]])
    pt = DualPoint([], [1e10, 0.0])
    dp = DiracPair(
        ProlongVector(pt, [1.0, 1.0], [1.0, 0.0]), ProlongCovector(pt, [0.0, 0.0], [1.0, 1.0])
    )
    with np.errstate(all="ignore"):
        rep = dirac_member_symplectic(A, U, dp, 1e-8)
    assert rep.span_residual < 1e-15 and rep.anchor_residual == 0.0
    assert np.isnan(rep.annihilator_residual) and not rep.member


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_residual_is_not_a_member():
    # |(z, u, r, v)| overflows, so the bound tol (1 + |(z, u, r, v)|) is
    # inf; the pairing of r with the span column (2, -2) overflows too, and
    # an inf residual once passed against that bound, with a numpy warning
    A = LieAlgebroid(0, 2, [], {})
    U = Subbundle(A, 1, [["2"], ["-2"]])
    pt = DualPoint([], [0.0, 0.0])
    r, zero = [1e308, 1.5e308], np.zeros(2)
    dp = DiracPair(ProlongVector(pt, zero, zero), ProlongCovector(pt, r, zero))
    for test in (dirac_member_symplectic, dirac_member_poisson):
        rep = test(A, U, dp)
        assert rep.annihilator_residual == np.inf and not rep.member
    assert not U.member_annihilator(pt.base, r)
    # the same for the in-U test: the distance of (1.5e308, 1.5e308) from
    # span (1, 1) overflows, and is not certified as 0
    W = Subbundle(A, 1, [["1"], ["1"]])
    assert W.member_distance(pt.base, [1.5e308] * 2) == np.inf
    assert not W.member(pt.base, [1.5e308] * 2)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_finite_residual_is_held_to_the_scale_of_an_overflowing_pair():
    # |(z, u, r, v)| overflows, so the bound tol (1 + |(z, u, r, v)|) is
    # inf; the pairing 1e308 of r with the span column (1, 0) is finite,
    # more than half of |r|, and once passed against that bound
    A = LieAlgebroid(0, 2, [], {})
    U = Subbundle(A, 1, [["1"], ["0"]])
    pt, zero = DualPoint([], [0.0, 0.0]), np.zeros(2)
    for r, member in (([1e308, 1.5e308], False), ([0.0, 1.5e308], True)):
        dp = DiracPair(ProlongVector(pt, zero, zero), ProlongCovector(pt, r, zero))
        for test in (dirac_member_symplectic, dirac_member_poisson):
            rep = test(A, U, dp)
            assert rep.annihilator_residual == r[0] and rep.member is member
    # a huge member whose scale overflows still passes
    B = LieAlgebroid(0, 3, [], {})
    V = Subbundle(B, 1, [["1"], ["0"], ["0"]])
    pt, zero = DualPoint([], [0.0] * 3), np.zeros(3)
    dp = DiracPair(ProlongVector(pt, zero, zero), ProlongCovector(pt, [0.0, 1.5e308, 1.5e308], zero))
    assert dirac_member_symplectic(B, V, dp).member and dirac_member_poisson(B, V, dp).member


def per_pair(A, U, points, rows, at, tol=1e-8):
    """(symplectic, Poisson) verdicts of each row by the per-pair tests."""
    out = []
    for j, row in zip(at, rows):
        dp = as_pair(points[j], np.asarray(row, dtype=float))
        out.append((dirac_member_symplectic(A, U, dp, tol).member,
                    dirac_member_poisson(A, U, dp, tol).member))
    return out


def stacked(A, U, points, rows, at, tol=1e-8):
    sym, poi = dirac_members(A, U, points, rows, at, tol)
    return list(zip(sym.tolist(), poi.tolist()))


def models_and_x_dependent():
    """(A, U, box) of every built-in model, and of data on a line whose
    anchor, bracket and rank-2 span depend on x."""
    A = LieAlgebroid(1, 3, [["1", "x1", "0"]], {(0, 0, 1): "x1", (2, 1, 2): "1 + x1^2", (1, 0, 2): "2"})
    U = Subbundle(A, 2, [["1", "0"], ["x1", "1"], ["0", "1 - x1"]])
    return [(b.system.A, b.system.U, b.box) for b in map(get_model, model_names())] + [
        (A, U, [(-0.9, 0.9)])]


def test_stacked_members_equal_the_per_pair_verdicts_row_by_row():
    rng = np.random.default_rng(25)
    for A, U, box in models_and_x_dependent():
        n = A.n
        points = [
            DualPoint([rng.uniform(lo, hi) for lo, hi in box],
                      rng.standard_normal(n) * 10.0 ** rng.uniform(-2, 2))
            for _ in range(4)
        ]
        mats = [dirac_generators(A, U, pt).matrix() for pt in points]
        at = rng.integers(len(points), size=150)
        rows = []
        for k, j in enumerate(at):
            inside = rng.standard_normal(2 * n) @ mats[j]
            near = inside + 1e-8 * rng.standard_normal(4 * n)  # either verdict
            scaled = rng.standard_normal(4 * n) * 10.0 ** rng.uniform(-3, 3)
            rows.append((inside, near, scaled)[k % 3])
        verdicts = stacked(A, U, points, rows, at)
        assert verdicts == per_pair(A, U, points, rows, at)
        assert {True, False} <= {v for pair in verdicts for v in pair}


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_stacked_members_decide_the_overflowing_rows_as_the_per_pair_tests():
    # the pairs of the three tests above, each stacked after a small row
    # whose verdicts the stacked pass computes itself
    A = LieAlgebroid(0, 2, [], {})
    zero, small = [0.0] * 4, [0.5, -0.5, 0.0, 0.0, 0.1, 0.2, 0.3, 0.4, 0.5, -0.5, 0.0, 0.0]
    for span, r, member in (
        ([["2"], ["-2"]], [1e308, 1.5e308], False),
        ([["1"], ["0"]], [1e308, 1.5e308], False),
        ([["1"], ["0"]], [0.0, 1.5e308], True),
    ):
        U, pt = Subbundle(A, 1, span), DualPoint([], [0.0, 0.0])
        rows = [small[:8], [*zero, *r, 0.0, 0.0]]
        assert stacked(A, U, [pt], rows, [0, 0]) == per_pair(A, U, [pt], rows, [0, 0])
        assert stacked(A, U, [pt], rows, [0, 0])[1] == (member, member)
    B = LieAlgebroid(0, 3, [], {})
    V, pt = Subbundle(B, 1, [["1"], ["0"], ["0"]]), DualPoint([], [0.0] * 3)
    rows = [small, [0.0] * 6 + [0.0, 1.5e308, 1.5e308] + [0.0] * 3]
    assert stacked(B, V, [pt], rows, [0, 0]) == per_pair(B, V, [pt], rows, [0, 0])
    assert stacked(B, V, [pt], rows, [0, 0])[1] == (True, True)


def raised(f, *args):
    """The type and the text of the error f(*args) raises."""
    with pytest.raises(Exception) as e:
        f(*args)
    return type(e.value), str(e.value)


def test_stacked_members_raise_where_the_per_pair_poisson_test_raises():
    # p·C overflows, so (C·p) v is not finite for any v and the Poisson test
    # refuses -r - (C·p) v; the symplectic test of the pair finds a nan pairing
    A = LieAlgebroid(0, 2, [], {(0, 0, 1): "1e300"})
    U = Subbundle(A, 1, [["1"], ["1"]])
    pt = DualPoint([], [1e10, 0.0])
    row = [1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0]
    with np.errstate(all="ignore"):
        assert not dirac_member_symplectic(A, U, as_pair(pt, np.array(row)), 1e-8).member
        # also where U = 0 pairs every covector to 0, so no residual shows it
        for U, rows in ((U, [row]), (U, [[0.0] * 8, row]), (Subbundle.adapted_rank(A, 0), [row])):
            error = raised(per_pair, A, U, [pt], rows, [0] * len(rows))
            assert error[0] is NonFinite
            assert raised(dirac_members, A, U, [pt], rows, [0] * len(rows), 1e-8) == error


def test_stacked_members_raise_at_the_first_row_of_a_point_that_loses_rank():
    # 2e-9 x1 is a singular value above the rank tol 1e-9 at x1 = 0.8 but below it at 0.3
    A = LieAlgebroid(1, 2, [["1", "0"]], {(0, 0, 1): "x1"})
    U = Subbundle(A, 2, [["1", "0"], ["0", "2e-9 * x1"]])
    points = [DualPoint([0.8], [1.0, 0.5]), DualPoint([0.3], [-1.0, 0.5])]
    rows = np.random.default_rng(3).standard_normal((3, 8))
    # a point no row uses is not checked
    assert stacked(A, U, points, rows, [0, 0, 0]) == per_pair(A, U, points, rows, [0, 0, 0])
    rank = (RankDeficient, "span has numerical rank 1, expected 2 at x=[0.3]")
    for at in ([0, 1, 0], [1, 0, 0]):
        assert raised(per_pair, A, U, points, rows, at) == rank
        assert raised(dirac_members, A, U, points, rows, at, 1e-8) == rank
    # a row no pair can hold raises where the per-pair run meets it first
    rows[1, 0] = np.inf
    for at, kind in (([0, 0, 1], NonFinite), ([1, 0, 0], RankDeficient), ([0, 1, 0], NonFinite)):
        error = raised(per_pair, A, U, points, rows, at)
        assert error[0] is kind
        assert raised(dirac_members, A, U, points, rows, at, 1e-8) == error
    # no rows: nothing to check
    sym, poi = dirac_members(A, U, points[1:], np.zeros((0, 8)), [], 1e-8)
    assert sym.shape == poi.shape == (0,)
    # nor does a point whose bracket fails to evaluate raise before its row
    B = LieAlgebroid(1, 2, [["1", "0"]], {(0, 0, 1): "sqrt(x1)"})
    V = Subbundle.full(B)
    points = [DualPoint([1.0], [1.0, 0.5]), DualPoint([-1.0], [1.0, 0.5])]
    for at, kind in (([0, 1, 0], NonFinite), ([0, 0, 1], NonFinite), ([1, 0, 0], EvaluationFault)):
        error = raised(per_pair, B, V, points, rows, at)
        assert error[0] is kind
        assert raised(dirac_members, B, V, points, rows, at, 1e-8) == error


def test_stacked_residuals_are_the_per_pair_residuals():
    from algmech.dirac import _stacked_residuals

    def residuals(A, U, pt, rows):
        """The stacked residuals of rows at one point, and the per-pair ones."""
        N, (S, Q, _, _) = len(rows), U._frames(pt.base)
        C = [A.structure_at(pt.x.tolist())] * N
        sym, poi, bound, ok = _stacked_residuals(
            A, rows, np.array([pt.p] * N), np.array(C), np.array([S] * N), np.array([Q] * N), 1e-8)
        per = [[(rep.span_residual, rep.anchor_residual, rep.annihilator_residual)
                for rep in (dirac_member_symplectic(A, U, dp, 1e-8),
                            dirac_member_poisson(A, U, dp, 1e-8))]
               for dp in (as_pair(pt, row) for row in rows)]
        return np.stack([sym.T, poi.T], axis=1), np.array(per), ok

    rng = np.random.default_rng(6)
    for bundle in map(get_model, model_names()):
        A, U = bundle.system.A, bundle.system.U
        for _ in range(5):
            pt = DualPoint([rng.uniform(lo, hi) for lo, hi in bundle.box],
                           rng.standard_normal(A.n) * 10.0 ** rng.uniform(-2, 2))
            inside = rng.standard_normal((20, 2 * A.n)) @ dirac_generators(A, U, pt).matrix()
            rows = np.vstack([inside, rng.standard_normal((20, 4 * A.n))])
            got, want, ok = residuals(A, U, pt, rows)
            assert ok.all()
            # the anchor defect is the same floats; the others differ by rounding
            assert np.array_equal(got[:, :, 1], want[:, :, 1])
            scale = 1.0 + np.linalg.norm(rows, axis=1)[:, None, None]
            assert (np.abs(got - want) <= 1e-15 * scale).all()
            if U.adapted:  # the pairing with the span picks entries of r + u + (C·p) z
                assert np.array_equal(got[:, :, 2], want[:, :, 2])
    # a nan pairing is kept, and the row is left to the per-pair tests
    A = LieAlgebroid(0, 2, [], {(0, 0, 1): "1e300"})
    U, pt = Subbundle(A, 1, [["1"], ["1"]]), DualPoint([], [1.0, 0.0])
    got, want, ok = residuals(A, U, pt, np.array([[1e10, 1e10] + [0.0] * 6]))
    assert np.isnan(got[0, 0, 2]) and np.isnan(want[0, 0, 2]) and not ok[0]


def test_stacked_cp_rows_are_the_floats_of_cp_dot():
    from algmech.dirac import _cp_rows

    rng = np.random.default_rng(9)
    for A, U, box in models_and_x_dependent():
        points = [DualPoint([rng.uniform(lo, hi) for lo, hi in box], rng.standard_normal(A.n))
                  for _ in range(3)]
        at = rng.integers(3, size=40)
        Z = rng.standard_normal((40, A.n)) * 10.0 ** rng.uniform(-3, 3, (40, 1))
        P = np.array([points[j].p for j in at])
        C = np.array([A.structure_at(points[j].x.tolist()) for j in at])
        expected = [A.cp_dot(points[j], [z.tolist()])[0] for j, z in zip(at, Z)]
        assert _cp_rows(A, P, C, Z).tobytes() == np.array(expected).tobytes()


def test_dirac_generators_are_the_rows_of_the_generator_matrix():
    # the rows, built here from U's completed frame and cp_dot: (q, 0,
    # -(C·p) q, q) per U direction q, (0, e, -e, 0) per momentum direction
    # and (0, 0, c, 0) per complementary direction c
    rng = np.random.default_rng(12)
    for A, U in scenarios():
        n, pt = A.n, random_dual(A, rng)
        F = U.completion(pt.base)
        zero = [0.0] * n
        rows = [[*q, *zero, *(-t for t in w), *q]
                for q, w in zip(F[:, : U.r].T.tolist(), A.cp_dot(pt, F[:, : U.r].T.tolist()))]
        rows += [[*zero, *e, *(-t for t in e), *zero] for e in np.eye(n).tolist()]
        rows += [[*zero, *zero, *c, *zero] for c in F[:, U.r :].T.tolist()]
        basis = dirac_generators(A, U, pt)
        assert np.array_equal(basis.matrix(), np.array(rows))
        assert basis.base is pt
        assert np.array_equal([g.coordinates() for g in basis.generators], basis.matrix())


def numpy_member_distance(U, x, v):
    """``Subbundle.member_distance`` as the plain numpy formula: the reference."""
    Q, v = U._frames(x)[1], np.asarray(v, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return _norm(v - Q @ (Q.T @ v))


def numpy_annihilator_residual(U, x, xi):
    """``Subbundle.annihilator_residual`` as the plain numpy formula: the reference."""
    S, xi = U._frames(x)[0], np.asarray(xi, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.abs(xi @ S).max(initial=0.0))


def reports(A, U, dp, tol=1e-8):
    """The four fields of both membership reports of ``dp`` as floats, nan
    for a test that raises (♯(alpha) overflows at the largest scales)."""
    out = []
    for test in (dirac_member_symplectic, dirac_member_poisson):
        try:
            rep = test(A, U, dp, tol)
        except NonFinite:
            out.append([np.nan] * 4)
            continue
        out.append([float(rep.member), rep.span_residual, rep.anchor_residual,
                    rep.annihilator_residual])
    return np.array(out)


def reports_both_ways(A, U, dp, monkeypatch, tol=1e-8):
    """The reports of ``dp`` as the tests give them, and with the references."""
    got = reports(A, U, dp, tol)
    with monkeypatch.context() as m:
        m.setattr(Subbundle, "member_distance", numpy_member_distance)
        m.setattr(Subbundle, "annihilator_residual", numpy_annihilator_residual)
        return got, reports(A, U, dp, tol)


def overflow_pairs():
    """(A, U, pair) of the scale, nan-pairing and overflow tests above."""
    rigid = get_model("rigid-body").system.A
    big, zero3 = [1e300, 0.0, 0.0], np.zeros(3)
    p3 = DualPoint([], [0.0] * 3)
    out = [(rigid, Subbundle.full(rigid),
            DiracPair(ProlongVector(p3, big, zero3), ProlongCovector(p3, zero3, big)))]
    A = LieAlgebroid(0, 2, [], {(0, 0, 1): "1e300"})
    pt = DualPoint([], [1e10, 0.0])
    out.append((A, Subbundle(A, 1, [["1"], ["1"]]), DiracPair(
        ProlongVector(pt, [1.0, 1.0], [1.0, 0.0]), ProlongCovector(pt, [0.0, 0.0], [1.0, 1.0]))))
    A, pt, zero = LieAlgebroid(0, 2, [], {}), DualPoint([], [0.0, 0.0]), np.zeros(2)
    for span in ([["2"], ["-2"]], [["1"], ["1"]], [["1"], ["0"]]):
        for r in ([1e308, 1.5e308], [0.0, 1.5e308], [1.5e308, 1.5e308]):
            for dp in (DiracPair(ProlongVector(pt, zero, zero), ProlongCovector(pt, r, zero)),
                       DiracPair(ProlongVector(pt, r, zero), ProlongCovector(pt, zero, r))):
                out.append((A, Subbundle(A, 1, span), dp))
    B = LieAlgebroid(0, 3, [], {})
    out.append((B, Subbundle(B, 1, [["1"], ["0"], ["0"]]), DiracPair(
        ProlongVector(p3, zero3, zero3), ProlongCovector(p3, [0.0, 1.5e308, 1.5e308], zero3))))
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_membership_residuals_are_the_numpy_formula_at_every_scale(monkeypatch):
    # every report field of the per-pair tests equals, nan for nan, what the
    # plain numpy formulas give, with no warning escaping the overflow guard:
    # on the built-in models and an x-dependent span (whose frame entries
    # round) at scales 1e-300 to 1e300, and on the overflow and nan rows
    rng = np.random.default_rng(26)
    cases = []
    for A, U, box in models_and_x_dependent():
        for _ in range(6):
            pt = DualPoint([rng.uniform(lo, hi) for lo, hi in box], rng.standard_normal(A.n))
            inside = rng.standard_normal(2 * A.n) @ dirac_generators(A, U, pt).matrix()
            for scale in (1e-300, 1.0, 1e160, 1e300):
                for row in (inside * scale, rng.standard_normal(4 * A.n) * scale):
                    cases.append((A, U, as_pair(pt, row)))
    for A, U, dp in cases + overflow_pairs():
        got, want = reports_both_ways(A, U, dp, monkeypatch)
        assert np.array_equal(got, want, equal_nan=True)
        x, v = dp.X.base.base, np.concatenate([dp.X.z, dp.alpha.r])
        for row in (v[: A.n], v[A.n :]):
            assert U.member_distance(x, row) == numpy_member_distance(U, x, row)
            assert U.annihilator_residual(x, row) == numpy_annihilator_residual(U, x, row)
    assert any(np.isnan(want).any() for *_, want in [reports_both_ways(*c, monkeypatch)
                                                     for c in overflow_pairs()])


def test_a_basis_holds_its_generator_matrix_read_only(monkeypatch):
    rng = np.random.default_rng(28)
    for A, U in scenarios():
        pt = random_dual(A, rng)
        basis = dirac_generators(A, U, pt)
        M = basis.matrix()
        assert M is basis.matrix()
        assert np.array_equal(M, dirac_generators(A, U, pt).matrix())
        with pytest.raises(ValueError):
            M[0, 0] = 1.0
        with monkeypatch.context() as m:
            m.setattr(DiracPair, "coordinates", lambda self: pytest.fail("matrix rebuilt"))
            assert check_self_orthogonal(basis) <= 1e-10
        # the generators are the rows, over pt; the matrix is no field
        assert np.array_equal([g.coordinates() for g in basis.generators], M)
        assert all(g.X.base is pt and g.alpha.base is pt for g in basis.generators)
        assert DiracBasis._fields == ("base", "generators")
        with pytest.raises(AttributeError):
            basis._matrix = M
        # equality, hash and repr read base and generators, as for a basis
        # built from them, whose matrix is stacked from its generators
        twin = DiracBasis(pt, basis.generators)
        assert twin == basis and hash(twin) == hash(basis) and repr(twin) == repr(basis)
        assert np.array_equal(twin.matrix(), M) and twin.matrix() is not twin.matrix()
        assert dirac_generators(A, U, pt) != basis  # other pairs, as before
        fresh = dirac_generators(A, U, pt)
        assert repr(fresh) == f"DiracBasis(base={pt!r}, generators={fresh.generators!r})"
        # a copy is a basis over the same fields, as before
        assert copy.copy(basis) == basis and np.array_equal(copy.deepcopy(basis).matrix(), M)
        assert np.array_equal(pickle.loads(pickle.dumps(basis)).matrix(), M)


def test_a_basis_makes_its_pairs_when_they_are_first_read(monkeypatch):
    built = []

    def counted(f):
        def g(*args, **kwargs):
            built.append(1)
            return f(*args, **kwargs)
        return g

    monkeypatch.setattr(DiracPair, "__init__", counted(DiracPair.__init__))
    monkeypatch.setattr(DiracPair, "_trusted", classmethod(counted(DiracPair._trusted.__func__)))
    rng = np.random.default_rng(29)
    for A, U in scenarios():
        pt = random_dual(A, rng)
        basis = dirac_generators(A, U, pt)
        M = basis.matrix()
        assert check_self_orthogonal(basis) <= 1e-10 and M.shape == (2 * A.n, 4 * A.n)
        assert not built  # no pair yet: the generators were not read
        gens = basis.generators
        assert len(built) == 2 * A.n and basis.generators is gens
        assert len(built) == 2 * A.n  # a second read makes none
        for g, row in zip(gens, M):
            for a in (g.X.z, g.X.u, g.alpha.r, g.alpha.v):
                assert np.shares_memory(a, row) and not a.flags.writeable
        # a copy of a basis whose pairs were never read is the same basis
        unread = dirac_generators(A, U, pt)
        assert copy.copy(unread) == unread
        built.clear()


def test_the_poisson_test_builds_no_vector(monkeypatch):
    rng = np.random.default_rng(41)
    pairs = []
    for A, U, box in models_and_x_dependent():
        for _ in range(3):
            pt = DualPoint([rng.uniform(lo, hi) for lo, hi in box], rng.standard_normal(A.n))
            pairs.append((A, U, as_pair(pt, rng.standard_normal(4 * A.n))))
    built = []
    init, trusted = ProlongVector.__init__, ProlongVector._trusted

    def counted_init(self, *args):
        built.append("__init__")
        init(self, *args)

    def counted_trusted(cls, **arrays):
        built.append("_trusted")
        return trusted(**arrays)

    monkeypatch.setattr(ProlongVector, "__init__", counted_init)
    monkeypatch.setattr(ProlongVector, "_trusted", classmethod(counted_trusted))
    for A, U, dp in pairs:
        dirac_member_poisson(A, U, dp)
    assert built == []
    # where ♯(alpha) overflows, the test refuses its u-slot as omega_sharp does
    A = LieAlgebroid(0, 2, [], {(0, 0, 1): "1e300"})
    U, pt = Subbundle(A, 1, [["1"], ["1"]]), DualPoint([], [1e10, 0.0])
    for row, text in (([1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0], "[-inf  inf]"),
                      ([0.0, 0.0, 0.0, 0.0, 2.0, -3.0, 0.0, 1.0], "[-inf  nan]")):
        dp = as_pair(pt, np.array(row))
        with np.errstate(all="ignore"):
            error = raised(dirac_member_poisson, A, U, dp, 1e-8)
            assert error == (NonFinite, f"components must be finite, got {text}")
            assert raised(omega_sharp, A, dp.alpha) == error


def test_a_rank_deficient_constant_span_raises_on_every_use():
    # built without complaint, refused at the x of each use
    A = LieAlgebroid(1, 2, [["1", "0"]], {(0, 0, 1): "x1"})
    U = Subbundle(A, 2, [["1", "2"], ["1", "2"]])
    assert U.constant
    for x in (0.3, -0.7, 0.3):
        pt = DualPoint([x], [1.0, -0.5])
        dp = as_pair(pt, np.arange(8.0))
        message = f"span has numerical rank 1, expected 2 at x=[{x}]"
        for use in (lambda: U.span_at(pt.base), lambda: dirac_generators(A, U, pt),
                    lambda: dirac_member_symplectic(A, U, dp), lambda: dirac_member_poisson(A, U, dp)):
            assert raised(use) == (RankDeficient, message)
