import warnings

import numpy as np
import pytest

from algmech.algebroid import DualPoint, LieAlgebroid, Subbundle
from algmech.dirac import (
    DiracPair,
    check_self_orthogonal,
    dirac_generators,
    dirac_member_poisson,
    dirac_member_symplectic,
    lift_subbundle,
)
from algmech.models import SO3_STRUCTURE, get_model
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
