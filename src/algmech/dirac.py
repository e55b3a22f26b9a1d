"""Induced almost Dirac structures on the prolongation over E*.

Given a constant-rank subbundle U of the fiber, the structure is the set
of pairs (X, alpha) = ((z, u), (r, v)) over a dual point (x, p) with

    z in U(x),    v = z,    r + u + (C·p) z  in  U°(x).

Membership can equivalently be tested through the fiberwise linear
Poisson map (the dual construction); both tests are provided and agree.
Generators are built pointwise from an orthonormal frame adapted to
U(x), giving 2n pairs that span the structure and pair to zero.
"""

from __future__ import annotations

import numpy as np

from .algebroid import DEFAULT_RANK_TOL, DualPoint, LieAlgebroid, Subbundle, _Record
from .algebroid import _passes, _scaled_bound
from .prolong import ProlongCovector, ProlongVector, _checked, omega_sharp

__all__ = [
    "DiracPair",
    "DiracBasis",
    "MembershipReport",
    "lift_subbundle",
    "dirac_member_symplectic",
    "dirac_member_poisson",
    "dirac_generators",
    "check_self_orthogonal",
]


class DiracPair(_Record):
    _fields = ("X", "alpha")

    def __init__(self, X: ProlongVector, alpha: ProlongCovector):
        bx, ba = X.base, alpha.base
        if bx is not ba and not (np.array_equal(bx.x, ba.x) and np.array_equal(bx.p, ba.p)):
            raise ValueError("vector and covector must share a base point")
        super().__init__(X, alpha)

    def coordinates(self) -> np.ndarray:
        """Flat (z, u, r, v) coordinates in R^{4n}."""
        return np.concatenate([self.X.z, self.X.u, self.alpha.r, self.alpha.v])


class DiracBasis(_Record):
    _fields = ("base", "generators")

    def matrix(self) -> np.ndarray:
        """Generators stacked as rows of a (2n, 4n) matrix."""
        return np.array([g.coordinates() for g in self.generators])


class MembershipReport(_Record):
    _fields = ("member", "span_residual", "anchor_residual", "annihilator_residual")


def lift_subbundle(A: LieAlgebroid, U: Subbundle, pt: DualPoint):
    """Basis of the lift of U to the prolongation: the span columns in
    the z-slot plus every momentum coordinate direction in the u-slot."""
    S = U.span_at(pt.base)  # finite: span entries are evaluated with a check
    zero, vector = np.zeros(A.n), ProlongVector._trusted
    return [vector(base=pt, z=s, u=zero) for s in S.T] + [
        vector(base=pt, z=zero, u=e) for e in np.eye(A.n)
    ]


def _verdict(U: Subbundle, dpair: DiracPair, tol, in_U, ann: list) -> MembershipReport:
    """The report of a membership test: the distance of ``in_U`` from U,
    the largest |v - z| and the largest pairing of ``ann`` with U, each
    compared with tol scaled by 1 + |(z, u, r, v)|; one that is not
    finite fails, and where that bound overflowed all are compared
    after dividing by the largest entry of (z, u, r, v)."""
    X, alpha = dpair.X, dpair.alpha
    x = X.base.base
    z, v = X.z.tolist(), alpha.v.tolist()
    span_res = U.member_distance(x, in_U, tol)
    anchor_res = max([abs(a - b) for a, b in zip(v, z)], default=0.0)
    ann_res = U.annihilator_residual(x, ann, tol)
    s, bound = _scaled_bound(tol, [*z, *X.u.tolist(), *alpha.r.tolist(), *v])
    ok = (_passes(span_res / s, bound) and _passes(anchor_res / s, bound)
          and _passes(ann_res / s, bound))
    return MembershipReport(ok, span_res, anchor_res, ann_res)


def dirac_member_symplectic(
    A: LieAlgebroid, U: Subbundle, dpair: DiracPair, tol: float = 1e-9
) -> MembershipReport:
    """Test membership via the symplectic characterization, reporting
    the three defects (z outside U, v != z, pairing with U) separately."""
    X, alpha = dpair.X, dpair.alpha
    (w,) = A.cp_dot(X.base, [X.z.tolist()])
    xi = [a + b + c for a, b, c in zip(alpha.r.tolist(), X.u.tolist(), w)]
    return _verdict(U, dpair, tol, X.z, xi)


def dirac_member_poisson(
    A: LieAlgebroid, U: Subbundle, dpair: DiracPair, tol: float = 1e-9
) -> MembershipReport:
    """Test membership via the fiberwise Poisson map: the covector's
    v-slot must lie in U and X - ♯(alpha) must annihilate the lift."""
    Y = omega_sharp(A, dpair.alpha)  # Y.z is v, so X.z - Y.z is the anchor defect
    du = [a - b for a, b in zip(dpair.X.u.tolist(), Y.u.tolist())]
    return _verdict(U, dpair, tol, dpair.alpha.v, du)


def dirac_generators(A: LieAlgebroid, U: Subbundle, pt: DualPoint) -> DiracBasis:
    """2n generating pairs of the structure at ``pt``: one pair per
    orthonormal U direction, one per momentum direction, and one pure
    annihilator covector per complementary direction.

    Only -(C·p) q is checked finite: it is the one row built from the
    point's momenta; the others are zeros, unit rows or frame columns."""
    zero = np.zeros(A.n)
    _, Q, Qc = U._frames(pt.base, DEFAULT_RANK_TOL)

    def gen(z, u, r, v):
        vector = ProlongVector._trusted(base=pt, z=z, u=u)
        return DiracPair(vector, ProlongCovector._trusted(base=pt, r=r, v=v))

    rows = A.cp_dot(pt, Q.T.tolist())
    gens = [gen(q, zero, _checked([-t for t in w]), q) for q, w in zip(Q.T, rows)]
    gens += [gen(zero, e, -e, zero) for e in np.eye(A.n)]
    gens += [gen(zero, zero, c, zero) for c in Qc.T]
    return DiracBasis(pt, tuple(gens))


def check_self_orthogonal(basis: DiracBasis) -> float:
    """Largest symmetrized pairing |alpha_i(X_j) + alpha_j(X_i)| over
    all generator pairs; zero certifies isotropy of the span.  With the
    generators as rows (z, u, r, v) of M, alpha_i(X_j) is P[i, j] for
    P = M[:, 2n:] @ M[:, :2n]ᵀ."""
    M = basis.matrix()
    if not M.size:
        return 0.0
    k = M.shape[1] // 2
    P = M[:, k:] @ M[:, :k].T
    return float(np.abs(P + P.T).max())
