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

from dataclasses import dataclass

import numpy as np

from .algebroid import DualPoint, LieAlgebroid, Subbundle, contract
from .prolong import ProlongCovector, ProlongVector, omega_sharp, pair

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


@dataclass(frozen=True, eq=False)
class DiracPair:
    X: ProlongVector
    alpha: ProlongCovector

    def __post_init__(self):
        bx, ba = self.X.base, self.alpha.base
        if bx is not ba and not (np.array_equal(bx.x, ba.x) and np.array_equal(bx.p, ba.p)):
            raise ValueError("vector and covector must share a base point")

    def coordinates(self) -> np.ndarray:
        """Flat (z, u, r, v) coordinates in R^{4n}."""
        return np.concatenate([self.X.z, self.X.u, self.alpha.r, self.alpha.v])


@dataclass(frozen=True, eq=False)
class DiracBasis:
    base: DualPoint
    generators: tuple

    def matrix(self) -> np.ndarray:
        """Generators stacked as rows of a (2n, 4n) matrix."""
        return np.array([g.coordinates() for g in self.generators])


@dataclass(frozen=True)
class MembershipReport:
    member: bool
    span_residual: float
    anchor_residual: float
    annihilator_residual: float


def lift_subbundle(A: LieAlgebroid, U: Subbundle, pt: DualPoint):
    """Basis of the lift of U to the prolongation: the span columns in
    the z-slot plus every momentum coordinate direction in the u-slot."""
    n = A.n
    S = U.span_at(pt.base)  # finite: span entries are evaluated with a check
    zero, eye = np.zeros(n), np.eye(n)
    out = [ProlongVector._trusted(base=pt, z=S[:, a], u=zero) for a in range(U.r)]
    out += [ProlongVector._trusted(base=pt, z=zero, u=eye[a]) for a in range(n)]
    return out


def _verdict(dpair, tol, span_res, anchor_res, ann_res) -> MembershipReport:
    """The report of both membership tests: each defect is compared with
    tol scaled by 1 + |coordinates of the pair|."""
    scale = 1.0 + float(np.linalg.norm(dpair.coordinates()))
    ok = max(span_res, anchor_res, ann_res) <= tol * scale
    return MembershipReport(ok, span_res, anchor_res, ann_res)


def dirac_member_symplectic(
    A: LieAlgebroid, U: Subbundle, dpair: DiracPair, tol: float = 1e-9
) -> MembershipReport:
    """Test membership via the symplectic characterization, reporting
    the three defects (z outside U, v != z, pairing with U) separately."""
    X, alpha = dpair.X, dpair.alpha
    x = X.base.base
    span_res = U.member_distance(x, X.z, tol)
    anchor_res = float(np.abs(alpha.v - X.z).max()) if A.n else 0.0
    xi = alpha.r + X.u + contract(A.structure_at(x), X.base.p) @ X.z
    ann_res = U.annihilator_residual(x, xi, tol)
    return _verdict(dpair, tol, span_res, anchor_res, ann_res)


def dirac_member_poisson(
    A: LieAlgebroid, U: Subbundle, dpair: DiracPair, tol: float = 1e-9
) -> MembershipReport:
    """Test membership via the fiberwise Poisson map: the covector's
    v-slot must lie in U and X - ♯(alpha) must annihilate the lift."""
    X, alpha = dpair.X, dpair.alpha
    x = X.base.base
    span_res = U.member_distance(x, alpha.v, tol)
    Y = omega_sharp(A, alpha)
    dz = X.z - Y.z
    du = X.u - Y.u
    anchor_res = float(np.abs(dz).max()) if A.n else 0.0
    ann_res = U.annihilator_residual(x, du, tol)
    return _verdict(dpair, tol, span_res, anchor_res, ann_res)


def dirac_generators(A: LieAlgebroid, U: Subbundle, pt: DualPoint) -> DiracBasis:
    """2n generating pairs of the structure at ``pt``: one pair per
    orthonormal U direction, one per momentum direction, and one pure
    annihilator covector per complementary direction.

    Only -(C·p) q is checked finite: it is the one row built from the
    point's momenta; the others are zeros, unit rows or frame columns."""
    n = A.n
    frame = U.completion(pt.base)
    Q, Qc = frame[:, : U.r], frame[:, U.r :]
    Cp = contract(A.structure_at(pt.base), pt.p)
    eye = np.eye(n)
    zero = np.zeros(n)
    vector, covector = ProlongVector._trusted, ProlongCovector._trusted
    gens = []
    for a in range(U.r):
        q = Q[:, a]
        gens.append(
            DiracPair(vector(base=pt, z=q, u=zero), ProlongCovector(pt, -(Cp @ q), q))
        )
    for b in range(n):
        gens.append(
            DiracPair(
                vector(base=pt, z=zero, u=eye[b]), covector(base=pt, r=-eye[b], v=zero)
            )
        )
    for c in range(n - U.r):
        gens.append(
            DiracPair(
                vector(base=pt, z=zero, u=zero), covector(base=pt, r=Qc[:, c], v=zero)
            )
        )
    return DiracBasis(pt, tuple(gens))


def check_self_orthogonal(basis: DiracBasis) -> float:
    """Largest symmetrized pairing |alpha_i(X_j) + alpha_j(X_i)| over
    all generator pairs; zero certifies isotropy of the span."""
    gens = basis.generators
    worst = 0.0
    for i, gi in enumerate(gens):
        for gj in gens[i:]:
            worst = max(
                worst, abs(pair(gi.alpha, gj.X) + pair(gj.alpha, gi.X))
            )
    return worst
