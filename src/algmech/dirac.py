"""Induced almost Dirac structures on the prolongation over E*.

Given a constant-rank subbundle U of the fiber, the structure is the set
of pairs (X, alpha) = ((z, u), (r, v)) over a dual point (x, p) with

    z in U(x),    v = z,    r + u + (C·p) z  in  U°(x).

Membership can equivalently be tested through the fiberwise linear
Poisson map (the dual construction); both tests are provided and agree,
pair by pair or for a stack of candidate rows in one pass.  Generators
are built pointwise from an orthonormal frame adapted to U(x), giving 2n
pairs that span the structure and pair to zero.
"""

from __future__ import annotations

import functools

import numpy as np

from .algebroid import DualPoint, LieAlgebroid, Subbundle, _Record
from .algebroid import _distances, _norms, _passes, _scaled_bound
from .errors import AlgmechError
from .prolong import ProlongCovector, ProlongVector, _checked, omega_sharp

__all__ = [
    "DiracPair",
    "DiracBasis",
    "MembershipReport",
    "lift_subbundle",
    "dirac_member_symplectic",
    "dirac_member_poisson",
    "dirac_members",
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
    """Generators over a base point.  One from :func:`dirac_generators` holds
    their read-only matrix beside its fields and makes them when first read."""

    _fields = ("base", "generators")

    def __reduce__(self):  # a copy or pickle is the basis over the same pairs
        return DiracBasis, (self.base, self.generators)

    @functools.cached_property
    def generators(self) -> tuple:
        """One pair over ``base`` per row (z, u, r, v) of the held matrix, as views of the row."""
        pt, vector, covector = self.base, ProlongVector._trusted, ProlongCovector._trusted
        return tuple(DiracPair._trusted(X=vector(base=pt, z=z, u=u),
                                        alpha=covector(base=pt, r=r, v=v))
                     for z, u, r, v in zip(*np.split(self._matrix, 4, axis=1)))

    def matrix(self) -> np.ndarray:
        """Generators stacked as rows of a (2n, 4n) matrix: the held one,
        read-only, or one built from the generators."""
        M = getattr(self, "_matrix", None)
        return np.array([g.coordinates() for g in self.generators]) if M is None else M


class MembershipReport(_Record):
    _fields = ("member", "span_residual", "anchor_residual", "annihilator_residual")


def lift_subbundle(A: LieAlgebroid, U: Subbundle, pt: DualPoint):
    """Basis of the lift of U to the prolongation: the span columns in
    the z-slot plus every momentum coordinate direction in the u-slot."""
    S = U.span_at(pt.base)  # finite and of rank r: span_at checks both
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
    span_res = U.member_distance(x, in_U)
    anchor_res = max([abs(a - b) for a, b in zip(v, z)], default=0.0)
    ann_res = U.annihilator_residual(x, ann)
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


def dirac_members(
    A: LieAlgebroid, U: Subbundle, points, rows, at, tol: float = 1e-9
) -> tuple:
    """The symplectic and the Poisson verdict of N candidate pairs in one
    stacked pass: row k of ``rows`` (N, 4n) holds the (z, u, r, v) of a
    pair at the dual point ``points[at[k]]``.  Returns two boolean arrays,
    row by row the ``member`` of :func:`dirac_member_symplectic` and of
    :func:`dirac_member_poisson` on those pairs, which raise as these do.

    Each point's data is evaluated once, in the order of first use, and
    U's rank is checked there; a point whose data fails to evaluate or
    whose U loses rank raises at its first row, after the rows before
    it.  (C·p) z is summed over the
    bracket table in ``cp_dot``'s order, so r + u + (C·p) z and
    u - (-r - (C·p) v) are the per-pair floats.  A row whose residual,
    bound or u-slot of ♯(alpha) is not finite is decided by the per-pair
    tests, which hold the overflow and scaling rules."""
    n = A.n
    rows = np.asarray(rows, dtype=float).reshape(-1, 4 * n)
    ats = np.asarray(at, dtype=np.intp).tolist()
    data, cut = {}, len(rows)  # (p, C, S, Q) of each point used, in order of first use
    for j in dict.fromkeys(ats):
        pt = points[j]
        try:
            data[j] = (pt.p, A.structure_at(pt.x.tolist()), *U._frames(pt.base)[:2])
        except AlgmechError:
            cut = ats.index(j)
            break
    sym, poi = np.zeros(len(rows), dtype=bool), np.zeros(len(rows), dtype=bool)
    redo = []
    if cut:
        slot = {j: i for i, j in enumerate(data)}
        ix = [slot[j] for j in ats[:cut]]
        P, C, S, Q = (np.array(column)[ix] for column in zip(*data.values()))
        sym_res, poi_res, bound, ok = _stacked_residuals(A, rows[:cut], P, C, S, Q, tol)
        sym[:cut], poi[:cut] = (sym_res <= bound).all(axis=0), (poi_res <= bound).all(axis=0)
        redo = np.flatnonzero(~ok).tolist()
    if cut < len(rows):
        redo.append(cut)  # the per-pair tests raise the point's error at this row
    for k in redo:
        pt, (z, u, r, v) = points[ats[k]], np.split(rows[k], 4)
        dpair = DiracPair(ProlongVector(pt, z, u), ProlongCovector(pt, r, v))
        sym[k] = dirac_member_symplectic(A, U, dpair, tol).member
        poi[k] = dirac_member_poisson(A, U, dpair, tol).member
    return sym, poi


@np.errstate(over="ignore", invalid="ignore")
def _stacked_residuals(A: LieAlgebroid, rows, P, C, S, Q, tol) -> tuple:
    """The residuals of :func:`_verdict` for each row (z, u, r, v) of
    ``rows``, given the row's momenta P, flat structure array C, span S
    and orthonormal frame Q of U: (span, anchor, annihilator) of the
    symplectic and of the Poisson test as two (3, N) arrays, the bound
    tol·(1 + |(z, u, r, v)|), and whether all of these and the u-slot
    -r - (C·p) v of ♯(alpha) are finite."""
    Z, Uu, R, V = np.split(rows, 4, axis=1)
    uY = -R - _cp_rows(A, P, C, V)

    def pairings(X):  # largest pairing of each row of X with the span, nan kept
        return np.abs((X[:, None, :] @ S)[:, 0]).max(axis=1, initial=0.0)

    anchor = np.abs(V - Z).max(axis=1, initial=0.0)
    sym = np.array([_distances(Q, Z), anchor, pairings(R + Uu + _cp_rows(A, P, C, Z))])
    poi = np.array([_distances(Q, V), anchor, pairings(Uu - uY)])
    bound = tol * (1.0 + _norms(rows))
    ok = np.isfinite(sym).all(axis=0) & np.isfinite(poi).all(axis=0)
    ok &= np.isfinite(bound) & np.isfinite(uY).all(axis=1)
    return sym, poi, bound, ok


def _cp_rows(A: LieAlgebroid, P, C, Z) -> np.ndarray:
    """(C·p) z for each row z of Z, given the row's momenta P and flat
    structure array C: ``cp_dot``'s sum over the bracket table, run on
    columns, so that each row is the floats ``cp_dot`` gives."""
    W = np.zeros(Z.shape[::-1])
    for a, b, g, k in A._bracket:
        W[a] += P[:, g] * C[:, k] * Z[:, b]
    return W.T


def dirac_generators(A: LieAlgebroid, U: Subbundle, pt: DualPoint) -> DiracBasis:
    """2n generating pairs of the structure at ``pt``, held as the rows
    (z, u, r, v) of a read-only (2n, 4n) matrix, ``matrix()``: one pair
    (q, 0, -(C·p) q, q) per orthonormal U direction q, one (0, e, -e, 0)
    per momentum direction and one pure annihilator covector (0, 0, c, 0)
    per complementary direction c.

    Only -(C·p) q is checked finite: it is the one row built from the
    point's momenta; the others are zeros, unit rows or frame columns."""
    n = A.n
    _, Q, Qc, _ = U._frames(pt.base)
    r = Q.shape[1]
    M = np.zeros((2 * n, 4 * n))
    for i, w in enumerate(A.cp_dot(pt, Q.T.tolist())):
        M[i, 2 * n : 3 * n] = _checked([-t for t in w])
    M[:r, :n] = M[:r, 3 * n :] = Q.T
    M[r : r + n] = _momentum_rows(n)
    M[r + n :, 2 * n : 3 * n] = Qc.T
    M.flags.writeable = False
    return DiracBasis._trusted(base=pt, _matrix=M)


@functools.cache
def _momentum_rows(n: int) -> np.ndarray:
    """The n generator rows (0, e, -e, 0), made once per n and only read."""
    M = np.zeros((n, 4 * n))
    M[:, n : 2 * n], M[:, 2 * n : 3 * n] = np.eye(n), -np.eye(n)
    return M


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
