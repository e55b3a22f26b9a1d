"""Prolongation bundles over E and E* in canonical coordinates, the
symplectic musical maps between them, the Legendre transform, the Dirac
differential of a Lagrangian, and the two energy functions.

Vectors on the prolongation over E* carry coordinates (x, p; z, u);
covectors carry (x, p; r, v).  Vectors/covectors on the prolongation
over E carry (x, y; s, w), and every component is checked finite when a
vector or covector is constructed.  All maps below are the pinned local forms;
the only contract tying the sign conventions together is the exact
composition identity  gamma_E = omega_flat ∘ A_E_inverse.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expr
from .algebroid import (
    DualPoint,
    FiberPoint,
    LieAlgebroid,
    _finite_vector,
    _from_checked,
    base_names,
    contract,
    fiber_names,
)

__all__ = [
    "ProlongVector",
    "ProlongCovector",
    "TEEVector",
    "TEECovector",
    "Lagrangian",
    "omega_flat",
    "omega_sharp",
    "symplectic_matrix",
    "liouville",
    "euler_and_S",
    "legendre",
    "A_E_map",
    "A_E_inverse",
    "gamma_E_map",
    "d_TEE_L",
    "dirac_differential",
    "energies",
    "pair",
]


@dataclass(frozen=True, eq=False)
class ProlongVector:
    base: DualPoint
    z: np.ndarray
    u: np.ndarray

    def __init__(self, base, z, u):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "z", _finite_vector(z, "components"))
        object.__setattr__(self, "u", _finite_vector(u, "components"))


@dataclass(frozen=True, eq=False)
class ProlongCovector:
    base: DualPoint
    r: np.ndarray
    v: np.ndarray

    def __init__(self, base, r, v):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "r", _finite_vector(r, "components"))
        object.__setattr__(self, "v", _finite_vector(v, "components"))


@dataclass(frozen=True, eq=False)
class TEEVector:
    base: FiberPoint
    s: np.ndarray
    w: np.ndarray

    def __init__(self, base, s, w):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "s", _finite_vector(s, "components"))
        object.__setattr__(self, "w", _finite_vector(w, "components"))


@dataclass(frozen=True, eq=False)
class TEECovector:
    base: FiberPoint
    sbar: np.ndarray
    wbar: np.ndarray

    def __init__(self, base, sbar, wbar):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "sbar", _finite_vector(sbar, "components"))
        object.__setattr__(self, "wbar", _finite_vector(wbar, "components"))


def pair(alpha: ProlongCovector, X: ProlongVector) -> float:
    """Duality pairing ⟨(r, v), (z, u)⟩ = r·z + v·u."""
    return float(alpha.r @ X.z + alpha.v @ X.u)


def omega_flat(A: LieAlgebroid, X: ProlongVector) -> ProlongCovector:
    """Lower an index with the canonical symplectic 2-section:
    r = -u - (C·p) z,  v = z."""
    Cp = contract(A.structure_at(X.base.base), X.base.p)
    return ProlongCovector(X.base, -X.u - Cp @ X.z, X.z)


def omega_sharp(A: LieAlgebroid, alpha: ProlongCovector) -> ProlongVector:
    """Exact inverse of :func:`omega_flat`: z = v,  u = -r - (C·p) v."""
    Cp = contract(A.structure_at(alpha.base.base), alpha.base.p)
    return ProlongVector(alpha.base, alpha.v, -alpha.r - Cp @ alpha.v)


def symplectic_matrix(A: LieAlgebroid, pt: DualPoint) -> np.ndarray:
    """Gram matrix of the symplectic 2-section in the canonical basis,
    block form [[C·p, I], [-I, 0]]; the covector of X is Xᵀ·M."""
    n = A.n
    Cp = contract(A.structure_at(pt.base), pt.p)
    M = np.zeros((2 * n, 2 * n))
    M[:n, :n] = Cp
    M[:n, n:] = np.eye(n)
    M[n:, :n] = -np.eye(n)
    return M


def liouville(A: LieAlgebroid, pt: DualPoint) -> ProlongCovector:
    """Liouville 1-section: r = p, v = 0."""
    return ProlongCovector(pt, pt.p, np.zeros(A.n))


def euler_and_S(A: LieAlgebroid, X: TEEVector):
    """Euler section at the base of X and the vertical endomorphism
    applied to X: Delta = (0, y), S X = (0, s)."""
    zero = np.zeros(A.n)
    delta = TEEVector(X.base, zero, X.base.y)
    SX = TEEVector(X.base, zero, X.s)
    return delta, SX


class Lagrangian:
    """Lagrangian function on E, an expression in the base and fiber
    coordinates, with cached second-order jets."""

    def __init__(self, algebroid: LieAlgebroid, L):
        self.algebroid = algebroid
        self.L = expr.parse(L) if isinstance(L, str) else L
        m, n = algebroid.m, algebroid.n
        self._names = base_names(m) + fiber_names(n)
        self._jet = expr.compile_jet2(self.L, self._names)

    def value(self, e: FiberPoint) -> float:
        return expr.evaluate(self.L, dict(zip(self._names, [*e.x.tolist(), *e.y.tolist()])))

    def jet(self, e: FiberPoint):
        """(L, Lx, Ly, Lxx, Lxy, Lyy) at e, via exact forward jets."""
        v, g, h = self._jet(dict(zip(self._names, [*e.x.tolist(), *e.y.tolist()])))
        m = self.algebroid.m
        return v, g[:m], g[m:], h[:m, :m], h[:m, m:], h[m:, m:]


def legendre(Lg: Lagrangian, e: FiberPoint) -> DualPoint:
    """Legendre transform: (x, y) -> (x, ∂L/∂y)."""
    _, _, Ly, _, _, _ = Lg.jet(e)
    return DualPoint(e.x, Ly)


def A_E_map(A: LieAlgebroid, X: ProlongVector) -> TEECovector:
    """(x, p; z, u) -> (x, z; u + (C·p) z, p)."""
    Cp = contract(A.structure_at(X.base.base), X.base.p)
    e = _from_checked(FiberPoint, x=X.base.x, y=X.z)
    return TEECovector(e, X.u + Cp @ X.z, X.base.p)


def A_E_inverse(A: LieAlgebroid, omega: TEECovector) -> ProlongVector:
    """Exact inverse of :func:`A_E_map`."""
    base = _from_checked(DualPoint, x=omega.base.x, p=omega.wbar)
    Cp = contract(A.structure_at(base.base), base.p)
    z = omega.base.y
    return ProlongVector(base, z, omega.sbar - Cp @ z)


def gamma_E_map(A: LieAlgebroid, omega: TEECovector) -> ProlongCovector:
    """(x, y; s, w) -> (x, w; -s, y); equals omega_flat ∘ A_E_inverse."""
    base = _from_checked(DualPoint, x=omega.base.x, p=omega.wbar)
    return ProlongCovector(base, -omega.sbar, omega.base.y)


def d_TEE_L(Lg: Lagrangian, e: FiberPoint) -> TEECovector:
    """Differential of L on the prolongation over E:
    (x, y; ρᵀ ∂L/∂x, ∂L/∂y)."""
    A = Lg.algebroid
    _, Lx, Ly, _, _, _ = Lg.jet(e)
    rho = A.anchor_at(e.base)
    return TEECovector(e, rho.T @ Lx, Ly)


def dirac_differential(Lg: Lagrangian, e: FiberPoint) -> ProlongCovector:
    """Dirac differential of L: (x, ∂L/∂y; -ρᵀ ∂L/∂x, y)."""
    A = Lg.algebroid
    _, Lx, Ly, _, _, _ = Lg.jet(e)
    rho = A.anchor_at(e.base)
    return ProlongCovector(DualPoint(e.x, Ly), -(rho.T @ Lx), e.y)


def energies(Lg: Lagrangian, e: FiberPoint, p=None):
    """(epsilon_L, E_L) with epsilon_L = y·∂L/∂y - L and E_L = p·y - L;
    p defaults to the Legendre image, making the two coincide."""
    v, _, Ly, _, _, _ = Lg.jet(e)
    eps = float(e.y @ Ly - v)
    if p is None:
        p = Ly
    EL = float(np.asarray(p, dtype=float) @ e.y - v)
    return eps, EL
