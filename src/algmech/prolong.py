"""Prolongation bundles over E and E* in canonical coordinates, the
symplectic musical maps between them, the Legendre transform, the Dirac
differential of a Lagrangian, and the two energy functions.

Vectors on the prolongation over E* carry coordinates (x, p; z, u);
covectors carry (x, p; r, v).  Vectors/covectors on the prolongation
over E carry (x, y; s, w), and every component is checked finite when a
vector or covector is constructed.  All maps below are the pinned local forms;
the only contract tying the sign conventions together is the exact
composition identity  gamma_E = omega_flat ∘ A_E_inverse.  The maps run
on Python floats and check each computed component list once.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

from . import expr
from .algebroid import (
    DualPoint,
    FiberPoint,
    LieAlgebroid,
    _Carrier,
    _as_expression,
    _finite_vector,
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


class _Prolonged(_Carrier):
    """A point and two component arrays, named by ``_fields``, each checked."""

    def __init__(self, base, first, second):
        d, (f1, f2) = self.__dict__, self._fields
        d["base"] = base
        d[f1] = _finite_vector(first, "components")
        d[f2] = _finite_vector(second, "components")


class ProlongVector(_Prolonged):
    _fields = ("z", "u")


class ProlongCovector(_Prolonged):
    _fields = ("r", "v")


class TEEVector(_Prolonged):
    _fields = ("s", "w")


class TEECovector(_Prolonged):
    _fields = ("sbar", "wbar")


def pair(alpha: ProlongCovector, X: ProlongVector) -> float:
    """Duality pairing ⟨(r, v), (z, u)⟩ = r·z + v·u."""
    return float(alpha.r @ X.z + alpha.v @ X.u)


def _checked(v: list) -> np.ndarray:
    """A computed float list as an array, refused as a carrier refuses it."""
    return np.array(v) if all(map(math.isfinite, v)) else _finite_vector(v, "components")


def omega_flat(A: LieAlgebroid, X: ProlongVector) -> ProlongCovector:
    """Lower an index with the canonical symplectic 2-section:
    r = -u - (C·p) z,  v = z."""
    (w,) = A.cp_dot(X.base, [X.z.tolist()])
    r = _checked([-a - b for a, b in zip(X.u.tolist(), w)])
    return ProlongCovector._trusted(base=X.base, r=r, v=X.z)


def omega_sharp(A: LieAlgebroid, alpha: ProlongCovector) -> ProlongVector:
    """Exact inverse of :func:`omega_flat`: z = v,  u = -r - (C·p) v."""
    (w,) = A.cp_dot(alpha.base, [alpha.v.tolist()])
    u = _checked([-a - b for a, b in zip(alpha.r.tolist(), w)])
    return ProlongVector._trusted(base=alpha.base, z=alpha.v, u=u)


def symplectic_matrix(A: LieAlgebroid, pt: DualPoint) -> np.ndarray:
    """Gram matrix of the symplectic 2-section in the canonical basis,
    block form [[C·p, I], [-I, 0]]; the covector of X is Xᵀ·M."""
    n = A.n
    Cp = contract(A.structure_at(pt.base), pt.p)
    return np.block([[Cp, np.eye(n)], [-np.eye(n), np.zeros((n, n))]])


def liouville(A: LieAlgebroid, pt: DualPoint) -> ProlongCovector:
    """Liouville 1-section: r = p, v = 0."""
    return ProlongCovector(pt, pt.p, np.zeros(A.n))


def euler_and_S(A: LieAlgebroid, X: TEEVector):
    """Euler section at the base of X and the vertical endomorphism
    applied to X: Delta = (0, y), S X = (0, s)."""
    zero = np.zeros(A.n)
    return TEEVector(X.base, zero, X.base.y), TEEVector(X.base, zero, X.s)


class Lagrangian:
    """Lagrangian function on E, an expression in the base and fiber
    coordinates, with cached second-order jets."""

    def __init__(self, algebroid: LieAlgebroid, L):
        self.algebroid = algebroid
        self.L = _as_expression(L)
        self._names = base_names(algebroid.m) + fiber_names(algebroid.n)
        self._jet = expr.compile_jet2(self.L, self._names)
        self._fields = {}  # the emitted RK4 field and midpoint step per rank of U, see dynamics

    def jet(self, e):
        """(L, Lx, Ly, Lxx, Lxy, Lyy) as arrays at a FiberPoint e, via exact
        forward jets.  At a list of the floats of (x, y) in ``_names`` order,
        the floats of :meth:`_flat` instead: the checked flat (L, gradient,
        packed upper-triangle Hessian)."""
        if isinstance(e, list):
            return self._flat(e)
        v, g, h = self._jet(dict(zip(self._names, [*e.x.tolist(), *e.y.tolist()])))
        m = self.algebroid.m
        return v, g[:m], g[m:], h[:m, :m], h[:m, m:], h[m:, m:]

    def _flat(self, values: list) -> tuple:
        """The checked flat (L, gradient, packed Hessian) at the floats of
        (x, y) in order."""
        return self._jet.checked(dict(zip(self._names, values)))


def legendre(Lg: Lagrangian, e: FiberPoint) -> DualPoint:
    """Legendre transform: (x, y) -> (x, ∂L/∂y)."""
    _, _, Ly, _, _, _ = Lg.jet(e)
    return DualPoint(e.x, Ly)


def A_E_map(A: LieAlgebroid, X: ProlongVector) -> TEECovector:
    """(x, p; z, u) -> (x, z; u + (C·p) z, p)."""
    (w,) = A.cp_dot(X.base, [X.z.tolist()])
    sbar = _checked([a + b for a, b in zip(X.u.tolist(), w)])
    e = FiberPoint._trusted(x=X.base.x, y=X.z)
    return TEECovector._trusted(base=e, sbar=sbar, wbar=X.base.p)


def A_E_inverse(A: LieAlgebroid, omega: TEECovector) -> ProlongVector:
    """Exact inverse of :func:`A_E_map`."""
    base = DualPoint._trusted(x=omega.base.x, p=omega.wbar)
    z = omega.base.y
    (w,) = A.cp_dot(base, [z.tolist()])
    u = _checked([a - b for a, b in zip(omega.sbar.tolist(), w)])
    return ProlongVector._trusted(base=base, z=z, u=u)


def gamma_E_map(A: LieAlgebroid, omega: TEECovector) -> ProlongCovector:
    """(x, y; s, w) -> (x, w; -s, y); equals omega_flat ∘ A_E_inverse."""
    base = DualPoint._trusted(x=omega.base.x, p=omega.wbar)
    return ProlongCovector._trusted(base=base, r=-omega.sbar, v=omega.base.y)


def _anchored(Lg: Lagrangian, e: FiberPoint):
    """(ρᵀ ∂L/∂x as a float list, ∂L/∂y) at e, from the float gradient of
    one jet call, which checks it finite."""
    x, m, n = e.x.tolist(), Lg.algebroid.m, Lg.algebroid.n
    g, rho = Lg._flat([*x, *e.y.tolist()])[1], Lg.algebroid.anchor_at(x)
    return [sum(map(mul, rho[a::n], g[:m]), 0.0) for a in range(n)], np.array(g[m:])


def d_TEE_L(Lg: Lagrangian, e: FiberPoint) -> TEECovector:
    """Differential of L on the prolongation over E:
    (x, y; ρᵀ ∂L/∂x, ∂L/∂y)."""
    s, Ly = _anchored(Lg, e)
    return TEECovector._trusted(base=e, sbar=_checked(s), wbar=Ly)


def dirac_differential(Lg: Lagrangian, e: FiberPoint) -> ProlongCovector:
    """Dirac differential of L: (x, ∂L/∂y; -ρᵀ ∂L/∂x, y)."""
    s, Ly = _anchored(Lg, e)
    base = DualPoint._trusted(x=e.x, p=Ly)
    return ProlongCovector._trusted(base=base, r=_checked([-a for a in s]), v=e.y)


def energies(Lg: Lagrangian, e: FiberPoint, p=None):
    """(epsilon_L, E_L) with epsilon_L = y·∂L/∂y - L and E_L = p·y - L;
    p defaults to the Legendre image, making the two coincide."""
    v, _, Ly, _, _, _ = Lg.jet(e)
    eps = float(e.y @ Ly - v)
    if p is None:
        p = Ly
    EL = float(np.asarray(p, dtype=float) @ e.y - v)
    return eps, EL
