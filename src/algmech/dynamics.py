"""Constrained implicit dynamics of a Lagrangian on a Lie algebroid with
a velocity subbundle U: pointwise residual evaluation, an explicit
fourth-order integrator on the adapted reduction, an implicit midpoint
integrator that carries the momentum constraint (Newton's method with the
exact Jacobian and a halving line search), and energy monitoring.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

from . import expr
from .algebroid import (
    BasePoint,
    FiberPoint,
    LieAlgebroid,
    Subbundle,
    _finite_vector,
    _from_checked,
    base_names,
    contract,
    fiber_names,
)
from .errors import Degenerate, EvaluationFault, NewtonDivergence
from .prolong import Lagrangian, energies  # noqa: F401  (kept as dynamics.energies)

HESSIAN_CONDITION_LIMIT = 1e12
NEWTON_MAX_ITERS = 25

__all__ = [
    "ImplicitSystem",
    "State",
    "Trajectory",
    "ResidualReport",
    "residual",
    "adapted_rhs",
    "integrate",
    "energy_drift",
]


@dataclass(frozen=True)
class ImplicitSystem:
    A: LieAlgebroid
    Lg: Lagrangian
    U: Subbundle

    def __post_init__(self):
        if self.Lg.algebroid is not self.A or self.U.parent is not self.A:
            raise ValueError("Lagrangian and subbundle must share the algebroid")


@dataclass(frozen=True, eq=False)
class State:
    x: np.ndarray
    y: np.ndarray
    p: np.ndarray

    def __init__(self, x, y, p):
        for name, v in (("x", x), ("y", y), ("p", p)):
            a = _finite_vector(v, name, "state component {} must be finite")
            object.__setattr__(self, name, a)

    @classmethod
    def stack(cls, xs, ys, ps) -> tuple:
        """One State per row of ``xs``, ``ys`` and ``ps`` (equally long
        sequences of rows), with one finiteness check per stacked
        component instead of one per state."""
        stacked = []
        for name, rows in (("x", xs), ("y", ys), ("p", ps)):
            a = np.array(rows, dtype=float)
            if not np.isfinite(a).all():
                raise ValueError(f"state component {name} must be finite")
            stacked.append(a)
        return tuple(_from_checked(cls, x=x, y=y, p=p) for x, y, p in zip(*stacked))


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    states: tuple
    h: float
    method: str


@dataclass(frozen=True)
class ResidualReport:
    r_U: float
    r_kin: float
    r_leg: float
    r_mom: float
    passed: bool


def residual(sys: ImplicitSystem, st: State, xdot, pdot, tol: float) -> ResidualReport:
    """Defects of a state with candidate time derivatives against the
    implicit equations: velocity in U, kinematics, Legendre relation and
    the momentum equation paired against the spanning columns of U."""
    A, Lg, U = sys.A, sys.Lg, sys.U
    x = _from_checked(BasePoint, x=st.x)
    xdot = np.asarray(xdot, dtype=float).reshape(-1)
    pdot = np.asarray(pdot, dtype=float).reshape(-1)
    _, Lx, Ly, _, _, _ = Lg.jet(_from_checked(FiberPoint, x=st.x, y=st.y))
    rho = A.anchor_at(x)
    C = A.structure_at(x)
    r_U = U.member_distance(x, st.y)
    kin = xdot - rho @ st.y
    r_kin = float(np.abs(kin).max()) if kin.size else 0.0
    r_leg = float(np.abs(st.p - Ly).max()) if A.n else 0.0
    force = pdot + contract(C, st.p) @ st.y - rho.T @ Lx
    S = U.span_at(x)
    r_mom = float(np.abs(force @ S).max()) if S.size else 0.0
    passed = max(r_U, r_kin, r_leg, r_mom) <= tol
    return ResidualReport(r_U, r_kin, r_leg, r_mom, passed)


class _AdaptedField:
    """Right-hand side of the adapted reduction on Python floats at
    q = (x, ya), the base point followed by the U-components of the
    velocity.  Keeps the raw compiled jet of L, index maps into its packed
    Hessian, the unpacked data of a constant algebroid, and a cached
    inverse of the restricted velocity Hessian, so a single evaluation
    stays cheap inside the integrator loop."""

    def __init__(self, sys: ImplicitSystem):
        if not sys.U.adapted:
            raise ValueError("explicit path needs the subbundle in adapted form")
        self.sys = sys
        A = sys.A
        self.m, self.r = A.m, sys.U.r
        m, r = self.m, self.r
        self._names = base_names(m) + fiber_names(A.n)
        self._pad = [0.0] * (A.n - r)
        self._raw = expr.compile_jet2(sys.Lg.L, self._names).raw
        k = m + A.n

        def tri(j, l):
            if j > l:
                j, l = l, j
            return j * k - j * (j - 1) // 2 + (l - j)

        self._idx_M = [tri(m + a, m + b) for a in range(r) for b in range(r)]
        self._idx_xy = [[tri(i, m + a) for i in range(m)] for a in range(r)]
        self._data = None
        if A.constant:
            origin = BasePoint(np.zeros(m))
            self._data = self._unpack(A.anchor_at(origin), A.structure_at(origin))
        self._inv_key = None
        self._inv = None

    def _unpack(self, rho, C):
        """Anchor restricted to U as rows and as columns, and the nonzero
        bracket constants C^gamma_alpha,beta with alpha, beta < r as
        (alpha, m + beta, gamma, C), the second entry indexing q."""
        m, r = self.m, self.r
        rho_a = rho[:, :r]
        C_abg = C[:, :r, :r].transpose(1, 2, 0)
        terms = [
            (a, m + b, g, c)
            for (a, b, g), c in zip(np.ndindex(C_abg.shape), C_abg.ravel().tolist())
            if c != 0.0
        ]
        return rho_a.tolist(), rho_a.T.tolist(), terms

    def _solve(self, key: tuple, rhs: list) -> list:
        if key != self._inv_key:
            M = np.array(key).reshape(self.r, self.r)
            s = np.linalg.svd(M, compute_uv=False)
            cond = np.inf if s[-1] == 0.0 else s[0] / s[-1]
            if cond >= HESSIAN_CONDITION_LIMIT:
                raise Degenerate(
                    f"restricted velocity Hessian has condition number {cond:.3g}"
                )
            self._inv_key = key
            self._inv = np.linalg.inv(M).tolist()
        return [sum(map(mul, row, rhs)) for row in self._inv]

    def __call__(self, q: list):
        """(qdot, p) as float lists, with p the full Legendre image."""
        m = self.m
        try:
            _, g, h = self._raw(dict(zip(self._names, [*q, *self._pad])))
        except (ZeroDivisionError, ValueError, OverflowError) as exc:
            raise EvaluationFault(str(exc)) from exc
        Lx, Ly = g[:m], g[m:]
        data = self._data
        if data is None:
            bp = BasePoint(q[:m])
            data = self._unpack(self.sys.A.anchor_at(bp), self.sys.A.structure_at(bp))
        rho_a, rho_aT, terms = data
        ya = q[m:]
        xdot = [sum(map(mul, row, ya)) for row in rho_a]
        # momentum equation on U: -C^g_ab p_g y^b + rho^i_a dL/dx^i, less
        # the mixed Hessian term that d/dt of dL/dy carries over
        rhs = [0.0] * self.r
        for a, qb, gm, c in terms:
            rhs[a] -= Ly[gm] * c * q[qb]
        if m:
            hx = h.__getitem__
            rhs = [
                pa + sum(map(mul, col, Lx)) - sum(map(mul, map(hx, idx), xdot))
                for pa, col, idx in zip(rhs, rho_aT, self._idx_xy)
            ]
        return xdot + self._solve(tuple(map(h.__getitem__, self._idx_M)), rhs), Ly


def adapted_rhs(sys: ImplicitSystem, x, ya):
    """Explicit field of the reduced equations at (x, y) with the
    complementary velocity components pinned to zero; returns
    (xdot, ydot_a, p) with p the full Legendre image."""
    m = sys.A.m
    x = _components(x, m, "x")
    ya = _components(ya, sys.U.r, "ya")
    qdot, p = _AdaptedField(sys)([*x.tolist(), *ya.tolist()])
    return np.array(qdot[:m]), np.array(qdot[m:]), np.array(p)


def _components(v, size: int, name: str) -> np.ndarray:
    a = np.asarray(v, dtype=float).reshape(-1)
    if a.size != size:
        raise ValueError(f"{name} must have {size} components, got {a.size}")
    return a


def _steps(h: float, T: float) -> int:
    """Number of uniform steps of size h that make up the horizon T."""
    if not (h > 0 and T > 0 and np.isfinite(T / h)):
        raise ValueError("step and horizon must be positive and finite")
    N = int(round(T / h))
    if N < 1 or abs(N * h - T) > 1e-9 * max(1.0, T):
        raise ValueError(f"horizon {T} is not a multiple of step {h}")
    return N


def _rk4_step(f, q: list, k1: list, h: float) -> list:
    """One classical RK4 step of q' = f(q) on float lists, from k1 = f(q)."""
    hh, h6 = 0.5 * h, h / 6.0
    k2 = f([a + hh * b for a, b in zip(q, k1)])
    k3 = f([a + hh * b for a, b in zip(q, k2)])
    k4 = f([a + h * b for a, b in zip(q, k3)])
    stages = zip(q, k1, k2, k3, k4)
    return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in stages]


def _integrate_rk4(sys: ImplicitSystem, x0, ya0, h, T) -> Trajectory:
    field = _AdaptedField(sys)
    qdot = lambda v: field(v)[0]
    N = _steps(h, T)
    m = sys.A.m
    q = [*x0.tolist(), *ya0.tolist()]
    qs, ps = [], []
    for _ in range(N):
        k1, p = field(q)
        qs.append(q)
        ps.append(p)
        q = _rk4_step(qdot, q, k1, h)
    qs.append(q)
    ps.append(field(q)[1])
    pad = [0.0] * (sys.A.n - sys.U.r)
    states = State.stack([q[:m] for q in qs], [q[m:] + pad for q in qs], ps)
    return Trajectory(np.arange(N + 1) * h, states, h, "rk4")


def _midpoint_step(sys: ImplicitSystem, h: float):
    """One implicit-midpoint step of size h as ``(prev, u) -> (F, jacobian)``:
    the residual F = (kin, mom, leg) at the end state u = (x1, ya1, p1) from
    prev = (x0, ya0, p0), and the exact dF/du built from the same jets."""
    A, Lg = sys.A, sys.Lg
    m, n, r = A.m, A.n, sys.U.r
    eye_h, pad = np.eye(max(m, r)) / h, np.zeros(n - r)

    def step(prev, u):
        x0, ya0, p0 = prev
        x1, ya1, p1 = u[:m], u[m : m + r], u[m + r :]
        xm, pm = 0.5 * (x0 + x1), 0.5 * (p0 + p1)
        ym = np.concatenate([0.5 * (ya0 + ya1), pad])
        bm = BasePoint(xm)
        rho, drho = A.anchor_jet_at(bm)
        C, dC = A.structure_jet_at(bm)
        _, Lx, _, Lxx, Lxy, _ = Lg.jet(FiberPoint(xm, ym))
        _, _, Ly1, _, Lxy1, Lyy1 = Lg.jet(FiberPoint(x1, np.concatenate([ya1, pad])))
        rho_a = rho[:, :r]
        Cp = contract(C, pm)[:r]
        kin = (x1 - x0) / h - rho @ ym
        mom = (p1[:r] - p0[:r]) / h + Cp @ ym - rho_a.T @ Lx
        F = np.concatenate([kin, mom, p1 - Ly1])

        def jacobian():
            # rows kin | mom | leg, columns x1 | ya1 | p1
            J = np.zeros((len(u), len(u)))
            kin, mom, leg = J[:m], J[m : m + r], J[m + r :]
            kin[:, :m] = eye_h[:m, :m] - 0.5 * (ym @ drho)
            kin[:, m : m + r] = -0.5 * rho_a
            dCp = ym @ contract(dC, pm)
            dLx = (Lx @ drho.reshape(m, n * m)).reshape(n, m)
            mom[:, :m] = 0.5 * (dCp[:r] - dLx[:r] - rho_a.T @ Lxx)
            mom[:, m : m + r] = 0.5 * (Cp[:, :r] - rho_a.T @ Lxy[:, :r])
            mom[:, m + r :] = 0.5 * (C[:, :r] @ ym).T
            mom[:, m + r : m + 2 * r] += eye_h[:r, :r]
            leg[:, :m] = -Lxy1.T
            leg[:, m : m + r] = -Lyy1[:, :r]
            leg[:, m + r :] = np.eye(n)
            return J

        return F, jacobian

    return step


def _integrate_midpoint(sys: ImplicitSystem, x0, ya0, h, T) -> Trajectory:
    if not sys.U.adapted:
        raise ValueError("implicit path needs the subbundle in adapted form")
    m, n, r = sys.A.m, sys.A.n, sys.U.r
    N = _steps(h, T)
    step = _midpoint_step(sys, h)
    y0 = np.concatenate([ya0, np.zeros(n - r)])
    us = [np.concatenate([x0, ya0, sys.Lg.jet(FiberPoint(x0, y0))[2]])]
    for k in range(N):
        guess = us[-1]
        prev = (guess[:m], guess[m : m + r], guess[m + r :])
        F, jac = step(prev, guess)
        nF = float(np.abs(F).max()) if F.size else 0.0
        for _ in range(NEWTON_MAX_ITERS):
            if nF <= 1e-11 * (1.0 + float(np.linalg.norm(guess))):
                break
            try:
                delta = np.linalg.solve(jac(), -F)
            except np.linalg.LinAlgError:
                raise NewtonDivergence(k, nF) from None
            t = 1.0
            while t >= 1.0 / 1024.0:
                trial = guess + t * delta
                Ft, jac_t = step(prev, trial)
                if float(np.abs(Ft).max()) < nF:
                    guess, F, jac = trial, Ft, jac_t
                    nF = float(np.abs(F).max())
                    break
                t *= 0.5
            else:
                raise NewtonDivergence(k, nF)
        else:
            raise NewtonDivergence(k, nF)
        us.append(guess)
    us = np.array(us)
    ys = np.hstack([us[:, m : m + r], np.zeros((N + 1, n - r))])
    states = State.stack(us[:, :m], ys, us[:, m + r :])
    return Trajectory(np.arange(N + 1) * h, states, h, "implicit_midpoint")


def integrate(sys: ImplicitSystem, initial, h: float, T: float, method: str = "rk4") -> Trajectory:
    """Integrate from initial = (x0, ya0), the base point and the
    U-components of the velocity, over [0, T] with uniform step h."""
    x0, ya0 = initial
    x0 = _components(x0, sys.A.m, "x0")
    ya0 = _components(ya0, sys.U.r, "ya0")
    if method == "rk4":
        return _integrate_rk4(sys, x0, ya0, h, T)
    if method == "implicit_midpoint":
        return _integrate_midpoint(sys, x0, ya0, h, T)
    raise ValueError(f"unknown method {method!r}")


def energy_drift(sys: ImplicitSystem, traj: Trajectory):
    """(E0, max_abs_drift) of the generalized energy p·y - L along the
    trajectory."""
    names = base_names(sys.A.m) + fiber_names(sys.A.n)
    jet = expr.compile_jet2(sys.Lg.L, names).checked
    values = []
    for st in traj.states:
        L = jet(dict(zip(names, [*st.x.tolist(), *st.y.tolist()])))[0]
        values.append(float(st.p @ st.y - L))
    E0 = values[0]
    drift = max(abs(v - E0) for v in values)
    return E0, drift
