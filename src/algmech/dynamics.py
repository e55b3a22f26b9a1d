"""Constrained implicit dynamics of a Lagrangian on a Lie algebroid with
a velocity subbundle U: pointwise residual evaluation, an explicit
fourth-order integrator on the adapted reduction, an implicit midpoint
integrator that carries the momentum constraint (Newton's method with the
exact Jacobian and a halving line search), and energy monitoring.
"""

from __future__ import annotations

import math
from operator import mul

import numpy as np

from . import expr
from .algebroid import (
    DEFAULT_RANK_TOL,
    BasePoint,
    FiberPoint,
    LieAlgebroid,
    Subbundle,
    _bracket_terms,
    _Carrier,
    _distances,
    _finite_vector,
    _Record,
    base_names,
    contract,
    fiber_names,
)
from .errors import Degenerate, EvaluationFault, NewtonDivergence, NonFinite
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


class ImplicitSystem(_Record):
    _fields = ("A", "Lg", "U")

    def __init__(self, A: LieAlgebroid, Lg: Lagrangian, U: Subbundle):
        if Lg.algebroid is not A or U.parent is not A:
            raise ValueError("Lagrangian and subbundle must share the algebroid")
        super().__init__(A, Lg, U)


class State(_Carrier):
    def __init__(self, x, y, p):
        d = self.__dict__
        for name, v in (("x", x), ("y", y), ("p", p)):
            d[name] = _finite_vector(v, name, "state component {} must be finite")

    @classmethod
    def stack(cls, xs, ys, ps) -> tuple:
        """One State per row of ``xs``, ``ys`` and ``ps`` (equally long
        sequences of rows), with one finiteness check per stacked
        component instead of one per state."""
        stacked = []
        for name, rows in (("x", xs), ("y", ys), ("p", ps)):
            a = np.array(rows, dtype=float)
            if not np.isfinite(a).all():
                raise NonFinite(f"state component {name} must be finite")
            stacked.append(a)
        return tuple(cls._trusted(x=x, y=y, p=p) for x, y, p in zip(*stacked))


class Trajectory(_Record):
    _fields = ("times", "states", "h", "method")


class ResidualReport(_Record):
    _fields = ("r_U", "r_kin", "r_leg", "r_mom", "passed")


def residual(sys: ImplicitSystem, st: State, xdot, pdot, tol: float) -> ResidualReport:
    """Defects of a state with candidate time derivatives against the
    implicit equations: velocity in U, kinematics, Legendre relation and
    the momentum equation paired against the spanning columns of U."""
    xdot = np.asarray(xdot, dtype=float).reshape(1, -1)
    pdot = np.asarray(pdot, dtype=float).reshape(1, -1)
    return _residual_reports(sys, [st], xdot, pdot, tol)[0]


def _residual_reports(sys: ImplicitSystem, states, xdots, pdots, tol: float) -> list:
    """The residual report of each state against the rows of ``xdots``
    and ``pdots``: per state one L-jet and the data that depends on x,
    then one stacked pass."""
    m, names, jet = sys.A.m, sys.Lg._names, sys.Lg._jet.checked
    grads = np.array([jet(dict(zip(names, [*st.x.tolist(), *st.y.tolist()])))[1] for st in states])
    data = [_point_data(sys, BasePoint._trusted(x=st.x), DEFAULT_RANK_TOL) for st in states]
    along = _along(sys, BasePoint._trusted(x=states[0].x), data, DEFAULT_RANK_TOL)
    Y, P = np.array([st.y for st in states]), np.array([st.p for st in states])
    rows = _residual_rows(along, Y, P, xdots, pdots, grads[:, :m], grads[:, m:])
    per_state = zip(*(a.tolist() for a in rows))
    return [ResidualReport(*r, all(v <= tol for v in r)) for r in per_state]  # nan fails


def _residual_rows(along, Y, P, Xdot, Pdot, Lx, Ly) -> tuple:
    """(r_U, r_kin, r_leg, r_mom) of each row, with along = (rho, C, S, Q)."""
    rho, C, S, Q = along
    Yc, Lxc = Y[:, :, None], Lx[:, :, None]  # the rows as columns
    force = Pdot + (_contract_rows(C, P) @ Yc)[:, :, 0] - (np.swapaxes(rho, -1, -2) @ Lxc)[:, :, 0]
    r_mom = _row_max(force[:, None, :] @ S)
    return _distances(Q, Y), _row_max(Xdot - (rho @ Yc)[:, :, 0]), _row_max(P - Ly), r_mom


def _row_max(a: np.ndarray) -> np.ndarray:
    """max |a[k]| of each entry of a stack, 0 where it is empty."""
    return np.abs(a).reshape(len(a), -1).max(axis=1, initial=0.0)


def _contract_rows(C: np.ndarray, P: np.ndarray) -> np.ndarray:
    """:func:`contract` of each row of P with C, or with its own C of a stack."""
    N, n = P.shape
    return (P[:, None, :] @ C.reshape(C.shape[:-3] + (n, n * n))).reshape(N, n, n)


def _point_data(sys: ImplicitSystem, x: BasePoint, tol: float) -> tuple:
    """(rho, C, S, Q) at x, None where constant; Q is an orthonormal basis
    of U(x) once the rank of the span S is checked against tol."""
    A, U = sys.A, sys.U
    S, Q = (None, None) if U._fixed is not None else U._frames(x, tol)[:2]
    rho = None if A.constant_anchor else A.anchor_at(x)
    return rho, None if A.constant_structure else A.structure_at(x), S, Q


def _along(sys: ImplicitSystem, x0: BasePoint, data: list, tol: float) -> tuple:
    """(rho, C, S, Q) along a curve from x0: the rows of ``data`` stacked
    where they depend on x, else the constant array, which broadcasts."""
    A, U = sys.A, sys.U
    rho, C, S, Q = (None if c[0] is None else np.array(c) for c in zip(*data))
    if U._fixed is not None:
        S, Q = U._frames(x0, tol)[:2]
    rho = A.anchor_at(x0) if rho is None else rho
    return rho, A.structure_at(x0) if C is None else C, S, Q


def _anchor_rows(rho: np.ndarray, r: int):
    """The anchor restricted to U as float rows and as float columns."""
    rho_a = rho[:, :r]
    return rho_a.tolist(), rho_a.T.tolist()


def _sup_norm(v: list) -> float:
    """max |v_i| of a float list as numpy gives it: 0 when empty, nan when
    any entry is nan."""
    if any(map(math.isnan, v)):
        return math.nan
    return max(map(abs, v), default=0.0)


class _AdaptedField:
    """Right-hand side of the adapted reduction on Python floats at
    q = (x, ya), the base point followed by the U-components of the
    velocity.  Keeps the raw compiled jet of L, index maps into its packed
    Hessian, the anchor and the structure each unpacked once when constant,
    and a cached inverse of the restricted velocity Hessian, so a single
    evaluation stays cheap inside the integrator loop."""

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
        packed = {jl: i for i, jl in enumerate(expr._pairs(m + A.n))}
        tri = lambda j, l: packed[min(j, l), max(j, l)]
        self._idx_M = [tri(m + a, m + b) for a in range(r) for b in range(r)]
        self._idx_xy = [[tri(i, m + a) for i in range(m)] for a in range(r)]
        origin = BasePoint(np.zeros(m))
        self._rho = _anchor_rows(A.anchor_at(origin), r) if A.constant_anchor else None
        self._terms = [t for t in A._terms if max(t[:2]) < r] if A.constant_structure else None
        self._inv_key, self._inv = (), []  # the inverse of the empty Hessian when r = 0

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
        A, r = self.sys.A, self.r
        if not A.constant:
            xs = q[:m]
            if not all(map(math.isfinite, xs)):
                _finite_vector(xs, "x")
            bp = BasePoint._trusted(x=np.array(xs))
        rho_a, rho_aT = self._rho or _anchor_rows(A.anchor_at(bp), r)
        terms = self._terms
        if terms is None:
            terms = _bracket_terms(A.structure_at(bp), r)
        ya = q[m:]
        xdot = [sum(map(mul, row, ya)) for row in rho_a]
        # momentum equation on U: -C^g_ab p_g y^b + rho^i_a dL/dx^i, less
        # the mixed Hessian term that d/dt of dL/dy carries over
        rhs = [0.0] * r
        for a, b, gm, c in terms:
            rhs[a] -= Ly[gm] * c * ya[b]
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


def _fd_derivatives(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order differences along axis 0 (centered inside, one-sided
    three-point stencils at the ends); zero below three samples."""
    d = np.zeros_like(values)
    if len(values) >= 3:
        d[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
        d[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
        d[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return d


def _lift_residuals(sys: ImplicitSystem, states, h: float, tol: float) -> list:
    """The residual report of each of ``states``, samples of a curve at
    step h, with the time derivatives of x and p from :func:`_fd_derivatives`."""
    xdots = _fd_derivatives(np.array([st.x for st in states]), h)
    pdots = _fd_derivatives(np.array([st.p for st in states]), h)
    return _residual_reports(sys, states, xdots, pdots, tol)


def _steps(h: float, T: float) -> int:
    """Number of uniform steps of size h that make up the horizon T: at
    most 2^53, beyond which floats cannot tell whether T is a multiple of
    h, and of a step whose reciprocal is finite."""
    h, T = float(h), float(T)
    if not (h > 0 and T > 0 and math.isfinite(T / h)):
        raise ValueError("step and horizon must be positive and finite")
    if not math.isfinite(1.0 / h):
        raise ValueError(f"step {h} has no finite reciprocal")
    N = int(round(T / h))
    if N > 2**53:
        raise ValueError(f"horizon {T} is more than 2^53 steps of {h}")
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
    prev = (x0, ya0, p0), and the exact dF/du built from the same jets.

    F runs on Python floats.  The anchor and the structure are each
    unpacked once here when constant and at every midpoint otherwise.  The
    Jacobian is its live entries, assembled on floats, added to a template
    J0 of the constant blocks."""
    A, Lg = sys.A, sys.Lg
    m, n, r = A.m, A.n, sys.U.r
    pad, pad_n = [0.0] * (n - r), [0.0] * n
    origin = BasePoint(np.zeros(m))
    # rows kin | mom | leg, columns x1 | ya1 | p1
    J0 = np.zeros((m + r + n, m + r + n))
    J0[:m, :m] = np.eye(m) / h
    J0[m : m + r, m + r : m + 2 * r] = np.eye(r) / h
    J0[m + r :, m + r :] = np.eye(n)
    if A.constant_anchor:
        rho = A.anchor_at(origin)
        fixed_rho = _anchor_rows(rho, r)
        J0[:m, m : m + r] = -0.5 * rho[:, :r]
    if A.constant_structure:
        fixed_terms = [t for t in A._terms if max(t[:2]) < r]

    def step(prev, u):
        x0, ya0, p0 = (a.tolist() for a in prev)
        ul = u.tolist()
        x1, ya1, p1 = ul[:m], ul[m : m + r], ul[m + r :]
        xm = [0.5 * (a + b) for a, b in zip(x0, x1)]
        ym = [0.5 * (a + b) for a, b in zip(ya0, ya1)]
        pm = [0.5 * (a + b) for a, b in zip(p0, p1)]
        if not all(map(math.isfinite, [*xm, *ym, *x1, *ya1])):
            for name, v in (("x", xm), ("y", ym + pad), ("x", x1), ("y", ya1 + pad)):
                _finite_vector(v, name)
        xm_n, ym_n = np.array(xm), np.array(ym + pad)
        if A.constant_anchor:
            rho_rows, rho_cols = fixed_rho
        else:
            rho, drho = A.anchor_jet_at(BasePoint._trusted(x=xm_n))
            rho_rows, rho_cols = _anchor_rows(rho, r)
        if A.constant_structure:
            terms = fixed_terms
        else:
            C, dC = A.structure_jet_at(BasePoint._trusted(x=xm_n))
            terms = _bracket_terms(C, r)
        _, Lx, _, Lxx, Lxy, _ = Lg.jet(FiberPoint._trusted(x=xm_n, y=ym_n))
        _, _, Ly1, _, Lxy1, Lyy1 = Lg.jet(FiberPoint._trusted(x=u[:m], y=np.array(ya1 + pad)))
        Cp = [[0.0] * r for _ in range(r)]  # (C·p)_ab at the midpoint, a, b < r
        for a, b, g, c in terms:
            Cp[a][b] += pm[g] * c
        Lxl = Lx.tolist()
        kin = [(b - a) / h - sum(map(mul, row, ym)) for a, b, row in zip(x0, x1, rho_rows)]
        mom = [
            (b - a) / h + sum(map(mul, cp, ym)) - sum(map(mul, col, Lxl))
            for a, b, cp, col in zip(p0, p1, Cp, rho_cols)
        ]
        F = np.array(kin + mom + [a - b for a, b in zip(p1, Ly1.tolist())])

        def jacobian():
            # the live entries on floats, rows kin | mom | leg over columns
            # x1 | ya1 | p1, added to the constant blocks of J0
            kin = [[0.0] * (m + r + n)] * m
            dx = np.zeros((r, m))  # d(C·p y - rho^T dL/dx)/dx1 through C and rho
            if not A.constant_anchor:
                kin = [
                    [-0.5 * v for v in (*dr, *row)] + pad_n
                    for dr, row in zip((ym_n @ drho).tolist(), rho_rows)
                ]
                dx -= (Lx @ drho.reshape(m, n * m)).reshape(n, m)[:r]
            if not A.constant_structure:
                dx += (ym_n @ contract(dC, np.array(pm)))[:r]
            mom = [[*dr, *cp] for dr, cp in zip(dx.tolist(), Cp)]  # x1 | ya1 columns
            if m:  # less rho^T times the columns of d2L/dx d(x, ya)
                Hcols = Lxx.tolist() + Lxy[:, :r].T.tolist()
                mom = [
                    [d - sum(map(mul, col, hc)) for d, hc in zip(row, Hcols)]
                    for row, col in zip(mom, rho_cols)
                ]
            Cy = [[0.0] * n for _ in range(r)]  # p1 columns: C^g_ab y^b at the midpoint
            for a, b, g, c in terms:
                Cy[a][g] += c * ym[b]
            mom = [[0.5 * v for v in (*row, *cy)] for row, cy in zip(mom, Cy)]
            leg = [
                [-v for v in (*xc, *yr[:r])] + pad_n
                for xc, yr in zip(Lxy1.T.tolist(), Lyy1.tolist())
            ]
            J = np.array(kin + mom + leg)
            J += J0
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
        nF = _sup_norm(F.tolist())
        for _ in range(NEWTON_MAX_ITERS):
            g = guess.tolist()
            norm = math.sqrt(sum(map(mul, g, g)))
            if norm == math.inf:  # a square overflowed; |guess| itself is finite
                norm = math.hypot(*g)
            if nF <= 1e-11 * (1.0 + norm):
                break
            try:
                delta = np.linalg.solve(jac(), -F)
            except np.linalg.LinAlgError:
                raise NewtonDivergence(k, nF) from None
            t = 1.0
            while t >= 1.0 / 1024.0:
                trial = guess + t * delta
                Ft, jac_t = step(prev, trial)
                nFt = _sup_norm(Ft.tolist())
                if nFt < nF:
                    guess, F, jac, nF = trial, Ft, jac_t, nFt
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
    return _drift(_energies(sys, traj.states))


def _drift(values: list):
    """(E0, max_abs_drift) of a list of energies."""
    E0 = values[0]
    return E0, max(abs(v - E0) for v in values)


def _energies(sys: ImplicitSystem, states) -> list:
    """The generalized energy p·y - L of each state, from the compiled
    jet of L."""
    names = base_names(sys.A.m) + fiber_names(sys.A.n)
    jet = expr.compile_jet2(sys.Lg.L, names).checked
    out = [
        float(st.p @ st.y - jet(dict(zip(names, [*st.x.tolist(), *st.y.tolist()])))[0])
        for st in states
    ]
    if not all(map(math.isfinite, out)):
        raise NonFinite("the generalized energy p.y - L overflowed")
    return out
