"""Hamilton–Jacobi verification machinery for the constrained implicit
dynamics: hypothesis checks on a candidate section (velocity part in U,
momentum part Legendre-consistent, closedness on U-pairs), the pointwise
Hamilton–Jacobi residual, the induced base flow, and the solution-lift
equivalence check.
"""

from __future__ import annotations

import math

import numpy as np

from . import expr
from .algebroid import BasePoint, FiberPoint, _as_expression, _distances, _passes, _Record
from .algebroid import _scaled_bound, base_names, contract
from .dynamics import ImplicitSystem, _algebroid_source, _along, _emitted
from .dynamics import _fd_derivatives, _point_data, _residual_rows, _rk4_lines, _row_max, _steps
from .errors import BadParams, EvaluationFault, FlowBlowUp, HypothesisViolated, RankDeficient

FLOW_BOUND = 1e6
DEFAULT_HYPOTHESIS_TOL = 1e-8

__all__ = [
    "HJSection",
    "BaseTrajectory",
    "check_in_K",
    "check_closedness",
    "hj_residual",
    "base_flow",
    "verify_theorem",
]


class HJSection:
    """Candidate section x -> (gamma(x), gammabar(x)): a velocity part
    and a momentum part, each n expressions of the base coordinates."""

    def __init__(self, n: int, m: int, gamma, gammabar):
        self.gamma = expr.Array(_as_expression(e) for e in gamma)
        self.gammabar = expr.Array(_as_expression(e) for e in gammabar)
        if len(self.gamma) != n or len(self.gammabar) != n:
            raise ValueError(f"section needs {n} components per part")
        self.n = n
        self._x = base_names(m)

    def velocity(self, x: BasePoint) -> np.ndarray:
        return np.array(self._part(self.gamma, x.x.tolist())[0])

    def momentum(self, x: BasePoint) -> np.ndarray:
        return np.array(self._part(self.gammabar, x.x.tolist())[0])

    def momentum_jacobian(self, x: BasePoint) -> np.ndarray:
        """J[a, i] = d gammabar_a / d x^i."""
        J = self._part(self.gammabar, x.x.tolist(), True)[1]
        return np.array(J).reshape(self.n, -1)

    def _part(self, part: expr.Array, x: list, gradients: bool = False) -> tuple:
        """The values of ``part`` (gamma or gammabar) at the floats of x
        and, with ``gradients``, their flat gradients in x: float tuples
        from one array jet, which takes x by position where it can."""
        if gradients:
            return expr.compile_jet2(part, self._x, defer=True).flat(x)[:2]
        b = dict(zip(self._x, x))
        try:
            return expr.compile_jet2(part, (), defer=True).checked(b)[:2]
        except EvaluationFault:  # values only: the fault as evaluate() reports it
            for e in part:
                expr.evaluate(e, b)
            raise


class BaseTrajectory(_Record):
    _fields = ("times", "points")


class SectionReport(_Record):
    _fields = ("in_U", "legendre_gap")


def check_in_K(sys: ImplicitSystem, s: HJSection, x: BasePoint, tol: float) -> SectionReport:
    """Velocity part in U(x) and momentum part equal to the Legendre
    image of the velocity part."""
    g = s.velocity(x)
    _, _, Ly, _, _, _ = sys.Lg.jet(FiberPoint(x.x, g))
    gb = s.momentum(x)
    in_U, gap = _in_K(sys.U._frames(x)[1], g[None], gb[None], Ly[None], tol)
    return SectionReport(bool(in_U[0]), float(gap[0]))


def _in_K(Q, G, GB, Ly, tol: float) -> tuple:
    """Per row: the velocity part in U = span Q, by the scaled test of
    ``Subbundle.member``, and the Legendre gap."""
    bounds = (_scaled_bound(tol, g) for g in G.tolist())
    in_U = [_passes(d / s, bound) for d, (s, bound) in zip(_distances(Q, G).tolist(), bounds)]
    return np.array(in_U, dtype=bool), _row_max(GB - Ly)


def check_closedness(sys: ImplicitSystem, s: HJSection, x: BasePoint) -> float:
    """Largest defect, over pairs of U spanning columns (v, w), of the
    antisymmetrized derivative condition on the momentum part:
    (rho^i_b d gammabar_d/dx^i - rho^i_d d gammabar_b/dx^i
     - gammabar_a C^a_bd) v^b w^d."""
    J, gb, rho = s.momentum_jacobian(x), s.momentum(x), sys.A.anchor_at(x)
    C, S = sys.A.structure_at(x), sys.U.span_at(x)
    return float(_closedness(rho, C, S, J[None], gb[None])[0])


def _closedness(rho, C, S, J, GB) -> np.ndarray:
    R = np.swapaxes(rho, -1, -2) @ np.swapaxes(J, -1, -2)  # rho^i_b dgammabar_d/dx^i
    R = R - np.swapaxes(R, -1, -2) - contract(C, GB)
    return _row_max((np.swapaxes(S, -1, -2) @ R) @ S)


def hj_residual(sys: ImplicitSystem, s: HJSection, x: BasePoint) -> np.ndarray:
    """Component for each U spanning column v of
    (gamma^b d gammabar_b/dx^i - dL/dx^i(x, gamma(x))) rho^i_a v^a."""
    g, J = s.velocity(x), s.momentum_jacobian(x)
    _, Lx, _, _, _, _ = sys.Lg.jet(FiberPoint(x.x, g))
    return _hj_residual(g[None], J[None], Lx[None], sys.A.anchor_at(x), sys.U.span_at(x))[0]


def _hj_residual(G, J, Lx, rho, S) -> np.ndarray:
    grad = (G[:, None, :] @ J)[:, 0] - Lx
    return ((grad[:, None, :] @ rho) @ S)[:, 0]


def base_flow(sys: ImplicitSystem, s: HJSection, x0: BasePoint, h: float, T: float) -> BaseTrajectory:
    """Fourth-order integration of the induced base field
    c' = rho(c) gamma(c), on floats, with gamma read from its compiled
    values-only jet."""
    points, _ = _flow(sys, s, x0, h, T)
    return BaseTrajectory(np.arange(len(points)) * h, np.array(points))


def _flow(sys: ImplicitSystem, s: HJSection, x0: BasePoint, h: float, T: float) -> tuple:
    """The points of :func:`base_flow` as float lists, and gamma at every
    point but the last, as each step read it at its start."""
    bind, N = _emitted(sys.A, ("base flow",), _emit_flow), _steps(h, T)
    step = bind(expr.compile_jet2(s.gamma, ()).checked, s.gamma)
    x = x0.x.tolist()
    points, gammas = [x], []
    for k in range(N):
        x, g = step(x, h)
        if not all(abs(v) <= FLOW_BOUND for v in x):
            raise FlowBlowUp(
                f"base flow left |x| <= {FLOW_BOUND:g} at t={(k + 1) * h:g}"
            )
        points.append(x)
        gammas.append(g)
    return points, gammas


def _emit_flow(A):
    """The RK4 step of the base field x -> rho(x) gamma(x) on the float
    list x, compiled from source once per algebroid (kept by
    :func:`_emitted`) as ``bind(jet, gamma)``: the step ``(x, h) ->
    (x_next, gamma(x))`` of the section part gamma, whose values-only
    checked jet is ``jet``, with the field inlined at each stage
    (:func:`_rk4_lines`).  rho is the tokens of
    ``_algebroid_source``, contracted with gamma by ``_Emitter.dot``, which drops
    zero products, since gamma is checked finite; a stage input that is not
    finite makes the whole step nan, and a fault in gamma is raised as
    ``evaluate`` reports it."""
    m, n, em = A.m, A.n, expr._Emitter()
    xs, gs = [f"x{i}" for i in range(m)], [f"g{a}" for a in range(n)]
    reads, rho, _, _ = _algebroid_source(A, n, "xs", em, jets=False)
    reads = [t for t in reads if t.startswith("rho")]  # the anchor; no bracket
    binding = ", ".join(f"{k!r}: {v}" for k, v in zip(base_names(m), xs))

    def stage(ins, outs):
        lines = [f"{v} = {e}" for v, e in zip(xs, ins)]
        if m:  # a nan step fails its bound
            lines += [f"if not all(map(isfinite, ({', '.join(xs)},))):",
                      f"    return [nan] * {m}, None"]
        lines += [f"b = {{{binding}}}", "try:", f"    [{', '.join(gs)}] = jet(b)[0]",
                  "except EvaluationFault:", "    for e in gamma:", "        evaluate(e, b)",
                  "    raise"]
        lines += [f"xs = [{', '.join(xs)}]"] * bool(reads) + reads
        return lines + [f"{v} = {em.dot(row, gs)}" for v, row in zip(outs, rho)]

    body = _rk4_lines(m, stage, expr._source_tuple(gs))
    ns = dict(A=A, isfinite=math.isfinite, nan=math.nan, EvaluationFault=EvaluationFault,
              evaluate=expr.evaluate)
    return expr._compiled(["def _bind(jet, gamma):"], [("def step(q, h):", body)],
                          "    return step", "base flow", ns)


class TheoremReport(_Record):
    _fields = (
        "hj_pass", "lift_pass", "consistent", "max_hj_residual", "max_lift_residual",
        "at_x0", "closedness_at_x0",
    )


def verify_theorem(
    sys: ImplicitSystem,
    s: HJSection,
    x0: BasePoint,
    h: float,
    T: float,
    tol: float,
) -> TheoremReport:
    """Check the equivalence: the Hamilton–Jacobi residual vanishes
    along the base flow iff the lifted curve solves the implicit
    equations (with finite-difference time derivatives).  A failed
    hypothesis is raised at the first flow point where one fails; at a
    point, an evaluation fault comes first, then in-U, Legendre, closedness."""
    if _steps(h, T) < 2:
        raise BadParams("the lift check needs a horizon of at least two steps")
    points, gammas = _flow(sys, s, x0, h, T)
    X, Lg, m, tol_K = np.array(points), sys.Lg, sys.A.m, DEFAULT_HYPOTHESIS_TOL
    rows, data, fault = [], [], None
    for k, x in enumerate(points):  # only the jets are evaluated point by point
        try:  # gamma at all but the last point is the flow's
            g = gammas[k] if k < len(gammas) else s._part(s.gamma, x)[0]
            grad = Lg._flat([*x, *g])[1]
            gb, J = s._part(s.gammabar, x, True)
            data.append(_point_data(sys, BasePoint._trusted(x=X[k])))
        except (EvaluationFault, RankDeficient) as exc:
            fault = exc
            break
        rows.append((g, grad, gb, J))
    if rows:  # the points before a fault are checked first
        G, grads, GB, J = (np.array(c) for c in zip(*rows))
        J, Lx, Ly = J.reshape(len(rows), s.n, m), grads[:, :m], grads[:, m:]
        along = rho, C, S, Q = _along(sys, x0, data)
        in_U, gap = _in_K(Q, G, GB, Ly, tol_K)
        closed = _closedness(rho, C, S, J, GB)
        bad = ~(in_U & (gap <= tol_K) & (closed <= tol_K))  # a nan defect is bad
        if bad.any():
            j = int(bad.argmax())
            if not in_U[j]:
                raise HypothesisViolated("velocity part outside U", X[j], float("nan"))
            if not gap[j] <= tol_K:
                raise HypothesisViolated(
                    "momentum part is not the Legendre image", X[j], gap[j]
                )
            raise HypothesisViolated("closedness on U-pairs", X[j], closed[j])
    if fault is not None:
        raise fault
    max_hj = float(np.abs(_hj_residual(G, J, Lx, rho, S)).max(initial=0.0))
    hj_pass = max_hj <= tol

    scale = 1.0 + float(np.abs(np.hstack([X, G, GB])).max(initial=0.0))
    lift_tol = tol + 50.0 * h * h * scale
    lift = _residual_rows(along, G, GB, _fd_derivatives(X, h), _fd_derivatives(GB, h), Lx, Ly)
    max_lift = float(np.concatenate(lift).max(initial=0.0))
    lift_pass = max_lift <= lift_tol
    at_x0 = SectionReport(bool(in_U[0]), float(gap[0]))
    return TheoremReport(
        hj_pass, lift_pass, hj_pass == lift_pass, max_hj, max_lift, at_x0, float(closed[0])
    )
