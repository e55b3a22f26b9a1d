"""Hamilton–Jacobi verification machinery for the constrained implicit
dynamics: hypothesis checks on a candidate section (velocity part in U,
momentum part Legendre-consistent, closedness on U-pairs), the pointwise
Hamilton–Jacobi residual, the induced base flow, and the solution-lift
equivalence check.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

import numpy as np

from . import expr
from .algebroid import BasePoint, FiberPoint, _as_expression, base_names, contract
from .dynamics import ImplicitSystem, State, _lift_residuals, _rk4_step, _steps
from .errors import BadParams, FlowBlowUp, HypothesisViolated

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
        self.gamma = [_as_expression(e) for e in gamma]
        self.gammabar = expr.Array(_as_expression(e) for e in gammabar)
        if len(self.gamma) != n or len(self.gammabar) != n:
            raise ValueError(f"section needs {n} components per part")
        self.n = n
        self._x = base_names(m)

    def velocity(self, x: BasePoint) -> np.ndarray:
        b = x.binding()
        return np.array([expr.evaluate(e, b) for e in self.gamma])

    def momentum(self, x: BasePoint) -> np.ndarray:
        b = x.binding()
        return np.array([expr.evaluate(e, b) for e in self.gammabar])

    def momentum_jacobian(self, x: BasePoint) -> np.ndarray:
        """J[a, i] = d gammabar_a / d x^i."""
        return expr.eval_jet2(self.gammabar, x.binding(), self._x)[1]


@dataclass(frozen=True)
class BaseTrajectory:
    times: np.ndarray
    points: np.ndarray


@dataclass(frozen=True)
class SectionReport:
    in_U: bool
    legendre_gap: float


def check_in_K(sys: ImplicitSystem, s: HJSection, x: BasePoint, tol: float) -> SectionReport:
    """Velocity part in U(x) and momentum part equal to the Legendre
    image of the velocity part."""
    g = s.velocity(x)
    _, _, Ly, _, _, _ = sys.Lg.jet(FiberPoint(x.x, g))
    return _in_K(sys, x, tol, g, s.momentum(x), Ly)


def _in_K(sys, x, tol, g, gb, Ly) -> SectionReport:
    gap = float(np.abs(gb - Ly).max()) if sys.A.n else 0.0
    return SectionReport(sys.U.member(x, g, tol), gap)


def check_closedness(sys: ImplicitSystem, s: HJSection, x: BasePoint) -> float:
    """Largest defect, over pairs of U spanning columns (v, w), of the
    antisymmetrized derivative condition on the momentum part:
    (rho^i_b d gammabar_d/dx^i - rho^i_d d gammabar_b/dx^i
     - gammabar_a C^a_bd) v^b w^d."""
    return _closedness(sys, x, s.momentum_jacobian(x), s.momentum(x), sys.A.anchor_at(x))


def _closedness(sys, x, J, gb, rho) -> float:
    R = rho.T @ J.T  # R[b, d] = rho^i_b d gammabar_d / dx^i
    R = R - R.T - contract(sys.A.structure_at(x), gb)
    S = sys.U.span_at(x)
    if S.size == 0:
        return 0.0
    return float(np.abs(S.T @ R @ S).max())


def hj_residual(sys: ImplicitSystem, s: HJSection, x: BasePoint) -> np.ndarray:
    """Component for each U spanning column v of
    (gamma^b d gammabar_b/dx^i - dL/dx^i(x, gamma(x))) rho^i_a v^a."""
    g, J = s.velocity(x), s.momentum_jacobian(x)
    _, Lx, _, _, _, _ = sys.Lg.jet(FiberPoint(x.x, g))
    return _hj_residual(sys, x, g, J, Lx, sys.A.anchor_at(x))


def _hj_residual(sys, x, g, J, Lx, rho) -> np.ndarray:
    grad = g @ J - Lx
    return (grad @ rho) @ sys.U.span_at(x)


def base_flow(sys: ImplicitSystem, s: HJSection, x0: BasePoint, h: float, T: float) -> BaseTrajectory:
    """Fourth-order integration of the induced base field
    c' = rho(c) gamma(c), on floats."""
    A = sys.A
    N = _steps(h, T)

    def field(x):
        bp = BasePoint(x)
        g = s.velocity(bp).tolist()
        return [sum(map(mul, row, g)) for row in A.anchor_at(bp).tolist()]

    x = x0.x.tolist()
    pts = [x]
    for k in range(N):
        x = _rk4_step(field, x, field(x), h)
        if any(abs(v) > FLOW_BOUND for v in x):
            raise FlowBlowUp(
                f"base flow left |x| <= {FLOW_BOUND:g} at t={(k + 1) * h:g}"
            )
        pts.append(x)
    return BaseTrajectory(np.arange(N + 1) * h, np.array(pts))


@dataclass(frozen=True)
class TheoremReport:
    hj_pass: bool
    lift_pass: bool
    consistent: bool
    max_hj_residual: float
    max_lift_residual: float


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
    equations (with finite-difference time derivatives)."""
    if _steps(h, T) < 2:
        raise BadParams("the lift check needs a horizon of at least two steps")
    flow = base_flow(sys, s, x0, h, T)
    # each point is evaluated once and checked before the next is evaluated
    states, res = [], []
    for x in flow.points:
        bp = BasePoint(x)
        g = s.velocity(bp)
        _, Lx, Ly, _, _, _ = sys.Lg.jet(FiberPoint(bp.x, g))
        gb, J, _ = expr.eval_jet2(s.gammabar, bp.binding(), s._x)
        rep = _in_K(sys, bp, DEFAULT_HYPOTHESIS_TOL, g, gb, Ly)
        if not rep.in_U:
            raise HypothesisViolated("velocity part outside U", bp.x, float("nan"))
        if rep.legendre_gap > DEFAULT_HYPOTHESIS_TOL:
            raise HypothesisViolated(
                "momentum part is not the Legendre image", bp.x, rep.legendre_gap
            )
        rho = sys.A.anchor_at(bp)
        closed = _closedness(sys, bp, J, gb, rho)
        if closed > DEFAULT_HYPOTHESIS_TOL:
            raise HypothesisViolated("closedness on U-pairs", bp.x, closed)
        states.append(State._trusted(x=bp.x, y=g, p=gb))
        res.append(_hj_residual(sys, bp, g, J, Lx, rho))
    max_hj = max((float(np.abs(r).max()) if r.size else 0.0) for r in res)
    hj_pass = max_hj <= tol

    mags = np.abs([np.concatenate([st.x, st.y, st.p]) for st in states])
    scale = 1.0 + (float(mags.max()) if mags.size else 0.0)
    lift_tol = tol + 50.0 * h * h * scale
    max_lift = 0.0
    for rep in _lift_residuals(sys, states, h, lift_tol):
        max_lift = max(max_lift, rep.r_U, rep.r_kin, rep.r_leg, rep.r_mom)
    lift_pass = max_lift <= lift_tol
    return TheoremReport(hj_pass, lift_pass, hj_pass == lift_pass, max_hj, max_lift)
