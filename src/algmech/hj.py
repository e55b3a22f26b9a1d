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
from .algebroid import BasePoint, FiberPoint, base_names, contract
from .dynamics import ImplicitSystem, State, _rk4_step, _steps, residual
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
        conv = lambda e: expr.parse(e) if isinstance(e, str) else e
        self.gamma = [conv(e) for e in gamma]
        self.gammabar = [conv(e) for e in gammabar]
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
        b = x.binding()
        return np.array(
            [expr.eval_jet2(e, b, self._x)[1] for e in self.gammabar]
        ).reshape(self.n, len(self._x))


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


def _fd_derivatives(values: np.ndarray, h: float) -> np.ndarray:
    """Second-order differences along axis 0 (centered inside, one-sided
    three-point stencils at the ends); zero below three samples."""
    d = np.zeros_like(values)
    if len(values) >= 3:
        d[1:-1] = (values[2:] - values[:-2]) / (2.0 * h)
        d[0] = (-3.0 * values[0] + 4.0 * values[1] - values[2]) / (2.0 * h)
        d[-1] = (3.0 * values[-1] - 4.0 * values[-2] + values[-3]) / (2.0 * h)
    return d


def verify_theorem(
    sys: ImplicitSystem,
    s: HJSection,
    x0: BasePoint,
    h: float,
    T: float,
    tol: float,
    hypothesis_tol: float = DEFAULT_HYPOTHESIS_TOL,
) -> TheoremReport:
    """Check the equivalence: the Hamilton–Jacobi residual vanishes
    along the base flow iff the lifted curve solves the implicit
    equations (with finite-difference time derivatives)."""
    if _steps(h, T) < 2:
        raise BadParams("the lift check needs a horizon of at least two steps")
    flow = base_flow(sys, s, x0, h, T)
    # each point is evaluated once and checked before the next is evaluated
    ys, ps, res = [], [], []
    for x in flow.points:
        bp = BasePoint(x)
        g = s.velocity(bp)
        _, Lx, Ly, _, _, _ = sys.Lg.jet(FiberPoint(bp.x, g))
        gb = s.momentum(bp)
        rep = _in_K(sys, bp, hypothesis_tol, g, gb, Ly)
        if not rep.in_U:
            raise HypothesisViolated("velocity part outside U", bp.x, float("nan"))
        if rep.legendre_gap > hypothesis_tol:
            raise HypothesisViolated(
                "momentum part is not the Legendre image", bp.x, rep.legendre_gap
            )
        J, rho = s.momentum_jacobian(bp), sys.A.anchor_at(bp)
        closed = _closedness(sys, bp, J, gb, rho)
        if closed > hypothesis_tol:
            raise HypothesisViolated("closedness on U-pairs", bp.x, closed)
        ys.append(g)
        ps.append(gb)
        res.append(_hj_residual(sys, bp, g, J, Lx, rho))
    max_hj = max((float(np.abs(r).max()) if r.size else 0.0) for r in res)
    hj_pass = max_hj <= tol

    xs, ys, ps = flow.points, np.array(ys), np.array(ps)
    xdots, pdots = _fd_derivatives(xs, h), _fd_derivatives(ps, h)
    scale = 1.0 + max(
        float(np.abs(a).max()) if a.size else 0.0 for a in (xs, ys, ps)
    )
    lift_tol = tol + 50.0 * h * h * scale
    max_lift = 0.0
    for k, st in enumerate(State.stack(xs, ys, ps)):
        rep = residual(sys, st, xdots[k], pdots[k], lift_tol)
        max_lift = max(max_lift, rep.r_U, rep.r_kin, rep.r_leg, rep.r_mom)
    lift_pass = max_lift <= lift_tol
    return TheoremReport(hj_pass, lift_pass, hj_pass == lift_pass, max_hj, max_lift)
