"""Lie algebroids in local coordinates: anchor, structure functions,
structure-equation validation, exterior differential and the linear
Poisson bracket on the dual bundle.

Everything lives in a single chart.  Base coordinates are named
``x1..xm``, fiber coordinates ``y1..yn``, dual fiber coordinates
``p1..pn``; anchor and structure entries are :mod:`algmech.expr`
expressions of the base coordinates.  Every point refuses a nan or
infinite coordinate when it is constructed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import expr
from .errors import RankDeficient

DEFAULT_RANK_TOL = 1e-9

__all__ = [
    "BasePoint",
    "FiberPoint",
    "DualPoint",
    "ScalarField",
    "StructureReport",
    "LieAlgebroid",
    "Subbundle",
    "contract",
    "base_names",
    "fiber_names",
    "momentum_names",
]


def base_names(m: int):
    return tuple(f"x{i + 1}" for i in range(m))


def fiber_names(n: int):
    return tuple(f"y{a + 1}" for a in range(n))


def momentum_names(n: int):
    return tuple(f"p{a + 1}" for a in range(n))


def _finite_vector(v, name: str, message: str = "{} must be finite, got {}") -> np.ndarray:
    """``v`` as a flat float array: the finiteness check of every carrier.
    A nan or infinite entry raises ValueError(message.format(name, array))."""
    a = np.asarray(v, dtype=float).reshape(-1)
    if not all(map(math.isfinite, a.tolist())):
        raise ValueError(message.format(name, a))
    return a


def _from_checked(cls, **arrays):
    """An instance of the carrier ``cls`` over arrays taken unchanged from
    another carrier, which checked them when it was built."""
    obj = object.__new__(cls)
    vars(obj).update(arrays)
    return obj


@dataclass(frozen=True, eq=False)
class BasePoint:
    x: np.ndarray

    def __init__(self, x):
        object.__setattr__(self, "x", _finite_vector(x, "x"))

    def binding(self) -> dict:
        return {f"x{i + 1}": v for i, v in enumerate(self.x)}


@dataclass(frozen=True, eq=False)
class FiberPoint:
    x: np.ndarray
    y: np.ndarray

    def __init__(self, x, y):
        object.__setattr__(self, "x", _finite_vector(x, "x"))
        object.__setattr__(self, "y", _finite_vector(y, "y"))

    @property
    def base(self) -> BasePoint:
        return _from_checked(BasePoint, x=self.x)


@dataclass(frozen=True, eq=False)
class DualPoint:
    x: np.ndarray
    p: np.ndarray

    def __init__(self, x, p):
        object.__setattr__(self, "x", _finite_vector(x, "x"))
        object.__setattr__(self, "p", _finite_vector(p, "p"))

    @property
    def base(self) -> BasePoint:
        return _from_checked(BasePoint, x=self.x)

    def binding(self) -> dict:
        b = {f"x{i + 1}": v for i, v in enumerate(self.x)}
        b.update({f"p{a + 1}": v for a, v in enumerate(self.p)})
        return b


class ScalarField:
    """A scalar expression together with its derivative oracle."""

    def __init__(self, expression):
        if isinstance(expression, str):
            expression = expr.parse(expression)
        self.expression = expression

    def value(self, binding) -> float:
        return expr.evaluate(self.expression, binding)

    def jet(self, binding, wrt):
        return expr.eval_jet2(self.expression, binding, wrt)

    def __str__(self) -> str:
        return str(self.expression)


@dataclass(frozen=True)
class StructureReport:
    max_residual_eq1: float
    max_residual_eq2: float
    passed: bool


def _as_expression(e):
    return expr.parse(e) if isinstance(e, str) else e


def _closed(expressions) -> bool:
    return not any(expr.free_variables(e) for e in expressions)


def contract(C: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(C·p)[a, b] = C^g_ab p_g, the structure array contracted with a
    covector on its upper index; trailing axes, as in dC, are kept."""
    return (p @ C.reshape(len(p), -1)).reshape(C.shape[1:])


class LieAlgebroid:
    """Local-coordinate Lie algebroid: base dimension ``m``, rank ``n``,
    anchor matrix ``rho[i][alpha]`` and structure functions stored only for
    ``alpha < beta`` (the full array is antisymmetrized on read, so the
    antisymmetry of the bracket cannot be violated by construction).

    The anchor jet (rho, drho) and the structure jet (C, dC) are each
    evaluated once here if no entry depends on x, else on every call.
    """

    def __init__(self, m: int, n: int, anchor, structure):
        self.m = int(m)
        self.n = int(n)
        if len(anchor) != self.m or any(len(row) != self.n for row in anchor):
            raise ValueError(f"anchor must be {m}x{n} expressions")
        self.anchor = [[_as_expression(e) for e in row] for row in anchor]
        self.structure = {}
        for (g, a, b), e in dict(structure).items():
            if not (0 <= g < self.n and 0 <= a < b < self.n):
                raise ValueError(f"bad structure index {(g, a, b)} (need alpha < beta)")
            self.structure[(g, a, b)] = _as_expression(e)
        self._x = base_names(self.m)
        self._rho_entries = {
            (i, a): e for i, row in enumerate(self.anchor) for a, e in enumerate(row)
        }
        self._anchor_jet = self._structure_jet = None
        if _closed(self._rho_entries.values()):
            self._anchor_jet = self._jets(self._rho_entries, (self.m, self.n), {})
        if _closed(self.structure.values()):
            self._structure_jet = self._structure_jet_from({})
        self.constant = self._anchor_jet is not None and self._structure_jet is not None

    def _jets(self, entries: dict, shape: tuple, binding):
        """Values at ``binding`` of ``entries`` (index -> expression) in an
        array of ``shape``, and their x-gradients in one of ``shape + (m,)``."""
        val = np.zeros(shape)
        grad = np.zeros(shape + (self.m,))
        for idx, e in entries.items():
            v, g, _ = expr.eval_jet2(e, binding, self._x)
            val[idx] = v
            grad[idx] = g
        return val, grad

    def _structure_jet_from(self, binding):
        n = self.n
        C, dC = self._jets(self.structure, (n, n, n), binding)
        # only alpha < beta is filled, so each difference is v - 0 or 0 - v
        return C - C.transpose(0, 2, 1), dC - dC.transpose(0, 2, 1, 3)

    # -- pointwise evaluation ------------------------------------------

    def anchor_at(self, x: BasePoint) -> np.ndarray:
        """Anchor matrix rho[i, alpha], shape (m, n)."""
        return self.anchor_jet_at(x)[0]

    def anchor_jet_at(self, x: BasePoint):
        """(rho, drho) with drho[i, alpha, j] = d rho^i_alpha / d x^j."""
        if self._anchor_jet is not None:
            return self._anchor_jet
        return self._jets(self._rho_entries, (self.m, self.n), x.binding())

    def structure_at(self, x: BasePoint) -> np.ndarray:
        """Structure array C[gamma, alpha, beta], antisymmetric in (alpha, beta)."""
        return self.structure_jet_at(x)[0]

    def structure_jet_at(self, x: BasePoint):
        """(C, dC) with dC[gamma, alpha, beta, i] = d C^gamma_ab / d x^i."""
        if self._structure_jet is not None:
            return self._structure_jet
        return self._structure_jet_from(x.binding())

    # -- structure equations -------------------------------------------

    def validate_structure(self, points, tol: float) -> StructureReport:
        """Check both structure equations at the given sample points."""
        if not points:
            raise ValueError("need at least one sample point")
        r1 = 0.0
        r2 = 0.0
        for pt in points:
            rho, drho = self.anchor_jet_at(pt)
            C, dC = self.structure_jet_at(pt)
            # eq1: rho^j_a d_j rho^i_b - rho^j_b d_j rho^i_a = rho^i_g C^g_ab
            lhs = np.einsum("ja,ibj->iab", rho, drho)
            lhs = lhs - lhs.transpose(0, 2, 1)
            rhs = np.einsum("ig,gab->iab", rho, C)
            if lhs.size:
                r1 = max(r1, float(np.abs(lhs - rhs).max()))
            # eq2: cyclic sum over (a,b,g) of rho^i_a d_i C^d_bg + C^d_an C^n_bg
            T = np.einsum("ia,dbgi->dabg", rho, dC) + np.einsum(
                "dan,nbg->dabg", C, C
            )
            cyc = T + T.transpose(0, 2, 3, 1) + T.transpose(0, 3, 1, 2)
            if cyc.size:
                r2 = max(r2, float(np.abs(cyc).max()))
        return StructureReport(r1, r2, passed=(r1 <= tol and r2 <= tol))

    # -- differential calculus -----------------------------------------

    def d_function(self, f: ScalarField, x: BasePoint) -> np.ndarray:
        """Coefficients of the exterior differential of ``f`` in the dual
        frame: (df/dx^i rho^i_alpha)_alpha."""
        _, grad, _ = f.jet(x.binding(), self._x)
        return grad @ self.anchor_at(x)

    def d_one_section(self, theta, x: BasePoint) -> np.ndarray:
        """Exterior differential of the 1-section ``theta`` (n expressions
        of x) as an exactly antisymmetric coefficient matrix M[beta, gamma].

        Convention: M is the full antisymmetrization in (beta, gamma) of
        d theta_gamma/dx^i rho^i_beta - (1/2) theta_alpha C^alpha_bg.
        """
        theta = [_as_expression(t) for t in theta]
        if len(theta) != self.n:
            raise ValueError(f"theta must have {self.n} components")
        vals, grads = self._jets(dict(enumerate(theta)), (self.n,), x.binding())
        rho = self.anchor_at(x)
        C = self.structure_at(x)
        a_mat = grads @ rho  # a[gamma, beta] = d theta_g / dx^i rho^i_b
        raw = a_mat.T - 0.5 * contract(C, vals)
        return 0.5 * (raw - raw.T)

    def poisson_bracket(self, F: ScalarField, G: ScalarField, pt: DualPoint) -> float:
        """Linear Poisson bracket on the dual bundle:
        {F,G} = rho^i_a (dF/dx^i dG/dp_a - dG/dx^i dF/dp_a)
                - C^g_ab p_g dF/dp_a dG/dp_b.
        """
        names = self._x + momentum_names(self.n)
        b = pt.binding()
        _, gF, _ = F.jet(b, names)
        _, gG, _ = G.jet(b, names)
        Fx, Fp = gF[: self.m], gF[self.m :]
        Gx, Gp = gG[: self.m], gG[self.m :]
        rho = self.anchor_at(pt.base)
        C = self.structure_at(pt.base)
        first = float(Fx @ rho @ Gp - Gx @ rho @ Fp)
        second = float(Fp @ contract(C, pt.p) @ Gp)
        return first - second


class Subbundle:
    """Constant-rank subbundle of the fiber, presented by a spanning map
    x -> n x r matrix whose columns span U(x)."""

    def __init__(self, parent: LieAlgebroid, r: int, span, adapted: bool = False):
        self.parent = parent
        self.r = int(r)
        n = parent.n
        if not (0 <= self.r <= n):
            raise ValueError(f"rank must be in [0, {n}]")
        if adapted:
            span = [
                [("1" if a == c else "0") for c in range(self.r)] for a in range(n)
            ]
        if len(span) != n or any(len(row) != self.r for row in span):
            raise ValueError(f"span must be {n}x{r} expressions")
        self.span = [[_as_expression(e) for e in row] for row in span]
        self.adapted = bool(adapted)
        self._fixed = None
        if _closed(e for row in self.span for e in row):
            self._fixed = self._decompose({})

    @classmethod
    def full(cls, parent: LieAlgebroid) -> "Subbundle":
        return cls(parent, parent.n, None, adapted=True)

    @classmethod
    def adapted_rank(cls, parent: LieAlgebroid, r: int) -> "Subbundle":
        return cls(parent, r, None, adapted=True)

    def _span(self, binding) -> np.ndarray:
        return np.array([[expr.evaluate(e, binding) for e in row] for row in self.span])

    def _decompose(self, binding):
        """(S, W, s): the span at ``binding``, the left factor of its full
        SVD and its singular values."""
        S = self._span(binding)
        if self.r == 0:
            return S, np.eye(self.parent.n), np.zeros(0)
        W, s, _ = np.linalg.svd(S, full_matrices=True)
        return S, W, s

    def span_at(self, x: BasePoint) -> np.ndarray:
        if self._fixed is not None:
            return self._fixed[0]
        return self._span(x.binding())

    def _frames(self, x: BasePoint, tol: float):
        """(S, Q, Qc): the span at x and orthonormal bases of U(x) and of
        its complement, once the numerical rank is checked against tol."""
        S, W, s = self._fixed if self._fixed is not None else self._decompose(x.binding())
        smax = s[0] if s.size else 0.0
        rank = int(np.sum(s > tol * max(smax, 1.0)))
        if rank != self.r:
            raise RankDeficient(
                f"span has numerical rank {rank}, expected {self.r} at x={x.x}"
            )
        return S, W[:, : self.r], W[:, self.r :]

    def annihilator(self, x: BasePoint, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
        """(n - r) orthonormal covectors spanning the annihilator (rows)."""
        return self._frames(x, tol)[2].T

    def completion(self, x: BasePoint, tol: float = DEFAULT_RANK_TOL) -> np.ndarray:
        """Orthonormal n x n frame whose first r columns span U(x)."""
        _, Q, Qc = self._frames(x, tol)
        return np.hstack([Q, Qc])

    def member(self, x: BasePoint, v, tol: float = DEFAULT_RANK_TOL) -> bool:
        v = np.asarray(v, dtype=float)
        return self.member_distance(x, v, tol) <= tol * (1.0 + np.linalg.norm(v))

    def member_distance(self, x: BasePoint, v, tol: float = DEFAULT_RANK_TOL) -> float:
        v = np.asarray(v, dtype=float)
        Q = self._frames(x, tol)[1]
        return float(np.linalg.norm(v - Q @ (Q.T @ v)))

    def member_annihilator(self, x: BasePoint, xi, tol: float = DEFAULT_RANK_TOL) -> bool:
        xi = np.asarray(xi, dtype=float)
        return self.annihilator_residual(x, xi, tol) <= tol * (
            1.0 + np.linalg.norm(xi)
        )

    def annihilator_residual(
        self, x: BasePoint, xi, tol: float = DEFAULT_RANK_TOL
    ) -> float:
        """Largest pairing of ``xi`` with the spanning columns of U(x)."""
        xi = np.asarray(xi, dtype=float)
        S = self._frames(x, tol)[0]
        if S.shape[1] == 0:
            return 0.0
        return float(np.abs(xi @ S).max())
