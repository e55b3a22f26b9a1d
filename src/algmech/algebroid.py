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

import contextlib
import functools
import math
from operator import mul

import numpy as np

from . import expr
from .errors import NonFinite, RankDeficient

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


@functools.cache
def base_names(m: int):
    return tuple(f"x{i + 1}" for i in range(m))


def fiber_names(n: int):
    return tuple(f"y{a + 1}" for a in range(n))


@functools.cache
def momentum_names(n: int):
    return tuple(f"p{a + 1}" for a in range(n))


def _finite_vector(v, name: str, message: str = "{} must be finite, got {}") -> np.ndarray:
    """``v`` as a flat float array: the finiteness check of every carrier.
    A nan or infinite entry raises NonFinite(message.format(name, array)),
    which is a ValueError."""
    a = np.asarray(v, dtype=float).reshape(-1)
    if not all(map(math.isfinite, a.tolist())):
        raise NonFinite(message.format(name, a))
    return a


def _as_expression(e):
    return expr.parse(e) if isinstance(e, str) else e


class _Carrier:
    """Base of the coordinate carriers.  Each subclass ``__init__`` checks
    its arrays and writes them into ``__dict__``; after that no attribute
    can be assigned or deleted."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={v!r}" for k, v in vars(self).items())
        return f"{type(self).__name__}({fields})"

    @classmethod
    def _trusted(cls, **arrays):
        """An instance over arrays another carrier checked, given in field order."""
        obj = object.__new__(cls)
        obj.__dict__.update(arrays)
        return obj


class _Record(_Carrier):
    """Base of the immutable records: the values named by ``_fields``,
    given positionally in that order, compared, hashed and printed by value."""

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} values")
        self.__dict__.update(zip(self._fields, values))

    def _values(self) -> tuple:
        return tuple(getattr(self, f) for f in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{k}={getattr(self, k)!r}" for k in self._fields)
        return f"{type(self).__name__}({fields})"


class BasePoint(_Carrier):
    def __init__(self, x):
        self.__dict__["x"] = _finite_vector(x, "x")

    def binding(self) -> dict:
        return dict(zip(base_names(len(self.x)), self.x.tolist()))


class FiberPoint(_Carrier):
    def __init__(self, x, y):
        d = self.__dict__
        d["x"] = _finite_vector(x, "x")
        d["y"] = _finite_vector(y, "y")

    @property
    def base(self) -> BasePoint:
        return BasePoint._trusted(x=self.x)


class DualPoint(_Carrier):
    def __init__(self, x, p):
        d = self.__dict__
        d["x"] = _finite_vector(x, "x")
        d["p"] = _finite_vector(p, "p")

    @property
    def base(self) -> BasePoint:
        return BasePoint._trusted(x=self.x)

    def binding(self) -> dict:
        b = dict(zip(base_names(len(self.x)), self.x.tolist()))
        b.update(zip(momentum_names(len(self.p)), self.p.tolist()))
        return b


class ScalarField:
    """A scalar expression together with its derivative oracle."""

    def __init__(self, expression):
        self.expression = _as_expression(expression)

    def value(self, binding) -> float:
        return expr.evaluate(self.expression, binding)

    def jet(self, binding, wrt):
        return expr.eval_jet2(self.expression, binding, wrt)

    def __str__(self) -> str:
        return str(self.expression)


class StructureReport(_Record):
    _fields = ("max_residual_eq1", "max_residual_eq2", "passed")


def _closed(expressions) -> bool:
    return not any(expr.free_variables(e) for e in expressions)


def _antisymmetrized(structure: dict, n: int) -> expr.Array:
    """The full structure array C[gamma, alpha, beta] in row order: the
    stored entry where alpha < beta, 0.0 minus it where alpha > beta (so
    the value keeps the sign of zero of 0.0 - v), and 0.0 elsewhere."""
    zero = expr.Num(0.0)
    full = []
    for g, a, b in np.ndindex(n, n, n):
        e = structure.get((g, min(a, b), max(a, b)), zero)
        full.append(expr.BinOp("-", zero, e) if a > b and e is not zero else e)
    return expr.Array(full)


def _stacked(jets, shape: tuple) -> tuple:
    """The flat (value, gradient) tuples of ``jets``, one pair per point,
    as arrays of shape (N,) + ``shape`` and (N,) + ``shape`` + (m,)."""
    values, grads = zip(*jets)
    values = np.array(values).reshape((-1, *shape))
    return values, np.array(grads).reshape(values.shape + (-1,))


def contract(C: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(C·p)[..., a, b] = C^g_ab p_g, the structure array C[g, a, b] contracted
    on its upper index with one covector p (n,) or a stack of rows (..., n),
    against one C or a stack of C (..., n, n, n), one per row."""
    n = p.shape[-1]
    return (p[..., None, :] @ C.reshape(C.shape[:-3] + (n, n * n))).reshape(p.shape[:-1] + (n, n))


class LieAlgebroid:
    """Local-coordinate Lie algebroid: base dimension ``m``, rank ``n``,
    anchor matrix ``rho[i][alpha]`` and structure functions stored only for
    ``alpha < beta`` (the full array is built from them by antisymmetry,
    so the antisymmetry of the bracket cannot be violated by construction).

    The anchor jet (rho, drho) and the structure jet (C, dC) are each one
    array jet call: made once here if no entry depends on x, else on every
    call.  At a list of floats x both are flat float tuples either way.
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
        self._rho_array = expr.Array(e for row in self.anchor for e in row)
        self._structure_array = _antisymmetrized(self.structure, self.n)
        self._anchor_jet = self._structure_jet = None
        if _closed(self._rho_array):
            self._anchor_jet = self._jets(self._rho_array, (self.m, self.n), {})
        if _closed(self._structure_array):
            self._structure_jet = self._jets(self._structure_array, (self.n,) * 3, {})
        self.constant_anchor = self._anchor_jet is not None
        self.constant_structure = self._structure_jet is not None
        self.constant = self.constant_anchor and self.constant_structure
        flat = lambda jet: jet and tuple(tuple(a.ravel().tolist()) for a in jet)  # the list form
        self._anchor_flat, self._structure_flat = flat(self._anchor_jet), flat(self._structure_jet)
        self._flow = None  # the emitted HJ base-flow field, see hj.base_flow
        # the bracket table of cp_dot and the emitted kernels: (alpha, beta,
        # gamma, k) in row order for each stored entry and its antisymmetric
        # twin, less the constant zeros, with C^gamma_alpha,beta = flat C[k]
        n, C = self.n, self._structure_flat
        self._bracket = tuple(sorted(
            (a, b, g, k) for k, (g, a, b) in enumerate(np.ndindex(n, n, n))
            if (g, min(a, b), max(a, b)) in self.structure and (not C or C[0][k] != 0.0)))

    def _jets(self, array, shape: tuple, binding):
        """Values at ``binding`` of ``array`` (expressions in row order) in
        an array of ``shape``, and their x-gradients in one of
        ``shape + (m,)``, from one jet call."""
        val, grad, _ = expr.eval_jet2(array, binding, self._x)
        return val.reshape(shape), grad.reshape(shape + (self.m,))

    # -- pointwise evaluation ------------------------------------------

    def anchor_at(self, x: BasePoint | list):
        """Anchor matrix rho[i, alpha], shape (m, n); at a list of the
        floats of x, its entries as one flat float tuple in row order."""
        return self.anchor_jet_at(x)[0]

    def anchor_jet_at(self, x: BasePoint | list):
        """(rho, drho) with drho[i, alpha, j] = d rho^i_alpha / d x^j; at a
        list of the floats of x, both as flat float tuples in row order."""
        if isinstance(x, list):
            return self._anchor_flat or expr.eval_jet2(self._rho_array, x, self._x)[:2]
        return self._anchor_jet or self._jets(self._rho_array, (self.m, self.n), x.binding())

    def structure_at(self, x: BasePoint | list):
        """Structure array C[gamma, alpha, beta], antisymmetric in (alpha,
        beta); at a list of the floats of x, its entries as one flat float
        tuple in row order."""
        return self.structure_jet_at(x)[0]

    def structure_jet_at(self, x: BasePoint | list):
        """(C, dC) with dC[gamma, alpha, beta, i] = d C^gamma_ab / d x^i; at
        a list of the floats of x, both as flat float tuples in row order."""
        if isinstance(x, list):
            return self._structure_flat or expr.eval_jet2(self._structure_array, x, self._x)[:2]
        return self._structure_jet or self._jets(self._structure_array, (self.n,) * 3, x.binding())

    def cp_dot(self, pt: DualPoint, zs) -> list:
        """(C·p) z on floats at the dual point ``pt`` for each float list z
        of ``zs``, summed over the bracket table from C as a flat float tuple:
        held since construction, or one list-form structure jet call at x."""
        C = (self._structure_flat or self.structure_jet_at(pt.x.tolist()))[0]
        p = pt.p.tolist()
        out = [[0.0] * self.n for _ in zs]
        for w, z in zip(out, zs):
            for a, b, g, k in self._bracket:
                w[a] += p[g] * C[k] * z[b]
        return out

    # -- structure equations -------------------------------------------

    def validate_structure(self, points, tol: float) -> StructureReport:
        """Check both structure equations at the given sample points in one
        stacked pass.  Data that depends on x is evaluated at every point
        and constant data once; a constant algebroid is checked at one
        point, since every point gives it the same residuals."""
        if not points:
            raise ValueError("need at least one sample point")
        xs = [pt.x.tolist() for pt in (points[:1] if self.constant else points)]
        rho, drho = self._anchor_jet or _stacked(map(self.anchor_jet_at, xs), (self.m, self.n))
        C, dC = self._structure_jet or _stacked(map(self.structure_jet_at, xs), (self.n,) * 3)
        # eq1: rho^j_a d_j rho^i_b - rho^j_b d_j rho^i_a = rho^i_g C^g_ab
        lhs = np.einsum("...ja,...ibj->...iab", rho, drho)
        lhs = lhs - np.swapaxes(lhs, -1, -2)
        rhs = np.einsum("...ig,...gab->...iab", rho, C)
        # eq2: cyclic sum over (a,b,g) of rho^i_a d_i C^d_bg + C^d_an C^n_bg
        T = np.einsum("...ia,...dbgi->...dabg", rho, dC) + np.einsum("...dan,...nbg->...dabg", C, C)
        cyc = T + np.moveaxis(T, -3, -1) + np.moveaxis(T, -1, -3)
        r1 = float(np.abs(lhs - rhs).max(initial=0.0))  # nan, if any, is kept
        r2 = float(np.abs(cyc).max(initial=0.0))
        return StructureReport(r1, r2, r1 <= tol and r2 <= tol)

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
        vals, grads = self._jets(tuple(theta), (self.n,), x.binding())
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

    @property
    def constant(self) -> bool:
        """Whether no span entry depends on x, so U and its rank are the
        same at every point."""
        return self._fixed is not None

    @classmethod
    def full(cls, parent: LieAlgebroid) -> "Subbundle":
        return cls(parent, parent.n, None, adapted=True)

    @classmethod
    def adapted_rank(cls, parent: LieAlgebroid, r: int) -> "Subbundle":
        return cls(parent, r, None, adapted=True)

    def _decompose(self, binding):
        """(S, Q, Qc, s): the span at ``binding``, the two column blocks of
        the left factor of its full SVD and its singular values as floats."""
        S = np.array([[expr.evaluate(e, binding) for e in row] for row in self.span])
        if self.r == 0:
            W, s = np.eye(self.parent.n), []
        else:
            W, s, _ = np.linalg.svd(S, full_matrices=True)
            s = s.tolist()
        return S, W[:, : self.r], W[:, self.r :], s

    def span_at(self, x: BasePoint) -> np.ndarray:
        """The n x r span at x, once its numerical rank is checked."""
        return self._frames(x)[0]

    def _frames(self, x: BasePoint):
        """(S, Q, Qc, s): the span at x, orthonormal bases of U(x) and of
        its complement and the singular values of S, once U's rank is
        checked at DEFAULT_RANK_TOL; every reader of U comes through here."""
        frames = self._fixed if self._fixed is not None else self._decompose(x.binding())
        s = frames[3]
        rank = sum(map((DEFAULT_RANK_TOL * max(s[0] if s else 0.0, 1.0)).__lt__, s))
        if rank != self.r:
            raise RankDeficient(
                f"span has numerical rank {rank}, expected {self.r} at x={x.x}"
            )
        return frames

    def annihilator(self, x: BasePoint) -> np.ndarray:
        """(n - r) orthonormal covectors spanning the annihilator (rows)."""
        return self._frames(x)[2].T

    def completion(self, x: BasePoint) -> np.ndarray:
        """Orthonormal n x n frame whose first r columns span U(x)."""
        _, Q, Qc, _ = self._frames(x)
        return np.hstack([Q, Qc])

    def member(self, x: BasePoint, v, tol: float = 1e-9) -> bool:
        residual = self.member_distance(x, v)
        s, bound = _scaled_bound(tol, v)
        return _passes(residual / s, bound)

    def member_distance(self, x: BasePoint, v) -> float:
        v = np.asarray(v, dtype=float)
        Q = self._frames(x)[1]
        # |Q| <= 1 entrywise: no sum below exceeds (1 + r) sum |v_a|
        with _quiet((1 + self.r) * sum(map(abs, v.tolist()))):
            return _norm(v - Q @ (Q.T @ v))

    def member_annihilator(self, x: BasePoint, xi, tol: float = 1e-9) -> bool:
        residual = self.annihilator_residual(x, xi)
        s, bound = _scaled_bound(tol, xi)
        return _passes(residual / s, bound)

    def annihilator_residual(self, x: BasePoint, xi) -> float:
        """Largest pairing of ``xi`` with the spanning columns of U(x)."""
        S, _, _, s = self._frames(x)
        xi = np.asarray(xi, dtype=float)
        # |S_ab| <= s[0]: no sum below exceeds s[0] sum |xi_a|
        with _quiet((s[0] if s else 0.0) * sum(map(abs, xi.tolist()))):
            return float(np.abs(xi @ S).max(initial=0.0))


_CALM = 1e300  # partial sums below this cannot overflow
_NO_GUARD = contextlib.nullcontext()


def _quiet(bound: float):
    """An np.errstate silencing overflow and invalid warnings in a numpy
    product whose partial sums are at most ``bound``, or, where the bound
    is below _CALM (nan and inf are not), a no-op that costs less."""
    return _NO_GUARD if bound < _CALM else np.errstate(over="ignore", invalid="ignore")


def _passes(residual: float, bound: float) -> bool:
    """Whether a residual is finite and within the bound: one that
    overflowed fails also where the bound overflowed with it, and nan fails."""
    return residual <= bound and residual != math.inf


def _scaled_bound(tol: float, v) -> tuple:
    """(s, bound) of the membership test residual / s <= bound: s = 1 and
    bound = tol·(1 + |v|), or, where that bound is not finite because |v|
    overflowed, s = max |v_i| and the same bound for v / s."""
    bound = tol * (1.0 + _norm(v))
    if math.isfinite(bound):
        return 1.0, bound
    v = np.asarray(v, dtype=float).reshape(-1).tolist()
    s = max(map(abs, v), default=0.0)
    if not 0.0 < s < math.inf:
        return 1.0, bound
    return s, tol * (1.0 / s + _norm([a / s for a in v]))


def _norm(v) -> float:
    """Euclidean norm of the vector v (an array or a sequence of numbers)
    as the square root of its float sum of squares, or math.hypot where
    the squares overflow."""
    v = v.tolist() if isinstance(v, np.ndarray) else v
    out = math.sqrt(sum(map(mul, v, v)))
    return math.hypot(*v) if out == math.inf else out


@np.errstate(over="ignore")
def _norms(V: np.ndarray) -> np.ndarray:
    """Euclidean norms of the rows of V as np.linalg.norm gives them, or
    from math.hypot where the squares overflow."""
    out = np.sqrt((V[:, None, :] @ V[:, :, None])[:, 0, 0])
    for k, v in enumerate(out.tolist()):
        if v == math.inf:
            out[k] = math.hypot(*V[k].tolist())
    return out


def _distances(Q: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Distance of each row of V from the span of the orthonormal columns
    of Q, one (n, r) frame or a stack of N."""
    return _norms(V - (Q @ (Q.swapaxes(-1, -2) @ V[:, :, None]))[:, :, 0])
