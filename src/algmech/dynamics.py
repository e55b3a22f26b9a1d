"""Constrained implicit dynamics of a Lagrangian on a Lie algebroid with
a velocity subbundle U: pointwise residual evaluation, an explicit
fourth-order integrator on the adapted reduction, an implicit midpoint
integrator that carries the momentum constraint (Newton's method with the
exact Jacobian and a halving line search), and energy monitoring.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from . import expr
from .algebroid import (
    BasePoint,
    LieAlgebroid,
    Subbundle,
    _Carrier,
    _distances,
    _finite_vector,
    _norm,
    _Record,
    contract,
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
    m, jet = sys.A.m, sys.Lg._flat
    grads = np.array([jet([*st.x.tolist(), *st.y.tolist()])[1] for st in states])
    data = [_point_data(sys, BasePoint._trusted(x=st.x)) for st in states]
    along = _along(sys, BasePoint._trusted(x=states[0].x), data)
    Y, P = np.array([st.y for st in states]), np.array([st.p for st in states])
    rows = _residual_rows(along, Y, P, xdots, pdots, grads[:, :m], grads[:, m:])
    per_state = zip(*(a.tolist() for a in rows))
    return [ResidualReport(*r, all(v <= tol for v in r)) for r in per_state]  # nan fails


def _residual_rows(along, Y, P, Xdot, Pdot, Lx, Ly) -> tuple:
    """(r_U, r_kin, r_leg, r_mom) of each row, with along = (rho, C, S, Q)."""
    rho, C, S, Q = along
    Yc, Lxc = Y[:, :, None], Lx[:, :, None]  # the rows as columns
    force = Pdot + (contract(C, P) @ Yc)[:, :, 0] - (np.swapaxes(rho, -1, -2) @ Lxc)[:, :, 0]
    r_mom = _row_max(force[:, None, :] @ S)
    return _distances(Q, Y), _row_max(Xdot - (rho @ Yc)[:, :, 0]), _row_max(P - Ly), r_mom


def _row_max(a: np.ndarray) -> np.ndarray:
    """max |a[k]| of each entry of a stack, 0 where it is empty."""
    return np.abs(a).reshape(len(a), -1).max(axis=1, initial=0.0)


def _point_data(sys: ImplicitSystem, x: BasePoint) -> tuple:
    """(rho, C, S, Q) at x, None where constant; Q is an orthonormal basis
    of U(x) once U's rank is checked there."""
    A, U = sys.A, sys.U
    S, Q = (None, None) if U.constant else U._frames(x)[:2]
    rho = None if A.constant_anchor else A.anchor_at(x)
    return rho, None if A.constant_structure else A.structure_at(x), S, Q


def _along(sys: ImplicitSystem, x0: BasePoint, data: list) -> tuple:
    """(rho, C, S, Q) along a curve from x0: the rows of ``data`` stacked
    where they depend on x, else the constant array, which broadcasts."""
    A, U = sys.A, sys.U
    rho, C, S, Q = (None if c[0] is None else np.array(c) for c in zip(*data))
    if U.constant:
        S, Q = U._frames(x0)[:2]
    rho = A.anchor_at(x0) if rho is None else rho
    return rho, A.structure_at(x0) if C is None else C, S, Q


def _sup_norm(v: list) -> float:
    """max |v_i| of a float list as numpy gives it: 0 when empty, nan when
    any entry is nan."""
    if any(map(math.isnan, v)):
        return math.nan
    return max(map(abs, v), default=0.0)


def _adapted_field(sys: ImplicitSystem):
    """Right-hand side of the adapted reduction as a function q -> (qdot,
    p) on Python floats, at q = (x, ya), the base point followed by the
    U-components of the velocity, with p the full Legendre image.

    The function is straight-line source, emitted and compiled once per
    Lagrangian and rank of U on first use and kept on the Lagrangian
    beside its compiled jet.  Each call here binds it to a fresh cache of
    the inverse restricted velocity Hessian."""
    if not sys.U.adapted:
        raise ValueError("explicit path needs the subbundle in adapted form")
    return _emitted(sys.Lg, "rk4", sys.U.r, _emit_field)()


def _emitted(Lg: Lagrangian, method: str, r: int, emit):
    """What ``emit(Lg, r)`` compiles for ``method`` on a rank-r U: made on
    first use and kept on the Lagrangian."""
    bind = Lg._fields.get((method, r))
    if bind is None:
        bind = Lg._fields[method, r] = emit(Lg, r)
    return bind


def _compiled(head: list, body: list, tail: str, label: str, ns: dict):
    """``_bind`` run in the namespace ``ns`` from the lines of ``head``,
    which end in the ``def`` of an inner function, that function's
    ``body`` and the ``tail`` line after it; the same source text is
    compiled once per process (``expr._code``)."""
    src = "\n".join([*head, *(f"        {t}" for t in body), tail])
    exec(expr._code(src, label), ns)
    return ns["_bind"]


def _dot(u: list, v: list) -> str:
    """Source of ``sum(map(mul, u, v))`` over the terms of u and v: a
    literal left fold from the int 0 up to two products, and ``sum`` itself
    from three on, since Python 3.12 and later compensate its rounding."""
    products = [f"{a} * {b}" for a, b in zip(u, v)]
    if len(products) < 3:
        return " + ".join(["0", *products])
    return f"sum(({', '.join(products)}))"


def _packed(h: str, k: int):
    """Source of the (j, l) entry of the packed upper-triangle Hessian
    ``h`` over k variables, as a function of (j, l)."""
    index = {jl: i for i, jl in enumerate(expr._pairs(k))}
    return lambda j, l: f"{h}[{index[min(j, l), max(j, l)]}]"


def _inverse(key: tuple, r: int) -> list:
    """Rows of the inverse of the restricted velocity Hessian given row by
    row in ``key``, once it is finite and its condition is below the limit."""
    if not all(map(math.isfinite, key)):
        raise EvaluationFault("non-finite derivative result")
    M = np.array(key).reshape(r, r)
    s = np.linalg.svd(M, compute_uv=False)
    cond = np.inf if s[-1] == 0.0 else s[0] / s[-1]
    if cond >= HESSIAN_CONDITION_LIMIT:
        raise Degenerate(f"restricted velocity Hessian has condition number {cond:.3g}")
    return np.linalg.inv(M).tolist()


def _algebroid_source(A: LieAlgebroid, r: int, x: str, jets: bool) -> tuple:
    """(reads, rho, drho, terms): the source of the anchor and bracket on
    the first r sections for a kernel at the base point with float list
    ``x``.  rho[i][a] is rho^i_a and drho[i][a] its x-derivatives; terms
    are (a, b, g, C^g_ab, its x-derivatives) over ``A._bracket``, the table
    ``cp_dot`` sums over, with a, b < r.  Constant data is float literals
    with no derivatives; data that depends on x is subscripts into the flat
    tuples made by the lines of ``reads``, one ``*_jet_at(x)`` call each
    (derivatives if ``jets``)."""
    m, n, reads = A.m, A.n, []
    read = lambda v, data: (f"{v}, d{v} = A.{data}_jet_at({x})" if jets
                            else f"{v} = A.{data}_jet_at({x})[0]")
    d = lambda v, k: [f"d{v}[{k * m + j}]" for j in range(m if jets else 0)]
    if A.constant_anchor:
        rho = [[repr(v) for v in row[:r]] for row in A._anchor_jet[0].tolist()]
        drho = [[[]] * r for _ in range(m)]
    else:
        reads += [read("rho", "anchor")] * bool(r)
        rho = [[f"rho[{i * n + a}]" for a in range(r)] for i in range(m)]
        drho = [[d("rho", i * n + a) for a in range(r)] for i in range(m)]
    C = A._structure_flat
    terms = [(a, b, g, repr(C[0][k]), []) if C else (a, b, g, f"C[{k}]", d("C", k))
             for a, b, g, k in A._bracket if max(a, b) < r]
    reads += [read("C", "structure")] * bool(terms and not C)
    return reads, rho, drho, terms


def _emit_field(Lg: Lagrangian, r: int):
    """The adapted field of ``Lg`` on a rank-r adapted U, compiled from
    source as a function that returns it bound to a fresh inverse cache.

    The anchor and bracket are the tokens of :func:`_algebroid_source`,
    read as float tuples where they depend on x.  Every contraction keeps
    the term order of ``sum(map(mul, row, v))``."""
    A = Lg.algebroid
    m, n = A.m, A.n
    q, s = [f"q{k}" for k in range(m + r)], [f"s{a}" for a in range(r)]
    ya, xd = q[m:], [f"xd{i}" for i in range(m)]
    hess = _packed("h", m + n)
    binding = ", ".join(f"{k!r}: {v}" for k, v in zip(Lg._names, q + ["0.0"] * (n - r)))
    body = ["nonlocal key, inv"] + ([f"{', '.join(q)}, = q"] if q else [])
    body += ["try:", f"    _, g, h = raw({{{binding}}})",
             "except (ZeroDivisionError, ValueError, OverflowError) as exc:",
             "    raise EvaluationFault(str(exc)) from exc"]
    reads, rho, _, terms = _algebroid_source(A, r, "xs", jets=False)
    check = [f"xs = q[:{m}]", "if not all(map(isfinite, xs)):", "    _finite_vector(xs, 'x')"]
    body += check * bool(reads) + reads  # rho and C are read only at a finite x
    body += [f"{xd[i]} = {_dot(rho[i], ya)}" for i in range(m)]
    # momentum equation on U: -C^g_ab p_g y^b + rho^i_a dL/dx^i, less the
    # mixed Hessian term that d/dt of dL/dy carries over
    terms = [(a, f"g[{m + gm}] * {c} * {ya[b]}") for a, b, gm, c, _ in terms]
    rhs = [" - ".join(["0.0"] + [t for a2, t in terms if a2 == a]) for a in range(r)]
    if m:
        g = [f"g[{i}]" for i in range(m)]
        rhs = [f"{t} + ({_dot([row[a] for row in rho], g)})"
               f" - ({_dot([hess(i, m + a) for i in range(m)], xd)})" for a, t in enumerate(rhs)]
    body += [f"{v} = {t}" for v, t in zip(s, rhs)]
    ydot = []
    if r:
        inv = [[f"i{a}_{b}" for b in range(r)] for a in range(r)]
        key = ", ".join(hess(m + a, m + b) for a in range(r) for b in range(r))
        body += [f"k = ({key},)", "if k != key:", f"    inv, key = _inverse(k, {r}), k",
                 ", ".join(f"({', '.join(row)},)" for row in inv) + ", = inv"]
        ydot = [_dot(row, s) for row in inv]
    body.append(f"return [{', '.join(xd + ydot)}], g[{m}:]")
    head = ["def _bind():", "    key = inv = None", "    def field(q):"]
    ns = dict(raw=Lg._jet.raw, A=A, isfinite=math.isfinite, EvaluationFault=EvaluationFault,
              _finite_vector=_finite_vector, _inverse=_inverse)
    return _compiled(head, body, "    return field", "adapted field", ns)


def adapted_rhs(sys: ImplicitSystem, x, ya):
    """Explicit field of the reduced equations at (x, y) with the
    complementary velocity components pinned to zero; returns
    (xdot, ydot_a, p) with p the full Legendre image."""
    m = sys.A.m
    x = _components(x, m, "x")
    ya = _components(ya, sys.U.r, "ya")
    qdot, p = _adapted_field(sys)([*x.tolist(), *ya.tolist()])
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
    return _rk4_kernel(len(q))(f, q, k1, h)


@functools.cache
def _rk4_kernel(M: int):
    """:func:`_rk4_step` on M floats as straight-line source, emitted and
    compiled on first use; at M = 0 it still calls f three times."""
    q, a, b, c, d = ([f"{v}{i}" for i in range(M)] for v in "qabcd")
    vec = lambda terms: f"[{', '.join(terms)}]"
    stage = lambda hs, k: f"f({vec([f'{v} + {hs} * {t}' for v, t in zip(q, k)])})"
    update = [f"{v} + h6 * ({k1} + 2.0 * {k2} + 2.0 * {k3} + {k4})"
              for v, k1, k2, k3, k4 in zip(q, a, b, c, d)]
    body = [f"{vec(q)} = q", f"{vec(a)} = k1", "hh, h6 = 0.5 * h, h / 6.0",
            f"{vec(b)} = {stage('hh', a)}", f"{vec(c)} = {stage('hh', b)}",
            f"{vec(d)} = {stage('h', c)}", f"return {vec(update)}"]
    return _compiled(["def _bind():", "    def step(f, q, k1, h):"], body,
                     "    return step", "rk4 step", {})()


def _integrate_rk4(sys: ImplicitSystem, x0, ya0, h, T) -> Trajectory:
    field = _adapted_field(sys)
    qdot = lambda v: field(v)[0]
    N = _steps(h, T)
    m = sys.A.m
    q = [*x0.tolist(), *ya0.tolist()]
    qs, ps = [], []
    where = lambda k: f"in the RK4 step from t={k * h:g} at x={np.array(qs[k][:m])}"
    try:
        for _ in range(N):
            qs.append(q)
            k1, p = field(q)
            ps.append(p)
            q = _rk4_step(qdot, q, k1, h)
        qs.append(q)
        ps.append(field(q)[1])
    except Degenerate as exc:  # a solution that blows up in finite time ends here: say where
        raise Degenerate(f"{exc} {where(len(qs) - 1)}") from exc
    pad = [0.0] * (sys.A.n - sys.U.r)
    try:
        states = State.stack([q[:m] for q in qs], [q[m:] + pad for q in qs], ps)
    except NonFinite:  # a nan or inf the field read unchecked: name the step that made it
        for k, (q, p) in enumerate(zip(qs, ps)):
            try:
                State(q[:m], q[m:] + pad, p)
            except NonFinite as exc:
                raise NonFinite(f"{exc} {where(max(k - 1, 0))}") from exc
        raise
    return Trajectory(np.arange(N + 1) * h, states, h, "rk4")


def _midpoint_step(sys: ImplicitSystem, h: float):
    """One implicit-midpoint step of size h as ``(prev, u) -> (F, jacobian)``
    on float lists: the residual F = (kin, mom, leg) at the end state
    u = (x1, ya1, p1) from prev = (x0, ya0, p0), and ``jacobian()``, the
    exact dF/du as float rows built from the same jets.

    The step is straight-line source, emitted and compiled once per
    Lagrangian and rank of U on first use and kept on the Lagrangian
    beside the adapted field; h is bound here."""
    return _emitted(sys.Lg, "implicit_midpoint", sys.U.r, _emit_midpoint)(sys.Lg, h)


def _emit_midpoint(Lg: Lagrangian, r: int):
    """The midpoint step of ``Lg`` on a rank-r adapted U, compiled from
    source as a function of (Lg, h) that returns it.

    Each residual makes its two ``Lg.jet`` calls on float lists, at the
    midpoint and at the end point.  F and J, x-derivative blocks included,
    are emitted from the jets' packed tuples and the tokens of
    :func:`_algebroid_source` at the midpoint.  Every contraction keeps the
    term order of ``sum(map(mul, row, v))``, and every entry of J is its
    live part plus the entry of the constant blocks (I/h, -rho/2, I),
    which keeps the signs of zeros."""
    A = Lg.algebroid
    m, n = A.m, A.n
    names = lambda s, size: [f"{s}{i}" for i in range(size)]
    x0, y0, p0 = names("x0_", m), names("y0_", r), names("p0_", n)
    x1, y1, p1 = names("x1_", m), names("y1_", r), names("p1_", n)
    xm, ym, pm = names("xm", m), names("ym", r), names("pm", n)
    lx, ly = [f"gm[{i}]" for i in range(m)], [f"g1[{m + g}]" for g in range(n)]
    hm, h1 = _packed("hm", m + n), _packed("h1", m + n)
    pad = ["0.0"] * (n - r)
    vec = lambda terms: f"[{', '.join(terms)}]"
    start, end, mid = x0 + y0 + p0, x1 + y1 + p1, xm + ym + pm
    body = [f"{', '.join(start)}, = prev", f"{', '.join(end)}, = u"] if start else []
    body += [f"{c} = 0.5 * ({a} + {b})" for a, b, c in zip(start, end, mid)]
    if m + r:
        body += [f"if not all(map(isfinite, ({', '.join(xm + ym + x1 + y1)},))):"]
        body += [f"    _finite_vector({vec(v)}, {s!r})"
                 for s, v in (("x", xm), ("y", ym + pad), ("x", x1), ("y", y1 + pad)) if v]
    reads, rho, drho, terms = _algebroid_source(A, r, "xs", jets=True)
    body += [f"xs = {vec(xm)}"] * bool(reads) + reads  # one list for both reads
    rho_cols = [[row[a] for row in rho] for a in range(r)]
    # (C·p)_ab (k = 0) and its x^k-derivatives, and C^g_ab y^b, at the
    # midpoint, each summed term by term from 0.0, or "0.0" with no term
    fold = lambda ts: f"({' + '.join(['0.0', *ts])})" if ts else "0.0"
    cpk = lambda a, b, k: fold([f"{pm[g]} * {[c, *dc][k]}" for a2, b2, g, c, dc in terms
                                if (a2, b2) == (a, b) and k <= len(dc)])
    cp = [[cpk(a, b, 0) for b in range(r)] for a in range(r)]
    cy = [[fold([f"{c} * {ym[b]}" for a2, b, g2, c, _ in terms if (a2, g2) == (a, g)])
           for g in range(n)] for a in range(r)]
    body += [f"cp{a}_{b} = {cp[a][b]}" for a, b in np.ndindex(r, r) if cp[a][b] != "0.0"]
    cp = [[f"cp{a}_{b}" if cp[a][b] != "0.0" else "0.0" for b in range(r)] for a in range(r)]
    body += [f"_, gm, hm = Lg.jet({vec(xm + ym + pad)})",
             f"_, g1, h1 = Lg.jet({vec(x1 + y1 + pad)})"]
    F = [f"({x1[i]} - {x0[i]}) / h - ({_dot(rho[i], ym)})" for i in range(m)]
    F += [f"({p1[a]} - {p0[a]}) / h + ({_dot(cp[a], ym)}) - ({_dot(rho_cols[a], lx)})"
          for a in range(r)]
    F += [f"{p1[g]} - {ly[g]}" for g in range(n)]
    # J: rows kin | mom | leg over columns x1 | ya1 | p1
    sparse = lambda pairs: f"({_dot(*zip(*pairs))})" if pairs else "0.0"  # of the terms there are

    def dx(a, j):  # d(C·p y - rho^T dL/dx)/dx1^j through rho and C, from 0.0
        dl = sparse([(v, d[a][j]) for v, d in zip(lx, drho) if d[a]])
        dc = sparse([(v, t) for b, v in enumerate(ym) if (t := cpk(a, b, 1 + j)) != "0.0"])
        t = "0.0" if dl == "0.0" else f"(0.0 - {dl})"
        return t if dc == "0.0" else f"({t} + {dc})"
    # the columns of d2L/dx d(x, ya) at the midpoint, less rho^T times them
    hcols = [[hm(j, i) for i in range(m)] for j in range(m + r)]
    diag = lambda i, j, one: one if i == j else "0.0"
    rows = []
    for i in range(m):
        dr = [sparse([(v, d[j]) for v, d in zip(ym, drho[i]) if d]) for j in range(m)]
        rows.append([diag(i, j, "ih") if t == "0.0" else f"-0.5 * {t} + {diag(i, j, 'ih')}"
                     for j, t in enumerate(dr)] + [f"-0.5 * {t} + 0.0" for t in rho[i]])
        rows[-1] += ["0.0"] * n
    for a in range(r):
        live = [f"{d} - ({_dot(rho_cols[a], hc)})" if m else d
                for d, hc in zip([dx(a, j) for j in range(m)] + cp[a], hcols)]
        rows.append(["0.0" if t == "0.0" else f"0.5 * ({t}) + 0.0" for t in live]
                    + [diag(a, g, "ih") if cy[a][g] == "0.0"
                       else f"0.5 * {cy[a][g]} + {diag(a, g, 'ih')}" for g in range(n)])
    for g in range(n):
        rows.append([f"-{h1(i, m + g)} + 0.0" for i in range(m)]
                    + [f"-{h1(m + g, m + a)} + 0.0" for a in range(r)]
                    + [diag(g, l, "1.0") for l in range(n)])
    body += ["def jacobian():", f"    return [{', '.join(map(vec, rows))}]",
             f"return {vec(F)}, jacobian"]
    head = ["def _bind(Lg, h):", "    A, ih = Lg.algebroid, 1.0 / h", "    def step(prev, u):"]
    ns = dict(isfinite=math.isfinite, _finite_vector=_finite_vector)
    return _compiled(head, body, "    return step", "midpoint step", ns)


@functools.cache
def _newton_kernel(m: int, r: int, n: int):
    """The Newton step ``delta(F, J)`` = -J^-1 F as straight-line source,
    emitted and compiled on first use for J's shape.  J's rows are (kin,
    mom, leg) over the columns (q, p1), q = (x1, ya1); its Legendre rows
    are exactly [L | I], L = -H1 over q, and its kinematic rows have no p1
    columns.  So dp = -F_leg - L dq drops out through the identity block,
    and (A - B L) dq = B F_leg - F_top, A and B the other rows over q and
    p1, is solved by elimination with partial pivoting: a row swap wherever
    a later row's entry is strictly larger in magnitude, so ties keep the
    first row, as in LAPACK.  A pivot that is exactly 0.0 raises
    ZeroDivisionError."""
    s = m + r
    tup = lambda v: f"({', '.join(v)},)"
    dot = lambda u, v: " + ".join(map("{} * {}".format, u, v)) or "0.0"
    a = [[f"a{i}_{j}" for j in range(s)] + [f"c{i}"] for i in range(s)]  # [A - B L | rhs]
    b = [[f"b{i}_{g}" if i >= m else "_" for g in range(n)] for i in range(s)]
    lg, f = [[f"l{g}_{j}" for j in range(s)] for g in range(n)], [f"f{i}" for i in range(s + n)]
    rows = [row[:s] + bi for row, bi in zip(a, b)] + [row + ["_"] * n for row in lg]
    body = [f"{tup(map(tup, rows))} = J", f"{tup(f)} = F"] if f else []
    body += [f"{a[i][s]} = -{f[i]}" for i in range(m)]
    for i in range(m, s):  # a momentum row less B times the Legendre rows
        body += [f"{v} = {v} - ({dot(b[i], col)})" for v, col in zip(a[i], zip(*lg))]
        body.append(f"{a[i][s]} = ({dot(b[i], f[s:])}) - {f[i]}")
    for k in range(s):
        for i in range(k + 1, s):
            body += [f"if abs({a[i][k]}) > abs({a[k][k]}):",
                     f"    {tup(a[k][k:] + a[i][k:])} = {tup(a[i][k:] + a[k][k:])}"]
        body.append(f"d{k} = 1.0 / {a[k][k]}")
        for i in range(k + 1, s):
            body += [f"e = {a[i][k]} * d{k}"]
            body += [f"{v} = {v} - e * {w}" for v, w in zip(a[i][k + 1:], a[k][k + 1:])]
    z = [f"z{k}" for k in range(s)]
    for k in reversed(range(s)):
        terms = [a[k][s], *(f"{a[k][j]} * {z[j]}" for j in reversed(range(k + 1, s)))]
        body.append(f"{z[k]} = ({' - '.join(terms)}) * d{k}")
    dp = [f"-{fg} - ({dot(row, z)})" for fg, row in zip(f[s:], lg)]
    body.append(f"return [{', '.join(z + dp)}]")
    return _compiled(["def _bind():", "    def delta(F, J):"], body,
                     "    return delta", "midpoint step", {})()


def _newton(step, delta, prev: list, guess: list):
    """(u, |F(u)|), u the root of ``step(prev, .)`` by Newton's method from
    guess with each step halved until |F| decreases, or None and the last |F|."""
    F, jac = step(prev, guess)
    nF = _sup_norm(F)
    for _ in range(NEWTON_MAX_ITERS):
        if nF <= 1e-11 * (1.0 + _norm(guess)):
            return guess, nF
        try:
            d = delta(F, jac())
        except ZeroDivisionError:  # J is singular
            break
        t = 1.0
        while t >= 1.0 / 1024.0:
            trial = [a + t * b for a, b in zip(guess, d)]
            Ft, jac_t = step(prev, trial)
            nFt = _sup_norm(Ft)
            if nFt < nF:
                guess, F, jac, nF = trial, Ft, jac_t, nFt
                break
            t *= 0.5
        else:
            break
    return None, nF


def _integrate_midpoint(sys: ImplicitSystem, x0, ya0, h, T) -> Trajectory:
    """Midpoint steps, each solved by :func:`_newton` with the exact J; each
    Newton step eliminates p1 through J's Legendre rows and solves the
    reduced (m + r) system over (x1, ya1) (:func:`_newton_kernel`).

    Newton starts from the polynomial through the last accepted states, at
    the next step: the previous state at step 0, its linear extrapolation
    at step 1 and its quadratic one after that (Hairer & Wanner, *Solving
    ODEs II*, IV.8), O(h^3) from the root, so a step takes one iteration."""
    if not sys.U.adapted:
        raise ValueError("implicit path needs the subbundle in adapted form")
    m, n, r = sys.A.m, sys.A.n, sys.U.r
    N = _steps(h, T)
    step, delta = _midpoint_step(sys, h), _newton_kernel(m, r, n)
    y0 = np.concatenate([ya0, np.zeros(n - r)])
    e0 = [*_finite_vector(x0, "x").tolist(), *_finite_vector(y0, "y").tolist()]  # as FiberPoint
    us = [[*x0.tolist(), *ya0.tolist(), *sys.Lg.jet(e0)[1][m:]]]
    for k in range(N):
        if k >= 2:
            guess = [3.0 * (a - b) + c for a, b, c in zip(us[-1], us[-2], us[-3])]
        else:
            guess = [2.0 * a - b for a, b in zip(us[-1], us[-2])] if k else us[-1]
        u, nF = _newton(step, delta, us[-1], guess)
        if u is None:
            raise NewtonDivergence(k, nF, k * h, np.array(us[-1][:m]))
        us.append(u)
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
    """The generalized energy p·y - L of each state: L from its compiled
    jet, p·y from one stacked product whose rows are ``st.p @ st.y``."""
    jet = sys.Lg._flat
    P, Y = np.array([st.p for st in states]), np.array([st.y for st in states])
    py = (P[:, None, :] @ Y[:, :, None]).ravel().tolist()
    out = [v - jet([*st.x.tolist(), *st.y.tolist()])[0] for v, st in zip(py, states)]
    if not all(map(math.isfinite, out)):
        raise NonFinite("the generalized energy p.y - L overflowed")
    return out
