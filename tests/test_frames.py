"""Change-of-basis oracle: a model written in another constant frame of its
fiber gives the same motion.

A constant invertible T, block-diagonal on U and its complement, takes the
frame e to e' = e T, so velocities change as y = T y', momenta as
p' = T^T p, and the data as rho' = rho T, C'(a, b) = T^-1 C(T a, T b) and
L'(x, y') = L(x, T y').  Each built-in bracket table is sparse; the
transformed one is dense, so the C·p loop runs over every entry here."""

import numpy as np
import pytest

from algmech import expr
from algmech.algebroid import BasePoint, DualPoint
from algmech.config import bundle_from_config, bundle_to_config
from algmech.dynamics import integrate
from algmech.errors import Degenerate
from algmech.models import get_model

MODELS = ["suslov", "rigid-body", "affine-rank2", "pendulum"]


def _block(rng, k: int) -> np.ndarray:
    """A seeded k x k matrix with singular values in [1, 3]."""
    Q1, _ = np.linalg.qr(rng.standard_normal((k, k)))
    Q2, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return Q1 @ np.diag(rng.uniform(1.0, 3.0, size=k)) @ Q2


def frame(n: int, r: int, seed: int) -> np.ndarray:
    """T, block-diagonal on the first r coordinates (U) and the rest."""
    rng = np.random.default_rng(seed)
    T = np.zeros((n, n))
    T[:r, :r] = _block(rng, r)
    T[r:, r:] = _block(rng, n - r)
    assert np.linalg.cond(T) <= 10.0
    return T


def _combination(terms) -> expr.Expression:
    """sum c * e over the (c, e) pairs of ``terms``, as an expression."""
    out = None
    for c, e in terms:
        t = expr.BinOp("*", expr.Num(c), e)
        out = t if out is None else expr.BinOp("+", out, t)
    return out if out is not None else expr.Num(0.0)


def _substitute(e, values: dict):
    """``e`` with each variable named in ``values`` replaced by its expression."""
    if isinstance(e, expr.Var):
        return values.get(e.name, e)
    if isinstance(e, expr.BinOp):
        return expr.BinOp(e.op, _substitute(e.lhs, values), _substitute(e.rhs, values))
    if isinstance(e, expr.Pow):
        return expr.Pow(_substitute(e.base, values), e.exponent)
    if isinstance(e, expr.Fun):
        return expr.Fun(e.name, _substitute(e.arg, values))
    if isinstance(e, expr.Neg):
        return expr.Neg(_substitute(e.arg, values))
    return e


def transformed(bundle, T: np.ndarray):
    """The config of ``bundle`` in the frame e T, built again from its text."""
    A, Lg = bundle.system.A, bundle.system.Lg
    m, n = A.m, A.n
    assert A.constant_structure  # C' is written as float literals
    C = A.structure_at(BasePoint(np.zeros(m)))
    Cn = np.einsum("gd,dez,ea,zb->gab", np.linalg.inv(T), C, T, T)
    y = {f"y{a + 1}": _combination((T[a, b], expr.Var(f"y{b + 1}")) for b in range(n))
         for a in range(n)}
    cfg = bundle_to_config(bundle)
    cfg["anchor"] = [[str(_combination((T[a, b], row[a]) for a in range(n))) for b in range(n)]
                     for row in A.anchor]
    cfg["structure"] = {f"{g + 1},{a + 1},{b + 1}": repr(float(Cn[g, a, b]))
                        for g in range(n) for a in range(n) for b in range(a + 1, n)}
    cfg["lagrangian"] = str(_substitute(Lg.L, y))
    cfg.pop("hj_sections", None)
    return bundle_from_config(cfg, name=bundle.name + "-framed")


def _start(bundle, seed: int):
    rng = np.random.default_rng(seed)
    x0 = np.array([0.5 * (lo + hi) + 0.2 * (hi - lo) for lo, hi in bundle.box])
    return x0, rng.uniform(-0.8, 0.8, size=bundle.system.U.r)


@pytest.mark.parametrize("name", MODELS)
def test_cp_dot_in_a_dense_frame_is_the_transformed_contraction(name):
    b = get_model(name)
    A, r = b.system.A, b.system.U.r
    T = frame(A.n, r, seed=35)
    A2 = transformed(b, T).system.A
    tol = 1e-12 * np.linalg.cond(T)
    if name == "rigid-body":  # T mixes all three directions: every (g, a, b), a != b
        assert len(A2._bracket) == A.n * A.n * (A.n - 1) > len(A._bracket)
    rng = np.random.default_rng(7)
    for x, _ in [_start(b, seed) for seed in range(5)]:
        p = rng.standard_normal(A.n)
        zs = [rng.standard_normal(A.n).tolist() for _ in range(3)]
        got = np.array(A2.cp_dot(DualPoint(x, T.T @ p), zs))
        want = np.array(A.cp_dot(DualPoint(x, p), [(T @ z).tolist() for z in zs])) @ T
        assert np.abs(got - want).max() <= tol * (1.0 + np.abs(want).max())


@pytest.mark.parametrize("name", MODELS)
def test_the_framed_structure_validates(name):
    b = get_model(name)
    T = frame(b.system.A.n, b.system.U.r, seed=35)
    points = [BasePoint(x) for x, _ in (_start(b, seed) for seed in range(5))]
    rep = transformed(b, T).system.A.validate_structure(points, 1e-12 * np.linalg.cond(T))
    assert rep.passed, rep


@pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
@pytest.mark.parametrize("name", MODELS)
def test_both_integrators_give_the_same_motion_in_another_frame(name, method):
    b = get_model(name)
    n, r = b.system.A.n, b.system.U.r
    T = frame(n, r, seed=35)
    b2 = transformed(b, T)
    x0, ya0 = _start(b, seed=3)
    want = integrate(b.system, (x0, ya0), 1e-2, 0.5, method=method)
    got = integrate(b2.system, (x0, np.linalg.solve(T[:r, :r], ya0)), 1e-2, 0.5, method=method)
    assert len(got.states) == len(want.states) == 51
    tol = 1e-12 * np.linalg.cond(T)
    Tinv_t = np.linalg.inv(T).T
    for s2, s in zip(got.states, want.states):
        for a, c in ((s2.x, s.x), (T @ s2.y, s.y), (Tinv_t @ s2.p, s.p)):
            assert np.abs(a - c).max(initial=0.0) <= tol * (1.0 + np.abs(c).max(initial=0.0))


def test_a_degenerate_lagrangian_stays_degenerate_in_another_frame():
    b = get_model("degenerate-demo")
    T = frame(b.system.A.n, b.system.U.r, seed=35)
    x0, ya0 = _start(b, seed=3)
    with pytest.raises(Degenerate):
        integrate(transformed(b, T).system, (x0, ya0), 1e-2, 0.5)
