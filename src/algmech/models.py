"""Built-in systems: algebroid data, Lagrangians, velocity constraints,
candidate Hamilton–Jacobi sections, and independent classical oracles.

Every oracle is a hand-coded classical formulation (second-order ODE,
Euler equations, Lagrange-multiplier equations) written as scalar float
formulas and integrated with its own RK4 loop, sharing no code with the
adapted field, so agreement with the main integrator is evidence rather
than a tautology.
"""

from __future__ import annotations

import math

import numpy as np

from .algebroid import LieAlgebroid, Subbundle, _Record
from .dynamics import ImplicitSystem, Trajectory, _steps
from .errors import BadParams, UnknownModel
from .hj import HJSection
from .prolong import Lagrangian

__all__ = ["ModelBundle", "get_model", "oracle_trajectory", "model_names"]

# so(3) in the standard frame: bracket constants are the alternating
# symbol, stored for alpha < beta only.
SO3_STRUCTURE = {(2, 0, 1): "1", (1, 0, 2): "-1", (0, 1, 2): "1"}


class ModelBundle(_Record):
    """box: per base coordinate (lo, hi); perturb: (rng, failing) -> HJSection."""

    _fields = ("name", "system", "box", "doc", "hj_sections", "oracle", "perturb")


def _rk4(f, q0, h, N):
    """The N + 1 classical RK4 iterates of q' = f(q) on float lists."""
    q = np.asarray(q0, dtype=float).reshape(-1).tolist()
    hh, h6 = 0.5 * h, h / 6.0
    out = [q]
    for _ in range(N):
        k1 = f(q)
        k2 = f([a + hh * b for a, b in zip(q, k1)])
        k3 = f([a + hh * b for a, b in zip(q, k2)])
        k4 = f([a + h * b for a, b in zip(q, k3)])
        q = [
            a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            for a, b1, b2, b3, b4 in zip(q, k1, k2, k3, k4)
        ]
        out.append(q)
    return out


def _matvec3(M):
    """w -> M w for a 3x3 matrix, with the entries unpacked once."""
    (a, b, c), (d, e, f), (g, h, k) = np.asarray(M, dtype=float).tolist()

    def apply(w):
        w1, w2, w3 = w
        return (
            a * w1 + b * w2 + c * w3,
            d * w1 + e * w2 + f * w3,
            g * w1 + h * w2 + k * w3,
        )

    return apply


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def _traj(h, xs, ys, ps):
    """Oracle trajectory on the uniform grid of step h through the rows
    of xs, ys and ps."""
    return Trajectory(np.arange(len(ys)) * h, xs, ys, ps, h, "oracle")


def _num(v) -> str:
    return repr(float(v))


def _inertia(params, default):
    I = params.pop("inertia", None)
    if I is None:
        I = np.diag(default)
    else:
        I = np.asarray(I, dtype=float)
        if I.shape == (3,):
            I = np.diag(I)
    if I.shape != (3, 3) or not np.allclose(I, I.T):
        raise BadParams("inertia must be 3 diagonal entries or a symmetric 3x3 matrix")
    if np.linalg.eigvalsh(I).min() <= 0:
        raise BadParams("inertia must be positive definite")
    return I


def _quadratic_lagrangian(I) -> str:
    terms = []
    n = I.shape[0]
    for a in range(n):
        for b in range(a, n):
            c = I[a, b] if a == b else 2.0 * I[a, b]
            if c != 0.0:
                terms.append(f"{_num(0.5 * c)} * y{a + 1} * y{b + 1}")
    return " + ".join(terms) if terms else "0"


def _no_extra(params):
    if params:
        raise BadParams(f"unknown parameters: {sorted(params)}")


# -- free particle on a flat base -----------------------------------------


def _free_particle(params):
    d = int(params.pop("d", 2))
    _no_extra(params)
    if d < 1:
        raise BadParams("d must be at least 1")
    A = LieAlgebroid(
        d, d, [[("1" if i == j else "0") for j in range(d)] for i in range(d)], {}
    )
    L = " + ".join(f"0.5 * y{a + 1}^2" for a in range(d))
    Lg = Lagrangian(A, L)
    U = Subbundle.full(A)
    sys = ImplicitSystem(A, Lg, U)

    consts = [1.0, 0.5, -0.75, 0.25][:d] + [0.3] * max(0, d - 4)
    default = HJSection(d, d, [_num(c) for c in consts], [_num(c) for c in consts])

    def oracle(initial, h, T):
        x0, v0 = (np.asarray(q, dtype=float) for q in initial)
        N = _steps(h, T)
        xs = x0 + (np.arange(N + 1) * h)[:, None] * v0
        vs = np.broadcast_to(v0, xs.shape)
        return _traj(h, xs, vs, vs)

    def perturb(rng, failing):
        a = consts + 0.2 * rng.uniform(-1.0, 1.0, size=d)
        comps = [_num(v) for v in a]
        if not failing:
            return HJSection(d, d, comps, comps)
        eps = rng.uniform(0.1, 0.3)
        B = rng.uniform(0.5, 1.0, size=(d, d))
        B = eps * 0.5 * (B + B.T)
        comps = [
            " + ".join([_num(a[i])] + [f"{_num(B[i, j])} * x{j + 1}" for j in range(d)])
            for i in range(d)
        ]
        return HJSection(d, d, comps, comps)

    return ModelBundle(
        "free-particle",
        sys,
        tuple((-1.0, 1.0) for _ in range(d)),
        f"Unconstrained free particle on a flat {d}-dimensional base.",
        {"default": default},
        oracle,
        perturb,
    )


# -- pendulum --------------------------------------------------------------


def _pendulum(params):
    _no_extra(params)
    A = LieAlgebroid(1, 1, [["1"]], {})
    Lg = Lagrangian(A, "0.5 * y1^2 - (1 - cos(x1))")
    sys = ImplicitSystem(A, Lg, Subbundle.full(A))

    def oracle(initial, h, T):
        x0, v0 = initial
        q0 = [float(np.asarray(x0).reshape(-1)[0]), float(np.asarray(v0).reshape(-1)[0])]

        def f(q):
            return q[1], -math.sin(q[0])

        N = _steps(h, T)
        qs = _rk4(f, q0, h, N)
        vs = [q[1:] for q in qs]
        return _traj(h, [q[:1] for q in qs], vs, vs)

    return ModelBundle(
        "pendulum",
        sys,
        ((-math.pi, math.pi),),
        "Planar pendulum as an unconstrained system on the tangent bundle of a circle chart.",
        {},
        oracle,
        None,
    )


# -- harmonic oscillator (carries the closed-form HJ section) --------------


def _harmonic_oscillator(params):
    _no_extra(params)
    A = LieAlgebroid(1, 1, [["1"]], {})
    Lg = Lagrangian(A, "0.5 * y1^2 - 0.5 * x1^2")
    sys = ImplicitSystem(A, Lg, Subbundle.full(A))
    default = HJSection(1, 1, ["sqrt(2 - x1^2)"], ["sqrt(2 - x1^2)"])

    def oracle(initial, h, T):
        x0, v0 = initial
        x0 = float(np.asarray(x0).reshape(-1)[0])
        v0 = float(np.asarray(v0).reshape(-1)[0])
        N = _steps(h, T)
        xs, vs = [], []
        for t in np.arange(N + 1) * h:
            xs.append([x0 * math.cos(t) + v0 * math.sin(t)])
            vs.append([-x0 * math.sin(t) + v0 * math.cos(t)])
        return _traj(h, xs, vs, vs)

    def perturb(rng, failing):
        if failing:
            delta = rng.uniform(0.05, 0.15)
            g = f"sqrt(2 - x1^2) + {_num(delta)}"
        else:
            E = rng.uniform(0.8, 1.2)
            g = f"sqrt({_num(2.0 * E)} - x1^2)"
        return HJSection(1, 1, [g], [g])

    return ModelBundle(
        "harmonic-oscillator",
        sys,
        ((-1.0, 1.0),),
        "Unit-frequency harmonic oscillator; its classical characteristic-function"
        " section sqrt(2E - x^2) is bundled for Hamilton-Jacobi checks.",
        {"default": default},
        oracle,
        perturb,
    )


# -- rigid body ------------------------------------------------------------


def _so3(I):
    A = LieAlgebroid(0, 3, [], SO3_STRUCTURE)
    Lg = Lagrangian(A, _quadratic_lagrangian(I))
    return A, Lg


def _rigid_body(params):
    I = _inertia(params, (1.0, 2.0, 3.0))
    _no_extra(params)
    A, Lg = _so3(I)
    sys = ImplicitSystem(A, Lg, Subbundle.full(A))
    I_w, Iinv_w = _matvec3(I), _matvec3(np.linalg.inv(I))

    def oracle(initial, h, T):
        _, w0 = initial

        def f(w):
            # Euler equations: I w' = (I w) x w
            return Iinv_w(_cross(I_w(w), w))

        N = _steps(h, T)
        ws = _rk4(f, w0, h, N)
        return _traj(h, [()] * len(ws), ws, [I_w(w) for w in ws])

    return ModelBundle(
        "rigid-body",
        sys,
        (),
        "Free rigid body reduced to its body angular velocity.",
        {},
        oracle,
        None,
    )


# -- Suslov problem --------------------------------------------------------


def _suslov(params):
    axis = int(params.pop("axis", 3))
    if axis not in (1, 2, 3):
        raise BadParams("axis must be 1, 2 or 3")
    I_raw = _inertia(params, (2.0, 1.5, 1.0))
    _no_extra(params)
    # cyclic relabelling putting the constrained axis last keeps the
    # bracket constants unchanged (even permutation)
    perm = {3: (0, 1, 2), 1: (1, 2, 0), 2: (2, 0, 1)}[axis]
    I = I_raw[np.ix_(perm, perm)]
    A, Lg = _so3(I)
    U = Subbundle.adapted_rank(A, 2)
    sys = ImplicitSystem(A, Lg, U)
    Iinv = np.linalg.inv(I)
    I_w, Iinv_w = _matvec3(I), _matvec3(Iinv)
    j1, j2, j3 = Iinv[2].tolist()  # e3 · I^-1, so e3 · I^-1 e3 = j3

    def oracle(initial, h, T):
        _, wa0 = initial
        w0 = np.zeros(3)
        w0[:2] = np.asarray(wa0, dtype=float).reshape(-1)

        def f(w):
            # I w' = (I w) x w + lam e3, lam chosen so that w'_3 = 0
            t1, t2, t3 = _cross(I_w(w), w)
            lam = -(j1 * t1 + j2 * t2 + j3 * t3) / j3
            return Iinv_w((t1, t2, t3 + lam))

        N = _steps(h, T)
        ws = _rk4(f, w0, h, N)
        return _traj(h, [()] * len(ws), ws, [I_w(w) for w in ws])

    return ModelBundle(
        "suslov",
        sys,
        (),
        "Rigid body with the body angular velocity constrained to a"
        " coordinate plane; oracle uses the Lagrange-multiplier form.",
        {},
        oracle,
        None,
    )


# -- degenerate demonstration ----------------------------------------------


def _degenerate_demo(params):
    _no_extra(params)
    A = LieAlgebroid(1, 2, [["0", "0"]], {})
    Lg = Lagrangian(A, "0.5 * y1^2")
    sys = ImplicitSystem(A, Lg, Subbundle.full(A))
    return ModelBundle(
        "degenerate-demo",
        sys,
        ((-1.0, 1.0),),
        "Rank-two bundle with a Lagrangian that ignores one velocity;"
        " exercises the degeneracy guards.",
        {},
        None,
        None,
    )


# -- x-dependent structure functions ---------------------------------------


def _affine_rank2(params):
    _no_extra(params)
    A = LieAlgebroid(1, 2, [["1", "x1"]], {(0, 0, 1): "1"})
    Lg = Lagrangian(A, "0.5 * y1^2 + 0.5 * y2^2")
    sys = ImplicitSystem(A, Lg, Subbundle.full(A))
    return ModelBundle(
        "affine-rank2",
        sys,
        ((-0.5, 0.5),),
        "Rank-two bundle over a line with base-dependent anchor and"
        " bracket; exercises derivative terms of the structure data.",
        {},
        None,
        None,
    )


_REGISTRY = {
    "free-particle": _free_particle,
    "pendulum": _pendulum,
    "harmonic-oscillator": _harmonic_oscillator,
    "rigid-body": _rigid_body,
    "suslov": _suslov,
    "degenerate-demo": _degenerate_demo,
    "affine-rank2": _affine_rank2,
}


def model_names():
    return sorted(_REGISTRY)


def get_model(name: str, **params) -> ModelBundle:
    try:
        builder = _REGISTRY[name]
    except KeyError:
        raise UnknownModel(
            f"unknown model {name!r}; available: {', '.join(model_names())}"
        ) from None
    return builder(dict(params))


def oracle_trajectory(bundle: ModelBundle, initial, h: float, T: float) -> Trajectory:
    if bundle.oracle is None:
        raise BadParams(f"model {bundle.name!r} has no reference oracle")
    return bundle.oracle(initial, h, T)
