import builtins
import math
from collections import Counter
from operator import mul

import numpy as np
import pytest

from algmech import dynamics, expr, prolong
from algmech.algebroid import (
    BasePoint,
    DualPoint,
    FiberPoint,
    LieAlgebroid,
    Subbundle,
    _Carrier,
    base_names,
    contract,
    fiber_names,
)
from algmech.config import bundle_from_config
from algmech.dynamics import (
    ImplicitSystem,
    State,
    adapted_rhs,
    energy_drift,
    integrate,
    residual,
)
from algmech.errors import Degenerate, EvaluationFault, NewtonDivergence, NonFinite
from algmech.models import get_model, model_names, oracle_trajectory
from algmech.prolong import Lagrangian

NO_BASE = np.zeros(0)


def _bracket_terms(C: np.ndarray, r: int) -> list:
    """The nonzero bracket constants C^gamma_alpha,beta with alpha, beta < r
    as (alpha, beta, gamma, C), from the array C[gamma, alpha, beta]: the
    term loop the bit-for-bit references below sum over."""
    C_abg = C[:, :r, :r].transpose(1, 2, 0)
    return [
        (a, b, g, c)
        for (a, b, g), c in zip(np.ndindex(C_abg.shape), C_abg.ravel().tolist())
        if c != 0.0
    ]


def fd4(vals, h):
    """Fourth-order centered differences at nodes 2..N-2."""
    return (-vals[4:] + 8 * vals[3:-1] - 8 * vals[1:-3] + vals[:-4]) / (12 * h)


def test_residual_rotation_example():
    b = get_model("rigid-body")
    st = State([], [1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    rep = residual(b.system, st, NO_BASE, [-1.0, 2.0, -1.0], tol=1e-12)
    assert rep.passed, rep


def test_residual_constant_suslov_solution():
    b = get_model("suslov", inertia=(2.0, 1.5, 1.0))
    w = np.array([0.3, 0.4, 0.0])
    p = np.diag([2.0, 1.5, 1.0]) @ w
    rep = residual(b.system, State([], w, p), NO_BASE, np.zeros(3), tol=1e-12)
    assert rep.passed, rep


def test_residual_flags_velocity_outside_u():
    b = get_model("suslov")
    st = State([], [0.3, 0.4, 0.2], np.zeros(3))
    rep = residual(b.system, st, NO_BASE, np.zeros(3), tol=1e-9)
    assert not rep.passed and rep.r_U >= 0.1


def test_adapted_rhs_examples():
    b = get_model("rigid-body")
    _, ydot, p = adapted_rhs(b.system, NO_BASE, [1.0, 1.0, 1.0])
    assert np.allclose(ydot, [-1.0, 1.0, -1.0 / 3.0])
    assert np.allclose(p, [1.0, 2.0, 3.0])

    bp = get_model("pendulum")
    xdot, ydot, _ = adapted_rhs(bp.system, [np.pi / 2], [0.0])
    assert xdot[0] == 0.0 and ydot[0] == pytest.approx(-1.0)

    bd = get_model("degenerate-demo")
    with pytest.raises(Degenerate):
        adapted_rhs(bd.system, [0.0], [0.5, 0.5])


def test_rigid_body_matches_euler_oracle():
    b = get_model("rigid-body")
    init = (NO_BASE, [1.0, 1.0, 1.0])
    traj = integrate(b.system, init, 1e-3, 2.0)
    ref = oracle_trajectory(b, init, 1e-3, 2.0)
    err = max(
        np.abs(traj.states[k].y - ref.states[k].y).max()
        for k in range(len(traj.states))
    )
    assert err <= 1e-8


def test_pendulum_matches_second_order_oracle():
    b = get_model("pendulum")
    init = ([np.pi / 2], [0.0])
    traj = integrate(b.system, init, 1e-3, 2.0)
    ref = oracle_trajectory(b, init, 1e-3, 2.0)
    err = max(
        abs(traj.states[k].x[0] - ref.states[k].x[0])
        for k in range(len(traj.states))
    )
    assert err <= 1e-6


def test_harmonic_oscillator_matches_closed_form_oracle():
    b = get_model("harmonic-oscillator")
    init = ([0.3], [1.1])
    traj = integrate(b.system, init, 1e-3, 2.0)
    ref = oracle_trajectory(b, init, 1e-3, 2.0)
    assert len(ref.states) == len(traj.states) == 2001
    err = max(
        np.abs(np.concatenate([st.x - o.x, st.y - o.y, st.p - o.p])).max()
        for st, o in zip(traj.states, ref.states)
    )
    assert err <= 1e-12


def test_suslov_constant_solutions():
    b = get_model("suslov", inertia=(2.0, 1.5, 1.0))
    traj = integrate(b.system, (NO_BASE, [0.3, 0.4]), 1e-3, 2.0)
    dev = max(np.abs(st.y - traj.states[0].y).max() for st in traj.states)
    assert dev <= 1e-12


def test_suslov_coupled_inertia_matches_multiplier_oracle():
    # coupling the constrained axis into the inertia gives genuinely
    # curved solutions; match them against the multiplier formulation
    I = np.array([[2.0, 0.0, 0.0], [0.0, 1.5, 0.4], [0.0, 0.4, 1.0]])
    b = get_model("suslov", inertia=I)
    init = (NO_BASE, [0.5, -0.3])
    traj = integrate(b.system, init, 1e-3, 5.0)
    ref = oracle_trajectory(b, init, 1e-3, 5.0)
    moved = np.abs(traj.states[-1].y - traj.states[0].y).max()
    assert moved > 1e-3  # non-trivial motion
    err = max(
        np.abs(traj.states[k].y - ref.states[k].y).max()
        for k in range(len(traj.states))
    )
    assert err <= 1e-6


def test_trajectory_satisfies_discrete_residual():
    cases = [
        ("pendulum", ([np.pi / 2], [0.0])),
        ("rigid-body", (NO_BASE, [1.0, 1.0, 1.0])),
        ("affine-rank2", ([0.1], [0.2, 0.3])),
        ("suslov", (NO_BASE, [0.5, -0.4])),
    ]
    h = 1e-2
    for name, init in cases:
        b = get_model(name)
        traj = integrate(b.system, init, h, 2.0)
        xs = np.array([s.x for s in traj.states])
        ps = np.array([s.p for s in traj.states])
        xd, pd = fd4(xs, h), fd4(ps, h)
        scale = 1 + max(
            np.abs(xs).max() if xs.size else 0.0, float(np.abs(ps).max())
        )
        tol = 50 * h**4 * scale
        for k in range(2, len(traj.states) - 2):
            rep = residual(b.system, traj.states[k], xd[k - 2], pd[k - 2], tol)
            assert rep.passed, (name, k, rep)


def test_momentum_is_exactly_the_legendre_image():
    from algmech.algebroid import FiberPoint
    from algmech.prolong import legendre

    b = get_model("rigid-body")
    traj = integrate(b.system, (NO_BASE, [1.0, 1.0, 1.0]), 1e-2, 1.0)
    for st in traj.states:
        p = legendre(b.system.Lg, FiberPoint(st.x, st.y)).p
        assert np.abs(st.p - p).max() == 0.0


def test_energy_drift_is_fourth_order():
    b = get_model("rigid-body")
    drifts = []
    for h in (0.02, 0.01):
        traj = integrate(b.system, (NO_BASE, [1.0, 1.0, 1.0]), h, 10.0)
        E0, d = energy_drift(b.system, traj)
        drifts.append(d)
    assert E0 == pytest.approx(3.0)
    ratio = drifts[0] / drifts[1]
    assert 8 <= ratio <= 64


def test_casimir_drift_stays_small():
    b = get_model("rigid-body")
    traj = integrate(b.system, (NO_BASE, [1.0, 1.0, 1.0]), 1e-3, 10.0)
    c0 = traj.states[0].p @ traj.states[0].p
    dev = max(abs(st.p @ st.p - c0) for st in traj.states)
    assert dev <= 1e-6


def test_implicit_midpoint_agrees_with_oracle_at_second_order():
    b = get_model("pendulum")
    init = ([np.pi / 2], [0.0])
    errs = []
    for h in (0.02, 0.01):
        traj = integrate(b.system, init, h, 1.0, method="implicit_midpoint")
        ref = oracle_trajectory(b, init, h, 1.0)
        errs.append(
            max(
                abs(traj.states[k].x[0] - ref.states[k].x[0])
                for k in range(len(traj.states))
            )
        )
    assert errs[0] <= 1e-3
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)


def test_implicit_midpoint_handles_degenerate_constant_solution():
    # the degenerate model admits constant solutions; the constrained
    # solve should find them where the explicit path must refuse
    b = get_model("degenerate-demo")
    traj = integrate(
        b.system, ([0.0], [0.5, 0.5]), 0.01, 0.1, method="implicit_midpoint"
    )
    assert np.abs(traj.states[-1].y - traj.states[0].y).max() <= 1e-10
    with pytest.raises(Degenerate):
        integrate(b.system, ([0.0], [0.5, 0.5]), 0.01, 0.1, method="rk4")


def test_integrate_rejects_bad_grids():
    b = get_model("pendulum")
    with pytest.raises(ValueError):
        integrate(b.system, ([0.0], [0.1]), 0.3, 1.0)
    with pytest.raises(ValueError):
        integrate(b.system, ([0.0], [0.1]), 0.0, 1.0)
    with pytest.raises(ValueError):
        integrate(b.system, ([0.0], [0.1]), 0.1, 1.0, method="leapfrog")


def test_integrate_refuses_non_finite_states():
    # the rigid-body field overflows to inf by multiplication, which
    # raises nothing; the stacked states must still be refused
    b = get_model("rigid-body")
    with pytest.raises(ValueError, match="must be finite"):
        integrate(b.system, (NO_BASE, (1e200,) * 3), 1e-3, 0.01)


def test_rk4_names_the_first_step_whose_end_state_is_not_finite():
    # from y = 1e4 the rigid body's stages overflow in the third step
    b = get_model("rigid-body")
    with pytest.raises(NonFinite, match=r"^state component y must be finite"
                                        r" in the RK4 step from t=0\.002 at x=\[\]$"):
        integrate(b.system, (NO_BASE, (1e4,) * 3), 1e-3, 0.01)


def test_midpoint_refuses_a_non_finite_start_as_a_fiber_point_does():
    b = get_model("pendulum")
    with pytest.raises(NonFinite, match=r"^x must be finite, got \[nan\]$"):
        integrate(b.system, ([np.nan], [0.5]), 1e-2, 0.1, method="implicit_midpoint")


def test_power_overflow_in_field_is_an_evaluation_fault():
    b = get_model("pendulum")
    with pytest.raises(EvaluationFault):
        integrate(b.system, ([0.1], [1e200]), 1e-3, 0.01)


def _x_dependent_bracket():
    # the built-in models have constant bracket constants; here C^2_12 and
    # the anchor both depend on x, so every block of the Jacobian is live
    A = LieAlgebroid(1, 2, [["1 + x1^2", "0"]], {(1, 0, 1): "sin(x1)"})
    Lg = Lagrangian(A, "0.5 * y1^2 + 0.5 * (1 + x1^2) * y2^2 + x1 * y1 * y2 - cos(x1)")
    return ImplicitSystem(A, Lg, Subbundle.full(A))


MIDPOINT_SYSTEMS = pytest.mark.parametrize(
    "system",
    [
        lambda: get_model("pendulum").system,
        lambda: get_model("harmonic-oscillator").system,
        lambda: get_model("rigid-body").system,
        lambda: get_model("affine-rank2").system,
        lambda: get_model(
            "suslov", inertia=[[2.0, 0.0, 0.3], [0.0, 1.5, 0.2], [0.3, 0.2, 1.0]]
        ).system,
        lambda: get_model("degenerate-demo").system,
        _x_dependent_bracket,
        lambda: get_model("free-particle", d=3).system,
        lambda: _constant_config(3).system,
        lambda: _constant_config(2).system,
        lambda: _x_dependent_config().system,
        lambda: _x_dependent_config_rank_2_of_3().system,
    ],
    ids=["pendulum", "harmonic-oscillator", "rigid-body", "affine-rank2",
         "suslov-coupled", "degenerate-demo", "x-dependent-bracket",
         "free-particle-3d", "constant-config", "constant-config-rank-2",
         "x-dependent-config", "x-dependent-config-rank-2-of-3"],
)


@MIDPOINT_SYSTEMS
def test_midpoint_jacobian_matches_central_differences(system):
    sys = system()
    m, n, r = sys.A.m, sys.A.n, sys.U.r
    step = dynamics._midpoint_step(sys, 0.05)
    rng = np.random.default_rng(17)
    eps = 1e-6
    for _ in range(4):
        prev = np.concatenate([rng.uniform(-1, 1, m), rng.uniform(-1, 1, r), rng.uniform(-1, 1, n)])
        u = prev + 0.2 * rng.standard_normal(m + r + n)
        F = lambda v: np.array(step(prev.tolist(), v.tolist())[0])
        J = np.array(step(prev.tolist(), u.tolist())[1]())
        fd = np.column_stack([(F(u + eps * e) - F(u - eps * e)) / (2 * eps) for e in np.eye(u.size)])
        assert np.abs(J - fd).max() <= 1e-7 * (1.0 + np.abs(J).max())


@MIDPOINT_SYSTEMS
def test_newton_step_matches_numpy_solve_on_the_full_jacobian(system):
    # the kernel eliminates p1 and solves the reduced (m + r) system;
    # numpy solves the full J as the reference, and both refuse a singular J
    sys = system()
    m, n, r = sys.A.m, sys.A.n, sys.U.r
    step, delta = dynamics._midpoint_step(sys, 0.05), dynamics._newton_kernel(m, r, n)
    rng = np.random.default_rng(23)
    for _ in range(10):
        prev = np.concatenate([rng.uniform(-1, 1, m), rng.uniform(-1, 1, r), rng.uniform(-1, 1, n)])
        u = prev + 0.2 * rng.standard_normal(m + r + n)
        F, jac = step(prev.tolist(), u.tolist())
        J = jac()
        try:
            ref = np.linalg.solve(np.array(J), -np.array(F))
        except np.linalg.LinAlgError:  # degenerate-demo: L has no y2, so J's ya2 column is 0
            with pytest.raises(ZeroDivisionError):
                delta(F, J)
            continue
        assert np.abs(np.array(delta(F, J)) - ref).max() <= 1e-13 * np.abs(ref).max()


def test_newton_step_swaps_rows_to_the_largest_pivot():
    # J's leading entry is 0.0, so without a row swap the first pivot is 0
    J, F = [[0.0, 2.0, 1.0], [1.0, 1.0, 0.0], [3.0, 0.0, 1.0]], [1.0, -2.0, 0.5]
    ref = np.linalg.solve(np.array(J), -np.array(F))
    assert np.abs(np.array(dynamics._newton_kernel(3, 0, 0)(F, J)) - ref).max() <= 1e-15


def test_midpoint_singular_jacobian_raises_with_the_step_index(monkeypatch):
    # from step 2 on J's kinematic row is zero, so the reduced system meets
    # a pivot that is exactly 0.0 before any trial step
    exact, starts, trials = dynamics._midpoint_step, [], Counter()

    def singular(sys, h):
        step = exact(sys, h)

        def stepped(prev, u):
            if not starts or starts[-1] is not prev:
                starts.append(prev)
            trials[len(starts) - 1] += 1
            F, jac = step(prev, u)
            if len(starts) > 2:
                return F, lambda: [[0.0] * len(F), *jac()[1:]]
            return F, jac

        return stepped

    monkeypatch.setattr(dynamics, "_midpoint_step", singular)
    with pytest.raises(NewtonDivergence, match=r"^Newton failed to converge at step 2 .*"
                       r" in the midpoint step from t=0\.02 at x=\[\S+\]$") as exc:
        integrate(get_model("pendulum").system, ([0.1], [0.2]), 1e-2, 0.1,
                  method="implicit_midpoint")
    assert exc.value.step_index == 2 and exc.value.last_residual > 0.0
    assert trials[2] == 1


def test_rigid_body_newton_takes_at_most_three_iterations(monkeypatch):
    # one Jacobian is built per Newton iteration; keep every prev alive
    # so the ids that key the steps stay distinct
    seen = []
    exact = dynamics._midpoint_step

    def counting(sys, h):
        step = exact(sys, h)

        def counted(prev, u):
            F, jac = step(prev, u)
            return F, lambda: seen.append(prev) or jac()

        return counted

    monkeypatch.setattr(dynamics, "_midpoint_step", counting)
    b = get_model("rigid-body")
    traj = integrate(b.system, (NO_BASE, [0.7, -0.4, 0.5]), 1e-2, 1.0, method="implicit_midpoint")
    iterations = Counter(map(id, seen))
    assert len(traj.states) == 101 and len(iterations) == 100
    assert max(iterations.values()) <= 3


def _flat_states(sys, traj) -> list:
    """Each state of a midpoint trajectory as the float list (x, ya, p) that
    Newton solved for."""
    r = sys.U.r
    return [[*st.x.tolist(), *st.y[:r].tolist(), *st.p.tolist()] for st in traj.states]


def test_newton_starts_from_prev_then_the_linear_then_the_quadratic_extrapolation(monkeypatch):
    starts, exact = [], dynamics._newton

    def recording(step, delta, prev, guess):
        starts.append((prev, guess))
        return exact(step, delta, prev, guess)

    monkeypatch.setattr(dynamics, "_newton", recording)
    sys = get_model("pendulum").system
    us = _flat_states(sys, integrate(sys, ([0.4], [0.6]), 1e-2, 0.1, method="implicit_midpoint"))
    assert len(starts) == 10 and [prev for prev, _ in starts] == us[:-1]
    assert starts[0][1] is starts[0][0]
    assert starts[1][1] == [2.0 * a - b for a, b in zip(us[1], us[0])]
    for k, (_, guess) in enumerate(starts[2:], 2):
        assert guess == [3.0 * (a - b) + c for a, b, c in zip(us[k], us[k - 1], us[k - 2])]


BENCH_IMPLICIT_SYSTEMS = pytest.mark.parametrize(
    "system",
    [
        lambda: get_model("pendulum").system,
        lambda: get_model("harmonic-oscillator").system,
        lambda: get_model("rigid-body").system,
        lambda: get_model("affine-rank2").system,
        lambda: get_model("suslov", inertia=COUPLED_INERTIA).system,
    ],
    ids=["pendulum", "harmonic-oscillator", "rigid-body", "affine-rank2", "suslov-coupled"],
)


@BENCH_IMPLICIT_SYSTEMS
def test_each_midpoint_step_from_step_2_builds_one_jacobian(monkeypatch, system):
    # the extrapolated start is O(h^3) from the root, so one Newton
    # iteration meets the stopping test; keep every prev alive so the ids
    # that key the steps stay distinct
    steps, builds, exact = [], Counter(), dynamics._midpoint_step

    def counting(sys, h):
        step = exact(sys, h)

        def counted(prev, u):
            if id(prev) not in builds:
                steps.append(prev)
                builds[id(prev)] = 0
            F, jac = step(prev, u)
            return F, lambda: builds.update([id(prev)]) or jac()

        return counted

    monkeypatch.setattr(dynamics, "_midpoint_step", counting)
    sys = system()
    rng = np.random.default_rng(28)
    for _ in range(3):
        x0 = [rng.uniform(-0.5, 0.5) for _ in range(sys.A.m)]
        ya0 = rng.uniform(0.2, 0.8, sys.U.r) * rng.choice([-1.0, 1.0], sys.U.r)
        first = len(steps)
        traj = integrate(sys, (x0, ya0), 1e-2, 1.0, method="implicit_midpoint")
        assert len(traj.states) == 101 and len(steps) == first + 100
        assert [builds[id(prev)] for prev in steps[first + 2 :]] == [1] * 98


def _midpoint_from_prev(sys, x0, ya0, h, T):
    """The midpoint states with every Newton solve started from the previous
    state, or None where a step does not converge."""
    m, n, r = sys.A.m, sys.A.n, sys.U.r
    step, delta = dynamics._midpoint_step(sys, h), dynamics._newton_kernel(m, r, n)
    e0 = FiberPoint(np.array(x0, dtype=float), np.concatenate([ya0, np.zeros(n - r)]))
    us = [[*e0.x.tolist(), *ya0.tolist(), *sys.Lg.jet(e0)[2].tolist()]]
    for _ in range(round(T / h)):
        try:
            u, _ = dynamics._newton(step, delta, us[-1], us[-1])
        except (EvaluationFault, NonFinite):
            return None
        if u is None:
            return None
        us.append(u)
    return us


@pytest.mark.parametrize("h", [0.05, 0.1, 0.25, 0.5])
def test_the_extrapolated_start_loses_no_trajectory_the_previous_state_finds(h):
    bundles = [get_model(name) for name in model_names()]
    bundles.append(get_model("suslov", inertia=COUPLED_INERTIA))
    rng = np.random.default_rng([28, round(100 * h)])
    converged = 0
    for bundle in bundles:
        sys = bundle.system
        for _ in range(10):
            x0 = [rng.uniform(lo, hi) for lo, hi in bundle.box]
            ya0 = rng.uniform(-2.4, 2.4, sys.U.r)
            T = h * rng.integers(math.ceil(2 / h), math.floor(5 / h) + 1)
            ref = _midpoint_from_prev(sys, x0, ya0, h, T)
            if ref is None:
                continue
            us = _flat_states(sys, integrate(sys, (x0, ya0), h, T, method="implicit_midpoint"))
            assert len(us) == len(ref)
            for u, v in zip(us, ref):
                assert np.abs(np.subtract(u, v)).max() <= 1e-9 * (1.0 + np.linalg.norm(v))
            converged += 1
    assert converged >= 72  # of 80: the check is not vacuous


def _generic_midpoint(sys, h, prev, u):
    """F and J of the midpoint step as generic loops over float rows with
    numpy blocks, the way they were computed before the step was emitted
    as straight-line source: the reference the emitted step must equal
    bit for bit, signs of zeros included."""
    A, Lg = sys.A, sys.Lg
    m, n, r = A.m, A.n, sys.U.r
    x0, ya0, p0 = prev[:m], prev[m : m + r], prev[m + r :]
    x1, ya1, p1 = u[:m], u[m : m + r], u[m + r :]
    pad, pad_n = [0.0] * (n - r), [0.0] * n
    J0 = np.zeros((m + r + n, m + r + n))
    J0[:m, :m] = np.eye(m) / h
    J0[m : m + r, m + r : m + 2 * r] = np.eye(r) / h
    J0[m + r :, m + r :] = np.eye(n)
    xm = [0.5 * (a + b) for a, b in zip(x0, x1)]
    ym = [0.5 * (a + b) for a, b in zip(ya0, ya1)]
    pm = [0.5 * (a + b) for a, b in zip(p0, p1)]
    xm_n, ym_n = np.array(xm), np.array(ym + pad)
    rho, drho = A.anchor_jet_at(BasePoint(xm_n))
    C, dC = A.structure_jet_at(BasePoint(xm_n))
    if A.constant_anchor:
        J0[:m, m : m + r] = -0.5 * rho[:, :r]
    rho_rows, rho_cols = rho[:, :r].tolist(), rho[:, :r].T.tolist()
    terms = _bracket_terms(C, r)
    _, Lx, _, Lxx, Lxy, _ = Lg.jet(FiberPoint(xm_n, ym_n))
    _, _, Ly1, _, Lxy1, Lyy1 = Lg.jet(FiberPoint(np.array(x1), np.array(ya1 + pad)))
    Cp = [[0.0] * r for _ in range(r)]
    for a, b, g, c in terms:
        Cp[a][b] += pm[g] * c
    kin = [(b - a) / h - sum(map(mul, row, ym)) for a, b, row in zip(x0, x1, rho_rows)]
    mom = [(b - a) / h + sum(map(mul, cp, ym)) - sum(map(mul, col, Lx.tolist()))
           for a, b, cp, col in zip(p0, p1, Cp, rho_cols)]
    F = kin + mom + [a - b for a, b in zip(p1, Ly1.tolist())]
    kin = [[0.0] * (m + r + n)] * m
    dx = np.zeros((r, m))
    if not A.constant_anchor:
        kin = [[-0.5 * v for v in (*dr, *row)] + pad_n for dr, row in zip((ym_n @ drho).tolist(), rho_rows)]
        dx -= (Lx @ drho.reshape(m, n * m)).reshape(n, m)[:r]
    if not A.constant_structure:
        dx += (ym_n @ (np.array(pm) @ dC.reshape(n, -1)).reshape(n, n, m))[:r]
    mom = [[*dr, *cp] for dr, cp in zip(dx.tolist(), Cp)]
    if m:
        Hcols = Lxx.tolist() + Lxy[:, :r].T.tolist()
        mom = [[d - sum(map(mul, col, hc)) for d, hc in zip(row, Hcols)] for row, col in zip(mom, rho_cols)]
    Cy = [[0.0] * n for _ in range(r)]
    for a, b, g, c in terms:
        Cy[a][g] += c * ym[b]
    mom = [[0.5 * v for v in (*row, *cy)] for row, cy in zip(mom, Cy)]
    leg = [[-v for v in (*xc, *yr[:r])] + pad_n for xc, yr in zip(Lxy1.T.tolist(), Lyy1.tolist())]
    J = np.array(kin + mom + leg)
    J += J0
    return F, J.tolist()


@MIDPOINT_SYSTEMS
def test_emitted_midpoint_equals_the_generic_step_bit_for_bit(system):
    sys = system()
    m, n, r = sys.A.m, sys.A.n, sys.U.r
    step = dynamics._midpoint_step(sys, 0.05)
    rng = np.random.default_rng(41)
    for _ in range(10):
        prev = np.concatenate([rng.uniform(-1, 1, m), rng.uniform(-1, 1, r), rng.uniform(-1, 1, n)])
        u = (prev + 0.2 * rng.standard_normal(m + r + n)).tolist()
        F, jac = step(prev.tolist(), u)
        ref_F, ref_J = _generic_midpoint(sys, 0.05, prev.tolist(), u)
        assert list(map(repr, F)) == list(map(repr, ref_F))
        assert [list(map(repr, row)) for row in jac()] == [list(map(repr, row)) for row in ref_J]


def _count_carriers(monkeypatch) -> Counter:
    """Counts of the carriers built while the test runs: trusted ones by
    class name, checked ones by ``BasePoint.__init__`` and
    ``FiberPoint.__init__``."""
    counts, trusted = Counter(), _Carrier._trusted.__func__

    def counted_trusted(cls, **arrays):
        counts[cls.__name__] += 1
        return trusted(cls, **arrays)

    monkeypatch.setattr(_Carrier, "_trusted", classmethod(counted_trusted))
    for cls in (BasePoint, FiberPoint):
        def counted_init(self, *args, init=cls.__init__, name=f"{cls.__name__}.__init__"):
            counts[name] += 1
            init(self, *args)

        monkeypatch.setattr(cls, "__init__", counted_init)
    return counts


@pytest.mark.parametrize(
    "name, per_residual",
    [("pendulum", {}), ("rigid-body", {}), ("suslov", {}), ("affine-rank2", {})],
)
def test_midpoint_residual_builds_no_carrier_on_constant_data(monkeypatch, name, per_residual):
    # the residual and J read their jets, and an x-dependent algebroid its
    # rho and C, on float lists: no model builds a carrier per residual
    sys = get_model(name).system
    m, n, r = sys.A.m, sys.A.n, sys.U.r
    step = dynamics._midpoint_step(sys, 0.05)
    counts = _count_carriers(monkeypatch)
    rng = np.random.default_rng(18)
    for _ in range(3):
        prev = rng.uniform(-0.5, 0.5, m + r + n)
        u = prev + 0.1 * rng.standard_normal(m + r + n)
        step(prev.tolist(), u.tolist())[1]()
    assert counts == Counter({k: 3 * v for k, v in per_residual.items()})


def test_rk4_field_builds_no_carrier_on_x_dependent_data(monkeypatch):
    # affine-rank2's field reads its x-dependent anchor as a float list
    field = dynamics._adapted_field(get_model("affine-rank2").system)
    counts = _count_carriers(monkeypatch)
    rng = np.random.default_rng(19)
    for _ in range(100):
        field([rng.uniform(-0.5, 0.5), *rng.standard_normal(2).tolist()])
    assert counts == Counter()


def _numpy_midpoint_residual(sys, h, prev, u):
    # the midpoint residual written out with numpy arrays, contract and @
    A, Lg = sys.A, sys.Lg
    m, n, r = A.m, A.n, sys.U.r
    x0, ya0, p0 = prev
    x1, ya1, p1 = u[:m], u[m : m + r], u[m + r :]
    pad = np.zeros(n - r)
    xm, pm = 0.5 * (x0 + x1), 0.5 * (p0 + p1)
    ym = np.concatenate([0.5 * (ya0 + ya1), pad])
    rho = A.anchor_at(BasePoint(xm))
    C = A.structure_at(BasePoint(xm))
    Lx = Lg.jet(FiberPoint(xm, ym))[1]
    Ly1 = Lg.jet(FiberPoint(x1, np.concatenate([ya1, pad])))[2]
    kin = (x1 - x0) / h - rho @ ym
    mom = (p1[:r] - p0[:r]) / h + (contract(C, pm) @ ym)[:r] - (rho.T @ Lx)[:r]
    return np.concatenate([kin, mom, p1 - Ly1])


@MIDPOINT_SYSTEMS
def test_midpoint_float_residual_matches_numpy(system):
    sys = system()
    m, n, r = sys.A.m, sys.A.n, sys.U.r
    step = dynamics._midpoint_step(sys, 0.05)
    rng = np.random.default_rng(29)
    for _ in range(20):
        prev = (rng.uniform(-1, 1, m), rng.uniform(-1, 1, r), rng.uniform(-1, 1, n))
        u = np.concatenate(prev) + 0.2 * rng.standard_normal(m + r + n)
        F = np.array(step(np.concatenate(prev).tolist(), u.tolist())[0])
        ref = _numpy_midpoint_residual(sys, 0.05, prev, u)
        assert F.shape == ref.shape
        assert np.abs(F - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())


def _count_jets(monkeypatch):
    """Counts of Lagrangian.jet calls and of midpoint residuals."""
    counts = Counter()
    jet = Lagrangian.jet
    exact = dynamics._midpoint_step

    def counted_jet(self, e):
        counts["jet"] += 1
        return jet(self, e)

    def counting(sys, h):
        step = exact(sys, h)

        def counted(prev, u):
            counts["residual"] += 1
            return step(prev, u)

        return counted

    monkeypatch.setattr(Lagrangian, "jet", counted_jet)
    monkeypatch.setattr(dynamics, "_midpoint_step", counting)
    return counts


@pytest.mark.parametrize(
    "name, init", [("pendulum", ([0.4], [0.6])), ("rigid-body", (NO_BASE, [0.7, -0.4, 0.5]))]
)
def test_midpoint_calls_lagrangian_jet_twice_per_residual(monkeypatch, name, init):
    counts = _count_jets(monkeypatch)
    traj = integrate(get_model(name).system, init, 1e-2, 0.3, method="implicit_midpoint")
    steps = len(traj.states) - 1
    # one jet for the initial Legendre image, then two per residual
    assert counts["jet"] == 1 + 2 * counts["residual"]
    assert counts["jet"] / steps > 2


def test_midpoint_evaluates_an_x_dependent_anchor_on_every_residual(monkeypatch):
    counts = _count_jets(monkeypatch)
    anchor_jet_at, eval_jet2 = LieAlgebroid.anchor_jet_at, expr.eval_jet2

    def counted_eval(*args):
        counts["eval"] += 1
        return eval_jet2(*args)

    def counted_anchor(self, x):
        before = counts["eval"]
        out = anchor_jet_at(self, x)
        counts["anchor_miss"] += counts["eval"] > before
        return out

    monkeypatch.setattr(LieAlgebroid, "anchor_jet_at", counted_anchor)
    monkeypatch.setattr(expr, "eval_jet2", counted_eval)
    integrate(get_model("affine-rank2").system, ([0.1], [0.5, -0.4]), 1e-2, 0.3,
              method="implicit_midpoint")
    assert counts["residual"] > 30
    assert counts["anchor_miss"] == counts["residual"]


def test_adapted_field_evaluates_an_x_dependent_anchor_with_one_jet_call(monkeypatch):
    counts = Counter()
    eval_jet2, structure_jet_at = expr.eval_jet2, LieAlgebroid.structure_jet_at

    def counted_eval(*args):
        counts["eval"] += 1
        return eval_jet2(*args)

    def counted_structure(self, x):
        counts["structure"] += 1
        return structure_jet_at(self, x)

    monkeypatch.setattr(expr, "eval_jet2", counted_eval)
    monkeypatch.setattr(LieAlgebroid, "structure_jet_at", counted_structure)
    field = dynamics._adapted_field(get_model("affine-rank2").system)
    counts.clear()
    for k in range(1, 6):
        field([0.1 * k, 0.5, -0.4])
        assert counts == Counter(eval=k)  # the constant C is never read again


def _generic_field(sys, q):
    """The adapted field as a generic loop over float rows, the way it was
    computed before it was emitted as straight-line source: the reference
    the emitted field must equal bit for bit."""
    A, m, r = sys.A, sys.A.m, sys.U.r
    names = base_names(m) + fiber_names(A.n)
    _, g, h = expr.compile_jet2(sys.Lg.L, names).raw(dict(zip(names, [*q, *[0.0] * (A.n - r)])))
    packed = {jl: k for k, jl in enumerate(expr._pairs(m + A.n))}
    hess = lambda j, l: h[packed[min(j, l), max(j, l)]]
    Lx, Ly, ya = g[:m], g[m:], q[m:]
    x = BasePoint(q[:m])
    rho = A.anchor_at(x)[:, :r]
    xdot = [sum(map(mul, row, ya)) for row in rho.tolist()]
    rhs = [0.0] * r
    for a, b, gm, c in _bracket_terms(A.structure_at(x), r):
        rhs[a] -= Ly[gm] * c * ya[b]
    if m:
        rhs = [
            pa + sum(map(mul, col, Lx)) - sum(map(mul, [hess(i, m + a) for i in range(m)], xdot))
            for a, (pa, col) in enumerate(zip(rhs, rho.T.tolist()))
        ]
    inv = np.linalg.inv(np.array([[hess(m + a, m + b) for b in range(r)] for a in range(r)]))
    return xdot + [sum(map(mul, row, rhs)) for row in inv.tolist()], Ly


def _x_dependent_config():
    # anchor and bracket both depend on x; the field formula does not need
    # the structure equations to hold
    return bundle_from_config({
        "m": 1, "n": 2, "r": 2, "anchor": [["1 + x1^2", "x1"]],
        "structure": {"1,1,2": "sin(x1)", "2,1,2": "x1^2 - 1"},
        "lagrangian": "0.5 * y1^2 + 0.5 * (1 + x1^2) * y2^2 + x1 * y1 * y2 - cos(x1)",
    })


def _x_dependent_config_rank_2_of_3():
    # r < n with data that depends on x: the pinned third velocity and its
    # momentum enter the jets, and that momentum enters C·p through C^3_12
    return bundle_from_config({
        "m": 1, "n": 3, "r": 2, "anchor": [["1", "x1", "x1^2"]],
        "structure": {"1,1,2": "1 + x1", "3,1,2": "sin(x1)", "2,2,3": "x1"},
        "lagrangian": "0.5 * y1^2 + 0.5 * (2 + x1^2) * y2^2 + 0.5 * y3^2"
                      " + 0.3 * x1 * y1 * y2 + 0.2 * y2 * y3 - cos(x1)",
        "subbundle": "adapted:2",
    })


def _constant_config(r):
    # constant data with rounding in every product and three-term sums,
    # so that any change in term order or grouping shows
    return bundle_from_config({
        "m": 3, "n": 3, "r": r,
        "anchor": [["0.7", "-1.3", "0.2"], ["0.1", "2.5", "-0.9"], ["1.1", "0.3", "0.6"]],
        "structure": {"1,1,2": "0.3", "2,1,3": "-1.7", "3,2,3": "2.9", "1,2,3": "0.45"},
        "lagrangian": "0.5 * y1^2 + 0.7 * y2^2 + 0.9 * y3^2 + 0.3 * y1 * y2"
                      " + x1 * y1 * y3 + sin(x2) * y2 - cos(x1) * x3",
        "subbundle": f"adapted:{r}",
    })


FIELD_BUNDLES = {
    **{name: lambda name=name: get_model(name) for name in model_names()},
    "free-particle-3d": lambda: get_model("free-particle", d=3),
    "suslov-coupled": lambda: get_model("suslov", inertia=COUPLED_INERTIA),
    "x-dependent-config": _x_dependent_config,
    "x-dependent-config-rank-2-of-3": _x_dependent_config_rank_2_of_3,
    "constant-config": lambda: _constant_config(3),
    "constant-config-rank-2": lambda: _constant_config(2),
}


@pytest.mark.parametrize("label", sorted(FIELD_BUNDLES))
def test_emitted_field_equals_the_generic_formula_bit_for_bit(label):
    bundle = FIELD_BUNDLES[label]()
    sys = bundle.system
    field = dynamics._adapted_field(sys)
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = [rng.uniform(lo, hi) for lo, hi in bundle.box]
        q = x + rng.standard_normal(sys.U.r).tolist()
        if label == "degenerate-demo":  # L ignores y2: the restricted Hessian is singular
            with pytest.raises(Degenerate):
                field(q)
            continue
        qdot, p = field(q)
        ref_qdot, ref_p = _generic_field(sys, q)
        assert list(map(repr, qdot)) == list(map(repr, ref_qdot))
        assert list(map(repr, p)) == list(map(repr, ref_p))


def test_emitted_field_keeps_its_error_mapping():
    field = dynamics._adapted_field(get_model("pendulum").system)
    with pytest.raises(EvaluationFault):  # y1^2 overflows in the jet
        field([0.1, 1e200])
    field = dynamics._adapted_field(get_model("degenerate-demo").system)
    with pytest.raises(Degenerate, match="condition number"):
        field([0.1, 0.5, 0.5])


def test_a_second_integrate_emits_and_compiles_nothing(monkeypatch):
    sys = get_model("rigid-body").system
    assert not sys.Lg._fields  # nothing is emitted when the model is built
    first = integrate(sys, (NO_BASE, [1.0, 0.5, 0.2]), 1e-2, 0.1)
    bind = sys.Lg._fields["rk4", sys.U.r]
    compiles = Counter()
    compile_ = builtins.compile

    def counted(*args, **kwargs):
        compiles["compile"] += 1
        return compile_(*args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counted)
    second = integrate(sys, (NO_BASE, [1.0, 0.5, 0.2]), 1e-2, 0.1)
    assert compiles == Counter() and sys.Lg._fields["rk4", sys.U.r] is bind
    assert [st.y.tolist() for st in second.states] == [st.y.tolist() for st in first.states]


def test_a_second_midpoint_run_emits_and_compiles_nothing(monkeypatch):
    sys = get_model("rigid-body").system
    assert not sys.Lg._fields  # nothing is emitted when the model is built
    init = (NO_BASE, [1.0, 0.5, 0.2])
    first = integrate(sys, init, 1e-2, 0.1, method="implicit_midpoint")
    bind = sys.Lg._fields["implicit_midpoint", sys.U.r]
    compiles = Counter()
    compile_ = builtins.compile

    def counted(*args, **kwargs):
        compiles["compile"] += 1
        return compile_(*args, **kwargs)

    monkeypatch.setattr(builtins, "compile", counted)
    second = integrate(sys, init, 1e-2, 0.1, method="implicit_midpoint")
    other_h = integrate(sys, init, 5e-3, 0.1, method="implicit_midpoint")
    assert compiles == Counter() and sys.Lg._fields["implicit_midpoint", sys.U.r] is bind
    assert [st.y.tolist() for st in second.states] == [st.y.tolist() for st in first.states]
    assert len(other_h.states) == 21


def test_midpoint_line_search_exhaustion_raises_with_the_step_index(monkeypatch):
    # from step 2 on the residual never decreases, so every halving of the
    # Newton step down to 1/1024 is refused
    exact, starts, trials = dynamics._midpoint_step, [], Counter()

    def stalling(sys, h):
        step = exact(sys, h)

        def stalled(prev, u):
            if not starts or starts[-1] is not prev:
                starts.append(prev)
            trials[len(starts) - 1] += 1
            F, jac = step(prev, u)
            return ([1.0] * len(F) if len(starts) > 2 else F), jac

        return stalled

    monkeypatch.setattr(dynamics, "_midpoint_step", stalling)
    with pytest.raises(NewtonDivergence) as exc:
        integrate(get_model("pendulum").system, ([0.1], [0.2]), 1e-2, 0.1,
                  method="implicit_midpoint")
    assert exc.value.step_index == 2 and exc.value.last_residual == 1.0
    assert trials[2] == 1 + 11  # the start and one trial per t = 1, 1/2, ..., 1/1024


def test_midpoint_stopping_test_does_not_pass_when_the_state_norm_overflows():
    # |u|^2 overflows to inf here, which once let any finite residual pass
    with pytest.raises(NewtonDivergence):
        integrate(get_model("rigid-body").system, (NO_BASE, [1.5e154, 2e153, 1e153]),
                  1e-2, 0.02, method="implicit_midpoint")


@pytest.mark.parametrize(
    "name, init, message",
    [
        ("rigid-body", (NO_BASE, (1e200,) * 3), "non-finite derivative result"),
        ("pendulum", ([0.1], [1e200]), None),
        ("affine-rank2", ([0.1], [1e155, 1e155]), None),
    ],
)
def test_midpoint_overflow_is_an_evaluation_fault(name, init, message):
    with pytest.raises(EvaluationFault, match=message):
        integrate(get_model(name).system, init, 1e-2, 0.1, method="implicit_midpoint")


COUPLED_INERTIA = np.array([[2.0, 0.0, 0.3], [0.0, 1.5, 0.2], [0.3, 0.2, 1.0]])


def _residual_written_out(sys, st, xdot, pdot):
    """The four defects of one state, each formula written out on its own."""
    x = BasePoint(st.x)
    _, Lx, Ly, _, _, _ = sys.Lg.jet(FiberPoint(st.x, st.y))
    rho, C, S = sys.A.anchor_at(x), sys.A.structure_at(x), sys.U.span_at(x)
    Q = sys.U.completion(x)[:, : sys.U.r]
    force = pdot + contract(C, st.p) @ st.y - rho.T @ Lx
    return (
        float(np.linalg.norm(st.y - Q @ (Q.T @ st.y))),
        float(np.abs(xdot - rho @ st.y).max()) if sys.A.m else 0.0,
        float(np.abs(st.p - Ly).max()),
        float(np.abs(force @ S).max()) if S.size else 0.0,
    )


@pytest.mark.parametrize("method", ["rk4", "implicit_midpoint"])
@pytest.mark.parametrize(
    "name, params",
    [(name, {}) for name in model_names()] + [("suslov", {"inertia": COUPLED_INERTIA})],
)
def test_stacked_lift_pass_equals_the_residual_state_by_state(name, params, method):
    # bit for bit: the stacked pass, the public one-state check and the
    # formulas written out, on constant and x-dependent (affine-rank2) data
    sys = get_model(name, **params).system
    m, r = sys.A.m, sys.U.r
    init = (np.linspace(-0.2, 0.3, m), np.linspace(0.3, 0.7, r))
    try:
        traj = integrate(sys, init, 1e-2, 0.5, method)
    except Degenerate:
        assert name == "degenerate-demo" and method == "rk4"
        return
    h = traj.h
    xdots = dynamics._fd_derivatives(np.array([st.x for st in traj.states]), h)
    pdots = dynamics._fd_derivatives(np.array([st.p for st in traj.states]), h)
    stacked = dynamics._lift_residuals(sys, traj.states, h, 1e-6)
    for st, xd, pd, rep in zip(traj.states, xdots, pdots, stacked):
        assert rep == residual(sys, st, xd, pd, 1e-6)
        assert (rep.r_U, rep.r_kin, rep.r_leg, rep.r_mom) == _residual_written_out(sys, st, xd, pd)


@pytest.mark.parametrize(
    "span", [[["1", "0"], ["0.3", "1"], ["0.2", "-0.4"]], [["1", "0"], ["x1", "1"], ["0.2", "sin(x1)"]]]
)
def test_stacked_lift_pass_equals_the_formulas_on_arbitrary_states(span):
    # states off any solution give every defect, and the force term its
    # full size, on a span that is not adapted (constant or x-dependent)
    A = LieAlgebroid(1, 3, [["1", "x1", "0"]], {(2, 0, 1): "1", (0, 1, 2): "x1"})
    Lg = Lagrangian(A, "0.5*y1^2 + y2^2 + 0.7*y3^2 + x1*y1*y3 + cos(x1)")
    sys = ImplicitSystem(A, Lg, Subbundle(A, 2, span))
    rng = np.random.default_rng(3)
    xs = np.sin(np.arange(41) * 1e-2)[:, None] * 0.5 + 0.1
    ys = rng.standard_normal((41, 3)) * 0.1 + np.array([0.3, 0.2, -0.1])
    states = State.stack(xs, ys, rng.standard_normal((41, 3)) * 0.1)
    xdots = dynamics._fd_derivatives(xs, 1e-2)
    pdots = dynamics._fd_derivatives(np.array([st.p for st in states]), 1e-2)
    stacked = dynamics._lift_residuals(sys, states, 1e-2, 1e-6)
    for st, xd, pd, rep in zip(states, xdots, pdots, stacked):
        assert (rep.r_U, rep.r_kin, rep.r_leg, rep.r_mom) == _residual_written_out(sys, st, xd, pd)


@pytest.mark.parametrize(
    "h, T, message",
    [
        (1e-2, 1e300, "more than 2\\^53 steps"),  # 1e302 steps: runs out of memory
        (2.0**-54, 1.0, "more than 2\\^53 steps"),
        (5e-324, 1e-323, "no finite reciprocal"),  # the midpoint's I/h overflows
        (1e-310, 2e-310, "no finite reciprocal"),
    ],
)
def test_step_counts_are_bounded(h, T, message):
    with pytest.raises(ValueError, match=message):
        dynamics._steps(h, T)


def test_step_count_limits_still_run():
    assert dynamics._steps(2.0**-53, 1.0) == 2**53
    assert dynamics._steps(2.2e-308, 4.4e-308) == 2
    assert dynamics._steps(1e-2, 0.02) == 2


def test_rk4_runs_on_a_rank_zero_subbundle():
    # the restricted velocity Hessian is 0 x 0; its inverse is empty
    A = LieAlgebroid(0, 1, [], {})
    sys = ImplicitSystem(A, Lagrangian(A, "0.5 * y1^2"), Subbundle.adapted_rank(A, 0))
    rk4 = integrate(sys, ([], []), 1e-2, 0.02)
    mid = integrate(sys, ([], []), 1e-2, 0.02, method="implicit_midpoint")
    assert len(rk4.states) == len(mid.states) == 3
    for a, b in zip(rk4.states, mid.states):
        for name in ("x", "y", "p"):
            assert np.array_equal(getattr(a, name), getattr(b, name))


def test_an_overflowing_energy_is_refused():
    # p·y overflows at y = (1e154, 1e154), so E0 was inf and the drift nan
    b = get_model("free-particle")
    traj = integrate(b.system, ([0.0, 0.0], [1e154, 1e154]), 0.5, 1.0)
    with np.errstate(all="ignore"), pytest.raises(NonFinite, match="energy"):
        energy_drift(b.system, traj)


def test_a_nan_residual_does_not_pass():
    # max() of the four residuals dropped a nan that was not the first
    b = get_model("rigid-body")
    st = State([], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    good = residual(b.system, st, [], [0.0, 0.0, 0.0], np.inf)
    assert good.passed
    rep = residual(b.system, st, [], [np.nan, 0.0, 0.0], np.inf)
    assert np.isnan(rep.r_mom) and not rep.passed


def _generic_rk4_step(f, q, k1, h):
    """One RK4 step as the comprehensions that computed it before it was
    emitted as straight-line source: the reference the emitted step must
    equal bit for bit."""
    hh, h6 = 0.5 * h, h / 6.0
    k2 = f([a + hh * b for a, b in zip(q, k1)])
    k3 = f([a + hh * b for a, b in zip(q, k2)])
    k4 = f([a + h * b for a, b in zip(q, k3)])
    stages = zip(q, k1, k2, k3, k4)
    return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in stages]


@pytest.mark.parametrize("M", range(8))
def test_emitted_rk4_step_equals_the_generic_step_bit_for_bit(M):
    rng = np.random.default_rng(M)
    rows = rng.standard_normal((M, M)).tolist()

    def recording(calls):
        def f(v):  # nonlinear, so that every stage input shows
            calls.append(list(map(repr, v)))
            return [math.sin(sum(map(mul, row, v))) + 0.3 * a * a for row, a in zip(rows, v)]

        return f

    for h in (1e-2, 1.0 / 3.0, 0.7) * 10:
        q = rng.standard_normal(M).tolist()
        emitted, generic = [], []
        k1 = recording([])(q)
        got = dynamics._rk4_step(recording(emitted), q, k1, h)
        ref = _generic_rk4_step(recording(generic), q, k1, h)
        assert len(emitted) == 3 and emitted == generic
        assert list(map(repr, got)) == list(map(repr, ref))


def _x_dependent_config_on_a_plane():
    # m = 2, so that the gradients' axis order shows in the flat lists
    return bundle_from_config({
        "m": 2, "n": 2, "r": 2, "anchor": [["1", "x1 * x2"], ["sin(x2)", "x1^2"]],
        "structure": {"1,1,2": "x1 + x2^3", "2,1,2": "cos(x1 * x2)"},
        "lagrangian": "0.5 * y1^2 + 0.5 * y2^2",
    })


X_DEPENDENT = {
    "affine-rank2": lambda: get_model("affine-rank2"),
    "x-dependent-config": _x_dependent_config,
    "x-dependent-config-rank-2-of-3": _x_dependent_config_rank_2_of_3,
    "x-dependent-config-on-a-plane": _x_dependent_config_on_a_plane,
}
X_DEPENDENT_ALGEBROIDS = pytest.mark.parametrize(
    "bundle", list(X_DEPENDENT.values()), ids=list(X_DEPENDENT)
)


@X_DEPENDENT_ALGEBROIDS
@pytest.mark.parametrize("method", [LieAlgebroid.anchor_jet_at, LieAlgebroid.structure_jet_at],
                         ids=["anchor", "structure"])
def test_list_form_of_the_algebroid_jets_equals_the_array_form(bundle, method):
    b = bundle()
    A = b.system.A
    rng = np.random.default_rng(23)
    for _ in range(10):
        x = [rng.uniform(lo, hi) for lo, hi in b.box]
        flat, arrays = method(A, x), method(A, BasePoint(x))
        assert [list(map(repr, v)) for v in flat] == [
            list(map(repr, a.ravel().tolist())) for a in arrays
        ]


@pytest.mark.parametrize("method", [LieAlgebroid.anchor_jet_at, LieAlgebroid.structure_jet_at],
                         ids=["anchor", "structure"])
def test_list_form_of_the_algebroid_jets_faults_as_the_array_form(method):
    A = LieAlgebroid(1, 2, [["ln(x1)", "1"]], {(0, 0, 1): "sqrt(x1)"})
    for _ in range(2):  # the first call walks the tree, later ones run the compiled jet
        with pytest.raises(EvaluationFault) as arrays:
            method(A, BasePoint([-1.0]))
        with pytest.raises(EvaluationFault) as flat:
            method(A, [-1.0])
        assert str(flat.value) == str(arrays.value)


def test_list_form_on_a_constant_algebroid_evaluates_nothing(monkeypatch):
    A = _constant_config(3).system.A
    x = [0.3, -1.2, 2.5]
    calls = Counter()
    eval_jet2 = expr.eval_jet2

    def counted_eval(*args):
        calls["eval"] += 1
        return eval_jet2(*args)

    monkeypatch.setattr(expr, "eval_jet2", counted_eval)
    for method in (LieAlgebroid.anchor_jet_at, LieAlgebroid.structure_jet_at):
        flat = method(A, x)
        assert method(A, [0.0, 0.0, 0.0]) == flat
        assert [list(map(repr, v)) for v in flat] == [
            list(map(repr, a.ravel().tolist())) for a in method(A, BasePoint(x))
        ]
    assert calls == Counter()


@pytest.mark.parametrize(
    "name", ["x-dependent-config", "x-dependent-config-rank-2-of-3", "x-dependent-config-on-a-plane"]
)
def test_cp_dot_on_x_dependent_data_equals_the_bracket_loop_and_builds_no_carrier(monkeypatch, name):
    # cp_dot reads C as one flat tuple through the bracket table; the
    # reference sums the nonzero terms of the array C at a BasePoint.  At
    # x = 0 some entries vanish, which the table still sums
    bundle = X_DEPENDENT[name]()
    A = bundle.system.A
    rng = np.random.default_rng(37)
    xs = [[0.0] * A.m] + [[rng.uniform(lo, hi) for lo, hi in bundle.box] for _ in range(30)]
    cases = [(DualPoint(x, rng.standard_normal(A.n)), rng.standard_normal((3, A.n)).tolist())
             for x in xs]
    refs = []
    for pt, zs in cases:
        p, ref = pt.p.tolist(), [[0.0] * A.n for _ in zs]
        for w, z in zip(ref, zs):
            for a, b, g, c in _bracket_terms(A.structure_at(BasePoint(pt.x)), A.n):
                w[a] += p[g] * c * z[b]
        refs.append(ref)
    counts = _count_carriers(monkeypatch)
    got = [A.cp_dot(pt, zs) for pt, zs in cases]
    assert counts == Counter()
    assert [[list(map(repr, w)) for w in out] for out in got] == [
        [list(map(repr, w)) for w in ref] for ref in refs
    ]


# m = 3, so that the sums of three products show their term order
ANCHORED = {**X_DEPENDENT, "constant-config": lambda: _constant_config(3)}


@pytest.mark.parametrize("name", sorted({*model_names(), *ANCHORED}))
def test_the_dirac_maps_contract_the_columns_of_the_anchor_array_bit_for_bit(name):
    # both maps read the anchor as a flat float tuple; the reference reads
    # the columns of the (m, n) array of the BasePoint form
    b = ANCHORED.get(name, lambda: get_model(name))()
    Lg, A = b.system.Lg, b.system.A
    rng = np.random.default_rng(29)
    for _ in range(10):
        x = [rng.uniform(lo, hi) for lo, hi in b.box]
        e = FiberPoint(x, rng.uniform(-1, 1, A.n))
        Lx = Lg.jet(e)[1].tolist()
        ref = [sum(map(mul, col, Lx), 0.0) for col in A.anchor_at(BasePoint(x)).T.tolist()]
        sbar, r = prolong.d_TEE_L(Lg, e).sbar, prolong.dirac_differential(Lg, e).r
        assert list(map(float.hex, sbar.tolist())) == [v.hex() for v in ref]
        assert list(map(float.hex, r.tolist())) == [(-v).hex() for v in ref]


@pytest.mark.parametrize("name", model_names())
def test_stacked_energies_equal_the_per_state_products_bit_for_bit(name):
    b = get_model(name)
    sys = b.system
    m, n = sys.A.m, sys.A.n
    rng = np.random.default_rng(31)
    N = 60
    xs = np.array([[rng.uniform(lo, hi) for lo, hi in b.box] for _ in range(N)]).reshape(N, m)
    scale = 10.0 ** rng.integers(-3, 4, size=(N, 1))  # rounding at every magnitude
    states = State.stack(xs, rng.standard_normal((N, n)) * scale, rng.standard_normal((N, n)))
    jet = sys.Lg._flat
    ref = [float(st.p @ st.y - jet([*st.x.tolist(), *st.y.tolist()])[0]) for st in states]
    assert list(map(repr, dynamics._energies(sys, states))) == list(map(repr, ref))
