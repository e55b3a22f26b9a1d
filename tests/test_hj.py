import builtins
import math
import re
from operator import mul

import numpy as np
import pytest

from algmech import dynamics, expr, hj
from algmech.algebroid import BasePoint, DualPoint, LieAlgebroid, Subbundle
from algmech.dirac import lift_subbundle
from algmech.errors import BadParams, EvaluationFault, FlowBlowUp, HypothesisViolated, RankDeficient
from algmech.hj import (
    FLOW_BOUND,
    BaseTrajectory,
    HJSection,
    SectionReport,
    base_flow,
    check_closedness,
    check_in_K,
    hj_residual,
    verify_theorem,
)
from algmech.models import get_model
from algmech.prolong import Lagrangian

ORIGIN1 = BasePoint([0.0])


def test_check_in_K_free_particle():
    b = get_model("free-particle", d=1)
    s = HJSection(1, 1, ["2"], ["2"])
    rep = check_in_K(b.system, s, ORIGIN1, 1e-9)
    assert rep.in_U and rep.legendre_gap == 0.0


def test_check_in_K_oscillator_section():
    b = get_model("harmonic-oscillator")
    s = b.hj_sections["default"]
    rep = check_in_K(b.system, s, BasePoint([0.5]), 1e-9)
    assert rep.in_U and rep.legendre_gap == 0.0
    # momentum part away from the Legendre image is flagged
    bad = HJSection(1, 1, ["sqrt(2 - x1^2)"], ["sqrt(2 - x1^2) + 0.1"])
    assert check_in_K(b.system, bad, BasePoint([0.5]), 1e-9).legendre_gap >= 0.1 - 1e-12


def test_check_in_K_velocity_outside_u():
    b = get_model("suslov")
    s = HJSection(3, 0, ["0.1", "0.2", "0.3"], ["0", "0", "0"])
    rep = check_in_K(b.system, s, BasePoint([]), 1e-9)
    assert not rep.in_U


def test_closedness_trivial_cases():
    # one-dimensional span: nothing to antisymmetrize
    b = get_model("harmonic-oscillator")
    assert check_closedness(b.system, b.hj_sections["default"], BasePoint([0.3])) == 0.0
    # gradient momentum parts on a flat bundle
    bf = get_model("free-particle")
    s = HJSection(2, 2, ["x2", "x1"], ["x2", "x1"])  # gradient of x1*x2
    assert check_closedness(bf.system, s, BasePoint([0.7, -0.4])) == 0.0


def test_closedness_detects_bracket_term():
    b = get_model("suslov")
    s = HJSection(3, 0, ["0", "0", "0"], ["0", "0", "1"])
    assert check_closedness(b.system, s, BasePoint([])) == pytest.approx(1.0)


def test_closedness_antisymmetric_under_argument_swap():
    # the underlying bilinear form changes sign when the two span
    # columns swap; the reported maximum is unaffected
    from algmech.algebroid import Subbundle

    b = get_model("suslov")
    A = b.system.A
    s = HJSection(3, 0, ["0", "0", "0"], ["0.3", "-0.2", "0.8"])
    J = s.momentum_jacobian(BasePoint([]))
    gb = s.momentum(BasePoint([]))
    C = A.structure_at(BasePoint([]))
    R = -np.einsum("a,abd->bd", gb, C)
    assert np.array_equal(R, -R.T)


def test_hj_residual_examples():
    bf = get_model("free-particle", d=1)
    s = HJSection(1, 1, ["2"], ["2"])
    assert np.array_equal(hj_residual(bf.system, s, ORIGIN1), [0.0])

    bh = get_model("harmonic-oscillator")
    good = bh.hj_sections["default"]
    r = hj_residual(bh.system, good, BasePoint([0.5]))
    assert abs(r[0]) <= 1e-15

    # shifting the velocity part breaks the cancellation linearly
    shifted = HJSection(1, 1, ["sqrt(2 - x1^2) + 0.1"], ["sqrt(2 - x1^2)"])
    r = hj_residual(bh.system, shifted, BasePoint([0.5]))
    gprime = -0.5 / math.sqrt(2 - 0.25)
    assert r[0] == pytest.approx(0.1 * gprime, rel=1e-12)


def test_base_flow_constant_field():
    b = get_model("free-particle", d=1)
    s = HJSection(1, 1, ["2"], ["2"])
    flow = base_flow(b.system, s, ORIGIN1, 1e-3, 1.0)
    assert abs(flow.points[-1, 0] - 2.0) <= 1e-10


def test_base_flow_trivial_on_anchor_free_models():
    b = get_model("rigid-body")
    s = HJSection(3, 0, ["1", "0", "0"], ["1", "0", "0"])
    flow = base_flow(b.system, s, BasePoint([]), 0.1, 1.0)
    assert flow.points.shape == (11, 0)


def test_base_flow_separable_closed_form():
    b = get_model("harmonic-oscillator")
    s = b.hj_sections["default"]
    flow = base_flow(b.system, s, ORIGIN1, 1e-3, 1.0)
    for t, x in zip(flow.times, flow.points[:, 0]):
        assert abs(x - math.sqrt(2.0) * math.sin(t)) <= 1e-8


def test_base_flow_blowup_detection():
    b = get_model("free-particle", d=1)
    s = HJSection(1, 1, ["x1^2 + 1"], ["x1^2 + 1"])
    with pytest.raises(FlowBlowUp):
        base_flow(b.system, s, BasePoint([1.0]), 1e-3, 2.0)


def test_verify_theorem_positive_cases():
    bf = get_model("free-particle")
    rep = verify_theorem(
        bf.system, bf.hj_sections["default"], BasePoint([0.0, 0.0]), 5e-3, 1.0, 1e-8
    )
    assert rep.hj_pass and rep.lift_pass and rep.consistent

    bh = get_model("harmonic-oscillator")
    rep = verify_theorem(
        bh.system, bh.hj_sections["default"], ORIGIN1, 5e-3, 1.0, 1e-8
    )
    assert rep.hj_pass and rep.lift_pass and rep.consistent


def test_verify_theorem_hypothesis_violation():
    bh = get_model("harmonic-oscillator")
    bad = HJSection(1, 1, ["sqrt(2 - x1^2)"], ["sqrt(2 - x1^2) + 0.1"])
    with pytest.raises(HypothesisViolated):
        verify_theorem(bh.system, bad, ORIGIN1, 5e-3, 1.0, 1e-8)


def test_verify_theorem_reports_a_violation_before_later_points_are_evaluated():
    # the momentum part is off the Legendre image at x0 and undefined once
    # the flow (sqrt(2) sin t) passes x1 = 1, near t = 0.79
    bh = get_model("harmonic-oscillator")
    bad = HJSection(1, 1, ["sqrt(2 - x1^2)"], ["sqrt(1 - x1) + 0.5"])
    with pytest.raises(EvaluationFault):
        bad.momentum(BasePoint([1.1]))
    with pytest.raises(HypothesisViolated) as info:
        verify_theorem(bh.system, bad, ORIGIN1, 5e-3, 1.0, 1e-8)
    assert info.value.condition == "momentum part is not the Legendre image"
    assert list(info.value.point) == [0.0]
    assert info.value.value == pytest.approx(1.5 - math.sqrt(2.0))


def test_public_checks_evaluate_only_what_they_read():
    # d gammabar / dx is undefined at the origin: only closedness and the
    # HJ residual read it.  An undefined velocity part does not reach
    # closedness, which reads neither gamma nor the L-jet.
    b = get_model("free-particle", d=1)
    s = HJSection(1, 1, ["0"], ["sqrt(x1)"])
    rep = check_in_K(b.system, s, ORIGIN1, 1e-9)
    assert rep.in_U and rep.legendre_gap == 0.0
    for check in (check_closedness, hj_residual):
        with pytest.raises(EvaluationFault):
            check(b.system, s, ORIGIN1)
    bf = get_model("free-particle")
    undefined_velocity = HJSection(2, 2, ["sqrt(x1 - 1)", "0"], ["x2", "x1"])
    with pytest.raises(EvaluationFault):
        check_in_K(bf.system, undefined_velocity, BasePoint([0.0, 0.5]), 1e-9)
    assert check_closedness(bf.system, undefined_velocity, BasePoint([0.0, 0.5])) == 0.0


@pytest.mark.filterwarnings("error")
def test_section_jets_run_on_python_floats():
    # a numpy scalar binding would warn and report a non-finite derivative
    s = HJSection(1, 1, ["1/x1"], ["1/x1"])
    with pytest.raises(EvaluationFault, match="float division by zero"):
        s.momentum_jacobian(ORIGIN1)


def test_verify_theorem_evaluates_the_momentum_jet_before_the_hypotheses():
    # one jet gives gammabar and its derivative at each flow point, so an
    # undefined derivative is reported ahead of a Legendre gap there
    b = get_model("free-particle", d=1)
    s = HJSection(1, 1, ["0"], ["sqrt(x1) + 1"])
    with pytest.raises(EvaluationFault):
        verify_theorem(b.system, s, ORIGIN1, 5e-3, 1.0, 1e-8)


def test_verify_theorem_refuses_a_single_step():
    # the lift check needs three samples for its difference stencils
    bh = get_model("harmonic-oscillator")
    with pytest.raises(BadParams):
        verify_theorem(bh.system, bh.hj_sections["default"], ORIGIN1, 0.5, 0.5, 1e-8)


def test_verify_theorem_biconditional_under_perturbations():
    for name, x0 in (("free-particle", [0.0, 0.0]), ("harmonic-oscillator", [0.0])):
        b = get_model(name)
        for seed in range(10):
            rng = np.random.default_rng(seed)
            failing = seed % 2 == 0
            s = b.perturb(rng, failing)
            rep = verify_theorem(b.system, s, BasePoint(x0), 5e-3, 1.0, 1e-8)
            assert rep.consistent, (name, seed, rep)
            assert rep.hj_pass == (not failing), (name, seed, rep)


def test_hj_residual_is_energy_gradient_for_gradient_sections():
    # for a flat bundle with gradient sections, the residual equals the
    # coordinate gradient of the pulled-back generalized energy
    from algmech.algebroid import FiberPoint
    from algmech.prolong import energies

    b = get_model("free-particle")
    s = HJSection(2, 2, ["x2 + 1", "x1 + 1"], ["x2 + 1", "x1 + 1"])
    x = np.array([0.3, -0.2])
    r = hj_residual(b.system, s, BasePoint(x))
    h = 1e-6
    grad = []
    for i in range(2):
        def El(q):
            g = s.velocity(BasePoint(q))
            return energies(b.system.Lg, FiberPoint(q, g), s.momentum(BasePoint(q)))[1]

        qp, qm = x.copy(), x.copy()
        qp[i] += h
        qm[i] -= h
        grad.append((El(qp) - El(qm)) / (2 * h))
    assert np.allclose(r, grad, atol=1e-8)


# Sections where C != 0, rho != I or U != E.  They are built here rather
# than bundled in ModelBundle.hj_sections, which the geometry benchmark
# runs in full.
COUPLED_I = np.array([[2.0, 0.0, 0.3], [0.0, 1.5, 0.2], [0.3, 0.2, 1.0]])


def _section(gamma, gammabar, m):
    text = lambda v: v if isinstance(v, str) else repr(float(v))
    return HJSection(
        len(gamma), m, [text(v) for v in gamma], [text(v) for v in gammabar]
    )


def _coupled_suslov(gamma):
    # U = span(e1, e2); a constant gamma with gamma3 = 0 is closed on
    # U-pairs iff (I gamma)3 = 0, and the HJ residual vanishes (m = 0)
    return _section(gamma, COUPLED_I @ np.asarray(gamma), 0)


def _affine(g1, g2):
    # rho = (1, x1), C^1_12 = 1, L = |y|^2 / 2: gamma = gammabar is closed
    # iff gamma2 = x1 gamma1 + c, and HJ holds iff |gamma|^2 is constant
    return _section([g1, g2], [g1, g2], 1)


def _refused_as_not_closed(b, s, x0):
    with pytest.raises(HypothesisViolated) as info:
        verify_theorem(b.system, s, BasePoint(x0), 5e-3, 0.5, 1e-8)
    assert info.value.condition == "closedness on U-pairs"
    return info.value.value


def test_verify_theorem_coupled_suslov():
    b = get_model("suslov", inertia=COUPLED_I)
    origin = BasePoint([])
    rep = verify_theorem(b.system, _coupled_suslov([0.2, -0.3, 0.0]), origin, 5e-3, 1.0, 1e-8)
    assert rep.hj_pass and rep.lift_pass and rep.consistent
    assert rep.max_hj_residual == 0.0 and rep.max_lift_residual <= 1e-12
    assert _refused_as_not_closed(b, _coupled_suslov([1.0, 0.0, 0.0]), []) == pytest.approx(0.3)
    rng = np.random.default_rng(5)
    for _ in range(4):
        a, delta = rng.uniform(-1.0, 1.0), rng.choice([-1, 1]) * rng.uniform(0.1, 0.5)
        closed = _coupled_suslov([a, -1.5 * a, 0.0])
        rep = verify_theorem(b.system, closed, origin, 5e-3, 0.5, 1e-8)
        assert rep.hj_pass and rep.lift_pass and rep.consistent, (a, rep)
        off = _coupled_suslov([a, -1.5 * a + delta, 0.0])
        assert _refused_as_not_closed(b, off, []) == pytest.approx(abs(0.2 * delta), rel=1e-9)


def test_verify_theorem_affine_rank2():
    b = get_model("affine-rank2")
    x0 = BasePoint([0.1])
    rep = verify_theorem(b.system, _affine("0", "0.7"), x0, 5e-3, 0.5, 1e-8)
    assert rep.hj_pass and rep.lift_pass and rep.consistent
    rep = verify_theorem(b.system, _affine("0.5", "0.5 * x1 + 0.7"), x0, 5e-3, 0.5, 1e-8)
    assert not rep.hj_pass and not rep.lift_pass and rep.consistent
    assert rep.max_hj_residual > 0.1
    assert _refused_as_not_closed(b, _affine("0.5", "x1"), [0.1]) == pytest.approx(0.5)
    rng = np.random.default_rng(7)
    for _ in range(4):
        a = float(rng.choice([-1, 1]) * rng.uniform(0.2, 0.5))
        c = rng.uniform(0.5, 1.0)
        delta = float(rng.choice([-1, 1]) * rng.uniform(0.1, 0.5))
        x = BasePoint([rng.uniform(-0.2, 0.2)])
        rep = verify_theorem(b.system, _affine(0.0, c), x, 5e-3, 0.5, 1e-8)
        assert rep.hj_pass and rep.lift_pass and rep.consistent, (c, rep)
        moving = _affine(a, f"{a!r} * x1 + {c!r}")
        rep = verify_theorem(b.system, moving, x, 5e-3, 0.5, 1e-8)
        assert not rep.hj_pass and not rep.lift_pass and rep.consistent, (a, c, rep)
        off = _affine(a, f"{a + delta!r} * x1 + {c!r}")
        assert _refused_as_not_closed(b, off, x.x) == pytest.approx(abs(delta), rel=1e-9)


@pytest.mark.parametrize("name, x0", [("free-particle", [0.0, 0.0]), ("harmonic-oscillator", [-0.3])])
def test_verify_theorem_fields_equal_the_pointwise_checks(name, x0):
    # bit for bit: each field of the stacked pass against the public
    # one-point checks at every flow point, for the default section, 20
    # seeded perturbations (half of them failing the HJ equation, which
    # on the oscillator peak at x0) and a Legendre gap and a closedness
    # defect below tol that change along the flow
    b = get_model(name)
    sys, x0 = b.system, BasePoint(x0)
    default = b.hj_sections["default"]
    sections = [default]
    sections += [b.perturb(np.random.default_rng(seed), seed % 2 == 0) for seed in range(20)]
    m = sys.A.m
    off = [f"{default.gammabar[0]} + 1e-9 * (2 + x1) * (1 + x{m})", *map(str, default.gammabar[1:])]
    sections.append(HJSection(default.n, m, list(map(str, default.gamma)), off))
    h = 5e-3
    for s in sections:
        rep = verify_theorem(sys, s, x0, h, 0.25, 1e-8)
        points = [BasePoint(x) for x in base_flow(sys, s, x0, h, 0.25).points]
        hyp = [check_in_K(sys, s, x, 1e-8) for x in points]
        closed = [check_closedness(sys, s, x) for x in points]
        assert all(k.in_U and k.legendre_gap <= 1e-8 for k in hyp)
        assert max(closed) <= 1e-8
        assert rep.at_x0 == hyp[0] and rep.closedness_at_x0 == closed[0]
        hj = [float(np.abs(hj_residual(sys, s, x)).max()) for x in points]
        assert rep.max_hj_residual == max(hj)
        states = [dynamics.State(x.x, s.velocity(x), s.momentum(x)) for x in points]
        xdots = dynamics._fd_derivatives(np.array([x.x for x in points]), h)
        pdots = dynamics._fd_derivatives(np.array([st.p for st in states]), h)
        lift = [dynamics.residual(sys, *args, 1e-8) for args in zip(states, xdots, pdots)]
        assert rep.max_lift_residual == max(max(r.r_U, r.r_kin, r.r_leg, r.r_mom) for r in lift)


@pytest.mark.filterwarnings("error")
def test_in_U_test_does_not_overflow_on_a_huge_velocity():
    # |gamma|^2 overflows at every flow point; a Lagrangian linear in y
    # keeps the other checks finite, and the theorem holds
    from algmech.algebroid import Subbundle
    from algmech.dynamics import ImplicitSystem
    from algmech.prolong import Lagrangian

    A = get_model("suslov").system.A
    sys = ImplicitSystem(A, Lagrangian(A, "y1 + 2 * y2"), Subbundle.adapted_rank(A, 2))
    s = HJSection(3, 0, ["1e300", "2e300", "0"], ["1", "2", "0"])
    assert check_in_K(sys, s, BasePoint([]), 1e-8) == SectionReport(True, 0.0)
    rep = verify_theorem(sys, s, BasePoint([]), 5e-3, 0.5, 1e-8)
    assert rep.hj_pass and rep.lift_pass and rep.at_x0 == SectionReport(True, 0.0)
    off = HJSection(3, 0, ["1e300", "0", "1e300"], ["1", "2", "0"])
    assert not check_in_K(sys, off, BasePoint([]), 1e-8).in_U
    with pytest.raises(HypothesisViolated, match="velocity part outside U"):
        verify_theorem(sys, off, BasePoint([]), 5e-3, 0.5, 1e-8)


@pytest.mark.filterwarnings("error")
def test_a_velocity_part_whose_norm_overflows_is_not_in_U():
    # |gamma| overflows: an unscaled bound tol (1 + |gamma|) is inf and
    # once let a distance of 1.5e308 from U pass; Subbundle.member, which
    # scales its bound, must agree
    A = get_model("rigid-body").system.A
    sys = dynamics.ImplicitSystem(A, Lagrangian(A, "y1 - y3 + y2"), Subbundle.adapted_rank(A, 2))
    s = HJSection(3, 0, ["1.5e308", "0", "1.5e308"], ["1", "1", "-1"])
    assert not check_in_K(sys, s, BasePoint([]), 1e-8).in_U
    assert not sys.U.member(BasePoint([]), s.velocity(BasePoint([])), 1e-8)
    with pytest.raises(HypothesisViolated, match="velocity part outside U"):
        verify_theorem(sys, s, BasePoint([]), 5e-3, 0.5, 1e-8)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma", ["1e300", "1e300 * (x1 + 1)"])
def test_an_overflowing_base_flow_stage_is_a_blow_up(gamma):
    # a stage point 1e9 * 1e300 / 2 is inf: the step fails its bound
    b = get_model("free-particle", d=1)
    s = HJSection(1, 1, [gamma], ["1"])
    with pytest.raises(FlowBlowUp, match="at t=1e"):
        base_flow(b.system, s, ORIGIN1, 1e9, 2e9)


@pytest.mark.parametrize("gamma", ["1e300 * 1e300", "1e300 * (x1 + 1e10)"])
def test_a_non_finite_section_value_is_reported_as_evaluate_reports_it(gamma):
    # the value-only array jets of the two parts keep evaluate()'s message
    b = get_model("free-particle", d=1)
    s = HJSection(1, 1, [gamma], [gamma])
    for read in (s.velocity, s.momentum):
        with pytest.raises(EvaluationFault, match="non-finite result inf"):
            read(ORIGIN1)
    with pytest.raises(EvaluationFault, match="non-finite result inf"):
        verify_theorem(b.system, s, ORIGIN1, 5e-3, 1.0, 1e-8)


def test_a_nan_closedness_defect_is_a_violated_hypothesis():
    # gammabar_2 C^2_12 overflows against the anchor term, so closedness is
    # nan at x0; it once passed the hypothesis checks because nan > tol is False
    A = LieAlgebroid(1, 2, [["1", "0"]], {(1, 0, 1): "1e300"})
    sys = dynamics.ImplicitSystem(
        A, Lagrangian(A, "y1 + 1e300 * y2"), Subbundle.adapted_rank(A, 2)
    )
    s = HJSection(2, 1, ["0", "0"], ["1", "1e300"])
    with np.errstate(all="ignore"):
        assert math.isnan(check_closedness(sys, s, BasePoint([0.0])))
        with pytest.raises(HypothesisViolated, match="closedness") as info:
            verify_theorem(sys, s, BasePoint([0.0]), 1e-2, 0.02, 1e-8)
    assert math.isnan(info.value.value)


def generic_rk4_step(f, q, k1, h):
    """One RK4 step as the comprehensions that computed it before it was
    emitted as straight-line source: the reference."""
    hh, h6 = 0.5 * h, h / 6.0
    k2 = f([a + hh * b for a, b in zip(q, k1)])
    k3 = f([a + hh * b for a, b in zip(q, k2)])
    k4 = f([a + h * b for a, b in zip(q, k3)])
    stages = zip(q, k1, k2, k3, k4)
    return [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in stages]


def closure_field(sys, s):
    """The base field as the closure that computed it before it was
    emitted once per algebroid: the reference."""
    A, n = sys.A, sys.A.n

    def field(x):
        if not all(map(math.isfinite, x)):  # an overflowed stage fails its step's bound
            return [math.nan] * len(x)
        g, rho = s._part(s.gamma, x)[0], A.anchor_jet_at(x)[0]
        return [sum(map(mul, rho[i * n : i * n + n], g)) for i in range(len(x))]

    return field


def closure_base_flow(sys, s, x0, h, T):
    """``base_flow`` with the closure field and the generic RK4 step."""
    field, N = closure_field(sys, s), dynamics._steps(h, T)
    x = x0.x.tolist()
    pts = [x]
    for k in range(N):
        x = generic_rk4_step(field, x, field(x), h)
        if not all(abs(v) <= FLOW_BOUND for v in x):
            raise FlowBlowUp(f"base flow left |x| <= {FLOW_BOUND:g} at t={(k + 1) * h:g}")
        pts.append(x)
    return BaseTrajectory(np.arange(N + 1) * h, np.array(pts))


def flow_outcome(flow, sys, s, x0, h, T):
    """The flow's points as bytes, or the type and message of its fault."""
    try:
        return flow(sys, s, x0, h, T).points.tobytes()
    except (EvaluationFault, FlowBlowUp) as exc:
        return type(exc), str(exc)


def _flow_cases() -> list:
    """(system, section, x0): every HJ section of the built-in models,
    default and perturbed (passing and failing), from two points, and an
    x-dependent anchor."""
    cases = []
    for name in ("free-particle", "harmonic-oscillator"):
        b = get_model(name)
        secs = [b.hj_sections["default"]]
        secs += [b.perturb(np.random.default_rng(seed), seed % 2 == 0) for seed in range(8)]
        m = b.system.A.m
        cases += [(b.system, s, BasePoint(x)) for s in secs for x in ([0.0] * m, [0.15] * m)]
    affine = get_model("affine-rank2").system
    cases += [(affine, _affine(g1, g2), BasePoint([0.1]))
              for g1, g2 in (("0", "0.7"), ("0.5", "0.5 * x1 + 0.7"), ("0.5 * x1", "x1"))]
    return cases


def test_the_emitted_base_flow_is_the_closure_field_bit_for_bit():
    # fresh sections as well as warm ones, two horizons
    for sys, s, x0 in _flow_cases():
        for T in (0.25, 1.0):
            got = flow_outcome(base_flow, sys, s, x0, 5e-3, T)
            want = flow_outcome(closure_base_flow, sys, s, x0, 5e-3, T)
            assert isinstance(got, bytes) and got == want
            fresh = HJSection(s.n, sys.A.m, list(map(str, s.gamma)), list(map(str, s.gammabar)))
            assert flow_outcome(base_flow, sys, fresh, x0, 5e-3, T) == got


def test_the_fused_flow_step_is_the_generic_step_bit_for_bit():
    # the emitted step against the generic one over the closure field, at
    # the same stage inputs, which the step binds gamma's jet at
    hexes = lambda v: [float(a).hex() for a in v]
    for sys, s, x0 in _flow_cases():
        jet, inputs = expr.compile_jet2(s.gamma, ()).checked, []

        def recording(b):
            inputs.append(hexes(b.values()))
            return jet(b)

        step, field = hj._emit_flow(sys.A)(recording, s.gamma), closure_field(sys, s)
        x = x0.x.tolist()
        for h in (5e-3, 0.5):
            calls = [hexes(x)]

            def f(v):
                calls.append(hexes(v))
                return field(v)

            inputs.clear()
            got, gamma = step(x, h)
            assert hexes(got) == hexes(generic_rk4_step(f, x, field(x), h))
            assert inputs == calls and hexes(gamma) == hexes(s._part(s.gamma, x)[0])


def test_the_theorem_reads_gamma_from_the_flow_but_at_its_last_point(monkeypatch):
    b = get_model("harmonic-oscillator")
    s, reads = b.hj_sections["default"], []
    part = HJSection._part

    def counted(self, p, x, gradients=False):
        reads.append((p is self.gamma, x))
        return part(self, p, x, gradients)

    want = verify_theorem(b.system, s, ORIGIN1, 5e-3, 0.25, 1e-8)
    monkeypatch.setattr(HJSection, "_part", counted)
    assert verify_theorem(b.system, s, ORIGIN1, 5e-3, 0.25, 1e-8) == want
    last = base_flow(b.system, s, ORIGIN1, 5e-3, 0.25).points[-1].tolist()
    assert [x for is_gamma, x in reads if is_gamma] == [last]
    assert len(reads) == 1 + 51  # and gammabar's jet at each of the 51 points


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gamma, x0, h, T", [
    ("x1^3 * 1e3", [0.5], 1e-3, 1.0),  # blows up
    ("1e300", [0.0], 1e9, 2e9),  # an overflowing stage gives nan
    ("1e300 * (x1 + 1)", [0.0], 1e9, 2e9),
    ("1 / x1", [0.0], 1e-2, 1.0),  # a pole at x0, on the first call
    ("sqrt(0.3 - x1)", [0.1], 5e-2, 1.0),  # past 0.3 on a later call
    ("exp(1000 * x1)", [0.8], 1e-2, 1.0),  # math range error
    ("1e300 * (x1 + 1e10)", [0.0], 1e-2, 1.0),  # non-finite result inf
    ("y1", [0.0], 1e-2, 1.0),  # unbound variable
])
def test_the_emitted_base_flow_faults_as_the_closure_field(gamma, x0, h, T):
    sys, x0 = get_model("free-particle", d=1).system, BasePoint(x0)
    want = flow_outcome(closure_base_flow, sys, HJSection(1, 1, [gamma], ["0"]), x0, h, T)
    assert not isinstance(want, bytes)
    s = HJSection(1, 1, [gamma], ["0"])
    assert flow_outcome(base_flow, sys, s, x0, h, T) == want  # fresh
    assert flow_outcome(base_flow, sys, s, x0, h, T) == want  # warm


def test_a_flow_fetches_its_sections_compiled_jet_once(monkeypatch):
    sys = get_model("affine-rank2").system
    base_flow(sys, _affine("0", "0.7"), BasePoint([0.1]), 5e-3, 0.25)  # emits the field
    field, compiled, real_compile = sys.A._kernels[("base flow",)], [], builtins.compile

    def counted(source, filename, *a, **k):
        compiled.append(filename)
        return real_compile(source, filename, *a, **k)

    monkeypatch.setattr(builtins, "compile", counted)
    s, events = _affine("0.5 * x1", "x1 + 0.7"), []
    for name in ("compile_jet2", "_interpret_jet2", "_build_jet2"):
        def wrapped(e, wrt, *a, _name=name, _f=getattr(expr, name), **k):
            if e is s.gamma:
                events.append(_name)
            return _f(e, wrt, *a, **k)
        monkeypatch.setattr(expr, name, wrapped)
    base_flow(sys, s, BasePoint([0.1]), 5e-3, 0.25)  # 50 steps, 200 field calls
    assert events == ["compile_jet2", "_build_jet2"]  # a fresh section compiles, no tree walk
    base_flow(sys, s, BasePoint([0.1]), 5e-3, 0.25)
    assert events[2:] == ["compile_jet2"]  # fetched once a flow, not per call
    # the source is the algebroid's: another section compiles nothing new
    assert sys.A._kernels[("base flow",)] is field
    assert compiled == ["<jet2>"]  # the section's own jet


def test_every_reader_of_U_refuses_a_span_that_lost_rank():
    # 2e-9 x1 is a singular value below the rank tol 1e-9 where x1 < 0.5,
    # and 5e-10 is below it everywhere
    A = LieAlgebroid(1, 2, [["1", "0"]], {})
    Lg, s = Lagrangian(A, "0.5 * y1^2 + 0.5 * y2^2"), HJSection(2, 1, ["1", "0"], ["1", "0"])
    for column, x1, ok in ((["0", "2e-9 * x1"], 0.8, True), (["0", "2e-9 * x1"], 0.3, False),
                           (["0", "5e-10"], 0.8, False)):
        U = Subbundle(A, 2, [["1", "0"], column])
        sys, x = dynamics.ImplicitSystem(A, Lg, U), BasePoint([x1])
        readers = [lambda: U.span_at(x), lambda: lift_subbundle(A, U, DualPoint([x1], [1.0, 0.5])),
                   lambda: check_closedness(sys, s, x), lambda: hj_residual(sys, s, x)]
        if ok:
            for read in readers:
                read()
            continue
        for read in [*readers, lambda: verify_theorem(sys, s, x, 1e-2, 0.1, 1e-8)]:
            with pytest.raises(RankDeficient, match=re.escape(f"rank 1, expected 2 at x={x.x}")):
                read()


def test_a_part_with_gradients_takes_x_by_position_bit_for_bit():
    # _part(gammabar, x, True) against the mapping form on a twin section,
    # whose arrays have their own jet caches: the first call walks the
    # tree, later ones run the compiled jet, and a fault is the same
    def section():
        return HJSection(2, 2, ["x1", "x2"], ["ln(x1) * x2", "sin(x2) + x1^3 / (1 + x2^2)"])

    def mapping(s, x):
        return expr.compile_jet2(s.gammabar, s._x, defer=True).checked(dict(zip(s._x, x)))[:2]

    def hexes(values, grads):
        return [float(v).hex() for v in (*values, *grads)]

    def outcome(f, *args):
        try:
            return hexes(*f(*args))
        except EvaluationFault as exc:
            return type(exc), str(exc)

    for x in ([0.7, -1.3], [0.0, 2.0], [-1.0, 0.5]):
        s, ref = section(), section()
        for _ in range(3):  # walked, compiled, compiled
            got, want = outcome(s._part, s.gammabar, x, True), outcome(mapping, ref, x)
            assert got == want
            assert (got[0] is EvaluationFault) is (x[0] <= 0.0)
