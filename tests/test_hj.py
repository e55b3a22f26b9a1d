import math

import numpy as np
import pytest

from algmech import dynamics
from algmech.algebroid import BasePoint, LieAlgebroid, Subbundle
from algmech.errors import BadParams, EvaluationFault, FlowBlowUp, HypothesisViolated
from algmech.hj import (
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
