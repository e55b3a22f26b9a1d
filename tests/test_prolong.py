import numpy as np
import pytest

from algmech import expr
from algmech.algebroid import BasePoint, DualPoint, FiberPoint, LieAlgebroid, contract
from algmech.dynamics import State, Trajectory
from algmech.errors import AlgmechError, EvaluationFault, NonFinite
from algmech.models import SO3_STRUCTURE, get_model, model_names
from algmech.prolong import (
    A_E_inverse,
    A_E_map,
    Lagrangian,
    ProlongCovector,
    ProlongVector,
    TEECovector,
    TEEVector,
    d_TEE_L,
    dirac_differential,
    energies,
    euler_and_S,
    gamma_E_map,
    legendre,
    liouville,
    omega_flat,
    omega_sharp,
    pair,
    symplectic_matrix,
)


def so3():
    return LieAlgebroid(0, 3, [], SO3_STRUCTURE)


def tangent(d):
    rows = [[("1" if i == j else "0") for j in range(d)] for i in range(d)]
    return LieAlgebroid(d, d, rows, {})


def random_dual(A, rng):
    x = rng.uniform(-1, 1, size=A.m)
    return DualPoint(x, rng.standard_normal(A.n))


MODELS = lambda: [tangent(2), so3(), LieAlgebroid(1, 2, [["1", "x1"]], {(0, 0, 1): "1"})]


def test_omega_flat_on_tangent_bundle_is_canonical():
    A = tangent(2)
    pt = DualPoint([0.1, 0.2], [1.0, -1.0])
    al = omega_flat(A, ProlongVector(pt, [1.0, 2.0], [3.0, 4.0]))
    assert np.array_equal(al.r, [-3.0, -4.0])
    assert np.array_equal(al.v, [1.0, 2.0])


def test_omega_flat_rotation_example():
    A = so3()
    pt = DualPoint([], [1.0, 0.0, 0.0])
    al = omega_flat(A, ProlongVector(pt, [0.0, 1.0, 0.0], np.zeros(3)))
    # r = -(z x p) for the alternating constants
    assert np.allclose(al.r, [0.0, 0.0, 1.0])
    assert np.allclose(al.v, [0.0, 1.0, 0.0])
    zero = omega_flat(A, ProlongVector(pt, np.zeros(3), np.zeros(3)))
    assert not zero.r.any() and not zero.v.any()


def test_omega_sharp_inverts_omega_flat():
    rng = np.random.default_rng(21)
    for A in MODELS():
        for _ in range(200):
            pt = random_dual(A, rng)
            X = ProlongVector(pt, rng.standard_normal(A.n), rng.standard_normal(A.n))
            Y = omega_sharp(A, omega_flat(A, X))
            assert np.abs(Y.z - X.z).max() <= 1e-12
            assert np.abs(Y.u - X.u).max() <= 1e-12
            al = ProlongCovector(pt, rng.standard_normal(A.n), rng.standard_normal(A.n))
            be = omega_flat(A, omega_sharp(A, al))
            assert np.abs(be.r - al.r).max() <= 1e-12
            assert np.abs(be.v - al.v).max() <= 1e-12


def test_symplectic_matrix_blocks_and_pairing():
    A = tangent(2)
    M = symplectic_matrix(A, DualPoint([0.0, 0.0], [1.0, 2.0]))
    expect = np.block([[np.zeros((2, 2)), np.eye(2)], [-np.eye(2), np.zeros((2, 2))]])
    assert np.array_equal(M, expect)

    B = so3()
    pt = DualPoint([], [0.0, 0.0, 1.0])
    M = symplectic_matrix(B, pt)
    assert np.allclose(M[:3, :3], [[0, 1, 0], [-1, 0, 0], [0, 0, 0]])
    assert np.abs(M + M.T).max() == 0.0

    rng = np.random.default_rng(4)
    for _ in range(100):
        p = rng.standard_normal(3)
        M = symplectic_matrix(B, DualPoint([], p))
        assert abs(np.linalg.det(M)) > 1e-12
        X = ProlongVector(DualPoint([], p), rng.standard_normal(3), rng.standard_normal(3))
        cov = np.concatenate([X.z, X.u]) @ M
        fl = omega_flat(B, X)
        assert np.abs(cov - np.concatenate([fl.r, fl.v])).max() <= 1e-12


def test_liouville_section():
    A = so3()
    pt = DualPoint([], [1.0, 2.0, 3.0])
    lam = liouville(A, pt)
    assert np.array_equal(lam.r, [1.0, 2.0, 3.0]) and not lam.v.any()
    X = ProlongVector(pt, [1.0, 0.0, -1.0], [9.0, 9.0, 9.0])
    assert pair(lam, X) == pytest.approx(pt.p @ X.z)
    zero = liouville(A, DualPoint([], np.zeros(3)))
    assert not zero.r.any()


def test_euler_section_and_vertical_endomorphism():
    A = tangent(2)
    e = FiberPoint([0.0, 0.0], [3.0, -1.0])
    X = TEEVector(e, [1.0, 2.0], [9.0, 9.0])
    delta, SX = euler_and_S(A, X)
    assert not delta.s.any() and np.array_equal(delta.w, e.y)
    assert not SX.s.any() and np.array_equal(SX.w, [1.0, 2.0])
    # S squared vanishes
    _, SSX = euler_and_S(A, SX)
    assert not SSX.s.any() and not SSX.w.any()
    # second-order condition: S(xi) = Delta exactly when s = y
    xi = TEEVector(e, e.y, [5.0, 5.0])
    _, Sxi = euler_and_S(A, xi)
    assert np.array_equal(Sxi.w, delta.w)


def test_legendre_transform():
    A = so3()
    Lg = Lagrangian(A, "0.5 * y1^2 + 1.0 * y2^2 + 1.5 * y3^2")
    p = legendre(Lg, FiberPoint([], [1.0, 1.0, 1.0]))
    assert np.allclose(p.p, [1.0, 2.0, 3.0])

    B = LieAlgebroid(1, 2, [["0", "0"]], {})
    Ld = Lagrangian(B, "0.5 * y1^2")
    pd = legendre(Ld, FiberPoint([0.0], [4.0, 7.0]))
    assert np.array_equal(pd.p, [4.0, 0.0])
    # linear Lagrangian: momentum independent of velocity
    Ll = Lagrangian(B, "2 * y1 + 3 * y2")
    assert np.array_equal(legendre(Ll, FiberPoint([0.0], [5.0, -5.0])).p, [2.0, 3.0])


def test_A_E_round_trip_and_tangent_case():
    rng = np.random.default_rng(8)
    A = tangent(2)
    pt = DualPoint([0.0, 0.0], [0.5, -0.5])
    X = ProlongVector(pt, [1.0, 2.0], [3.0, 4.0])
    w = A_E_map(A, X)
    assert np.array_equal(w.base.y, X.z)
    assert np.array_equal(w.sbar, X.u)
    assert np.array_equal(w.wbar, pt.p)
    for B in MODELS():
        for _ in range(200):
            pt = random_dual(B, rng)
            X = ProlongVector(pt, rng.standard_normal(B.n), rng.standard_normal(B.n))
            Y = A_E_inverse(B, A_E_map(B, X))
            assert np.abs(Y.z - X.z).max() <= 1e-12
            assert np.abs(Y.u - X.u).max() <= 1e-12


def test_gamma_E_local_form_and_composition():
    A = tangent(1)
    w = TEECovector(FiberPoint([0.0], [2.0]), [3.0], [5.0])
    al = gamma_E_map(A, w)
    assert al.base.p[0] == 5.0 and al.r[0] == -3.0 and al.v[0] == 2.0

    rng = np.random.default_rng(13)
    for B in MODELS():
        for _ in range(200):
            pt = random_dual(B, rng)
            X = ProlongVector(pt, rng.standard_normal(B.n), rng.standard_normal(B.n))
            w = A_E_map(B, X)
            a1 = gamma_E_map(B, w)
            a2 = omega_flat(B, A_E_inverse(B, w))
            assert np.abs(a1.r - a2.r).max() <= 1e-12
            assert np.abs(a1.v - a2.v).max() <= 1e-12

    zero = gamma_E_map(A, TEECovector(FiberPoint([0.0], [0.0]), [0.0], [0.0]))
    assert not zero.r.any() and not zero.v.any()


def test_differential_of_L_and_dirac_differential():
    A = tangent(1)
    Lg = Lagrangian(A, "0.5 * y1^2 - 0.5 * x1^2")
    e = FiberPoint([1.0], [0.0])
    w = d_TEE_L(Lg, e)
    assert w.sbar[0] == -1.0 and w.wbar[0] == 0.0
    DL = dirac_differential(Lg, e)
    assert DL.base.p[0] == 0.0 and DL.r[0] == 1.0 and DL.v[0] == 0.0

    # composition is exact: same jets on both paths
    comp = gamma_E_map(A, w)
    assert np.array_equal(comp.r, DL.r) and np.array_equal(comp.v, DL.v)

    B = so3()
    Lr = Lagrangian(B, "0.5 * y1^2 + 1.0 * y2^2 + 1.5 * y3^2")
    DLr = dirac_differential(Lr, FiberPoint([], [1.0, 1.0, 1.0]))
    assert np.allclose(DLr.base.p, [1.0, 2.0, 3.0])
    assert not DLr.r.any()
    assert np.array_equal(DLr.v, [1.0, 1.0, 1.0])
    # anchor-free models have no base force term in d_TEE_L either
    assert not d_TEE_L(Lr, FiberPoint([], [0.3, 0.1, -2.0])).sbar.any()

    C = tangent(1)
    Lf = Lagrangian(C, "0.5 * y1^2")
    DLf = dirac_differential(Lf, FiberPoint([0.0], [2.0]))
    assert DLf.base.p[0] == 2.0 and DLf.r[0] == 0.0 and DLf.v[0] == 2.0


def test_energies():
    B = so3()
    Lr = Lagrangian(B, "0.5 * y1^2 + 1.0 * y2^2 + 1.5 * y3^2")
    eps, EL = energies(Lr, FiberPoint([], [1.0, 1.0, 1.0]))
    assert eps == pytest.approx(3.0) and EL == pytest.approx(3.0)

    C = LieAlgebroid(1, 2, [["0", "0"]], {})
    Ll = Lagrangian(C, "2 * y1 + 3 * y2")
    eps, _ = energies(Ll, FiberPoint([0.0], [0.4, -0.6]))
    assert eps == pytest.approx(0.0)

    eps, EL = energies(
        Lagrangian(C, "0"), FiberPoint([0.0], [0.0, 1.0]), p=[1.0, 0.0]
    )
    assert EL == 0.0


def test_poisson_symplectic_consistency():
    # bracket of monomials equals the symplectic pairing of their
    # hamiltonian lifts
    from algmech.algebroid import ScalarField

    rng = np.random.default_rng(17)
    for A in MODELS():
        fields = [ScalarField("p1 * p2"), ScalarField("p1^2"), ScalarField("p2")]
        if A.m:
            fields.append(ScalarField("x1 * p1"))
        for _ in range(30):
            pt = random_dual(A, rng)
            names = tuple(f"x{i+1}" for i in range(A.m)) + tuple(
                f"p{a+1}" for a in range(A.n)
            )
            F, G = rng.choice(fields, size=2, replace=False)
            lhs = A.poisson_bracket(F, G, pt)

            def lift(field):
                _, g, _ = field.jet(pt.binding(), names)
                # covector of dF on the prolongation: r = dF/dx contracted
                # back through the anchor, v = dF/dp
                r = g[: A.m] @ A.anchor_at(pt.base)
                return omega_sharp(A, ProlongCovector(pt, r, g[A.m :]))

            XF, XG = lift(F), lift(G)
            M = symplectic_matrix(A, pt)
            rhs = np.concatenate([XF.z, XF.u]) @ M @ np.concatenate([XG.z, XG.u])
            assert lhs == pytest.approx(rhs, abs=1e-10)


OK2 = [1.0, 2.0]
CARRIERS = {
    "BasePoint": (lambda v: BasePoint(v), "x must be finite, got {}"),
    "FiberPoint.x": (lambda v: FiberPoint(v, OK2), "x must be finite, got {}"),
    "FiberPoint.y": (lambda v: FiberPoint(OK2, v), "y must be finite, got {}"),
    "DualPoint.x": (lambda v: DualPoint(v, OK2), "x must be finite, got {}"),
    "DualPoint.p": (lambda v: DualPoint(OK2, v), "p must be finite, got {}"),
    "ProlongVector": (
        lambda v: ProlongVector(DualPoint(OK2, OK2), OK2, v),
        "components must be finite, got {}",
    ),
    "ProlongCovector": (
        lambda v: ProlongCovector(DualPoint(OK2, OK2), v, OK2),
        "components must be finite, got {}",
    ),
    "TEEVector": (
        lambda v: TEEVector(FiberPoint(OK2, OK2), v, OK2),
        "components must be finite, got {}",
    ),
    "TEECovector": (
        lambda v: TEECovector(FiberPoint(OK2, OK2), OK2, v),
        "components must be finite, got {}",
    ),
    "State.x": (lambda v: State(v, OK2, OK2), "state component x must be finite"),
    "State.y": (lambda v: State(OK2, v, OK2), "state component y must be finite"),
    "State.p": (lambda v: State(OK2, OK2, v), "state component p must be finite"),
}


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("carrier", sorted(CARRIERS))
def test_carriers_refuse_non_finite_coordinates(carrier, bad):
    # every carrier checks its coordinates when constructed; the message
    # names the offending slot and, for points and vectors, its values
    build, message = CARRIERS[carrier]
    v = np.array([1.0, bad])
    with pytest.raises(ValueError) as info:
        build(v)
    assert str(info.value) == message.format(v)
    build(OK2)


def test_computed_components_are_checked_after_overflow():
    # C·p·z overflows on the rigid body, so the lowered covector is refused
    A = get_model("rigid-body").system.A
    X = ProlongVector(DualPoint([], [1e200] * 3), [1e200] * 3, [0.0] * 3)
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="must be finite"):
        omega_flat(A, X)


FIELDS = {
    "BasePoint": ("x",),
    "FiberPoint": ("x", "y"),
    "DualPoint": ("x", "p"),
    "ProlongVector": ("base", "z", "u"),
    "ProlongCovector": ("base", "r", "v"),
    "TEEVector": ("base", "s", "w"),
    "TEECovector": ("base", "sbar", "wbar"),
    "State": ("x", "y", "p"),
}


@pytest.mark.parametrize("carrier", sorted(CARRIERS))
def test_carriers_are_immutable_and_name_their_arrays(carrier):
    obj = CARRIERS[carrier][0](OK2)
    name = type(obj).__name__
    fields = FIELDS[name]
    before = {f: getattr(obj, f) for f in fields}
    for f in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(obj, f, np.zeros(2))
        with pytest.raises(AttributeError):
            delattr(obj, f)
    assert all(getattr(obj, f) is v for f, v in before.items())
    assert not hasattr(obj, "extra")
    body = ", ".join(f"{f}={getattr(obj, f)!r}" for f in fields)
    assert repr(obj) == f"{name}({body})"



# x-dependent structure, so the maps also read C through structure_at
VARIABLE_C = lambda: LieAlgebroid(1, 2, [["1", "0"]], {(1, 0, 1): "x1"})


def test_float_maps_match_their_numpy_formulas():
    # each map against its formula evaluated with numpy, to 1e-15 of the
    # magnitudes summed, on the built-in models and an x-dependent C
    rng = np.random.default_rng(12)
    bundles = [get_model(name).system for name in ("rigid-body", "suslov", "affine-rank2")]
    cases = [(s.A, s.Lg) for s in bundles] + [(VARIABLE_C(), None)]
    for A, Lg in cases:
        n = A.n
        for _ in range(50):
            pt = DualPoint(rng.uniform(-1, 1, A.m), 10.0 ** rng.integers(-3, 4) * rng.standard_normal(n))
            z, u = rng.standard_normal(n), rng.standard_normal(n)
            Cp = contract(A.structure_at(pt.base), pt.p)
            bound = 1e-15 * (np.abs(u) + np.abs(Cp) @ np.abs(z))
            X = ProlongVector(pt, z, u)
            w = A_E_map(A, X)
            alpha = ProlongCovector(pt, u, z)
            for got, ref in (
                (omega_flat(A, X).r, -u - Cp @ z),
                (omega_sharp(A, alpha).u, -u - Cp @ z),
                (w.sbar, u + Cp @ z),
                (A_E_inverse(A, TEECovector(FiberPoint(pt.x, z), u, pt.p)).u, u - Cp @ z),
            ):
                assert np.all(np.abs(got - ref) <= bound)
            assert np.array_equal(omega_flat(A, X).v, z) and np.array_equal(w.wbar, pt.p)
            if Lg is None:
                continue
            e = FiberPoint(pt.x, rng.standard_normal(n))
            _, Lx, Ly, _, _, _ = Lg.jet(e)
            rho = A.anchor_at(e.base)
            ref, bound = rho.T @ Lx, 1e-15 * (np.abs(rho).T @ np.abs(Lx))
            assert np.all(np.abs(d_TEE_L(Lg, e).sbar - ref) <= bound)
            DL = dirac_differential(Lg, e)
            assert np.all(np.abs(DL.r + ref) <= bound)
            assert np.array_equal(DL.base.p, Ly) and np.array_equal(DL.v, e.y)


def test_non_finite_coordinates_raise_one_library_error():
    # NonFinite is both the package's error and a ValueError, same text
    with pytest.raises(NonFinite, match=r"^p must be finite, got \[ 1. nan\]$") as info:
        DualPoint([0.0], [1.0, np.nan])
    assert isinstance(info.value, AlgmechError) and isinstance(info.value, ValueError)
    A = get_model("rigid-body").system.A
    X = ProlongVector(DualPoint([], [1e200] * 3), [1e200] * 3, [0.0] * 3)
    with pytest.raises(NonFinite, match="^components must be finite, got "):
        A_E_map(A, X)
    with pytest.raises(NonFinite, match="^state component y must be finite$"):
        Trajectory([0.0], [[0.0]], [[np.inf]], [[0.0]], 1.0, "rk4")


@pytest.mark.parametrize("name", model_names())
def test_float_jet_equals_the_carrier_jet_bit_for_bit(name):
    # Lagrangian.jet on a float list is the flat form of the FiberPoint form
    b = get_model(name)
    Lg = b.system.Lg
    m, n = Lg.algebroid.m, Lg.algebroid.n
    rng = np.random.default_rng(18)
    for _ in range(10):
        x = np.array([rng.uniform(lo, hi) for lo, hi in b.box])
        y = rng.uniform(-1, 1, n)
        v, g, h = Lg.jet([*x.tolist(), *y.tolist()])
        L, Lx, Ly, Lxx, Lxy, Lyy = Lg.jet(FiberPoint(x, y))
        full = np.block([[Lxx, Lxy], [Lxy.T, Lyy]]).tolist()
        assert repr(v) == repr(L)
        assert list(map(repr, g)) == list(map(repr, (*Lx.tolist(), *Ly.tolist())))
        assert list(map(repr, h)) == [repr(full[j][l]) for j, l in expr._pairs(m + n)]


@pytest.mark.parametrize("L, y1", [("exp(y1)", 1000.0), ("y1 * y1", 1e200)])
def test_float_jet_faults_as_the_carrier_jet(L, y1):
    # an OverflowError and an inf product both end in the same EvaluationFault
    Lg = Lagrangian(tangent(1), L)
    with pytest.raises(EvaluationFault) as carrier:
        Lg.jet(FiberPoint([0.0], [y1]))
    with pytest.raises(EvaluationFault) as flat:
        Lg.jet([0.0, y1])
    assert str(flat.value) == str(carrier.value)
