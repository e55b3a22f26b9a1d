"""The immutable records: positional construction in field order, the
``Name(field=value, ...)`` repr, no assignment or deletion, and equality
and hashing by value."""

import numpy as np
import pytest

from algmech.algebroid import DualPoint, LieAlgebroid, StructureReport, Subbundle
from algmech.dirac import DiracBasis, DiracPair, MembershipReport
from algmech.dynamics import ImplicitSystem, ResidualReport, Trajectory
from algmech.hj import BaseTrajectory, SectionReport, TheoremReport
from algmech.models import ModelBundle
from algmech.prolong import Lagrangian, ProlongCovector, ProlongVector

A = LieAlgebroid(0, 1, [], {})
LG, LG2 = Lagrangian(A, "0.5 * y1^2"), Lagrangian(A, "y1^2")
U = Subbundle.full(A)
SYS = ImplicitSystem(A, LG, U)
PT = DualPoint([], [1.0])
X = ProlongVector(PT, [1.0], [0.0])
ALPHA, ALPHA2 = ProlongCovector(PT, [0.0], [1.0]), ProlongCovector(PT, [2.0], [1.0])
PAIR = DiracPair(X, ALPHA)
AT = SectionReport(True, 0.0)

# name: (class, field names, values, values that differ in the last field)
RECORDS = {
    "StructureReport": (
        StructureReport, ("max_residual_eq1", "max_residual_eq2", "passed"),
        (0.0, 1.5, False), (0.0, 1.5, True),
    ),
    "DiracPair": (DiracPair, ("X", "alpha"), (X, ALPHA), (X, ALPHA2)),
    "DiracBasis": (DiracBasis, ("base", "generators"), (PT, (PAIR,)), (PT, ())),
    "MembershipReport": (
        MembershipReport,
        ("member", "span_residual", "anchor_residual", "annihilator_residual"),
        (True, 0.0, 1e-12, 2e-12), (True, 0.0, 1e-12, 3e-12),
    ),
    "ImplicitSystem": (ImplicitSystem, ("A", "Lg", "U"), (A, LG, U), (A, LG2, U)),
    "Trajectory": (
        Trajectory, ("times", "states", "h", "method"),
        ((0.0, 0.5), (), 0.5, "rk4"), ((0.0, 0.5), (), 0.5, "oracle"),
    ),
    "ResidualReport": (
        ResidualReport, ("r_U", "r_kin", "r_leg", "r_mom", "passed"),
        (0.0, 1.0, 2.0, 3.0, False), (0.0, 1.0, 2.0, 3.0, True),
    ),
    "BaseTrajectory": (
        BaseTrajectory, ("times", "points"), ((0.0, 0.5), ((1.0,), (2.0,))), ((0.0, 0.5), ()),
    ),
    "SectionReport": (SectionReport, ("in_U", "legendre_gap"), (True, 0.0), (True, 1.0)),
    "TheoremReport": (
        TheoremReport,
        ("hj_pass", "lift_pass", "consistent", "max_hj_residual", "max_lift_residual",
         "at_x0", "closedness_at_x0"),
        (True, False, False, 0.0, 1.0, AT, 0.0), (True, False, False, 0.0, 1.0, AT, 1.0),
    ),
    "ModelBundle": (
        ModelBundle, ("name", "system", "box", "doc", "hj_sections", "oracle", "perturb"),
        ("line", SYS, ((-1.0, 1.0),), "doc", (), None, None),
        ("line", SYS, ((-1.0, 1.0),), "doc", (), None, len),
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_positional_immutable_values(name):
    cls, fields, values, other = RECORDS[name]
    rec = cls(*values)
    assert type(rec).__name__ == name
    assert list(vars(rec)) == list(fields)
    assert all(getattr(rec, f) is v for f, v in zip(fields, values))
    assert repr(rec) == f"{name}(" + ", ".join(f"{f}={v!r}" for f, v in zip(fields, values)) + ")"
    for f in fields:
        with pytest.raises(AttributeError):
            setattr(rec, f, None)
        with pytest.raises(AttributeError):
            delattr(rec, f)
    with pytest.raises(AttributeError):
        rec.extra = 1
    twin = cls(*values)
    assert twin is not rec and twin == rec and hash(twin) == hash(rec)
    assert cls(*other) != rec
    assert rec != values and rec != object()
    with pytest.raises(TypeError):  # values are positional and all given
        cls(*values[:-1])


def test_record_checks_stay_in_their_constructors():
    with pytest.raises(TypeError):
        StructureReport(0.0, 0.0, passed=True)
    B = LieAlgebroid(0, 1, [], {})
    with pytest.raises(ValueError, match="share the algebroid"):
        ImplicitSystem(A, LG, Subbundle.full(B))
    with pytest.raises(ValueError, match="share a base point"):
        DiracPair(X, ProlongCovector(DualPoint([], [2.0]), [0.0], [1.0]))


def test_records_over_arrays_compare_as_the_arrays_do():
    # as for the tuple of the values: arrays of one element compare, longer
    # ones are ambiguous, and an array is unhashable
    t = np.array([0.0, 0.5])
    assert BaseTrajectory(t, t) == BaseTrajectory(t, t)
    with pytest.raises(ValueError, match="ambiguous"):
        BaseTrajectory(t, t) == BaseTrajectory(t.copy(), t)
    with pytest.raises(TypeError, match="unhashable"):
        hash(BaseTrajectory(t, t))
