"""Numerical mechanics of implicit Lagrangian systems on Lie algebroids:
expression jets, structure validation, induced Dirac structures,
constrained integrators, and Hamilton–Jacobi verification."""

from .algebroid import (
    BasePoint,
    DualPoint,
    FiberPoint,
    LieAlgebroid,
    ScalarField,
    Subbundle,
)
from .dirac import (
    DiracBasis,
    DiracPair,
    check_self_orthogonal,
    dirac_generators,
    dirac_member_poisson,
    dirac_member_symplectic,
    dirac_members,
    lift_subbundle,
)
from .dynamics import (
    ImplicitSystem,
    State,
    Trajectory,
    adapted_rhs,
    energy_drift,
    integrate,
    residual,
)
from .errors import (
    AlgmechError,
    BadParams,
    ConfigError,
    Degenerate,
    EvaluationFault,
    FlowBlowUp,
    HypothesisViolated,
    NewtonDivergence,
    NonFinite,
    ParseError,
    RankDeficient,
    UnknownModel,
)
from .expr import evaluate, eval_jet2, parse
from .hj import (
    HJSection,
    base_flow,
    check_closedness,
    check_in_K,
    hj_residual,
    verify_theorem,
)
from .models import ModelBundle, get_model, model_names, oracle_trajectory
from .prolong import (
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
    symplectic_matrix,
)

__version__ = "0.1.0"
