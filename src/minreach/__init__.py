"""Minimal actuator selection for state and subset reachability of
linear time-invariant systems.

The package answers: which (and how few) states of dx/dt = Ax + Bu must
be directly actuated, with B a zero-one diagonal, so that a given state
transfer becomes feasible, feasible up to a squared distance eps, or
lands inside a union of balls. It also ships executable reductions from
minimum hitting set that witness why the exact problems are hard.
"""

from .errors import (
    CapacityError,
    DimensionError,
    InputError,
    MinreachError,
    NumericalInfeasibilityError,
    UnsupportedOperationError,
)
from .netgen import erdos_renyi, random_target, star
from .numkit import (
    RANK_TOL,
    OrthoBasis,
    as_matrix,
    as_square,
    as_vector,
    mat_exp,
)
from .reachcore import (
    EXACT_TOL,
    N_BRUTE,
    ActuatorSet,
    FeasibilityReport,
    LtiSystem,
    TransferSpec,
    epsilon_a,
    is_controllable,
    is_feasible,
    reachable_subspace,
    residual,
    transfer_vector,
)
from .reductions import (
    ConeTarget,
    HittingSetInstance,
    IncidenceMatrix,
    ReductionReport,
    build_lemma1,
    build_lemma2,
    build_lemma3,
    cone_k_reachable,
    verify_reduction,
)
from .selector import (
    EPS_FLOOR_REL,
    Ball,
    GreedyTrace,
    bisection_exact,
    brute_force_opt,
    greedy_eps,
    min_hitting_set,
    subset_reach,
)

__version__ = "0.1.0"

__all__ = [
    "ActuatorSet",
    "Ball",
    "CapacityError",
    "ConeTarget",
    "DimensionError",
    "EPS_FLOOR_REL",
    "EXACT_TOL",
    "FeasibilityReport",
    "GreedyTrace",
    "HittingSetInstance",
    "IncidenceMatrix",
    "InputError",
    "LtiSystem",
    "MinreachError",
    "N_BRUTE",
    "NumericalInfeasibilityError",
    "OrthoBasis",
    "RANK_TOL",
    "ReductionReport",
    "TransferSpec",
    "UnsupportedOperationError",
    "as_matrix",
    "as_square",
    "as_vector",
    "bisection_exact",
    "brute_force_opt",
    "build_lemma1",
    "build_lemma2",
    "build_lemma3",
    "cone_k_reachable",
    "epsilon_a",
    "erdos_renyi",
    "greedy_eps",
    "is_controllable",
    "is_feasible",
    "mat_exp",
    "min_hitting_set",
    "random_target",
    "reachable_subspace",
    "residual",
    "star",
    "subset_reach",
    "transfer_vector",
    "verify_reduction",
]
