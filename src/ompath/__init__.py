"""Maximal-probability transition paths of Brownian dynamics.

Discrete action minimization on paths, heteroclinic building blocks of the
small-temperature limit, and cross-checks between the two on analytic test
potentials.
"""

from .critical import (
    AdmissibilityReport,
    CriticalPoint,
    CriticalPointSet,
    NoCriticalPointsError,
    check_admissibility,
    classify_point,
    find_critical_points,
)
from .flow import FlowConfig, FlowTrace, NonFiniteObjectiveError, continuation_minimize, minimize
from .functionals import (
    FunctionalReport,
    eval_I,
    eval_objective,
    grad_objective,
)
from .gamma import BVStepPath, EpsComparison, GammaReport, compare_with_eps, eval_I0, optimize_support
from .heteroclinic import (
    EscapeError,
    GraphEdge,
    HeteroclinicOrbit,
    NotConvergedError,
    OrbitVerification,
    TransitionGraph,
    build_transition_graph,
    gradient_connection,
    hamiltonian_connection,
    hamiltonian_connection_adaptive,
    verify_orbit,
)
from .paths import DiscretePath
from .potentials import (
    CustomPotential,
    DerivativeReport,
    DomainError,
    DoubleWell1D,
    PotentialModel,
    Quadratic,
    TripleWell,
    check_derivatives,
    get_potential,
)

__version__ = "0.1.0"
