"""Optimal discrimination measurements for the trine qubit ensemble.

Closed-form minimum-error and maximum-confidence measurements for three
symmetric equatorial qubit states with arbitrary prior probabilities,
together with a brute-force search oracle and Monte Carlo sampling that
validate every closed form independently.
"""

__version__ = "0.1.0"

from .errors import (
    DomainError,
    InsufficientDataError,
    PureStateError,
    RegionError,
    TrineError,
    UndefinedError,
    VerificationError,
    ZeroOutcomeError,
    ZeroPriorError,
)
from .max_confidence import (
    ConfidenceReport,
    confidence,
    confidence_report,
    mc_confidence_closed_form,
    mc_povm,
    min_error_confidence,
)
from .min_error import (
    BREAKDOWN_P,
    GammaSolution,
    HelstromReport,
    OptimalResult,
    boundary_determinant,
    boundary_matrix,
    check_helstrom,
    critical_delta,
    gamma_three_element,
    optimal_measurement,
    p_correct_three_element,
    p_correct_two_element,
    theta_two_element,
    three_element_measurement,
)
from .oracle import (
    OracleResult,
    brute_force_max_confidence,
    brute_force_min_error,
)
from .qubit import (
    INCONCLUSIVE,
    Measurement,
    PovmValidity,
    pure_state_from_equator_angle,
)
from .simulate import EmpiricalResult, estimate_confidence, estimate_success
from .trine import (
    Priors,
    antitrine_measurement,
    canonicalize_priors,
    priors_from_p_delta,
    random_priors,
    trine_measurement,
    trine_states,
)
