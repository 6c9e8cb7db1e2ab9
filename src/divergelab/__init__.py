"""Distinguishability quantifiers for probability distributions and quantum
states, CPTP channel algebra, and seeded verification suites for their
contraction and invariance properties."""

from .channels import (
    KrausChannel,
    TransposeMap,
    apply,
    apply_to_matrix,
    assignment_channel,
    check_cptp,
    compose,
    haar_twirl_mc,
    identity_channel,
    kraus_channel,
    orthogonal_to_target_channel,
    partial_trace_channel,
    random_cptp,
    stinespring_factorize,
    transpose_map,
    unitary_channel,
)
from .cdiv import (
    ConvexFunctionId,
    Distribution,
    StochasticMap,
    apply_stochastic,
    distribution,
    f_divergence,
    f_eval,
    sample_stochastic,
)
from .errors import DivergelabError
from .harness import (
    CounterexampleRecord,
    PropertyReport,
    dinf_counterexample,
    dpi_suite,
    hs_counterexample,
    invariance_suite,
    joint_convexity_suite,
    kadison_bound_check,
    orthogonal_plateau_check,
    purity_bound_check,
    stinespring_dpi_equivalence,
)
from .matcore import (
    eig_hermitian,
    partial_trace,
    schatten_norm,
    support_projector,
    tensor,
)
from .qdiv import (
    QuantifierId,
    QuantifierResult,
    bures_distance,
    classical_reduction,
    d_infinity,
    evaluate,
    hellinger_distance,
    holevo_chi,
    holevo_skew_divergence,
    hs_distance,
    quantifier,
    quantum_js,
    quantum_skew_divergence,
    relative_entropy,
    trace_distance,
    von_neumann_entropy,
)
from .search import OptimizationResult, optimal_pair_search
from .states import (
    DensityMatrix,
    StatePair,
    are_orthogonal,
    commute,
    maximally_mixed,
    pure_state,
    purify,
    purity,
    random_orthogonal_pair,
    sample_state,
    validate_density,
)

__version__ = "0.1.0"
