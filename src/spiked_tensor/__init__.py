"""Phase-transition bounds and Monte Carlo checks for spiked Gaussian tensors."""

from .montecarlo import (
    ExperimentConfig,
    ExperimentResult,
    NormEstimate,
    PowerIterationSettings,
    SupportTooLargeError,
    TrialRecord,
    bbp_prediction,
    detection_experiment,
    injective_norm_estimate,
    injective_norm_experiment,
    mle_statistic,
    overlap_tail_experiment,
    recovery_experiment,
)
from .rates import (
    RateFunction,
    binary_entropy,
    collision_entropy,
    exact_overlap_tail,
    rate_function_for,
)
from .replica import (
    ReplicaSolution,
    q_of_mu_rademacher,
    rademacher_fixed_points,
    rademacher_free_energy,
    rademacher_replica_thresholds,
    spherical_appearance_snr,
    spherical_fixed_points,
    spherical_replica_threshold,
)
from .rng import RngSeed
from .tensors import (
    MemoryCapError,
    SpikePrior,
    SymmetricTensor,
    UnitVector,
    contract,
    rank_one,
    rank_one_inner,
    sample_spike,
    sample_spiked,
    sample_wigner,
)
from .thresholds import (
    ThresholdReport,
    asymptotics,
    injective_norm_mu,
    lower_bound_lambda,
    spiked_norm_lower_Ld,
    threshold_report,
    upper_bound_cardinality,
    upper_bound_spherical,
)

__version__ = "0.1.0"
