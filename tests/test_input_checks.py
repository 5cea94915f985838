"""Library input checks that the CLI never reaches: each call raises ValueError
(or a subclass) before any work."""

import numpy as np
import pytest

from spiked_tensor import (
    ExperimentConfig,
    RngSeed,
    SpikePrior,
    SymmetricTensor,
    ThresholdReport,
    UnitVector,
    exact_overlap_tail,
    injective_norm_mu,
    lower_bound_lambda,
    mle_statistic,
    replica,
    spiked_norm_lower_Ld,
    upper_bound_spherical,
)
from spiked_tensor.output import OutputSpec
from spiked_tensor.tensors import check_memory_cap
from spiked_tensor.thresholds import LowerBoundResult

SPHERE, RADE = SpikePrior.spherical(), SpikePrior.rademacher()


def _zeros(n: int, d: int) -> SymmetricTensor:
    return SymmetricTensor(np.zeros((n,) * d))


CALLS = {
    "config_unknown_test": lambda: ExperimentConfig(RADE, 6, 3, 1.0, 2, RngSeed(0), test="map"),
    "mle_shape": lambda: mle_statistic(_zeros(4, 3), RADE, 5, 3),
    "seed_negative_stream": lambda: RngSeed(0, stream=-1),
    "unit_vector_norm": lambda: UnitVector(np.array([1.0, 1.0])),
    "memory_cap_n0": lambda: check_memory_cap(0, 3),
    "memory_cap_d1": lambda: check_memory_cap(3, 1),
    "tensor_shape": lambda: SymmetricTensor(np.zeros((3, 3, 2))),
    "output_format": lambda: OutputSpec(format="xml"),
    "lower_bound_d1": lambda: lower_bound_lambda(SPHERE, 1),
    "mu_d2": lambda: injective_norm_mu(2),
    "ld_d2": lambda: spiked_norm_lower_Ld(2, 1.0),
    "ld_negative_snr": lambda: spiked_norm_lower_Ld(3, -1.0),
    "ld_nan_snr": lambda: spiked_norm_lower_Ld(3, float("nan")),
    "ld_inf_snr": lambda: spiked_norm_lower_Ld(3, float("inf")),
    "ld_snr_above_max": lambda: spiked_norm_lower_Ld(3, 1.5e6),
    "upper_spherical_d2": lambda: upper_bound_spherical(2),
    "tail_t_above_1": lambda: exact_overlap_tail(RADE, 10, 1.5),
    "replica_d1": lambda: replica.fixed_points(SPHERE, 1, 1.0),
    "appearance_snr_d1": lambda: replica.spherical_appearance_snr(1),
    "report_order": lambda: ThresholdReport(
        SPHERE, 3, 2.0, 1.0, LowerBoundResult(2.0, 0.5, False, 0.0)
    ),
}


@pytest.mark.parametrize("name", CALLS)
def test_library_input_checks_raise_value_error(name):
    with pytest.raises(ValueError):
        CALLS[name]()


def test_spherical_replica_thresholds_at_d2_are_one():
    assert replica.replica_thresholds(SPHERE, 2) == (1.0, 1.0)


# every replica entry refuses d < 2 with one message, before any mu or q scan
REPLICA_D = {
    "rademacher_thresholds_d0": lambda: replica.rademacher_replica_thresholds(0),
    "rademacher_thresholds_d-3": lambda: replica.rademacher_replica_thresholds(-3),
    "rademacher_thresholds_d1": lambda: replica.rademacher_replica_thresholds(1),
    "replica_thresholds_rademacher_d0": lambda: replica.replica_thresholds(RADE, 0),
    "replica_thresholds_spherical_d0": lambda: replica.replica_thresholds(SPHERE, 0),
    "rademacher_fixed_points_d1": lambda: replica.rademacher_fixed_points(1, 1.0),
}


@pytest.mark.parametrize("name", REPLICA_D)
def test_replica_entries_refuse_d_below_2_before_any_scan(name, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a scan ran before the d check")

    monkeypatch.setattr(replica, "_mu_scan", refuse)
    monkeypatch.setattr(replica, "_spherical_solver", refuse)
    with pytest.raises(ValueError, match="d must be >= 2"):
        REPLICA_D[name]()
