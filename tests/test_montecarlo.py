import itertools
import math
import tracemalloc

import numpy as np
import pytest

from spiked_tensor import (
    ExperimentConfig,
    NormEstimate,
    PowerIterationSettings,
    RngSeed,
    SpikePrior,
    SupportTooLargeError,
    SymmetricTensor,
    bbp_prediction,
    detection_experiment,
    exact_overlap_tail,
    injective_norm_estimate,
    injective_norm_experiment,
    injective_norm_mu,
    mle_statistic,
    overlap_tail_experiment,
    rank_one,
    rate_function_for,
    rank_one_inner,
    recovery_experiment,
    sample_spike,
    sample_spiked,
    sample_wigner,
)
from spiked_tensor import cli, montecarlo
from spiked_tensor.montecarlo import _ascend, _candidate_chunks
from spiked_tensor.rng import RESTART_SUBSTREAM
from spiked_tensor.tensors import MEMORY_CAP, UnitVector, contract


# ---------------------------------------------------------------------------
# exhaustive statistics
# ---------------------------------------------------------------------------

def test_mle_noiseless_maximizer():
    x = sample_spike(SpikePrior.rademacher(), 8, RngSeed(1))
    T = SymmetricTensor(x.n, 3, 3.0 * rank_one(x, 3).entries)
    value, argmax = mle_statistic(T, SpikePrior.rademacher(), 8, 3)
    assert value == pytest.approx(3.0, abs=1e-12)
    assert np.allclose(argmax.coords, x.coords)


def test_mle_hand_enumeration_d2():
    # T = diag(1, -1): every sign vector v gives v^T T v = 0
    T = SymmetricTensor(2, 2, np.array([[1.0, 0.0], [0.0, -1.0]]))
    value, _ = mle_statistic(T, SpikePrior.rademacher(), 2, 2)
    assert abs(value) < 1e-12


def test_mle_matches_full_enumeration():
    # half-support enumeration equals a brute-force scan of the full support
    n = 6
    prior = SpikePrior.rademacher()
    for d, seed in [(3, 7), (4, 8)]:
        T = sample_wigner(n, d, RngSeed(seed))
        value, argmax = mle_statistic(T, prior, n, d)
        best = -np.inf
        for signs in itertools.product([-1.0, 1.0], repeat=n):
            v = np.array(signs) / math.sqrt(n)
            val = T.entries
            for _ in range(d):
                val = val @ v
            best = max(best, float(val))
        assert value == pytest.approx(best, abs=1e-12)
        # the reported argmax attains the reported value
        attained = T.entries
        for _ in range(d):
            attained = attained @ argmax.coords
        assert float(attained) == pytest.approx(value, abs=1e-12)


def test_mle_sparse_support():
    prior = SpikePrior.sparse(0.5)
    x = sample_spike(prior, 8, RngSeed(3))
    T = SymmetricTensor(x.n, 3, 2.0 * rank_one(x, 3).entries)
    value, argmax = mle_statistic(T, prior, 8, 3)
    assert value == pytest.approx(2.0, abs=1e-12)
    assert np.allclose(np.abs(argmax.coords), np.abs(x.coords))


def test_support_caps():
    with pytest.raises(SupportTooLargeError):
        mle_statistic(sample_wigner(4, 3, RngSeed(0)), SpikePrior.spherical(), 4, 3)
    # support_size(n) <= 2^24 is the one rule: Rademacher n = 24 sits on the cap
    ExperimentConfig(SpikePrior.rademacher(), 24, 3, 1.0, 5, RngSeed(0))
    with pytest.raises(SupportTooLargeError):
        ExperimentConfig(SpikePrior.rademacher(), 25, 3, 1.0, 5, RngSeed(0))
    with pytest.raises(SupportTooLargeError):
        ExperimentConfig(SpikePrior.rademacher(), 10**12, 3, 1.0, 5, RngSeed(0))
    with pytest.raises(SupportTooLargeError):
        ExperimentConfig(SpikePrior.sparse(0.5), 40, 3, 1.0, 5, RngSeed(0))


def _reference_candidates(n: int, k: int) -> np.ndarray:
    """Half-support candidates listed naively: supports in combinations order,
    then sign codes in counting order with the first nonzero fixed to +1."""
    rows = []
    for support in itertools.combinations(range(n), k):
        for code in range(2 ** (k - 1)):
            v = np.zeros(n)
            v[list(support)] = [1.0] + [1.0 if code >> j & 1 else -1.0 for j in range(k - 1)]
            rows.append(v / math.sqrt(k))
    return np.array(rows)


@pytest.mark.parametrize(
    "n, k, rows",
    [
        (6, 6, 5),  # Rademacher: one support, its sign codes over several blocks
        (7, 2, 5),  # sparse: several supports in each block
        (8, 5, 7),  # sparse: each support's 16 sign codes span blocks
        (5, 1, 3),  # one nonzero: a single sign per support
    ],
)
def test_candidate_chunks_order_and_completeness(n, k, rows):
    blocks = list(_candidate_chunks(n, k, rows, 1.0 / math.sqrt(k), True))
    assert all(b.shape[0] == rows for b in blocks[:-1]) and 1 <= blocks[-1].shape[0] <= rows
    assert np.array_equal(np.concatenate(blocks), _reference_candidates(n, k))


@pytest.mark.parametrize(
    "n, k, d",
    [
        *[(n, n, d) for n in (1, 2, 3, 7) for d in (2, 3, 4, 5)],  # Rademacher
        (6, 1, 3), (7, 1, 4),  # k = 1: one nonzero, in U or in W
        (7, 5, 3), (7, 5, 4), (9, 6, 5),  # k > n - n//2: every candidate has nonzeros in U
        (8, 3, 3), (8, 3, 4), (9, 4, 2), (9, 2, 5),  # k <= n - n//2: the zero-U block exists
    ],
)
def test_mle_statistic_matches_brute_force(n, k, d):
    # the max of <T, v^(x)d> over the full support, listed naively as the
    # half support and its negation
    prior = SpikePrior.rademacher() if k == n else SpikePrior.sparse(k / n)
    assert prior.nonzeros(n) == k
    T = sample_wigner(n, d, RngSeed(100 * n + 10 * k + d))
    half = _reference_candidates(n, k)
    full = np.vstack([half, -half])
    values = []
    for v in full:
        val = T.entries
        for _ in range(d):
            val = val @ v
        values.append(float(val))
    value, argmax = mle_statistic(T, prior, n, d)
    assert value == pytest.approx(max(values), rel=1e-12, abs=1e-12)
    expected = full[int(np.argmax(values))]
    if d % 2 == 1:
        assert np.array_equal(argmax.coords, expected)
    else:  # v and -v are both maxima
        assert np.array_equal(argmax.coords, expected) or np.array_equal(argmax.coords, -expected)


@pytest.mark.parametrize("n, d", [(20, 3), (10, 6), (24, 3)])
def test_mle_statistic_memory_bounded(n, d):
    # candidate values come in blocks of <= 2^22 scalars; (24, 3) is the
    # 2^24-point enumeration cap
    T = rank_one(sample_spike(SpikePrior.rademacher(), n, RngSeed(n)), d)
    tracemalloc.start()
    try:
        value, _ = mle_statistic(T, SpikePrior.rademacher(), n, d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == pytest.approx(1.0, abs=1e-12)
    assert peak < 64 * 2**20


# ---------------------------------------------------------------------------
# power iteration
# ---------------------------------------------------------------------------

def test_norm_estimate_noiseless_rank_one():
    x = sample_spike(SpikePrior.spherical(), 12, RngSeed(4))
    T = SymmetricTensor(x.n, 3, 3.0 * rank_one(x, 3).entries)
    est = injective_norm_estimate(T, seed=RngSeed(4), spike_start=x)
    assert est.value == pytest.approx(3.0, abs=1e-8)


def test_norm_estimate_matches_matrix_oracle():
    # at d = 2 the estimate is LAPACK's top eigenpair, its value read off the
    # eigenvector, so it is the top eigenvalue to rounding
    for n, seed in [(25, 5), (50, 1), (300, 2), (1000, 3)]:
        W = sample_wigner(n, 2, RngSeed(seed))
        est = injective_norm_estimate(W, PowerIterationSettings(restarts=10), seed=RngSeed(seed))
        top = float(np.linalg.eigvalsh(W.entries)[-1])
        assert est.converged
        assert est.value == pytest.approx(top, rel=1e-14, abs=0)


def _no_ascent(*args):
    raise AssertionError("the d = 2 estimate ran the ascent")


def test_d2_estimates_are_one_eigensolve(monkeypatch):
    # every d = 2 route to the estimate takes the eigenpair, never an ascent
    monkeypatch.setattr(montecarlo, "_ascend", _no_ascent)
    prior, n, seed = SpikePrior.spherical(), 30, RngSeed(5)
    x, T = sample_spiked(prior, n, 2, 2.0, seed)
    top = float(np.linalg.eigvalsh(T.entries)[-1])
    for spike_start in (None, x):
        est = injective_norm_estimate(T, PowerIterationSettings(restarts=1), seed, spike_start)
        assert est.converged
        assert est.value == pytest.approx(top, rel=1e-14, abs=0)
    for snr in (0.0, 2.0):
        config = ExperimentConfig(prior, n, 2, snr, 3, seed, test="injective_norm")
        assert all(est.converged for est in injective_norm_experiment(config))
    # trial 0 of either experiment samples its spiked tensor from stream 2
    config = ExperimentConfig(prior, n, 2, 2.0, 4, seed, test="injective_norm")
    _, T0 = sample_spiked(prior, n, 2, 2.0, seed.offset(2))
    top0 = float(np.linalg.eigvalsh(T0.entries)[-1])
    for result in (detection_experiment(config), recovery_experiment(config)):
        assert result.records[0].arm == "spiked"
        assert result.records[0].statistic == pytest.approx(top0, rel=1e-14, abs=0)
    # and simulate bbp, which is that recovery run
    assert cli.main(["simulate", "bbp", "--n", str(n), "--lambda", "2", "--trials", "2"]) == 0


def test_d2_estimate_checks_its_settings(monkeypatch):
    # the eigensolve tunes on no setting, but the checks of the ascent still hold
    monkeypatch.setattr(montecarlo, "_ascend", _no_ascent)
    n = 10
    T = sample_wigner(n, 2, RngSeed(8))
    with pytest.raises(ValueError, match="needs a start"):
        injective_norm_estimate(T, PowerIterationSettings(restarts=0), seed=RngSeed(8))
    with pytest.raises(ValueError, match="memory cap"):
        injective_norm_estimate(T, PowerIterationSettings(restarts=MEMORY_CAP // n + 1), RngSeed(8))
    x = sample_spike(SpikePrior.spherical(), n, RngSeed(8))
    assert injective_norm_estimate(T, PowerIterationSettings(restarts=0), spike_start=x).converged


def test_norm_estimate_dominates_discrete_max():
    prior = SpikePrior.rademacher()
    T = sample_wigner(8, 3, RngSeed(6))
    mle_val, mle_arg = mle_statistic(T, prior, 8, 3)
    est = injective_norm_estimate(T, seed=RngSeed(6), spike_start=mle_arg)
    assert mle_val <= est.value + 1e-6


def test_norm_estimate_unspiked_band():
    # estimates on pure noise at n=30, d=3 sit in a loose desk-scale band
    mu3 = injective_norm_mu(3)
    vals = []
    for s in range(10):
        W = sample_wigner(30, 3, RngSeed(100 + s))
        vals.append(injective_norm_estimate(W, seed=RngSeed(100 + s)).value)
    assert all(1.5 < v < mu3 + 0.5 for v in vals)


def test_ascent_enforced_on_random_tensors():
    # every estimate converges to a stationary point of f on the sphere:
    # contract(T, x) = f x to within 1e-8 f
    cases = [(20, 3, 200 + seed, seed) for seed in range(12)]
    cases += [(10, 4, 300 + seed, seed) for seed in range(6)]
    for n, d, tensor_seed, seed in cases:
        W = sample_wigner(n, d, RngSeed(tensor_seed))
        est = injective_norm_estimate(W, PowerIterationSettings(restarts=3), seed=RngSeed(seed))
        assert est.converged
        residual = np.linalg.norm(contract(W, est.vector) - est.value * est.vector)
        assert residual <= 1e-8 * est.value


def test_power_iteration_needs_a_start():
    with pytest.raises(ValueError):
        PowerIterationSettings(restarts=-1)
    x = sample_spike(SpikePrior.spherical(), 6, RngSeed(8))
    T = SymmetricTensor(x.n, 3, 2.0 * rank_one(x, 3).entries)
    with pytest.raises(ValueError):
        injective_norm_estimate(T, PowerIterationSettings(restarts=0), seed=RngSeed(8))
    est = injective_norm_estimate(T, PowerIterationSettings(restarts=0), spike_start=x)
    assert est.value == pytest.approx(2.0, abs=1e-10)


@pytest.mark.parametrize("d", [3, 4])
@pytest.mark.parametrize("spike", [False, True])
def test_power_iteration_stops_at_a_stationary_point(d, spike):
    # on the zero tensor every step is zero: each row ends where it starts, converged
    T = SymmetricTensor(5, d, np.zeros((5,) * d))
    start = sample_spike(SpikePrior.spherical(), 5, RngSeed(3)) if spike else None
    est = injective_norm_estimate(T, PowerIterationSettings(restarts=2), RngSeed(3), start)
    assert est.value == 0.0
    assert est.converged is True


@pytest.mark.parametrize("d, n", [(2, 12), (3, 9), (4, 6), (5, 5), (6, 4)])
def test_norm_estimate_value_is_its_vectors_objective(d, n):
    # the ascent reads f(y) off the contraction it keeps as the next direction
    x, T = sample_spiked(SpikePrior.spherical(), n, d, 2.0, RngSeed(40 + d))
    settings = PowerIterationSettings(restarts=4)
    for spike_start in (None, x):
        est = injective_norm_estimate(T, settings, seed=RngSeed(d), spike_start=spike_start)
        assert est.value == rank_one_inner(T, UnitVector(est.vector))


@pytest.mark.parametrize("snr", [0.0, 2.0])
def test_norm_experiment_trial_streams(snr):
    # trial k samples from stream 2+k and starts at the spike when snr != 0
    prior, seed, settings = SpikePrior.rademacher(), RngSeed(4), PowerIterationSettings(restarts=3)
    config = ExperimentConfig(prior, 8, 3, snr, 3, seed, "injective_norm", power_iter=settings)
    estimates = injective_norm_experiment(config)
    again = injective_norm_experiment(config)
    for k, (est, other) in enumerate(zip(estimates, again, strict=True)):
        assert (est.value, est.converged) == (other.value, other.converged)
        trial_seed = seed.offset(2 + k)
        if snr:
            x, T = sample_spiked(prior, 8, 3, snr, trial_seed)
            ref = injective_norm_estimate(T, settings, trial_seed, spike_start=x)
        else:
            ref = injective_norm_estimate(sample_wigner(8, 3, trial_seed), settings, trial_seed)
        assert (est.value, est.converged) == (ref.value, ref.converged)
        assert np.array_equal(est.vector, ref.vector)
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(prior, 8, 3, snr, 0, seed, "injective_norm", power_iter=settings)
    with pytest.raises(ValueError, match="injective_norm"):
        injective_norm_experiment(ExperimentConfig(prior, 8, 3, snr, 3, seed))


@pytest.mark.parametrize("test, prior", [("mle", SpikePrior.rademacher()),
                                         ("injective_norm", SpikePrior.spherical())])
def test_experiment_arm_streams(test, prior):
    # detect's record pair k scores sample_spiked on stream 2+2k (no spike start) and
    # sample_wigner on 3+2k; recover's record k scores sample_spiked on stream 2+k
    n, d, snr, trials, seed = 8, 3, 2.0, 3, RngSeed(21)
    settings = PowerIterationSettings(restarts=3)
    config = ExperimentConfig(prior, n, d, snr, trials, seed, test, power_iter=settings)

    def score(tensor, arm_seed):
        if test == "mle":
            value, argmax = mle_statistic(tensor, prior, n, d)
            return value, argmax.coords
        est = injective_norm_estimate(tensor, settings, arm_seed)
        return est.value, est.vector

    detect, recover = detection_experiment(config), recovery_experiment(config)
    for k in range(trials):
        x, T = sample_spiked(prior, n, d, snr, seed.offset(2 + 2 * k))
        value, vector = score(T, seed.offset(2 + 2 * k))
        assert detect.records[2 * k] == montecarlo.TrialRecord(
            k, "spiked", value, int(value >= detect.threshold), float(np.dot(x.coords, vector)))
        value, _ = score(sample_wigner(n, d, seed.offset(3 + 2 * k)), seed.offset(3 + 2 * k))
        record = detect.records[2 * k + 1]
        assert (record.trial, record.arm, record.statistic, record.decision) == (
            k, "unspiked", value, int(value >= detect.threshold))
        assert math.isnan(record.overlap)
        x, T = sample_spiked(prior, n, d, snr, seed.offset(2 + k))
        value, vector = score(T, seed.offset(2 + k))
        assert recover.records[k] == montecarlo.TrialRecord(
            k, "spiked", value, None, float(np.dot(x.coords, vector)))


def _plain_step_descends(T, start):
    """Whether the unshifted first step from ``start`` lowers the objective, so
    that the ascent retries it with a shift."""
    x = start / np.linalg.norm(start)
    g = contract(T, x)
    y = g / np.linalg.norm(g)
    f, fy = g @ x, contract(T, y) @ y
    if T.d % 2:
        f, fy = abs(f), abs(fy)
    return fy < f - 1e-12 * max(1.0, f)


@pytest.mark.parametrize("d, n", [(3, 10), (4, 8)])
def test_lockstep_rows_match_their_runs_alone(d, n):
    # the spike start converges within 13 steps while some random starts run
    # to max_iters, and a random start's first plain step descends, so it retries
    x, T = sample_spiked(SpikePrior.spherical(), n, d, 10.0, RngSeed(d))
    starts = np.vstack([x.coords, RngSeed(d).generator(0).standard_normal((7, n))])
    values, _, converged = _ascend(T, starts, 13, 1e-10)
    assert converged[0] and not converged.all()
    assert any(_plain_step_descends(T, start) for start in starts)
    for i, start in enumerate(starts):
        value, _, alone = _ascend(T, start[None], 13, 1e-10)
        assert alone[0] == converged[i]
        assert value[0] == pytest.approx(values[i], rel=1e-12, abs=0)


@pytest.mark.parametrize("n, d, seed", [(24, 3, 1), (12, 3, 4), (12, 4, 2), (20, 3, 7)])
def test_ascent_never_lowers_the_value(n, d, seed, monkeypatch):
    # a step is taken only if f does not fall, so every run ends at the best
    # point it evaluated; one step that lowered f would leave a better point
    # behind (as in all but 3 of these 16 runs under an ascent that takes
    # steps lowering f by up to 1e-12 |f|)
    T = sample_wigner(n, d, RngSeed(seed))
    evaluated = []

    def recorded(tensor, rows):
        g = contract(tensor, rows)
        f = float(np.einsum("ij,ij->i", g, rows)[0])
        evaluated.append(abs(f) if d % 2 else f)  # odd d: the ascent flips x to -x when f < 0
        return g

    monkeypatch.setattr(montecarlo, "contract", recorded)
    for start in RngSeed(seed).generator(RESTART_SUBSTREAM).standard_normal((4, n)):
        evaluated.clear()
        value, _, _ = _ascend(T, start[None], 300, 1e-10)
        assert value[0] == max(evaluated)


@pytest.mark.parametrize("n, d, seed", [(24, 3, 1), (24, 3, 3), (12, 4, 2), (12, 4, 3)])
def test_most_restarts_converge(n, d, seed):
    settings = PowerIterationSettings()
    starts = RngSeed(seed).generator(RESTART_SUBSTREAM).standard_normal((settings.restarts, n))
    _, _, converged = _ascend(sample_wigner(n, d, RngSeed(seed)), starts, settings.max_iters)
    assert converged.sum() >= 15


def test_oscillating_start_converges():
    # from row 5 of these starts consecutive power steps point in opposite
    # directions (cosine -1) while the shift halves toward 0, so the plain
    # rule ends it unconverged at 1.974271697 after 500 steps; damping the
    # reversals and the Newton finish take it to the maximum it approaches
    n, d, seed = 24, 3, RngSeed(2)
    T = sample_wigner(n, d, seed)
    settings = PowerIterationSettings()
    starts = seed.generator(RESTART_SUBSTREAM).standard_normal((settings.restarts, n))
    values, vectors, converged = _ascend(T, starts, settings.max_iters)
    assert converged.all()
    assert values[5] == pytest.approx(1.974277784, abs=1e-9)
    assert np.linalg.norm(contract(T, vectors[5]) - values[5] * vectors[5]) <= 1e-8 * values[5]


def test_singular_newton_matrix_leaves_power_steps(monkeypatch):
    # a batch whose Newton matrix is exactly singular proposes no Newton step:
    # its rows make the power steps they make where no row reaches the trigger
    T = sample_wigner(12, 3, RngSeed(4))
    starts = RngSeed(4).generator(RESTART_SUBSTREAM).standard_normal((5, 12))

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "solve", singular)
    fallback = _ascend(T, starts, 500, 1e-10)
    monkeypatch.setattr(montecarlo, "_NEWTON_TRIGGER", 0.0)
    for got, want in zip(fallback, _ascend(T, starts, 500, 1e-10), strict=True):
        assert np.array_equal(got, want)


def test_stalled_start_ends_converged():
    # at tol = 0 a start near its maximum stops ascending; 80 failed attempts
    # in a row end it where it is instead of doubling its shift forever
    settings = PowerIterationSettings()
    starts = RngSeed(4).generator(RESTART_SUBSTREAM).standard_normal((settings.restarts, 12))
    values, _, converged = _ascend(sample_wigner(12, 3, RngSeed(4)), starts, settings.max_iters, 0.0)
    assert np.isfinite(values).all()
    assert converged.any()


def test_chunked_starts_match_one_block(monkeypatch):
    # pure noise, where the best start's maximum is unique: starts that reach
    # one maximum tie to the ulp, and block rounding may break such a tie
    n, seed = 12, RngSeed(1)
    T, x = sample_wigner(n, 3, RngSeed(101)), UnitVector(np.eye(n)[0])
    settings = PowerIterationSettings(restarts=10)
    whole = injective_norm_estimate(T, settings, seed, spike_start=x)
    starts = np.vstack([x.coords, seed.generator(RESTART_SUBSTREAM).standard_normal((10, n))])
    values, vectors, converged = _ascend(T, starts, settings.max_iters)
    winner = int(np.argmax(values))

    blocks = []

    def counted(tensor, rows):
        blocks.append(len(rows))
        return contract(tensor, rows)

    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", 3 * n**2)
    monkeypatch.setattr(montecarlo, "contract", counted)
    chunked = injective_norm_estimate(T, settings, seed, spike_start=x)
    assert max(blocks) == 3  # four chunks: 3, 3, 3 and 2 starts
    assert winner >= 3  # the best start is not in the first chunk
    for est in (whole, chunked):
        assert int(np.argmin(np.linalg.norm(vectors - est.vector, axis=1))) == winner
        assert est.converged == converged[winner]
        assert est.value == pytest.approx(values[winner], rel=1e-12, abs=0)


@pytest.mark.parametrize("d, n", [(3, 8), (4, 4)])
def test_newton_stacks_fit_the_block_budget(d, n, monkeypatch):
    # a chunk of starts fits the budget with its (rows, n^(d-1)) first
    # contraction step, so a stack of their n x n Newton matrices fits it
    # too; run as one block, these 40 starts propose up to 11 (d = 3) and
    # 17 (d = 4) Newton steps at once, above the budget's 3 and 12 rows
    budget = 3 * n ** (d - 1)
    sizes = []
    newton_steps = montecarlo._newton_steps

    def recorded(tensor, x, g, f):
        sizes.append(len(x) * n * n)
        return newton_steps(tensor, x, g, f)

    monkeypatch.setattr(montecarlo, "_BLOCK_BUDGET", budget)
    monkeypatch.setattr(montecarlo, "_newton_steps", recorded)
    T = sample_wigner(n, d, RngSeed(d))
    est = injective_norm_estimate(T, PowerIterationSettings(restarts=40), RngSeed(d))
    assert est.converged
    assert max(sizes) <= budget


def test_restarts_under_the_cap_step_in_chunks(monkeypatch):
    # restarts x n just under MEMORY_CAP is accepted, and its first block
    # step contracts one chunk, not all (restarts, n^2)
    n, d = 100, 3
    T = SymmetricTensor(n, d, np.zeros((n,) * d))
    restarts = MEMORY_CAP // n - 1
    with pytest.raises(ValueError, match="memory cap"):
        injective_norm_estimate(T, PowerIterationSettings(restarts=restarts + 2), RngSeed(1))

    class FirstBlock(Exception):
        pass

    def first_block(tensor, rows):
        raise FirstBlock(len(rows))

    monkeypatch.setattr(montecarlo, "contract", first_block)
    with pytest.raises(FirstBlock) as block:
        injective_norm_estimate(T, PowerIterationSettings(restarts=restarts), RngSeed(1))
    rows = block.value.args[0]
    assert rows * n ** (d - 1) <= montecarlo._BLOCK_BUDGET < restarts * n ** (d - 1)


def _bbp_run(n: int, snr: float, trials: int, seed: RngSeed):
    """simulate bbp's run: the d = 2 spherical recovery run of the injective norm."""
    config = ExperimentConfig(SpikePrior.spherical(), n, 2, snr, trials, seed, test="injective_norm")
    return recovery_experiment(config)


@pytest.mark.parametrize("snr", [0.8, 1.5])
def test_bbp_trial_eigenvalues_are_exact(snr):
    # near the transition the spectral gap is small; the eigensolve must not care
    seed = RngSeed(5)
    for record in _bbp_run(400, snr, 3, seed).records:
        _, sample = sample_spiked(SpikePrior.spherical(), 400, 2, snr, seed.offset(2 + record.trial))
        assert abs(record.statistic - float(np.linalg.eigvalsh(sample.entries)[-1])) <= 1e-12


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def detection_grid():
    configs = {
        snr: ExperimentConfig(
            SpikePrior.rademacher(), 14, 3, snr, 200, RngSeed(7), test="mle"
        )
        for snr in (0.5, 1.0, 2.0, 3.0, 4.0)
    }
    return {snr: detection_experiment(cfg) for snr, cfg in configs.items()}


def test_detection_monotone_power(detection_grid):
    accs = [detection_grid[s].accuracy for s in (0.5, 1.0, 2.0, 3.0, 4.0)]
    two_se = 2.0 * math.sqrt(0.25 / 400.0)  # 400 decisions per run
    assert all(b >= a - two_se for a, b in zip(accs, accs[1:]))


def test_detection_type_i_control(detection_grid):
    assert detection_grid[4.0].type_i_rate <= 0.05


def test_detection_strong_signal(detection_grid):
    assert detection_grid[4.0].accuracy >= 0.95


def test_detection_at_zero_snr_is_chance():
    cfg = ExperimentConfig(SpikePrior.rademacher(), 10, 3, 0.0, 50, RngSeed(3))
    res = detection_experiment(cfg)
    # threshold 0 sits below the null max: every arm is classified spiked
    assert res.accuracy == pytest.approx(0.5, abs=1e-12)
    assert res.type_i_rate == 1.0 and res.type_ii_rate == 0.0


def test_detection_counts_and_records():
    cfg = ExperimentConfig(SpikePrior.rademacher(), 8, 3, 2.0, 25, RngSeed(11))
    res = detection_experiment(cfg)
    assert len(res.records) == 2 * 25
    arms = {r.arm for r in res.records}
    assert arms == {"spiked", "unspiked"}
    assert 0.0 <= res.type_i_rate <= 1.0 and 0.0 <= res.type_ii_rate <= 1.0
    miss = sum(1 for r in res.records if r.arm == "spiked" and r.decision == 0)
    assert miss == round(res.type_ii_rate * 25)


def test_detection_deterministic_per_seed():
    cfg = ExperimentConfig(SpikePrior.rademacher(), 10, 3, 2.0, 16, RngSeed(5))
    assert detection_experiment(cfg) == detection_experiment(cfg)


def test_injective_detection_small():
    cfg = ExperimentConfig(
        SpikePrior.rademacher(), 10, 3, 4.0, 12, RngSeed(21),
        test="injective_norm", power_iter=PowerIterationSettings(restarts=6, max_iters=200),
    )
    res = detection_experiment(cfg)
    assert res.accuracy >= 0.9
    # the injective threshold is the midpoint of the two arms' mean statistics
    arm_means = [
        np.mean([r.statistic for r in res.records if r.arm == arm]) for arm in ("spiked", "unspiked")
    ]
    assert res.threshold == pytest.approx(0.5 * sum(arm_means), abs=1e-12)


@pytest.mark.parametrize("test, snr", [("mle", 2.0), ("injective_norm", 1.5)])
def test_detection_rates_are_the_record_decisions(test, snr):
    trials = 12
    cfg = ExperimentConfig(
        SpikePrior.rademacher(), 8, 3, snr, trials, RngSeed(13),
        test=test, power_iter=PowerIterationSettings(restarts=4, max_iters=200),
    )
    res = detection_experiment(cfg)
    decisions = {arm: [r.decision for r in res.records if r.arm == arm] for arm in ("spiked", "unspiked")}
    assert all(r.decision == int(r.statistic >= res.threshold) for r in res.records)
    hits, alarms = sum(decisions["spiked"]), sum(decisions["unspiked"])
    assert res.type_i_rate == alarms / trials
    assert res.type_ii_rate == (trials - hits) / trials
    assert res.accuracy == (hits + trials - alarms) / (2 * trials)


def test_detection_statistic_at_the_threshold_detects(monkeypatch):
    # every statistic equals the mle threshold snr - eps = 1.5: each arm detects
    monkeypatch.setattr(montecarlo, "_statistic",
                        lambda config, tensor, seed, start=None: NormEstimate(1.5, np.zeros(6), True))
    cfg = ExperimentConfig(SpikePrior.rademacher(), 6, 3, 2.0, 3, RngSeed(1), epsilon=0.5)
    res = detection_experiment(cfg)
    assert res.threshold == 1.5
    assert [r.decision for r in res.records] == [1] * 6
    assert (res.type_i_rate, res.type_ii_rate, res.accuracy) == (1.0, 0.0, 0.5)


def test_recovery_noiseless_exact():
    cfg = ExperimentConfig(SpikePrior.rademacher(), 8, 3, 5.0, 10, RngSeed(17))
    res = recovery_experiment(cfg)
    assert res.mean_abs_overlap <= 1.0 + 1e-12
    strong = ExperimentConfig(SpikePrior.rademacher(), 8, 3, 50.0, 10, RngSeed(17))
    res = recovery_experiment(strong)
    assert res.mean_overlap_pow_d == pytest.approx(1.0, abs=1e-9)


def test_recovery_null_overlap_scale():
    # at snr=0 the argmax is independent of the spike, so <x, vhat> has the
    # law of a plain sign-vector overlap; compare with its exact moments
    n, trials = 14, 200
    cfg = ExperimentConfig(SpikePrior.rademacher(), n, 3, 0.0, trials, RngSeed(19))
    res = recovery_experiment(cfg)
    pmf = [(math.comb(n, k), abs(n - 2 * k) / n) for k in range(n + 1)]
    total = 2.0**n
    mean_abs = sum(c * v for c, v in pmf) / total
    var_abs = sum(c * v * v for c, v in pmf) / total - mean_abs**2
    se = math.sqrt(var_abs / trials)
    assert abs(res.mean_abs_overlap - mean_abs) < 4 * se


def test_overlap_tail_experiment_matches_exact():
    # n = 40 puts t = 0.25 on the lattice (s = 10) with 1/sqrt(40) inexact, so a
    # float overlap of that tie can sum to just below t; 1/sqrt(64) is exact
    for prior, n in ((SpikePrior.rademacher(), 64), (SpikePrior.rademacher(), 40),
                     (SpikePrior.spherical(), 20)):
        rows = overlap_tail_experiment(prior, n, 1_000_000, [0.25], RngSeed(23))
        row = rows[0]
        exact = exact_overlap_tail(prior, n, 0.25)
        se = math.sqrt(exact * (1 - exact) / 1_000_000)
        assert abs(row.empirical_tail - exact) <= 3 * se
        assert row.exact_tail == pytest.approx(exact)


DEFAULT_TAIL_GRID = [round(0.05 * i, 2) for i in range(13)]  # simulate tails' default --tgrid


def test_rademacher_empirical_tail_is_within_4_se_of_exact():
    # n = 20 has lattice ties at t = 0, 0.1, 0.2, ... (s = 0, 2, 4, ...)
    trials = 20_000
    rows = overlap_tail_experiment(SpikePrior.rademacher(), 20, trials, DEFAULT_TAIL_GRID,
                                   RngSeed(1))
    for row in rows:
        se = math.sqrt(row.exact_tail * (1 - row.exact_tail) / trials)
        assert abs(row.empirical_tail - row.exact_tail) <= 4 * se, row


@pytest.mark.parametrize("prior, n", [
    (SpikePrior.rademacher(), 8),
    (SpikePrior.rademacher(), 20),
    (SpikePrior.rademacher(), 30),
    (SpikePrior.sparse(0.3), 20),
])
def test_empirical_tail_counts_the_lattice_overlap_of_the_sampled_spikes(prior, n):
    # recount from sample_spike_batch's float rows on the same streams (chunk c
    # on stream 2 + c), rounding k<x,x'> to its lattice point and cutting as the
    # exact tail does
    trials, seed, k = montecarlo._TAIL_CHUNK + 2000, RngSeed(7), prior.nonzeros(n)
    grid = DEFAULT_TAIL_GRID + [1 / 3, 0.7, 1.0]
    lattice = []
    for c, start in enumerate(range(0, trials, montecarlo._TAIL_CHUNK)):
        count = min(montecarlo._TAIL_CHUNK, trials - start)
        rows = montecarlo.sample_spike_batch(prior, n, 2 * count, seed.offset(2 + c).generator(0))
        lattice.append(np.rint(k * np.einsum("ij,ij->i", rows[0::2], rows[1::2])))
    lattice = np.concatenate(lattice)
    expected = [float(np.mean(lattice >= math.ceil(t * k - 2e-9))) for t in grid]
    rows = overlap_tail_experiment(prior, n, trials, grid, seed)
    assert [row.empirical_tail for row in rows] == expected


def test_overlap_tail_symmetry_floor():
    for prior in (SpikePrior.rademacher(), SpikePrior.sparse(0.5), SpikePrior.spherical()):
        rows = overlap_tail_experiment(prior, 16, 4000, [0.0], RngSeed(29))
        assert rows[0].empirical_tail >= 0.5 - 3 * math.sqrt(0.25 / 4000)


def test_overlap_tail_sparse_rate_inequality():
    # -(1/n) log(exact tail) >= f_rho(t) - (log C + 1.5 log n)/n with modest C
    rho, n = 0.3, 60
    prior = SpikePrior.sparse(rho)
    rows = overlap_tail_experiment(prior, n, 1000, [0.2, 0.4, 0.6], RngSeed(31))
    for row in rows:
        fitted_c = row.exact_tail / (n**1.5 * math.exp(-n * row.rate_value))
        assert fitted_c < 2.0
        assert row.exact_rate >= row.rate_value - (math.log(max(fitted_c, 1e-9)) + 1.5 * math.log(n)) / n - 1e-12


def test_overlap_tail_rate_values_are_the_scalar_rate():
    for prior in (SpikePrior.rademacher(), SpikePrior.sparse(0.3), SpikePrior.spherical()):
        grid = [0.0, 0.1, 0.35, 0.5, 0.999] + ([] if prior.kind == "spherical" else [1.0])
        rows = overlap_tail_experiment(prior, 12, 100, grid, RngSeed(5))
        rate = rate_function_for(prior)
        assert [row.rate_value for row in rows] == [rate.eval(t) for t in grid]


@pytest.mark.parametrize("prior, n, t", [
    (SpikePrior.rademacher(), 300, 1.5),
    (SpikePrior.sparse(0.3), 300, -0.1),
    (SpikePrior.spherical(), 10, 1.0),
    (SpikePrior.rademacher(), 10, math.nan),
])
def test_overlap_tail_grid_is_checked_before_sampling(prior, n, t, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("sampled before the t grid was checked")

    monkeypatch.setattr(montecarlo, "sample_spike_batch", refuse)
    monkeypatch.setattr(montecarlo, "sample_sign_draws", refuse)
    with pytest.raises(ValueError, match="tail points"):
        overlap_tail_experiment(prior, n, 100, [0.2, t], RngSeed(1))


def test_overlap_tail_deterministic_per_seed():
    rows1 = overlap_tail_experiment(SpikePrior.spherical(), 25, 30_000, [0.1, 0.2], RngSeed(3))
    rows2 = overlap_tail_experiment(SpikePrior.spherical(), 25, 30_000, [0.1, 0.2], RngSeed(3))
    assert rows1 == rows2


def test_bbp_subcritical():
    result = _bbp_run(1000, 0.5, 10, RngSeed(11))
    assert bbp_prediction(0.5) == (2.0, 0.0)
    assert abs(np.mean([r.statistic for r in result.records]) - 2.0) < 0.1
    assert result.mean_overlap_pow_d < 0.1


def test_bbp_deterministic():
    a = _bbp_run(200, 2.0, 4, RngSeed(2))
    b = _bbp_run(200, 2.0, 4, RngSeed(2))
    assert a == b
