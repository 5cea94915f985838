"""Seeded desk-scale experiments: exhaustive-search detection/recovery tests,
injective-norm estimation by restarted power iteration, empirical overlap
tails, and the d=2 eigenvalue-transition reference check.

Determinism contract: every experiment is a pure function of its config.
Trial k derives its own RNG stream (offset 2+k; paired designs use 2+2k and
3+2k for the two arms), and aggregation is an ordered fold over per-trial
records, so results are bit-identical across runs and thread counts.

The injective-norm maximizer is a heuristic: restarted power iteration on
the gradient direction, with an adaptive positive shift.  A plain power step
can decrease the objective on random tensors; whenever that happens the
shift doubles and the step is retried, which restores guaranteed ascent
(for a large enough shift the update is a small gradient step on the
sphere).  Returned values are lower estimates of the true maximum, never a
certified optimum.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .parallel import parallel_map
from .rates import exact_overlap_tail, rate_function_for, EXACT_TAIL_MAX_N
from .rng import RngSeed
from .tensors import (
    SpikePrior,
    SymmetricTensor,
    UnitVector,
    rank_one_inner,
    contract,
    sample_spike_batch,
    sample_spiked,
    sample_wigner,
)

MAX_ENUMERATION = 2**24
RADEMACHER_MAX_N = 24
_CHUNK = 1 << 14

TESTS = ("mle", "map", "injective_norm")


class SupportTooLargeError(ValueError):
    pass


@dataclass(frozen=True)
class PowerIterationSettings:
    restarts: int = 20
    max_iters: int = 500
    tol: float = 1e-10


@dataclass(frozen=True)
class ExperimentConfig:
    prior: SpikePrior
    n: int
    d: int
    snr: float
    trials: int
    seed: RngSeed
    test: str = "mle"
    epsilon: float | None = None  # defaults to 0.2 * snr at use time
    power_iter: PowerIterationSettings = field(default_factory=PowerIterationSettings)

    def __post_init__(self):
        if self.test not in TESTS:
            raise ValueError(f"unknown test {self.test!r}; expected one of {TESTS}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not math.isfinite(self.snr):
            raise ValueError(f"snr must be finite, got {self.snr}")
        if self.epsilon is not None and not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")
        if self.test in ("mle", "map"):
            check_support_enumerable(self.prior, self.n)

    @property
    def threshold_margin(self) -> float:
        return self.epsilon if self.epsilon is not None else 0.2 * self.snr


def check_support_enumerable(prior: SpikePrior, n: int) -> None:
    if prior.kind == "spherical":
        raise SupportTooLargeError("spherical prior has no enumerable support")
    if prior.kind == "rademacher":
        if n > RADEMACHER_MAX_N:
            raise SupportTooLargeError(
                f"rademacher enumeration capped at n <= {RADEMACHER_MAX_N}, got n={n}"
            )
        return
    size = prior.support_size(n)
    if size > MAX_ENUMERATION:
        raise SupportTooLargeError(
            f"sparse support size {size} exceeds the enumeration cap 2^24={MAX_ENUMERATION}"
        )


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    arm: str  # spiked | unspiked
    statistic: float
    decision: int | None
    overlap: float


@dataclass(frozen=True)
class ExperimentResult:
    trials: int
    accuracy: float | None
    type_i_rate: float | None
    type_ii_rate: float | None
    mean_abs_overlap: float | None
    mean_overlap_pow_d: float | None
    threshold: float | None
    records: tuple[TrialRecord, ...]
    norm_estimates: dict | None = None  # injective test: per-arm summary stats


# ---------------------------------------------------------------------------
# exhaustive statistics over discrete supports
# ---------------------------------------------------------------------------

def _batch_form_values(entries: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """<T, v^{(x)d}> for every row v of ``candidates`` at once."""
    m, n = candidates.shape
    d = entries.ndim
    values = candidates @ entries.reshape(n, -1)  # (m, n^(d-1))
    for _ in range(d - 2):
        values = values.reshape(m, n, -1)
        values = np.einsum("mjr,mj->mr", values, candidates)
    return np.einsum("mj,mj->m", values.reshape(m, n), candidates)


def _half_sign_patterns(width: int) -> np.ndarray:
    """All sign rows of the given width with the first sign fixed to +1."""
    count = 1 << (width - 1) if width > 0 else 1
    bits = (np.arange(count)[:, None] >> np.arange(max(width - 1, 0))[None, :]) & 1
    return np.concatenate([np.ones((count, 1)), 2.0 * bits - 1.0], axis=1)


def _support_chunks(prior: SpikePrior, n: int):
    """Yield candidate half-support chunks (opposite signs handled by the caller)."""
    if prior.kind == "rademacher":
        signs = _half_sign_patterns(n) / math.sqrt(n)
        for start in range(0, signs.shape[0], _CHUNK):
            yield signs[start : start + _CHUNK]
        return
    k = prior.nonzeros(n)
    signs = _half_sign_patterns(k) / math.sqrt(k)
    block, rows = [], 0
    for support in itertools.combinations(range(n), k):
        vecs = np.zeros((signs.shape[0], n))
        vecs[:, list(support)] = signs
        block.append(vecs)
        rows += vecs.shape[0]
        if rows >= _CHUNK:
            yield np.concatenate(block)
            block, rows = [], 0
    if block:
        yield np.concatenate(block)


def mle_statistic(
    tensor: SymmetricTensor, prior: SpikePrior, n: int, d: int
) -> tuple[float, UnitVector]:
    """max over the support of <T, v^{(x)d}> by exhaustive enumeration.

    Only half the support is visited: for even d the form is sign-invariant,
    and for odd d the other half contributes the negated values, so the
    overall max is the max of |value| with the sign folded into the argmax.
    """
    check_support_enumerable(prior, n)
    if tensor.n != n or tensor.d != d:
        raise ValueError("tensor shape disagrees with (n, d)")
    best, best_vec = -math.inf, None
    for candidates in _support_chunks(prior, n):
        values = _batch_form_values(tensor.entries, candidates)
        if d % 2 == 0:
            i = int(np.argmax(values))
            if values[i] > best:
                best, best_vec = float(values[i]), candidates[i]
        else:
            magnitudes = np.abs(values)
            i = int(np.argmax(magnitudes))
            if magnitudes[i] > best:
                best = float(magnitudes[i])
                best_vec = candidates[i] * (1.0 if values[i] >= 0 else -1.0)
    return best, UnitVector(best_vec)


def map_statistic(
    tensor: SymmetricTensor, prior: SpikePrior, n: int, d: int, snr: float
) -> tuple[float, UnitVector]:
    """max of <T, v^{(x)d}> + (2/(n snr)) log Pr(v).

    Both discrete priors are uniform on their support, so the prior term is
    the constant -2 log|supp| / (n snr) and the argmax equals the MLE's.
    """
    if snr <= 0:
        raise ValueError(f"map statistic requires snr > 0, got {snr}")
    value, argmax = mle_statistic(tensor, prior, n, d)
    shift = -2.0 * math.log(prior.support_size(n)) / (n * snr)
    return value + shift, argmax


# ---------------------------------------------------------------------------
# power iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormEstimate:
    value: float
    vector: np.ndarray
    converged: bool


def _power_iteration_ascent(
    tensor: SymmetricTensor, start: np.ndarray, max_iters: int, tol: float
) -> tuple[float, np.ndarray, bool]:
    d = tensor.d
    x = start / np.linalg.norm(start)
    fx = rank_one_inner(tensor, UnitVector(x))
    if d % 2 == 1 and fx < 0:
        x, fx = -x, -fx
    shift = 0.0
    scale = max(1.0, abs(fx))
    converged = False
    for _ in range(max_iters):
        g = contract(tensor, UnitVector(x))
        for _ in range(80):
            step = g + shift * x
            norm = np.linalg.norm(step)
            if norm == 0.0:
                return fx, x, True  # stationary point
            y = step / norm
            fy = rank_one_inner(tensor, UnitVector(y))
            if d % 2 == 1 and fy < 0:
                y, fy = -y, -fy
            if fy >= fx - 1e-12 * scale:
                break
            shift = 2.0 * shift + 1.0  # retry with a safer (more contractive) step
        if fy < fx - 1e-9 * scale:
            raise RuntimeError(f"power iteration failed to ascend: {fx} -> {fy}")
        move = float(np.linalg.norm(y - x))
        x, fx = y, fy
        scale = max(scale, abs(fx))
        if move < tol:
            converged = True
            break
        shift *= 0.5  # relax toward the plain power step while it keeps ascending
    return fx, x, converged


def injective_norm_estimate(
    tensor: SymmetricTensor,
    settings: PowerIterationSettings = PowerIterationSettings(),
    seed: RngSeed | None = None,
    spike_start: UnitVector | None = None,
) -> NormEstimate:
    """Best ascent value over random restarts (plus optional spike start).

    A heuristic LOWER estimate of max <T, x^{(x)d}> over the sphere; the
    objective value is nondecreasing along every run by construction.
    """
    rng = (seed or RngSeed(0)).generator(2)
    starts = [rng.standard_normal(tensor.n) for _ in range(settings.restarts)]
    if spike_start is not None:
        starts.insert(0, np.asarray(spike_start.coords, dtype=float))
    best = None
    for start in starts:
        value, vector, converged = _power_iteration_ascent(
            tensor, start, settings.max_iters, settings.tol
        )
        if best is None or value > best.value:
            best = NormEstimate(value, vector, converged)
    return best


def matrix_top_eigenpair(
    tensor: SymmetricTensor, settings: PowerIterationSettings, seed: RngSeed
) -> tuple[float, np.ndarray, bool]:
    """d=2 path: power iteration on T + cI, c = 1 + max row sum, so the
    dominant eigenvalue is positive; returns the Rayleigh quotient of T."""
    if tensor.d != 2:
        raise ValueError("matrix_top_eigenpair requires d = 2")
    matrix = tensor.entries
    c = 1.0 + float(np.max(np.sum(np.abs(matrix), axis=1)))
    shifted = matrix + c * np.eye(tensor.n)
    x = seed.generator(2).standard_normal(tensor.n)
    x /= np.linalg.norm(x)
    converged = False
    for _ in range(settings.max_iters):
        y = shifted @ x
        y /= np.linalg.norm(y)
        if np.linalg.norm(y - x) < settings.tol:
            x = y
            converged = True
            break
        x = y
    return float(x @ (matrix @ x)), x, converged


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _arm_statistic(
    config: ExperimentConfig, tensor: SymmetricTensor, arm_seed: RngSeed
) -> tuple[float, UnitVector | None]:
    if config.test == "mle":
        return mle_statistic(tensor, config.prior, config.n, config.d)
    if config.test == "map":
        return map_statistic(tensor, config.prior, config.n, config.d, config.snr)
    est = injective_norm_estimate(tensor, config.power_iter, seed=arm_seed)
    return est.value, UnitVector(est.vector / np.linalg.norm(est.vector))


def detection_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Paired trials: one spiked and one unspiked sample per trial, the
    configured statistic thresholded at snr - eps (MLE), snr - 2s/snr - eps
    (MAP), or the midpoint of the two arms' mean statistics (injective)."""

    def run_trial(k: int):
        spiked_seed = config.seed.offset(2 + 2 * k)
        unspiked_seed = config.seed.offset(3 + 2 * k)
        x, spiked = sample_spiked(config.prior, config.n, config.d, config.snr, spiked_seed)
        unspiked = sample_wigner(config.n, config.d, unspiked_seed)
        s1, v1 = _arm_statistic(config, spiked, spiked_seed)
        s0, _ = _arm_statistic(config, unspiked, unspiked_seed)
        overlap = float(np.dot(x.coords, v1.coords)) if v1 is not None else math.nan
        return s1, s0, overlap

    outcomes = parallel_map(run_trial, range(config.trials), threads)

    eps = config.threshold_margin
    norm_estimates = None
    if config.test == "mle":
        threshold = config.snr - eps
    elif config.test == "map":
        s_n = math.log(config.prior.support_size(config.n)) / config.n
        threshold = config.snr - 2.0 * s_n / config.snr - eps
    else:
        spiked_stats = np.array([s1 for s1, _, _ in outcomes])
        unspiked_stats = np.array([s0 for _, s0, _ in outcomes])
        threshold = 0.5 * (float(spiked_stats.mean()) + float(unspiked_stats.mean()))
        norm_estimates = {
            "spiked_mean": float(spiked_stats.mean()),
            "spiked_std": float(spiked_stats.std()),
            "unspiked_mean": float(unspiked_stats.mean()),
            "unspiked_std": float(unspiked_stats.std()),
        }

    records = []
    hits = misses = false_alarms = 0
    for k, (s1, s0, overlap) in enumerate(outcomes):
        d1 = int(s1 >= threshold)
        d0 = int(s0 >= threshold)
        hits += d1
        misses += 1 - d1
        false_alarms += d0
        records.append(TrialRecord(k, "spiked", s1, d1, overlap))
        records.append(TrialRecord(k, "unspiked", s0, d0, math.nan))

    trials = config.trials
    overlaps = np.array([r.overlap for r in records if r.arm == "spiked"])
    return ExperimentResult(
        trials=trials,
        accuracy=(hits + (trials - false_alarms)) / (2.0 * trials),
        type_i_rate=false_alarms / trials,
        type_ii_rate=misses / trials,
        mean_abs_overlap=float(np.mean(np.abs(overlaps))),
        mean_overlap_pow_d=float(np.mean(overlaps**config.d)),
        threshold=threshold,
        records=tuple(records),
        norm_estimates=norm_estimates,
    )


def recovery_experiment(config: ExperimentConfig, threads: int = 1) -> ExperimentResult:
    """Spiked samples only; reports the statistic argmax's overlap with the spike.

    snr = 0 is allowed as the null reference: the argmax is then independent
    of the spike and the overlap follows the plain two-spike overlap law.
    """
    if config.snr < 0:
        raise ValueError("recovery requires snr >= 0")

    def run_trial(k: int):
        seed = config.seed.offset(2 + k)
        x, spiked = sample_spiked(config.prior, config.n, config.d, config.snr, seed)
        value, vhat = _arm_statistic(config, spiked, seed)
        return value, float(np.dot(x.coords, vhat.coords))

    outcomes = parallel_map(run_trial, range(config.trials), threads)
    records = tuple(
        TrialRecord(k, "spiked", value, None, overlap)
        for k, (value, overlap) in enumerate(outcomes)
    )
    overlaps = np.array([r.overlap for r in records])
    return ExperimentResult(
        trials=config.trials,
        accuracy=None,
        type_i_rate=None,
        type_ii_rate=None,
        mean_abs_overlap=float(np.mean(np.abs(overlaps))),
        mean_overlap_pow_d=float(np.mean(overlaps**config.d)),
        threshold=None,
        records=records,
    )


@dataclass(frozen=True)
class TailRow:
    t: float
    empirical_tail: float
    empirical_rate: float
    rate_value: float
    exact_tail: float | None
    exact_rate: float | None


def overlap_tail_experiment(
    prior: SpikePrior,
    n: int,
    trials: int,
    t_grid,
    seed: RngSeed,
    threads: int = 1,
    chunk: int = 10_000,
) -> list[TailRow]:
    """Empirical Pr[<x,x'> >= t] from sampled spike pairs, next to the rate
    function and (where exact combinatorics is available) the exact tail."""
    rate = rate_function_for(prior)
    n_chunks = (trials + chunk - 1) // chunk

    def run_chunk(c: int) -> np.ndarray:
        count = min(chunk, trials - c * chunk)
        rng = seed.offset(2 + c).generator(0)
        rows = sample_spike_batch(prior, n, 2 * count, rng)
        return np.einsum("ij,ij->i", rows[0::2], rows[1::2])

    overlaps = np.concatenate(parallel_map(run_chunk, range(n_chunks), threads))
    exact_available = prior.kind == "spherical" or n <= EXACT_TAIL_MAX_N
    out = []
    for t in t_grid:
        t = float(t)
        tail = float(np.mean(overlaps >= t))
        emp_rate = -math.log(tail) / n if tail > 0 else math.inf
        exact = exact_overlap_tail(prior, n, t) if exact_available else None
        exact_rate = None
        if exact is not None:
            exact_rate = -math.log(exact) / n if exact > 0 else math.inf
        out.append(TailRow(t, tail, emp_rate, rate.eval(min(t, 1.0)), exact, exact_rate))
    return out


@dataclass(frozen=True)
class BbpSummary:
    n: int
    snr: float
    trials: int
    mean_top_eigenvalue: float
    mean_alignment_sq: float
    predicted_top_eigenvalue: float
    predicted_alignment_sq: float
    eigenvalues: tuple[float, ...]
    alignments_sq: tuple[float, ...]


def bbp_reference_experiment(
    n: int,
    snr: float,
    trials: int,
    seed: RngSeed,
    settings: PowerIterationSettings = PowerIterationSettings(),
    threads: int = 1,
) -> BbpSummary:
    """d=2 eigenvalue-transition check: top eigenvalue -> snr + 1/snr and
    squared spike alignment -> 1 - 1/snr^2 above snr = 1 (2 and 0 below)."""
    prior = SpikePrior.spherical()

    def run_trial(k: int):
        trial_seed = seed.offset(2 + k)
        x, spiked = sample_spiked(prior, n, 2, snr, trial_seed)
        eig, vec, _ = matrix_top_eigenpair(spiked, settings, trial_seed)
        return eig, float(np.dot(vec, x.coords)) ** 2

    outcomes = parallel_map(run_trial, range(trials), threads)
    eigs = tuple(e for e, _ in outcomes)
    aligns = tuple(a for _, a in outcomes)
    if snr > 1.0:
        pred_eig, pred_align = snr + 1.0 / snr, 1.0 - 1.0 / snr**2
    else:
        pred_eig, pred_align = 2.0, 0.0
    return BbpSummary(
        n=n,
        snr=snr,
        trials=trials,
        mean_top_eigenvalue=float(np.mean(eigs)),
        mean_alignment_sq=float(np.mean(aligns)),
        predicted_top_eigenvalue=pred_eig,
        predicted_alignment_sq=pred_align,
        eigenvalues=eigs,
        alignments_sq=aligns,
    )
