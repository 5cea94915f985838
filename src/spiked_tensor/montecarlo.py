"""Seeded desk-scale experiments: exhaustive-search detection/recovery tests,
injective-norm estimation (power iteration; one eigensolve at d = 2),
empirical overlap tails, and the d = 2 eigenvalue-transition prediction.

Determinism contract: every experiment is a pure function of its config.
Trial k derives its own RNG stream (offset 2+k; paired designs use 2+2k and
3+2k for the two arms), every spiked sample of a detect, recover, norms or
bbp run is drawn and scored by one arm (a norms run at snr = 0 draws a plain
Wigner tensor and no spike), and each result is one ordered fold over the
per-trial records, so results are bit-identical across runs.

Overlap tails of the discrete priors are counts on the lattice: each pair's
overlap is the exact integer s = k<x,x'> computed from the sign draws (no
float spike row is formed), and Pr[<x,x'> >= t] counts s >= lattice_cut(t, k),
the cut exact_overlap_tail uses, so the empirical and exact columns of a row
agree on which lattice points a t counts.  Spherical overlaps are floats.

There is no separate MAP test: both discrete priors are uniform on their
support, so the MAP statistic is the MLE statistic shifted by the constant
-2 log|supp| / (n snr), its threshold moves by the same constant, and it
makes the MLE test's decisions.

Exhaustive search (the mle test) needs support_size(n) <= 2^24 and visits half
the support as pairs of candidates on the two halves of the coordinates (see
mle_statistic).  Besides the tensor it holds the d + 1 blocks of T that it
contracts (under n^d scalars in all), a table of the supports on each side,
and blocks of at most 2^22 scalars (32 MB): one of candidate values, and for
each side one of candidates with their features and the first step of their
contractions.

At d = 2 the injective norm is the top eigenvalue of T, and its estimate
is LAPACK's exact top eigenpair.  At d >= 3 the maximizer is a heuristic:
restarted power iteration on the gradient direction, with an adaptive
positive shift.  A plain power step can decrease the objective on random
tensors; whenever that happens the shift doubles and the step is retried,
which restores guaranteed ascent (for a large enough shift the update is a
small gradient step on the sphere).  Two rules choose the step a start
proposes.  A step that reverses the start's previous step raises its shift
to f instead of halving it, which damps a mode the power map flips at each
step; and once its steps move less than _NEWTON_TRIGGER, the start proposes
a Riemannian Newton step, which converges quadratically, until one Newton
proposal is rejected.  Every proposal passes the same ascent test, so the
objective never falls; values are lower estimates of the maximum, never a
certified optimum.  All starts of one estimate ascend in lockstep: every
block step is one contraction of the (rows, n) block of starts still
running, each row keeping its own shift and counts, and a row leaves the
block when it stops.  The starts are drawn and run in chunks whose first
contraction step holds at most 2^22 scalars, whatever the restart count.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .rates import (
    EXACT_TAIL_MAX_N, check_overlap_point, exact_overlap_tail, lattice_cut, rate_function_for,
    tail_rate,
)
from .rng import RESTART_SUBSTREAM, RngSeed
from .tensors import (
    MEMORY_CAP,
    SpikePrior,
    SymmetricTensor,
    UnitVector,
    check_snr,
    contract,
    contract_leading,
    rank_one_inner,
    sample_sign_draws,
    sample_spike_batch,
    sample_spiked,
    sample_wigner,
)

MAX_ENUMERATION = 2**24  # support points; the half visited is 2^23 candidates
_BLOCK_BUDGET = 1 << 22  # scalars in one block of candidate values, per side block, and per power-step block
# a row whose last taken step moved less than this, with no failed attempt
# since, proposes a Newton step (the power step's linear tail is then slow)
_NEWTON_TRIGGER = 1e-3
# a row whose taken step moves less than this ends converged; with the Newton
# finish, 1e-12 or 1e-14 in its place moved no printed digit (README)
_STEP_TOL = 1e-10
_TAIL_CHUNK = 10_000  # spike pairs per overlap-tail chunk; chunk c draws from stream 2+c

TESTS = ("mle", "injective_norm")


class SupportTooLargeError(ValueError):
    pass


@dataclass(frozen=True)
class PowerIterationSettings:
    restarts: int = 20
    max_iters: int = 500

    def __post_init__(self):
        if self.restarts < 0:
            raise ValueError(f"restarts must be >= 0, got {self.restarts}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")


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
        check_trials(self.trials)
        check_snr(self.snr)  # before trial 0, in sample_spiked's words
        if self.epsilon is not None and not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite, got {self.epsilon}")
        if self.test == "mle":
            check_support_enumerable(self.prior, self.n)

    @property
    def threshold_margin(self) -> float:
        return self.epsilon if self.epsilon is not None else 0.2 * self.snr


def check_trials(trials: int) -> None:
    """Per-trial results are held until the experiment folds them, so the
    trial count is bounded by MEMORY_CAP like any other array."""
    if not 1 <= trials <= MEMORY_CAP:
        raise ValueError(f"trials must be in 1..{MEMORY_CAP}, got {trials}")


def check_support_enumerable(prior: SpikePrior, n: int) -> None:
    """Exhaustive search runs only where support_size(n) <= MAX_ENUMERATION."""
    if prior.kind == "spherical":
        raise SupportTooLargeError("spherical prior has no enumerable support")
    # 2^k alone passes the cap from k = 25 on; a huge n never forms its size
    if prior.nonzeros(n) >= MAX_ENUMERATION.bit_length() or prior.support_size(n) > MAX_ENUMERATION:
        raise SupportTooLargeError(
            f"{prior.label()} support at n={n} exceeds the enumeration cap "
            f"of 2^24={MAX_ENUMERATION} points"
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
    accuracy: float | None
    type_i_rate: float | None
    type_ii_rate: float | None
    mean_abs_overlap: float | None
    mean_overlap_pow_d: float | None
    threshold: float | None
    records: tuple[TrialRecord, ...]


# ---------------------------------------------------------------------------
# exhaustive statistics over discrete supports
# ---------------------------------------------------------------------------

def _candidate_chunks(length: int, k: int, rows: int, scale: float, fixed: bool):
    """Yield the vectors on ``length`` coordinates with k nonzeros of +-scale,
    <= rows per block, with the first nonzero fixed to +scale if ``fixed``.

    Supports come in ``itertools.combinations(range(length), k)`` order; in
    each, sign code c = 0 .. 2^(k-fixed)-1 makes nonzero j (from 0) +scale
    where bit j of (2c+1 if fixed else c) is 1 and -scale where it is 0.
    Candidate i is support i // codes with code i % codes, so each block is
    scattered from its own range of indices and a table of the supports.
    k = 0 gives the zero vector alone.
    """
    codes = 1 << (k - fixed)
    flat = itertools.chain.from_iterable(itertools.combinations(range(length), k))
    count = math.comb(length, k)
    supports = np.fromiter(flat, dtype=np.intp, count=count * k).reshape(count, k)
    total = count * codes
    for start in range(0, total, rows):
        which, code = np.divmod(np.arange(start, min(start + rows, total)), codes)
        signs = (2 * code + 1 if fixed else code)[:, None] >> np.arange(k) & 1
        block = np.zeros((code.size, length))
        np.put_along_axis(block, supports[which], np.where(signs, scale, -scale), axis=1)
        yield block


def _features(x: np.ndarray, terms) -> np.ndarray:
    """(rows, D) features of one side's candidate rows: per term (block, p),
    x^{(x)p} flattened where block is None, else block contracted against x p times."""
    columns = []
    for block, p in terms:
        if block is None:
            f = np.ones((len(x), 1))
            for _ in range(p):
                f = (f[:, :, None] * x[:, None, :]).reshape(len(x), -1)
        else:
            f = contract_leading(block, x, p)
        columns.append(f)
    return np.concatenate(columns, axis=1)


def _row_cost(length: int, terms, width: int) -> int:
    """Scalars per candidate row of a side block: the row, its ``width``
    features twice while they are joined, and the first gemm of its widest
    contraction."""
    return length + 2 * width + max((b.size // length for b, _ in terms if b is not None), default=0)


def mle_statistic(
    tensor: SymmetricTensor, prior: SpikePrior, n: int, d: int
) -> tuple[float, UnitVector]:
    """max over the support of <T, v^{(x)d}> by exhaustive meet-in-the-middle search.

    Only half the support is visited: for even d the form is sign-invariant,
    and for odd d the other half contributes the negated values, so the
    overall max is the max of |value| with the sign folded into the argmax.

    Each candidate splits as v = u (+) w over U, the first h = n // 2
    coordinates, and W, the rest.  By symmetry
    <T, v^{(x)d}> = sum_a C(d, a) <T[U^a W^(d-a)], u^{(x)a} (x) w^{(x)(d-a)}>,
    and each term is an inner product of a feature of u with a feature of w:
    the block contracted onto the side with fewer features (u^{(x)a} against
    the block contracted with w^{(x)(d-a)} when h^a <= (n-h)^(d-a), else the
    other way round).  Every candidate value is then one entry of a gemm
    P Q^T of inner dimension D <= 2 + sum_{a=1}^{d-1} min(h^a, (n-h)^(d-a)).
    The search runs one such product per k1 = the nonzeros in U (Rademacher
    has the one k1 = h): U holds C(h, k1) 2^(k1-1) halves with the first sign
    fixed, W all C(n-h, k-k1) 2^(k-k1) sign patterns, or for k1 = 0 the zero
    u against half of W.  By Vandermonde's identity these are exactly the
    C(n, k) 2^(k-1) candidates of the half support.  Terms whose u or w is
    the zero vector vanish and are left out.

    Ties go to the first maximum in scan order: k1 ascending, then blocks of
    U rows, then blocks of W rows, then (u, w) in row-major order within a
    block, each side listed in its ``_candidate_chunks`` order.
    """
    check_support_enumerable(prior, n)
    if tensor.n != n or tensor.d != d:
        raise ValueError("tensor shape disagrees with (n, d)")
    k = prior.nonzeros(n)
    scale = 1.0 / math.sqrt(k)
    h, m = n // 2, n - n // 2
    u_terms, w_terms = [], []  # per a = 0 .. d: (block or None, power) on each side
    for a in range(d + 1):
        block = tensor.entries[(slice(None, h),) * a + (slice(h, None),) * (d - a)]
        if a == 0 or (a < d and h**a <= m ** (d - a)):  # u^{(x)a} against the block's W contraction
            block = block.transpose([*range(a, d), *range(a)])
            u_terms.append((None, a))
            w_terms.append((math.comb(d, a) * np.ascontiguousarray(block), d - a))
        else:
            u_terms.append((math.comb(d, a) * np.ascontiguousarray(block), a))
            w_terms.append((None, d - a))
    odd = d % 2 == 1
    best, best_vec = -math.inf, None
    for k1 in range(max(0, k - m), min(h, k) + 1):
        # a term with a > 0 vanishes when u = 0, one with a < d when w = 0
        live = [a for a in range(d + 1) if (k1 or a == 0) and (k - k1 or a == d)]
        uts, wts = [u_terms[a] for a in live], [w_terms[a] for a in live]
        width = sum(min(h**a, m ** (d - a)) if 0 < a < d else 1 for a in live)
        n_w = math.comb(m, k - k1) << (k - k1 - (k1 == 0))
        cols = max(1, _BLOCK_BUDGET // _row_cost(m, wts, width))
        rows = max(1, _BLOCK_BUDGET // max(_row_cost(h, uts, width), min(cols, n_w)))
        for u in _candidate_chunks(h, k1, rows, scale, k1 > 0):
            p = _features(u, uts)
            for w in _candidate_chunks(m, k - k1, cols, scale, k1 == 0):
                r, c, value = _first_max(p @ _features(w, wts).T, odd)
                score = abs(value) if odd else value
                if score > best:
                    best = score
                    best_vec = np.concatenate([u[r], w[c]]) * (-1.0 if odd and value < 0 else 1.0)
    return best, UnitVector(best_vec)


def _first_max(values: np.ndarray, by_magnitude: bool) -> tuple[int, int, float]:
    """Row, column and value of the first maximum of a block, or of the first
    maximum of |value|, without an |values| temporary."""
    i = int(np.argmax(values))
    if by_magnitude:
        j = int(np.argmin(values))  # the max of |value| is the max or -min
        if (-values.flat[j], -j) > (values.flat[i], -i):
            i = j
    return *divmod(i, values.shape[1]), float(values.flat[i])


# ---------------------------------------------------------------------------
# power iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormEstimate:
    value: float
    vector: np.ndarray
    converged: bool


def _ascend(
    tensor: SymmetricTensor, starts: np.ndarray, max_iters: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Value, unit vector and convergence flag of the ascent from each row of
    ``starts`` (d >= 3), all rows stepped in lockstep.

    Every block step makes one attempt per live row through one contraction
    of the block.  A row keeps its own shift, step count and attempt count.
    A step is taken only if f does not fall (f(y) >= f(x)) and halves the
    row's shift; a failed attempt doubles the shift, adds 1 and retries from
    the same point.  A row leaves the block converged when its step moves
    less than _STEP_TOL, at a stationary point (a zero step) and after 80
    failed attempts in a row (its shift is then above 2^79, so the point is
    stationary up to rounding), staying where it is; it leaves unconverged
    after ``max_iters`` steps.

    Two rules choose the step a row proposes; neither changes the test a
    step must pass, so f still never falls.  A taken step that reverses the
    row's previous taken step (a negative inner product) sets the shift to
    max(shift, f(x)) instead of halving it: the shifted map's linear ratio
    along a mode is ((d-1) mu + shift) / (f + shift), which a shift of f
    takes from about -1 to about 0 for (d-1) mu near -f.  Once the row's last
    taken step moved less than _NEWTON_TRIGGER with no failed attempt since,
    it proposes the tangent Newton step of ``_newton_steps`` instead of the
    power step, where that step ascends to first order; after one rejected
    Newton proposal the row stays on power steps.

    One contraction per point gives both f(x) = <g, x> and the next step's
    direction g.  For odd d, contract(T, -x) = contract(T, x) bit for bit
    (negation is exact), so a point flipped to -x keeps its g.
    """
    rows, n = starts.shape
    values, vectors, converged = np.empty(rows), np.empty((rows, n)), np.zeros(rows, dtype=bool)
    odd = tensor.d % 2 == 1
    x = starts / _row_norms(starts)[:, None]
    g = contract(tensor, x)
    fx = np.einsum("ij,ij->i", g, x)
    if odd:
        _flip_negative(x, fx)
    shift = np.zeros(rows)
    last = np.zeros((rows, n))  # each row's last taken step y - x
    moved = np.full(rows, math.inf)  # its length
    newton_ok = np.ones(rows, dtype=bool)
    steps, attempts, live = np.zeros(rows, dtype=int), np.zeros(rows, dtype=int), np.arange(rows)
    while live.size:
        step = g + shift[:, None] * x
        newton = newton_ok & (attempts == 0) & (moved < _NEWTON_TRIGGER)
        if newton.any():
            delta, ascent = _newton_steps(tensor, x[newton], g[newton], fx[newton])
            newton[newton] = ascent
            step[newton] = x[newton] + delta[ascent]
        norm = _row_norms(step)
        if norm.all():
            y = step / norm[:, None]
            gy = contract(tensor, y)
            fy = np.einsum("ij,ij->i", gy, y)
            if odd:
                _flip_negative(y, fy)
            take = fy >= fx  # a NaN value fails
            failed = ~take
            attempts += failed
            newton_ok &= ~(newton & failed)
            move = y - x
            move_norm = _row_norms(move)
            finished = (attempts == 80) | (take & (move_norm < _STEP_TOL))
            reverses = np.einsum("ij,ij->i", move, last) < 0
            np.copyto(x, y, where=take[:, None])
            np.copyto(g, gy, where=take[:, None])
            np.copyto(fx, fy, where=take)
            np.copyto(last, move, where=take[:, None])
            np.copyto(moved, move_norm, where=take)
            # a failed attempt retries with a safer (more contractive) step; a
            # taken one relaxes toward the plain power step, or damps a reversal
            shift = np.where(failed, 2.0 * shift + 1.0,
                             np.where(reverses, np.maximum(shift, fx), 0.5 * shift))
            steps += take
            attempts[take] = 0
            done = finished | (steps == max_iters)
        else:  # a stationary point ends its row; the other rows make this attempt on the next pass
            finished = done = norm == 0.0
        if done.any():
            converged[live[finished]] = True
            values[live[done]], vectors[live[done]] = fx[done], x[done]
            keep = ~done
            x, g, fx, shift, last, moved, newton_ok, steps, attempts, live = (
                a[keep] for a in (x, g, fx, shift, last, moved, newton_ok, steps, attempts, live)
            )
    return values, vectors, converged


def _newton_steps(
    tensor: SymmetricTensor, x: np.ndarray, g: np.ndarray, f: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Riemannian Newton steps of f on the sphere at the unit rows of ``x``
    (g = contract(T, x), f = <g, x>), and whether each ascends; d >= 3.

    With M = T x^(d-2) and P = I - x x^T, the step delta solves
    (P ((d-1) M - f I) P - x x^T) delta = -(g - f x), so it is tangent
    (Absil, Mahony & Sepulchre, Optimization Algorithms on Matrix Manifolds,
    2008, sec. 6); it ascends to first order where delta . (g - f x) > 0.
    For A = (d-1) M - f I, M x = g gives a = A x = (d-1) g - f x, and the
    matrix is A - x b^T - b x^T with b = a - (x.a - 1) x / 2.  A row's n x n
    matrix is no larger than its n^(d-1) first contraction step, so the
    stack fits the block's _BLOCK_BUDGET; a stack with an exactly singular
    matrix proposes no step.
    """
    n, d = tensor.n, tensor.d
    residual = g - f[:, None] * x
    mats = (d - 1) * contract_leading(tensor.entries, x, d - 2).reshape(-1, n, n)
    mats[:, np.arange(n), np.arange(n)] -= f[:, None]
    a = (d - 1) * g - f[:, None] * x
    b = a - 0.5 * (np.einsum("ij,ij->i", x, a) - 1.0)[:, None] * x
    mats -= x[:, :, None] * b[:, None, :] + b[:, :, None] * x[:, None, :]
    try:
        delta = np.linalg.solve(mats, -residual[:, :, None])[:, :, 0]
    except np.linalg.LinAlgError:  # a zero step, which does not ascend
        delta = np.zeros_like(x)
    return delta, np.einsum("ij,ij->i", delta, residual) > 0


def _row_norms(a: np.ndarray) -> np.ndarray:
    """The Euclidean norm of each row of ``a``: np.linalg.norm(a, axis=1) bit for bit."""
    return np.sqrt(np.add.reduce(a * a, axis=1))


def _flip_negative(points: np.ndarray, values: np.ndarray) -> None:
    """Negate, in place, the rows of ``points`` whose value is negative, and
    those values (odd d: f(-x) = -f(x))."""
    flip = values < 0
    np.negative(points, out=points, where=flip[:, None])
    np.negative(values, out=values, where=flip)


def injective_norm_estimate(
    tensor: SymmetricTensor,
    settings: PowerIterationSettings,
    seed: RngSeed,
    spike_start: UnitVector | None = None,
) -> NormEstimate:
    """max <T, x^{(x)d}> over the sphere, and a unit vector attaining it.

    At d = 2 it is exact: LAPACK's top eigenvector (the package's one
    eigensolve), its value read off the vector, converged, with no restart
    drawn (``settings`` is checked but tunes nothing).  At d >= 3 it is the
    best ascent value over random restarts (plus optional spike start), a
    heuristic LOWER estimate, nondecreasing along every run: ``_ascend``'s
    power steps, reversal damping and Newton finish all pass one test,
    f(y) >= f(x), before they are taken.  The starts are the spike (when
    given) followed by ``restarts`` standard normal rows of the restart
    stream.  Ties go to the first best start.
    """
    n = tensor.n
    if settings.restarts * n > MEMORY_CAP:
        raise ValueError(f"{settings.restarts} starts of n={n} exceed the memory cap {MEMORY_CAP}")
    total = settings.restarts + (spike_start is not None)
    if not total:
        raise ValueError("injective norm estimate needs a start: restarts = 0 and no spike start")
    if tensor.d == 2:
        from scipy import linalg  # imported at its one use, so that other commands skip its import

        _, vectors = linalg.eigh(tensor.entries, subset_by_index=[n - 1, n - 1])
        return NormEstimate(rank_one_inner(tensor, UnitVector(vectors[:, 0])), vectors[:, 0], True)
    rng = seed.generator(RESTART_SUBSTREAM)
    # starts per chunk: the (rows, n^(d-1)) first step of a block contraction fits the budget
    rows = max(1, _BLOCK_BUDGET // n ** (tensor.d - 1))
    best = None
    for first in range(0, total, rows):
        # chunk by chunk, the draws run through the restart stream in order
        count = min(rows, total - first)
        if first == 0 and spike_start is not None:
            starts = np.vstack([spike_start.coords, rng.standard_normal((count - 1, n))])
        else:
            starts = rng.standard_normal((count, n))
        values, vectors, converged = _ascend(tensor, starts, settings.max_iters)
        i = int(np.argmax(values))
        if best is None or values[i] > best[0]:
            best = values[i], vectors[i].copy(), bool(converged[i])
    _, vector, converged = best
    # a block contraction rounds unlike a single vector's, so the value is
    # read off the winning vector alone
    return NormEstimate(rank_one_inner(tensor, UnitVector(vector)), vector, converged)


def injective_norm_experiment(config: ExperimentConfig) -> list[NormEstimate]:
    """Injective-norm estimates of one sample per trial, in trial order, for a
    config of the injective_norm test.

    Trial k samples from stream 2+k: a spiked arm whose spike is also a start
    of the ascent, or at snr = 0 a plain Wigner tensor, with no spike drawn.
    """
    if config.test != "injective_norm":
        raise ValueError(f"a norm experiment runs test 'injective_norm', not {config.test!r}")
    seeds = (config.seed.offset(2 + k) for k in range(config.trials))
    if config.snr:
        return [_spiked_arm(config, seed, start_at_spike=True)[0] for seed in seeds]
    return [_statistic(config, sample_wigner(config.n, config.d, seed), seed) for seed in seeds]


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

def _statistic(
    config: ExperimentConfig, tensor: SymmetricTensor, seed: RngSeed, start: UnitVector | None = None
) -> NormEstimate:
    """The configured test's statistic of ``tensor``; ``seed`` and ``start``
    seed the injective ascent.  An exhaustive maximum is exact, so converged."""
    if config.test == "injective_norm":
        return injective_norm_estimate(tensor, config.power_iter, seed, start)
    value, argmax = mle_statistic(tensor, config.prior, config.n, config.d)
    return NormEstimate(value, argmax.coords, True)


def _spiked_arm(
    config: ExperimentConfig, seed: RngSeed, start_at_spike: bool = False
) -> tuple[NormEstimate, float]:
    """The configured statistic of a spiked sample drawn from ``seed`` (its
    spike also a start of the ascent if ``start_at_spike``), and the overlap
    of its argmax with the spike; the one path that draws a spiked sample."""
    x, spiked = sample_spiked(config.prior, config.n, config.d, config.snr, seed)
    est = _statistic(config, spiked, seed, x if start_at_spike else None)
    return est, float(np.dot(x.coords, est.vector))


def _summary(
    config: ExperimentConfig, records: list[TrialRecord], threshold: float | None = None
) -> ExperimentResult:
    """An experiment's result, folded over its records in trial order: each
    record decides at ``threshold`` (a recovery run has none and decides
    nothing), and the rates and overlap means are means over the arms."""
    overlaps = np.array([r.overlap for r in records if r.arm == "spiked"])
    rates = dict.fromkeys(("accuracy", "type_i_rate", "type_ii_rate"))
    if threshold is not None:
        records = [replace(r, decision=int(r.statistic >= threshold)) for r in records]
        hits = sum(r.decision for r in records if r.arm == "spiked")
        alarms = sum(r.decision for r in records if r.arm == "unspiked")
        trials = len(overlaps)
        rates = dict(accuracy=(hits + trials - alarms) / (2 * trials), type_i_rate=alarms / trials,
                     type_ii_rate=(trials - hits) / trials)
    return ExperimentResult(**rates, mean_abs_overlap=float(np.mean(np.abs(overlaps))),
                            mean_overlap_pow_d=float(np.mean(overlaps**config.d)),
                            threshold=threshold, records=tuple(records))


def detection_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Paired trials: one spiked and one unspiked sample per trial, the
    configured statistic thresholded at snr - eps (MLE) or the midpoint of
    the two arms' mean statistics (injective).  An arm is declared spiked
    when its statistic is >= the threshold."""
    records = []
    for k in range(config.trials):
        est, overlap = _spiked_arm(config, config.seed.offset(2 + 2 * k))
        null_seed = config.seed.offset(3 + 2 * k)
        null = _statistic(config, sample_wigner(config.n, config.d, null_seed), null_seed)
        records += [TrialRecord(k, "spiked", est.value, None, overlap),
                    TrialRecord(k, "unspiked", null.value, None, math.nan)]
    if config.test == "mle":
        return _summary(config, records, config.snr - config.threshold_margin)
    # the records alternate spiked, unspiked
    spiked, unspiked = (float(np.mean([r.statistic for r in records[i::2]])) for i in (0, 1))
    return _summary(config, records, 0.5 * (spiked + unspiked))


def recovery_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Spiked samples only; reports the statistic argmax's overlap with the spike.

    snr = 0 is allowed as the null reference: the argmax is then independent
    of the spike and the overlap follows the plain two-spike overlap law.
    """
    arms = (_spiked_arm(config, config.seed.offset(2 + k)) for k in range(config.trials))
    return _summary(config, [TrialRecord(k, "spiked", est.value, None, overlap)
                             for k, (est, overlap) in enumerate(arms)])


def bbp_prediction(snr: float) -> tuple[float, float]:
    """The n -> infinity top eigenvalue and squared spike alignment of a d = 2
    spherical spiked matrix (Baik, Ben Arous & Peche, Ann. Probab. 33, 2005):
    snr + 1/snr and 1 - 1/snr^2 for snr > 1 strictly, else the bulk edge 2
    and 0.  At d = 2 they are the limits of the injective-norm statistic and
    of mean_overlap_pow_d in ``recovery_experiment``."""
    if snr > 1.0:
        return snr + 1.0 / snr, 1.0 - 1.0 / snr**2
    return 2.0, 0.0


@dataclass(frozen=True)
class TailRow:
    t: float
    empirical_tail: float
    empirical_rate: float
    rate_value: float
    exact_tail: float | None
    exact_rate: float | None


def _pair_overlaps(prior: SpikePrior, n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """The overlaps of ``count`` spike pairs, rows 2i and 2i+1 of one draw of 2 count
    spikes on ``rng``.  Spherical: <x,x'> in floats.  Discrete: the exact integer
    s = k<x,x'> from the sign draws, with no float row formed."""
    if not prior.is_discrete:
        rows = sample_spike_batch(prior, n, 2 * count, rng)
        return np.einsum("ij,ij->i", rows[0::2], rows[1::2])
    support, bits = sample_sign_draws(prior, n, 2 * count, rng)
    if support is None:  # both spikes are nonzero everywhere: s = agreements - disagreements
        return 2 * np.count_nonzero(bits[0::2] == bits[1::2], axis=1) - bits.shape[1]
    rows = np.zeros((2 * count, n), dtype=np.int8)
    np.put_along_axis(rows, support, (2 * bits - 1).astype(np.int8), axis=1)
    return (rows[0::2] * rows[1::2]).sum(axis=1)  # int8 products of 0 and +-1, summed in int64


def overlap_tail_experiment(
    prior: SpikePrior,
    n: int,
    trials: int,
    t_grid,
    seed: RngSeed,
) -> list[TailRow]:
    """Empirical Pr[<x,x'> >= t] from sampled spike pairs, next to the rate
    function and (where exact combinatorics is available) the exact tail."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    check_trials(trials)
    t_grid = [float(t) for t in t_grid]
    for t in t_grid:
        check_overlap_point(prior, t, "tail points t")
    block = 2 * min(trials, _TAIL_CHUNK) * n
    if block > MEMORY_CAP:
        raise ValueError(
            f"a chunk of spike pairs at n={n} holds {block} scalars, "
            f"above the memory cap {MEMORY_CAP}"
        )
    rate = rate_function_for(prior)
    n_chunks = (trials + _TAIL_CHUNK - 1) // _TAIL_CHUNK
    overlaps = np.concatenate([
        _pair_overlaps(prior, n, min(_TAIL_CHUNK, trials - c * _TAIL_CHUNK),
                       seed.offset(2 + c).generator(0))
        for c in range(n_chunks)
    ])
    k = prior.nonzeros(n) if prior.is_discrete else None
    exact_available = prior.kind == "spherical" or n <= EXACT_TAIL_MAX_N
    out = []
    for t, rate_value in zip(t_grid, rate.eval_batch(np.asarray(t_grid)).tolist()):
        # a discrete overlap is s/k: count s at or above the exact tail's cut
        tail = float(np.mean(overlaps >= (t if k is None else lattice_cut(t, k))))
        exact = exact_overlap_tail(prior, n, t) if exact_available else None
        exact_rate = None if exact is None else tail_rate(exact, n)
        out.append(TailRow(t, tail, tail_rate(tail, n), rate_value, exact, exact_rate))
    return out
