"""Large-deviation rate functions and exact finite-n overlap-tail oracles.

For two independent spikes x, x' the rate function f(t) captures
``Pr[<x,x'> >= t] ~ exp(-n f(t))``:

* spherical:   f(t) = -log(1 - t^2) / 2
* rademacher:  f(t) = log 2 - H((1+t)/2)    (Cramer / Chernoff rate)
* sparse(rho): f(t) = min over feasible support overlap zeta of
               G(zeta) + zeta * f_rade(rho t / zeta),
               G(zeta) = -H({zeta, rho-zeta, rho-zeta, 1-2rho+zeta}) + 2 H(rho)

zeta is the fraction of coordinates where both supports hit; it is
hypergeometric at finite n, which is what the exact oracle sums over.
All logarithms are natural.  0 * log 0 = 0 at entropy boundaries.

The exact oracles are independent of the rate functions: discrete priors use
integer combinatorics (fractions.Fraction, exact), the spherical prior uses
adaptive quadrature of the Beta(n/2, n/2) density.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np
from scipy import integrate, special

from .solvers import golden_min_vec
from .tensors import SpikePrior

EXACT_TAIL_MAX_N = 200  # combinatorial oracles stay exact and fast below this
_ZETA_GRID = 1000       # coarse scan guarding the golden-section basin
_ZETA_GOLDEN_ITERS = 52  # INV_PHI**52 < 1e-11: refine zeta to ~1e-10 absolute


def binary_entropy(p: float) -> float:
    """H(p) = -p log p - (1-p) log(1-p), natural log, H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return float(special.entr(p) + special.entr(1.0 - p))


def multi_entropy(probs) -> float:
    """-sum p_i log p_i over a multiset of nonnegative weights."""
    arr = np.asarray(probs, dtype=float)
    if np.any(arr < 0):
        raise ValueError(f"negative entry in {probs}")
    return float(np.sum(special.entr(arr)))


def rate_spherical(t: float) -> float:
    if not 0.0 <= t < 1.0:
        raise ValueError(f"t must lie in [0, 1); the rate diverges at 1 (got {t})")
    return float(-0.5 * np.log1p(-t * t))


def rate_rademacher(t: float) -> float:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    # log 2 - H((1+t)/2), written to stay exact near t = 0 and t = 1
    return float(0.5 * special.xlog1py(1.0 + t, t) + 0.5 * special.xlog1py(1.0 - t, -t))


def _rate_rademacher_vec(t: np.ndarray) -> np.ndarray:
    t = np.clip(t, 0.0, 1.0)
    return 0.5 * special.xlog1py(1.0 + t, t) + 0.5 * special.xlog1py(1.0 - t, -t)


def entropy_term_G(zeta: float, rho: float) -> float:
    """Exponential cost of a support-overlap fraction zeta; zero at zeta = rho^2."""
    lo, hi = max(0.0, 2.0 * rho - 1.0), rho
    if not lo - 1e-12 <= zeta <= hi + 1e-12:
        raise ValueError(f"zeta={zeta} outside feasible [{lo}, {hi}] for rho={rho}")
    zeta = min(max(zeta, lo), hi)
    return float(_entropy_term_vec(np.asarray(zeta), rho))


def _entropy_term_vec(zeta: np.ndarray, rho: float) -> np.ndarray:
    ent = (
        special.entr(zeta)
        + 2.0 * special.entr(rho - zeta)
        + special.entr(1.0 - 2.0 * rho + zeta)
    )
    return -ent + 2.0 * binary_entropy(rho)


def rate_sparse_rademacher(t: float, rho: float) -> float:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must lie in (0, 1], got {rho}")
    return float(_rate_sparse_batch(np.asarray([t]), rho)[0])


def _rate_sparse_batch(ts: np.ndarray, rho: float) -> np.ndarray:
    """Vectorized inner minimization over zeta, one problem per t."""
    ts = np.asarray(ts, dtype=float)
    lo = np.maximum(rho * ts, 2.0 * rho - 1.0)
    lo = np.maximum(lo, 0.0)
    hi = np.full_like(ts, rho)

    def objective(zeta: np.ndarray) -> np.ndarray:
        zeta = np.minimum(np.maximum(zeta, lo), hi)
        safe = np.maximum(zeta, 1e-300)
        arg = np.minimum(rho * ts / safe, 1.0)
        return _entropy_term_vec(zeta, rho) + zeta * _rate_rademacher_vec(arg)

    # coarse scan over the (t-dependent) feasible interval, then golden polish
    span = hi - lo
    fractions = np.linspace(0.0, 1.0, _ZETA_GRID)
    best = np.full(ts.shape, np.inf)
    sbest = np.zeros_like(ts)
    for s in fractions:
        v = objective(lo + span * s)
        better = v < best
        best = np.where(better, v, best)
        sbest = np.where(better, s, sbest)
    a = lo + span * np.maximum(sbest - 1.0 / _ZETA_GRID, 0.0)
    b = lo + span * np.minimum(sbest + 1.0 / _ZETA_GRID, 1.0)
    _, refined = golden_min_vec(objective, a, b, _ZETA_GOLDEN_ITERS)
    out = np.minimum(best, refined)
    # interval collapses at t = 1: value is H(rho) + rho log 2 exactly
    limit = binary_entropy(rho) + rho * math.log(2.0)
    out = np.where(ts >= 1.0, limit, out)
    return np.maximum(out, 0.0)


def collision_entropy(prior: SpikePrior) -> float:
    """F = lim_{t->1} f(t): +inf (spherical), log 2, or H(rho) + rho log 2."""
    if prior.kind == "spherical":
        return math.inf
    if prior.kind == "rademacher":
        return math.log(2.0)
    return binary_entropy(prior.rho) + prior.rho * math.log(2.0)


def local_subgaussian_sigma2(prior: SpikePrior) -> float:
    """Small-deviation constant sigma^2 = 1 / f''(0); only consumed by the d=2 cap.

    It is 1 for every prior.  f is the Legendre transform of the limiting
    cumulant Lambda(s) = lim (1/n) log E exp(s n <x,x'>), so f''(0) =
    1 / Lambda''(0) = 1 / lim n E<x,x'>^2.  For all three priors the
    coordinates have E x_i x_j = 0 (i != j; sign or rotation symmetry) and,
    being exchangeable with sum of squares 1, E x_i^2 = 1/n; so for
    independent x, x', E<x,x'>^2 = sum_i (E x_i^2)^2 = 1/n exactly.
    """
    return 1.0


@dataclass(frozen=True)
class RateFunction:
    """Evaluable rate function plus its t->1 limit and subgaussian constant."""

    prior: SpikePrior
    eval: Callable[[float], float]
    eval_batch: Callable[[np.ndarray], np.ndarray]
    collision_entropy: float
    local_subgaussian_sigma2: float


def rate_function_for(prior: SpikePrior) -> RateFunction:
    if prior.kind == "spherical":
        def batch(ts):
            return -0.5 * np.log1p(-np.square(np.asarray(ts, dtype=float)))
        fn, fb = rate_spherical, batch
    elif prior.kind == "rademacher":
        fn, fb = rate_rademacher, _rate_rademacher_vec
    else:
        rho = prior.rho
        fn = lambda t: rate_sparse_rademacher(t, rho)
        fb = lambda ts: _rate_sparse_batch(np.asarray(ts, dtype=float), rho)
    return RateFunction(
        prior=prior,
        eval=fn,
        eval_batch=fb,
        collision_entropy=collision_entropy(prior),
        local_subgaussian_sigma2=local_subgaussian_sigma2(prior),
    )


# ---------------------------------------------------------------------------
# exact finite-n overlap tails
# ---------------------------------------------------------------------------

def binomial_tail_half(m: int, jmin: int) -> Fraction:
    """Pr[Binom(m, 1/2) >= jmin], exact."""
    jmin = max(jmin, 0)
    if jmin > m:
        return Fraction(0)
    return Fraction(sum(math.comb(m, j) for j in range(jmin, m + 1)), 2**m)


def hypergeometric_pmf(n: int, k: int, z: int) -> Fraction:
    """Pr[overlap count = z] for two uniform size-k supports in [n], exact."""
    if z < 0 or z > k or k - z > n - k:
        return Fraction(0)
    return Fraction(math.comb(k, z) * math.comb(n - k, k - z), math.comb(n, k))


def _sign_count_at_least(threshold: float, m: int) -> int:
    """Smallest j with 2j - m >= threshold, guarded against float lattice ties."""
    return math.ceil((m + threshold) / 2.0 - 1e-9)


def exact_overlap_tail(prior: SpikePrior, n: int, t: float) -> float:
    """Pr[<x,x'> >= t] for two independent spikes, by exact combinatorics
    (discrete priors, n <= 200) or 1e-12-accurate quadrature (spherical)."""
    if not 0.0 <= t <= 1.0 + 1e-12:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if prior.kind == "spherical":
        return _spherical_tail(n, t)
    if n > EXACT_TAIL_MAX_N:
        raise ValueError(
            f"exact combinatorics capped at n <= {EXACT_TAIL_MAX_N} for discrete priors"
        )
    if prior.kind == "rademacher":
        # <x,x'> = (sum of n iid signs)/n
        return float(binomial_tail_half(n, _sign_count_at_least(t * n, n)))
    k = prior.nonzeros(n)
    total = Fraction(0)
    for z in range(max(0, 2 * k - n), k + 1):
        w = hypergeometric_pmf(n, k, z)
        if w == 0:
            continue
        # conditioned on z shared support points, <x,x'> = (sum of z signs)/k
        total += w * binomial_tail_half(z, _sign_count_at_least(t * k, z))
    return float(total)


def _spherical_tail(n: int, t: float) -> float:
    """I_{(1-t)/2}(n/2, n/2) by adaptive integration of the Beta density."""
    a = n / 2.0
    upper = (1.0 - t) / 2.0
    if upper <= 0.0:
        return 0.0
    log_norm = special.gammaln(2 * a) - 2 * special.gammaln(a)

    def density(u: float) -> float:
        return math.exp(log_norm + (a - 1.0) * (math.log(u) + math.log1p(-u)))

    value, _ = integrate.quad(density, 0.0, upper, epsabs=0.0, epsrel=1e-12, limit=500)
    return float(min(max(value, 0.0), 1.0))

