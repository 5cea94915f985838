"""Large-deviation rate functions and exact finite-n overlap-tail oracles.

For two independent spikes x, x' the rate function f(t) captures
``Pr[<x,x'> >= t] ~ exp(-n f(t))``:

* spherical:   f(t) = -log(1 - t^2) / 2
* rademacher:  f(t) = log 2 - H((1+t)/2)    (Cramer / Chernoff rate)
* sparse(rho): f(t) = min over feasible support overlap zeta of
               G(zeta) + zeta * f_rade(rho t / zeta),
               G(zeta) = -H({zeta, rho-zeta, rho-zeta, 1-2rho+zeta}) + 2 H(rho)

zeta is the fraction of coordinates where both supports hit; it is
hypergeometric at finite n, which is what the exact oracle sums over.  The
objective is convex in zeta, so the minimum over zeta is a bisection for the
first rise on a fixed zeta grid, then an array-parallel golden section
within one grid step (_rate_sparse_batch).
All logarithms are natural.  0 * log 0 = 0 at entropy boundaries.

rate_function_for(prior) is the one rate entry: its ``eval_batch`` is the
prior's array function, and its ``eval`` checks a single t against the
prior's domain (check_overlap_point) and reads one value off that array
function.  The t -> 1 limit F is collision_entropy(prior).

The exact oracles are independent of the rate functions: discrete priors use
the integer law of k<x,x'> on the lattice -k..k (Rademacher is k = n); for the
spherical prior (1 + <x,x'>)/2 is Beta((n-1)/2, (n-1)/2), whose tail is a
regularized incomplete beta function.

Only numpy is imported with this module.  The entropies are numpy and libm
logarithms; scipy is imported in _spherical_tail, the one caller of its
``betainc``, so that start-up and every other command skip scipy's import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate
from typing import Callable

import numpy as np

from .solvers import golden_min_vec
from .tensors import SpikePrior

EXACT_TAIL_MAX_N = 200  # combinatorial oracles stay exact and fast below this
_ZETA_GRID = 1000       # zeta grid whose first minimum brackets the golden section
_ZETA_GOLDEN_ITERS = 52  # INV_PHI**52 < 1e-11: refine zeta to ~1e-10 absolute
_LOG1P_FLOOR = -1.0 + 2.0**-53  # the double above -1: log1p stays finite at t = 1


def _entr(x: float) -> float:
    return -x * math.log(x) if x > 0.0 else 0.0


def binary_entropy(p: float) -> float:
    """H(p) = -p log p - (1-p) log(1-p), natural log, H(0) = H(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    return float(_entr(p) + _entr(1.0 - p))


def _entr_vec(x: np.ndarray) -> np.ndarray:
    """-x log x for x >= 0; the floor at the least subnormal makes it +0.0 at
    x = 0 without forming 0 * log 0."""
    return -x * np.log(np.maximum(x, 5e-324))


def _rate_spherical_vec(ts) -> np.ndarray:
    return -0.5 * np.log1p(-np.square(np.asarray(ts, dtype=float)))


def _rate_rademacher_vec(t: np.ndarray) -> np.ndarray:
    # log 2 - H((1+t)/2) = ((1+t) log(1+t) + (1-t) log(1-t)) / 2: exactly 0 at
    # t = 0, and exactly log 2 at t = 1, where the second term is 0 * finite
    t = np.minimum(np.maximum(t, 0.0), 1.0)
    return (0.5 * ((1.0 + t) * np.log1p(t))
            + 0.5 * ((1.0 - t) * np.log1p(np.maximum(-t, _LOG1P_FLOOR))))


def _entropy_term_vec(zeta: np.ndarray, rho: float) -> np.ndarray:
    """Exponential cost G of a support-overlap fraction zeta; zero at zeta = rho^2."""
    ent = (
        _entr_vec(zeta)
        + 2.0 * _entr_vec(rho - zeta)
        + _entr_vec(1.0 - 2.0 * rho + zeta)
    )
    return -ent + 2.0 * binary_entropy(rho)


def _rate_sparse_batch(ts: np.ndarray, rho: float) -> np.ndarray:
    """Vectorized inner minimization over zeta, one problem per t.

    The objective is convex in zeta (G is a KL divergence of a table affine
    in zeta; zeta f_rade(rho t / zeta) is the perspective of f_rade), so its
    values on _ZETA_GRID fractions of each t's feasible interval fall, then
    rise.  A bisection over the grid index finds, for every t at once, the
    first k with v[k+1] >= v[k]: the grid's first minimum, in
    ceil(log2 _ZETA_GRID) passes of two evaluations each.  Golden section
    then polishes within one grid step either side of that fraction.
    """
    ts = np.asarray(ts, dtype=float)
    lo = np.maximum(rho * ts, 2.0 * rho - 1.0)
    lo = np.maximum(lo, 0.0)
    span = rho - lo

    def objective(zeta: np.ndarray, ts: np.ndarray, lo: np.ndarray) -> np.ndarray:
        zeta = np.minimum(np.maximum(zeta, lo), rho)
        safe = np.maximum(zeta, 1e-300)
        arg = np.minimum(rho * ts / safe, 1.0)
        return _entropy_term_vec(zeta, rho) + zeta * _rate_rademacher_vec(arg)

    fractions = np.linspace(0.0, 1.0, _ZETA_GRID)

    def grid_value(k: np.ndarray) -> np.ndarray:
        return objective(lo + span * fractions[k], ts, lo)

    # invariant: the first k where the values stop falling (not v[k+1] < v[k])
    # lies in [left, right]; the last index counts as stopped, and so does
    # every k of a NaN row, which therefore ends at 0 as np.argmin would
    left = np.zeros(ts.shape, dtype=np.intp)
    right = np.full(ts.shape, _ZETA_GRID - 1, dtype=np.intp)
    for _ in range((_ZETA_GRID - 1).bit_length()):
        mid = (left + right) // 2
        falling = grid_value(np.minimum(mid + 1, _ZETA_GRID - 1)) < grid_value(mid)
        left = np.where(falling, mid + 1, left)
        right = np.where(falling, right, mid)
    best = grid_value(left)
    sbest = fractions[left]
    a = lo + span * np.maximum(sbest - 1.0 / _ZETA_GRID, 0.0)
    b = lo + span * np.minimum(sbest + 1.0 / _ZETA_GRID, 1.0)
    _, refined = golden_min_vec(lambda zeta: objective(zeta, ts, lo), a, b, _ZETA_GOLDEN_ITERS)
    out = np.minimum(best, refined)
    # interval collapses at t = 1: the value is the collision entropy exactly;
    # at t = 0, zeta = rho^2 costs nothing and the overlap term vanishes
    out = np.where(ts >= 1.0, collision_entropy(SpikePrior.sparse(rho)), out)
    out = np.where(ts <= 0.0, 0.0, out)
    return np.maximum(out, 0.0)


def collision_entropy(prior: SpikePrior) -> float:
    """F = lim_{t->1} f(t): +inf (spherical), log 2, or H(rho) + rho log 2.

    Both discrete priors are uniform on their support, so F is also the
    log-cardinality density lim (1/n) log |support|.  H(rho) is written with
    log1p, which keeps F accurate to the last bits as rho -> 0.
    """
    if prior.kind == "spherical":
        return math.inf
    if prior.kind == "rademacher":
        return math.log(2.0)
    rho = float(prior.rho)
    h = -rho * math.log(rho) - (1 - rho) * math.log1p(-rho) if rho < 1.0 else 0.0
    return h + rho * math.log(2.0)


@dataclass(frozen=True)
class RateFunction:
    """A prior's rate function: ``eval`` checks one overlap t and reads its
    value off ``eval_batch``, the array function over t in the domain."""

    prior: SpikePrior
    eval: Callable[[float], float]
    eval_batch: Callable[[np.ndarray], np.ndarray]


def rate_function_for(prior: SpikePrior) -> RateFunction:
    """The one rate entry for every prior: see RateFunction."""
    if prior.kind == "spherical":
        fb = _rate_spherical_vec
    elif prior.kind == "rademacher":
        fb = _rate_rademacher_vec
    else:
        rho = prior.rho
        fb = lambda ts: _rate_sparse_batch(np.asarray(ts, dtype=float), rho)

    def fn(t: float) -> float:
        check_overlap_point(prior, t, "t")
        return float(fb(np.asarray([t], dtype=float))[0])

    return RateFunction(prior=prior, eval=fn, eval_batch=fb)


def tail_rate(p: float, n: int) -> float:
    """-log(p) / n, the exponent of a tail probability p at size n; inf at p = 0
    and +0.0 at p = 1, where -log(p) / n would be -0.0 and print as -0."""
    return 0.0 - math.log(p) / n if p > 0 else math.inf


def check_overlap_point(prior: SpikePrior, t: float, name: str) -> None:
    """Raise ValueError, naming ``name``, for an overlap t outside the prior's
    domain: [0, 1) for the spherical prior, whose rate is infinite at t = 1,
    and [0, 1] for the discrete priors."""
    if not (0.0 <= t < 1.0 if prior.kind == "spherical" else 0.0 <= t <= 1.0):
        raise ValueError(f"{name} must lie in [0, 1] ([0, 1) for the spherical prior), got {t}")


# ---------------------------------------------------------------------------
# exact finite-n overlap tails
# ---------------------------------------------------------------------------

def lattice_cut(t: float, k: int) -> int:
    """The least s counted in Pr[<x,x'> >= t] for a discrete prior with k nonzeros,
    whose overlaps are the lattice points s/k: ceil(t k), guarded by 2e-9 so that
    a t on the lattice whose float product t k falls just above s still counts s.
    The exact and the empirical tails both cut here."""
    return math.ceil(t * k - 2e-9)


@lru_cache(maxsize=256)
def _lattice_tails(n: int, k: int) -> tuple[float, ...]:
    """Pr[k<x,x'> >= s] at index s + k, s = -k..k+1, for k nonzeros of +-1/sqrt(k).

    s = 2j - z for z shared support points (hypergeometric) and j equal signs
    among them (Binom(z, 1/2)): integer counts over C(n, k) 2^k, exact."""
    counts = [0] * (2 * k + 1)
    for z in range(max(0, 2 * k - n), k + 1):
        weight = math.comb(k, z) * math.comb(n - k, k - z) << (k - z)
        for j in range(z + 1):
            counts[2 * j - z + k] += weight * math.comb(z, j)
    total = math.comb(n, k) << k  # one correctly rounded int / int per tail
    tails = [count / total for count in accumulate(reversed(counts))]
    return tuple(reversed(tails)) + (0.0,)


def exact_overlap_tail(prior: SpikePrior, n: int, t: float) -> float:
    """Pr[<x,x'> >= t] for two independent spikes, by exact combinatorics
    (discrete priors, n <= 200) or the Beta((n-1)/2, (n-1)/2) law of
    (1 + <x,x'>)/2 (spherical)."""
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
    k = prior.nonzeros(n)
    return _lattice_tails(n, k)[min(lattice_cut(t, k), k + 1) + k]


def _spherical_tail(n: int, t: float) -> float:
    """I_{(1-t)/2}((n-1)/2, (n-1)/2): for x, x' uniform on S^(n-1),
    (1 + <x,x'>)/2 is Beta((n-1)/2, (n-1)/2).  On S^0 = {+-1} the overlap is
    +-1 with probability 1/2 each."""
    if n == 1:
        return 0.5
    from scipy.special import betainc  # imported at its one use, so that start-up skips scipy

    a = (n - 1) / 2.0
    return float(betainc(a, a, max((1.0 - t) / 2.0, 0.0)))
