"""Detection-threshold bounds for the spiked tensor model.

Lower bounds come from the noise-conditioned second-moment criterion: the
largest snr with ``snr^2/2 * t^d/(1+t^d) <= f(t)`` on (0,1), i.e.

    snr* = sqrt(2 * inf_t (1+t^d)/t^d * f(t)),

with the additional cap ``snr* <= 1`` at d=2 (local subgaussianity; see
lower_bound_lambda).  Setting the derivative to zero gives one tangency
equation for every prior, t (1+t^d) f'(t) = d f(t).  The spherical and
Rademacher bounds bisect it in a variable that keeps 1 - t exact.  The
sparse slope is not in closed form, so its bound scans a grid in t and
polishes the best point with the grid's own array objective, reading the
rate only through RateFunction.eval_batch.

Upper bounds: for discrete priors, exhaustive-search MLE gives 2*sqrt(c)
with c the log-cardinality density.  Both priors are uniform on their
support, so c equals the collision entropy F = lim_{t->1} f(t); for the
spherical prior, the spiked injective norm exceeds the unspiked limit mu_d
once snr crosses the unique root of L_d(snr) = mu_d.  L_d and that root are
each one bisection on the branch of L_d's maximizers, where snr is explicit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import replica
from .rates import RateFunction, collision_entropy, rate_function_for
from .solvers import INV_PHI, bisect_root, geometric_grid, golden_min_vec
from .tensors import SpikePrior, check_snr

GRID_POINTS = 10_000


class LowerBoundResult(NamedTuple):
    value: float
    t_star: float
    capped_by_sigma: bool
    residual: float  # |equation| at the tangency root; NaN where no root is solved


class SpikedNormLowerBound(NamedTuple):
    value: float
    m_star: float
    beta_star: float


def lower_bound_lambda(rate: RateFunction, d: int) -> LowerBoundResult:
    """sqrt(2 inf_t (1+t^-d) f(t)), the second-moment lower bound.

    Spherical and Rademacher: the root of t (1+t^d) f'(t) = d f(t), unique
    where it exists, bisected in a variable that keeps 1 - t exact; with no
    sign change on the bracket the infimum is the t -> 1 limit 2F.  Sparse
    (f' not in closed form): a boundary-refined grid, its best bracket
    polished by an array golden section with the grid's objective; raises
    ValueError if t^d underflows on the whole grid (d >~ 10^17).

    At d = 2 the value is capped at 1/sigma = 1, the spectral threshold:
    f is the Legendre transform of Lambda(s) = lim (1/n) log E exp(s n <x,x'>),
    so sigma^2 = 1/f''(0) = Lambda''(0) = lim n E<x,x'>^2, which is 1 for every
    prior.  The coordinates are uncorrelated (sign or rotation symmetry) and
    exchangeable with sum of squares 1, so E<x,x'>^2 = sum_i (E x_i^2)^2 = 1/n.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if rate.prior.kind in ("spherical", "rademacher"):
        if d == 2:
            # Both sides of the equation are t^2 + O(t^4) near t = 0, where
            # rounding would pick the sign.  Their difference is positive on
            # (0, 1) (its series has no negative term for either prior), so the
            # infimum is the t -> 0 limit f''(0)/2 = 1/2: the value is 1 exactly.
            return LowerBoundResult(1.0, 0.0, False, math.nan)
        spherical = rate.prior.kind == "spherical"
        h, lo, hi, at_root = (_spherical_tangency if spherical else _rademacher_tangency)(d)
        limit = 2.0 * math.sqrt(collision_entropy(rate.prior))
        if h(hi) < 0.0:
            return LowerBoundResult(limit, 1.0, False, math.nan)
        res = bisect_root(h, lo, hi, xtol=0.0)
        t_star, value = at_root(res.root)
        return LowerBoundResult(min(value, limit), t_star, False, res.residual)

    def objective(ts: np.ndarray) -> np.ndarray:
        fvals = np.maximum(rate.eval_batch(ts), 0.0)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            td = ts**d
            return np.where(td > 0.0, (1.0 + td) / td * fvals, np.inf)

    # below t = 1e-6 the sparse rate is a difference of O(1) entropies and
    # cancellation noise; the d=2 cap covers t -> 0 exactly
    ts = geometric_grid(GRID_POINTS, tmin=1e-6)
    ratio = objective(ts)
    i = int(np.argmin(ratio))
    if not math.isfinite(ratio[i]):
        raise ValueError(f"d={d}: t^d underflows on the whole grid")
    a = float(ts[max(0, i - 1)])
    b = float(ts[min(len(ts) - 1, i + 1)])
    # near t = 1 the objective is set by 1 - t, so resolve t to 1e-3 of
    # 1 - t there, and no finer than a few ulps so the section cannot stall
    tol = max(min(1e-10, 1e-3 * (1.0 - b)), 4.0 * math.ulp(b))
    iterations = max(0, math.ceil(math.log(tol / (b - a)) / math.log(INV_PHI)))
    (t_polished,), (refined,) = golden_min_vec(objective, [a], [b], iterations)
    # the objective tends to 2F as t -> 1 (F the collision entropy), so the
    # infimum is at most 2F; near t = 1 the grid's (1+t^d)/t^d ~ 2 + d(1-t)
    # overshoots that limit once d(1-t) is no longer negligible
    best = min(float(refined), float(ratio[i]), 2.0 * collision_entropy(rate.prior))
    t_star = float(t_polished) if refined <= ratio[i] else float(ts[i])
    value = math.sqrt(2.0 * best)
    capped = d == 2 and value > 1.0
    return LowerBoundResult(1.0 if capped else value, t_star, capped, math.nan)


def _spherical_tangency(d: int):
    """Tangency equation, bracket and root -> (t, value) in s = -log(1-t^2).

    f' = t/(1-t^2): (2/d)(1+t^d) expm1(s) = s, t^p = exp((p/2) log1p(-e^-s))
    stay accurate where 1 - t^2 (~ 4/(d log d)) is below double resolution;
    value^2 = 2 (1+t^d)^2 / (d (1-t^2) t^(d-2)) at the root, within 1e-13
    of an 80-digit evaluation for d = 3 .. 10^300.
    """

    def log_t_sq(s: float) -> float:
        return math.log1p(-math.exp(-s))

    def h(s: float) -> float:
        td = math.exp(0.5 * d * log_t_sq(s))
        return (2.0 / d) * (1.0 + td) * math.expm1(s) - s

    def at_root(s: float) -> tuple[float, float]:
        lt2 = log_t_sq(s)
        td = math.exp(0.5 * d * lt2)
        log_lam_sq = math.log(2.0) + 2.0 * math.log1p(td) + s - log_d - 0.5 * (d - 2) * lt2
        return math.sqrt(-math.expm1(-s)), math.exp(0.5 * log_lam_sq)

    # h < 0 as s -> 0 (d >= 3); (2/d) expm1(s) > s at s = log d + log log d + 2
    log_d = math.log(d)
    return h, 1e-12, log_d + math.log(log_d) + 2.0, at_root


def _rademacher_tangency(d: int):
    """The same in y = atanh t: with e = exp(-2y), f' = y, 1 - t = 2e/(1+e),
    log t = log1p(-e) - log1p(e) and f = log 2 - log1p(e) - 2ey/(1+e).

    Near y = 0 the sides t y (1+t^d) and d f are y^2 and d y^2/2; at y = 1e-3
    f's cancellation is far below that gap.  Past y = 25 the objective is
    within 1e-20 of 2F, so a root beyond it (d >= 73) leaves the limit.
    """

    def parts(y: float) -> tuple[float, float]:
        e = math.exp(-2.0 * y)
        return math.log1p(-e) - math.log1p(e), math.log(2.0) - math.log1p(e) - 2.0 * e * y / (1.0 + e)

    def h(y: float) -> float:
        log_t, f = parts(y)
        return math.exp(log_t) * y * (1.0 + math.exp(d * log_t)) - d * f

    def at_root(y: float) -> tuple[float, float]:
        log_t, f = parts(y)
        return math.tanh(y), math.sqrt(2.0 * (1.0 + math.exp(-d * log_t)) * f)

    return h, 1e-3, 25.0, at_root


def _mu_characteristic(d: int, x: float) -> float:
    """Characteristic equation of mu_d at x = mu sqrt(d/2); zero at mu = mu_d.

    z(x) = (x - sqrt(x^2 - 4(d-1))) / ((d-1) sqrt(2d)) on x >= 2 sqrt(d-1).
    """
    z = (x - math.sqrt(max(x * x - 4.0 * (d - 1), 0.0))) / ((d - 1) * math.sqrt(2.0 * d))
    z2 = z * z
    return (2.0 - d) / d - math.log(d * z2 / 2.0) + 0.5 * (d - 1) * z2 - 2.0 / (d * d * z2)


def injective_norm_mu(d: int) -> float:
    """Limiting injective norm mu_d of an unspiked tensor (d >= 3).

    Root of _mu_characteristic in x >= 2 sqrt(d-1); mu_d = x sqrt(2/d).  The
    upper end sqrt(d (2 log d + 2 log log d + 4)) lies above the root: mu_d^2
    exceeds 2 log d + 2 log log d + 2 by less than 2 (1.11 at d = 3, then
    decreasing; checked for d = 3..5000 and 600 log-spaced orders to 10^150).
    """
    if d < 3:
        raise ValueError(f"mu_d is computed for d >= 3, got {d}")
    lo = 2.0 * math.sqrt(d - 1.0) + 1e-12
    hi = math.sqrt(d * (2.0 * math.log(d) + 2.0 * math.log(math.log(d)) + 4.0))
    res = bisect_root(lambda x: _mu_characteristic(d, x), lo, hi, xtol=0.0)
    return res.root * math.sqrt(2.0 / d)


def _spiked_norm_branch(d: int):
    """s = -log m -> (M, h, h') on the branch of L_d's maximizers.

    L_d(snr) = max_s e^(-ds) (snr + h(s)), M = (d-1) expm1(2s) = (d-1)(1-m^2)/m^2,
    h = c sqrt(M(1+M)), c = sqrt(2d/(d-1)).  Stationarity gives
    snr(s) = h'/d - h, where L = e^(-ds) h'/d.  snr(s) and log L(s) fall
    strictly from s = 1e-300 to M = d (20,000 log-spaced s, d = 3 .. 10^9),
    so every root on the branch is unique.
    """
    c = math.sqrt(2.0 * d / (d - 1.0))

    def branch(s: float) -> tuple[float, float, float]:
        big_m = (d - 1.0) * math.expm1(2.0 * s)
        root = math.sqrt(big_m * (1.0 + big_m))
        return big_m, c * root, c * (1.0 + 2.0 * big_m) * (big_m + d - 1.0) / root

    return branch


def spiked_norm_lower_Ld(d: int, snr: float) -> SpikedNormLowerBound:
    """Lower bound L_d(snr) on the spiked injective norm, with its maximizer.

    One bisection of snr(s) = snr on _spiked_norm_branch over s = -log m in
    [1e-300, log1p(d/(d-1))/2]; at the right end M = d and snr(s) < 0 for
    d >= 3 (d^3 - 3d^2 + 1 > 0).  The objective falls steeply to snr at
    m = 1, so the maximum is interior and L_d(snr) > snr.  Also reports m*
    and the deformation weight sqrt(1 + m^2/((1-m^2)(d-1))) = sqrt(1 + 1/M).
    """
    if d < 3:
        raise ValueError(f"d must be >= 3, got {d}")
    check_snr(snr)
    branch = _spiked_norm_branch(d)

    def excess(s: float) -> float:
        _, h, dh = branch(s)
        return dh / d - h - snr

    s = bisect_root(excess, 1e-300, 0.5 * math.log1p(d / (d - 1.0)), xtol=0.0).root
    big_m, h, _ = branch(s)
    return SpikedNormLowerBound(math.exp(-d * s) * (snr + h), math.exp(-s),
                                math.sqrt(1.0 + 1.0 / big_m))


def upper_bound_spherical(d: int) -> float:
    """Spherical detection upper bound: the unique snr with L_d(snr) = mu_d.

    L_d increases in snr, so the bound is snr(s) = h'/d - h at the point of
    _spiked_norm_branch where L = e^(-ds) h'/d = mu_d: one bisection of
    log h' - d s - log(d mu_d) on [1e-300, 1/d].  The root lies at
    d s = 0.02 .. 0.36 for d = 3 .. 10^9; the bound is within 1.2e-15 of
    60-digit values for d = 3 .. 10^6.
    """
    if d < 3:
        raise ValueError(f"d must be >= 3, got {d}")
    branch = _spiked_norm_branch(d)
    log_target = math.log(d * injective_norm_mu(d))
    res = bisect_root(lambda s: math.log(branch(s)[2]) - d * s - log_target, 1e-300, 1.0 / d,
                      xtol=0.0)
    _, h, dh = branch(res.root)
    return dh / d - h


def upper_bound_cardinality(prior: SpikePrior) -> float:
    """MLE union-bound threshold 2 sqrt(c), c = F the log-support density."""
    if not prior.is_discrete:
        raise ValueError("cardinality bound requires a discrete prior")
    return 2.0 * math.sqrt(collision_entropy(prior))


ASYMPTOTIC_KINDS = ("mu_sq", "lower_sph_sq", "upper_sph_sq", "sparse_rho_lower")


def asymptotics(kind: str, value: float) -> float:
    """Leading large-d / small-rho expressions with the o(1) / O(rho) term dropped."""
    if kind == "mu_sq":
        d = value
        return 2.0 * math.log(d) + 2.0 * math.log(math.log(d)) + 2.0
    if kind == "lower_sph_sq":
        d = value
        return 2.0 * math.log(d) + 2.0 * math.log(math.log(d)) + 2.0 - 4.0 * math.log(2.0)
    if kind == "upper_sph_sq":
        d = value
        return 2.0 * math.log(d) + 2.0 * math.log(math.log(d))
    if kind == "sparse_rho_lower":
        rho = value
        if not 0.0 < rho < 1.0:
            raise ValueError(f"rho must lie in (0, 1), got {rho}")
        return 2.0 * math.sqrt(-rho * math.log(rho))
    raise ValueError(f"unknown asymptotics kind {kind!r}; expected one of {ASYMPTOTIC_KINDS}")


@dataclass(frozen=True)
class ThresholdReport:
    """Per (prior, d) summary of all applicable bounds."""

    prior: SpikePrior
    d: int
    lambda_lower: float
    lambda_upper: float
    lower: LowerBoundResult
    mu_d: float | None = None
    replica_prediction: float | None = None
    asymptotic_lower: float | None = None
    asymptotic_upper: float | None = None

    def __post_init__(self):
        if self.lambda_lower > self.lambda_upper + 1e-9:
            raise ValueError(
                f"bound ordering violated: lower {self.lambda_lower} > upper {self.lambda_upper}"
            )
        if (
            self.prior.kind == "spherical"
            and self.mu_d is not None
            and not self.lambda_upper < self.mu_d
        ):
            raise ValueError(f"expected upper bound {self.lambda_upper} < mu_d {self.mu_d}")


def threshold_report(
    prior: SpikePrior, d: int, include_replica: bool = False
) -> ThresholdReport:
    """Aggregate lower/upper bounds, mu_d, replica prediction and asymptotics.

    Every lower bound, with its t* and residual, comes from lower_bound_lambda.
    d=2 with the spherical or Rademacher prior is the exactly known case:
    both strong detection and weak recovery transition at snr = 1, where the
    lower bound is exactly 1, so the report pins the upper bound there too.
    """
    lower = lower_bound_lambda(rate_function_for(prior), d)
    mu = replica_prediction = None
    asym_lower = asym_upper = None

    if d == 2 and prior.kind in ("spherical", "rademacher"):
        lam_hi = 1.0
    elif prior.kind != "spherical":
        lam_hi = upper_bound_cardinality(prior)
        if prior.kind == "rademacher":
            asym_lower = asym_upper = lam_hi
        elif prior.kind == "sparse_rademacher" and prior.rho < 1.0:
            asym_lower = asymptotics("sparse_rho_lower", prior.rho)

    if d > 2:
        mu = injective_norm_mu(d)
        if prior.kind == "spherical":
            lam_hi = upper_bound_spherical(d)
            asym_lower = math.sqrt(asymptotics("lower_sph_sq", d))
            asym_upper = math.sqrt(asymptotics("upper_sph_sq", d))
        if include_replica and prior.kind in ("spherical", "rademacher"):
            replica_prediction = replica.replica_thresholds(prior, d)[1]

    return ThresholdReport(
        prior=prior,
        d=d,
        lambda_lower=lower.value,
        lambda_upper=lam_hi,
        lower=lower,
        mu_d=mu,
        replica_prediction=replica_prediction,
        asymptotic_lower=asym_lower,
        asymptotic_upper=asym_upper,
    )
