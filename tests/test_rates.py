import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

from spiked_tensor import (
    SpikePrior,
    binary_entropy,
    collision_entropy,
    exact_overlap_tail,
    rate_function_for,
    upper_bound_cardinality,
)
from spiked_tensor import rates
from spiked_tensor.rates import EXACT_TAIL_MAX_N, tail_rate
from spiked_tensor.solvers import golden_min_vec
from spiked_tensor.tensors import round_half_up

LOG2 = math.log(2.0)


# ---------------------------------------------------------------------------
# entropies
# ---------------------------------------------------------------------------

def test_binary_entropy_values():
    assert abs(binary_entropy(0.5) - LOG2) < 1e-15
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert abs(binary_entropy(2 / 3) - 0.6365141682948128) < 1e-12
    with pytest.raises(ValueError):
        binary_entropy(-0.1)
    with pytest.raises(ValueError):
        binary_entropy(1.1)


# ---------------------------------------------------------------------------
# rate functions
# ---------------------------------------------------------------------------

def test_rate_spherical_values():
    rate_spherical = rate_function_for(SpikePrior.spherical()).eval
    assert rate_spherical(0.0) == 0.0
    assert abs(rate_spherical(0.5) - 0.14384103622589045) < 1e-14
    # divergence proxy near t=1: -log(2e-6 - 1e-12)/2
    assert rate_spherical(1 - 1e-6) == pytest.approx(6.561181938682319, abs=1e-12)
    assert rate_spherical(1 - 1e-6) > 6.5
    with pytest.raises(ValueError):
        rate_spherical(1.0)


def test_rate_rademacher_values():
    rate_rademacher = rate_function_for(SpikePrior.rademacher()).eval
    assert rate_rademacher(0.0) == 0.0
    assert abs(rate_rademacher(1.0) - LOG2) < 1e-15
    assert abs(rate_rademacher(0.5) - 0.13081203594113694) < 1e-14
    for t in np.linspace(0, 1, 101):
        assert abs(rate_rademacher(t) - (LOG2 - binary_entropy((1 + t) / 2))) < 1e-13


def test_entropy_term_zero_at_product_measure():
    for rho in (0.1, 0.3, 0.5, 0.9):
        assert abs(rates._entropy_term_vec(rho**2, rho)) < 1e-12


def test_entropy_term_full_overlap():
    assert abs(rates._entropy_term_vec(0.3, 0.3) - binary_entropy(0.3)) < 1e-12
    assert abs(rates._entropy_term_vec(0.3, 0.3) - 0.6108643020548935) < 1e-12


def test_entropy_term_strictly_positive_off_minimum():
    assert rates._entropy_term_vec(0.09 + 0.01, 0.3) > 1e-5
    assert rates._entropy_term_vec(0.09 - 0.01, 0.3) > 1e-5


def test_sparse_rate_boundaries():
    for rho in (0.1, 1 / 3, 2 / 3, 1.0):
        rate = rate_function_for(SpikePrior.sparse(rho))
        assert rate.eval(0.0) == 0.0
        limit = binary_entropy(rho) + rho * LOG2
        assert abs(rate.eval(1.0) - limit) < 1e-8


def test_sparse_rate_dense_reduction():
    dense = rate_function_for(SpikePrior.sparse(1.0))
    rade = rate_function_for(SpikePrior.rademacher())
    for t in np.linspace(0.0, 0.99, 34):
        assert abs(dense.eval(t) - rade.eval(t)) < 1e-10


def test_rate_functions_monotone_and_zero_at_origin():
    grid = np.linspace(0.0, 1.0 - 1e-6, 10_000)
    priors = [SpikePrior.spherical(), SpikePrior.rademacher()]
    # rho = 0.3 gives 0 at t = 0 by luck of rounding; 0.05, 0.32 and 0.8 do not
    priors += [SpikePrior.sparse(rho) for rho in (0.05, 0.3, 0.32, 0.8)]
    for prior in priors:
        rate = rate_function_for(prior)
        vals = rate.eval_batch(grid)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) >= -1e-12)


def test_batch_matches_scalar():
    grid = np.linspace(0.0, 0.999, 41)
    for prior in (SpikePrior.spherical(), SpikePrior.rademacher(), SpikePrior.sparse(0.25)):
        rate = rate_function_for(prior)
        batch = rate.eval_batch(grid)
        scalars = np.array([rate.eval(float(t)) for t in grid])
        assert np.array_equal(batch, scalars)


def _sparse_rate_per_fraction(ts: np.ndarray, rho: float) -> np.ndarray:
    """The sparse rate with its zeta scan written as one vector step per grid
    fraction and a running minimum: the reference for the bisection on the
    grid's forward difference."""
    lo = np.maximum(np.maximum(rho * ts, 2.0 * rho - 1.0), 0.0)
    hi = np.full_like(ts, rho)

    def objective(zeta):
        zeta = np.minimum(np.maximum(zeta, lo), hi)
        arg = np.minimum(rho * ts / np.maximum(zeta, 1e-300), 1.0)
        return rates._entropy_term_vec(zeta, rho) + zeta * rates._rate_rademacher_vec(arg)

    span = hi - lo
    best = np.full(ts.shape, np.inf)
    sbest = np.zeros_like(ts)
    for s in np.linspace(0.0, 1.0, rates._ZETA_GRID):
        v = objective(lo + span * s)
        better = v < best
        best = np.where(better, v, best)
        sbest = np.where(better, s, sbest)
    a = lo + span * np.maximum(sbest - 1.0 / rates._ZETA_GRID, 0.0)
    b = lo + span * np.minimum(sbest + 1.0 / rates._ZETA_GRID, 1.0)
    _, refined = golden_min_vec(objective, a, b, rates._ZETA_GOLDEN_ITERS)
    out = np.where(ts >= 1.0, collision_entropy(SpikePrior.sparse(rho)), np.minimum(best, refined))
    out = np.where(ts <= 0.0, 0.0, out)
    return np.maximum(out, 0.0)


@pytest.mark.parametrize(
    "rho", [1e-4, 0.01, 0.1445439770745928, 0.3, 0.5, 0.6666666666666666, 0.8912509381337456, 1.0])
def test_sparse_scan_matches_per_fraction_loop(rho):
    # about 2,000 points, uniform and boundary-refined (log-spaced toward 0
    # and geometrically toward 1), and one NaN
    refined = np.unique(np.concatenate([np.linspace(1e-6, 1.0 - 1e-9, 800),
                                        10.0 ** np.linspace(-6.0, -0.3, 200),
                                        1.0 - 10.0 ** np.linspace(-14.0, -0.3, 200)]))
    ts = np.concatenate([np.linspace(0.0, 1.0, 999), refined, [np.nan]])
    got = rates._rate_sparse_batch(ts, rho)
    assert np.array_equal(got, _sparse_rate_per_fraction(ts, rho), equal_nan=True)
    assert np.isnan(got[-1])
    assert rates._rate_sparse_batch(np.empty(0), rho).shape == (0,)


def test_sparse_rate_evaluation_count(monkeypatch):
    # 21 zeta evaluations per t for the bisection (two per pass, ten passes,
    # and the minimum's value) and 54 for the golden polish (two probes and
    # one per iteration); a full scan of the zeta grid would cost 1000 more
    evaluated = []
    entropy_term = rates._entropy_term_vec

    def counting(zeta, rho):
        evaluated.append(np.size(zeta))
        return entropy_term(zeta, rho)

    monkeypatch.setattr(rates, "_entropy_term_vec", counting)
    ts = np.linspace(0.0, 1.0, 777)
    rates._rate_sparse_batch(ts, 0.3)
    assert 0 < sum(evaluated) <= 80 * ts.size


def test_sparse_scan_never_allocates_the_whole_grid():
    ts = np.linspace(0.0, 1.0, 5000)
    rates._rate_sparse_batch(ts[:2], 0.3)
    tracemalloc.start()
    try:
        rates._rate_sparse_batch(ts, 0.3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one temporary of the whole (t, zeta) grid would be 5000 * 1000 * 8 B = 40 MB
    assert peak < 4 * 2**20


def test_collision_entropy_values():
    assert collision_entropy(SpikePrior.rademacher()) == pytest.approx(LOG2, abs=1e-15)
    assert collision_entropy(SpikePrior.sparse(2 / 3)) == pytest.approx(math.log(3.0), abs=1e-12)
    assert math.isinf(collision_entropy(SpikePrior.spherical()))


def test_collision_entropy_consistent_with_rate_limit():
    for prior in (SpikePrior.rademacher(), SpikePrior.sparse(0.4)):
        rate = rate_function_for(prior)
        assert abs(rate.eval(1 - 1e-9) - collision_entropy(prior)) < 1e-6


def test_collision_entropy_accurate_at_tiny_rho():
    # 50-digit mpmath evaluation of -rho log rho - (1-rho) log(1-rho) + rho log 2
    # at rho = 1e-12; cancellation in 1 - rho costs the binary-entropy form ~1e-6
    prior = SpikePrior.sparse(1e-12)
    f = collision_entropy(prior)
    assert f == pytest.approx(2.9324168296487993518e-11, rel=1e-14, abs=0.0)
    for p in (prior, SpikePrior.sparse(0.3), SpikePrior.sparse(1.0), SpikePrior.rademacher()):
        assert upper_bound_cardinality(p) == 2 * math.sqrt(collision_entropy(p))


# ---------------------------------------------------------------------------
# the numpy forms of the entropies
# ---------------------------------------------------------------------------

def test_entropy_forms_meet_their_edges_without_a_floating_point_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rade = rate_function_for(SpikePrior.rademacher())
        zero = rade.eval(0.0)
        assert zero == 0.0 and math.copysign(1.0, zero) == 1.0
        assert rade.eval(1.0) == LOG2
        assert 0.0 < rade.eval(1.0 - 2.0**-53) <= LOG2
        entr = rates._entr_vec(np.array([0.0, 1.0, 0.5]))
        assert entr[0] == 0.0 and math.copysign(1.0, entr[0]) == 1.0
        assert entr[1] == 0.0 and entr[2] == 0.5 * LOG2
        grid = np.linspace(0.0, 1.0, 101)
        for rho in (1e-4, 0.3, 2 / 3, 1.0):
            rate = rate_function_for(SpikePrior.sparse(rho))
            assert np.all(np.isfinite(rate.eval_batch(grid)))
            assert math.isfinite(rate.eval(0.0)) and math.isfinite(rate.eval(1.0))


def test_binary_entropy_equals_the_scipy_entropy_pair_bit_for_bit():
    ps = np.concatenate([np.linspace(0.0, 1.0, 20_001), np.geomspace(1e-300, 0.5, 2_000)])
    ps = np.concatenate([ps, 1.0 - ps[-2_000:]])
    for p in ps.tolist():
        assert binary_entropy(p) == float(special.entr(p) + special.entr(1.0 - p)), p


def test_rademacher_rate_matches_its_series_near_zero():
    # f(t) = sum_k t^(2k) / (2k (2k - 1)) on the t in (0, 0.05] of ratefn's
    # 2,000-point grid.  The two log terms cancel to ~t^2, so the relative
    # error grows as eps / t; at the grid's first point 1/1999 it is 4.3e-13.
    ts = np.linspace(0.0, 1.0, 2000)
    ts = ts[(ts > 0.0) & (ts <= 0.05)]
    values = rate_function_for(SpikePrior.rademacher()).eval_batch(ts)
    for t, value in zip(ts.tolist(), values.tolist()):
        series = math.fsum(t ** (2 * k) / (2 * k * (2 * k - 1)) for k in range(20, 0, -1))
        assert abs(value - series) <= 5e-13 * series, t


# ---------------------------------------------------------------------------
# exact overlap tails
# ---------------------------------------------------------------------------

# Reference: the tail as a sum of Fractions, one hypergeometric overlap count
# z at a time, each times a Binom(z, 1/2) sign tail.

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


def reference_overlap_tail(prior: SpikePrior, n: int, t: float) -> float:
    """Pr[<x,x'> >= t] for a discrete prior, summed over the overlap count."""
    k = prior.nonzeros(n)
    total = Fraction(0)
    for z in range(max(0, 2 * k - n), k + 1):
        # conditioned on z shared support points, <x,x'> = (sum of z signs)/k;
        # the smallest j with 2j - z >= t k, guarded against float lattice ties
        jmin = math.ceil((z + t * k) / 2.0 - 1e-9)
        total += hypergeometric_pmf(n, k, z) * binomial_tail_half(z, jmin)
    return float(total)


def test_exact_tail_equals_the_fraction_reference():
    # lattice points j/k and t within 1e-15..3e-9 of them on both sides, where
    # the tie guard decides; both discrete priors, every n = 1..200
    rng = np.random.default_rng(20)
    cases = 0
    for n in range(1, EXACT_TAIL_MAX_N + 1):
        rho = float(rng.uniform(0.05, 1.0))
        for prior in (SpikePrior.rademacher(), SpikePrior.sparse(rho)):
            if prior.kind == "sparse_rademacher" and round_half_up(rho * n) < 1:
                continue
            k = prior.nonzeros(n)
            for j in rng.integers(0, k + 1, size=3).tolist():
                delta = float(10.0 ** rng.uniform(-15.0, math.log10(3e-9)))
                for t in (j / k, j / k - delta, j / k + delta):
                    if not 0.0 <= t <= 1.0:
                        continue
                    assert exact_overlap_tail(prior, n, t) == reference_overlap_tail(prior, n, t)
                    cases += 1
    assert cases >= 2000


def test_rademacher_tail_small_case_enumeration():
    # n=2: relative sign patterns give overlaps {1, 0, 0, -1}
    count = sum(
        1
        for signs in itertools.product([-1, 1], repeat=2)
        if sum(signs) / 2.0 >= 0.9
    )
    assert Fraction(count, 4) == Fraction(1, 4)
    assert exact_overlap_tail(SpikePrior.rademacher(), 2, 0.9) == pytest.approx(0.25, abs=1e-15)


def test_rademacher_tail_matches_brute_force():
    n = 6
    prior = SpikePrior.rademacher()
    for t in (0.0, 0.2, 0.5, 0.9, 1.0):
        brute = np.mean(
            [sum(s) / n >= t for s in itertools.product([-1, 1], repeat=n)]
        )
        assert exact_overlap_tail(prior, n, t) == pytest.approx(float(brute), abs=1e-14)


def test_sparse_tail_matches_brute_force():
    # n=4, rho=0.5: 24 support/sign vectors; average the tail over all pairs
    n, rho = 4, 0.5
    prior = SpikePrior.sparse(rho)
    vectors = []
    for support in itertools.combinations(range(n), 2):
        for signs in itertools.product([-1.0, 1.0], repeat=2):
            v = np.zeros(n)
            v[list(support)] = np.array(signs) / math.sqrt(2)
            vectors.append(v)
    vectors = np.array(vectors)
    overlaps = vectors @ vectors.T
    for t in (0.0, 0.3, 0.5, 0.9):
        brute = float(np.mean(overlaps >= t - 1e-12))
        assert exact_overlap_tail(prior, n, t) == pytest.approx(brute, abs=1e-12)


def test_hypergeometric_pmf_small_case():
    assert hypergeometric_pmf(4, 2, 0) == Fraction(1, 6)
    assert hypergeometric_pmf(4, 2, 1) == Fraction(4, 6)
    assert hypergeometric_pmf(4, 2, 2) == Fraction(1, 6)


@given(st.integers(min_value=2, max_value=200), st.floats(min_value=0.05, max_value=1.0))
@settings(max_examples=30, deadline=None)
def test_hypergeometric_pmf_sums_to_one(n, rho):
    assume(round_half_up(rho * n) >= 1)
    k = SpikePrior.sparse(rho).nonzeros(n)
    total = sum(hypergeometric_pmf(n, k, z) for z in range(max(0, 2 * k - n), k + 1))
    assert total == Fraction(1)


def test_tail_at_zero_at_least_half():
    for prior, n in [
        (SpikePrior.rademacher(), 3),
        (SpikePrior.rademacher(), 8),
        (SpikePrior.sparse(0.5), 8),
        (SpikePrior.spherical(), 25),
    ]:
        assert exact_overlap_tail(prior, n, 0.0) >= 0.5 - 1e-12


def test_chernoff_domination_sampled_n():
    prior = SpikePrior.rademacher()
    rate = rate_function_for(prior)
    for n in range(1, 65, 7):
        for t in np.linspace(0.0, 0.999, 50):
            tail = exact_overlap_tail(prior, n, float(t))
            assert tail <= math.exp(-n * rate.eval(float(t))) * (1 + 1e-12)


def test_sparse_tail_sandwich():
    # fit the poly(n) prefactor on small n, then verify it at larger n
    rho = 0.3
    prior = SpikePrior.sparse(rho)
    ts = (0.2, 0.4, 0.6)
    rates = {t: rate_function_for(prior).eval(t) for t in ts}

    def prefactor(n, t):
        return exact_overlap_tail(prior, n, t) / (n**1.5 * math.exp(-n * rates[t]))

    fitted = max(prefactor(n, t) for n in (40, 80, 120) for t in ts)
    for n in (160, 200):
        for t in ts:
            assert exact_overlap_tail(prior, n, t) <= fitted * n**1.5 * math.exp(
                -n * rates[t]
            ) * (1 + 1e-9)
    # and the normalized log-tail approaches the rate
    for t in ts:
        emp = tail_rate(exact_overlap_tail(prior, 200, t), 200)
        assert abs(emp - rates[t]) < 0.05
    assert tail_rate(0.0, 200) == math.inf


def test_tail_rate_of_a_sure_tail_is_positive_zero():
    # -log(1) / n is -0.0, which a table would print as -0
    assert math.copysign(1.0, tail_rate(1.0, 3)) == 1.0


def test_overlap_domain_is_half_open_only_on_the_sphere():
    sphere, rade = SpikePrior.spherical(), SpikePrior.rademacher()
    for prior in (sphere, rade, SpikePrior.sparse(0.3)):
        rates.check_overlap_point(prior, 0.0, "t")
    rates.check_overlap_point(rade, 1.0, "t")
    rates.check_overlap_point(SpikePrior.sparse(0.3), 1.0, "t")
    message = r"^t must lie in \[0, 1\] \(\[0, 1\) for the spherical prior\), got "
    for prior, t in ((sphere, 1.0), (rade, 1.5), (rade, -0.1), (sphere, math.nan)):
        with pytest.raises(ValueError, match=message):
            rates.check_overlap_point(prior, t, "t")


def test_spherical_tail_against_betainc():
    # on S^(n-1), (1 + <x,x'>)/2 is Beta((n-1)/2, (n-1)/2)
    prior = SpikePrior.spherical()
    for n in (3, 10, 64, 250):
        for t in (0.0, 0.25, 0.6, 0.95):
            mine = exact_overlap_tail(prior, n, t)
            ref = float(special.betainc((n - 1) / 2, (n - 1) / 2, (1 - t) / 2))
            assert mine == pytest.approx(ref, rel=1e-9, abs=1e-300)


def test_spherical_tail_closed_forms():
    prior = SpikePrior.spherical()
    for t in np.linspace(0.0, 1.0, 11):
        # S^0 = {+-1}: the overlap is +-1 with probability 1/2 each
        assert exact_overlap_tail(prior, 1, float(t)) == 0.5
        # on the circle the angle between x and x' is uniform on [0, pi]
        assert exact_overlap_tail(prior, 2, float(t)) == pytest.approx(
            math.acos(t) / math.pi, rel=1e-12, abs=1e-15
        )
        # on S^2 the overlap is uniform on [-1, 1] (Archimedes)
        assert exact_overlap_tail(prior, 3, float(t)) == pytest.approx(
            (1 - t) / 2, rel=1e-12, abs=1e-15
        )


def test_binomial_tail_helper():
    assert binomial_tail_half(4, 0) == Fraction(1)
    assert binomial_tail_half(4, 5) == Fraction(0)
    assert binomial_tail_half(4, 2) == Fraction(11, 16)


def test_oracle_wrapper():
    prior = SpikePrior.sparse(0.5)
    ts = np.linspace(0, 1, 21)
    vals = [exact_overlap_tail(prior, 12, float(t)) for t in ts]
    assert all(0.0 <= v <= 1.0 for v in vals)
    assert all(a >= b - 1e-15 for a, b in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        exact_overlap_tail(SpikePrior.rademacher(), 500, 0.3)
    with pytest.raises(ValueError):
        exact_overlap_tail(prior, 300, 0.3)
