import math

import numpy as np
import pytest

from spiked_tensor import (
    SpikePrior,
    asymptotics,
    injective_norm_mu,
    lower_bound_lambda,
    rate_function_for,
    spiked_norm_lower_Ld,
    threshold_report,
    upper_bound_cardinality,
    upper_bound_spherical,
)
from spiked_tensor.solvers import itp_root
from spiked_tensor.thresholds import _mu_characteristic

TWO_SQRT_LOG2 = 2.0 * math.sqrt(math.log(2.0))


def test_rademacher_lower_bound_large_d_limit():
    lb = lower_bound_lambda(SpikePrior.rademacher(), 200).value
    assert abs(lb / TWO_SQRT_LOG2 - 1.0) < 0.005


@pytest.mark.parametrize("kind", ["rademacher", "spherical"])
def test_lower_bound_monotone_and_capped(kind):
    prior = SpikePrior(kind)
    orders = range(3, 51) if kind == "rademacher" else [*range(3, 61), 100, 10**3, 10**4, 10**6]
    prev = 0.0
    for d in orders:
        lb = lower_bound_lambda(prior, d).value
        if kind == "rademacher":  # capped by the MLE bound 2 sqrt(log 2)
            assert lb >= prev - 1e-10
            assert lb <= upper_bound_cardinality(prior) + 1e-9
        else:  # below the upper bound, itself below mu_d
            assert lb >= prev
            assert lb < upper_bound_spherical(d) < injective_norm_mu(d)
        prev = lb


def test_solver_cross_validation_spherical():
    # the tangency root against the objective (1+t^-d) f(t) read from the
    # rate: at the root itself, and as the minimum of a scan in t
    rate = rate_function_for(SpikePrior.spherical())
    ts = np.linspace(1e-3, 1.0 - 1e-6, 100_001)
    fs = rate.eval_batch(ts)
    for d in range(3, 31):
        lb = lower_bound_lambda(SpikePrior.spherical(), d)
        direct = math.sqrt(2.0 * (1.0 + lb.t_star**-d) * rate.eval(lb.t_star))
        assert direct == pytest.approx(lb.value, rel=1e-12)
        scan = math.sqrt(2.0 * float(np.min((1.0 + ts**-d) * fs)))
        assert 0.0 <= scan - lb.value < 1e-6


def test_d2_known_threshold_via_generic_machinery():
    # both closed-form priors give exactly 1 at d=2: the objective increases
    # on (0, 1), so the infimum is its t -> 0 limit, the 1/sigma cap
    for prior in (SpikePrior.spherical(), SpikePrior.rademacher()):
        lb = lower_bound_lambda(prior, 2)
        assert lb.value == 1.0


def test_sparse_lower_bound_sandwich():
    prior = SpikePrior.sparse(0.1)
    lb = lower_bound_lambda(prior, 2).value
    lo = asymptotics("sparse_rho_lower", 0.1)
    hi = upper_bound_cardinality(prior)
    assert lo < lb < hi


def test_collision_entropy_cap_discrete():
    # the criterion tends to 2F as t -> 1, so the lower bound is at most 2 sqrt(F)
    for prior in (SpikePrior.rademacher(), SpikePrior.sparse(0.3)):
        for d in (3, 10, 50, 10**6, 10**9, 10**12):
            assert lower_bound_lambda(prior, d).value <= upper_bound_cardinality(prior) + 1e-9


def spherical_lower(d):
    return lower_bound_lambda(SpikePrior.spherical(), d)


def test_tangency_residual_and_large_d_location():
    res = spherical_lower(100)
    assert 0.99 < res.t_star < 1.0
    assert res.residual < 1e-12
    assert spherical_lower(2).value == 1.0


def test_tangency_routes_agree_to_large_d():
    # 50-digit mpmath solves of the tangency equation t (1+t^d) f'(t) = d f(t)
    # with f = -log(1-t^2)/2; the root is solved in s = -log(1-t^2), so it
    # holds where 1 - t is far below double resolution
    for d, value in ((3, "1.5846547078782847321"), (10, "2.476510204153723516"),
                     (1000, "4.1660513622356976537")):
        assert spherical_lower(d).value == pytest.approx(float(value), rel=1e-13, abs=0)
    assert spherical_lower(10**13).residual < 1e-10
    assert spherical_lower(10**100).residual < 1e-10


@pytest.mark.parametrize(
    "d, value",
    [(3, "1.4552393539092344579"), (4, "1.5765079285546734048"), (10, "1.663932592525360426"),
     (30, "1.6651092211967630891")],
)
def test_rademacher_lower_bound_high_precision(d, value):
    # 50-digit mpmath solves of the tangency equation t (1+t^d) atanh(t) = d f(t),
    # f(t) = log 2 - H((1+t)/2), with the value sqrt(2 (1+t^-d) f(t)) at the root
    assert lower_bound_lambda(SpikePrior.rademacher(), d).value == pytest.approx(float(value), rel=1e-14, abs=0)


def test_tangency_asymptotic_gap_trend():
    # the dropped o(1) term decays like 2 log log d / log d (0.45 at d=10^3,
    # below the 0.05 tolerance of criterion 4 only near d=10^85); pin the
    # measured values
    gaps = []
    for d in (1000, 10_000, 100_000):
        lam = spherical_lower(d).value
        gaps.append(lam * lam - asymptotics("lower_sph_sq", d))
    assert gaps[0] == pytest.approx(0.4478, abs=2e-3)
    assert gaps[1] == pytest.approx(0.3932, abs=2e-3)
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_mu3_matches_reference_value():
    assert abs(injective_norm_mu(3) - 2.3433) < 5e-4


@pytest.mark.parametrize(
    "d, value",
    [(3, "2.3433495585305767168"), (10, "3.0198604471971548308"),
     (1000, "4.4968290708702547947"), (10**6, "5.9370860285730485942")],
)
def test_mu_high_precision(d, value):
    # mpmath at mp.dps = 70: 400 bisection steps of _mu_characteristic
    assert injective_norm_mu(d) == pytest.approx(float(value), rel=1e-15, abs=0)


@pytest.mark.parametrize("d", [*range(3, 31), 100, 10**3, 10**4, 10**6])
def test_mu_solves_its_characteristic_equation(d):
    assert abs(_mu_characteristic(d, injective_norm_mu(d) * math.sqrt(d / 2.0))) < 1e-9


def test_mu_monotone_in_d():
    mus = [injective_norm_mu(d) for d in range(3, 51)]
    assert all(b > a for a, b in zip(mus, mus[1:]))


def test_mu_asymptotic_gap_trend():
    gaps = []
    for d in (1000, 10_000, 100_000):
        mu = injective_norm_mu(d)
        gaps.append(mu * mu - asymptotics("mu_sq", d))
    assert gaps[0] == pytest.approx(0.5407, abs=2e-3)
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_spiked_norm_lower_bound_basics():
    for d, snr in [(3, 0.5), (3, 2.0), (5, 1.0)]:
        res = spiked_norm_lower_Ld(d, snr)
        assert res.value > snr  # strict: derivative at m=1 is -inf
        assert 0.0 < res.m_star < 1.0
        assert res.beta_star >= 1.0
    assert spiked_norm_lower_Ld(3, 0.0).value > 0.0
    for d in (3, 30, 1000, 10**6):
        for snr in (1e4, 1e5, 1e6):
            assert spiked_norm_lower_Ld(d, snr).value > snr


def test_spiked_norm_lower_bound_brute_force():
    d = 3
    res = spiked_norm_lower_Ld(d, 0.0)
    ms = np.linspace(1e-12, 1.0, 1_000_001)
    big = (d - 1.0) * (1.0 - ms**2) / ms**2
    vals = ms**d * math.sqrt(2 * d / (d - 1)) * np.sqrt(big * (1.0 + big))
    assert abs(res.value - float(np.nanmax(vals))) < 1e-8


@pytest.mark.parametrize("d", [3, 10, 1000])
def test_spiked_norm_branch_beats_log_scan(d):
    # the maximizer nears m = 1 as d grows; at d = 10^6 the scan's float m^d
    # multiplies m's rounding by d and reads above the true maximum, so that
    # order is pinned by test_spiked_norm_lower_bound_high_precision instead
    mu = injective_norm_mu(d)
    m = 1.0 - np.logspace(-16, -1e-6, 10**5)
    big = (d - 1.0) * (1.0 - m * m) / (m * m)
    for snr in (0.0, 0.5 * mu, mu):
        scan = m**d * (snr + math.sqrt(2.0 * d / (d - 1.0)) * np.sqrt(big * (1.0 + big)))
        assert spiked_norm_lower_Ld(d, snr).value >= float(scan.max())


# L_d(0), L_d(mu_d/2), L_d(mu_d) and L_d(10^6) at the exact mu_d
LD_REFERENCES = {
    3: ("1.5196713713031850947", "1.9715282912492388963", "2.7772942327501967435",
        "1000000.0000010000000000002"),
    10: ("1.3451050024354957548", "2.1566694002207416851", "3.3608427102182640799",
         "1000000.0000010000000000004"),
    1000: ("1.2965670620928138843", "2.7078554939250028014", "4.7239288730600794992",
           "1000000.0000010000000000005"),
    10**6: ("1.2961193425431827802", "3.3174525937171150968", "6.1077299498859138056",
            "1000000.0000010000000000005"),
}


@pytest.mark.parametrize("d", LD_REFERENCES)
def test_spiked_norm_lower_bound_high_precision(d):
    """L_d against 20 digits of mpmath values computed at mp.dps = 70 by
    maximizing m^d (snr + sqrt(2d/(d-1)) sqrt(M(1+M))) directly in m: a scan
    of 1 - m = 10^(-k/100), k = 1..3999, then 300 golden-section steps in
    log10(1 - m) around the best k; mu_d by 400 bisection steps of
    _mu_characteristic in the same arithmetic."""
    mu = injective_norm_mu(d)
    for snr, value in zip((0.0, 0.5 * mu, mu, 1e6), LD_REFERENCES[d]):
        assert spiked_norm_lower_Ld(d, snr).value == pytest.approx(float(value), rel=1e-14, abs=0)


def test_spiked_norm_increasing_in_snr():
    vals = [spiked_norm_lower_Ld(4, s).value for s in (0.0, 0.5, 1.0, 2.0, 4.0)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_upper_bound_spherical_ordering():
    for d in [*range(3, 31), 10**3, 10**6]:
        mu = injective_norm_mu(d)
        upper = upper_bound_spherical(d)
        lower = lower_bound_lambda(SpikePrior.spherical(), d).value
        assert lower < upper < mu
        # root consistency: L_d at the bound equals mu
        assert spiked_norm_lower_Ld(d, upper).value == pytest.approx(mu, rel=1e-14, abs=0)


@pytest.mark.parametrize(
    "d, value",
    [(3, "1.7743343219664221919"), (4, "2.0361578774358712804"), (10, "2.6269102650196731935"),
     (30, "3.1326550685513992264"), (1000, "4.2564477193544509711"),
     (10**6, "5.7611015721373319284")],
)
def test_upper_bound_spherical_high_precision(d, value):
    # 60-digit values of min_m [mu_d m^-d - h(m)] at the exact mu_d
    assert upper_bound_spherical(d) == pytest.approx(float(value), rel=3e-15, abs=0)


def test_upper_bound_spherical_asymptotic_gap():
    lam = upper_bound_spherical(1000)
    gap = lam * lam - asymptotics("upper_sph_sq", 1000)
    # stated "within 0.2" is not met by the true solution; pin the measured gap
    assert gap == pytest.approx(0.4365, abs=2e-3)


def test_cardinality_and_entropy_bounds():
    assert upper_bound_cardinality(SpikePrior.rademacher()) == pytest.approx(
        TWO_SQRT_LOG2, abs=1e-12
    )
    assert upper_bound_cardinality(SpikePrior.sparse(2 / 3)) == pytest.approx(
        2.0 * math.sqrt(math.log(3.0)), abs=1e-12
    )
    assert upper_bound_cardinality(SpikePrior.sparse(1.0)) == pytest.approx(
        TWO_SQRT_LOG2, abs=1e-12
    )
    with pytest.raises(ValueError):
        upper_bound_cardinality(SpikePrior.spherical())


def test_asymptotics_kinds():
    d = 3
    assert asymptotics("mu_sq", d) == pytest.approx(
        2 * math.log(d) + 2 * math.log(math.log(d)) + 2
    )
    assert asymptotics("lower_sph_sq", d) == pytest.approx(
        2 * math.log(d) + 2 * math.log(math.log(d)) + 2 - 4 * math.log(2)
    )
    assert asymptotics("upper_sph_sq", d) == pytest.approx(
        2 * math.log(d) + 2 * math.log(math.log(d))
    )
    assert asymptotics("sparse_rho_lower", 0.01) == pytest.approx(
        2 * math.sqrt(-0.01 * math.log(0.01))
    )
    # at small d the expansion is a coarse approximation; just document the gap
    mu3 = injective_norm_mu(3)
    assert mu3**2 != pytest.approx(asymptotics("mu_sq", 3), abs=0.5)
    with pytest.raises(ValueError):
        asymptotics("nope", 3)
    with pytest.raises(ValueError):
        asymptotics("sparse_rho_lower", 1.5)


def test_threshold_report_spherical():
    rep = threshold_report(SpikePrior.spherical(), 5)
    assert rep.lambda_lower < rep.lambda_upper < rep.mu_d
    assert rep.lambda_lower == spherical_lower(5).value
    assert rep.lower.t_star == spherical_lower(5).t_star
    assert rep.lower.residual < 1e-10
    assert rep.asymptotic_lower is not None and rep.asymptotic_upper is not None


def _refuse(*args, **kwargs):
    raise AssertionError("this report must not reach a refused solver")


def test_threshold_report_one_route_per_bound(monkeypatch):
    from spiked_tensor import thresholds

    # the spherical and Rademacher lower bounds are tangency roots and never
    # reach the t grid's polish; the sparse bound does
    monkeypatch.setattr(thresholds, "golden_min_vec", _refuse)
    for prior in (SpikePrior.spherical(), SpikePrior.rademacher()):
        for d in range(3, 201):
            rep = threshold_report(prior, d)
            assert rep.lambda_lower == lower_bound_lambda(prior, d).value
    with pytest.raises(AssertionError, match="refused solver"):
        threshold_report(SpikePrior.sparse(0.3), 3)
    # the exact d = 2 rows run no solver at all
    for name in ("itp_root", "golden_min_vec", "injective_norm_mu"):
        monkeypatch.setattr(thresholds, name, _refuse)
    for prior in (SpikePrior.spherical(), SpikePrior.rademacher()):
        rep = threshold_report(prior, 2, include_replica=True)
        assert (rep.lambda_lower, rep.lambda_upper) == (1.0, 1.0)


def test_threshold_report_d2_exact_cases():
    for prior in (SpikePrior.rademacher(), SpikePrior.spherical()):
        rep = threshold_report(prior, 2)
        assert rep.lambda_lower == 1.0 and rep.lambda_upper == 1.0
        assert rep.mu_d is None
        assert rep.lower == lower_bound_lambda(prior, 2)
        assert rep.lower.value == 1.0


def test_threshold_report_sparse():
    rep = threshold_report(SpikePrior.sparse(0.1), 3)
    assert rep.lambda_upper == pytest.approx(
        upper_bound_cardinality(SpikePrior.sparse(0.1))
    )
    assert rep.mu_d is not None
    assert rep.lambda_lower <= rep.lambda_upper
    rep2 = threshold_report(SpikePrior.sparse(0.1), 2)
    assert rep2.mu_d is None
    assert rep2.asymptotic_lower == pytest.approx(asymptotics("sparse_rho_lower", 0.1))


def test_bracketing_across_priors():
    for prior in (SpikePrior.spherical(), SpikePrior.rademacher(), SpikePrior.sparse(0.3)):
        for d in (3, 10, 30):
            rep = threshold_report(prior, d)
            assert rep.lambda_lower <= rep.lambda_upper


def test_grid_vs_refined_brute_force_spot_checks():
    # every refined 1-D optimum (in t, m, zeta) agrees with a 10^6-point scan
    brute_ts = np.linspace(1e-9, 1.0 - 1e-9, 1_000_001)

    def brute_lower(prior, d):
        rate = rate_function_for(prior)
        f = np.maximum(rate.eval_batch(brute_ts), 0.0)
        with np.errstate(divide="ignore", over="ignore"):
            td = brute_ts**d
            ratio = np.where(td > 0, (1.0 + td) / td * f, np.inf)
        return math.sqrt(2.0 * float(np.min(ratio)))

    # t-optimum, four (prior, d) tuples
    for prior, d in [
        (SpikePrior.spherical(), 3),
        (SpikePrior.spherical(), 8),
        (SpikePrior.rademacher(), 3),
        (SpikePrior.rademacher(), 5),
    ]:
        solved = lower_bound_lambda(prior, d).value
        assert abs(solved - brute_lower(prior, d)) < 1e-6

    # m-optimum, three (d, snr) tuples
    for d, snr in [(3, 0.0), (3, 1.5), (6, 2.5)]:
        res = spiked_norm_lower_Ld(d, snr)
        ms = np.linspace(1e-12, 1.0, 1_000_001)
        with np.errstate(divide="ignore", invalid="ignore"):
            big = (d - 1.0) * (1.0 - ms**2) / ms**2
            vals = ms**d * (snr + math.sqrt(2 * d / (d - 1)) * np.sqrt(big * (1.0 + big)))
        vals[-1] = snr
        assert abs(res.value - float(np.nanmax(vals))) < 1e-6

    # zeta-optimum of the sparse rate, three (t, rho) tuples

    def ent(a):
        return np.where(a > 1e-300, -a * np.log(np.maximum(a, 1e-300)), 0.0)

    for t, rho in [(0.3, 0.4), (0.6, 0.25), (0.85, 0.7)]:
        lo = max(rho * t, 2 * rho - 1.0, 0.0)
        zs = np.linspace(lo, rho, 1_000_001)
        h_rho = float(ent(np.array(rho)) + ent(np.array(1 - rho)))
        big_g = -(ent(zs) + 2 * ent(rho - zs) + ent(1 - 2 * rho + zs)) + 2 * h_rho
        arg = np.minimum(rho * t / np.maximum(zs, 1e-300), 1.0)
        f_r = math.log(2.0) - (ent((1 + arg) / 2) + ent((1 - arg) / 2))
        brute = max(float(np.min(big_g + zs * f_r)), 0.0)
        assert abs(rate_function_for(SpikePrior.sparse(rho)).eval(t) - brute) < 1e-6


def _record_roots(monkeypatch):
    """Wrap thresholds.itp_root; each call appends (f, returned root)."""
    from spiked_tensor import thresholds

    calls = []

    def recorded(f, lo, hi, **kwargs):
        # every threshold root runs to adjacent floats, at the default xtol
        assert not kwargs
        res = itp_root(f, lo, hi)
        calls.append((f, res.root))
        return res

    monkeypatch.setattr(thresholds, "itp_root", recorded)
    return calls


def _is_float_root(f, x: float) -> bool:
    """f is 0 at x, or changes sign between x and one of its float neighbours."""
    fx = f(x)
    if fx == 0.0:
        return True
    neighbours = (f(math.nextafter(x, -math.inf)), f(math.nextafter(x, math.inf)))
    return any(fn == 0.0 or (fn > 0.0) != (fx > 0.0) for fn in neighbours)


# root -> (solve at d, its number of itp_root calls at d): the upper bound
# solves mu_d again for its target, and the Rademacher tangency root is
# solved for d < 73 only; L_d is solved at five snr
LD_SNRS = (0.1, 1.0, 3.0, 50.0, 1e4)
ROOT_CALLS = {
    "lower_spherical": (lambda d: lower_bound_lambda(SpikePrior.spherical(), d), lambda d: 1),
    "lower_rademacher": (lambda d: lower_bound_lambda(SpikePrior.rademacher(), d),
                         lambda d: int(d < 73)),
    "mu_d": (injective_norm_mu, lambda d: 1),
    "L_d": (lambda d: [spiked_norm_lower_Ld(d, snr) for snr in LD_SNRS], lambda d: len(LD_SNRS)),
    "upper_spherical": (upper_bound_spherical, lambda d: 2),
}


@pytest.mark.parametrize("d", [3, 10, 10**3, 10**6])
@pytest.mark.parametrize("root", ROOT_CALLS)
def test_every_threshold_root_is_a_float_root(root, d, monkeypatch):
    solve, expected = ROOT_CALLS[root]
    calls = _record_roots(monkeypatch)
    solve(d)
    assert len(calls) == expected(d)
    for f, x in calls:
        assert _is_float_root(f, x)
