"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criterion 4 asserts the stated asymptotic-agreement tolerances (0.05 for
lambda*^2, 0.1 for mu_d^2) verbatim, at the order where the dropped o(1)
term has fallen below them.  That term decays like 2 log log d / log d (0.48
at d=10^4), so the tolerances are first met near d ~ 10^85 (lambda*^2) and
d ~ 10^39 (mu_d^2), not at d=10^3..10^4; the criterion checks that decay
rate over a ladder of orders up to d=10^100.
"""

import math
import time

import numpy as np
import pytest

from spiked_tensor import (
    ExperimentConfig,
    RngSeed,
    SpikePrior,
    asymptotics,
    bbp_prediction,
    detection_experiment,
    exact_overlap_tail,
    injective_norm_mu,
    lower_bound_lambda,
    rademacher_replica_thresholds,
    rate_function_for,
    recovery_experiment,
    spherical_fixed_points,
    spherical_replica_threshold,
    threshold_report,
    upper_bound_cardinality,
)
from spiked_tensor.cli import main

TWO_SQRT_LOG2 = 2.0 * math.sqrt(math.log(2.0))


def _criterion(num, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {status} ({elapsed:6.2f}s / {budget:.0f}s budget) {detail}")
    assert ok, f"criterion {num}: {detail}"
    assert elapsed < budget, f"criterion {num} runtime {elapsed:.1f}s over budget {budget}s"


def test_criterion_1_injective_norm_mu3():
    t0 = time.perf_counter()
    mu3 = injective_norm_mu(3)
    elapsed = time.perf_counter() - t0
    ok = abs(mu3 - 2.3433) <= 5e-4
    _criterion(1, ok, f"mu_3 = {mu3:.6f} (target 2.3433 +- 5e-4)", elapsed, 1.0)


def test_criterion_2_spherical_ordering_sweep():
    t0 = time.perf_counter()
    worst = None
    ok = True
    for d in range(3, 31):
        rep = threshold_report(SpikePrior.spherical(), d, include_replica=True)
        ordered = (
            rep.lambda_lower < rep.replica_prediction < rep.lambda_upper < rep.mu_d
        )
        if not ordered and worst is None:
            worst = d
        ok = ok and ordered
    elapsed = time.perf_counter() - t0
    detail = "lambda* < replica < Lambda* < mu_d for d=3..30" + (
        "" if ok else f" (first violation at d={worst})"
    )
    _criterion(2, ok, detail, elapsed, 60.0)


def test_criterion_3_rademacher_large_d():
    t0 = time.perf_counter()
    lower = lower_bound_lambda(rate_function_for(SpikePrior.rademacher()), 50).value
    _, replica_l2 = rademacher_replica_thresholds(50)
    elapsed = time.perf_counter() - t0
    rel_lower = abs(lower / TWO_SQRT_LOG2 - 1.0)
    rel_replica = abs(replica_l2 / TWO_SQRT_LOG2 - 1.0)
    ok = rel_lower <= 0.02 and rel_replica <= 0.02
    _criterion(
        3, ok,
        f"d=50: lambda*={lower:.6f}, replica={replica_l2:.6f} vs {TWO_SQRT_LOG2:.6f} "
        f"(rel {rel_lower:.2e}, {rel_replica:.2e})",
        elapsed, 60.0,
    )


# lambda*^2 and mu_d^2 minus their expansions at d=10^100, from an independent
# 80-digit mpmath bisection of the tangency equation (in s = -log(1-t^2)) and
# of injective_norm_mu's characteristic equation
GAP_REFERENCE_1E100 = (0.043588, 0.046876)


def test_criterion_4_asymptotic_convergence():
    """Spherical lambda*^2 and mu_d^2 approach their expansions as stated.

    Expanding inf_t (1+t^-d)(-log(1-t^2)) about 1-t^2 = 2u/d puts the
    minimiser at u ~ 2/log d and gives
    lambda*^2 = 2 log d + 2 log log d + 2 - 4 log 2 + 2 log log d/log d + O(1/log d),
    so asymptotics("lower_sph_sq") drops a term ~ 2 log log d / log d, and
    mu_d^2 converges at the same rate.  Over d = 10^3 .. 10^100 each gap is
    positive, strictly decreasing and r(d) = gap log d / (2 log log d) stays
    in [0.7, 1.1] (0.80 -> 0.92 for lambda*^2, 0.96 -> 0.99 for mu_d^2); a
    constant error of 0.01 in an expansion would move r(10^100) by 0.21.  At
    d = 10^100 both gaps are below the stated tolerances and match the
    reference values to 1e-4.
    """
    t0 = time.perf_counter()
    ladder = [10**e for e in (3, 4, 6, 10, 20, 40, 100)]
    gaps_lower, gaps_mu = [], []
    for d in ladder:
        lam = lower_bound_lambda(rate_function_for(SpikePrior.spherical()), d).value
        gaps_lower.append(lam * lam - asymptotics("lower_sph_sq", d))
        mu = injective_norm_mu(d)
        gaps_mu.append(mu * mu - asymptotics("mu_sq", d))
    elapsed = time.perf_counter() - t0
    gap_lower, gap_mu = gaps_lower[-1], gaps_mu[-1]
    ok = gap_lower <= 0.05 and gap_mu <= 0.1
    ratios = []
    for gaps in (gaps_lower, gaps_mu):
        ok = ok and gaps[-1] > 0.0 and all(a > b for a, b in zip(gaps, gaps[1:]))
        r = [g * math.log(d) / (2.0 * math.log(math.log(d))) for g, d in zip(gaps, ladder)]
        ok = ok and all(0.7 <= x <= 1.1 for x in r)
        ratios.append(r)
    ok = ok and abs(gap_lower - GAP_REFERENCE_1E100[0]) <= 1e-4
    ok = ok and abs(gap_mu - GAP_REFERENCE_1E100[1]) <= 1e-4
    _criterion(
        4, ok,
        f"|lambda*^2 - expansion| = {gap_lower:.6f} (tol 0.05), "
        f"|mu^2 - expansion| = {gap_mu:.6f} (tol 0.1) at d=1e100; "
        f"gaps at d=1e3 {gaps_lower[0]:.4f}, {gaps_mu[0]:.4f} decay like "
        f"2 log log d / log d (r = {ratios[0][0]:.3f}..{ratios[0][-1]:.3f}, "
        f"{ratios[1][0]:.3f}..{ratios[1][-1]:.3f})",
        elapsed, 10.0,
    )


def test_criterion_5_sparse_limits():
    t0 = time.perf_counter()
    ok = True
    details = []
    for rho in (0.1, 1 / 3, 2 / 3, 1.0):
        h = -rho * math.log(rho) - (1 - rho) * math.log1p(-rho) if rho < 1 else 0.0
        target = h + rho * math.log(2.0)
        err = abs(rate_function_for(SpikePrior.sparse(rho)).eval(1.0) - target)
        ok = ok and err <= 1e-8
    rho = 1e-4
    lam = lower_bound_lambda(rate_function_for(SpikePrior.sparse(rho)), 2).value
    ratio = lam / (2.0 * math.sqrt(-rho * math.log(rho)))
    ok = ok and 0.8 <= ratio <= 1.1
    elapsed = time.perf_counter() - t0
    _criterion(
        5, ok,
        f"f_rho(1) limits within 1e-8; lambda*/(2 sqrt(-rho log rho)) = {ratio:.4f} at rho=1e-4",
        elapsed, 10.0,
    )


def test_criterion_6_replica_d2_sanity():
    t0 = time.perf_counter()
    l1, _ = rademacher_replica_thresholds(2)
    sols = [s for s in spherical_fixed_points(2, 2.0) if s.branch != "zero"]
    q = sols[0].q if sols else math.nan
    elapsed = time.perf_counter() - t0
    ok = abs(l1 - 1.0) <= 0.01 and abs(q - 0.75) <= 1e-6
    _criterion(
        6, ok, f"rademacher appearance {l1:.4f} (1 +- 0.01); spherical q(2) = {q:.8f}",
        elapsed, 10.0,
    )


def test_criterion_7_monte_carlo_detection():
    t0 = time.perf_counter()
    prior = SpikePrior.rademacher()
    strong = detection_experiment(
        ExperimentConfig(prior, 14, 3, 4.0, 200, RngSeed(7), test="mle")
    )
    weak = detection_experiment(
        ExperimentConfig(prior, 14, 3, 0.3, 200, RngSeed(7), test="mle")
    )
    recov = recovery_experiment(
        ExperimentConfig(prior, 14, 3, 4.0, 200, RngSeed(7), test="mle")
    )
    frac = float(np.mean([abs(r.overlap) >= 0.8 for r in recov.records]))
    elapsed = time.perf_counter() - t0
    ok = (
        strong.accuracy >= 0.95
        and 0.35 <= weak.accuracy <= 0.65
        and frac >= 0.9
    )
    _criterion(
        7, ok,
        f"acc(4.0)={strong.accuracy:.3f} (>=0.95); acc(0.3)={weak.accuracy:.3f} "
        f"(in [0.35,0.65]); P(|overlap|>=0.8)={frac:.3f} (>=0.9)",
        elapsed, 300.0,
    )


def test_criterion_8_bbp_reference():
    # simulate bbp's run: at d = 2 the injective norm is the top eigenvalue
    t0 = time.perf_counter()
    config = ExperimentConfig(SpikePrior.spherical(), 1000, 2, 2.0, 20, RngSeed(7),
                              test="injective_norm")
    result = recovery_experiment(config)
    elapsed = time.perf_counter() - t0
    mean_eig = float(np.mean([r.statistic for r in result.records]))
    pred_eig, pred_align = bbp_prediction(2.0)
    assert (pred_eig, pred_align) == (2.5, 0.75)
    ok = (
        abs(mean_eig - pred_eig) <= 0.1
        and abs(result.mean_overlap_pow_d - pred_align) <= 0.05
    )
    _criterion(
        8, ok,
        f"mean top eig {mean_eig:.4f} (2.5 +- 0.1); "
        f"mean <v,x>^2 {result.mean_overlap_pow_d:.4f} (0.75 +- 0.05)",
        elapsed, 120.0,
    )


def test_criterion_9_oracle_equivalence():
    t0 = time.perf_counter()
    prior = SpikePrior.rademacher()
    rate = rate_function_for(prior)
    chernoff_ok = True
    for n in range(1, 65):
        for t in np.linspace(0.0, 0.999, 50):
            tail = exact_overlap_tail(prior, n, float(t))
            if tail > math.exp(-n * rate.eval(float(t))) * (1 + 1e-12):
                chernoff_ok = False
    sparse_ok = True
    errs = []
    for t in (0.2, 0.4, 0.6):
        emp = -math.log(exact_overlap_tail(SpikePrior.sparse(0.3), 200, t)) / 200
        errs.append(abs(emp - rate_function_for(SpikePrior.sparse(0.3)).eval(t)))
        sparse_ok = sparse_ok and errs[-1] <= 0.05
    elapsed = time.perf_counter() - t0
    ok = chernoff_ok and sparse_ok
    _criterion(
        9, ok,
        f"Chernoff domination n<=64 on 50-pt grid: {chernoff_ok}; "
        f"sparse rate errors at n=200: {['%.4f' % e for e in errs]} (tol 0.05)",
        elapsed, 60.0,
    )


def test_criterion_10_cli_thread_determinism(tmp_path, capsys):
    t0 = time.perf_counter()
    commands = {
        "thresholds": ["thresholds", "--prior", "spherical", "--d", "3..4"],
        "ratefn": ["ratefn", "--prior", "sparse", "--rho", "0.3", "--grid", "40", "--n", "60"],
        "replica": ["replica", "--prior", "rademacher", "--d", "3", "--thresholds"],
        "detect": ["simulate", "detect", "--prior", "rademacher", "--n", "10", "--d", "3",
                   "--lambda", "3", "--trials", "10", "--seed", "7"],
        "recover": ["simulate", "recover", "--prior", "rademacher", "--n", "10", "--d", "3",
                    "--lambda", "3", "--trials", "10", "--seed", "7"],
        "tails": ["simulate", "tails", "--prior", "spherical", "--n", "20",
                  "--trials", "20000", "--seed", "7", "--tgrid", "0.0,0.1"],
        "norms": ["simulate", "norms", "--prior", "spherical", "--n", "15", "--d", "3",
                  "--lambda", "0", "--trials", "5", "--seed", "7"],
        "bbp": ["simulate", "bbp", "--n", "200", "--lambda", "2", "--trials", "5",
                "--seed", "7"],
    }
    ok = True
    bad = []
    for name, args in commands.items():
        outputs = []
        for threads in ("1", "2", "8"):
            path = tmp_path / f"{name}-{threads}.csv"
            code = main(args + ["--threads", threads, "--out", str(path)])
            capsys.readouterr()
            assert code == 0, f"{name} failed with --threads {threads}"
            outputs.append(path.read_bytes())
        if not (outputs[0] == outputs[1] == outputs[2]):
            ok = False
            bad.append(name)
    elapsed = time.perf_counter() - t0
    detail = "byte-identical output across --threads 1/2/8 for all commands" + (
        "" if ok else f" (mismatches: {bad})"
    )
    _criterion(10, ok, detail, elapsed, 300.0)
