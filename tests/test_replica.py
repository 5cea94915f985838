import math
import warnings

import numpy as np
import pytest

from spiked_tensor import (
    ReplicaSolution,
    SpikePrior,
    injective_norm_mu,
    lower_bound_lambda,
    q_of_mu_rademacher,
    rademacher_fixed_points,
    rademacher_free_energy,
    rademacher_replica_thresholds,
    replica,
    spherical_appearance_snr,
    spherical_fixed_points,
    spherical_replica_threshold,
    threshold_report,
    upper_bound_spherical,
)
from spiked_tensor.cli import main
from spiked_tensor.replica import (
    NODES,
    SNR_RANGE,
    THRESHOLD_TOL,
    WEIGHTS,
    _crossing,
    _mu_grid,
    _mu_scan,
    _root_cells,
    fixed_points,
    replica_thresholds,
)
from spiked_tensor.solvers import BracketError, itp_root
from spiked_tensor.thresholds import asymptotics, upper_bound_cardinality

TWO_SQRT_LOG2 = 2.0 * math.sqrt(math.log(2.0))


def test_quadrature_moments():
    z, w = NODES, WEIGHTS
    assert len(z) == 201
    assert not z.flags.writeable and not w.flags.writeable
    assert abs(math.fsum(WEIGHTS) - 1) <= 2**-52
    assert abs(float((w * z).sum())) < 1e-10
    assert abs(float((w * z**2).sum()) - 1.0) < 1e-10
    assert abs(float((w * z**3).sum())) < 1e-8
    assert abs(float((w * z**4).sum()) - 3.0) < 1e-8


def test_nishimori_identity():
    # E tanh = E tanh^2 at the same coupling (mu + sqrt(mu) z)
    for mu in (0.05, 0.1, 0.5, 1.0, 2.0, 5.0, 20.0):
        th = np.tanh(mu + math.sqrt(mu) * NODES)
        m2 = float((th * th) @ WEIGHTS)
        assert abs(q_of_mu_rademacher(mu) - m2) < 1e-8


def test_q_of_mu_limits():
    assert q_of_mu_rademacher(0.0) == 0.0
    assert q_of_mu_rademacher(50.0) >= 0.999
    with pytest.raises(ValueError):
        q_of_mu_rademacher(-1.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_q_of_mu_rejects_non_finite_or_negative(bad):
    with pytest.raises(ValueError):
        q_of_mu_rademacher(bad)
    with pytest.raises(ValueError):
        q_of_mu_rademacher(np.array([0.0, 0.5, bad, 2.0]))
    with pytest.raises(ValueError):
        q_of_mu_rademacher(np.array(bad))


def test_q_of_mu_float_and_array_agree():
    # an array entry and the float call are different kernels (one row of a
    # matrix product against a 1-D dot); they agree to a few ulps, not bitwise
    mus = np.linspace(0.0, 40.0, 401)
    batch = q_of_mu_rademacher(mus)
    assert batch.shape == mus.shape
    assert q_of_mu_rademacher(mus[:400].reshape(20, 20)).shape == (20, 20)
    for mu, q in zip(mus, batch):
        assert abs(q_of_mu_rademacher(float(mu)) - q) <= 1e-15


def test_q_of_mu_below_min_of_mu_and_one():
    # the bound the mu-grid screen of replica._mu_scan rests on, on both paths
    mus = np.geomspace(1e-8, 1e6, 20001)
    bound = np.minimum(mus, 1.0) * (1.0 + 1e-12)
    assert np.all(q_of_mu_rademacher(mus) <= bound)
    assert all(q_of_mu_rademacher(float(mu)) <= b for mu, b in zip(mus, bound))


def _unscreened_phi(d, snr):
    return lambda mu: d * q_of_mu_rademacher(mu) ** (d - 1) - 2.0 * mu / snr**2


RADEMACHER_SCREEN_CASES = [
    (d, float(snr)) for d in (2, 3, 4, 10, 30, 100, 1000, 10**6)
    for snr in np.geomspace(*SNR_RANGE, 25)
] + [
    # either side of the pinned lambda1 of d = 3 and d = 10
    (d, lambda1 * (1.0 + s * 1e-7))
    for d, lambda1 in ((3, 1.4671469569206237), (10, 1.1929114699363708)) for s in (-1, 1)
]


def _unscreened_scan(d, snr, first_root=False):
    grid = _mu_grid(d, snr)
    return grid, _unscreened_phi(d, snr)(grid)


def test_screened_mu_scan_keeps_every_sign_and_root(monkeypatch):
    skipped = total = stopped_early = 0
    cases = RADEMACHER_SCREEN_CASES
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        screened_tables = [rademacher_fixed_points(d, snr) for d, snr in cases]
        screened_highs = [rademacher_fixed_points(d, snr, high_only=True) for d, snr in cases]
        for d, snr in cases:
            grid, vals = _mu_scan(d, snr)
            full = _unscreened_phi(d, snr)(grid)
            assert np.array_equal(grid, _mu_grid(d, snr))
            # a skipped point reads -2 mu / snr^2 (q taken as 0); a kept one
            # can differ from the whole-grid value in the last bit, since the
            # matrix product's kernel depends on the row count
            skip = vals == -2.0 * grid / snr**2
            assert np.all(full[skip] < 0.0)
            assert np.array_equal(np.sign(vals), np.sign(full))
            cells = _root_cells(full)
            assert np.array_equal(_root_cells(vals), cells)
            # the scan that stops at the first block closing a root cell
            # returns a right end of the grid with the whole grid's signs,
            # whose last root cell is the whole grid's, and has a root cell
            # exactly when the whole grid does
            part_grid, part_vals = _mu_scan(d, snr, first_root=True)
            offset = grid.size - part_grid.size
            assert np.array_equal(part_grid, grid[offset:])
            assert np.array_equal(np.sign(part_vals), np.sign(full[offset:]))
            assert np.array_equal(_root_cells(part_vals)[-1:] + offset, cells[-1:])
            assert (_root_cells(part_vals).size > 0) == (cells.size > 0)
            skipped += int(skip.sum())
            total += grid.size
            stopped_early += offset > 0
        monkeypatch.setattr(replica, "_mu_scan", _unscreened_scan)
        unscreened_tables = [rademacher_fixed_points(d, snr) for d, snr in cases]
        unscreened_highs = [rademacher_fixed_points(d, snr, high_only=True) for d, snr in cases]
    assert screened_tables == unscreened_tables
    assert screened_highs == unscreened_highs
    assert skipped > total // 2
    assert stopped_early > len(cases) // 4


def test_root_cells_read_signs_of_tiny_values():
    # the product of the two ends underflows to -0.0, which is not below 0
    assert _root_cells(np.array([-1e-200, 1e-200])).tolist() == [0]


def test_threshold_values_pinned_to_the_bit():
    # full-precision values of the solvers as first committed; any change to
    # the scans, the polishing or the quadrature moves at least one of them
    assert rademacher_replica_thresholds(3) == (1.4671469569206237, 1.5351897678149715)
    assert rademacher_replica_thresholds(4) == (1.4740500330924988, 1.6210524579279557)
    assert rademacher_replica_thresholds(10) == (1.1929114699363708, 1.664758677292542)
    assert rademacher_replica_thresholds(20) == (0.9422218084335326, 1.6651091059483258)
    assert rademacher_replica_thresholds(30) == (0.8103132009506223, 1.6651090864687728)
    assert spherical_replica_threshold(3) == 1.7063273984090024
    assert spherical_replica_threshold(10) == 2.606619506958087
    assert spherical_replica_threshold(40) == 3.2384785070465005


def test_quadrature_against_monte_carlo():
    # E log(2 cosh(mu + sqrt(mu) z)) at mu = 1 vs a 10^7-sample oracle
    mu = 1.0
    exact = float(np.log(2.0 * np.cosh(mu + np.sqrt(mu) * NODES)) @ WEIGHTS)
    z = np.random.default_rng(12345).standard_normal(10_000_000)
    mc = float(np.mean(np.log(2.0 * np.cosh(mu + np.sqrt(mu) * z))))
    assert abs(exact - mc) < 1e-3


def test_rademacher_branch_structure():
    # below the appearance point only the zero branch exists
    sols = rademacher_fixed_points(3, 1.2)
    assert [s.branch for s in sols] == ["zero"]
    # above it: zero + low + high
    sols = rademacher_fixed_points(3, 1.6)
    assert [s.branch for s in sols] == ["zero", "low", "high"]
    for s in sols:
        assert s.residual < 1e-9
        if s.branch != "zero":
            assert abs(s.mu - 0.5 * s.snr**2 * 3 * s.q**2) < 1e-9
            assert abs(s.q - q_of_mu_rademacher(s.mu)) < 1e-12


def test_rademacher_d2_appearance_at_one():
    assert rademacher_fixed_points(2, 0.99) == rademacher_fixed_points(2, 0.99)
    assert len([s for s in rademacher_fixed_points(2, 0.99) if s.branch != "zero"]) == 0
    assert len([s for s in rademacher_fixed_points(2, 1.01) if s.branch != "zero"]) == 1
    l1, l2 = rademacher_replica_thresholds(2)
    assert abs(l1 - 1.0) < 0.01
    assert l2 >= l1


def test_zero_branch_free_energy_closed_form():
    for snr in (0.7, 1.3, 2.4):
        expected = (1.0 / snr) * (-(snr**2) / 4.0 - math.log(2.0))
        assert rademacher_free_energy(3, snr, 0.0, 0.0) == pytest.approx(expected, abs=1e-14)


def test_high_branch_crosses_zero_once():
    # d=3: the high branch's free energy decreases in snr and crosses once
    l1, _ = rademacher_replica_thresholds(3)
    lams = np.linspace(l1 + 1e-4, 1.9, 60)
    gaps = []
    for lam in lams:
        sols = rademacher_fixed_points(3, float(lam))
        high = max((s for s in sols if s.branch != "zero"), key=lambda s: s.mu)
        gaps.append(high.free_energy - sols[0].free_energy)
    signs = np.sign(gaps)
    assert signs[0] > 0 > signs[-1]
    assert int(np.sum(np.diff(signs) != 0)) == 1
    highs = []
    for lam in lams:
        sols = rademacher_fixed_points(3, float(lam))
        high = max((s for s in sols if s.branch != "zero"), key=lambda s: s.mu)
        highs.append(high.free_energy)
    assert all(b < a + 1e-12 for a, b in zip(highs, highs[1:]))


def test_rademacher_thresholds_frozen_and_ordered():
    l1, l2 = rademacher_replica_thresholds(3)
    assert l1 == pytest.approx(1.46715, abs=1e-3)
    assert l2 == pytest.approx(1.53519, abs=1e-3)
    # from d = 21 on, lambda2's 1e-6 bisection tolerance can put it outside
    # [lower, upper] at some orders, so those are left out
    for d in range(3, 21):
        l1, l2 = rademacher_replica_thresholds(d)
        assert l1 < l2
        lower = lower_bound_lambda(SpikePrior.rademacher(), d).value
        upper = upper_bound_cardinality(SpikePrior.rademacher())
        assert lower <= l2 <= upper + 1e-9


def test_rademacher_large_d_limit():
    _, l2 = rademacher_replica_thresholds(50)
    assert abs(l2 / TWO_SQRT_LOG2 - 1.0) < 0.02


@pytest.mark.parametrize("d", [353, 400])
def test_rademacher_lambda2_at_large_d_stays_in_the_bounds(d):
    # log(2 cosh x) overflowed from d = 353 on and dragged lambda2 below the bound
    _, l2 = rademacher_replica_thresholds(d)
    lower = lower_bound_lambda(SpikePrior.rademacher(), d).value
    assert lower <= l2 <= TWO_SQRT_LOG2 + 1e-6


def test_rademacher_free_energy_finite_at_large_snr():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        sols = rademacher_fixed_points(3, 40.0)
    high = sols[-1]
    assert high.branch == "high"
    # q = 1 and mu = 3 snr^2 / 2, so f = (1/snr)(-snr^2/2 + mu - mu) = -snr/2
    assert high.free_energy == pytest.approx(-20.0, rel=1e-12)


def test_spherical_d2_closed_form_overlap():
    sols = spherical_fixed_points(2, 2.0)
    nonzero = [s for s in sols if s.branch != "zero"]
    assert len(nonzero) == 1
    assert abs(nonzero[0].q - 0.75) < 1e-6
    assert all(s.residual < 1e-9 for s in sols)
    assert len([s for s in spherical_fixed_points(2, 0.9) if s.branch != "zero"]) == 0


def test_spherical_branch_structure_d3():
    lam1 = spherical_appearance_snr(3)
    assert lam1 == pytest.approx(math.sqrt(8.0 / 3.0), abs=1e-12)
    sols = spherical_fixed_points(3, lam1 * 1.05)
    nonzero = [s for s in sols if s.branch != "zero"]
    assert len(nonzero) == 2
    # the smaller solution's overlap decreases as snr grows
    low_a = min(s.q for s in nonzero)
    sols_b = spherical_fixed_points(3, lam1 * 1.3)
    low_b = min(s.q for s in sols_b if s.branch != "zero")
    assert low_b < low_a


@pytest.mark.parametrize("d", [2, 3, 10, 40, 1000])
def test_spherical_fixed_points_count_every_branch(d):
    # within the q scan's reach (snr <= 10^4 up to d = 1000) a spherical table
    # holds every nonzero branch: two past the appearance point for d >= 3,
    # one past snr = 1 for d = 2
    lambda1 = spherical_appearance_snr(d)
    for snr in sorted({*np.logspace(-6, 4, 101).tolist(), *np.linspace(0.5, 2.5, 81).tolist()}):
        expected = (1 if d == 2 else 2) if snr > lambda1 else 0
        nonzero = fixed_points(SpikePrior.spherical(), d, snr)[1:]
        assert len(nonzero) == expected, snr


def test_spherical_fixed_points_refuse_an_unresolved_table():
    # d = 3 at snr = 10^5: the low root q ~ 2 / (snr^2 d) lies below the scan's
    # first point; d = 10^6 at snr = 3: both roots share the scan's last cell
    for d, snr in ((3, 1e5), (10**6, 3.0)):
        assert len(spherical_fixed_points(d, snr)) < 3
        with pytest.raises(BracketError, match=f"d={d}, snr={snr!r}"):
            fixed_points(SpikePrior.spherical(), d, snr)


def test_spherical_threshold_between_bounds():
    for d in (3, 5, 10):
        l2 = spherical_replica_threshold(d)
        lower = lower_bound_lambda(SpikePrior.spherical(), d).value
        upper = upper_bound_spherical(d)
        assert lower < l2 < upper


def test_spherical_threshold_increasing_in_d():
    vals = [spherical_replica_threshold(d) for d in range(3, 11)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_spherical_threshold_large_d_gap():
    # the o(1) term is still ~0.42 at d=10^3, like the rigorous bounds' gaps
    # (0.45 for lambda*^2, whose dropped term decays like 2 log log d / log d);
    # pin the measured value and the sandwich by those bounds
    l2 = spherical_replica_threshold(1000)
    gap = l2 * l2 - asymptotics("upper_sph_sq", 1000)
    assert gap == pytest.approx(0.4210, abs=2e-3)
    assert spherical_tangency_value(1000) < l2 < upper_bound_spherical(1000)


def spherical_tangency_value(d):
    return lower_bound_lambda(SpikePrior.spherical(), d).value


def test_mu_reference_for_context():
    # mu_d sits above every spherical threshold quantity at moderate d
    for d in (3, 7):
        assert spherical_replica_threshold(d) < injective_norm_mu(d)


def test_rademacher_nonzero_count_is_zero_or_two():
    # away from the appearance point, d >= 3 has exactly 0 or 2 nonzero branches
    l1, _ = rademacher_replica_thresholds(3)
    for lam in np.concatenate([np.linspace(0.3, l1 - 1e-3, 12), np.linspace(l1 + 1e-3, 3.0, 12)]):
        count = len([s for s in rademacher_fixed_points(3, float(lam)) if s.branch != "zero"])
        assert count in (0, 2)
        assert count == (0 if lam < l1 else 2)


@pytest.mark.parametrize(
    "d", list(range(3, 61)) + [79, 100, 200, 500, 600, 1000, 1500, 3000, 5000, 10**4]
)
def test_spherical_threshold_between_bounds_to_large_d(d):
    # from d = 40 on the scan can miss the high branch just above lambda1,
    # where both nonzero roots lie in one cell of its grid; the crossing
    # search then starts at a later probe
    rep = threshold_report(SpikePrior.spherical(), d, include_replica=True)
    assert rep.lambda_lower < rep.replica_prediction < rep.lambda_upper < rep.mu_d


@pytest.mark.parametrize("d", ["40", "42", "50"])
def test_thresholds_replica_row_at_d_40_42_50(d, capsys):
    assert main(["thresholds", "--prior", "spherical", "--d", d, "--replica"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[1].startswith(f"{d},")


def _stub_fixed_points(seen_from: float, crossing: float):
    """Zero branch from snr 0, a high branch from ``seen_from`` whose gap is crossing - snr."""

    def fixed_points(snr):
        zero = ReplicaSolution(3, snr, "zero", 0.0, 0.0, 0.0, 0.0)
        if snr < seen_from:
            return [zero]
        return [zero, ReplicaSolution(3, snr, "high", 0.5, 0.0, crossing - snr, 0.0)]

    return fixed_points


def test_crossing_starts_at_the_first_probe_that_sees_the_branch():
    # seen only from the fourth probe, lambda1 + 1e3 tol, and crossing after it
    lambda2 = _crossing(_stub_fixed_points(1.0 + 5e-4, 1.2), 1.0)
    assert abs(lambda2 - 1.2) <= THRESHOLD_TOL
    # crossed at the first probe: the continuous case returns that probe
    assert _crossing(_stub_fixed_points(0.0, 0.5), 1.0) == 1.0 * (1.0 + 1e-9) + 1e-12


def test_crossing_rejects_a_gap_already_negative_at_a_later_probe():
    # the crossing lies before the probe that first sees the branch: unresolved
    with pytest.raises(BracketError):
        _crossing(_stub_fixed_points(1.0 + 5e-4, 1.0 + 1e-4), 1.0)
    # no probe up to lambda1 + 1 sees the branch
    with pytest.raises(BracketError):
        _crossing(_stub_fixed_points(2.5, 3.0), 1.0)


FULL_TABLES = {"spherical": spherical_fixed_points, "rademacher": rademacher_fixed_points}


@pytest.mark.parametrize("prior, d", [
    *[("spherical", d) for d in [*range(3, 61), 100, 1000, 10**4]],
    *[("rademacher", d) for d in [*range(3, 13), 20, 30]],
])
def test_crossing_of_the_high_branch_alone_equals_the_full_tables_to_the_bit(prior, d):
    # the reference drives the crossing with every branch of each probe's
    # table polished; the high branch's cell is bisected on its own either
    # way, so lambda2 keeps every bit
    lambda1, lambda2 = replica_thresholds(SpikePrior(kind=prior), d)
    full = FULL_TABLES[prior]
    assert _crossing(lambda snr: full(d, snr), lambda1) == lambda2


@pytest.mark.parametrize("prior, d", [("spherical", 3), ("spherical", 40), ("rademacher", 3),
                                      ("rademacher", 10)])
def test_crossing_bisects_at_most_one_cell_per_probe(prior, d, monkeypatch):
    # each probe scans its grid once (one _scan_roots call) and polishes the
    # high branch's cell alone (one itp_root call), where both nonzero
    # branches exist
    calls = {"scan": 0, "polish": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(replica, "_scan_roots", counted("scan", replica._scan_roots))
    monkeypatch.setattr(replica, "itp_root", counted("polish", replica.itp_root))
    replica_thresholds(SpikePrior(kind=prior), d)
    assert 0 < calls["polish"] <= calls["scan"]


@pytest.mark.parametrize("prior", ["spherical", "rademacher"])
@pytest.mark.parametrize("d", [3, 10, 30])
def test_every_polished_cell_keeps_the_itp_step_bound(prior, d, monkeypatch):
    # ITP never takes more than bisection's steps plus one, and on these
    # smooth cells it converges superlinearly, in well under half of them
    cells = []

    def recorded(f, lo, hi, *, xtol):
        res = itp_root(f, lo, hi, xtol=xtol)
        cells.append((math.ceil(math.log2((hi - lo) / xtol)), res.iterations))
        return res

    monkeypatch.setattr(replica, "itp_root", recorded)
    replica_thresholds(SpikePrior(kind=prior), d)
    assert cells
    assert all(steps <= halvings + 1 for halvings, steps in cells)
    assert sum(steps for _, steps in cells) < 0.5 * sum(halvings for halvings, _ in cells)


@pytest.mark.parametrize("snr", [2.0, 10.0, 1e2, 1e3, 1e4])
def test_spherical_d3_roots_match_the_closed_form(snr):
    # d = 3: q (1 - q) = c with c = 2 / (3 snr^2); the low root is written
    # without the cancellation of (1 - sqrt(1 - 4c)) / 2
    c = 2.0 / (3.0 * snr * snr)
    root = math.sqrt(1.0 - 4.0 * c)
    low, high = spherical_fixed_points(3, snr)[1:]
    assert (low.branch, high.branch) == ("low", "high")
    assert low.q == pytest.approx(2.0 * c / (1.0 + root), rel=1e-12)
    assert high.q == pytest.approx(0.5 * (1.0 + root), rel=1e-12)


def test_rademacher_low_root_against_mpmath():
    # d = 3, snr = 1000: mu = (3 snr^2 / 2) q(mu)^2 with q(mu) = E tanh(mu + sqrt(mu) z)
    # integrated and solved by mpmath at 40 digits
    low = rademacher_fixed_points(3, 1000.0)[1]
    assert low.branch == "low"
    assert low.mu == pytest.approx(6.6666755555664198e-07, rel=1e-10)
    assert low.q == pytest.approx(6.6666711111150617e-07, rel=1e-10)


def test_rademacher_high_rows_at_d_1e6(capsys):
    # q = 1 up to e^(-mu/2) on the high branch, so mu = snr^2 d / 2 and the
    # free energy is -snr/2 to every printed digit; weights summing to
    # 1 + 1.3e-15 printed mu = 5.00000001e+09 and -50.0000001 at snr = 100
    argv = ["replica", "--prior", "rademacher", "--d", "1000000", "--lambda", "10,100,1000"]
    assert main(argv) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
    assert [row[:5] for row in rows if row[1] == "high"] == [
        ["10", "high", "1", "50000000", "-5"],
        ["100", "high", "1", "5e+09", "-50"],
        ["1000", "high", "1", "5e+11", "-500"],
    ]


def test_rademacher_fixed_points_refuse_a_low_root_below_the_grid():
    # d = 3 at snr = 10^4: the low root mu ~ 2 / (3 snr^2) lies below the mu
    # grid's first point, 1e-8
    with pytest.raises(BracketError, match="d=3, snr=10000.0"):
        fixed_points(SpikePrior.rademacher(), 3, 1e4)
    assert [s.branch for s in rademacher_fixed_points(3, 1e4)] == ["zero", "high"]


@pytest.mark.parametrize("d, snr", [("3", "8000"), *[(str(d), "1e6") for d in range(4, 11)]])
def test_rademacher_tables_keep_both_branches_at_large_snr(d, snr, capsys):
    assert main(["replica", "--prior", "rademacher", "--d", d, "--lambda", snr]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [row.split(",")[1] for row in rows] == ["zero", "low", "high"]


def test_replica_solvers_are_picked_by_prior():
    spherical, rademacher = SpikePrior.spherical(), SpikePrior.rademacher()
    assert replica_thresholds(spherical, 5) == (
        spherical_appearance_snr(5), spherical_replica_threshold(5)
    )
    assert replica_thresholds(rademacher, 3) == rademacher_replica_thresholds(3)
    assert fixed_points(spherical, 3, 2.0) == spherical_fixed_points(3, 2.0)
    assert fixed_points(rademacher, 3, 2.0) == rademacher_fixed_points(3, 2.0)
    with pytest.raises(ValueError):
        replica_thresholds(SpikePrior.sparse(0.3), 3)
    with pytest.raises(ValueError):
        fixed_points(SpikePrior.sparse(0.3), 3, 2.0)
