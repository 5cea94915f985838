import math

import numpy as np
import pytest

from spiked_tensor.solvers import (
    BracketError,
    RootResult,
    golden_min_vec,
    itp_root,
)


def test_golden_min_vec_recovers_parabola_minima():
    centers = np.linspace(0.1, 0.9, 37)

    def f(t):
        return (t - centers) ** 2

    x, fx = golden_min_vec(f, np.zeros_like(centers), np.ones_like(centers), iterations=60)
    assert np.max(np.abs(x - centers)) < 1e-9
    assert np.max(fx) < 1e-18


def test_golden_min_vec_heterogeneous_intervals():
    lo = np.array([0.0, 2.0, -1.0])
    hi = np.array([1.0, 5.0, 0.0])
    target = np.array([0.25, 4.0, -0.5])

    def f(t):
        return np.abs(t - target) ** 1.5

    x, _ = golden_min_vec(f, lo, hi, iterations=70)
    assert np.max(np.abs(x - target)) < 1e-9


def test_itp_root_cosine():
    res = itp_root(math.cos, 1.0, 2.0, xtol=1e-14)
    assert abs(res.root - math.pi / 2) < 1e-12
    assert res.residual < 1e-12
    # superlinear on a smooth f: bisection takes 47 steps to width 1e-14
    assert res.iterations < 15
    # the default xtol runs on until lo and hi are adjacent floats, where
    # bisection would take 52 halvings
    res = itp_root(math.cos, 1.0, 2.0)
    assert abs(res.root - math.pi / 2) <= math.ulp(math.pi / 2)
    assert res.iterations < 20


def test_itp_root_requires_bracket_and_positive_xtol():
    for kwargs in ({"xtol": 1e-12}, {}):
        with pytest.raises(BracketError):
            itp_root(lambda x: x * x + 1.0, -1.0, 1.0, **kwargs)
    for xtol in (0.0, -1e-12, math.nan):
        with pytest.raises(ValueError):
            itp_root(math.cos, 1.0, 2.0, xtol=xtol)


def test_itp_root_reads_signs_of_tiny_values():
    # a product of two values below ~1e-162 underflows to 0 and loses the signs
    for kwargs in ({"xtol": 1e-12}, {}):
        with pytest.raises(BracketError):
            itp_root(lambda x: 1e-200, 0.0, 1.0, **kwargs)
    res = itp_root(lambda x: x - 1e-300, 0.0, 1.0, xtol=1e-313)
    assert res.root == pytest.approx(1e-300, rel=1e-12)
    res = itp_root(lambda x: x - 1e-300, 0.0, 1.0)
    assert abs(res.root - 1e-300) <= math.ulp(1e-300)
    # within the n_max = 1,075 steps of [0, 1] at the default xtol
    assert res.iterations <= 1075


def test_itp_root_endpoint_root():
    for kwargs in ({"xtol": 1e-12}, {}):
        assert itp_root(lambda x: x, 0.0, 1.0, **kwargs) == RootResult(0.0, 0.0, 0)
        assert itp_root(lambda x: x - 1.0, 0.0, 1.0, **kwargs) == RootResult(1.0, 0.0, 0)


@pytest.mark.parametrize("xtol", [1e-3, 1e-8, 1e-12, 1e-15])
def test_itp_root_keeps_the_bisection_bound_on_a_step(xtol):
    # a jump from -1e-300 to 1e300 puts every regula falsi point at the low
    # end; the projection keeps each step within bisection's budget plus one
    for root in (0.1, 0.37, 0.5, 0.999):
        res = itp_root(lambda x: -1e-300 if x < root else 1e300, 0.0, 1.0, xtol=xtol)
        assert res.iterations <= math.ceil(math.log2(1.0 / xtol)) + 1
        assert abs(res.root - root) <= 0.5 * xtol + math.ulp(root)


def test_spherical_tangency_bisection_steps(monkeypatch):
    from spiked_tensor import SpikePrior, lower_bound_lambda, thresholds

    steps = []

    def counted(*args, **kwargs):
        res = itp_root(*args, **kwargs)
        steps.append(res.iterations)
        return res

    # each root is solved down to adjacent floats, in at most about as many
    # steps as bisection takes to get there (55 against 54 at most)
    monkeypatch.setattr(thresholds, "itp_root", counted)
    for d in range(3, 201):
        lower_bound_lambda(SpikePrior.spherical(), d)
    assert len(steps) == 198
    assert max(steps) < 100


def test_geometric_grid_covers_boundary_layers():
    from spiked_tensor.thresholds import T_GRID as grid

    assert np.all(np.diff(grid) > 0)
    assert grid[0] == 1e-6
    assert grid[-1] == 1.0 - 1e-14
    # points resolving the 1 - Theta(1/(d log d)) layer at large d
    assert np.any((1.0 - grid > 1e-6) & (1.0 - grid < 1e-4))
    assert not grid.flags.writeable
