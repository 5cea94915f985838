import math

import numpy as np
import pytest

from spiked_tensor.solvers import (
    BracketError,
    bisect_root,
    geometric_grid,
    golden_min_vec,
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


def test_bisect_root_cosine():
    res = bisect_root(math.cos, 1.0, 2.0, xtol=1e-14)
    assert abs(res.root - math.pi / 2) < 1e-12
    assert res.residual < 1e-12
    # xtol = 0 asks for the narrowest bracket; the loop ends once the midpoint
    # can no longer split it
    res = bisect_root(math.cos, 1.0, 2.0, xtol=0.0)
    assert abs(res.root - math.pi / 2) <= math.ulp(math.pi / 2)
    assert res.iterations < 60


def test_bisect_root_requires_bracket():
    with pytest.raises(BracketError):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0)


def test_bisect_root_reads_signs_of_tiny_values():
    # a product of two values below ~1e-162 underflows to 0 and loses the signs
    with pytest.raises(BracketError):
        bisect_root(lambda x: 1e-200, 0.0, 1.0)
    res = bisect_root(lambda x: x - 1e-300, 0.0, 1.0, xtol=0.0)
    assert res.root == pytest.approx(1e-300, rel=1e-15)
    assert res.iterations < 1100


def test_spherical_tangency_bisection_steps(monkeypatch):
    from spiked_tensor import SpikePrior, lower_bound_lambda, rate_function_for, thresholds

    steps = []

    def counted(*args, **kwargs):
        res = bisect_root(*args, **kwargs)
        steps.append(res.iterations)
        return res

    # xtol = 0: each root is bisected down to adjacent floats, about 50 steps
    monkeypatch.setattr(thresholds, "bisect_root", counted)
    rate = rate_function_for(SpikePrior.spherical())
    for d in range(3, 201):
        lower_bound_lambda(rate, d)
    assert len(steps) == 198
    assert max(steps) < 100


def test_bisect_root_endpoint_root():
    res = bisect_root(lambda x: x, 0.0, 1.0)
    assert res.root == 0.0
    res = bisect_root(lambda x: x - 1.0, 0.0, 1.0)
    assert res.root == 1.0


def test_geometric_grid_covers_boundary_layers():
    grid = geometric_grid(1000)
    assert np.all(np.diff(grid) > 0)
    assert grid[0] <= 1e-9
    assert grid[-1] >= 1.0 - 1e-13
    # points resolving the 1 - Theta(1/(d log d)) layer at large d
    assert np.any((1.0 - grid > 1e-6) & (1.0 - grid < 1e-4))
    assert np.any(grid < 1e-7)
