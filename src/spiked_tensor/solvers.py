"""One-dimensional solvers shared by the threshold, rate and replica modules.

Every bracketed scalar root is solved by ITP, an interpolate-truncate-project
step that keeps bisection's worst case: by default down to adjacent floats
(the lower bounds' tangency roots, mu_d, the roots on the spiked norm's
branch), or to a tolerance (replica fixed points); it reports the residual
the callers assert on.  An array-parallel golden section refines many
independent 1-D minimizations in lockstep: it polishes the sparse rate's
zeta-grid minimum for every t of a batch at once, and the sparse lower
bound's grid with the grid's own array objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class BracketError(RuntimeError):
    """No sign change (root solve) or no bracket (root scan) was found."""


@dataclass(frozen=True)
class RootResult:
    root: float
    residual: float
    iterations: int


def golden_min_vec(
    f: Callable[[np.ndarray], np.ndarray],
    a: np.ndarray,
    b: np.ndarray,
    iterations: int,
):
    """Array-parallel golden section: one independent minimization per entry.

    ``f`` must map an array of abscissas to an array of values elementwise.
    Costs exactly one vector evaluation of ``f`` per iteration; after ``k``
    iterations every interval has width (b - a) * INV_PHI**k.  Returns
    (x, f(x)) at the better of the two final probes of each problem.
    """
    a = np.asarray(a, dtype=float).copy()
    b = np.asarray(b, dtype=float).copy()
    c = b - INV_PHI * (b - a)
    d = a + INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iterations):
        left = fc < fd
        b = np.where(left, d, b)
        a = np.where(left, a, c)
        c_next = np.where(left, b - INV_PHI * (b - a), d)
        d_next = np.where(left, c, a + INV_PHI * (b - a))
        probe = np.where(left, c_next, d_next)
        fprobe = f(probe)
        fc, fd = np.where(left, fprobe, fd), np.where(left, fc, fprobe)
        c, d = c_next, d_next
    x = np.where(fc < fd, c, d)
    return x, np.minimum(fc, fd)


def _same_sign(a: float, b: float) -> bool:
    """Both positive or both negative, read off the signs: a product of two
    values below about 1e-162 underflows to 0 and loses them."""
    return (a > 0.0 and b > 0.0) or (a < 0.0 and b < 0.0)


def _bracket(f, lo: float, hi: float):
    """(f(lo), f(hi)), or the RootResult of an endpoint root; raises
    BracketError when the two ends have the same sign."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return RootResult(lo, 0.0, 0)
    if fhi == 0.0:
        return RootResult(hi, 0.0, 0)
    if _same_sign(flo, fhi):
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]: f={flo!r}, {fhi!r}")
    return flo, fhi


def itp_root(
    f: Callable[[float], float], lo: float, hi: float, *, xtol: float = 5e-324
) -> RootResult:
    """ITP root of ``f`` on [lo, hi]; endpoints must bracket a sign change.

    Interpolate-truncate-project (Oliveira & Takahashi, "An Enhancement of
    the Bisection Method Average Performance Preserving Minmax Optimality",
    ACM TOMS 47(1), 2020) with kappa1 = 0.2 / (hi - lo), kappa2 = 2, n0 = 1:
    each step takes the regula falsi point, moves it kappa1 w^2 toward the
    midpoint of the width-w bracket and projects it into the radius around
    the midpoint that keeps bisection's step budget plus one.  On a smooth f
    it converges superlinearly.  Stops at width ``xtol`` > 0, once lo and hi
    are adjacent floats, or after n_max = ceil(log2((hi - lo) / xtol)) + 1
    steps, and returns the midpoint.  In exact arithmetic n_max steps bring
    the width to xtol; rounding can leave it a few ulps wider, where a step
    lands on the edge of its budget.  The default xtol, the least positive
    double, runs to adjacent floats: at most 1,075 steps on [0, 1], one
    more than the 1,074 halvings bisection can take there.
    """
    if not xtol > 0.0:
        raise ValueError(f"xtol must be > 0, got {xtol!r}")
    ends = _bracket(f, lo, hi)
    if isinstance(ends, RootResult):
        return ends
    flo, fhi = ends
    kappa1 = 0.2 / (hi - lo)
    # n_max = ceil(log2((hi - lo) / xtol)) + 1, the exponents taken apart so
    # that the ratio cannot overflow
    (m_width, e_width), (m_tol, e_tol) = math.frexp(hi - lo), math.frexp(xtol)
    n_max = max(0, math.ceil(math.log2(m_width / m_tol)) + e_width - e_tol) + 1
    it = 0
    while hi - lo > xtol and it < n_max:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        width = hi - lo
        # regula falsi; flo / (flo - fhi) lies in (0, 1) as the signs differ
        x_f = lo + width * (flo / (flo - fhi))
        sigma = math.copysign(1.0, mid - x_f)
        delta = kappa1 * width * width
        x_t = x_f + sigma * delta if delta <= abs(mid - x_f) else mid
        radius = max(math.ldexp(xtol, n_max - it - 1) - 0.5 * width, 0.0)
        x = x_t if abs(x_t - mid) <= radius else mid - sigma * radius
        if not lo < x < hi:
            x = mid
        fx = f(x)
        it += 1
        if fx == 0.0:
            lo = hi = x
            break
        if _same_sign(fx, flo):
            lo, flo = x, fx
        else:
            hi, fhi = x, fx
    root = 0.5 * (lo + hi)
    return RootResult(root, abs(f(root)), it)

