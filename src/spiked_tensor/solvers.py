"""One-dimensional solvers shared by the threshold, rate and replica modules.

Bisection (the lower bounds' tangency roots, mu_d, the roots on the spiked
norm's branch, replica fixed points) with the tolerances and residual
reporting the callers assert on, and an array-parallel golden section that
refines many independent 1-D minimizations in lockstep: it polishes the
sparse rate's zeta-grid minimum for every t of a batch at once, and the
sparse lower bound's grid with the grid's own array objective.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class BracketError(RuntimeError):
    """No sign change (bisection) or no bracket (root scan) was found."""


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


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    *,
    xtol: float = 1e-12,
) -> RootResult:
    """Bisection root of ``f`` on [lo, hi]; endpoints must bracket a sign change.

    Stops at width ``xtol`` or once lo and hi are adjacent floats and the
    midpoint can no longer split the bracket, which takes at most about
    2,100 halvings of any float bracket (1,100 of [0, 1]).
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return RootResult(lo, 0.0, 0)
    if fhi == 0.0:
        return RootResult(hi, 0.0, 0)
    if _same_sign(flo, fhi):
        raise BracketError(f"no sign change on [{lo!r}, {hi!r}]: f={flo!r}, {fhi!r}")
    it = 0
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        fm = f(mid)
        it += 1
        if fm == 0.0:
            lo = hi = mid
            break
        if _same_sign(fm, flo):
            lo, flo = mid, fm
        else:
            hi = mid
    root = 0.5 * (lo + hi)
    return RootResult(root, abs(f(root)), it)


def geometric_grid(npts: int, tmin: float = 1e-9, tmax_gap: float = 1e-14) -> np.ndarray:
    """Grid on (0, 1) that is dense near both endpoints.

    Uniform points plus log-spaced points toward 0 and geometrically spaced
    points toward 1; minimizers of threshold objectives drift into the
    boundary layer at 1 for large tensor order, so uniform grids miss them.
    """
    uniform = np.linspace(tmin, 1.0 - 1e-9, npts)
    toward0 = 10.0 ** np.linspace(math.log10(tmin), -0.3, npts // 4)
    toward1 = 1.0 - 10.0 ** np.linspace(math.log10(tmax_gap), -0.3, npts // 4)
    return np.unique(np.concatenate([uniform, toward0, toward1]))
