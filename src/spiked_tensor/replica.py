"""Replica-symmetric fixed points and free-energy crossing thresholds.

Rademacher system (order parameter q, conjugate coupling mu):

    mu = (snr^2 / 2) d q^(d-1),     q = E_z tanh(mu + sqrt(mu) z),

free energy f = (1/snr) [ -(snr^2/4)(q^d + 1) + (mu/2)(q + 1)
                          - E_z log(2 cosh(mu + sqrt(mu) z)) ].

Spherical system:

    (snr^2 / 2) d q^(d-1) (1 - q) = q,
    f = (1/snr) [ -(snr^2/4)(q^d + 1) - q/2 - log(1 - q)/2 ].

Both admit the zero solution.  For d >= 3 two nonzero solutions appear once
snr exceeds an appearance point (lambda1); the predicted detection threshold
lambda2 >= lambda1 is where the high branch's free energy crosses the zero
branch's.  For d = 2 the nonzero solution departs continuously from zero at
snr = 1 (the eigenvalue transition) and is immediately the stable one.

Gaussian expectations E f(z) are f(NODES) @ WEIGHTS, a composite Gauss-Legendre
rule against the explicit normal density on [-10, 10]; the integrands (tanh,
log cosh) are smooth with bounded growth, and tests check the rule's moments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .solvers import BracketError, bisect_root
from .tensors import SNR_MAX, SpikePrior

MU_SCAN_POINTS = 2000
THRESHOLD_TOL = 1e-6
# fixed points are solved for snr in this range, where no step over- or
# underflows for d = 2..10^6; far past it the mu grid and the root scans do
SNR_RANGE = (1e-6, SNR_MAX)


def _normal_rule() -> tuple[np.ndarray, np.ndarray]:
    """3 panels of 67-point Gauss-Legendre on [-10, 10], weighted by the normal density."""
    x, w = np.polynomial.legendre.leggauss(67)
    edges = np.linspace(-10.0, 10.0, 4)[:, None]
    a, b = edges[:-1], edges[1:]
    z = (0.5 * (b - a) * x + 0.5 * (a + b)).ravel()
    w = (0.5 * (b - a) * w).ravel() * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    z.setflags(write=False)
    w.setflags(write=False)
    return z, w


# E f(z) over a standard normal z is f(NODES) @ WEIGHTS
NODES, WEIGHTS = _normal_rule()


def q_of_mu_rademacher(mu: float | np.ndarray) -> float | np.ndarray:
    """E_z tanh(mu + sqrt(mu) z) at a float mu, or at each entry of an array of mu.

    Equals E_z tanh^2 on the Nishimori line.  A float is one 201-term dot
    product, an array one (..., 201) @ (201,) product; the two can differ in
    the last bit.
    """
    if isinstance(mu, np.ndarray):
        if not np.all((0.0 <= mu) & (mu < math.inf)):
            raise ValueError("mu must be finite and >= 0 at every entry")
        return np.tanh(mu[..., None] + np.sqrt(mu)[..., None] * NODES) @ WEIGHTS
    if not 0.0 <= mu < math.inf:
        raise ValueError(f"mu must be finite and >= 0, got {mu}")
    return float(np.tanh(mu + np.sqrt(mu) * NODES) @ WEIGHTS)


@dataclass(frozen=True)
class ReplicaSolution:
    d: int
    snr: float
    branch: str  # zero | low | high
    q: float
    mu: float
    free_energy: float
    residual: float


def rademacher_free_energy(d: int, snr: float, q: float, mu: float) -> float:
    if mu <= 0.0:
        expectation = math.log(2.0)
    else:
        # log(2 cosh x) = |x| + log1p(e^(-2|x|)) does not overflow at large |x|
        x = np.abs(mu + math.sqrt(mu) * NODES)
        expectation = float((x + np.log1p(np.exp(-2.0 * x))) @ WEIGHTS)
    return (1.0 / snr) * (
        -(snr**2 / 4.0) * (q**d + 1.0) + 0.5 * mu * (q + 1.0) - expectation
    )


def _mu_grid(d: int, snr: float) -> np.ndarray:
    # mu = (snr^2/2) d q^(d-1) <= (snr^2/2) d bounds every solution
    hi = 10.0 * d * snr * snr
    logs = 10.0 ** np.linspace(-8, math.log10(hi), MU_SCAN_POINTS * 3 // 4)
    linear = np.linspace(1e-8, hi, MU_SCAN_POINTS // 4)
    return np.unique(np.concatenate([logs, linear]))


def _root_cells(vals: np.ndarray) -> np.ndarray:
    """Grid indices i, ascending, with vals[i] == 0 or a sign change on [i, i+1]."""
    left = vals[:-1]
    # signs, not products: a product of two values below ~1e-162 underflows to 0
    return np.flatnonzero((left == 0.0) | (np.sign(left) * np.sign(vals[1:]) < 0))


def _scan_roots(grid: np.ndarray, vals: np.ndarray, f, xtol: float,
                high_only: bool = False) -> list[float]:
    """Ascending roots of f, which takes a float, from its values vals on grid.

    Grid zeros are kept as they are; each sign change is bisected with f at
    floats to xtol * max(1, right end of its cell).  With high_only only the
    last cell, the high branch's, is: its root keeps the bits it has in the
    full list, since each cell is bisected on its own.
    """
    cells = _root_cells(vals)
    roots = []
    for i in cells[-1:] if high_only else cells:
        lo, hi = float(grid[i]), float(grid[i + 1])
        roots.append(lo if vals[i] == 0 else bisect_root(f, lo, hi, xtol=xtol * max(1.0, hi)).root)
    return roots


def _label(k: int, roots: list[float]) -> str:
    """The largest nonzero root is the high branch, any other the low one."""
    return "high" if k == len(roots) - 1 else "low"


def _phi(d: int, snr: float):
    """phi(mu) = d q(mu)^(d-1) - 2 mu / snr^2, at a float mu or an array of them.

    phi < 0 at the mu grid's last point (d q^(d-1) <= d < 20 d), so nonzero
    solutions exist iff the grid has a root cell.

    An array of mu > 0 is screened: the quadrature runs only where the bound
    q(mu) <= min(mu, 1) (1 + 1e-12) (tested in tests/test_replica.py) leaves
    d q_max^(d-1) >= mu / snr^2.  Everywhere else the unscreened value is
    below -mu / snr^2, and the screened one, with q taken as 0, is
    -2 mu / snr^2: both negative, so each grid point keeps its sign and the
    root cells do not move.  The test is written in logs, so no power over-
    or underflows.  A float mu, which the bisection polishes at, is never
    screened.
    """

    def phi(mu):
        if isinstance(mu, np.ndarray):
            log_mu = np.log(mu)
            log_q_max = np.minimum(log_mu, 0.0) + math.log1p(1e-12)
            keep = math.log(d) + (d - 1) * log_q_max >= log_mu - 2.0 * math.log(snr)
            q = np.zeros(mu.shape)
            q[keep] = q_of_mu_rademacher(mu[keep])
        else:
            q = q_of_mu_rademacher(mu)
        return d * q ** (d - 1) - 2.0 * mu / snr**2

    return phi


def _check(d: int, snr: float) -> None:
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    lo, hi = SNR_RANGE
    if not lo <= snr <= hi:
        raise ValueError(f"snr (--lambda) must lie in [{lo:g}, {hi:g}], got {snr!r}")


def rademacher_fixed_points(d: int, snr: float, *, high_only: bool = False) -> list[ReplicaSolution]:
    """All solutions at (d, snr): the zero branch plus any nonzero roots.

    Nonzero roots are the sign changes of phi(mu) (see _phi) on a
    log+linear mu grid, polished by bisection; the one with the largest mu
    is the high branch.  On the grid q(mu) is not evaluated where a bound on
    q proves phi < 0 (see _phi); those points keep their sign, so the cells,
    and the roots polished on the unscreened float path, are unchanged.
    With high_only the table holds the zero branch and the high one alone.
    """
    _check(d, snr)
    grid, phi = _mu_grid(d, snr), _phi(d, snr)
    roots = _scan_roots(grid, phi(grid), phi, 1e-13, high_only)
    out = [ReplicaSolution(d, snr, "zero", 0.0, 0.0, rademacher_free_energy(d, snr, 0.0, 0.0), 0.0)]
    for k, mu in enumerate(roots):
        q = q_of_mu_rademacher(mu)
        # q = q(mu) holds by construction, so only the mu equation has a residual
        residual = abs(mu - 0.5 * snr**2 * d * q ** (d - 1))
        out.append(ReplicaSolution(
            d, snr, _label(k, roots), q, mu, rademacher_free_energy(d, snr, q, mu), residual
        ))
    return out


def _bisect(holds, lo: float, hi: float) -> float:
    """Midpoint after halving [lo, hi] to THRESHOLD_TOL, keeping holds(hi) and not holds(lo)."""
    while hi - lo > THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def rademacher_replica_thresholds(d: int) -> tuple[float, float]:
    """(lambda1, lambda2): appearance of nonzero solutions, free-energy crossing.

    At d = 2 both are exactly 1: linearizing q(mu) = mu + O(mu^2) in
    mu = snr^2 q shows the nonzero branch departs from zero at snr = 1, and
    it is the stable one from there on.  For d >= 3 lambda1 bisects the
    existence of nonzero solutions in snr, which is monotone: just below
    every lambda1 of d = 3..200 no grid root exists.
    """
    if d == 2:
        return 1.0, 1.0

    def exists(snr: float) -> bool:
        return _root_cells(_phi(d, snr)(_mu_grid(d, snr))).size > 0

    lo, hi = 0.05, 1.0
    while not exists(hi):
        hi *= 2.0
        if hi > SNR_MAX:
            raise BracketError(f"no nonzero replica solutions found up to snr={hi}")
    if exists(lo):
        lo = 1e-3
    lambda1 = _bisect(exists, lo, hi)
    return lambda1, _crossing(lambda snr: rademacher_fixed_points(d, snr, high_only=True), lambda1)


def _crossing(solve, lambda1: float) -> float:
    """snr where the high branch's free energy crosses the zero branch's.

    solve(snr) returns the zero branch, then the high branch if the root scan
    sees one: each probe scans the grid once and bisects the high branch's
    cell alone.  The start is the first probe, from just above lambda1 out to
    lambda1 + 10^6 THRESHOLD_TOL, at which the root scan sees the high
    branch: close to lambda1 the two nonzero roots can both fall inside one
    cell of the scan's grid.  A gap <= 0 at the first probe means the
    crossing coincides with the appearance point (the continuous case); at
    a later probe it means the crossing lies before it, unresolved.
    """

    def gap(snr: float) -> float | None:
        sols = solve(snr)
        return sols[-1].free_energy - sols[0].free_energy if len(sols) > 1 else None

    def crossed(snr: float) -> bool:
        g = gap(snr)
        return g is not None and g <= 0.0

    probes = [lambda1 * (1.0 + 1e-9) + 1e-12]
    probes += [lambda1 + 10.0**k * THRESHOLD_TOL for k in range(1, 7)]
    for k, a in enumerate(probes):
        ga = gap(a)
        if ga is not None:
            break
    else:
        raise BracketError(f"the root scan finds no high branch for snr in ({lambda1!r}, {a!r}]")
    if ga <= 0.0:
        if k == 0:
            return a
        raise BracketError(f"free energies crossed before the high branch was seen at snr={a}")
    b = a * 1.1
    while not crossed(b):
        b *= 1.1
        if b > SNR_MAX:
            raise BracketError("free-energy crossing not bracketed")
    return _bisect(crossed, a, b)


# ---------------------------------------------------------------------------
# spherical prior
# ---------------------------------------------------------------------------

def spherical_free_energy(d: int, snr: float, q: float) -> float:
    return (1.0 / snr) * (
        -(snr**2 / 4.0) * (q**d + 1.0) - 0.5 * q - 0.5 * math.log1p(-q)
    )


# the spherical root scan's grid of q
Q_GRID = np.linspace(1e-9, 1.0 - 1e-12, 4000)
Q_GRID.setflags(write=False)


def _spherical_solver(d: int):
    """solve(snr, high_only=False): spherical_fixed_points at order d, with
    q^(d-2) and 1 - q on Q_GRID computed once for every snr.  The inputs are
    not checked."""
    q_pow, one_minus_q = Q_GRID ** (d - 2), 1.0 - Q_GRID

    def solve(snr: float, high_only: bool = False) -> list[ReplicaSolution]:
        def psi(q_pow, one_minus_q):
            # divided through by q; valid for locating roots in (0,1)
            return 0.5 * snr**2 * d * q_pow * one_minus_q - 1.0

        roots = _scan_roots(Q_GRID, psi(q_pow, one_minus_q), lambda q: psi(q ** (d - 2), 1.0 - q),
                            1e-15, high_only)
        out = [ReplicaSolution(d, snr, "zero", 0.0, math.nan, spherical_free_energy(d, snr, 0.0), 0.0)]
        for k, q in enumerate(roots):
            residual = abs(0.5 * snr**2 * d * q ** (d - 1) * (1.0 - q) - q)
            out.append(ReplicaSolution(
                d, snr, _label(k, roots), q, math.nan, spherical_free_energy(d, snr, q), residual
            ))
        return out

    return solve


def spherical_fixed_points(d: int, snr: float) -> list[ReplicaSolution]:
    """Zero branch plus the roots of (snr^2/2) d q^(d-1)(1-q) = q that a
    4000-point scan of q over [1e-9, 1 - 1e-12] (Q_GRID) resolves.  A root
    outside that range, or two in one cell, is missed: fixed_points refuses
    such a table, and _crossing takes a probe whose scan misses the high
    branch as one where it is not yet seen."""
    _check(d, snr)
    return _spherical_solver(d)(snr)


def spherical_appearance_snr(d: int) -> float:
    """snr where nonzero spherical solutions first exist (exact stationarity)."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    q_peak = (d - 2.0) / (d - 1.0)
    return math.sqrt(2.0 / (d * q_peak ** (d - 2) * (1.0 - q_peak)))


def spherical_replica_threshold(d: int) -> float:
    """Predicted spherical detection threshold: free-energy crossing point.

    At d = 2 it is exactly 1, where the nonzero solution q = 1 - 1/snr^2
    departs continuously from zero.
    """
    lambda1 = spherical_appearance_snr(d)
    if d == 2:
        return 1.0
    solve = _spherical_solver(d)
    return _crossing(lambda snr: solve(snr, high_only=True), lambda1)


# ---------------------------------------------------------------------------
# either prior
# ---------------------------------------------------------------------------

def _is_spherical(prior: SpikePrior) -> bool:
    if prior.kind not in ("spherical", "rademacher"):
        raise ValueError("replica solvers cover the spherical and rademacher priors only")
    return prior.kind == "spherical"


def fixed_points(prior: SpikePrior, d: int, snr: float) -> list[ReplicaSolution]:
    """Zero branch plus the nonzero solutions at (d, snr), ascending.

    A spherical table whose scan misses a branch raises BracketError: above
    spherical_appearance_snr(d) there are two nonzero solutions for d >= 3,
    one for d = 2.
    """
    if not _is_spherical(prior):
        return rademacher_fixed_points(d, snr)
    sols = spherical_fixed_points(d, snr)
    expected = (1 if d == 2 else 2) if snr > spherical_appearance_snr(d) else 0
    if len(sols) - 1 < expected:
        raise BracketError(f"the q scan resolves {len(sols) - 1} of the {expected} nonzero "
                           f"spherical branches at d={d}, snr={snr!r}")
    return sols


def replica_thresholds(prior: SpikePrior, d: int) -> tuple[float, float]:
    """(lambda1, lambda2): appearance of the nonzero branches, free-energy crossing."""
    if _is_spherical(prior):
        return spherical_appearance_snr(d), spherical_replica_threshold(d)
    return rademacher_replica_thresholds(d)
