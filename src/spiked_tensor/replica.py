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

Gaussian expectations use a composite Gauss-Legendre rule against the
explicit normal density on [-10, 10]; the integrands (tanh, log cosh) are
smooth with bounded growth, and the rule is validated by moment tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .solvers import BracketError, bisect_root
from .tensors import SNR_MAX

MU_SCAN_POINTS = 2000
THRESHOLD_TOL = 1e-6
# fixed points are solved for snr in this range, where no step over- or
# underflows for d = 2..10^6; far past it the mu grid and the root scans do
SNR_RANGE = (1e-6, SNR_MAX)


@dataclass(frozen=True)
class GaussQuadrature:
    """Nodes/weights approximating E over a standard normal z."""

    nodes: np.ndarray
    weights: np.ndarray

    @staticmethod
    def build() -> "GaussQuadrature":
        """3 panels of 67-point Gauss-Legendre on [-10, 10]."""
        x, w = np.polynomial.legendre.leggauss(67)
        edges = np.linspace(-10.0, 10.0, 4)
        nodes, weights = [], []
        for a, b in zip(edges[:-1], edges[1:]):
            nodes.append(0.5 * (b - a) * x + 0.5 * (a + b))
            weights.append(0.5 * (b - a) * w)
        z = np.concatenate(nodes)
        w = np.concatenate(weights) * np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
        z.setflags(write=False)
        w.setflags(write=False)
        quad = GaussQuadrature(z, w)
        quad.validate()
        return quad

    def validate(self) -> None:
        moments = [float(np.sum(self.weights * self.nodes**k)) for k in range(5)]
        if abs(moments[0] - 1.0) > 1e-12 or abs(moments[2] - 1.0) > 1e-10:
            raise RuntimeError(f"quadrature sanity failure: moments {moments}")
        if abs(moments[1]) > 1e-10 or abs(moments[3]) > 1e-8 or abs(moments[4] - 3.0) > 1e-8:
            raise RuntimeError(f"quadrature sanity failure: moments {moments}")

    def expect(self, values: np.ndarray) -> float | np.ndarray:
        return values @ self.weights


@lru_cache(maxsize=1)
def default_quadrature() -> GaussQuadrature:
    return GaussQuadrature.build()


def q_of_mu_rademacher(mu: float) -> float:
    """E_z tanh(mu + sqrt(mu) z); equals E_z tanh^2 on the Nishimori line."""
    if mu < 0:
        raise ValueError(f"mu must be >= 0, got {mu}")
    if mu == 0.0:
        return 0.0
    quad = default_quadrature()
    arg = mu + math.sqrt(mu) * quad.nodes
    return float(quad.expect(np.tanh(arg)))


def _q_batch(mus: np.ndarray) -> np.ndarray:
    quad = default_quadrature()
    arg = mus[:, None] + np.sqrt(mus)[:, None] * quad.nodes[None, :]
    return np.tanh(arg) @ quad.weights


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
        quad = default_quadrature()
        # log(2 cosh x) = |x| + log1p(e^(-2|x|)) does not overflow at large |x|
        x = np.abs(mu + math.sqrt(mu) * quad.nodes)
        expectation = float(quad.expect(x + np.log1p(np.exp(-2.0 * x))))
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
    return np.flatnonzero((left == 0.0) | (left * vals[1:] < 0))


def _phi_scan(d: int, snr: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """phi(mu) = d q(mu)^(d-1) - 2 mu / snr^2 on the mu grid, and its root cells.

    phi < 0 at the grid's last point (d q^(d-1) <= d < 20 d), so the cells
    hold every grid zero and sign change: nonzero solutions exist iff any.
    """
    mus = _mu_grid(d, snr)
    phi = d * _q_batch(mus) ** (d - 1) - 2.0 * mus / snr**2
    return mus, phi, _root_cells(phi)


def _check_snr(snr: float) -> None:
    lo, hi = SNR_RANGE
    if not lo <= snr <= hi:
        raise ValueError(f"snr (--lambda) must lie in [{lo:g}, {hi:g}], got {snr!r}")


def rademacher_fixed_points(d: int, snr: float) -> list[ReplicaSolution]:
    """All solutions at (d, snr): the zero branch plus any nonzero roots.

    Nonzero roots are the sign changes of d q(mu)^(d-1) - 2 mu / snr^2 on a
    log+linear mu grid, polished by bisection; branches are labeled low/high
    by mu.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    _check_snr(snr)
    mus, phi, cells = _phi_scan(d, snr)

    def phi_scalar(mu: float) -> float:
        return d * q_of_mu_rademacher(mu) ** (d - 1) - 2.0 * mu / snr**2

    roots: list[float] = []
    for i in cells:
        if phi[i] == 0.0:
            roots.append(float(mus[i]))
        else:
            res = bisect_root(
                phi_scalar, float(mus[i]), float(mus[i + 1]), xtol=1e-13 * max(1.0, mus[i + 1])
            )
            roots.append(res.root)

    out = [ReplicaSolution(d, snr, "zero", 0.0, 0.0, rademacher_free_energy(d, snr, 0.0, 0.0), 0.0)]
    labels = _branch_labels(len(roots))
    for mu, label in zip(sorted(roots), labels):
        q = q_of_mu_rademacher(mu)
        # q = q(mu) holds by construction, so only the mu equation has a residual
        residual = abs(mu - 0.5 * snr**2 * d * q ** (d - 1))
        out.append(
            ReplicaSolution(
                d, snr, label, q, mu, rademacher_free_energy(d, snr, q, mu), residual
            )
        )
    return out


def _branch_labels(count: int) -> list[str]:
    if count == 0:
        return []
    if count == 1:
        return ["high"]
    return ["low"] * (count - 1) + ["high"]


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
        return _phi_scan(d, snr)[2].size > 0

    lo, hi = 0.05, 1.0
    while not exists(hi):
        hi *= 2.0
        if hi > SNR_MAX:
            raise BracketError(f"no nonzero replica solutions found up to snr={hi}")
    if exists(lo):
        lo = 1e-3
    while hi - lo > THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if exists(mid):
            hi = mid
        else:
            lo = mid
    lambda1 = 0.5 * (lo + hi)

    def gap(snr: float) -> float | None:
        sols = rademacher_fixed_points(d, snr)
        nonzero = [s for s in sols if s.branch != "zero"]
        if not nonzero:
            return None
        high = max(nonzero, key=lambda s: s.mu)
        return high.free_energy - sols[0].free_energy

    lambda2 = _crossing(gap, lambda1)
    return lambda1, lambda2


def _crossing(gap, lambda1: float) -> float:
    """snr where the high branch's free energy crosses the zero branch's."""
    a = lambda1 * (1.0 + 1e-9) + 1e-12
    ga = gap(a)
    if ga is None:
        a = lambda1 + 10 * THRESHOLD_TOL
        ga = gap(a)
        if ga is None:
            raise BracketError(f"high branch vanished just above lambda1={lambda1}")
    if ga <= 0.0:
        return a  # crossing coincides with the appearance point (continuous case)
    b = a * 1.1
    while True:
        gb = gap(b)
        if gb is not None and gb < 0.0:
            break
        b *= 1.1
        if b > SNR_MAX:
            raise BracketError("free-energy crossing not bracketed")
    while b - a > THRESHOLD_TOL:
        mid = 0.5 * (a + b)
        gm = gap(mid)
        if gm is None or gm > 0.0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# spherical prior
# ---------------------------------------------------------------------------

def spherical_free_energy(d: int, snr: float, q: float) -> float:
    return (1.0 / snr) * (
        -(snr**2 / 4.0) * (q**d + 1.0) - 0.5 * q - 0.5 * math.log1p(-q)
    )


def spherical_fixed_points(d: int, snr: float) -> list[ReplicaSolution]:
    """Zero branch plus roots of (snr^2/2) d q^(d-1)(1-q) = q on (0,1)."""
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    _check_snr(snr)

    def psi(q: float) -> float:
        # divided through by q; valid for locating roots in (0,1)
        return 0.5 * snr**2 * d * q ** (d - 2) * (1.0 - q) - 1.0

    qs = np.linspace(1e-9, 1.0 - 1e-12, 4000)
    vals = 0.5 * snr**2 * d * qs ** (d - 2) * (1.0 - qs) - 1.0
    roots: list[float] = []
    for i in _root_cells(vals):
        if vals[i] == 0.0:
            roots.append(float(qs[i]))
        else:
            res = bisect_root(psi, float(qs[i]), float(qs[i + 1]), xtol=1e-15)
            roots.append(res.root)

    out = [ReplicaSolution(d, snr, "zero", 0.0, math.nan, spherical_free_energy(d, snr, 0.0), 0.0)]
    for q, label in zip(sorted(roots), _branch_labels(len(roots))):
        residual = abs(0.5 * snr**2 * d * q ** (d - 1) * (1.0 - q) - q)
        out.append(
            ReplicaSolution(d, snr, label, q, math.nan, spherical_free_energy(d, snr, q), residual)
        )
    return out


def spherical_appearance_snr(d: int) -> float:
    """snr where nonzero spherical solutions first exist (exact stationarity)."""
    if d == 2:
        return 1.0
    q_peak = (d - 2.0) / (d - 1.0)
    return math.sqrt(2.0 / (d * q_peak ** (d - 2) * (1.0 - q_peak)))


def spherical_replica_threshold(d: int) -> float:
    """Predicted spherical detection threshold: free-energy crossing point.

    At d = 2 it is exactly 1, where the nonzero solution q = 1 - 1/snr^2
    departs continuously from zero.
    """
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    if d == 2:
        return 1.0
    lambda1 = spherical_appearance_snr(d)

    def gap(snr: float) -> float | None:
        sols = spherical_fixed_points(d, snr)
        nonzero = [s for s in sols if s.branch != "zero"]
        if not nonzero:
            return None
        high = max(nonzero, key=lambda s: s.q)
        return high.free_energy - sols[0].free_energy

    return _crossing(gap, lambda1)
