"""Sampling and elementary algebra for spiked symmetric Gaussian tensors.

The noise model is the permutation average of an asymmetric precursor with
iid N(0, 2/n) entries, drawn directly from its law: an entry whose sorted
index has an orbit of c distinct index orders is N(0, 2/(n c)), and entries
in different orbits are independent.  Under this normalization
``<W, x^{(x)d}> ~ N(0, 2/n)`` for every unit vector x, and a distinct-index
entry has variance 2/(n d!).  For d=2 this is the usual Gaussian Wigner
matrix (off-diagonal N(0,1/n), diagonal N(0,2/n)).

Spiked samples are ``T = snr * x^{(x)d} + W`` with the spike x drawn from one
of three priors: uniform on the sphere, iid +-1/sqrt(n) (k = n), or sparse with
exactly k = round(rho*n) nonzero entries equal to +-1/sqrt(k).

Storage is a dense n^d array, built by one gather from one value per orbit
(a noise draw, a spike product x_i1 ... x_id, or the spiked sum of the two),
so permuted reads are bit-for-bit identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from .rng import NOISE_SUBSTREAM, SPIKE_SUBSTREAM, RngSeed

MEMORY_CAP = 10**8  # scalars; d * n^d (the orbit table's indices) above this refuses to allocate
NDIM_LIMIT = 64 if np.lib.NumpyVersion(np.__version__) >= "2.0.0" else 32  # numpy's maximum ndim
SNR_MAX = 1e6  # largest snr sampled or solved for; far past it snr^2 and power steps overflow

PRIOR_KINDS = ("spherical", "rademacher", "sparse_rademacher")


class MemoryCapError(ValueError):
    """Requested dense tensor's index arrays exceed the scalar budget MEMORY_CAP."""


class DimensionMismatchError(ValueError):
    pass


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


@dataclass(frozen=True)
class SpikePrior:
    """Tagged spike prior: spherical | rademacher | sparse_rademacher(rho)."""

    kind: str
    rho: float | None = None

    def __post_init__(self):
        if self.kind not in PRIOR_KINDS:
            raise ValueError(f"unknown prior kind {self.kind!r}")
        if self.kind == "sparse_rademacher":
            if self.rho is None or not 0.0 < self.rho <= 1.0:
                raise ValueError("sparse_rademacher requires rho in (0, 1]")
        elif self.rho is not None:
            raise ValueError(f"rho only applies to sparse_rademacher, got kind={self.kind!r}")

    @staticmethod
    def spherical() -> "SpikePrior":
        return SpikePrior("spherical")

    @staticmethod
    def rademacher() -> "SpikePrior":
        return SpikePrior("rademacher")

    @staticmethod
    def sparse(rho: float) -> "SpikePrior":
        return SpikePrior("sparse_rademacher", rho)

    @property
    def is_discrete(self) -> bool:
        return self.kind != "spherical"

    def support_size(self, n: int) -> int:
        """Exact cardinality C(n, k) 2^k of the support at dimension n (discrete priors)."""
        if not self.is_discrete:
            raise ValueError("spherical prior has no finite support")
        k = self.nonzeros(n)
        return math.comb(n, k) * 2**k

    def nonzeros(self, n: int) -> int:
        """Nonzero entries k of a sample: n, or round-half-up(rho*n) >= 1 (sparse)."""
        if self.kind != "sparse_rademacher":
            return n
        k = round_half_up(self.rho * n)
        if k < 1:
            raise ValueError(f"empty support: round(rho*n) = {k} for rho={self.rho}, n={n}")
        return k

    def label(self) -> str:
        if self.kind == "sparse_rademacher":
            return f"sparse_rademacher(rho={self.rho:g})"
        return self.kind


@dataclass(frozen=True)
class UnitVector:
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        nrm = float(np.linalg.norm(coords))
        if abs(nrm - 1.0) > 1e-12:
            raise ValueError(f"not a unit vector: |norm - 1| = {abs(nrm - 1.0):.3e}")
        coords.setflags(write=False)
        object.__setattr__(self, "coords", coords)

    @property
    def n(self) -> int:
        return self.coords.shape[0]


# A table is n^d orbit numbers plus d indices and a scale per orbit.  Six hold every
# order of a run that cycles through (14..18, 3) and (8, 6), whose (8, 6) table takes
# about 15 ms to build on a 2-core x86 machine, without letting a process keep every
# order it samples (one per bbp task, up to 2.8 MB each at n = 450).
@lru_cache(maxsize=6)
def _orbit_table(n: int, d: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The orbit number of every entry (orbits in flat order of their sorted index),
    each orbit's sorted index as d rows, and the noise scale sqrt(2 / (n c)) of each
    orbit of c entries.  The arrays are shared by every caller, so they are read-only."""
    idx = np.indices((n,) * d, dtype=np.min_scalar_type(n)).reshape(d, -1)
    low = np.empty_like(idx[0])
    for p in range(d):  # odd-even transposition: d passes of min/max sort every column
        for a, b in zip(idx[p % 2 : -1 : 2], idx[p % 2 + 1 :: 2]):
            np.minimum(a, b, out=low)
            np.maximum(a, b, out=b)
            a[...] = low
    flat = np.ravel_multi_index(tuple(idx), (n,) * d)  # each entry's sorted index
    size = np.bincount(flat)  # c at each sorted index, 0 elsewhere
    first = size > 0  # at a sorted index p, column p of idx is p itself
    rows, scale = idx[:, first], np.sqrt(2.0 / (n * size[first]))
    number = np.cumsum(first, out=size)  # 1 + orbit number at each sorted index
    number -= 1
    orbit = number[flat]
    for table in (orbit, rows, scale):
        table.setflags(write=False)
    return orbit, rows, scale


def check_memory_cap(n: int, d: int) -> None:
    """Reject orders whose d index arrays of n^d entries (the orbit table's index
    stack) exceed MEMORY_CAP; at d >= 2 that also bounds the table's n^d orbit
    numbers and the n^d entries of each tensor built from it."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if d < 2:
        raise ValueError(f"d must be >= 2, got {d}")
    # n >= 2 has n^k > MEMORY_CAP at k = MEMORY_CAP.bit_length(): capping the
    # exponent there keeps the test exact without forming n^d
    if d * n ** min(d, MEMORY_CAP.bit_length()) > MEMORY_CAP:
        raise MemoryCapError(
            f"n={n}, d={d}: d*n^d index entries exceed the memory cap {MEMORY_CAP}"
        )
    if d >= NDIM_LIMIT:  # np.indices stacks the d index arrays into d + 1 dimensions
        raise ValueError(f"d={d} must be below numpy's limit of {NDIM_LIMIT} array dimensions")


@dataclass(frozen=True)
class SymmetricTensor:
    """Dense order-d symmetric tensor; reads are bit-identical under index permutation."""

    n: int
    d: int
    entries: np.ndarray = field(repr=False)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (self.n,) * self.d:
            raise DimensionMismatchError(
                f"entries shape {entries.shape} != {(self.n,) * self.d}"
            )
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)


def _gather(n: int, d: int, values: np.ndarray) -> SymmetricTensor:
    """The tensor whose every entry is the value of its orbit."""
    return SymmetricTensor(n, d, values[_orbit_table(n, d)[0]].reshape((n,) * d))


def _rank_one_values(x: np.ndarray, d: int) -> np.ndarray:
    """x_i1 ... x_id per orbit, in sorted index order: ((x_i1 x_i2) x_i3) ..."""
    return reduce(np.multiply, (x[row] for row in _orbit_table(x.size, d)[1]))


def _noise_values(n: int, d: int, seed: RngSeed) -> np.ndarray:
    """One N(0, 2/(n c)) draw per orbit of c entries, in orbit order, on the noise stream."""
    scale = _orbit_table(n, d)[2]
    return seed.generator(NOISE_SUBSTREAM).standard_normal(scale.size) * scale


def rank_one(x: UnitVector, d: int) -> SymmetricTensor:
    """x^{(x)d} with bit-exact symmetry: one product per orbit, gathered."""
    check_memory_cap(x.n, d)
    return _gather(x.n, d, _rank_one_values(x.coords, d))


def sample_wigner(n: int, d: int, seed: RngSeed) -> SymmetricTensor:
    """Symmetric noise: one N(0, 2/(n c)) draw per orbit of c entries; deterministic in the seed."""
    check_memory_cap(n, d)
    return _gather(n, d, _noise_values(n, d, seed))


def sample_spike(prior: SpikePrior, n: int, seed: RngSeed) -> UnitVector:
    """Row 0 of a one-row sample_spike_batch on the seed's spike stream."""
    return UnitVector(sample_spike_batch(prior, n, 1, seed.generator(SPIKE_SUBSTREAM))[0])


def sample_spike_batch(
    prior: SpikePrior, n: int, count: int, rng: np.random.Generator
) -> np.ndarray:
    """(count, n) array of spikes drawn in one stream; rows follow the prior.
    A discrete row is its sample_sign_draws draws as +-1/sqrt(k) on its support."""
    if prior.kind == "spherical":
        g = rng.standard_normal((count, n))
        return g / np.linalg.norm(g, axis=1, keepdims=True)
    support, bits = sample_sign_draws(prior, n, count, rng)
    signs = (2.0 * bits - 1.0) / math.sqrt(bits.shape[1])
    if support is None:
        return signs
    rows = np.zeros((count, n))
    np.put_along_axis(rows, support, signs, axis=1)
    return rows


def sample_sign_draws(
    prior: SpikePrior, n: int, count: int, rng: np.random.Generator
) -> tuple[np.ndarray | None, np.ndarray]:
    """The draws behind ``count`` spikes of a discrete prior: each row's k support
    coordinates as a (count, k) array (None when k = n, as for Rademacher: no
    support is drawn) and its (count, k) bool sign draws, True for +1/sqrt(k) and
    False for -1/sqrt(k).  The support comes first on the stream, from one uniform
    per coordinate; the signs follow.

    The signs are ``rng.integers(0, 2, size=(count, k))`` bit for bit, without its
    per-draw loop: Lemire's bounded draw on {0, 1} is the top bit of one 32-bit
    word, and PCG64 (``default_rng``'s generator) hands out 32-bit words as the
    low, then the high half of each raw 64-bit output.  That holds while ``rng``
    caches no spare half-word, as after only 64-bit draws (``random``).  The
    128-bit state afterwards is the one ``integers`` leaves; only the spare
    half-word ``integers`` caches when count * k is odd is not kept, so a later
    32-bit draw on ``rng`` would differ."""
    k = prior.nonzeros(n)
    support = None if k == n else np.argsort(rng.random((count, n)), axis=1)[:, :k]
    raw = rng.bit_generator.random_raw((count * k + 1) // 2)
    words = raw.astype("<u8", copy=False).view("<i4")  # 32-bit halves, low half first
    return support, (words[: count * k] < 0).reshape(count, k)


def check_snr(snr: float) -> None:
    """A sampled snr lies in [0, SNR_MAX]; nan and inf do not."""
    if not 0 <= snr <= SNR_MAX:
        raise ValueError(f"snr (--lambda) must lie in [0, {SNR_MAX:g}], got {snr!r}")


def sample_spiked(
    prior: SpikePrior, n: int, d: int, snr: float, seed: RngSeed
) -> tuple[UnitVector, SymmetricTensor]:
    """Spike x and sample snr * x^{(x)d} + W; spike and noise use split streams."""
    check_snr(snr)
    check_memory_cap(n, d)
    x = sample_spike(prior, n, seed)
    values = _noise_values(n, d, seed)
    if snr != 0.0:  # snr = 0 is sample_wigner's tensor bit for bit
        values = snr * _rank_one_values(x.coords, d) + values
    return x, _gather(n, d, values)


def rank_one_inner(tensor: SymmetricTensor, x: UnitVector) -> float:
    """<T, x^{(x)d}>: full contraction against the rank-one frame of x."""
    return float(contract(tensor, x.coords) @ x.coords)


def contract(tensor: SymmetricTensor, x: np.ndarray) -> np.ndarray:
    """Contract all but the last index: v_j = sum T[i_1..i_{d-1}, j] x_{i_1}..x_{i_{d-1}}.

    ``x`` is an (n,) vector or an (m, n) block of rows, and the result has
    its shape.  One gemm reduces the leading index of the whole block, an
    einsum each further one.  <contract(T, x), x> = <T, x^{(x)d}>, and for
    odd d contract(T, -x) = contract(T, x) bit for bit (negation is exact).
    """
    block = x.reshape(-1, x.shape[-1])
    if block.shape[1] != tensor.n:
        raise DimensionMismatchError(f"tensor n={tensor.n} vs vector n={block.shape[1]}")
    return contract_leading(tensor.entries, block, tensor.d - 1).reshape(x.shape)


def contract_leading(entries: np.ndarray, block: np.ndarray, times: int) -> np.ndarray:
    """Contract the leading ``times`` >= 1 indices of ``entries`` against each row of
    the (m, n) ``block``: an (m, r) array, r the size of the remaining indices.

    One gemm reduces the first index, an einsum each further one, so no
    (m, n^times) outer power of the rows is formed.
    """
    m, n = block.shape
    values = block @ entries.reshape(n, -1)
    for _ in range(times - 1):
        values = np.einsum("mjr,mj->mr", values.reshape(m, n, -1), block)
    return values
