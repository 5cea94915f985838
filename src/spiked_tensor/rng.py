"""Reproducible RNG stream derivation.

Every sample in the library is a deterministic function of an
:class:`RngSeed` (a 64-bit master seed plus a stream counter).  Streams are
derived hierarchically through ``numpy.random.SeedSequence`` spawn keys, so
results are identical across runs, platforms and thread counts.

Stream conventions used throughout the package:

* substream 0 of a seed draws the spike, substream 1 draws the noise tensor
  (so a spiked sample and a pure-noise sample under the same seed share the
  same noise realization), substream 2 draws the restart vectors of the
  d >= 3 ascent (a d = 2 estimate is one eigensolve and draws none);
* Monte Carlo experiments give trial ``k`` the stream offset ``2 + k``
  (paired designs use ``2 + 2k`` for the spiked arm and ``3 + 2k`` for the
  unspiked arm);
* ``simulate tails`` draws the spike pairs of chunk ``c`` (10,000 pairs per
  chunk) from offset ``2 + c`` on substream 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

SPIKE_SUBSTREAM = 0
NOISE_SUBSTREAM = 1
RESTART_SUBSTREAM = 2


@dataclass(frozen=True)
class RngSeed:
    """Master seed plus stream counter; equal values reproduce equal samples."""

    seed: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= int(self.seed) < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not 0 <= int(self.stream) < 2**64:
            raise ValueError(f"stream must be a 64-bit unsigned integer, got {self.stream}")

    def offset(self, k: int) -> "RngSeed":
        """Seed for trial/arm ``k`` relative to this stream."""
        return RngSeed(self.seed, self.stream + k)

    def generator(self, substream: int = 0) -> np.random.Generator:
        seq = np.random.SeedSequence(
            entropy=int(self.seed), spawn_key=(int(self.stream), int(substream))
        )
        return np.random.default_rng(seq)
