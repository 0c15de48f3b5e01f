"""Reproducible randomness via a splittable counter-based generator.

Every random draw in the package flows through a SeedSpec.  The
underlying bit generator is Philox (counter based), keyed by the 64-bit
seed and a small stream id, so identical specs give bit-identical
output on every platform and no code ever touches global RNG state.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import index

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _splitmix64(x: int) -> int:
    x = (x + _GOLDEN) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(frozen=True)
class SeedSpec:
    """A 64-bit seed plus a stream id distinguishing independent
    randomness consumers (e.g. base-graph draw vs edge augmentation)."""

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        # a bool or a float would draw a stream and hash as another value
        for field in ("seed", "stream_id"):
            value = getattr(self, field)
            try:
                if isinstance(value, bool):
                    raise TypeError
                object.__setattr__(self, field, index(value))
            except TypeError:
                raise ValueError(f"{field} must be an integer, got {value!r}") from None
        if not (0 <= self.seed <= _MASK64):
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if not (0 <= self.stream_id <= _MASK64):
            raise ValueError(f"stream_id must be nonnegative, got {self.stream_id}")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))

    def stream(self, stream_id: int) -> "SeedSpec":
        """Same seed, different independent consumer."""
        return SeedSpec(self.seed, stream_id)

    def derive(self, *indices: int) -> "SeedSpec":
        """Child seed for a structured sub-experiment, e.g.
        master.derive(trial_index).  Deterministic."""
        s = _splitmix64(self.seed ^ _splitmix64(self.stream_id))
        for ix in indices:
            if ix < 0:
                raise ValueError(f"derivation indices must be nonnegative, got {ix}")
            s = _splitmix64(s ^ _splitmix64(ix + 1))
        return SeedSpec(s, 0)


def as_seed(value) -> SeedSpec:
    """value as a SeedSpec; anything but a SeedSpec or an integer seed is
    a ValueError."""
    return value if isinstance(value, SeedSpec) else SeedSpec(value)
