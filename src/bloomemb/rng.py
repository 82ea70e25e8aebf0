"""Portable deterministic random number generation.

Hash matrices must be bit-reproducible across platforms and interpreter
builds, so everything that feeds them is derived from SplitMix64 (Steele,
Lea & Flood, OOPSLA 2014): a 64-bit counter advanced by the golden gamma,
finalized with a two-round multiply-xorshift mix. The platform default RNG
is deliberately not used anywhere on this path.

Layout of the streams used by the package:

* ``mix64(z)`` is the SplitMix64 finalizer; it is a bijection on 64-bit
  words.
* A *stream* seeded with ``s`` emits ``mix64(s + GOLDEN_GAMMA)``,
  ``mix64(s + 2*GOLDEN_GAMMA)``, ...
* Row ``i`` (0-based) of a hash matrix with seed ``s`` uses an independent
  stream seeded with ``mix64(s + (i + 1) * GOLDEN_GAMMA)``, which makes
  every row a pure function of ``(m, k, seed, i)`` and therefore
  random-access.
* Bounded draws use bitmask rejection, which is exactly uniform.

:func:`bloomemb.hashing.build_hash_matrix` draws every hash-matrix row from
these streams; the test suite pins its output to frozen values.
"""

from __future__ import annotations

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX_MULT_1 = 0xBF58476D1CE4E5B9
MIX_MULT_2 = 0x94D049BB133111EB


def mix64(z: int) -> int:
    """SplitMix64 finalizer: mix a 64-bit word into a well-distributed one."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * MIX_MULT_1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_MULT_2) & MASK64
    return z ^ (z >> 31)


def row_stream_seed(seed: int, row: int) -> int:
    """Seed of the independent SplitMix64 stream that generates matrix row `row`."""
    return mix64((seed + (row + 1) * GOLDEN_GAMMA) & MASK64)


class SplitMix64:
    """Sequential SplitMix64 stream over Python integers."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN_GAMMA) & MASK64
        return mix64(self._state)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), exact via bitmask rejection."""
        if n <= 0:
            raise ValueError(f"randbelow needs n >= 1, got {n}")
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            v = self.next_u64() & mask
            if v < n:
                return v
