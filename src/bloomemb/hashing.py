"""The projection family mapping items {1..d} to embedding positions {1..m}.

A hash matrix is a pre-computed d x k table whose rows are drawn uniformly
at random without replacement from {1..m}, so the k projections of an item
are pairwise distinct. Rows are stored in RAM and looked up in O(1). The
matrix file formats live in :mod:`bloomemb.codec`.

Matrices must be bit-reproducible across platforms and interpreter builds,
so all randomness on this path comes from SplitMix64 (Steele, Lea & Flood,
OOPSLA 2014): a 64-bit counter advanced by the golden gamma, finalized with
a two-round multiply-xorshift mix. The platform default RNG is not used.

* ``mix64(z)`` is the SplitMix64 finalizer; it is a bijection on 64-bit
  words and mixes a Python int or, elementwise, a uint64 array.
* A *stream* seeded with ``s`` emits ``mix64(s + GOLDEN_GAMMA)``,
  ``mix64(s + 2*GOLDEN_GAMMA)``, ...
* Row ``i`` (0-based) of a matrix with seed ``s`` uses its own stream,
  seeded with ``mix64(s + (i + 1) * GOLDEN_GAMMA)``, so every row is a pure
  function of ``(m, k, seed, i)``: the rows of any item ids, drawn alone,
  are the table's rows of those ids, so a row can be computed on the fly.
  :func:`build_hash_matrix` advances the streams of all d rows at once, as
  uint64 arrays.
* :class:`SplitMix64` is one stream that computes its outputs 4096 at a
  time as a uint64 array and hands them out as Python integers. Only the
  CBE rebuild draws from it, one pair after another.
* Bounded draws use bitmask rejection, which is exactly uniform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def _check_dims(d: int, m: int = 1, k: int = 1) -> None:
    if not 1 <= d <= 2**31 - 1:  # item and bit ids are stored as int32
        raise ValueError(f"item count d must lie in [1, 2**31 - 1], got {d}")
    if m < 1:
        raise ValueError(f"embedding dimensionality m must be >= 1, got {m}")
    if k < 1:
        raise ValueError(f"projection count k must be >= 1, got {k}")
    if k > m:
        raise ValueError(f"cannot draw {k} distinct indices from {{1..{m}}}")
    if m > d:
        raise ValueError(f"embedding dimensionality m={m} exceeds item count d={d}")


@dataclass(frozen=True)
class HashMatrix:
    """Immutable d x k table of projection indices in {1..m}."""

    d: int
    m: int
    k: int
    seed: int
    rows: np.ndarray  # (d, k) int32, 1-based, pairwise distinct per row

    def __post_init__(self):
        _check_dims(self.d, self.m, self.k)
        rows = np.asarray(self.rows)
        if rows.shape != (self.d, self.k):
            raise ValueError(
                f"rows shape {rows.shape} does not match header ({self.d}, {self.k})")
        # checked before the cast to int32, which truncates floats, wraps large ints
        if rows.dtype.kind not in "iu":
            raise ValueError(f"projection indices must be integers, got {rows.dtype}")
        if rows.min() < 1 or rows.max() > self.m:
            raise ValueError(f"projection indices must lie in [1, {self.m}]")
        rows = np.ascontiguousarray(rows, dtype=np.int32)
        if self.k > 1:
            srt = np.sort(rows, axis=1)
            if (srt[:, 1:] == srt[:, :-1]).any():
                raise ValueError("repeated index within a row")
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "seed", self.seed & MASK64)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HashMatrix):
            return NotImplemented
        return (self.d == other.d and self.m == other.m and self.k == other.k
                and self.seed == other.seed
                and np.array_equal(self.rows, other.rows))


MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
MIX_MULT_1 = 0xBF58476D1CE4E5B9
MIX_MULT_2 = 0x94D049BB133111EB


def mix64(z):
    """SplitMix64 finalizer: mix a 64-bit word into a well-distributed one.

    `z` is a Python int or a uint64 array, mixed elementwise; array
    products wrap modulo 2^64, which the masks make explicit for ints.
    """
    z = z & MASK64
    z = ((z ^ (z >> 30)) * MIX_MULT_1) & MASK64
    z = ((z ^ (z >> 27)) * MIX_MULT_2) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential SplitMix64 stream, handed out as Python integers and
    computed 4096 outputs at a time as a uint64 array."""

    __slots__ = ("_state", "_block")
    _BLOCK = 4096
    _STEPS = np.arange(1, _BLOCK + 1, dtype=np.uint64) * GOLDEN_GAMMA  # wraps mod 2**64

    def __init__(self, seed: int):
        self._state = seed & MASK64  # the counter of the last output computed
        self._block: list[int] = []  # the computed outputs not yet used, next last

    def next_u64(self) -> int:
        if not self._block:
            self._block = mix64(self._STEPS + self._state).tolist()[::-1]
            self._state = (self._state + self._BLOCK * GOLDEN_GAMMA) & MASK64
        return self._block.pop()

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n), exact via bitmask rejection."""
        if n <= 0:
            raise ValueError(f"randbelow needs n >= 1, got {n}")
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            v = self.next_u64() & mask
            if v < n:
                return v


def _build_rows(items: np.ndarray, m: int, k: int, seed: int) -> np.ndarray:
    """Draw the rows of the 0-based item ids `items`, in their order, each k
    distinct indices from {1..m} by partial Fisher-Yates.

    Each row shuffles the pool 1..m afresh from its item's stream. The streams
    of all rows advance together, one pass per projection j, and a pass
    redraws only the rows whose bounded draw was rejected. Step j swaps
    slots j and t_j >= j and outputs the value now at t_j. Only the drawn
    slots are recorded: walking back over steps i = j-1 .. 0, the value at
    a slot equal to t_i came from slot i, and a slot no step drew still
    holds its own number.
    """
    state = mix64((np.asarray(items, np.uint64) + 1) * GOLDEN_GAMMA + seed)
    draw = np.empty_like(state)
    drawn = np.empty((k, state.size), dtype=np.int64)  # row i: t_i of every row
    out = np.empty((state.size, k), dtype=np.int32)
    for j in range(k):
        n = m - j
        mask = (1 << (n - 1).bit_length()) - 1
        pending = np.arange(state.size)
        while pending.size:
            state[pending] += GOLDEN_GAMMA
            draw[pending] = mix64(state[pending]) & mask
            pending = pending[draw[pending] >= n]
        drawn[j] = at = draw.astype(np.int64) + j
        for i in range(j - 1, -1, -1):
            np.copyto(at, i, where=drawn[i] == at)
        out[:, j] = at + 1
    return out


def build_hash_matrix(d: int, m: int, k: int, seed: int) -> HashMatrix:
    """Construct the pre-computed matrix; pure function of (d, m, k, seed)."""
    _check_dims(d, m, k)
    rows = _build_rows(np.arange(d), m, k, seed & MASK64)
    return HashMatrix(d=d, m=m, k=k, seed=seed, rows=rows)


def identity_hash_matrix(d: int) -> HashMatrix:
    """The m=d, k=1 matrix mapping every item to its own position."""
    rows = np.arange(1, d + 1, dtype=np.int32).reshape(d, 1)
    return HashMatrix(d=d, m=d, k=1, seed=0, rows=rows)
