"""The projection family mapping items {1..d} to embedding positions {1..m}.

A hash matrix is a pre-computed d x k table whose rows are drawn uniformly
at random without replacement from {1..m}, so the k projections of an item
are pairwise distinct. Rows are stored in RAM and looked up in O(1). All
randomness comes from the SplitMix64 streams in :mod:`bloomemb.rng`, so
matrices are bit-reproducible across platforms for a fixed seed.

File formats (both carry the full (d, m, k, seed) header and 1-based
indices). They are pure functions of the payload: ``matrix_to_text`` and
``matrix_to_binary`` write it, and ``matrix_from_bytes`` reads either,
sniffing the magic bytes; opening files is the caller's job.

* text: one header line ``d m k seed`` followed by d lines of k
  space-separated integers;
* binary: a 16-byte header (4-byte magic ``BEH1``, then little-endian
  uint32 d, m, k), a little-endian uint64 seed, then d*k little-endian
  uint32 indices in row-major order.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .rng import MASK64, SplitMix64, row_stream_seed

_BINARY_MAGIC = b"BEH1"


def _check_dims(d: int, m: int, k: int) -> None:
    if d < 1:
        raise ValueError(f"item count d must be >= 1, got {d}")
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
        # checked before the cast to int32, which would wrap a larger index
        if rows.size and (rows.min() < 1 or rows.max() > self.m):
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


def _build_rows(d: int, m: int, k: int, seed: int) -> np.ndarray:
    """Draw d rows of k distinct indices from {1..m} by partial Fisher-Yates.

    Each row uses its own SplitMix64 stream (see bloomemb.rng) and shuffles
    the pool 1..m afresh, so a row is a pure function of (m, k, seed, row
    index). The pool is virtual: slot s holds ``moved.get(s, s + 1)``, and
    a swap of slots j <= t records only slot t, as slot j is never read
    again.
    """
    out = np.empty((d, k), dtype=np.int32)
    for i in range(d):
        stream = SplitMix64(row_stream_seed(seed, i))
        moved: dict[int, int] = {}
        for j in range(k):
            t = j + stream.randbelow(m - j)
            out[i, j] = moved.get(t, t + 1)
            moved[t] = moved.get(j, j + 1)
    return out


def build_hash_matrix(d: int, m: int, k: int, seed: int) -> HashMatrix:
    """Construct the pre-computed matrix; pure function of (d, m, k, seed)."""
    _check_dims(d, m, k)
    rows = _build_rows(d, m, k, seed & MASK64)
    return HashMatrix(d=d, m=m, k=k, seed=seed, rows=rows)


def identity_hash_matrix(d: int) -> HashMatrix:
    """The m=d, k=1 matrix mapping every item to its own position."""
    rows = np.arange(1, d + 1, dtype=np.int32).reshape(d, 1)
    return HashMatrix(d=d, m=d, k=1, seed=0, rows=rows)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def matrix_from_bytes(data: bytes) -> HashMatrix:
    """Read a matrix_to_text or matrix_to_binary payload, sniffing the format."""
    if data[:4] == _BINARY_MAGIC:
        return _from_binary(data)
    return _from_text(data.decode("ascii"))


def matrix_to_text(matrix: HashMatrix) -> str:
    return f"{matrix.d} {matrix.m} {matrix.k} {matrix.seed}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in matrix.rows.tolist())


def _from_text(text: str) -> HashMatrix:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty hash-matrix file")
    header = lines[0].split()
    if len(header) != 4:
        raise ValueError(f"malformed header {lines[0]!r}, expected 'd m k seed'")
    d, m, k, seed = (int(v) for v in header)
    body = [(lineno, ln) for lineno, ln in enumerate(lines[1:], start=2)
            if ln.strip()]
    if len(body) != d:
        raise ValueError(f"header declares {d} rows, file has {len(body)}")
    rows = np.empty((d, k), dtype=np.int32)
    for i, (lineno, ln) in enumerate(body):
        parts = ln.split()
        if len(parts) != k:
            raise ValueError(f"line {lineno}: {len(parts)} indices, expected {k}")
        try:
            rows[i] = [int(v) for v in parts]
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    return HashMatrix(d=d, m=m, k=k, seed=seed, rows=rows)


def matrix_to_binary(matrix: HashMatrix) -> bytes:
    header = _BINARY_MAGIC + struct.pack("<III", matrix.d, matrix.m, matrix.k)
    seed = struct.pack("<Q", matrix.seed)
    body = matrix.rows.astype("<u4").tobytes(order="C")
    return header + seed + body


def _from_binary(data: bytes) -> HashMatrix:
    if len(data) < 24:
        raise ValueError("truncated hash-matrix file: incomplete header")
    d, m, k = struct.unpack("<III", data[4:16])
    (seed,) = struct.unpack("<Q", data[16:24])
    expected = 24 + 4 * d * k
    if len(data) != expected:
        raise ValueError(
            f"truncated hash-matrix file: expected {expected} bytes, got {len(data)}")
    rows = np.frombuffer(data, dtype="<u4", offset=24).reshape(d, k)
    return HashMatrix(d=d, m=m, k=k, seed=seed, rows=rows)
