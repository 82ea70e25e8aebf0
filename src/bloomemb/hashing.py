"""The projection family mapping items {1..d} to embedding positions {1..m}.

A hash matrix is a pre-computed d x k table whose rows are drawn uniformly
at random without replacement from {1..m}, so the k projections of an item
are pairwise distinct. Rows are stored in RAM and looked up in O(1). All
randomness comes from the SplitMix64 streams in :mod:`bloomemb.rng`, so
matrices are bit-reproducible across platforms for a fixed seed.

File formats (both carry the full (d, m, k, seed) header and 1-based
indices; ``load_hash_matrix`` sniffs the magic bytes):

* text: one header line ``d m k seed`` followed by d lines of k
  space-separated integers;
* binary: a 16-byte header (4-byte magic ``BEH1``, then little-endian
  uint32 d, m, k), a little-endian uint64 seed, then d*k little-endian
  uint32 indices in row-major order.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from pathlib import Path

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
        rows = np.ascontiguousarray(self.rows, dtype=np.int32)
        if rows.shape != (self.d, self.k):
            raise ValueError(
                f"rows shape {rows.shape} does not match header ({self.d}, {self.k})")
        if rows.size and (rows.min() < 1 or rows.max() > self.m):
            raise ValueError(f"projection indices must lie in [1, {self.m}]")
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

    Each row uses its own SplitMix64 stream (see bloomemb.rng); the swaps are
    undone after every row so the shared pool stays pristine, which keeps a
    row a pure function of (m, k, seed, row index).
    """
    out = np.empty((d, k), dtype=np.int32)
    pool = list(range(1, m + 1))
    targets = [0] * k
    for i in range(d):
        stream = SplitMix64(row_stream_seed(seed, i))
        for j in range(k):
            t = j + stream.randbelow(m - j)
            pool[j], pool[t] = pool[t], pool[j]
            out[i, j] = pool[j]
            targets[j] = t
        for j in range(k - 1, -1, -1):
            t = targets[j]
            pool[j], pool[t] = pool[t], pool[j]
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


def load_hash_matrix(source) -> HashMatrix:
    """Read a matrix_to_text or matrix_to_binary payload, sniffing the format."""
    if hasattr(source, "read"):
        data = source.read()
        if isinstance(data, str):
            data = data.encode("ascii")
    else:
        data = Path(source).read_bytes()
    if data[:4] == _BINARY_MAGIC:
        return _from_binary(data)
    return _from_text(data.decode("ascii"))


def matrix_to_text(matrix: HashMatrix) -> str:
    buf = io.StringIO()
    buf.write(f"{matrix.d} {matrix.m} {matrix.k} {matrix.seed}\n")
    for row in matrix.rows:
        buf.write(" ".join(str(int(v)) for v in row))
        buf.write("\n")
    return buf.getvalue()


def _from_text(text: str) -> HashMatrix:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty hash-matrix file")
    header = lines[0].split()
    if len(header) != 4:
        raise ValueError(f"malformed header {lines[0]!r}, expected 'd m k seed'")
    d, m, k, seed = (int(v) for v in header)
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != d:
        raise ValueError(f"header declares {d} rows, file has {len(body)}")
    rows = np.empty((d, k), dtype=np.int32)
    for i, ln in enumerate(body):
        parts = ln.split()
        if len(parts) != k:
            raise ValueError(f"row {i + 1} has {len(parts)} indices, expected {k}")
        rows[i] = [int(v) for v in parts]
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
    return HashMatrix(d=d, m=m, k=k, seed=seed, rows=rows.astype(np.int32))
