"""Encoding of sparse binary instances and ranked recovery of item scores.

An instance is the set of active positions of a d-dimensional binary
vector. Every function works on a batch: encoding sets, for every active
position of every instance, the bits at its k projected embedding
positions, giving an (n, m) bit array. Decoding maps (n, m) probabilities
back to (n, d) per-item scores: the likelihood of item i is the product of
the probabilities at its k projections, and the negative-log variant is
the numerically stable form of the same ranking; both decoders fold the
k gathered columns in one combine. Ranking turns scores into best-first
item ids; :func:`rank_batch` serves the top-n score dumps and is the
oracle the tests hold evaluation to, while
:func:`bloomemb.experiment.evaluate_model` counts only the relevant items'
ranks, with the same tie rule. Membership never produces false negatives;
false positives occur when all k projections of an absent item collide
with set bits. The no-embedding baseline is the identity matrix (m = d, k = 1),
whose encoding is the multi-hot vector and whose likelihood decoding
returns the probabilities unchanged.

File formats:

* instance file — one instance per line, space-separated 1-based item
  positions; an empty line is the empty instance;
* embedded-vector file — one line per vector of m characters '0'/'1';
* score dump — TSV with columns instance, item, score for the top-n items
  of each decoded instance.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .hashing import HashMatrix

DEFAULT_NLL_EPSILON = 1e-12


class ScoreOrder(enum.Enum):
    DESCENDING_LIKELIHOOD = "descending-likelihood"
    ASCENDING_NLL = "ascending-nll"


@dataclass(frozen=True)
class SparseInstance:
    """Active positions p (sorted, distinct, 1-based) of a binary vector."""

    d: int
    positions: np.ndarray

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"dimensionality d must be >= 1, got {self.d}")
        pos = np.asarray(self.positions, dtype=np.int32)
        if pos.ndim != 1:
            raise ValueError("positions must be one-dimensional")
        pos = np.unique(pos)
        if pos.size and (pos[0] < 1 or pos[-1] > self.d):
            raise ValueError(f"positions must lie in [1, {self.d}]")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @classmethod
    def from_items(cls, d: int, items: Iterable[int]) -> "SparseInstance":
        return cls(d=d, positions=np.fromiter(items, dtype=np.int32))

    @property
    def c(self) -> int:
        return int(self.positions.size)

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseInstance):
            return NotImplemented
        return self.d == other.d and np.array_equal(self.positions, other.positions)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def pack_instances(instances: Sequence[SparseInstance],
                   d: int) -> tuple[np.ndarray, np.ndarray]:
    """Flatten instances to (indptr, positions) CSR-style arrays; the one
    place that checks each instance's dimensionality against d."""
    for inst in instances:
        if inst.d != d:
            raise ValueError(f"mixed dimensionalities: instance d {inst.d} != {d}")
    indptr = np.zeros(len(instances) + 1, dtype=np.int64)
    np.cumsum([inst.c for inst in instances], out=indptr[1:])
    flat = np.concatenate([np.empty(0, dtype=np.int32),
                           *(inst.positions for inst in instances)])
    return indptr, flat


def encode_batch(instances: Sequence[SparseInstance], matrix: HashMatrix) -> np.ndarray:
    """Embed instances into an (n, m) uint8 bit array; O(c*k) per instance."""
    indptr, flat = pack_instances(instances, matrix.d)
    out = np.zeros((len(instances), matrix.m), dtype=np.uint8)
    owner = np.repeat(np.arange(len(instances)), np.diff(indptr) * matrix.k)
    out[owner, matrix.rows[flat - 1].ravel() - 1] = 1
    return out


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def _probabilities(probs: np.ndarray, matrix: HashMatrix) -> np.ndarray:
    """Check the width of (n, m) probabilities and take them to float64."""
    if probs.shape[1] != matrix.m:
        raise ValueError(f"probability width {probs.shape[1]} != matrix m {matrix.m}")
    return np.ascontiguousarray(probs, dtype=np.float64)


def _combine(values: np.ndarray, matrix: HashMatrix, op: np.ufunc) -> np.ndarray:
    """(n, m) per-bit values -> (n, d) `op`-folds of each item's k columns."""
    idx = matrix.rows - 1
    out = values.take(idx[:, 0], axis=1)
    for j in range(1, matrix.k):
        op(out, values.take(idx[:, j], axis=1), out=out)
    return out


def decode_likelihood_batch(probs: np.ndarray, matrix: HashMatrix) -> np.ndarray:
    """(n, m) probabilities -> (n, d) likelihood scores; higher is better.

    Item i scores the product of the probabilities at its k projections.
    """
    return _combine(_probabilities(probs, matrix), matrix, np.multiply)


def decode_nll_batch(probs: np.ndarray, matrix: HashMatrix,
                     epsilon: float = DEFAULT_NLL_EPSILON) -> np.ndarray:
    """(n, m) probabilities -> (n, d) negative-log-likelihoods; lower is better.

    Item i scores -sum(log(max(prob, epsilon))) over its projections. For
    items whose projected probabilities all exceed epsilon, ascending order
    equals the descending likelihood order.
    """
    probs = _probabilities(probs, matrix)
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return _combine(-np.log(np.maximum(probs, epsilon)), matrix, np.add)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def rank_batch(scores: np.ndarray, ordering: ScoreOrder, top_n: int) -> np.ndarray:
    """(n, d) scores -> (n, top_n) best-first 1-based item ids.

    Ties break by ascending item index (the sort is stable).
    """
    d = scores.shape[1]
    if not 1 <= top_n <= d:
        raise ValueError(f"top_n {top_n} out of range [1, {d}]")
    key = scores if ordering is ScoreOrder.ASCENDING_NLL else -scores
    order = np.argsort(key, axis=1, kind="stable")
    return (order[:, :top_n] + 1).astype(np.int64, copy=False)


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------


def read_instances(source, d: int) -> list[SparseInstance]:
    """Parse an instance file (see module docstring)."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text()
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        try:
            items = [int(tok) for tok in line.split()]
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        out.append(SparseInstance.from_items(d, items))
    return out


def read_bit_vectors(source) -> np.ndarray:
    """Parse an embedded-vector file into an (n, m) uint8 array."""
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text()
    lines = [ln for ln in text.splitlines() if ln]
    if not lines:
        raise ValueError("empty embedded-vector file")
    m = len(lines[0])
    out = np.empty((len(lines), m), dtype=np.uint8)
    for i, ln in enumerate(lines):
        if len(ln) != m or set(ln) - {"0", "1"}:
            raise ValueError(f"line {i + 1}: expected {m} characters of 0/1")
        out[i] = np.frombuffer(ln.encode("ascii"), dtype=np.uint8) - ord("0")
    return out


def write_bit_vectors(bits: np.ndarray) -> str:
    return "".join("".join(map(str, row)) + "\n"
                   for row in bits.astype(int).tolist())


def write_scores_tsv(ranked: np.ndarray, scores: np.ndarray) -> str:
    """TSV dump of (instance, item, score) for pre-ranked top-n ids."""
    lines = ["instance\titem\tscore"]
    for i, row in enumerate(ranked):
        for item in row:
            lines.append(f"{i}\t{int(item)}\t{scores[i, item - 1]:.12g}")
    return "\n".join(lines) + "\n"
