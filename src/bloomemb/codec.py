"""Encoding of sparse binary instances and ranked recovery of item scores.

An instance is the set of active positions of a d-dimensional binary
vector. Encoding sets, for every active position, the bits at its k
projected embedding positions; the result is an m-bit vector. Decoding
maps an m-dimensional probability vector back to per-item scores: the
likelihood of item i is the product of the probabilities at its k
projections, and the negative-log variant is the numerically stable form
of the same ranking. Membership never produces false negatives; false
positives occur when all k projections of an absent item collide with set
bits.

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

from . import kernels
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
        if pos.size:
            if pos.min() < 1 or pos.max() > self.d:
                raise ValueError(f"positions must lie in [1, {self.d}]")
            if not ((pos[1:] > pos[:-1]).all()):
                pos = np.unique(pos)
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


@dataclass(frozen=True)
class BloomVector:
    """m-dimensional binary embedding."""

    m: int
    bits: np.ndarray

    def __post_init__(self):
        bits = np.ascontiguousarray(self.bits, dtype=np.uint8)
        if bits.shape != (self.m,):
            raise ValueError(f"bits shape {bits.shape} != ({self.m},)")
        if bits.size and bits.max() > 1:
            raise ValueError("bits must be 0 or 1")
        bits.setflags(write=False)
        object.__setattr__(self, "bits", bits)

    def popcount(self) -> int:
        return int(self.bits.sum())

    def __eq__(self, other) -> bool:
        if not isinstance(other, BloomVector):
            return NotImplemented
        return self.m == other.m and np.array_equal(self.bits, other.bits)

    def as_probabilities(self) -> "ProbabilityVector":
        return ProbabilityVector(m=self.m, probs=self.bits.astype(np.float64))


@dataclass(frozen=True)
class ProbabilityVector:
    """m-dimensional vector of probabilities in [0, 1]."""

    m: int
    probs: np.ndarray

    def __post_init__(self):
        probs = np.ascontiguousarray(self.probs, dtype=np.float64)
        if probs.shape != (self.m,):
            raise ValueError(f"probs shape {probs.shape} != ({self.m},)")
        if not np.isfinite(probs).all():
            raise ValueError("probabilities must be finite")
        if probs.size and (probs.min() < 0.0 or probs.max() > 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)


@dataclass(frozen=True)
class ItemScores:
    """Per-item scores over the original d items plus their sort direction."""

    d: int
    scores: np.ndarray
    ordering: ScoreOrder

    def __post_init__(self):
        scores = np.ascontiguousarray(self.scores, dtype=np.float64)
        if scores.shape != (self.d,):
            raise ValueError(f"scores shape {scores.shape} != ({self.d},)")
        if not np.isfinite(scores).all():
            raise ValueError("scores must be finite")
        scores.setflags(write=False)
        object.__setattr__(self, "scores", scores)


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def pack_instances(instances: Sequence[SparseInstance]) -> tuple[np.ndarray, np.ndarray]:
    """Flatten instances to (indptr, positions) CSR-style arrays."""
    indptr = np.zeros(len(instances) + 1, dtype=np.int64)
    for i, inst in enumerate(instances):
        indptr[i + 1] = indptr[i] + inst.c
    flat = np.empty(int(indptr[-1]), dtype=np.int32)
    for i, inst in enumerate(instances):
        flat[indptr[i]:indptr[i + 1]] = inst.positions
    return indptr, flat


def encode(instance: SparseInstance, matrix: HashMatrix) -> BloomVector:
    """Embed one instance; O(c*k), independent of d."""
    return BloomVector(m=matrix.m, bits=encode_batch([instance], matrix)[0])


def encode_batch(instances: Sequence[SparseInstance], matrix: HashMatrix) -> np.ndarray:
    """Embed many instances into an (n, m) uint8 bit array."""
    for inst in instances:
        if inst.d != matrix.d:
            raise ValueError(
                f"instance dimensionality {inst.d} != matrix d {matrix.d}")
    indptr, flat = pack_instances(instances)
    return kernels.encode_bits(matrix.rows, indptr, flat, matrix.m)


# ---------------------------------------------------------------------------
# decoding
# ---------------------------------------------------------------------------


def decode_likelihood(probs: ProbabilityVector, matrix: HashMatrix) -> ItemScores:
    """Score item i as the product of its k projected probabilities."""
    if probs.m != matrix.m:
        raise ValueError(f"probability length {probs.m} != matrix m {matrix.m}")
    scores = kernels.decode_likelihood_bulk(probs.probs[None, :], matrix.rows)[0]
    return ItemScores(d=matrix.d, scores=scores,
                      ordering=ScoreOrder.DESCENDING_LIKELIHOOD)


def decode_nll(probs: ProbabilityVector, matrix: HashMatrix,
               epsilon: float = DEFAULT_NLL_EPSILON) -> ItemScores:
    """Score item i as -sum(log(max(prob, epsilon))) over its projections.

    Lower is better. For items whose projected probabilities all exceed
    epsilon, ascending order equals the descending likelihood order.
    """
    if probs.m != matrix.m:
        raise ValueError(f"probability length {probs.m} != matrix m {matrix.m}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    scores = kernels.decode_nll_bulk(probs.probs[None, :], matrix.rows, epsilon)[0]
    return ItemScores(d=matrix.d, scores=scores, ordering=ScoreOrder.ASCENDING_NLL)


def decode_likelihood_batch(probs: np.ndarray, matrix: HashMatrix) -> np.ndarray:
    """(n, m) probabilities -> (n, d) likelihood scores."""
    if probs.shape[1] != matrix.m:
        raise ValueError(f"probability width {probs.shape[1]} != matrix m {matrix.m}")
    return kernels.decode_likelihood_bulk(
        np.ascontiguousarray(probs, dtype=np.float64), matrix.rows)


def decode_nll_batch(probs: np.ndarray, matrix: HashMatrix,
                     epsilon: float = DEFAULT_NLL_EPSILON) -> np.ndarray:
    """(n, m) probabilities -> (n, d) negative-log-likelihood scores."""
    if probs.shape[1] != matrix.m:
        raise ValueError(f"probability width {probs.shape[1]} != matrix m {matrix.m}")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    return kernels.decode_nll_bulk(
        np.ascontiguousarray(probs, dtype=np.float64), matrix.rows, epsilon)


# ---------------------------------------------------------------------------
# ranking
# ---------------------------------------------------------------------------


def rank(scores: ItemScores, top_n: int) -> np.ndarray:
    """Best-first 1-based item ids; ties break by ascending item index."""
    return rank_batch(scores.scores[None, :], scores.ordering, top_n)[0]


def rank_batch(scores: np.ndarray, ordering: ScoreOrder, top_n: int) -> np.ndarray:
    """(n, d) scores -> (n, top_n) ranked 1-based item ids."""
    n, d = scores.shape
    if not 1 <= top_n <= d:
        raise ValueError(f"top_n {top_n} out of range [1, {d}]")
    key = scores if ordering is ScoreOrder.ASCENDING_NLL else -scores
    idx = np.tile(np.arange(d), (n, 1))
    order = np.lexsort((idx, key), axis=1)
    return (order[:, :top_n] + 1).astype(np.int64)


def renormalize(scores: ItemScores) -> np.ndarray:
    """Turn likelihood scores into a probability distribution over d items."""
    if scores.ordering is not ScoreOrder.DESCENDING_LIKELIHOOD:
        raise ValueError("renormalize requires likelihood-ordered scores")
    total = scores.scores.sum()
    if total <= 0.0:
        raise ValueError("cannot renormalize all-zero scores")
    return scores.scores / total


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


def write_instances(instances: Sequence[SparseInstance]) -> str:
    return "".join(" ".join(str(int(p)) for p in inst.positions) + "\n"
                   for inst in instances)


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
