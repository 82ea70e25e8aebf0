"""Co-occurrence-steered hash collisions.

Frequently co-occurring item pairs are redirected to share an embedding
bit: pairs whose co-occurrence count exceeds the average item frequency
are processed in ascending count order, and for each pair a fresh bit
(outside both rows) replaces one randomly chosen projection of each
member. Because the highest-count pairs are processed last, their shared
bits survive any overlap with earlier pairs.

Counting is exact: C[a][b] is the number of instances containing both a
and b, and the diagonal holds per-item frequencies. The table is kept in
strict-lower-triangle coordinate form (count, row, col) with row > col.
Counting writes the code row * (d + 1) + col of every pair, one group of
equal-size instances at a time, into one preallocated int64 array, sorts
it in place and counts the runs of equal codes; the diagonal is one
bincount over the positions.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codec import PackedInstances, SparseInstance, run_starts
from .hashing import HashMatrix, SplitMix64

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CooccurrenceTable:
    """Sparse symmetric pairwise counts in coordinate form (row > col)."""

    d: int
    diag: np.ndarray    # (d,) int64 per-item frequencies
    values: np.ndarray  # (nnz,) int64 pair counts, > 0
    rows: np.ndarray    # (nnz,) int32 1-based, rows > cols
    cols: np.ndarray

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        if self.diag.shape != (self.d,):
            raise ValueError("diagonal length must equal d")
        if not (len(self.values) == len(self.rows) == len(self.cols)):
            raise ValueError("coordinate lists must have equal length")
        if len(self.rows) and not (self.rows > self.cols).all():
            raise ValueError("coordinates must lie in the strict lower triangle")


@dataclass(frozen=True)
class CooccurrenceStats:
    percent_cooccurring_pairs: float
    mean_ratio_rho: float


def _pair_codes(packed: PackedInstances) -> np.ndarray:
    """The code hi * (d + 1) + lo of each pair hi > lo of positions that an
    instance holds, in one int64 array sized for them, written one group of
    equal-size instances at a time."""
    d, flat, starts, sizes = packed.d, packed.flat, packed.starts, packed.sizes
    codes = np.empty(int((sizes.astype(np.int64) * (sizes - 1) // 2).sum()), np.int64)
    at = 0
    for c in np.flatnonzero(np.bincount(sizes)).tolist():
        if c < 2:
            continue
        # the (g, c) positions of the g instances of size c, one per row
        block = flat[starts[sizes == c, None] + np.arange(c)].astype(np.int64)
        # their pairs as a (g, c(c-1)/2) view of `codes`, those of lower member i
        # at a time; positions are sorted ascending, so the higher one is later
        out = codes[at:at + len(block) * c * (c - 1) // 2].reshape(len(block), -1)
        at += out.size
        lo = 0
        for i in range(c - 1):
            pair = out[:, lo:lo + c - 1 - i]
            np.multiply(block[:, i + 1:], d + 1, out=pair)
            pair += block[:, i, None]
            lo += c - 1 - i
    return codes


def count_cooccurrences(instances: Sequence[SparseInstance]) -> CooccurrenceTable:
    """Exact pairwise co-occurrence counts over a list or a packed view."""
    if not instances:
        raise ValueError("need at least one instance")
    packed = PackedInstances.of(instances)
    d = packed.d
    diag = np.bincount(packed.concatenated(), minlength=d + 1)[1:].astype(np.int64)
    codes = _pair_codes(packed)
    codes.sort()
    first = np.flatnonzero(run_starts(codes))
    uniq, total = codes[first], codes.size
    del codes
    counts = np.diff(first, append=total)
    del first
    rows, cols = np.empty(len(uniq), np.int32), np.empty(len(uniq), np.int32)
    np.floor_divide(uniq, d + 1, out=rows)
    np.remainder(uniq, d + 1, out=cols)
    return CooccurrenceTable(d=d, diag=diag, values=counts, rows=rows, cols=cols)


def average_item_frequency(table: CooccurrenceTable) -> float:
    """Mean per-item frequency: total active positions divided by d."""
    return float(table.diag.sum()) / table.d


def threshold_and_order(table: CooccurrenceTable) -> np.ndarray:
    """Pairs with count strictly above the average item frequency, sorted
    by ascending count (ties by ascending (row, col)); shape (n_pairs, 2)."""
    avg = average_item_frequency(table)
    keep = table.values > avg
    values = table.values[keep]
    rows = table.rows[keep]
    cols = table.cols[keep]
    order = np.lexsort((cols, rows, values))
    return np.stack([rows[order], cols[order]], axis=1).astype(np.int32)


def rebuild_hash_matrix(matrix: HashMatrix, pairs: np.ndarray,
                        seed: int) -> HashMatrix:
    """Redirect each pair (a, b), in order, to collide on a fresh shared bit.

    For every pair a bit r is drawn uniformly from {1..m} minus the union
    of both rows, then one slot of each row (uniform over {1..k}) is set to
    r. The draw picks v in [0, m - |union|) and walks the sorted union to
    the (v + 1)-th bit outside it. Draw order per pair is fixed (r, then
    slot of a, then slot of b) so the result is deterministic given
    (matrix, pairs, seed). Pairs whose rows jointly cover all m bits are
    skipped with a warning.
    """
    m, k = matrix.m, matrix.k
    stream = SplitMix64(seed)
    pairs = np.asarray(pairs)
    if pairs.size and (pairs.shape[1:] != (2,) or pairs.dtype.kind not in "iu"):
        raise ValueError(f"pairs must be an (n, 2) array of integers, got "
                         f"{pairs.dtype} of shape {pairs.shape}")
    rows = matrix.rows.copy()  # the two rows of a pair are edited as views
    pairs = pairs.reshape(-1, 2)
    chunks = (pairs[at:at + 256].tolist() for at in range(0, len(pairs), 256))
    for a, b in itertools.chain.from_iterable(chunks):
        if not (1 <= a <= matrix.d and 1 <= b <= matrix.d):
            raise ValueError(f"pair member out of range [1, {matrix.d}]: ({a}, {b})")
        if a == b:
            raise ValueError(f"pair must join two distinct items, got ({a}, {b})")
        row_a, row_b = rows[a - 1], rows[b - 1]
        taken = sorted({*row_a.tolist(), *row_b.tolist()})
        if len(taken) == m:
            logger.warning("pair (%d, %d) skipped: rows cover all %d bits", a, b, m)
            continue
        # the (v + 1)-th free bit: each taken bit at or below it moves it up
        r = stream.randbelow(m - len(taken)) + 1
        for bit in taken:
            if bit > r:
                break
            r += 1
        row_a[stream.randbelow(k)] = r
        row_b[stream.randbelow(k)] = r
    del stream  # its block of draws goes before the new matrix is checked
    return HashMatrix(d=matrix.d, m=m, k=k, seed=matrix.seed, rows=rows)


def cooccurrence_stats(table: CooccurrenceTable, n: int) -> CooccurrenceStats:
    """Percentage of co-occurring pairs and their mean count/n ratio."""
    if n < 1:
        raise ValueError(f"instance count n must be >= 1, got {n}")
    if table.d < 2:
        raise ValueError("statistics need at least 2 items")
    total_pairs = table.d * (table.d - 1) // 2
    positive = table.values > 0
    n_co = int(positive.sum())
    percent = 100.0 * n_co / total_pairs
    rho = float((table.values[positive] / n).mean()) if n_co else 0.0
    return CooccurrenceStats(percent_cooccurring_pairs=percent, mean_ratio_rho=rho)


def stats_report_tsv(stats: CooccurrenceStats) -> str:
    return ("side\tpercent_cooccurring_pairs\tmean_ratio_rho\n"
            f"input\t{stats.percent_cooccurring_pairs:.6g}"
            f"\t{stats.mean_ratio_rho:.6g}\n")
