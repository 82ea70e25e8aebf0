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
Counting is one pass over the packed instances, one group of equal-size
instances at a time, each group's pairs from one upper-triangle index set.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .codec import PackedInstances, SparseInstance
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


def count_cooccurrences(instances: Sequence[SparseInstance]) -> CooccurrenceTable:
    """Exact pairwise co-occurrence counts over a list or a packed view."""
    if not instances:
        raise ValueError("need at least one instance")
    packed = PackedInstances.of(instances)
    d, starts, sizes = packed.d, packed.starts, packed.sizes
    diag = np.zeros(d, dtype=np.int64)
    codes = [np.empty(0, dtype=np.int64)]
    for c in np.unique(sizes):
        # the (g, c) positions of the g instances of size c, one per row
        block = packed.flat[starts[sizes == c, None] + np.arange(c)].astype(np.int64)
        diag += np.bincount(block.ravel() - 1, minlength=d)
        lo, hi = np.triu_indices(c, k=1)
        # positions are sorted ascending, so block[:, hi] > block[:, lo]
        codes.append((block[:, hi] * (d + 1) + block[:, lo]).ravel())
    uniq, counts = np.unique(np.concatenate(codes), return_counts=True)
    return CooccurrenceTable(d=d, diag=diag, values=counts.astype(np.int64),
                             rows=(uniq // (d + 1)).astype(np.int32),
                             cols=(uniq % (d + 1)).astype(np.int32))


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
    rows = matrix.rows.tolist()
    for a, b in pairs.reshape(-1, 2).tolist():
        if not (1 <= a <= matrix.d and 1 <= b <= matrix.d):
            raise ValueError(f"pair member out of range [1, {matrix.d}]: ({a}, {b})")
        if a == b:
            raise ValueError(f"pair must join two distinct items, got ({a}, {b})")
        taken = sorted({*rows[a - 1], *rows[b - 1]})
        if len(taken) == m:
            logger.warning("pair (%d, %d) skipped: rows cover all %d bits", a, b, m)
            continue
        # the (v + 1)-th free bit: each taken bit at or below it moves it up
        r = stream.randbelow(m - len(taken)) + 1
        for bit in taken:
            if bit > r:
                break
            r += 1
        rows[a - 1][stream.randbelow(k)] = r
        rows[b - 1][stream.randbelow(k)] = r
    return HashMatrix(d=matrix.d, m=m, k=k, seed=matrix.seed,
                      rows=np.array(rows, dtype=np.int32))


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
