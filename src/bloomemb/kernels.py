"""Hot numeric kernels in plain numpy.

Each kernel has exactly one implementation. Integer kernels (matrix
construction, encoding) are exact; the decode kernels combine the k
gathered columns of every item one projection at a time, so no
temporary is larger than the (n, d) result.

All index arrays passed in here follow the package convention: hash-matrix
entries and instance positions are 1-based, conversion happens inside the
kernel.
"""

from __future__ import annotations

import numpy as np

from .rng import SplitMix64, row_stream_seed

NUMBA_ENABLED = False  # no compiled path; kept because bench/rep.py records it


def build_rows(d: int, m: int, k: int, seed: int) -> np.ndarray:
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


def encode_bits(rows: np.ndarray, indptr: np.ndarray, flat: np.ndarray,
                m: int) -> np.ndarray:
    """Scatter the k projections of every active position into bit vectors."""
    n = indptr.shape[0] - 1
    k = rows.shape[1]
    out = np.zeros((n, m), dtype=np.uint8)
    owner = np.repeat(np.arange(n), np.diff(indptr) * k)
    out[owner, rows[flat - 1].ravel() - 1] = 1
    return out


def decode_likelihood_bulk(probs: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """(n, m) probabilities -> (n, d) products of each item's k projections."""
    idx = rows - 1
    out = probs.take(idx[:, 0], axis=1)
    for j in range(1, idx.shape[1]):
        out *= probs.take(idx[:, j], axis=1)
    return out


def decode_nll_bulk(probs: np.ndarray, rows: np.ndarray,
                    eps: float) -> np.ndarray:
    """(n, m) probabilities -> (n, d) sums of -log(max(p, eps)) per item."""
    neg_log = -np.log(np.maximum(probs, eps))
    idx = rows - 1
    out = neg_log.take(idx[:, 0], axis=1)
    for j in range(1, idx.shape[1]):
        out += neg_log.take(idx[:, j], axis=1)
    return out
