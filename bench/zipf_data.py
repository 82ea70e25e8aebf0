"""Seeded triples file of clustered profiles with Zipf-skewed item popularity.

Items 1..d fall into equal contiguous clusters. Each user picks a cluster
uniformly, then draws a profile of distinct items from it, where the item
of popularity rank r inside the cluster has weight r**-exponent. The skew
makes a few pairs per cluster co-occur far above the average item
frequency, which is what the co-occurrence threshold of CBE needs; the
uniform synthetic generator of ``bloomemb.data`` gives CBE no pairs.

Output lines are ``user item timestamp``, users in order and timestamps
counting up inside each profile. The same arguments give the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ZipfSpec:
    d: int = 10000
    n: int = 20000
    n_clusters: int = 100
    exponent: float = 1.2
    size_min: int = 4
    size_max: int = 12

    def __post_init__(self):
        if self.d % self.n_clusters:
            raise ValueError("d must be a multiple of the cluster count")
        if not 2 <= self.size_min <= self.size_max <= self.d // self.n_clusters:
            raise ValueError("profile sizes must satisfy 2 <= min <= max <= cluster size")


def zipf_triples(spec: ZipfSpec, seed: int) -> str:
    """Text of the triples file for `spec`; a pure function of (spec, seed)."""
    rng = np.random.default_rng(seed)
    width = spec.d // spec.n_clusters
    weights = np.arange(1, width + 1, dtype=np.float64) ** -spec.exponent
    weights /= weights.sum()
    lines = []
    for user in range(spec.n):
        cluster = int(rng.integers(spec.n_clusters))
        size = int(rng.integers(spec.size_min, spec.size_max + 1))
        # a random popularity order per cluster would only relabel items
        ranks = rng.choice(width, size=size, replace=False, p=weights)
        for t, r in enumerate(ranks):
            lines.append(f"u{user} {cluster * width + int(r) + 1} {t}")
    return "\n".join(lines) + "\n"
