"""Dataset ingestion, profile splitting, and synthetic data generation.

Profiles are ordered item histories per user. Each profile is split at a
uniformly random position into a network input (earlier items) and a
prediction target (later items), both nonempty. Loaded items are
re-indexed densely to 1..d (lexicographic order of the external ids). A
random share of the profiles is held out once, at build time, as the test
list; the rest, in file or generation order, is the training list.

Input file formats:

* triples — one interaction per line: ``user item [timestamp [rating]]``.
  Profiles are ordered by timestamp when present (stable; file order
  breaks ties and substitutes for missing timestamps). With a rating
  column, ``rating_threshold`` keeps rows with rating >= threshold.
* profiles — one profile per line: space-separated item ids in temporal
  order.

Synthetic datasets draw profiles from latent item clusters so that items
within a cluster co-occur, which gives the prediction task learnable
structure and produces nonzero co-occurrence statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .codec import SparseInstance


class DataError(Exception):
    """Malformed or unusable dataset input."""


@dataclass
class ProfileDataset:
    """Split profiles: the training list and the held-out test list."""

    d: int
    train: list[tuple[SparseInstance, SparseInstance]]
    test: list[tuple[SparseInstance, SparseInstance]]

    def __post_init__(self):
        for inp, out in self.train + self.test:
            if inp.c == 0 or out.c == 0:
                raise ValueError("profile with empty input or output side")
            if inp.d != self.d or out.d != self.d:
                raise ValueError("profile dimensionality does not match dataset")

    @property
    def n(self) -> int:
        return len(self.train) + len(self.test)

    def train_profiles(self) -> list[tuple[SparseInstance, SparseInstance]]:
        return self.train

    def test_profiles(self) -> list[tuple[SparseInstance, SparseInstance]]:
        return self.test


def split_profile(items: Sequence[int], d: int,
                  rng: np.random.Generator) -> tuple[SparseInstance, SparseInstance]:
    """Split an ordered profile at a uniform position; both sides nonempty."""
    if len(items) < 2:
        raise DataError(f"cannot split a profile with {len(items)} item(s)")
    cut = int(rng.integers(1, len(items)))
    return (SparseInstance.from_items(d, items[:cut]),
            SparseInstance.from_items(d, items[cut:]))


def _split_dataset(d: int, profiles: list[tuple[SparseInstance, SparseInstance]],
                   test_size: float, rng: np.random.Generator) -> ProfileDataset:
    """Hold out round(n * test_size) of the n profiles, chosen by `rng`."""
    n = len(profiles)
    count = int(round(n * test_size))
    held = set(rng.choice(n, size=max(0, min(count, n)), replace=False).tolist())
    return ProfileDataset(d=d,
                          train=[p for i, p in enumerate(profiles) if i not in held],
                          test=[profiles[i] for i in sorted(held)])


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def _parse_triples(lines: list[str], rating_threshold: float | None
                   ) -> dict[str, list[str]]:
    rows: list[tuple[str, str, float, int]] = []
    saw_rating = False
    for lineno, line in enumerate(lines, start=1):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 2 or len(parts) > 4:
            raise DataError(f"line {lineno}: expected 'user item [timestamp [rating]]'")
        user, item = parts[0], parts[1]
        try:
            ts = float(parts[2]) if len(parts) >= 3 else float(lineno)
            rating = float(parts[3]) if len(parts) == 4 else None
        except ValueError:
            raise DataError(f"line {lineno}: non-numeric timestamp or rating") from None
        if rating is not None:
            saw_rating = True
            if rating_threshold is not None and rating < rating_threshold:
                continue
        rows.append((user, item, ts, lineno))
    if rating_threshold is not None and not saw_rating:
        raise DataError("rating_threshold given but the file has no rating column")
    rows.sort(key=lambda r: (r[0], r[2], r[3]))  # stable temporal order per user
    profiles: dict[str, list[str]] = {}
    for user, item, _, _ in rows:
        profiles.setdefault(user, []).append(item)
    return profiles


def _parse_profile_lines(lines: list[str]) -> dict[str, list[str]]:
    return {f"line{i}": line.split()
            for i, line in enumerate(lines, start=1) if line.split()}


def load_profiles(source,
                  min_item_count: int = 1,
                  min_profile_size: int = 2,
                  fmt: str = "auto",
                  rating_threshold: float | None = None,
                  test_size: float = 0.1,
                  seed: int = 0) -> ProfileDataset:
    """Load, filter, re-index, and split raw profiles into a dataset.

    Items appearing in fewer than `min_item_count` profiles are dropped
    first, then profiles shorter than `min_profile_size` (after item
    filtering and de-duplication). Splitting and test selection use a
    generator seeded with `seed`.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        text = Path(source).read_text()
    lines = text.splitlines()
    if fmt == "auto":
        # triples files repeat the user column; anything else reads as profiles
        tokens = [ln.split() for ln in lines if ln.split()]
        if tokens and all(2 <= len(p) <= 4 for p in tokens):
            firsts = [p[0] for p in tokens]
            fmt = "triples" if len(set(firsts)) < len(firsts) else "profiles"
        else:
            fmt = "profiles"
    if fmt == "triples":
        raw = _parse_triples(lines, rating_threshold)
    elif fmt == "profiles":
        raw = _parse_profile_lines(lines)
    else:
        raise DataError(f"unknown format {fmt!r}")

    # de-duplicate within profile, keeping first (earliest) occurrence
    ordered: list[list[str]] = []
    for items in raw.values():
        seen: set[str] = set()
        uniq = [it for it in items if not (it in seen or seen.add(it))]
        ordered.append(uniq)

    counts: dict[str, int] = {}
    for items in ordered:
        for it in items:
            counts[it] = counts.get(it, 0) + 1
    kept_items = {it for it, c in counts.items() if c >= min_item_count}
    filtered = [[it for it in items if it in kept_items] for items in ordered]
    filtered = [items for items in filtered
                if len(items) >= max(min_profile_size, 2)]
    if not filtered:
        raise DataError("no profiles survive filtering")

    item_index = {it: i + 1 for i, it in enumerate(sorted(kept_items))}
    d = len(item_index)
    rng = np.random.default_rng(seed)
    profiles = []
    for items in filtered:
        dense = [item_index[it] for it in items]
        profiles.append(split_profile(dense, d, rng))
    return _split_dataset(d, profiles, test_size, rng)


# ---------------------------------------------------------------------------
# synthetic generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticSpec:
    d: int
    n: int
    n_clusters: int = 10
    profile_size_min: int = 4
    profile_size_max: int = 12
    noise: float = 0.05   # probability of drawing an item outside the cluster
    test_size: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.d < 2 or self.n < 1:
            raise ValueError("need d >= 2 and n >= 1")
        if not 1 <= self.n_clusters <= self.d:
            raise ValueError("cluster count must lie in [1, d]")
        if not 2 <= self.profile_size_min <= self.profile_size_max:
            raise ValueError("profile sizes must satisfy 2 <= min <= max")
        if self.profile_size_max > self.d:
            raise ValueError(f"profile size {self.profile_size_max} exceeds d={self.d}")
        if not 0.0 <= self.noise <= 1.0:
            raise ValueError("noise must lie in [0, 1]")


def _cluster_bounds(spec: SyntheticSpec, g: int) -> tuple[int, int]:
    lo = g * spec.d // spec.n_clusters + 1
    hi = (g + 1) * spec.d // spec.n_clusters
    return lo, hi


def generate_synthetic(spec: SyntheticSpec) -> ProfileDataset:
    """Draw profiles from latent clusters; deterministic given spec.seed."""
    rng = np.random.default_rng(spec.seed)
    profiles = []
    for _ in range(spec.n):
        g = int(rng.integers(spec.n_clusters))
        lo, hi = _cluster_bounds(spec, g)
        size = int(rng.integers(spec.profile_size_min, spec.profile_size_max + 1))
        items: list[int] = []
        seen: set[int] = set()
        attempts = 0
        while len(items) < size and attempts < 50 * size:
            attempts += 1
            if rng.random() < spec.noise:
                it = int(rng.integers(1, spec.d + 1))
            else:
                it = int(rng.integers(lo, hi + 1))
            if it not in seen:
                seen.add(it)
                items.append(it)
        while len(items) < 2:  # degenerate pools: top up deterministically
            it = int(rng.integers(1, spec.d + 1))
            if it not in seen:
                seen.add(it)
                items.append(it)
        profiles.append(split_profile(items, spec.d, rng))
    return _split_dataset(spec.d, profiles, spec.test_size, rng)
