"""Dataset ingestion, profile splitting, and synthetic data generation.

Profiles are ordered item histories per user. Each profile is split at a
uniformly random position into a network input (earlier items) and a
prediction target (later items), both nonempty. Loaded items are
re-indexed densely to 1..d (lexicographic order of the external ids). A
random share of the profiles is held out once, at build time, as the test
list; the rest, in file or generation order, is the training list.

Input files are UTF-8 text (a byte that is not UTF-8 is a fault of its
line) in one of two formats:

* triples — one interaction per line: ``user item [timestamp [rating]]``.
  Every row carries a timestamp or none does; a mixed file is a fault.
  Profiles come in sorted user-id order, their items in timestamp order
  (stable; file order breaks ties and orders a file without timestamps).
  A NaN timestamp or rating is a fault.
* profiles — one profile per line: space-separated item ids in temporal
  order.

``rating_threshold`` keeps rows with rating >= threshold. It needs a rating
column, so it is a fault on a profiles file or on triples without ratings.

Loading works on whole arrays: rows become profile and item codes (indices
among the sorted distinct tokens), which de-duplication, both filters and
re-indexing act on. The seeded generator draws all cuts in profile order,
then the held-out profiles; synthetic data draws items and cut per profile
into one preallocated array. Either way the profiles lie end to end in one
array, which stays the dataset once each side is sorted: each split is a
:class:`bloomemb.codec.PackedPairs`, a view of its inputs and one of its targets.

Synthetic datasets draw profiles from latent item clusters so that items
within a cluster co-occur, which gives the prediction task learnable
structure and produces nonzero co-occurrence statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import PackedInstances, PackedPairs, utf8_text


class DataError(Exception):
    """Malformed or unusable dataset input."""


@dataclass
class ProfileDataset:
    """Split profiles: the training and held-out test lists, as PackedPairs
    whose views share one read-only int32 array of 2n sorted, nonempty sides."""

    d: int
    train: PackedPairs
    test: PackedPairs

    def __post_init__(self):
        for split in (self.train, self.test):
            if not (split.inputs.sizes.all() and split.targets.sizes.all()):
                raise ValueError("profile with empty input or output side")

    @property
    def n(self) -> int:
        return len(self.train) + len(self.test)

    def train_profiles(self) -> PackedPairs:
        return self.train

    def test_profiles(self) -> PackedPairs:
        return self.test


def _split_dataset(d: int, cuts: np.ndarray, ends: np.ndarray, items: np.ndarray,
                   test_size: float, rng: np.random.Generator) -> ProfileDataset:
    """Profile i of `items` ends at ends[i], its target starts at cuts[i]; each
    side is sorted, and `rng` holds out round(n * test_size) profiles."""
    if not 0 <= test_size <= 1:
        raise ValueError(f"test_size must lie in [0, 1], got {test_size}")
    n = len(ends)
    # side 2i is profile i's input, side 2i + 1 its target
    bounds = np.zeros(2 * n + 1, dtype=np.int64)
    bounds[1::2] = cuts
    bounds[2::2] = ends
    sizes = np.diff(bounds)
    flat = items[np.lexsort((items, np.repeat(np.arange(2 * n), sizes)))]
    flat.setflags(write=False)
    sides = PackedInstances(d, flat, bounds[:-1], sizes)
    held = np.zeros(n, dtype=bool)
    held[rng.choice(n, size=int(round(n * test_size)), replace=False)] = True
    return ProfileDataset(d, *(PackedPairs(sides[0::2][rows], sides[1::2][rows])
                               for rows in (~held, held)))


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def _sorted_codes(tokens: list[str]) -> tuple[np.ndarray, int]:
    """Each token's index among the sorted distinct tokens, and their count."""
    index = {tok: i for i, tok in enumerate(sorted(set(tokens)))}
    return np.fromiter(map(index.get, tokens), np.int64, len(tokens)), len(index)


def _parse_triples(tokens: list[list[str]], rating_threshold: float | None,
                   fmt: str) -> tuple[np.ndarray, list[str], bool]:
    """User codes and items of the kept rows, by user, then timestamp, and
    whether any row has a rating."""
    users, items, stamps = [], [], []
    saw_rating = False
    first = None  # (line, has a timestamp) of the first row
    for lineno, parts in enumerate(tokens, start=1):
        if not parts:
            continue
        if len(parts) < 2 or len(parts) > 4:
            raise DataError(f"line {lineno}: expected 'user item [timestamp [rating]]'")
        stamped = len(parts) >= 3
        first = first or (lineno, stamped)
        if stamped != first[1]:
            raise DataError(f"line {lineno}: {'a' if stamped else 'no'} timestamp, unlike "
                            f"line {first[0]}; as triples (data_format {fmt!r}), "
                            "every row or none has one")
        try:
            ts = float(parts[2]) if stamped else 0.0
            rating = float(parts[3]) if len(parts) == 4 else None
        except ValueError:
            raise DataError(f"line {lineno}: non-numeric timestamp or rating") from None
        if ts != ts or rating != rating:
            raise DataError(f"line {lineno}: NaN timestamp or rating")
        if rating is not None:
            saw_rating = True
            if rating_threshold is not None and rating < rating_threshold:
                continue
        users.append(parts[0])
        items.append(parts[1])
        stamps.append(ts)
    user, _ = _sorted_codes(users)
    order = np.lexsort((np.array(stamps), user))  # stable: file order breaks ties
    return user[order], [items[i] for i in order.tolist()], saw_rating


def _read_text(source) -> str:
    if hasattr(source, "read"):
        return source.read()
    try:
        return utf8_text(Path(source).read_bytes())
    except ValueError as exc:
        raise DataError(f"{source}: {exc}") from None


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
    tokens = [ln.split() for ln in _read_text(source).splitlines()]
    rows = [p for p in tokens if p]
    read_as = fmt
    if fmt == "auto":
        # triples files repeat the user column; anything else reads as profiles
        repeats = len({p[0] for p in rows}) < len(rows)
        read_as = ("triples" if repeats and all(2 <= len(p) <= 4 for p in rows)
                   else "profiles")
    if read_as == "triples":
        prof, items, rated = _parse_triples(tokens, rating_threshold, fmt)
    elif read_as == "profiles":
        prof = np.repeat(np.arange(len(rows)), [len(p) for p in rows])
        items, rated = [it for p in rows for it in p], False
    else:
        raise DataError(f"unknown format {fmt!r}")
    if rating_threshold is not None and not rated:
        raise DataError("rating_threshold given but the file has no rating column")
    code, n_items = _sorted_codes(items)

    # first (earliest) occurrence of each item in its profile
    first = np.zeros(code.size, dtype=bool)
    first[np.unique(prof * n_items + code, return_index=True)[1]] = True
    kept_item = np.bincount(code[first], minlength=n_items) >= min_item_count
    keep = first & kept_item[code]
    prof, code = prof[keep], code[keep]
    sizes = np.bincount(prof)
    long_enough = sizes >= max(min_profile_size, 2)
    sizes = sizes[long_enough]
    if not sizes.size:
        raise DataError("no profiles survive filtering")

    # dense ids 1..d in the sorted order of the kept external ids
    dense = np.cumsum(kept_item, dtype=np.int32)[code[long_enough[prof]]]
    d = int(np.count_nonzero(kept_item))
    rng = np.random.default_rng(seed)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    cuts = starts + rng.integers(1, sizes)  # one draw per profile, in order
    return _split_dataset(d, cuts, ends, dense, test_size, rng)


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
    flat = np.empty(spec.n * spec.profile_size_max, dtype=np.int32)
    cuts = np.empty(spec.n, dtype=np.int64)
    ends = np.empty(spec.n, dtype=np.int64)
    end = 0
    for i in range(spec.n):
        g = int(rng.integers(spec.n_clusters))
        lo, hi = _cluster_bounds(spec, g)
        size = int(rng.integers(spec.profile_size_min, spec.profile_size_max + 1))
        items: dict[int, None] = {}  # distinct items in first-draw order
        attempts = 0
        while len(items) < size and attempts < 50 * size:
            attempts += 1
            if rng.random() < spec.noise:
                items[int(rng.integers(1, spec.d + 1))] = None
            else:
                items[int(rng.integers(lo, hi + 1))] = None
        while len(items) < 2:  # degenerate pools: top up deterministically
            items[int(rng.integers(1, spec.d + 1))] = None
        cuts[i] = end + int(rng.integers(1, len(items)))
        flat[end:end + len(items)] = list(items)
        end += len(items)
        ends[i] = end
    return _split_dataset(spec.d, cuts, ends, flat[:end], spec.test_size, rng)
