r"""Dataset ingestion, profile splitting, and synthetic data generation.

Profiles are ordered item histories per user. Each profile is split at a
uniformly random position into a network input (earlier items) and a
prediction target (later items), both nonempty. Loaded items are
re-indexed densely to 1..d (lexicographic order of the external ids). A
random share of the profiles is held out once, at build time, as the test
list; the rest, in file or generation order, is the training list.

Input files are UTF-8 text (a byte that is not UTF-8, or a NUL byte, is a
fault of its line) in one of two formats:

* triples — one interaction per line: ``user item [timestamp [rating]]``.
  Every row carries a timestamp or none does; a mixed file is a fault.
  Profiles come in sorted user-id order, their items in timestamp order
  (stable; file order breaks ties and orders a file without timestamps).
  A NaN timestamp or rating is a fault.
* profiles — one profile per line: space-separated item ids in temporal
  order.

The ``auto`` format reads a file as triples when every line that holds a
token holds 2 to 4 of them and some first token repeats, and as profiles
otherwise. The rule cannot tell every file apart: the four profiles
``1 2 3``, ``1 4 5``, ``6 7 8`` and ``6 9 10`` read under ``auto`` as
triples, 2 profiles over d = 4, where ``fmt="profiles"`` reads 4 over
d = 10. Name the format when a profiles file may look like triples.

``rating_threshold`` keeps rows with rating >= threshold. It needs a rating
column, so it is a fault on a profiles file or on triples without ratings.

A file is tokenised as bytes, in whole-array passes, into the tokens of
``str.split`` on the lines of ``str.splitlines``. One 256-entry lookup
table classes each byte: ``\t \n \x0b \x0c \r \x1c``-``\x1f`` and space
separate tokens, and ``\n``, ``\r``, ``\r\n``, ``\x0b``, ``\x0c`` and
``\x1c``-``\x1e`` end a line. Only a file with a byte >= 0x80 is decoded,
to map str's 19 other whitespace characters (U+0085, U+00A0, U+1680,
U+2000-U+200A, U+2028, U+2029, U+202F, U+205F, U+3000) to ASCII of their
kind. Each column that is needed (user, item, or every token of a profiles
file) is copied into a bytes array as wide as its longest token, or into
bytes objects where that array would be the larger. Timestamps and ratings
are cast from such copies as ``float()`` reads them, and the ids' codes are
their indices among the sorted distinct tokens (UTF-8 byte order is
code-point order). De-duplication, both filters and re-indexing
act on those codes.

The seeded generator draws all cuts in profile order, then the held-out
profiles; synthetic data draws items and cut per profile into one
preallocated array. Either way the profiles lie end to end in one array,
which stays the dataset once each side is sorted: each split is a
:class:`bloomemb.codec.PackedPairs`, a view of its inputs and one of its targets.

Synthetic datasets draw profiles from latent item clusters so that items
within a cluster co-occur, which gives the prediction task learnable
structure and produces nonzero co-occurrence statistics.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

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


# what str.split and str.splitlines make of each byte of ASCII text: 0 a token
# byte, 1 whitespace, 2 a line break (\r\n is one, which _tokenise sees to)
_BYTE_KIND = np.zeros(256, dtype=np.uint8)
_BYTE_KIND[list(b"\t\x1f ")] = 1
_BYTE_KIND[list(b"\n\x0b\x0c\r\x1c\x1d\x1e")] = 2
# str's non-ASCII whitespace, each as ASCII whitespace of its kind
_WIDE_SPACES = dict.fromkeys((0xA0, 0x1680, *range(0x2000, 0x200B), 0x202F, 0x205F,
                              0x3000), " ") | dict.fromkeys((0x85, 0x2028, 0x2029), "\x0c")
# bytes that a bytes object and its pointer take beyond its contents
_BYTES_OBJECT = sys.getsizeof(b"") + 8


class _Tokens(NamedTuple):
    """Token i of a file is buf[starts[i]:starts[i] + lengths[i]]."""

    buf: np.ndarray
    starts: np.ndarray
    lengths: np.ndarray

    def column(self, idx) -> np.ndarray:
        """The tokens `idx` as a fixed-width bytes array or, where that would
        outgrow a bytes object per token (a few long tokens widen it all),
        as an array of bytes objects; both sort, unique and cast alike."""
        starts, lengths = self.starts[idx], self.lengths[idx]
        width = max(int(lengths.max(initial=0)), 1)
        if width * len(starts) > _BYTES_OBJECT * len(starts) + lengths.sum():
            view = memoryview(self.buf)
            return np.array([bytes(view[a:a + n]) for a, n
                             in zip(starts.tolist(), lengths.tolist())], dtype=object)
        grid = np.zeros((len(starts), width), dtype=np.uint8)
        for j in range(width):
            has = lengths > j
            grid[has, j] = self.buf[starts[has] + j]
        return grid.view(f"S{width}").ravel()


def _file_bytes(source) -> bytes:
    """The bytes of a path, or of what a file-like's read() returns, with
    str's non-ASCII whitespace made ASCII; a byte that is not UTF-8 is a
    fault of its line."""
    data = source.read() if hasattr(source, "read") else Path(source).read_bytes()
    if not data.isascii():
        try:
            data = utf8_text(data).translate(_WIDE_SPACES)
        except ValueError as exc:
            raise DataError(f"{source}: {exc}") from None
    # a lone surrogate in str input keeps its place in code-point order
    return data.encode(errors="surrogatepass") if isinstance(data, str) else data


def _positions(mask: np.ndarray, dtype) -> np.ndarray:
    """np.flatnonzero(mask) as `dtype`, found a block at a time, so that no
    int64 array of all the hits is made."""
    block = 1 << 16
    return np.concatenate([np.flatnonzero(mask[i:i + block]).astype(dtype) + i
                           for i in range(0, max(mask.size, 1), block)])


def _tokenise(data: bytes) -> tuple[_Tokens, np.ndarray]:
    """The tokens of `data`, as str.split finds them, and the first token of
    each line and past the last, as str.splitlines counts lines (the last
    line may be empty); a NUL byte is a fault of its line."""
    buf = np.frombuffer(data, dtype=np.uint8)
    pos = np.int32 if buf.size < 2**31 else np.int64
    kind = _BYTE_KIND[buf]
    breaks = _positions(kind == 2, pos)
    breaks = breaks[(buf[breaks] != ord("\n")) | (buf[breaks - 1] != ord("\r"))
                    | (breaks == 0)]
    nul = data.find(b"\0")
    if nul >= 0:
        raise DataError(f"line {np.searchsorted(breaks, nul) + 1}: NUL byte")
    # +1 where a token starts, -1 just past its end
    edge = np.diff((kind == 0).view(np.int8), prepend=np.int8(0), append=np.int8(0))
    del kind
    starts = _positions(edge == 1, pos)
    lengths = _positions(edge == -1, pos)
    del edge
    lengths -= starts
    lines = np.concatenate(([0], np.searchsorted(starts, breaks), [starts.size]))
    return _Tokens(buf, starts, lengths), lines.astype(pos)


def _codes(column: np.ndarray) -> tuple[np.ndarray, int]:
    """Each token's index among the sorted distinct tokens, and their count."""
    distinct, code = np.unique(column, return_inverse=True)
    return code, len(distinct)


def _floats(column: np.ndarray) -> np.ndarray:
    """float() of each token, up to the first that is not a number."""
    try:
        return column.astype(np.float64)
    except ValueError:  # float() also reads non-ASCII digits
        values = []
        for tok in column.tolist():
            try:
                values.append(float(tok.decode()))
            except ValueError:
                break
        return np.array(values)


def _triples(columns: list[np.ndarray], rows: np.ndarray, width: np.ndarray,
             rating_threshold: float | None,
             fmt: str) -> tuple[np.ndarray, np.ndarray, bool]:
    """User codes and items of the kept rows, by user, then timestamp, and
    whether any row has a rating. Row r is line rows[r] (0-based) and holds
    width[r] tokens; columns[j] holds token j of each row that has one. The
    first row that fails a check, in file order, is the fault."""
    users, items, stamps, ratings = columns
    stamps, ratings = _floats(stamps), _floats(ratings)
    stamped = width >= 3
    stamp_rows, rating_rows = np.flatnonzero(stamped), np.flatnonzero(width > 3)
    fault = np.zeros(len(rows), dtype=np.int8)  # the first check a row fails, or 0
    parsed = ((stamp_rows, stamps), (rating_rows, ratings))
    for at, values in parsed:
        fault[at[:len(values)][np.isnan(values)]] = 4
    for at, values in parsed:  # where parsing stopped, if it did
        fault[at[len(values):len(values) + 1]] = 3
    fault[stamped != stamped[:1]] = 2
    fault[(width < 2) | (width > 4)] = 1
    bad = np.flatnonzero(fault)
    if bad.size:
        row = bad[0]
        reason = {1: "expected 'user item [timestamp [rating]]'",
                  2: f"{'a' if stamped[row] else 'no'} timestamp, unlike line "
                     f"{rows[0] + 1}; as triples (data_format {fmt!r}), every row or "
                     "none has one",
                  3: "non-numeric timestamp or rating",
                  4: "NaN timestamp or rating"}[fault[row]]
        raise DataError(f"line {rows[row] + 1}: {reason}")
    keep = np.ones(len(rows), dtype=bool)
    if rating_threshold is not None:
        keep[rating_rows[ratings < rating_threshold]] = False
    user, _ = _codes(users[keep])
    stamps = stamps[keep] if stamps.size else np.zeros(user.size)
    order = np.lexsort((stamps, user))  # stable: file order breaks ties
    return user[order], items[keep][order], rating_rows.size > 0


def load_profiles(source,
                  min_item_count: int = 1,
                  min_profile_size: int = 2,
                  fmt: str = "auto",
                  rating_threshold: float | None = None,
                  test_size: float = 0.1,
                  seed: int = 0) -> ProfileDataset:
    """Load, filter, re-index, and split raw profiles into a dataset.

    `fmt` is "triples", "profiles" or "auto". ``auto`` reads triples when
    every line that holds a token holds 2 to 4 and some first token repeats,
    else profiles; a profiles file of short lines that repeat a first item
    therefore reads as triples (the module docstring gives an example).
    Items appearing in fewer than `min_item_count` profiles are dropped
    first, then profiles shorter than `min_profile_size` (after item
    filtering and de-duplication). Splitting and test selection use a
    generator seeded with `seed`.
    """
    tokens, lines = _tokenise(_file_bytes(source))
    counts = np.diff(lines)
    rows = np.flatnonzero(counts)  # the lines that hold a token
    width, first = counts[rows], lines[rows]  # each row's token count and first token
    del lines, counts
    read_as = fmt
    if fmt == "auto":
        # triples files repeat the user column; anything else reads as profiles
        repeats = (((width >= 2) & (width <= 4)).all()
                   and np.unique(tokens.column(first)).size < len(rows))
        read_as = "triples" if repeats else "profiles"
    # the token store goes before any sort: only the columns' copies remain
    if read_as == "triples":
        columns = [tokens.column(first[width > j] + j) for j in range(4)]
        del tokens, first
        prof, items, rated = _triples(columns, rows, width, rating_threshold, fmt)
    elif read_as == "profiles":
        items, rated = tokens.column(slice(None)), False
        del tokens, first
        prof = np.repeat(np.arange(len(rows)), width)
    else:
        raise DataError(f"unknown format {fmt!r}")
    if rating_threshold is not None and not rated:
        raise DataError("rating_threshold given but the file has no rating column")
    code, n_items = _codes(items)
    del items

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
        if not 2 <= self.d <= 2**31 - 1:  # item ids are stored as int32
            raise ValueError(f"d must lie in [2, 2**31 - 1], got {self.d}")
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
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
