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
d = 10. Name the format when a profiles file may look like triples. The
format is checked before the file is read, and the user column's codes are
taken once: under ``auto`` they choose the format, then order the triples.

``rating_threshold`` keeps rows with rating >= threshold. It needs a rating
column, so it is a fault on a profiles file or on triples without ratings.

A file is tokenised as bytes into the tokens of ``str.split`` on the lines
of ``str.splitlines``, one block of whole lines (about 256 KiB) at a time,
in whole-array passes over the block. One 256-entry lookup table classes
each byte: ``\t \n \x0b \x0c \r \x1c``-``\x1f`` and space separate tokens,
and ``\n``, ``\r``, ``\r\n``, ``\x0b``, ``\x0c`` and ``\x1c``-``\x1e`` end a
line. Only a file with a byte >= 0x80 is decoded, to map str's 19 other
whitespace characters (U+0085, U+00A0, U+1680, U+2000-U+200A, U+2028,
U+2029, U+202F, U+205F, U+3000) to ASCII of their kind. Every file is
walked once, whatever its format, into four columns plus the rest: of each
block only each row's token count and line number outlive it, with token j
of each row that has one, for j < 4, and every later token, in file order.
Each column is gathered into a bytes array as wide as its longest token, or
into bytes objects where that array would be the larger. Triples, and
``auto`` choosing the format, read the first four columns; a triples row
holds no fifth token, so no array holds one entry per token of a triples
file. A profiles file's five columns are put back in file order. The
file's bytes go when the walk ends. The ids' codes are their indices among
the sorted distinct tokens (UTF-8 byte order is code-point order); tokens
of at most 8 bytes sort as zero-padded big-endian uint64 keys, which order
as their bytes do. De-duplication, both filters and re-indexing act on
those codes, int32 where they fit.
Timestamps and ratings are read as ``float()`` reads them, each distinct
token once, and triples take their (user, timestamp) order from one sort
in place of one int64 key: the user's code, the timestamp's rank among the
distinct values and the row, which breaks ties in file order.

The seeded generator draws all cuts in profile order, then the held-out
profiles; synthetic data draws items and cut per profile into one
preallocated array. Each of those draws is the value of one scalar
Generator call, computed bit for bit by numpy's own algorithms from blocks
of the bit generator's raw outputs, at about a third of the calls' cost.
Either way the profiles lie end to end in one array, which stays the
dataset once each side is sorted (every side in one sort in place of one
integer key per item, int32 where every key fits): each split is a
:class:`bloomemb.codec.PackedPairs`, a view of its inputs and one of its
targets.

Synthetic datasets draw profiles from latent item clusters so that items
within a cluster co-occur, which gives the prediction task learnable
structure and produces nonzero co-occurrence statistics.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .codec import PackedInstances, PackedPairs, run_starts, utf8_text


class DataError(Exception):
    """Malformed or unusable dataset input."""


@dataclass
class ProfileDataset:
    """Split profiles: the training and held-out test lists, as PackedPairs
    whose views share one read-only int32 array of 2n sorted, nonempty sides.
    A loaded dataset's `item_ids` holds the external id of items 1..d, in
    order, as bytes; synthetic data has none, its ids being the codes."""

    d: int
    train: PackedPairs
    test: PackedPairs
    item_ids: np.ndarray | None = None

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
                   test_size: float, rng: np.random.Generator,
                   item_ids: np.ndarray | None = None) -> ProfileDataset:
    """Profile i of `items` ends at ends[i], its target starts at cuts[i]; each
    side is sorted, all sides in one sort of one int64 key per position, and
    `rng` holds out round(n * test_size) profiles."""
    if not 0 <= test_size <= 1:
        raise ValueError(f"test_size must lie in [0, 1], got {test_size}")
    n = len(ends)
    # side 2i is profile i's input, side 2i + 1 its target
    bounds = np.zeros(2 * n + 1, dtype=np.int64)
    bounds[1::2] = cuts
    bounds[2::2] = ends
    sizes = np.diff(bounds)
    # one key per position, side * (d + 1) + item, sorted in place: int32
    # where every key fits, else int64, where it stays below 2**63, as
    # d < 2**31 and there are fewer than 2**32 sides
    top = 2 * n * (d + 1)
    key = np.repeat(np.arange(0, top, d + 1, dtype=_index_dtype(top)), sizes)
    key += items
    key.sort()
    flat = np.remainder(key, d + 1, out=key).astype(np.int32, copy=False)
    del key  # freed before the held-out draw allocates
    flat.setflags(write=False)
    sides = PackedInstances(d, flat, bounds[:-1], sizes)
    held = np.zeros(n, dtype=bool)
    held[rng.choice(n, size=int(round(n * test_size)), replace=False)] = True
    return ProfileDataset(d, *(PackedPairs(sides[0::2][rows], sides[1::2][rows])
                               for rows in (~held, held)), item_ids)


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


# what str.split and str.splitlines make of each byte of ASCII text: 0 a token
# byte, 1 whitespace, 2 a line break (\r\n is one, which _walk sees to)
_BYTE_KIND = np.zeros(256, dtype=np.uint8)
_BYTE_KIND[list(b"\t\x1f ")] = 1
_BYTE_KIND[list(b"\n\x0b\x0c\r\x1c\x1d\x1e")] = 2
_LINE_BREAK = re.compile(rb"[\n\x0b\x0c\r\x1c-\x1e]")
# str's non-ASCII whitespace, each as ASCII whitespace of its kind
_WIDE_SPACES = dict.fromkeys((0xA0, 0x1680, *range(0x2000, 0x200B), 0x202F, 0x205F,
                              0x3000), " ") | dict.fromkeys((0x85, 0x2028, 0x2029), "\x0c")
# bytes that a bytes object and its pointer take beyond its contents
_BYTES_OBJECT = sys.getsizeof(b"") + 8
# bytes of text tokenised at a time: a block ends at the first line break
# from here on, so it holds whole lines, and a longer line makes it longer
_BLOCK = 1 << 18


def _index_dtype(n: int):
    """The integer type of indices and counts below `n`."""
    return np.int32 if n < 2**31 else np.int64


def _as_objects(count: int, width: int, total: int) -> bool:
    """Whether `count` tokens of `total` bytes, the longest `width`, take
    less memory as bytes objects than as a bytes array that wide."""
    return width * count > _BYTES_OBJECT * count + total


class _Column:
    """Tokens gathered a block at a time, each block's as a fixed-width bytes
    array, or as bytes objects where that would be the smaller; `array`
    joins them into one array of the kind the whole column takes by the
    same rule. Both kinds sort, unique and cast alike."""

    def __init__(self):
        self.blocks, self.count, self.width, self.total = [], 0, 1, 0

    def add(self, buf: np.ndarray, starts: np.ndarray, lengths: np.ndarray) -> None:
        count, width, total = len(starts), max(int(lengths.max(initial=0)), 1), \
            int(lengths.sum())
        self.count, self.total = self.count + count, self.total + total
        self.width = max(self.width, width)
        if _as_objects(count, width, total):
            view = memoryview(buf)
            self.blocks.append([bytes(view[a:a + n]) for a, n
                                in zip(starts.tolist(), lengths.tolist())])
            return
        # a clamped gather, then the bytes past each token's end zeroed
        at = np.arange(width, dtype=starts.dtype)
        grid = np.minimum(starts[:, None] + at, buf.size - 1)
        grid = buf[grid]
        grid *= at < lengths[:, None]
        self.blocks.append(grid.view(f"S{width}").ravel())

    def array(self) -> np.ndarray:
        """The column, its blocks dropped; a token holds no NUL, so the cast
        of a block to the column's kind adds or strips only padding."""
        out = (np.empty(self.count, dtype=object)
               if _as_objects(self.count, self.width, self.total)
               else np.zeros(self.count, dtype=f"S{self.width}"))
        at, blocks, self.blocks = 0, self.blocks, []
        for block in blocks:
            out[at:at + len(block)] = block
            at += len(block)
        return out


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


def _walk(data: bytes) -> tuple[np.ndarray, np.ndarray, list[np.ndarray]]:
    """Each row's token count and line (0-based, as str.splitlines counts
    lines), and its tokens in four columns plus the rest: token j of each
    row that has one, for j < 4, then every later token, in file order. Every
    format reads the file in this one walk. A row is a line that holds a
    token, as str.split finds them. The text is tokenised one block of whole
    lines at a time, and only these arrays outlive a block; a NUL byte is a
    fault of its line."""
    pos = _index_dtype(len(data))
    widths, lines = [np.empty(0, pos)], [np.empty(0, pos)]
    out = [_Column() for _ in range(5)]
    start = line = 0
    while start < len(data):
        cut = _LINE_BREAK.search(data, start + _BLOCK - 1)
        end = len(data) if cut is None else cut.end()
        if data[end - 1:end + 1] == b"\r\n":  # a block never splits \r\n
            end += 1
        buf = np.frombuffer(data, np.uint8, end - start, start)
        kind = _BYTE_KIND[buf]
        breaks = np.flatnonzero(kind == 2).astype(pos)
        breaks = breaks[(buf[breaks] != ord("\n")) | (buf[breaks - 1] != ord("\r"))
                        | (breaks == 0)]
        nul = data.find(b"\0", start, end)
        if nul >= 0:
            raise DataError(f"line {line + np.searchsorted(breaks, nul - start) + 1}: "
                            "NUL byte")
        # +1 where a token starts, -1 just past its end
        edge = np.diff((kind == 0).view(np.int8), prepend=np.int8(0), append=np.int8(0))
        del kind
        starts = np.flatnonzero(edge == 1).astype(pos)
        lengths = np.flatnonzero(edge == -1).astype(pos)
        del edge
        lengths -= starts
        # the first token of each line (those that the breaks end, then the
        # rest, maybe empty) and past the last
        first = np.concatenate(([0], np.searchsorted(starts, breaks), [starts.size]))
        count = np.diff(first)
        rows = np.flatnonzero(count)
        width = count[rows].astype(pos)
        first = first[rows]
        for j, column in enumerate(out[:4]):
            at = first[width > j] + j
            column.add(buf, starts[at], lengths[at])
        if width.max(initial=0) > 4:  # the tokens past each row's fourth
            rest = np.arange(starts.size) >= np.repeat(first + 4, width)
            out[4].add(buf, starts[rest], lengths[rest])
        widths.append(width)
        lines.append((rows + line).astype(pos))
        line += breaks.size
        start = end
    return np.concatenate(widths), np.concatenate(lines), [c.array() for c in out]


def _codes(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each token's index among the sorted distinct tokens, and those tokens.

    Tokens of at most 8 bytes sort as big-endian uint64 keys, zero-padded
    on the right: a token holds no NUL byte, so the padding puts a prefix
    first, as bytes order does. The keys are byteswapped in place into
    native order, and their codes come from one argsort and one sort in
    place, which hold about a third of the memory that ``np.unique`` with
    ``return_inverse`` holds. Longer tokens sort as bytes."""
    width, index = column.itemsize, _index_dtype(len(column))
    if column.dtype.kind != "S" or width > 8:
        distinct, code = np.unique(column, return_inverse=True)
        return code.astype(index), distinct
    keys = np.zeros((len(column), 8), dtype=np.uint8)
    keys[:, :width] = column.view(np.uint8).reshape(-1, width)
    keys = keys.view(">u8").ravel().byteswap(inplace=True).view("<u8")
    order = keys.argsort()
    keys.sort()
    new = run_starts(keys)
    distinct = keys[new].astype(">u8").view(np.uint8).reshape(-1, 8)[:, :width]
    del keys
    new[:1] = False  # so that the running count of new keys is the code
    code = np.empty(len(order), dtype=index)
    code[order] = np.cumsum(new, dtype=index)
    return code, np.ascontiguousarray(distinct).view(column.dtype).ravel()


def _floats(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """float() of each token, up to the first row, in file order, that is not
    a number: each row's index among the sorted distinct values (equal values
    share one) and those values. Each distinct token is parsed once."""
    code, tokens = _codes(column)
    try:
        parsed = tokens.astype(np.float64)
    except ValueError:  # float() also reads non-ASCII digits
        parsed = np.full(len(tokens), np.nan)
        number = np.ones(len(tokens), dtype=bool)
        for i, tok in enumerate(tokens.tolist()):
            try:
                parsed[i] = float(tok.decode())
            except ValueError:
                number[i] = False
        # the rows up to the first, in file order, whose token is not a number
        code = code[:np.argmin(np.append(number[code], False))]
    values, rank = np.unique(parsed, return_inverse=True)
    return rank.astype(code.dtype)[code], values


def _order(major: np.ndarray, minor: np.ndarray, n_minor: int) -> np.ndarray:
    """The stable order of rows by (major, minor), codes >= 0 with minor <
    n_minor. Where it fits in int64, the key (major * n_minor + minor) *
    rows + row, sorted in place: the row breaks ties, and the order is the
    key's remainder by rows. Else stable sorts by minor, then by major."""
    rows = len(major)
    top = (int(major.max(initial=0)) + 1) * n_minor  # above every major * n_minor + minor
    if top * rows <= 2**63:
        key = major.astype(np.int64)
        key *= n_minor
        key += minor
        key *= rows
        key += np.arange(rows)
        key.sort()
        return np.remainder(key, max(rows, 1), out=key)
    order = np.argsort(minor, kind="stable")
    return order[np.argsort(major[order], kind="stable")]


def _triples(users: np.ndarray, columns: list[np.ndarray], rows: np.ndarray,
             width: np.ndarray, rating_threshold: float | None,
             fmt: str) -> tuple[np.ndarray, np.ndarray, bool]:
    """User codes and items of the kept rows, by user, then timestamp, and
    whether any row has a rating. Row r is line rows[r] (0-based), holds
    width[r] tokens and has user code users[r]; columns[j] holds token
    j + 1 of each row that has one. The first row that fails a check, in
    file order, is the fault."""
    items, stamps, ratings = columns
    stamped = width >= 3
    stamp_rows, rating_rows = (np.flatnonzero(w).astype(users.dtype)
                               for w in (stamped, width > 3))
    fault = np.zeros(len(rows), dtype=np.int8)  # the first check a row fails, or 0
    # the rows of each column, each parsed row's rank among its distinct values,
    # and those values
    parsed = ((stamp_rows, *_floats(stamps)), (rating_rows, *_floats(ratings)))
    for at, rank, values in parsed:
        fault[at[:len(rank)][np.isnan(values)[rank]]] = 4
    for at, rank, _ in parsed:  # where parsing stopped, if it did
        fault[at[len(rank):len(rank) + 1]] = 3
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
    (_, stamps, stamp_values), (_, ratings, rating_values) = parsed
    if rating_threshold is not None:
        keep = np.ones(len(rows), dtype=bool)
        keep[rating_rows[(rating_values < rating_threshold)[ratings]]] = False
        users, items = users[keep], items[keep]  # users not dense, but in order
        stamps = stamps[keep] if stamps.size else stamps
    # stable: file order breaks ties
    order = (_order(users, stamps, len(stamp_values)) if stamps.size
             else np.argsort(users, kind="stable"))
    return users[order], items[order], rating_rows.size > 0


def load_profiles(source,
                  min_item_count: int = 1,
                  min_profile_size: int = 2,
                  fmt: str = "auto",
                  rating_threshold: float | None = None,
                  test_size: float = 0.1,
                  seed: int = 0) -> ProfileDataset:
    """Load, filter, re-index, and split raw profiles into a dataset.

    `fmt` is "triples", "profiles" or "auto", checked before the file is
    read. ``auto`` reads triples when every line that holds a token holds 2
    to 4 and some first token repeats, else profiles; the user codes it
    takes to decide are the ones the triples are read with. A profiles file
    of short lines that repeat a first item therefore reads as triples (the
    module docstring gives an example). The file is walked once, whatever
    `fmt`, into four columns plus the rest, which a profiles file puts back
    in file order.
    Items appearing in fewer than `min_item_count` profiles are dropped
    first, then profiles shorter than `min_profile_size` (after item
    filtering and de-duplication). Splitting and test selection use a
    generator seeded with `seed`.
    """
    if fmt not in ("auto", "triples", "profiles"):
        raise DataError(f"unknown format {fmt!r}")
    width, rows, (user, *columns, rest) = _walk(_file_bytes(source))
    # the user codes, taken once: a triples file repeats its first column
    users = None
    if fmt == "triples" or (fmt == "auto" and ((width >= 2) & (width <= 4)).all()):
        users, distinct = _codes(user)
        if fmt == "auto" and len(distinct) == len(rows):
            users = None
        del distinct
    if users is not None:
        del user, rest
        prof, items, rated = _triples(users, columns, rows, width, rating_threshold, fmt)
        del users, columns, rows
    else:  # every token of a profiles file, back in file order: token j < 4
        # of row r at first[r] + j, the fifth column's after first[r] + 3
        prof, rated = np.repeat(np.arange(len(width), dtype=width.dtype), width), False
        first = np.cumsum(width, dtype=width.dtype) - width
        items = np.empty(prof.size, dtype=np.result_type(user, *columns, rest))
        for j, column in enumerate([user, *columns]):
            items[first[width > j] + j] = column
        items[np.arange(prof.size, dtype=prof.dtype) >= first[prof] + 4] = rest
        del user, columns, rest, rows, first
    if rating_threshold is not None and not rated:
        raise DataError("rating_threshold given but the file has no rating column")
    code, item_ids = _codes(items)
    n_items = len(item_ids)
    del items

    # first (earliest) occurrence of each item in its profile: the first row
    # of each run of equal (profile, item) in their stable order
    order = _order(prof, code, n_items)
    starts = run_starts(prof[order])
    starts |= run_starts(code[order])
    first = np.zeros(code.size, dtype=bool)
    first[order[starts]] = True
    del order, starts
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
    return _split_dataset(d, cuts, ends, dense, test_size, rng, item_ids[kept_item])


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


class _ScalarDraws:
    """The scalar draws ``random()`` and ``integers(low, high)`` of a PCG64
    Generator, equal bit for bit to its own, computed from blocks of its raw
    64-bit outputs.

    numpy's scalar ``integers`` is Lemire's multiply-and-reject (Lemire,
    "Fast Random Integer Generation in an Interval", ACM TOMACS 2019) on a
    32-bit draw of PCG64 (O'Neill, 2014): the low half of a raw output,
    whose high half the bit generator keeps (``has_uint32``, ``uinteger``)
    for the next 32-bit draw. A span of 1 draws nothing; spans run up to
    2**32 - 1. ``random()`` is one raw output, ``>> 11``, times 2**-53.
    The outputs come from a copy of the bit generator. ``close()`` advances
    the Generator past the outputs used and hands it the spare half, so its
    stream goes on as if it had made every draw itself.
    """

    _BLOCK = 4096

    def __init__(self, rng: np.random.Generator):
        self._rng = rng
        state = rng.bit_generator.state
        self._bits = np.random.PCG64()
        self._bits.state = state
        self._spare = state["uinteger"] if state["has_uint32"] else None
        self._raw: list[int] = []  # the block's unused outputs, last one next
        self._drawn = 0

    def _refill(self) -> list[int]:
        self._raw = self._bits.random_raw(self._BLOCK).tolist()[::-1]
        self._drawn += self._BLOCK
        return self._raw

    def random(self) -> float:
        return ((self._raw or self._refill()).pop() >> 11) * (1.0 / 9007199254740992.0)

    def integers(self, low: int, high: int) -> int:
        span = high - low
        if span == 1:
            return low
        while True:  # a 32-bit draw: the spare half, else a new output's low half
            x = self._spare
            if x is None:
                x = (self._raw or self._refill()).pop()
                self._spare = x >> 32
                x &= 0xFFFFFFFF
            else:
                self._spare = None
            m = x * span
            # numpy keeps m at once if its low half is >= span, else while that
            # half is below 2**32 % span (< span) it draws again: one test
            if m & 0xFFFFFFFF >= (1 << 32) % span:
                return low + (m >> 32)

    def close(self) -> None:
        bits = self._rng.bit_generator
        bits.advance(self._drawn - len(self._raw))
        if self._spare is not None:  # advance() drops any spare half
            state = bits.state
            state["has_uint32"], state["uinteger"] = 1, self._spare
            bits.state = state


def _cluster_bounds(spec: SyntheticSpec, g: int) -> tuple[int, int]:
    lo = g * spec.d // spec.n_clusters + 1
    hi = (g + 1) * spec.d // spec.n_clusters
    return lo, hi


def generate_synthetic(spec: SyntheticSpec) -> ProfileDataset:
    """Draw profiles from latent clusters; deterministic given spec.seed.

    Each draw is one scalar ``Generator`` call's value, read by
    :class:`_ScalarDraws` from the bit generator's raw outputs; the held-out
    profiles are then drawn by the Generator itself."""
    rng = np.random.default_rng(spec.seed)
    draws = _ScalarDraws(rng)
    integers, random = draws.integers, draws.random
    flat = np.empty(spec.n * spec.profile_size_max, dtype=np.int32)
    cuts = np.empty(spec.n, dtype=np.int64)
    ends = np.empty(spec.n, dtype=np.int64)
    end = 0
    for i in range(spec.n):
        g = integers(0, spec.n_clusters)
        lo, hi = _cluster_bounds(spec, g)
        size = integers(spec.profile_size_min, spec.profile_size_max + 1)
        items: dict[int, None] = {}  # distinct items in first-draw order
        attempts = 0
        while len(items) < size and attempts < 50 * size:
            attempts += 1
            if random() < spec.noise:
                items[integers(1, spec.d + 1)] = None
            else:
                items[integers(lo, hi + 1)] = None
        while len(items) < 2:  # degenerate pools: top up deterministically
            items[integers(1, spec.d + 1)] = None
        cuts[i] = end + integers(1, len(items))
        flat[end:end + len(items)] = list(items)
        end += len(items)
        ends[i] = end
    draws.close()
    return _split_dataset(spec.d, cuts, ends, flat[:end], spec.test_size, rng)
