"""Encoding of sparse binary instances, ranked recovery of item scores, and
the file formats of every Bloom artifact.

An instance is the set of active positions of a d-dimensional binary
vector. Every function works on a batch: encoding sets, for every active
position of every instance, the bits at its k projected embedding
positions, giving an (n, m) bit array. A batch is a :class:`PackedInstances`
view of positions laid end to end in one read-only int32 array, and a split
a :class:`PackedPairs` of an input and a target view. One index kernel
computes the flat index ``i * m + b`` of each bit a view's instance i sets:
:func:`encode_rows` scatters ones at them into a caller's array of any
dtype and layout, :func:`encode_batch` packs a list and encodes it into
uint8, and :func:`set_bits` sorts them and drops repeats, which gives the
row-major positions of the encoding's nonzero entries without the (n, m)
array. Decoding maps (n, m) probabilities back to (n, d) per-item
scores: the likelihood of item i is the product of the probabilities at
its k projections, and the negative-log variant is the numerically stable
form of the same ranking; both decoders fold the k gathered columns in one
combine, and :func:`decode_batch` picks the decoder of a decode mode and
its :class:`ScoreOrder`. Ranking turns scores into best-first item ids,
ties to the lower id. Membership never produces false negatives; false
positives occur when all k projections of an absent item collide with set
bits. The no-embedding baseline is the identity matrix (m = d, k = 1),
whose encoding is the multi-hot vector and whose likelihood decoding
returns the probabilities unchanged.

File formats, each written by a pure function and read by one that takes
the file's bytes or its text (the caller opens the file):

* hash matrix, text — a header line ``d m k seed``, then d lines of k
  space-separated indices in [1, m];
* hash matrix, binary — magic ``BEH1``, little-endian uint32 d, m, k and
  uint64 seed, then d*k little-endian uint32 indices, row-major;
  :func:`matrix_from_bytes` reads either, sniffing the magic;
* instance file — one instance per line, space-separated 1-based item
  positions; an empty line is the empty instance;
* embedded-vector file — one line per vector of m characters '0'/'1';
* probability file — one line per vector of m whitespace-separated
  probabilities in [0, 1];
* score dump — TSV with columns instance, item, score for the top-n items
  of each decoded instance.

One fault rule holds for every text reader: a malformed line, or one that
holds bytes that are not UTF-8, is a ValueError that starts ``line N:``,
counting every line from 1 (a matrix header's dimensions are line 1's);
the vector and matrix readers skip empty lines.
"""

from __future__ import annotations

import enum
import struct
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .hashing import HashMatrix, _check_dims

DEFAULT_NLL_EPSILON = 1e-12
_BINARY_MAGIC = b"BEH1"


class ScoreOrder(enum.Enum):
    DESCENDING_LIKELIHOOD = "descending-likelihood"
    ASCENDING_NLL = "ascending-nll"


def _checked_positions(d: int, positions) -> np.ndarray:
    """`positions` as an array, once d (at most 2**31 - 1), its shape, its
    dtype and its range pass; checked before the cast to int32, which
    truncates floats and wraps large ints."""
    _check_dims(d)
    pos = np.asarray(positions)
    if pos.ndim != 1:
        raise ValueError("positions must be one-dimensional")
    if pos.size and pos.dtype.kind not in "iu":
        raise ValueError(f"positions must be integers, got {pos.dtype}")
    if pos.size and (pos.min() < 1 or pos.max() > d):
        raise ValueError(f"positions must lie in [1, {d}]")
    return pos


def run_starts(values: np.ndarray) -> np.ndarray:
    """Where each run of equal elements of 1-d `values` starts: True at the
    first element and at each that differs from the one before it."""
    starts = np.ones(values.size, dtype=bool)
    np.not_equal(values[1:], values[:-1], out=starts[1:])
    return starts


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """`values` sorted, each once: a sort, then adjacent repeats dropped, as
    a plain ``np.unique`` gives them without its import of ``numpy.ma``."""
    values = np.sort(values)
    return values[run_starts(values)]


@dataclass(frozen=True, slots=True)
class SparseInstance:
    """Active positions p (sorted, distinct, 1-based) of a binary vector."""

    d: int
    positions: np.ndarray

    def __post_init__(self):
        pos = _sorted_distinct(_checked_positions(self.d, self.positions))
        pos = pos.astype(np.int32, copy=False)
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @classmethod
    def from_items(cls, d: int, items: Iterable[int]) -> "SparseInstance":
        return cls(d=d, positions=list(items))

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


class PackedInstances(Sequence):
    """Instances whose positions lie in `flat`: instance i is
    ``flat[starts[i]:starts[i] + sizes[i]]``. An int index builds a
    SparseInstance; a slice or an index array gives a view of `flat`."""

    def __init__(self, d: int, flat: np.ndarray, starts: np.ndarray, sizes: np.ndarray):
        self.d, self.flat, self.starts, self.sizes = d, flat, starts, sizes

    @classmethod
    def of(cls, instances: Sequence[SparseInstance],
           d: int | None = None) -> "PackedInstances":
        """`instances` itself if a view of `d` (default: its own), else packed
        into a read-only `flat`: the one check of each instance's d."""
        if isinstance(instances, cls) and d in (None, instances.d):
            return instances
        d = instances[0].d if d is None else d
        for inst in instances:
            if inst.d != d:
                raise ValueError(f"mixed dimensionalities: instance d {inst.d} != {d}")
        sizes = np.array([inst.c for inst in instances], dtype=np.int64)
        flat = np.concatenate([np.empty(0, dtype=np.int32),
                               *(inst.positions for inst in instances)])
        flat.setflags(write=False)
        return cls(d, flat, np.cumsum(sizes) - sizes, sizes)

    def __len__(self) -> int:
        return self.sizes.size

    def __getitem__(self, i):
        if isinstance(i, slice) or np.ndim(i):
            return PackedInstances(self.d, self.flat, self.starts[i], self.sizes[i])
        start, size = int(self.starts[i]), int(self.sizes[i])
        return SparseInstance(self.d, self.flat[start:start + size])

    def concatenated(self) -> np.ndarray:
        """Every instance's positions, in order, end to end in one array."""
        # the index in `flat` of each position: its index here, moved by its
        # instance's start less the positions before that instance here
        offsets = np.cumsum(self.sizes) - self.sizes
        return self.flat[np.arange(self.sizes.sum())
                         + np.repeat(self.starts - offsets, self.sizes)]

    def positions(self) -> Iterator[np.ndarray]:
        """Each instance's positions, in order, as a view of `flat`."""
        for start, size in zip(self.starts.tolist(), self.sizes.tolist()):
            yield self.flat[start:start + size]


class PackedPairs(Sequence):
    """(input, target) pairs as two PackedInstances of equal length: an int
    index builds a pair of instances, a slice or an index array a view."""

    def __init__(self, inputs: PackedInstances, targets: PackedInstances):
        self.d, self.inputs, self.targets = inputs.d, inputs, targets

    @classmethod
    def of(cls, pairs: Sequence[tuple[SparseInstance, SparseInstance]]) -> "PackedPairs":
        """`pairs` itself if packed, else each side packed against the first d."""
        if isinstance(pairs, PackedPairs):
            return pairs
        inputs, targets = zip(*pairs)
        return cls(PackedInstances.of(inputs), PackedInstances.of(targets, inputs[0].d))

    def __len__(self) -> int:
        return len(self.inputs)

    def __getitem__(self, i):
        if isinstance(i, slice) or np.ndim(i):
            return PackedPairs(self.inputs[i], self.targets[i])
        return self.inputs[i], self.targets[i]


def _bit_codes(instances: PackedInstances, matrix: HashMatrix) -> np.ndarray:
    """The index kernel: flat index ``i * m + b`` of every bit that an active
    position of instance i projects to, 0-based b, one per projection, by
    instance; a bit two positions share appears twice."""
    sizes = instances.sizes
    owner = np.repeat(np.arange(sizes.size) * matrix.m, sizes * matrix.k)
    return owner + (matrix.rows[instances.concatenated() - 1].ravel() - 1)


def set_bits(instances: PackedInstances, matrix: HashMatrix) -> np.ndarray:
    """Sorted distinct flat indices ``i * m + b`` of the bits set in the
    encoding of the view `instances`: the row-major order of its nonzero
    entries, without building it; O(c*k log(c*k)) per instance."""
    return _sorted_distinct(_bit_codes(instances, matrix))


def encode_rows(instances: PackedInstances, matrix: HashMatrix,
                out: np.ndarray) -> np.ndarray:
    """Encode the view `instances` into `out`, an (len(instances), m) array
    of any dtype and layout: zeroed, then 1 at every bit an active position
    projects to; O(c*k) per instance past the zeroing."""
    out.fill(0)
    # put indexes `out` as flattened in row-major order whatever its strides,
    # where a reshape of a non-contiguous `out` would write to a copy
    np.put(out, _bit_codes(instances, matrix), 1)
    return out


def encode_batch(instances: Sequence[SparseInstance], matrix: HashMatrix) -> np.ndarray:
    """Embed instances into an (n, m) uint8 bit array; O(c*k) per instance."""
    packed = PackedInstances.of(instances, matrix.d)
    return encode_rows(packed, matrix, np.empty((len(packed), matrix.m), dtype=np.uint8))


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


def decode_nll_batch(probs: np.ndarray, matrix: HashMatrix) -> np.ndarray:
    """(n, m) probabilities -> (n, d) negative-log-likelihoods; lower is better.

    Item i scores -sum(log(max(prob, DEFAULT_NLL_EPSILON))) over its
    projections. For items whose projected probabilities all exceed the
    epsilon, ascending order equals the descending likelihood order.
    """
    probs = _probabilities(probs, matrix)
    return _combine(-np.log(np.maximum(probs, DEFAULT_NLL_EPSILON)), matrix, np.add)


def decode_batch(probs: np.ndarray, matrix: HashMatrix,
                 mode: str) -> tuple[np.ndarray, ScoreOrder]:
    """(n, m) probabilities -> (n, d) scores of a decode mode and their order."""
    if mode == "likelihood":
        return decode_likelihood_batch(probs, matrix), ScoreOrder.DESCENDING_LIKELIHOOD
    if mode == "nll":
        return decode_nll_batch(probs, matrix), ScoreOrder.ASCENDING_NLL
    raise ValueError(f"decode mode must be likelihood or nll, got {mode!r}")


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


def utf8_text(data: bytes | str) -> str:
    """A file's bytes (or text, returned as is) as text; bytes that are not
    UTF-8 raise ``ValueError("line N: ...")`` for the line that holds them."""
    if isinstance(data, str):
        return data
    try:
        return data.decode()
    except UnicodeDecodeError as exc:
        # the line of the bad byte, counted on the valid prefix as splitlines does
        lineno = len((data[:exc.start].decode() + "x").splitlines())
        raise ValueError(f"line {lineno}: not UTF-8 text (byte {exc.start})") from None


def _numbered(data: bytes | str) -> list[tuple[int, str]]:
    """The lines of an artifact's bytes or text, each with its 1-based number."""
    return list(enumerate(utf8_text(data).splitlines(), start=1))


def _parse_lines(lines: Iterable[tuple[int, str]], parse) -> list:
    """`parse(line)` of each (number, line) pair, None results dropped; a
    ValueError or OverflowError of the parse is ``ValueError("line N: ...")``."""
    out = []
    for lineno, line in lines:
        try:
            value = parse(line)
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if value is not None:
            out.append(value)
    return out


def read_instances(data: bytes | str, d: int) -> PackedInstances:
    """Parse an instance file (see module docstring) into one packed batch."""
    instances = _parse_lines(_numbered(data), lambda line: SparseInstance(
        d, [int(tok) for tok in line.split()]))
    return PackedInstances.of(instances, d)


def read_bit_vectors(data: bytes | str, m: int) -> np.ndarray:
    """Parse an embedded-vector file of width m into an (n, m) uint8 array."""
    def parse(line: str) -> str | None:
        if line and (len(line) != m or set(line) - {"0", "1"}):
            raise ValueError(f"expected {m} characters of 0/1")
        return line or None

    rows = _parse_lines(_numbered(data), parse)
    if not rows:
        raise ValueError("empty embedded-vector file")
    return (np.frombuffer("".join(rows).encode(), np.uint8) - ord("0")).reshape(-1, m)


def read_probabilities(data: bytes | str, m: int) -> np.ndarray:
    """Parse a probability file of width m into an (n, m) float64 array."""
    def parse(line: str) -> list[float] | None:
        row = [float(v) for v in line.split()]
        if row and len(row) != m:
            raise ValueError(f"expected {m} probabilities, got {len(row)}")
        bad = [v for v in row if not 0.0 <= v <= 1.0]  # NaN fails both
        if bad:
            raise ValueError(f"probability {bad[0]} outside [0, 1]")
        return row or None

    rows = _parse_lines(_numbered(data), parse)
    if not rows:
        raise ValueError("no probability vectors")
    return np.asarray(rows, dtype=np.float64)


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


def matrix_from_bytes(data: bytes | str) -> HashMatrix:
    """Read a matrix_to_text or matrix_to_binary payload, sniffing the format."""
    if data[:4] == _BINARY_MAGIC:
        return _from_binary(data)
    return _from_text(data)


def matrix_to_text(matrix: HashMatrix) -> str:
    return f"{matrix.d} {matrix.m} {matrix.k} {matrix.seed}\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in matrix.rows.tolist())


def _matrix_header(line: str) -> list[int]:
    fields = line.split()
    if len(fields) != 4:
        raise ValueError(f"malformed header {line!r}, expected 'd m k seed'")
    d, m, k, seed = (int(v) for v in fields)
    _check_dims(d, m, k)
    return [d, m, k, seed]


def _from_text(data: bytes | str) -> HashMatrix:
    """Line 1 is the header; the array holds only rows checked against it."""
    lines = _numbered(data)
    if not lines:
        raise ValueError("empty hash-matrix file")
    [(d, m, k, seed)] = _parse_lines(lines[:1], _matrix_header)

    def parse(line: str) -> list[int] | None:
        row = [int(v) for v in line.split()]
        if row and len(row) != k:
            raise ValueError(f"{len(row)} indices, expected {k}")
        if row and (min(row) < 1 or max(row) > m):
            raise ValueError(f"projection indices must lie in [1, {m}]")
        if len(set(row)) != len(row):
            raise ValueError("repeated index within a row")
        return row or None

    rows = _parse_lines(lines[1:], parse)
    if len(rows) != d:
        raise ValueError(f"header declares {d} rows, file has {len(rows)}")
    return HashMatrix(d=d, m=m, k=k, seed=seed, rows=np.array(rows))


def matrix_to_binary(matrix: HashMatrix) -> bytes:
    header = struct.pack("<IIIQ", matrix.d, matrix.m, matrix.k, matrix.seed)
    return _BINARY_MAGIC + header + matrix.rows.astype("<u4").tobytes()


def _from_binary(data: bytes) -> HashMatrix:
    if len(data) < 24:
        raise ValueError("truncated hash-matrix file: incomplete header")
    d, m, k, seed = struct.unpack("<IIIQ", data[4:24])
    expected = 24 + 4 * d * k
    if len(data) != expected:
        raise ValueError(
            f"truncated hash-matrix file: expected {expected} bytes, got {len(data)}")
    rows = np.frombuffer(data, dtype="<u4", offset=24).reshape(d, k)
    return HashMatrix(d=d, m=m, k=k, seed=seed, rows=rows)
