"""Loading contracts: parsing, filtering, re-indexing and profile order.

Every profile is split at a random cut into an input (its earlier items)
and a target (its later items), and each side is stored as a sorted set.
So a profile's order shows only through which items land on which side;
:func:`assert_order` checks that against the expected item order.
"""

import io
import random
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from bloomemb.data import DataError, load_profiles


def load(text, **kwargs):
    """Dataset of `text` with every profile in the training list, in order."""
    return load_profiles(io.StringIO(text), test_size=0.01, **kwargs)


def profile_sets(ds):
    return [(set(inp.positions.tolist()), set(out.positions.tolist()))
            for inp, out in ds.train]


def assert_order(profile, expected):
    """The input side is a nonempty prefix of `expected`, the target the rest."""
    inp, out = profile
    cut = len(inp)
    assert 1 <= cut < len(expected)
    assert inp == set(expected[:cut]) and out == set(expected[cut:])


def test_triples_follow_timestamps_with_ties_in_file_order():
    # item ids 1..4 re-index to 1..4; u1's items by (timestamp, line): 3 4 1 2
    text = "u1 4 20\nu1 2 30\nu1 3 10\nu1 1 20\n"
    for seed in range(10):  # other seeds cut elsewhere
        ds = load(text, seed=seed)
        assert ds.d == 4 and ds.n == 1
        assert_order(profile_sets(ds)[0], [3, 4, 1, 2])


def test_triples_without_timestamps_keep_file_order():
    for seed in range(10):
        ds = load("u 3\nu 1\nu 2\n", fmt="triples", seed=seed)
        assert_order(profile_sets(ds)[0], [3, 1, 2])


def test_rating_threshold_keeps_rows_at_or_above_it():
    text = "u1 1 1 5\nu1 2 2 3\nu1 3 3 4\nu1 4 4 1\n"
    ds = load(text, rating_threshold=4)
    # items 1 and 3 survive and re-index to 1 and 2
    assert ds.d == 2
    assert profile_sets(ds) == [({1}, {2})]


def test_rating_threshold_without_rating_column_is_a_data_error():
    with pytest.raises(DataError, match="no rating column"):
        load("u1 1 1\nu1 2 2\n", rating_threshold=3)


def test_duplicate_items_keep_their_first_occurrence():
    for seed in range(10):
        ds = load("1 2 1 3 2\n", fmt="profiles", seed=seed)
        assert ds.d == 3
        assert_order(profile_sets(ds)[0], [1, 2, 3])


def test_item_count_filter_runs_before_profile_size_filter():
    # item 3 occurs in two profiles, one of them too short to keep: counted
    # before that profile is dropped, item 3 reaches min_item_count and stays
    ds = load("1 2 3\n1 2\n3\n", fmt="profiles", min_item_count=2)
    assert ds.d == 3
    assert [inp | out for inp, out in profile_sets(ds)] == [{1, 2, 3}, {1, 2}]


def test_profile_shrunk_by_the_item_filter_is_dropped():
    # item 7 occurs once; without it the last profile holds one item
    ds = load("5 6\n5 6\n7 5\n", fmt="profiles", min_item_count=2)
    assert ds.n == 2 and ds.d == 2
    assert profile_sets(ds) == [({1}, {2}), ({1}, {2})]


def test_no_surviving_profile_is_a_data_error():
    with pytest.raises(DataError, match="no profiles survive"):
        load("1 2\n3 4\n", fmt="profiles", min_item_count=2)


def test_dense_ids_follow_lexicographic_order_of_the_external_ids():
    # sorted as strings: "10" < "9", so "10" -> 1 and "9" -> 2
    ds = load("9 10\n", fmt="profiles")
    assert profile_sets(ds) == [({2}, {1})]


def test_profiles_format_reads_one_profile_per_line():
    ds = load("10 20 30\n10 40 50\n60 70\n", fmt="profiles")
    assert ds.n == 3
    assert ds.d == 7
    assert [inp | out for inp, out in profile_sets(ds)] == [
        {1, 2, 3}, {1, 4, 5}, {6, 7}]


def test_unknown_format_is_a_data_error():
    with pytest.raises(DataError, match="unknown format"):
        load("1 2\n", fmt="csv")


def test_malformed_triple_names_its_line():
    with pytest.raises(DataError, match="line 2"):
        load("u1 1 1\nu1 2 x\n", fmt="triples")


@pytest.mark.parametrize("text,kwargs", [
    ("u 2 5\nu 1 nan\nu 3 1\n", {}),  # NaN would sort before or after anything
    ("u 1 1 5\nu 2 2 nan\nu 3 3 4\n", {"rating_threshold": 3}),
], ids=["timestamp", "rating"])
def test_nan_timestamp_or_rating_names_its_line(text, kwargs):
    with pytest.raises(DataError, match="line 2"):
        load(text, fmt="triples", **kwargs)


@pytest.mark.parametrize("text,fmt,message", [
    ("u 5 1000\nu 6\nu 7 1001\n", "triples",
     "line 2: no timestamp, unlike line 1; as triples (data_format 'triples'), "
     "every row or none has one"),
    ("\nu 6\nu 5 1000 4\n", "auto",
     "line 3: a timestamp, unlike line 2; as triples (data_format 'auto'), "
     "every row or none has one"),
], ids=["missing", "extra"])
def test_a_triples_file_mixing_rows_with_and_without_timestamps_is_a_fault(
        text, fmt, message):
    with pytest.raises(DataError) as exc:
        load(text, fmt=fmt)
    assert str(exc.value) == message


# ---------------------------------------------------------------------------
# the array pass against the per-profile loader it replaced
# ---------------------------------------------------------------------------


def reference_load(text, min_item_count=1, min_profile_size=2, fmt="auto",
                   rating_threshold=None, test_size=0.1, seed=0):
    """(d, train, test) as position lists, built one profile at a time."""
    lines = text.splitlines()
    tokens = [ln.split() for ln in lines if ln.split()]
    setting = fmt
    if fmt == "auto":
        fmt = ("triples" if tokens and all(2 <= len(p) <= 4 for p in tokens)
               and len({p[0] for p in tokens}) < len(tokens) else "profiles")
    if fmt == "triples":
        rows, saw_rating, first = [], False, None
        for lineno, line in enumerate(lines, start=1):
            parts = line.split()
            if not parts:
                continue
            if not 2 <= len(parts) <= 4:
                raise DataError(f"line {lineno}: expected 'user item [timestamp [rating]]'")
            # every row carries a timestamp or none does
            first = first or (lineno, len(parts) > 2)
            if (len(parts) > 2) != first[1]:
                raise DataError(
                    f"line {lineno}: {'a' if len(parts) > 2 else 'no'} timestamp, "
                    f"unlike line {first[0]}; as triples (data_format {setting!r}), "
                    "every row or none has one")
            try:
                ts = float(parts[2]) if len(parts) >= 3 else 0.0
                rating = float(parts[3]) if len(parts) == 4 else None
            except ValueError:
                raise DataError(f"line {lineno}: non-numeric timestamp or rating") from None
            saw_rating |= rating is not None
            if rating is None or rating_threshold is None or rating >= rating_threshold:
                rows.append((parts[0], ts, lineno, parts[1]))
        if rating_threshold is not None and not saw_rating:
            raise DataError("rating_threshold given but the file has no rating column")
        by_user: dict[str, list[str]] = {}
        for user, _, _, item in sorted(rows):
            by_user.setdefault(user, []).append(item)
        profiles = list(by_user.values())
    elif fmt == "profiles":
        profiles = tokens
    else:
        raise DataError(f"unknown format {fmt!r}")
    profiles = [list(dict.fromkeys(p)) for p in profiles]
    counts = Counter(it for p in profiles for it in p)
    kept = sorted(it for it, c in counts.items() if c >= min_item_count)
    index = {it: i for i, it in enumerate(kept, start=1)}
    profiles = [[index[it] for it in p if it in index] for p in profiles]
    profiles = [p for p in profiles if len(p) >= max(min_profile_size, 2)]
    if not profiles:
        raise DataError("no profiles survive filtering")
    rng = np.random.default_rng(seed)
    split = []
    for p in profiles:
        cut = int(rng.integers(1, len(p)))
        split.append((sorted(p[:cut]), sorted(p[cut:])))
    n = len(split)
    size = max(0, min(int(round(n * test_size)), n))
    held = set(rng.choice(n, size=size, replace=False).tolist())
    return (len(index), [s for i, s in enumerate(split) if i not in held],
            [split[i] for i in sorted(held)])


def random_text(r: random.Random) -> str:
    """Triples (2 columns, or 3-4 with tied timestamps and ratings, or a mix
    of the two, which is a fault) or profile lines, over ids whose string
    order differs from their value."""
    users = [f"u{i}" for i in range(r.randint(1, 8))]
    items = [str(i) for i in range(r.randint(2, 15))] + ["a", "b10", "b9"]
    lines = []
    if r.random() < 0.5:
        widths = r.choice([[2], [3, 4], [2, 3, 3, 4, 4]])
        for _ in range(r.randint(0, 50)):
            row = [r.choice(users), r.choice(items)]
            cols = r.choice(widths)
            if cols >= 3:
                row.append(str(r.randint(0, 5)))
            if cols == 4:
                row.append(str(r.choice([1, 2, 3, 4, 5, 2.5])))
            lines.append(" ".join(row))
    else:
        for _ in range(r.randint(0, 12)):
            lines.append(" ".join(r.choices(items, k=r.randint(0, 7))))
    return "\n".join(lines) + r.choice(["", "\n"])


def loaded_lists(text, **kwargs):
    """`reference_load`'s shape of the dataset `load_profiles` builds."""
    def sides(pairs):
        return [(inp.positions.tolist(), out.positions.tolist()) for inp, out in pairs]

    ds = load_profiles(io.StringIO(text), **kwargs)
    return ds.d, sides(ds.train), sides(ds.test)


def outcome(load_fn, text, **kwargs):
    try:
        return load_fn(text, **kwargs)
    except DataError as exc:
        return f"DataError: {exc}"


@pytest.mark.parametrize("case", range(40))
def test_load_profiles_matches_the_per_profile_reference(case):
    r = random.Random(case)
    text = random_text(r)
    for _ in range(6):
        kwargs = dict(fmt=r.choice(["auto", "triples", "profiles"]),
                      min_item_count=r.choice([1, 2, 3]),
                      min_profile_size=r.choice([1, 2, 3, 4]),
                      rating_threshold=r.choice([None, None, 3, 4.5]),
                      test_size=r.choice([0.1, 0.3, 0.5]),
                      seed=r.randrange(1000))
        assert (outcome(loaded_lists, text, **kwargs)
                == outcome(reference_load, text, **kwargs)), kwargs


def test_load_peak_memory_stays_a_small_multiple_of_the_text():
    # 20k rows over 40-char user and item ids; a fixed-width numpy str array
    # of ids, sized by the longest one, would push the peak over the bound
    r = random.Random(0)
    text = "".join(f"{r.randrange(2000):040d} {r.randrange(5000):040d} {t}\n"
                   for t in range(20_000))
    tracemalloc.start()
    try:
        load_profiles(io.StringIO(text))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 13 * len(text), peak / len(text)
