"""Loading contracts: parsing, filtering, re-indexing and profile order.

Every profile is split at a random cut into an input (its earlier items)
and a target (its later items), and each side is stored as a sorted set.
So a profile's order shows only through which items land on which side;
:func:`assert_order` checks that against the expected item order.
"""

import gc
import hashlib
import io
import random
from collections import Counter

import numpy as np
import pytest

from bloomemb.codec import PackedInstances, PackedPairs, SparseInstance
from bloomemb import data
from bloomemb.data import (DataError, ProfileDataset, SyntheticSpec, _cluster_bounds,
                           _codes, _floats, _order, _ScalarDraws, _split_dataset,
                           _walk, generate_synthetic, load_profiles)
from bloomemb.experiment import (ExperimentConfig, build_matrices, evaluate_model, fit,
                                 load_dataset)


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


# auto reads a file as profiles when no first column repeats
@pytest.mark.parametrize("fmt,text", [
    ("profiles", "1 2 3\n4 5 6\n7 8 9\n1 5 9\n"),
    ("auto", "1 2 3\n4 5 6\n7 8 9\n2 5 9\n")], ids=["profiles", "auto"])
def test_rating_threshold_on_a_profiles_file_is_a_data_error(fmt, text):
    with pytest.raises(DataError) as exc:
        load(text, fmt=fmt, rating_threshold=3)
    assert str(exc.value) == "rating_threshold given but the file has no rating column"


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


@pytest.mark.parametrize("build", [
    lambda: load_profiles(io.StringIO("u1 4 2\nu1 2 3\nu2 3 1\nu2 1 2\nu2 4 3\n"),
                          test_size=0.5),
    lambda: generate_synthetic(SyntheticSpec(d=30, n=40, n_clusters=3)),
], ids=["load_profiles", "generate_synthetic"])
def test_both_splits_share_one_packed_array(build):
    ds = build()
    train, test = ds.train, ds.test
    assert len(test) and len(train) + len(test) == ds.n
    views = [train.inputs, train.targets, test.inputs, test.targets]
    flat = train.inputs.flat
    assert all(view.flat is flat for view in views)
    assert flat.dtype == np.int32 and not flat.flags.writeable
    # the views' segments tile the array: each position lies in exactly one
    starts = np.concatenate([view.starts for view in views])
    sizes = np.concatenate([view.sizes for view in views])
    assert sizes.sum() == flat.size and (sizes > 0).all()
    covered = np.zeros(flat.size, dtype=int)
    for start, size in zip(starts.tolist(), sizes.tolist()):
        covered[start:start + size] += 1
    assert (covered == 1).all()
    # a profile's input lies just before its target
    for split in (train, test):
        assert (split.inputs.starts + split.inputs.sizes == split.targets.starts).all()
    # indexing a split builds what SparseInstance builds from each segment
    for split in (train, test):
        assert list(split) == [(SparseInstance(ds.d, flat[a:a + m]),
                                SparseInstance(ds.d, flat[b:b + n]))
                               for a, m, b, n in zip(split.inputs.starts, split.inputs.sizes,
                                                     split.targets.starts, split.targets.sizes)]


def test_one_item_clusters_top_profiles_up_to_two_items():
    # each of the 4 clusters holds one item, so every draw from a profile's
    # cluster repeats and the size-2 profile is topped up from all d items
    ds = generate_synthetic(SyntheticSpec(d=4, n=3, n_clusters=4, noise=0.0,
                                          profile_size_min=2, profile_size_max=2))
    assert ds.n == 3
    for split in (ds.train, ds.test):
        assert (split.inputs.sizes + split.targets.sizes == 2).all()
        assert all(not set(inp.positions) & set(out.positions) for inp, out in split)


def reference_synthetic(spec):
    """generate_synthetic with one Generator call per scalar draw, as it
    drew before its draws were read from raw outputs."""
    rng = np.random.default_rng(spec.seed)
    flat = np.empty(spec.n * spec.profile_size_max, dtype=np.int32)
    cuts = np.empty(spec.n, dtype=np.int64)
    ends = np.empty(spec.n, dtype=np.int64)
    end = 0
    for i in range(spec.n):
        g = int(rng.integers(spec.n_clusters))
        lo, hi = _cluster_bounds(spec, g)
        size = int(rng.integers(spec.profile_size_min, spec.profile_size_max + 1))
        items = {}
        attempts = 0
        while len(items) < size and attempts < 50 * size:
            attempts += 1
            if rng.random() < spec.noise:
                items[int(rng.integers(1, spec.d + 1))] = None
            else:
                items[int(rng.integers(lo, hi + 1))] = None
        while len(items) < 2:
            items[int(rng.integers(1, spec.d + 1))] = None
        cuts[i] = end + int(rng.integers(1, len(items)))
        flat[end:end + len(items)] = list(items)
        end += len(items)
        ends[i] = end
    return _split_dataset(spec.d, cuts, ends, flat[:end], spec.test_size, rng)


def dataset_arrays(ds):
    """d and every array of both splits; the test split's starts are the
    held-out profiles' places in the shared array."""
    return [ds.d] + [a for split in (ds.train, ds.test)
                     for side in (split.inputs, split.targets)
                     for a in (side.flat, side.starts, side.sizes)]


@pytest.mark.parametrize("spec", [
    SyntheticSpec(d=2000, n=3000, n_clusters=50, seed=31),
    SyntheticSpec(d=2000, n=3000, seed=4, test_size=0.3),
    SyntheticSpec(d=500, n=2000, n_clusters=20, noise=1.0, seed=7),
    SyntheticSpec(d=4, n=3, n_clusters=4, noise=0.0, profile_size_min=2,
                  profile_size_max=2),
    SyntheticSpec(d=2**31 - 1, n=2000, n_clusters=7, seed=5),
], ids=["d2000-50-clusters", "default-clusters", "noise-1", "top-up", "d-int32-max"])
def test_synthetic_data_equals_one_generator_call_per_draw(spec):
    got = dataset_arrays(generate_synthetic(spec))
    want = dataset_arrays(reference_synthetic(spec))
    assert got[0] == want[0]
    for a, b in zip(got[1:], want[1:]):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def live_state(rng):
    """The PCG64 state and its spare half, if it holds one (numpy leaves a
    used half's stale value in the state)."""
    state = rng.bit_generator.state
    return state["state"], state["has_uint32"] and state["uinteger"]


# spans of integers(low, high); 3 * 2**30 rejects a quarter of its draws
SPANS = [1, 2, 7, 50, 2000, 2**31 - 1, 3 * 2**30]


@pytest.mark.parametrize("spare_at_close", [False, True],
                         ids=["even-close", "odd-close"])
@pytest.mark.parametrize("spare_at_start", [False, True], ids=["fresh", "spare-half"])
def test_scalar_draws_equal_the_generators_and_hand_its_stream_back(spare_at_start,
                                                                     spare_at_close):
    rng, ref = np.random.default_rng(12), np.random.default_rng(12)
    if spare_at_start:  # an odd number of 32-bit draws leaves a high half spare
        assert rng.integers(0, 9) == ref.integers(0, 9)
        assert rng.bit_generator.state["has_uint32"] == 1
    draws = _ScalarDraws(rng)
    plan = random.Random(3)
    for _ in range(20_000):  # several blocks of raw outputs
        if plan.random() < 0.3:
            assert draws.random() == ref.random()
        else:
            low = plan.randrange(-5, 5)
            high = low + plan.choice(SPANS)
            assert draws.integers(low, high) == ref.integers(low, high)
    if (draws._spare is not None) != spare_at_close:  # span 2 never rejects
        assert draws.integers(0, 2) == ref.integers(0, 2)
    draws.close()
    assert live_state(rng) == live_state(ref)
    assert rng.bit_generator.state["has_uint32"] == spare_at_close
    assert rng.random() == ref.random()
    assert rng.integers(3, 3 + 7) == ref.integers(3, 3 + 7)
    assert np.array_equal(rng.choice(1000, 50, replace=False),
                          ref.choice(1000, 50, replace=False))


def test_a_run_holds_no_instance_objects():
    # the splits stay packed from set-up to evaluation; built as instance
    # objects, this dataset alone would hold 80 of them
    def instances():
        return [o for o in gc.get_objects() if isinstance(o, SparseInstance)]

    held = instances()  # other tests' instances, kept alive so no id is reused
    cfg = ExperimentConfig(d=30, n=40, n_clusters=3, m_in=12, m_out=12, k=2,
                           use_cbe=True, epochs=1)
    ds = load_dataset(cfg)
    h_in, h_out = build_matrices(cfg, ds)
    net, _ = fit(cfg, ds, h_in, h_out)
    result = evaluate_model(net, ds.test, h_in, h_out)
    assert result.n_evaluated == len(ds.test) == 4
    assert [o for o in instances() if all(o is not h for h in held)] == []


def split_digest(pairs) -> str:
    """sha256 of every pair's positions in split order, each side prefixed
    by its length."""
    h = hashlib.sha256()
    for inp, out in pairs:
        for side in (inp.positions, out.positions):
            h.update(np.concatenate([[side.size], side]).astype("<i4").tobytes())
    return h.hexdigest()


def seeded_triples() -> str:
    """4000 timestamped triples: 500 users, Zipf-skewed items, tied stamps."""
    rng = np.random.default_rng(21)
    users = rng.integers(0, 500, 4000)
    items = rng.zipf(1.3, 4000) % 700
    stamps = rng.integers(0, 50, 4000)
    return "".join(f"u{u} i{i} {t}\n" for u, i, t in zip(users, items, stamps))


def shuffled_triples() -> str:
    """160k timestamped triples in no order: 20k users of 8 bytes, Zipf-skewed
    items of 1 to 8 bytes, tied stamps."""
    rng = np.random.default_rng(160)
    users = rng.integers(0, 20_000, 160_000).tolist()
    items = (rng.zipf(1.1, 160_000) % 10**8).tolist()
    stamps = rng.integers(0, 1000, 160_000).tolist()
    return "".join(f"usr{u:05d} {i} {t}\n" for u, i, t in zip(users, items, stamps))


@pytest.mark.parametrize("build,expected", [
    (lambda: load_dataset(ExperimentConfig()),
     (2000, 18000, 2000,
      "00f2405829a7636b32262fb8e37888d2b9b4b8f1178ab41c142e01d4a0fa70b2",
      "68a51fbc86f2edcf8194ca85de61fdb64fcbc15a43af91bfaf43a77cc50304ba")),
    (lambda: load_profiles(io.StringIO(seeded_triples()), min_item_count=2,
                           test_size=0.2, seed=9),
     (310, 396, 99,
      "aa3fb06bb0a074847462196bd21b66fa0e1296da9e9de23a6303467baded876c",
      "5e52d53c55c4e69d8275d24248cf6bc27d72caf847b523d13a2edf4232fbf097")),
    (lambda: load_profiles(io.StringIO(shuffled_triples()), test_size=0.1, seed=3),
     (65846, 17948, 1994,
      "fa9c009d8d2d3a142eb8ca2ac2e1792da35f256fd0a5e5b0ae068d53183e4a62",
      "b00950e281b2c50f3f8c64e5fbc3cfaa8b8e5f8fbb3cdbf4fb2bb765506c8563")),
], ids=["default-synthetic", "seeded-triples", "shuffled-160k-triples"])
def test_full_size_splits_stay_identical(build, expected):
    # the first two were captured from the per-instance build, the third
    # from the loader that sorted bytes and key tuples; none may ever be
    # edited to make a change pass
    ds = build()
    assert (ds.d, len(ds.train), len(ds.test), split_digest(ds.train),
            split_digest(ds.test)) == expected


@pytest.mark.parametrize("test_size", [1.5, -1, float("nan")])
@pytest.mark.parametrize("build", [
    lambda test_size: load_profiles(io.StringIO("u1 4 2\nu1 2 3\nu2 3 1\nu2 1 2\n"),
                                    test_size=test_size),
    lambda test_size: generate_synthetic(SyntheticSpec(d=30, n=40, n_clusters=3,
                                                       test_size=test_size)),
], ids=["load_profiles", "generate_synthetic"])
def test_test_size_outside_the_unit_interval_is_rejected(build, test_size):
    with pytest.raises(ValueError, match=r"^test_size must lie in \[0, 1\], got "):
        build(test_size)


def test_a_profile_with_an_empty_side_is_rejected():
    # pair 0 is ([1], [2, 3]); pair 1 is ([], [2, 3])
    flat = np.array([1, 2, 3], dtype=np.int32)
    sides = PackedInstances(3, flat, np.array([0, 1, 1, 1]), np.array([1, 2, 0, 2]))
    pairs = PackedPairs(sides[0::2], sides[1::2])
    ProfileDataset(3, pairs[:1], pairs[:1])
    with pytest.raises(ValueError, match="^profile with empty input or output side$"):
        ProfileDataset(3, pairs[:1], pairs[1:])


def test_no_surviving_profile_is_a_data_error():
    with pytest.raises(DataError, match="no profiles survive"):
        load("1 2\n3 4\n", fmt="profiles", min_item_count=2)


def test_dense_ids_follow_lexicographic_order_of_the_external_ids():
    # sorted as strings: "10" < "9", so "10" -> 1 and "9" -> 2
    ds = load("9 10\n", fmt="profiles")
    assert profile_sets(ds) == [({2}, {1})]


@pytest.mark.parametrize("text,kwargs,ids", [
    ("9 10\n", {"fmt": "profiles"}, [b"10", b"9"]),
    ("u1 b 1\nu1 a 2\nu2 c 1\nu2 a 2\nu2 b 3\nu3 c 1\nu3 10 2\n",
     {"min_item_count": 2}, [b"a", b"b", b"c"]),
], ids=["profiles", "triples-filtered"])
def test_a_loaded_dataset_keeps_the_ids_of_items_1_to_d(text, kwargs, ids):
    ds = load(text, **kwargs)
    assert ds.d == len(ids) and ds.item_ids.tolist() == ids
    assert generate_synthetic(SyntheticSpec(d=30, n=40, n_clusters=3)).item_ids is None


def test_profiles_format_reads_one_profile_per_line():
    ds = load("10 20 30\n10 40 50\n60 70\n", fmt="profiles")
    assert ds.n == 3
    assert ds.d == 7
    assert [inp | out for inp, out in profile_sets(ds)] == [
        {1, 2, 3}, {1, 4, 5}, {6, 7}]


def test_unknown_format_is_a_data_error():
    with pytest.raises(DataError, match="unknown format"):
        load("1 2\n", fmt="csv")


def test_unknown_format_is_reported_before_the_file_is_read(tmp_path):
    with pytest.raises(DataError, match="^unknown format 'csv'$"):
        load_profiles(tmp_path / "missing.txt", fmt="csv")


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
        if rating_threshold is not None:
            raise DataError("rating_threshold given but the file has no rating column")
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


def test_load_peak_memory_stays_a_small_multiple_of_the_text(traced_peak):
    # 20k rows over 40-char user and item ids; a fixed-width numpy str array
    # of ids, sized by the longest one, would push the peak over the bound
    r = random.Random(0)
    text = "".join(f"{r.randrange(2000):040d} {r.randrange(5000):040d} {t}\n"
                   for t in range(20_000))
    peak = traced_peak(load_profiles, io.StringIO(text))
    assert peak < 13 * len(text), peak / len(text)


def test_load_peak_memory_stays_a_small_multiple_of_short_token_text(traced_peak):
    # 20k rows of short user and item ids and a timestamp, the shape of the
    # Zipf benchmark files; a Python str per token, kept in one list per
    # line, peaks at about 29 times such a text
    r = random.Random(0)
    text = "".join(f"u{r.randrange(2000)} {r.randrange(5000)} {t}\n"
                   for t in range(20_000))
    # a first load does the imports that numpy's unique and random generator
    # make on first use, a fixed cost that would be 6 times this text
    load_profiles(io.StringIO("u 1 1\nu 2 2\n"))
    peak = traced_peak(load_profiles, io.StringIO(text))
    assert peak < 12 * len(text), peak / len(text)


def one_long_token_text(fmt: str) -> str:
    """50k short ids, as 10k profile lines of five or as triples, and one id
    of 1000 characters."""
    r = random.Random(0)
    long_id = "x" * 1000
    if fmt == "profiles":
        lines = [" ".join(str(r.randrange(5000)) for _ in range(5)) for _ in range(10_000)]
        lines[7] += " " + long_id
    else:
        lines = [f"u{r.randrange(2000)} {r.randrange(5000)} {t}" for t in range(50_000)]
        lines[7] = f"u7 {long_id} 7"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("fmt", ["profiles", "triples"])
def test_one_long_token_loads_in_a_small_multiple_of_the_text(traced_peak, fmt):
    # with a copy of the ids as wide as the longest, 50k times 1000 bytes,
    # loading peaks at 660 (profiles) and 260 (triples) times the text; a
    # Python str per token peaks at 38 and 32 times it
    text = one_long_token_text(fmt)
    load_profiles(io.StringIO("1 2\n3 4\n"))  # the one-time imports, as above
    peak = traced_peak(load_profiles, io.StringIO(text), fmt=fmt)
    assert peak < 50 * len(text), peak / len(text)
    assert loaded_lists(text, fmt=fmt) == reference_load(text, fmt=fmt)


# ---------------------------------------------------------------------------
# separators and line numbers as str.split and str.splitlines count them
# ---------------------------------------------------------------------------


SEPARATED = {
    "crlf": "u1 1 5\r\nu2 2 6\r\nu1 3 7\r\n\r\nu2 1 8\r\n",
    "lone-cr": "u1 1 5\ru2 2 6\r\ru1 3 7\ru2 1 8",
    "cr-then-crlf": "u1 1 5\r\r\nu2 2 6\n\ru1 3 7\r\nu2 1 8\n",
    "tab-vt-ff": "u1\t1\t5\x0bu2 2\t6\x0cu1\x0b3 7\x0c\x0cu2 1 8\n",
    "file-group-record-unit": "u1\x1f1\x1f5\x1cu2 2 6\x1du1 3 7\x1eu2\x1f1 8\x1e",
    "nel-nbsp-line-separator": "u1\xa01 5\x85u2 2\xa06 u1 3 7\x85 u2 1 8",
    "wide-spaces": "u1 1　5\nu2 2 6\nu1 3 7\nu2 1 8\n",
    "non-ascii-ids": "é 1 5\nü é 6\n日 1 7\né ü 8\n",
    "non-ascii-digits": "u1 1 ١\nu2 2 ٢\nu1 3 ٠\nu2 1 8\n",
    "profile-lines": "1 2\t3\r\n4\x0b\x0c5 6\x1c7 8\x859\xa010 \r\n2 　3\n",
}


@pytest.mark.parametrize("fmt", ["auto", "triples", "profiles"])
@pytest.mark.parametrize("text", SEPARATED.values(), ids=SEPARATED)
def test_separators_load_as_str_splits_them(text, fmt):
    kwargs = dict(fmt=fmt, test_size=0.3, seed=3)
    assert outcome(loaded_lists, text, **kwargs) == outcome(reference_load, text, **kwargs)


@pytest.mark.parametrize("text,message", [
    ("u 1 1\r\nu 2 x\n", "line 2: non-numeric timestamp or rating"),
    ("u 1 1\r\n\r\nu 2\n", "line 3: no timestamp, unlike line 1; as triples "
                          "(data_format 'triples'), every row or none has one"),
    ("u 1 1\x0c\x0cu 2 2 nan\n", "line 3: NaN timestamp or rating"),
    ("u 1 1\r\r\nu 2 2 3 4 5\n", "line 3: expected 'user item [timestamp [rating]]'"),
    ("u 1 1 1\x85u 2 x nan\n", "line 2: non-numeric timestamp or rating"),
    ("u 1 1 1\u2028u 2 2 nan\n", "line 2: NaN timestamp or rating"),
], ids=["crlf", "crlf-blank", "form-feeds", "cr-then-crlf", "nel", "line-separator"])
def test_a_fault_after_a_line_break_names_the_line_splitlines_counts(text, message):
    with pytest.raises(DataError) as exc:
        load(text, fmt="triples")
    assert str(exc.value) == message


@pytest.mark.parametrize("as_file", [False, True], ids=["text", "file"])
def test_a_nul_byte_is_a_data_error_naming_its_line(tmp_path, as_file):
    text = "u1 1 1\r\nu1 2\x00 2\nu1 3 3\n"
    source = io.StringIO(text)
    if as_file:
        source = tmp_path / "data.txt"
        source.write_bytes(text.encode())
    with pytest.raises(DataError) as exc:
        load_profiles(source)
    assert str(exc.value) == "line 2: NUL byte"


# ---------------------------------------------------------------------------
# integer-key orders against the byte and lexsort orders they replace
# ---------------------------------------------------------------------------


def random_ids(r: random.Random, n: int, longest: int) -> list[bytes]:
    """n UTF-8 ids of 1 to `longest` bytes, some with bytes >= 0x80, some
    prefixes of others, plus ids of exactly 8 and 9 bytes where they fit."""
    fixed = [b"1", b"10", b"9", b"100", "é".encode(), "日".encode(), b"12345678",
             "ééé1z".encode(), b"123456789", "日本語".encode()]
    ids = [i for i in fixed if len(i) <= longest]
    while len(ids) < n:
        size, token = r.randint(1, longest), b""
        while True:
            char = r.choice("019az\x7fé日").encode()
            if len(token) + len(char) > size:
                break
            token += char
        ids.append(token or b"0")
    r.shuffle(ids)
    return ids


@pytest.mark.parametrize("longest,kind", [(8, "S8"), (9, "S9"), (12, "S12"),
                                          (1000, "O")])
def test_codes_are_the_indices_among_the_sorted_distinct_ids(longest, kind):
    r = random.Random(longest)
    ids = random_ids(r, 3000, min(longest, 12)) + [b"x" * longest]
    _, _, (column,) = _walk(b" ".join(ids), None)
    assert column.dtype.str.lstrip("|") == kind  # one long id makes objects
    code, distinct = _codes(column)
    expected = sorted(set(ids))
    assert distinct.tolist() == expected
    assert code.tolist() == [expected.index(i) for i in ids]
    bytes_distinct, bytes_code = np.unique(column, return_inverse=True)
    assert distinct.dtype == bytes_distinct.dtype
    assert np.array_equal(distinct, bytes_distinct) and np.array_equal(code, bytes_code)


def per_token_floats(tokens: list[bytes]) -> list[float]:
    values = []
    for tok in tokens:
        try:
            values.append(float(tok.decode()))
        except ValueError:
            break
    return values


@pytest.mark.parametrize("tokens", [
    ["5", "3", "5.0", "1e1", "-0", "0", "inf", "01"],
    ["2", "x", "1", "!"],     # stops at x, though ! sorts first
    ["3", "1", "!", "2"],     # the bad token sorts before every good one
    ["١", "2", "x", "٣"],     # float() reads non-ASCII digits; numpy does not
    ["nan", "1", "nan"],
    ["x"],
], ids=["numbers", "bad-in-the-middle", "bad-sorts-first", "non-ascii-digits",
        "nan", "none-parse"])
def test_floats_are_float_of_each_token_up_to_the_first_bad_row(tokens):
    column = np.array([t.encode() for t in tokens])
    rank, values = _floats(column)
    expected = per_token_floats(column.tolist())
    assert np.array_equal(values[rank], expected, equal_nan=True)
    assert (np.diff(values[~np.isnan(values)]) > 0).all()  # one rank per value


def test_floats_of_random_tokens_are_float_of_each_token():
    r = random.Random(7)
    pool = ["1", "1.0", "01", "10", "9", "0.5", "-2", "1e3", "x", "١"]
    for _ in range(200):
        column = np.array([r.choice(pool).encode() for _ in range(r.randint(1, 30))])
        rank, values = _floats(column)
        assert values[rank].tolist() == per_token_floats(column.tolist())


def test_equal_timestamps_written_differently_tie_in_file_order():
    # items a..e are 1..5; 01, 1.0 and 1 are one time, so c, a, b keep their lines
    ds = load("u c 01\nu a 1.0\nu d 0.5\nu b 1\nu e 2\n", fmt="triples")
    assert_order(profile_sets(ds)[0], [4, 3, 1, 2, 5])


@pytest.mark.parametrize("n_minor", [7, 2**62], ids=["one-key", "two-sorts"])
def test_order_is_the_lexsort_order(n_minor):
    rng = np.random.default_rng(3)
    major = rng.integers(0, 50, 5000)
    minor = rng.integers(0, 7, 5000) * (n_minor // 7)
    assert np.array_equal(_order(major, minor, n_minor), np.lexsort((minor, major)))


@pytest.mark.parametrize("d", [50, 2**31 - 1])
def test_split_sides_are_the_lexsort_order_of_their_items(d):
    # 300 profiles over the top 50 ids, where the key side * (d + 1) + item
    # is largest
    rng = np.random.default_rng(d % 1000)
    sizes = rng.integers(2, 9, 300)
    items = np.concatenate([rng.choice(np.arange(d - 49, d + 1), size, replace=False)
                            for size in sizes.tolist()]).astype(np.int32)
    ends = np.cumsum(sizes)
    cuts = ends - sizes + rng.integers(1, sizes)
    ds = _split_dataset(d, cuts, ends, items, 0.0, rng)
    side_sizes = np.column_stack((cuts - (ends - sizes), ends - cuts)).ravel()
    want = items[np.lexsort((items, np.repeat(np.arange(600), side_sizes)))]
    got = [s for inp, out in ds.train for s in (inp.positions, out.positions)]
    assert np.array_equal(np.concatenate(got), want)


@pytest.mark.parametrize("majors, n_minor, past", [
    (np.array([0, 1, 2**33 - 2, 2**33 - 1]), 2**20, False),
    (np.array([0, 1, 2**33 - 2, 2**33]), 2**20, True),
    (np.array([0, 1, 2**31 - 2, 2**31 - 1], dtype=np.int32), 2**23, True)],
    ids=["at-2**63", "past-2**63", "int32-past-2**63"])
def test_order_on_both_sides_of_the_one_key_bound(majors, n_minor, past):
    # (max major + 1) * n_minor * rows is 2**63, where the key with the row
    # folded in takes its largest values, or past it, where the stable
    # sorts take over; int32 codes, as the loader passes them, where
    # major * n_minor also leaves int32; few distinct (major, minor) make
    # ties, which file order breaks
    rng = np.random.default_rng(5)
    rows = 2**10
    major = rng.choice(majors, rows)
    minor = rng.choice(np.array([0, 1, n_minor - 1], dtype=majors.dtype), rows)
    assert ((int(major.max()) + 1) * n_minor * rows > 2**63) == past
    order = _order(major, minor, n_minor)
    assert np.array_equal(order, np.lexsort((np.arange(rows), minor, major)))


def test_order_breaks_ties_by_file_order():
    major = np.array([2, 0, 2, 0, 1, 2, 0], dtype=np.int32)
    minor = np.array([1, 0, 1, 0, 0, 0, 0], dtype=np.int32)
    assert _order(major, minor, 2).tolist() == [1, 3, 6, 4, 5, 0, 2]


# ---------------------------------------------------------------------------
# the block walk against one block of the whole file
# ---------------------------------------------------------------------------


def load_in_blocks(monkeypatch, block, text, **kwargs):
    """What `load_profiles` makes of `text` tokenised `block` bytes at a
    time, or the DataError it raises, with the item ids and their dtype."""
    monkeypatch.setattr(data, "_BLOCK", block)
    try:
        ds = load_profiles(io.StringIO(text), **kwargs)
    except DataError as exc:
        return f"DataError: {exc}"
    return (loaded_lists(text, **kwargs), ds.item_ids.dtype.str, ds.item_ids.tolist())


BLOCK_CUTS = {
    "crlf": "u1 1 5\r\nu2 2 6\r\nu1 3 7\r\n\r\nu2 1 8\r\n",
    "cr-then-crlf": "u1 1 5\r\r\nu2 2 6\n\ru1 3 7\r\nu2 1 8\n",
    "long-line": "u1 1 5\nu2 " + "9" * 40 + " 6\nu1 3 7\nu2 1 8\n",
    "long-line-profiles": " ".join(map(str, range(30))) + "\n1 2\n3 4 5\n",
    "nine-byte-id-in-one-block": "u1 1 5\nu2 2 6\nu1 123456789 7\nu2 1 8\n",
    "object-ids-in-one-block": "u1 1 5\nu2 2 6\n" + "u1 " + "x" * 400 + " 7\nu2 1 8\n",
    "no-trailing-newline": "u1 1 5\nu2 2 6\nu1 3 7\nu2 1 8",
    "empty": "",
    "whitespace-only": " \n\t\r\n  \x0c \n",
    "auto-reads-profiles": "1 2 3\n4 5 6 7 8\n1 6 9\n",
    "auto-reads-profiles-after-the-users": "1 2 3\n4 5 6\n7 8 9\n",
    "non-ascii": "é 1 5\nü é 6\n日 1 7\né ü 8\n",
}


@pytest.mark.parametrize("fmt", ["auto", "triples", "profiles"])
@pytest.mark.parametrize("text", BLOCK_CUTS.values(), ids=BLOCK_CUTS)
def test_every_block_size_loads_as_one_block(monkeypatch, text, fmt):
    # a block size of 1 to past the text's end puts the first cut at every
    # byte, a \r\n's two bytes among them
    kwargs = dict(fmt=fmt, test_size=0.3, seed=3)
    whole = load_in_blocks(monkeypatch, 2**30, text, **kwargs)
    if not isinstance(whole, str):
        assert whole[0] == reference_load(text, **kwargs)
    else:
        assert whole == outcome(reference_load, text, **kwargs)
    for block in range(1, len(text.encode()) + 2):
        assert load_in_blocks(monkeypatch, block, text, **kwargs) == whole, block


def test_a_nul_byte_in_a_later_block_names_its_line(monkeypatch):
    text = "u1 1 1\r\nu1 2 2\nu1 3 3\r\n\r\nu2 4\x00 4\nu2 5 5\n"
    for block in range(1, len(text) + 2):
        assert load_in_blocks(monkeypatch, block, text) == "DataError: line 5: NUL byte"


@pytest.mark.parametrize("build,block", [
    (lambda: load_profiles(io.StringIO(seeded_triples()), min_item_count=2,
                           test_size=0.2, seed=9), 64),
    (lambda: load_profiles(io.StringIO(shuffled_triples()), test_size=0.1, seed=3), 4096),
], ids=["seeded-triples", "shuffled-160k-triples"])
def test_small_blocks_keep_the_pinned_splits(monkeypatch, build, block):
    # test_full_size_splits_stay_identical pins the digests of the default block
    whole = build()
    monkeypatch.setattr(data, "_BLOCK", block)
    ds = build()
    assert (ds.d, split_digest(ds.train), split_digest(ds.test)) == \
        (whole.d, split_digest(whole.train), split_digest(whole.test))
    assert ds.item_ids.tolist() == whole.item_ids.tolist()


def test_load_from_a_path_peaks_under_five_times_the_file(tmp_path, traced_peak):
    # 100k rows of the Zipf benchmark files' shape, over 1 MiB; the loader
    # that kept each token's start and length for the whole file peaked at 7
    # times such a file
    rng = np.random.default_rng(11)
    users = np.repeat(np.arange(12_500), 8)
    items = (rng.zipf(1.2, 100_000) % 9000).tolist()
    path = tmp_path / "triples.txt"
    path.write_text("".join(f"u{u} {i} {t % 8}\n" for t, (u, i)
                            in enumerate(zip(users.tolist(), items))))
    size = path.stat().st_size
    assert size >= 2**20
    load_profiles(io.StringIO("u 1 1\nu 2 2\n"))  # the one-time imports
    peak = traced_peak(load_profiles, path)
    assert peak <= 5 * size, peak / size
