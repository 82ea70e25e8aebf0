"""Loading contracts: parsing, filtering, re-indexing and profile order.

Every profile is split at a random cut into an input (its earlier items)
and a target (its later items), and each side is stored as a sorted set.
So a profile's order shows only through which items land on which side;
:func:`assert_order` checks that against the expected item order.
"""

import io

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
