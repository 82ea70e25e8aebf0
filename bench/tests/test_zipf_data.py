import collections

import pytest

from zipf_data import ZipfSpec, zipf_triples

SMALL = ZipfSpec(d=400, n=500, n_clusters=10)


def test_same_seed_same_bytes():
    assert zipf_triples(SMALL, 7).encode() == zipf_triples(SMALL, 7).encode()


def test_other_seed_other_bytes():
    assert zipf_triples(SMALL, 7) != zipf_triples(SMALL, 8)


def test_profiles_are_distinct_items_of_one_cluster():
    profiles = collections.defaultdict(list)
    for line in zipf_triples(SMALL, 0).splitlines():
        user, item, ts = line.split()
        assert int(ts) == len(profiles[user])
        profiles[user].append(int(item))
    assert len(profiles) == SMALL.n
    width = SMALL.d // SMALL.n_clusters
    for items in profiles.values():
        assert SMALL.size_min <= len(items) <= SMALL.size_max
        assert len(set(items)) == len(items)
        assert len({(i - 1) // width for i in items}) == 1
        assert all(1 <= i <= SMALL.d for i in items)


def test_popularity_is_skewed_by_rank():
    counts = collections.Counter(int(line.split()[1]) % (SMALL.d // SMALL.n_clusters)
                                 for line in zipf_triples(SMALL, 0).splitlines())
    # rank 1 (item offset 1) against the last rank of every cluster (offset 0)
    assert counts[1] > 10 * counts[0]


def test_rejects_profiles_larger_than_a_cluster():
    with pytest.raises(ValueError):
        ZipfSpec(d=100, n=10, n_clusters=50)
