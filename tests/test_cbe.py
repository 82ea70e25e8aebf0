"""Co-occurrence counting, thresholding, and collision-steering contracts."""

import logging

import numpy as np
import pytest

from bloomemb.cbe import (CooccurrenceTable, average_item_frequency,
                          cooccurrence_stats, count_cooccurrences,
                          rebuild_hash_matrix, stats_report_tsv,
                          threshold_and_order)
from bloomemb.codec import PackedInstances, SparseInstance
from bloomemb.data import SyntheticSpec, generate_synthetic
from bloomemb.hashing import GOLDEN_GAMMA, HashMatrix, SplitMix64, build_hash_matrix


def insts(d, *sets):
    return [SparseInstance.from_items(d, s) for s in sets]


class TestCounting:
    def test_hand_counted_example(self):
        table = count_cooccurrences(insts(3, {1, 2}, {1, 2}, {1, 3}))
        assert table.diag.tolist() == [3, 2, 1]
        # pair (3, 2) never co-occurs, so it has no entry
        pairs = zip(table.rows.tolist(), table.cols.tolist(), table.values.tolist())
        assert {(a, b): n for a, b, n in pairs} == {(2, 1): 2, (3, 1): 1}

    def test_single_item_instances_have_no_pairs(self):
        table = count_cooccurrences(insts(5, {1}, {3}, {5}, {3}))
        assert len(table.values) == 0
        assert table.diag.tolist() == [1, 0, 2, 0, 1]

    # at 0.02 nearly every instance holds 0 or 1 items, at 0.6 up to 18 of 20
    @pytest.mark.parametrize("density", [0.02, 0.15, 0.6])
    def test_against_dense_matrix_product_oracle(self, density):
        rng = np.random.default_rng(31)
        for _ in range(20):
            x = (rng.random((50, 20)) < density).astype(np.int64)
            instances = [SparseInstance.from_items(20, np.flatnonzero(row) + 1)
                         for row in x]
            table = count_cooccurrences(instances)
            dense = x.T @ x
            assert np.array_equal(np.diag(dense), table.diag)
            got = np.zeros((20, 20), dtype=np.int64)
            got[table.rows - 1, table.cols - 1] = table.values
            expected = np.tril(dense, k=-1)
            assert np.array_equal(got, expected)

    def test_mixed_dimensionalities_rejected(self):
        bad = [SparseInstance.from_items(3, {1}), SparseInstance.from_items(4, {1})]
        with pytest.raises(ValueError, match="mixed"):
            count_cooccurrences(bad)

    def test_view_by_a_shuffled_index_array_counts_like_its_list(self):
        rng = np.random.default_rng(32)
        instances = [SparseInstance.from_items(
            20, rng.choice(20, size=rng.integers(0, 8), replace=False) + 1)
            for _ in range(60)]
        order = rng.permutation(60)[:45]
        got = count_cooccurrences(PackedInstances.of(instances)[order])
        expected = count_cooccurrences([instances[i] for i in order])
        assert got.d == expected.d
        for field in ("diag", "values", "rows", "cols"):
            assert np.array_equal(getattr(got, field), getattr(expected, field)), field

    def test_coordinates_are_strict_lower_triangle(self):
        table = count_cooccurrences(insts(6, {1, 2, 3}, {2, 3, 6}))
        assert (table.rows > table.cols).all()

    def test_peak_stays_within_two_and_a_half_times_its_pair_codes(self, traced_peak):
        # the int64 code of every pair, sorted in place, then the distinct
        # codes and their counts, 16 bytes per distinct pair; clustered
        # profiles repeat their pairs, so those come to well under the codes.
        # Counting that kept each size group's codes, joined them and ran
        # np.unique on them peaked at about 4.5 times the codes.
        side = generate_synthetic(SyntheticSpec(d=2000, n=20000, n_clusters=50)).train.inputs
        sizes = side.sizes.astype(np.int64)
        code_bytes = 8 * int((sizes * (sizes - 1) // 2).sum())
        count_cooccurrences(side)
        peak = traced_peak(count_cooccurrences, side)
        assert peak <= 2.5 * code_bytes, peak / code_bytes


class TestThreshold:
    def test_hand_example_average_frequency(self):
        table = count_cooccurrences(insts(3, {1, 2}, {1, 2}, {1, 2}, {3}))
        assert average_item_frequency(table) == pytest.approx(7 / 3)
        pairs = threshold_and_order(table)
        assert pairs.tolist() == [[2, 1]]

    def test_all_below_threshold_gives_empty(self):
        # every pair count is 1, average frequency is 2 > 1
        table = count_cooccurrences(insts(4, {1, 2}, {3, 4}, {1, 3}, {2, 4}))
        assert threshold_and_order(table).shape == (0, 2)

    def test_sorted_ascending_by_count_then_coordinates(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            nnz = int(rng.integers(1, 30))
            rows = rng.integers(2, 40, size=nnz).astype(np.int32)
            cols = (rows - rng.integers(1, rows)).astype(np.int32)
            values = rng.integers(1, 10, size=nnz).astype(np.int64)
            table = CooccurrenceTable(d=40, diag=np.ones(40, dtype=np.int64),
                                      values=values, rows=rows, cols=cols)
            pairs = threshold_and_order(table)
            kept = values > average_item_frequency(table)
            triples = sorted((int(v), int(r), int(c))
                             for v, r, c in zip(values[kept], rows[kept], cols[kept]))
            assert pairs.tolist() == [[r, c] for _, r, c in triples]


class PerDrawStream:
    """SplitMix64 computed one draw at a time in Python-int arithmetic, with
    bitmask rejection; counts its draws."""

    def __init__(self, seed):
        self.state, self.draws = seed % 2**64, 0

    def randbelow(self, n):
        mask = (1 << (n - 1).bit_length()) - 1
        while True:
            self.draws += 1
            self.state = (self.state + GOLDEN_GAMMA) % 2**64
            z = (self.state ^ (self.state >> 30)) * 0xBF58476D1CE4E5B9 % 2**64
            z = (z ^ (z >> 27)) * 0x94D049BB133111EB % 2**64
            z = (z ^ (z >> 31)) & mask
            if z < n:
                return z


def candidates_rebuild(matrix, pairs, seed, stream=None):
    """(rows, skipped pairs) of the rebuild that draws the fresh bit from an
    explicit array of the bits outside both rows; the comparison oracle."""
    rows = matrix.rows.copy()
    stream = SplitMix64(seed) if stream is None else stream
    mask = np.ones(matrix.m + 1, dtype=bool)  # mask[idx] — is bit idx admissible
    skipped = 0
    for a, b in pairs:
        mask[rows[a - 1]] = False
        mask[rows[b - 1]] = False
        candidates = np.flatnonzero(mask[1:]) + 1
        mask[rows[a - 1]] = True
        mask[rows[b - 1]] = True
        if candidates.size == 0:
            skipped += 1
            continue
        r = int(candidates[stream.randbelow(candidates.size)])
        rows[a - 1, stream.randbelow(matrix.k)] = r
        rows[b - 1, stream.randbelow(matrix.k)] = r
    return rows, skipped


class TestRebuild:
    def test_matches_the_candidate_array_oracle(self, caplog):
        # k near m makes many pairs' rows cover all m bits, which are skipped
        rng = np.random.default_rng(21)
        skipped_total = applied_total = 0
        for case in range(300):
            m = int(rng.integers(1, 10))
            matrix = build_hash_matrix(d=int(rng.integers(max(m, 2), 25)), m=m,
                                       k=int(rng.integers(max(1, m // 2), m + 1)),
                                       seed=case)
            a, b = rng.integers(1, matrix.d + 1, size=(2, int(rng.integers(0, 30))))
            pairs = [(x, y) for x, y in zip(a.tolist(), b.tolist()) if x != y]
            caplog.clear()
            with caplog.at_level(logging.WARNING, logger="bloomemb.cbe"):
                rebuilt = rebuild_hash_matrix(matrix, pairs, seed=case)
            rows, skipped = candidates_rebuild(matrix, pairs, seed=case)
            assert np.array_equal(rebuilt.rows, rows)
            assert sum("skipped" in rec.message for rec in caplog.records) == skipped
            skipped_total += skipped
            applied_total += len(pairs) - skipped
        assert skipped_total > 100 and applied_total > 100


    def test_a_rebuild_over_several_draw_blocks_is_the_per_draw_rebuild(self):
        # about 9,000 draws, across two of the stream's 4096-output blocks
        rng = np.random.default_rng(4)
        matrix = build_hash_matrix(d=400, m=50, k=3, seed=7)
        a, b = rng.integers(1, 401, size=(2, 3200))
        pairs = [(x, y) for x, y in zip(a.tolist(), b.tolist()) if x != y]
        stream = PerDrawStream(11)
        rows, _ = candidates_rebuild(matrix, pairs, 11, stream)
        assert stream.draws > 2 * 4096
        assert np.array_equal(rebuild_hash_matrix(matrix, pairs, seed=11).rows, rows)

    def test_peak_at_ten_thousand_items_stays_under_half_a_megabyte(self, traced_peak):
        # an int32 copy of the 160 kB of rows, whose pair's two rows are edited
        # as views; a list of d Python rows peaked at about 2.4 MB
        rng = np.random.default_rng(9)
        matrix = build_hash_matrix(d=10_000, m=1000, k=4, seed=2)
        a, b = rng.integers(1, 10_001, size=(2, 4000))
        pairs = np.stack([a, b], axis=1)[a != b].astype(np.int32)
        rebuild_hash_matrix(matrix, pairs, seed=5)
        assert traced_peak(rebuild_hash_matrix, matrix, pairs, 5) <= 500_000

    def test_empty_pair_list_is_identity(self):
        matrix = build_hash_matrix(d=10, m=6, k=2, seed=3)
        rebuilt = rebuild_hash_matrix(matrix, np.empty((0, 2), dtype=np.int32), 9)
        assert rebuilt == matrix

    def test_processed_pair_shares_a_bit(self):
        matrix = build_hash_matrix(d=10, m=8, k=2, seed=3)
        rebuilt = rebuild_hash_matrix(matrix, [(5, 2)], seed=1)
        assert set(rebuilt.rows[4]) & set(rebuilt.rows[1])

    def test_threshold_example_end_to_end(self):
        # running the full pipeline on the hand example makes items 1 and 2
        # collide on a shared bit
        table = count_cooccurrences(insts(3, {1, 2}, {1, 2}, {1, 2}, {3}))
        pairs = threshold_and_order(table)
        matrix = build_hash_matrix(d=3, m=3, k=1, seed=0)
        rebuilt = rebuild_hash_matrix(matrix, pairs, seed=42)
        assert set(rebuilt.rows[0]) & set(rebuilt.rows[1])

    def test_rows_stay_distinct_and_in_range(self):
        rng = np.random.default_rng(8)
        matrix = build_hash_matrix(d=30, m=10, k=4, seed=5)
        pairs = [(int(a), int(b)) for a, b in
                 zip(rng.integers(2, 31, 40), rng.integers(1, 2, 40))]
        pairs = [(a, b) for a, b in pairs if a != b]
        rebuilt = rebuild_hash_matrix(matrix, pairs, seed=6)
        srt = np.sort(rebuilt.rows, axis=1)
        assert (srt[:, 1:] > srt[:, :-1]).all()
        assert rebuilt.rows.min() >= 1 and rebuilt.rows.max() <= 10

    def test_deterministic_given_seed(self):
        matrix = build_hash_matrix(d=20, m=9, k=3, seed=2)
        pairs = [(5, 1), (7, 2), (5, 2)]
        a = rebuild_hash_matrix(matrix, pairs, seed=33)
        b = rebuild_hash_matrix(matrix, pairs, seed=33)
        assert a == b
        c = rebuild_hash_matrix(matrix, pairs, seed=34)
        assert not np.array_equal(a.rows, c.rows)

    def test_exhausted_bits_skip_and_log(self, caplog):
        # m=2, k=2: the two rows jointly cover every bit, no admissible r
        matrix = HashMatrix(d=3, m=2, k=2, seed=0,
                            rows=np.array([[1, 2], [2, 1], [1, 2]],
                                          dtype=np.int32))
        with caplog.at_level(logging.WARNING, logger="bloomemb.cbe"):
            rebuilt = rebuild_hash_matrix(matrix, [(2, 1)], seed=0)
        assert rebuilt == matrix
        assert any("skipped" in rec.message for rec in caplog.records)

    def test_rejects_bad_pairs(self):
        matrix = build_hash_matrix(d=5, m=4, k=2, seed=0)
        with pytest.raises(ValueError):
            rebuild_hash_matrix(matrix, [(6, 1)], seed=0)
        with pytest.raises(ValueError):
            rebuild_hash_matrix(matrix, [(2, 2)], seed=0)
        with pytest.raises(ValueError, match="integers"):
            # cast to int64, (1.7, 2.2) would apply the pair (1, 2)
            rebuild_hash_matrix(matrix, np.array([[1.7, 2.2]]), seed=0)

    @pytest.mark.parametrize("pairs", [[[1, 2, 3], [4, 5, 6]], [1, 2, 3, 4]],
                             ids=["2x3", "flat-4"])
    def test_rejects_pairs_not_shaped_n_by_2(self, pairs):
        # read as rows of two, both would apply valid pairs: (1, 2), (3, 4), ...
        matrix = build_hash_matrix(d=6, m=5, k=2, seed=0)
        with pytest.raises(ValueError, match=r"an \(n, 2\) array"):
            rebuild_hash_matrix(matrix, np.array(pairs), seed=0)


class TestStats:
    def test_no_cooccurring_pairs(self):
        table = count_cooccurrences(insts(4, {1}, {2}))
        stats = cooccurrence_stats(table, n=2)
        assert stats.percent_cooccurring_pairs == 0.0
        assert stats.mean_ratio_rho == 0.0

    def test_hand_example(self):
        # 3 items, one co-occurring pair with count 2, n=4
        table = count_cooccurrences(insts(3, {1, 2}, {1, 2}, {1}, {3}))
        stats = cooccurrence_stats(table, n=4)
        assert stats.percent_cooccurring_pairs == pytest.approx(100 / 3)
        assert stats.mean_ratio_rho == pytest.approx(0.5)

    def test_percent_bounded_randomized(self):
        rng = np.random.default_rng(12)
        for _ in range(25):
            x = (rng.random((15, 8)) < 0.5).astype(int)
            instances = [SparseInstance.from_items(8, np.flatnonzero(r) + 1)
                         for r in x]
            stats = cooccurrence_stats(count_cooccurrences(instances), n=15)
            assert 0.0 <= stats.percent_cooccurring_pairs <= 100.0
            assert stats.mean_ratio_rho >= 0.0

    def test_report_tsv_hand_example(self):
        table = count_cooccurrences(insts(3, {1, 2}, {1, 2}, {1}, {3}))
        report = stats_report_tsv(cooccurrence_stats(table, n=4))
        assert report == ("side\tpercent_cooccurring_pairs\tmean_ratio_rho\n"
                          "input\t33.3333\t0.5\n")

    def test_needs_two_items(self):
        table = count_cooccurrences(insts(1, {1}))
        with pytest.raises(ValueError):
            cooccurrence_stats(table, n=1)


@pytest.mark.parametrize("call,message", [
    (lambda: count_cooccurrences([]), "^need at least one instance$"),
    (lambda: cooccurrence_stats(count_cooccurrences(insts(3, {1, 2})), n=0),
     "^instance count n must be >= 1, got 0$")], ids=["no-instances", "n-0"])
def test_empty_input_is_rejected(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("changes,message", [
    ({"d": 0}, "^d must be >= 1, got 0$"),
    ({"diag": np.ones(3, dtype=np.int64)}, "^diagonal length must equal d$"),
    ({"values": np.ones(2, dtype=np.int64)},
     "^coordinate lists must have equal length$"),
    ({"rows": np.array([1], dtype=np.int32), "cols": np.array([2], dtype=np.int32)},
     "^coordinates must lie in the strict lower triangle$")],
    ids=["d-0", "short-diagonal", "uneven-lists", "upper-triangle"])
def test_malformed_table_is_rejected(changes, message):
    fields = {"d": 4, "diag": np.ones(4, dtype=np.int64),
              "values": np.ones(1, dtype=np.int64),
              "rows": np.array([2], dtype=np.int32), "cols": np.array([1], dtype=np.int32)}
    CooccurrenceTable(**fields)
    with pytest.raises(ValueError, match=message):
        CooccurrenceTable(**{**fields, **changes})
