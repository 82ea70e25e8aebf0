"""Encoding, decoding, and ranking contracts.

The brute-force oracles here are deliberately independent of the library
paths: naive_encode walks projections in Python, and ranking is checked
against a full sort with explicit tie keys.
"""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bloomemb.codec import (ScoreOrder, SparseInstance, decode_likelihood_batch,
                            decode_nll_batch, encode_batch, rank_batch,
                            read_instances, write_bit_vectors)
from bloomemb.hashing import HashMatrix, build_hash_matrix, identity_hash_matrix

SPEC_ROWS = np.array([(1, 3), (2, 4), (1, 2), (3, 4), (2, 3), (1, 4)],
                     dtype=np.int32)


def spec_matrix() -> HashMatrix:
    return HashMatrix(d=6, m=4, k=2, seed=0, rows=SPEC_ROWS)


def naive_encode(positions, matrix) -> np.ndarray:
    """Set bits one projection at a time; the comparison oracle."""
    u = [0] * matrix.m
    for p in positions:
        for j in range(matrix.k):
            u[int(matrix.rows[p - 1][j]) - 1] = 1
    return np.array(u, dtype=np.uint8)


def encode_items(d, items, matrix) -> np.ndarray:
    """Bits of one instance, through encode_batch on a batch of one."""
    return encode_batch([SparseInstance.from_items(d, items)], matrix)[0]


class TestEncode:
    def test_worked_example(self):
        assert encode_items(6, [1, 4], spec_matrix()).tolist() == [1, 0, 1, 1]

    def test_empty_instance_is_all_zeros(self):
        assert encode_items(6, [], spec_matrix()).sum() == 0

    def test_empty_batch(self):
        assert encode_batch([], spec_matrix()).shape == (0, 4)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            encode_batch([SparseInstance.from_items(5, [1])], spec_matrix())

    def test_union_homomorphism_randomized(self):
        # encode(p | q) == OR(encode(p), encode(q)) against the naive oracle,
        # all 3000 instances in one batch
        rng = np.random.default_rng(11)
        matrix = build_hash_matrix(d=80, m=23, k=3, seed=4)
        sets, instances = [], []
        for _ in range(1000):
            p = set(rng.choice(80, size=rng.integers(0, 9), replace=False) + 1)
            q = set(rng.choice(80, size=rng.integers(0, 9), replace=False) + 1)
            sets.append(p | q)
            instances += [SparseInstance.from_items(80, s) for s in (p, q, p | q)]
        bits = encode_batch(instances, matrix)
        for i, union in enumerate(sets):
            u_p, u_q, u_union = bits[3 * i:3 * i + 3]
            assert np.array_equal(u_union, u_p | u_q)
            assert np.array_equal(u_union, naive_encode(sorted(union), matrix))

    @given(st.sets(st.integers(1, 40), max_size=12),
           st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_item_insertion(self, items, extra):
        matrix = build_hash_matrix(d=40, m=11, k=2, seed=8)
        base = encode_items(40, items, matrix)
        grown = encode_items(40, items | {extra}, matrix)
        assert (grown >= base).all()

    def test_popcount_bound(self):
        matrix = build_hash_matrix(d=100, m=29, k=3, seed=1)
        u = encode_items(100, range(1, 12), matrix)
        assert u.sum() <= min(29, 11 * 3)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(3)
        matrix = build_hash_matrix(d=60, m=17, k=2, seed=6)
        instances = [SparseInstance.from_items(
            60, rng.choice(60, size=rng.integers(0, 7), replace=False) + 1)
            for _ in range(50)]
        bits = encode_batch(instances, matrix)
        for i, inst in enumerate(instances):
            assert np.array_equal(bits[i], encode_batch([inst], matrix)[0])

    def test_runtime_independent_of_d(self):
        # O(c*k): the same instance should cost about the same under a
        # 1000x larger item space (generous 5x margin for timer noise)
        small = build_hash_matrix(d=1000, m=256, k=4, seed=0)
        big = build_hash_matrix(d=1_000_000, m=256, k=4, seed=0)
        inst_small = [SparseInstance.from_items(1000, range(1, 33))]
        inst_big = [SparseInstance.from_items(1_000_000, range(1, 33))]
        encode_batch(inst_small, small), encode_batch(inst_big, big)  # warm up

        def best_of(fn, reps=7, loops=200):
            best = math.inf
            for _ in range(reps):
                t0 = time.perf_counter()
                for _ in range(loops):
                    fn()
                best = min(best, time.perf_counter() - t0)
            return best

        t_small = best_of(lambda: encode_batch(inst_small, small))
        t_big = best_of(lambda: encode_batch(inst_big, big))
        assert t_big < 5 * t_small


class TestDecode:
    PROBS = np.array([[0.1, 0.2, 0.3, 0.4]])

    def test_likelihood_worked_example(self):
        # item 1 projects to positions (1, 3): score 0.1 * 0.3 = 0.03
        scores = decode_likelihood_batch(self.PROBS, spec_matrix())
        assert scores.shape == (1, 6)
        assert scores[0, 0] == pytest.approx(0.03, abs=1e-15)

    def test_zero_probability_annihilates(self):
        # item 1 projects to positions (1, 3): a zero at its first or its
        # second projection
        for probs in ([0.0, 0.2, 0.3, 0.4], [0.1, 0.2, 0.0, 0.4]):
            scores = decode_likelihood_batch(np.array([probs]), spec_matrix())
            assert scores[0, 0] == 0.0

    def test_k1_identity_returns_probs(self):
        rng = np.random.default_rng(8)
        probs = rng.random((50, 37))
        probs /= probs.sum(axis=1, keepdims=True)
        scores = decode_likelihood_batch(probs, identity_hash_matrix(37))
        assert np.array_equal(scores, probs)

    def test_nll_worked_example(self):
        scores = decode_nll_batch(self.PROBS, spec_matrix(), epsilon=1e-12)
        assert scores[0, 0] == pytest.approx(-(math.log(0.1) + math.log(0.3)),
                                             rel=1e-12)
        assert scores[0, 0] == pytest.approx(3.5065578973199818, rel=1e-10)

    def test_nll_all_equal_probs_tie(self):
        scores = decode_nll_batch(np.full((1, 4), 0.25), spec_matrix())
        assert np.allclose(scores, scores[0, 0])

    def test_nll_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            decode_nll_batch(np.full((1, 4), 0.25), spec_matrix(), epsilon=0.0)

    def test_dimension_mismatch_rejected(self):
        probs = np.full((1, 5), 0.2)
        for decode in (decode_likelihood_batch, decode_nll_batch):
            with pytest.raises(ValueError):
                decode(probs, spec_matrix())

    def test_rank_agreement_between_decoders(self):
        # cross-check oracle: strictly positive probabilities make the two
        # decoders produce identical rankings
        rng = np.random.default_rng(23)
        matrix = build_hash_matrix(d=40, m=16, k=3, seed=9)
        probs = rng.uniform(1e-6, 1.0, size=(1000, 16))
        like = rank_batch(decode_likelihood_batch(probs, matrix),
                          ScoreOrder.DESCENDING_LIKELIHOOD, 40)
        nll = rank_batch(decode_nll_batch(probs, matrix),
                         ScoreOrder.ASCENDING_NLL, 40)
        assert np.array_equal(like, nll)

    def test_members_score_one_on_binary_embedding(self):
        rng = np.random.default_rng(5)
        matrix = build_hash_matrix(d=200, m=64, k=4, seed=14)
        members = [rng.choice(200, size=10, replace=False) + 1 for _ in range(50)]
        bits = encode_batch([SparseInstance.from_items(200, items)
                             for items in members], matrix)
        scores = decode_likelihood_batch(bits.astype(np.float64), matrix)
        for row, items in zip(scores, members):
            assert (row[items - 1] == 1.0).all()


class TestRank:
    def test_worked_example_with_ties(self):
        scores = np.array([[0.2, 0.9, 0.9, 0.1]])
        ranked = rank_batch(scores, ScoreOrder.DESCENDING_LIKELIHOOD, 3)
        assert ranked.tolist() == [[2, 3, 1]]

    def test_full_depth_is_permutation(self):
        rng = np.random.default_rng(1)
        ranked = rank_batch(rng.random((5, 30)), ScoreOrder.DESCENDING_LIKELIHOOD, 30)
        for row in ranked:
            assert sorted(row.tolist()) == list(range(1, 31))

    def test_against_naive_sort_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            d = int(rng.integers(1, 12))
            vals = rng.integers(0, 4, size=(3, d)) / 4.0  # force ties
            vals[rng.random((3, d)) < 0.3] *= -1.0  # and mix in -0.0
            for ordering in ScoreOrder:
                sign = 1.0 if ordering is ScoreOrder.ASCENDING_NLL else -1.0
                ranked = rank_batch(vals, ordering, d)
                for row, v in zip(ranked, vals):
                    oracle = sorted(range(1, d + 1),
                                    key=lambda i: (sign * v[i - 1], i))
                    assert row.tolist() == oracle

    def test_rank_batch_matches_rank(self):
        # rows of a batch rank exactly as each row ranked alone
        rng = np.random.default_rng(4)
        vals = rng.integers(0, 3, size=(20, 15)) / 3.0
        batch = rank_batch(vals, ScoreOrder.DESCENDING_LIKELIHOOD, 15)
        for i in range(20):
            single = rank_batch(vals[i:i + 1], ScoreOrder.DESCENDING_LIKELIHOOD, 15)
            assert np.array_equal(batch[i], single[0])

    def test_top_n_out_of_range(self):
        for bad in (0, 5):
            with pytest.raises(ValueError):
                rank_batch(np.zeros((1, 4)), ScoreOrder.DESCENDING_LIKELIHOOD, bad)


class TestFileFormats:
    def test_instances_round_trip(self, tmp_path):
        instances = [SparseInstance.from_items(9, [1, 5, 9]),
                     SparseInstance.from_items(9, []),
                     SparseInstance.from_items(9, [2])]
        path = tmp_path / "inst.txt"
        path.write_text("1 5 9\n\n2\n")
        assert read_instances(path, 9) == instances

    def test_bit_vector_text(self):
        bits = np.array([[1, 0, 1], [0, 0, 0]], dtype=np.uint8)
        assert write_bit_vectors(bits) == "101\n000\n"

    def test_instance_parse_error_carries_line(self):
        import io
        with pytest.raises(ValueError, match="line 2"):
            read_instances(io.StringIO("1 2\n1 x\n"), 5)
