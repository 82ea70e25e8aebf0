"""Encoding, decoding, and ranking contracts.

The brute-force oracles here are deliberately independent of the library
paths: naive_encode walks projections in Python, and ranking is checked
against a full sort with explicit tie keys.
"""

import math
import struct
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bloomemb.codec import (PackedInstances, PackedPairs, ScoreOrder,
                            SparseInstance, decode_batch, decode_likelihood_batch,
                            decode_nll_batch, encode_batch, encode_rows,
                            matrix_from_bytes, rank_batch,
                            read_bit_vectors, read_instances,
                            read_probabilities, run_starts, set_bits,
                            write_bit_vectors)
from bloomemb.hashing import HashMatrix, build_hash_matrix, identity_hash_matrix
from bloomemb.trainer import network_from_bytes

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


class TestInstance:
    @pytest.mark.parametrize("build", [
        lambda: SparseInstance(d=4, positions=np.array([2**32 + 1, 3])),
        lambda: SparseInstance(d=4, positions=[1.7, 3]),
        lambda: SparseInstance.from_items(5, [1.5, 2]),
        lambda: SparseInstance(d=4, positions=[0, 3]),
        lambda: SparseInstance(d=4, positions=[[1, 2]]),
    ], ids=["beyond-int32", "float", "float-items", "zero", "two-dimensional"])
    def test_rejected_before_the_cast(self, build):
        # cast to int32 first, the first three read [1 3], [1 3] and [1 2]
        with pytest.raises(ValueError):
            build()

    @pytest.mark.parametrize("d,positions", [(2**40, [2**33 + 5]), (2**31 + 10, [])],
                             ids=["wraps-to-5", "empty"])
    def test_rejects_dimensionality_beyond_int32(self, d, positions):
        # cast to int32, 2**33 + 5 reads 5
        with pytest.raises(ValueError, match=r"d must lie in \[1, 2\*\*31 - 1\]"):
            SparseInstance(d=d, positions=positions)

    def test_equals_only_an_instance(self):
        instance = SparseInstance.from_items(4, [3, 1])
        assert instance == SparseInstance(d=4, positions=[1, 3])
        assert instance.__eq__([1, 3]) is NotImplemented and instance != [1, 3]

    @pytest.mark.parametrize("empty", [[], np.array([]), np.empty(0, np.uint64)],
                             ids=["list", "float64", "uint64"])
    def test_empty_input_of_any_dtype_is_the_empty_instance(self, empty):
        instance = SparseInstance(d=4, positions=empty)
        assert instance.c == 0 and instance.positions.dtype == np.int32


@st.composite
def segment_batches(draw):
    """(d, segments, dtype): unsorted segments that may repeat a position or
    be empty, sometimes with one position moved out of [1, d]."""
    d = draw(st.integers(1, 12))
    segments = draw(st.lists(st.lists(st.integers(1, d), max_size=6), max_size=8))
    dtype = draw(st.sampled_from([np.int32, np.int64, np.uint64, np.float64]))
    flat = [p for seg in segments for p in seg]
    if flat and draw(st.booleans()):
        flat[draw(st.integers(0, len(flat) - 1))] = draw(st.sampled_from([0, d + 1]))
    return d, segments, np.array(flat, dtype=dtype)


def outcome(build):
    try:
        return build()
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("values, starts", [
    ([], []), ([7], [0]), ([3, 3, 3], [0]), ([1, 1, 2, 5, 5, 5, 9], [0, 2, 3, 6])])
def test_run_starts_mark_each_element_unlike_the_one_before(values, starts):
    got = run_starts(np.array(values, dtype=np.int64))
    assert got.dtype == bool and np.flatnonzero(got).tolist() == starts


class TestPackedPairs:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(segment_batches())
    def test_pack_and_view_give_back_the_instances(self, case):
        d, segments, flat = case
        indptr = np.zeros(len(segments) + 1, dtype=np.int64)
        np.cumsum([len(seg) for seg in segments], out=indptr[1:])
        instances = outcome(lambda: [SparseInstance(d, flat[a:b]) for a, b
                                     in zip(indptr[:-1], indptr[1:])])
        # an out-of-range position or a non-integer one is rejected
        bad = flat.size and (flat.dtype.kind == "f" or flat.min() < 1 or flat.max() > d)
        assert isinstance(instances, str) == bool(bad), instances
        if bad or not instances:
            return
        packed = PackedInstances.of(instances)
        assert PackedInstances.of(packed) is PackedInstances.of(packed, d) is packed
        assert packed.flat.dtype == np.int32 and not packed.flat.flags.writeable
        sizes = [inst.c for inst in instances]
        assert packed.sizes.tolist() == sizes
        assert packed.starts.tolist() == (np.cumsum(sizes) - sizes).tolist()
        assert list(packed) == instances and list(packed[1::2]) == instances[1::2]
        order = np.arange(len(instances))[::-1]
        assert packed[order].flat is packed.flat
        assert list(packed[order]) == instances[::-1]
        with pytest.raises(ValueError, match="mixed dimensionalities"):
            PackedInstances.of(packed, d + 1)
        pairs = list(zip(instances[::2], instances[1::2]))
        if not pairs:
            return
        view = PackedPairs.of(pairs)
        assert PackedPairs.of(view) is view
        assert len(view) == len(pairs) and view.d == d
        assert list(view) == pairs and list(view[1::2]) == pairs[1::2]
        assert list(view[np.arange(len(pairs))[::-1]]) == pairs[::-1]
        assert all(side.positions.dtype == np.int32 and not side.positions.flags.writeable
                   for pair in view for side in pair)

    def test_view_reads_its_rows_in_order(self):
        # pairs ([2, 7], [5]), ([1, 9], [4]) and ([], [3]), viewed as 2, 0
        flat = np.array([2, 7, 5, 1, 9, 4, 3], dtype=np.int32)
        sides = PackedInstances(9, flat, np.array([0, 2, 3, 5, 6, 6]),
                                np.array([2, 1, 2, 1, 0, 1]))
        view = PackedPairs(sides[0::2], sides[1::2])[np.array([2, 0])]
        got = [[side.positions.tolist() for side in pair] for pair in view]
        assert len(view) == 2 and got == [[[], [3]], [[2, 7], [5]]]
        assert view[-1] == view[1:][0] == (SparseInstance(9, [2, 7]), SparseInstance(9, [5]))
        assert view.inputs.starts.tolist() == [6, 0] and view.targets.starts.tolist() == [6, 2]
        assert view.inputs.flat is view.targets.flat is flat
        with pytest.raises(IndexError):
            view[2]


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

    def test_false_positive_rate_meets_the_bloom_formula(self):
        # (1 - e^{-kc/m})^k (Bloom, CACM 1970) is the chance that an absent
        # item's k bits are all set by c present items. The probes of one
        # instance share its bits, so the unit of the bound is an instance:
        # the mean of the per-instance rates, each instance with its own
        # matrix and items, lies within 5 standard errors of the formula.
        # The exact rate for k distinct bits per row, about 0.01177 here,
        # lies 0.4% below the formula's 0.01181, far inside the bound.
        d, m, k, c, trials = 5000, 1000, 4, 100, 200
        rng = np.random.default_rng(5)
        rates = []
        for seed in range(trials):
            matrix = build_hash_matrix(d, m, k, seed)
            items = rng.choice(d, size=c, replace=False) + 1
            bits = encode_batch([SparseInstance.from_items(d, items)], matrix)[0]
            reported = bits[matrix.rows - 1].all(axis=1)
            assert reported[items - 1].all()  # no present item is missed
            rates.append((reported.sum() - c) / (d - c))
        expected = (1 - math.exp(-k * c / m)) ** k
        error = 5 * np.std(rates, ddof=1) / math.sqrt(trials)
        assert abs(np.mean(rates) - expected) < error

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

    @pytest.mark.parametrize("layout", ["leading-rows", "every-other-column",
                                        "column-major"])
    def test_rows_overwrite_the_leading_rows_of_a_used_buffer(self, layout):
        # train's use: a shuffled subset of the packed split, encoded into
        # the leading rows of a float buffer that holds an earlier batch;
        # the same into arrays that are not C-contiguous
        rng = np.random.default_rng(12)
        matrix = build_hash_matrix(d=60, m=17, k=3, seed=2)
        instances = [SparseInstance.from_items(
            60, rng.choice(60, size=rng.integers(0, 7), replace=False) + 1)
            for _ in range(40)]
        packed = PackedInstances.of(instances)
        buf = {"leading-rows": np.full((25, 17), 7.0, dtype=np.float32),
               "every-other-column": np.full((25, 34), 7.0,
                                             dtype=np.float32)[:, ::2],
               "column-major": np.full((25, 17), 7.0, dtype=np.float32,
                                       order="F")}[layout]
        rows = rng.permutation(40)[:20]
        got = encode_rows(packed[rows], matrix, buf[:20])
        assert np.array_equal(got, encode_batch([instances[i] for i in rows], matrix))
        assert np.array_equal(buf[:20], got)
        assert (buf[20:] == 7).all()

    def test_set_bits_are_the_row_major_nonzeros_of_the_encoding(self):
        # empty instances, items whose projections collide, and views of the
        # packed split by index array, slice and all of it
        rng = np.random.default_rng(21)
        matrix = build_hash_matrix(d=60, m=11, k=3, seed=4)
        instances = [SparseInstance.from_items(
            60, rng.choice(60, size=rng.integers(0, 9), replace=False) + 1)
            for _ in range(40)]
        packed = PackedInstances.of(instances)
        assert any(inst.c == 0 for inst in instances)
        views = [packed[rng.permutation(40)[:25]], packed[5:30], packed, packed[:0]]
        collided = 0
        for view in views:
            want = np.flatnonzero(np.array(
                [naive_encode(inst.positions, matrix) for inst in view],
                dtype=np.uint8).reshape(len(view), matrix.m))
            got = set_bits(view, matrix)
            assert np.array_equal(got, want)
            assert np.array_equal(got, np.flatnonzero(encode_batch(view, matrix)))
            collided += int((view.sizes * matrix.k).sum()) - got.size
        assert collided > 0

    def test_runtime_independent_of_d(self):
        # O(c*k): the same instance should cost about the same under a
        # 1000x larger item space (generous 5x margin for timer noise)
        small = build_hash_matrix(d=1000, m=256, k=4, seed=0)
        # rows depend on (m, k, seed, row) alone, so tiling the d=1000 rows
        # gives items 1..32 the rows a d=1e6 build would, without its cost
        big = HashMatrix(d=1_000_000, m=256, k=4, seed=0,
                         rows=np.tile(small.rows, (1000, 1)))
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
        scores = decode_nll_batch(self.PROBS, spec_matrix())
        assert scores[0, 0] == pytest.approx(-(math.log(0.1) + math.log(0.3)),
                                             rel=1e-12)
        assert scores[0, 0] == pytest.approx(3.5065578973199818, rel=1e-10)

    @pytest.mark.parametrize("mode,decode,order", [
        ("likelihood", decode_likelihood_batch, ScoreOrder.DESCENDING_LIKELIHOOD),
        ("nll", decode_nll_batch, ScoreOrder.ASCENDING_NLL)])
    def test_decode_batch_picks_the_decoder_and_order_of_a_mode(self, mode,
                                                                decode, order):
        scores, got = decode_batch(self.PROBS, spec_matrix(), mode)
        assert np.array_equal(scores, decode(self.PROBS, spec_matrix()))
        assert got is order

    def test_decode_batch_rejects_an_unknown_mode(self):
        with pytest.raises(ValueError, match="'foo'"):
            decode_batch(self.PROBS, spec_matrix(), "foo")

    def test_nll_all_equal_probs_tie(self):
        scores = decode_nll_batch(np.full((1, 4), 0.25), spec_matrix())
        assert np.allclose(scores, scores[0, 0])

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
    def test_instances_round_trip(self):
        instances = [SparseInstance.from_items(9, [1, 5, 9]),
                     SparseInstance.from_items(9, []),
                     SparseInstance.from_items(9, [2])]
        packed = read_instances("1 5 9\n\n2\n", 9)
        assert isinstance(packed, PackedInstances) and list(packed) == instances

    def test_bit_vector_text(self):
        bits = np.array([[1, 0, 1], [0, 0, 0]], dtype=np.uint8)
        assert write_bit_vectors(bits) == "101\n000\n"

    def test_instance_parse_error_carries_line(self):
        with pytest.raises(ValueError, match="line 2"):
            read_instances("1 2\n1 x\n", 5)
        with pytest.raises(ValueError, match=r"line 3: positions must lie in \[1, 5\]"):
            read_instances("1 2\n\n6\n", 5)

    def test_bit_vector_parse_error_carries_line(self):
        # blank lines are skipped but still counted
        assert read_bit_vectors("0101\n\n0111\n", 4).tolist() == [[0, 1, 0, 1],
                                                                  [0, 1, 1, 1]]
        with pytest.raises(ValueError, match="line 3: expected 4 characters"):
            read_bit_vectors("0101\n\n01x1\n", 4)

    def test_matrix_text_fault_carries_line(self):
        # the header is line 1; a row is checked against it under its own line
        with pytest.raises(ValueError, match="^line 1: "):
            matrix_from_bytes(b"2 2 x 0\n1\n2\n")
        # a header's dimensions are checked before any row
        with pytest.raises(ValueError, match="^line 1: embedding dimensionality m must "
                                             "be >= 1, got 0$"):
            matrix_from_bytes(b"2 0 1 0\n1\n1\n")
        with pytest.raises(ValueError, match="^line 1: "):
            matrix_from_bytes(b"2 3 9 0\n1\n1\n")
        with pytest.raises(ValueError, match=r"^line 3: projection indices must "
                                             r"lie in \[1, 2\]"):
            matrix_from_bytes(b"2 2 1 0\n1\n5\n")

    def test_bytes_that_are_not_utf8_name_their_line(self):
        with pytest.raises(ValueError, match=r"^line 2: not UTF-8 text \(byte 7\)$"):
            read_bit_vectors(b"0101\n01\xff1\n", 4)
        # lines end where str.splitlines ends them, form feed included
        with pytest.raises(ValueError, match=r"^line 3: not UTF-8 text \(byte 7\)$"):
            read_instances(b"1 2\x0c3\r\n\xff\n", 5)

    @pytest.mark.parametrize("bad", ["nan", "-2", "1.5"])
    def test_probability_outside_unit_interval_carries_line(self, bad):
        assert read_probabilities("0 1\n0.5 0.25\n", 2).tolist() == [[0, 1],
                                                                      [0.5, 0.25]]
        with pytest.raises(ValueError, match=f"line 2: probability {float(bad)} outside"):
            read_probabilities(f"0 1\n0.5 {bad}\n", 2)


# every artifact reader, each at a width that some drawn lines match
ARTIFACT_READERS = [lambda data: read_instances(data, 50),
                    lambda data: read_bit_vectors(data, 8),
                    lambda data: read_probabilities(data, 3),
                    matrix_from_bytes, network_from_bytes]
TOKENS = st.sampled_from(["0", "1", "7", "-1", "99999999999", "1e999", "nan", "x", ""])
PAYLOADS = st.one_of(
    st.binary(max_size=64),
    # lines of tokens under an optional `d m k seed` header
    st.builds(lambda head, lines: "\n".join(head + lines).encode(),
              st.lists(st.lists(TOKENS, min_size=4, max_size=4).map(" ".join),
                       max_size=1),
              st.lists(st.lists(TOKENS, max_size=5).map(" ".join), max_size=8)),
    # a magic, a count and uint32 sizes, as the binary headers hold them
    st.builds(lambda magic, count, sizes, tail: magic + struct.pack(
                  f"<I{len(sizes)}I", count, *sizes) + tail,
              st.sampled_from([b"BEH1", b"BENC"]), st.integers(0, 6),
              st.lists(st.integers(0, 2**32 - 1), max_size=6), st.binary(max_size=16)))


@given(PAYLOADS)
@example(b"5 3 100000000000000 0\n" + b"1\n" * 5)  # (d, k) int32 would take 1.78 PiB
@example(b"2 2 x 0\n1\n2\n")
@example(b"2 2 1 0\n1\n5\n")
@example(b"010\n")
@example(b"BENC" + struct.pack("<3I", 2, 2**32 - 1, 2**32 - 1))
@example(b"BENC" + struct.pack("<3I", 2, 2**31 - 1, 2**31))  # 2**64 bytes: 0 in int64
@settings(derandomize=True, max_examples=300, deadline=None)
def test_every_artifact_reader_returns_or_raises_value_error(data):
    for read in ARTIFACT_READERS:
        try:
            read(data)
        except ValueError:
            pass
