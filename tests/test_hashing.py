"""Projection family construction, lookup, and serialization contracts."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from bloomemb.codec import matrix_from_bytes, matrix_to_binary, matrix_to_text
from bloomemb.hashing import (GOLDEN_GAMMA, MASK64, HashMatrix, SplitMix64,
                              _build_rows, build_hash_matrix,
                              identity_hash_matrix, mix64)


def row_stream_seed(seed, row):
    """Seed of the independent SplitMix64 stream that generates matrix row `row`."""
    return mix64((seed + (row + 1) * GOLDEN_GAMMA) & MASK64)


def pool_rows(d, m, k, seed):
    """Partial Fisher-Yates on a shared list pool 1..m whose swaps are
    undone after every row, one row and one sequential stream at a time:
    the oracle of the all-rows-at-once draw over recorded draws."""
    out = np.empty((d, k), dtype=np.int32)
    pool = list(range(1, m + 1))
    targets = [0] * k
    for i in range(d):
        stream = SplitMix64(row_stream_seed(seed, i))
        for j in range(k):
            t = j + stream.randbelow(m - j)
            pool[j], pool[t] = pool[t], pool[j]
            out[i, j] = pool[j]
            targets[j] = t
        for j in range(k - 1, -1, -1):
            t = targets[j]
            pool[j], pool[t] = pool[t], pool[j]
    return out


def test_row_stream_seeds_are_distinct():
    seeds = {row_stream_seed(42, i) for i in range(10_000)}
    assert len(seeds) == 10_000
    assert all(0 <= s <= MASK64 for s in seeds)


@st.composite
def dims_and_seed(draw):
    m = draw(st.integers(1, 60))
    return (draw(st.integers(m, 80)), m, draw(st.integers(1, m)),
            draw(st.integers(0, MASK64)))


class TestBuild:
    def test_k_equals_m_forces_full_permutation(self):
        matrix = build_hash_matrix(d=6, m=4, k=4, seed=123)
        for row in matrix.rows:
            assert sorted(row.tolist()) == [1, 2, 3, 4]

    def test_construction_is_pure_function_of_arguments(self):
        a = build_hash_matrix(d=1000, m=100, k=1, seed=7)
        b = build_hash_matrix(d=1000, m=100, k=1, seed=7)
        assert a == b
        c = build_hash_matrix(d=1000, m=100, k=1, seed=8)
        assert not np.array_equal(a.rows, c.rows)

    def test_rows_have_no_repeats(self):
        matrix = build_hash_matrix(d=2000, m=50, k=10, seed=5)
        srt = np.sort(matrix.rows, axis=1)
        assert (srt[:, 1:] > srt[:, :-1]).all()

    def test_indices_in_range(self):
        matrix = build_hash_matrix(d=500, m=13, k=3, seed=11)
        assert matrix.rows.min() >= 1
        assert matrix.rows.max() <= 13

    def test_index_histogram_uniform_chi_squared(self):
        # Monte Carlo oracle: aggregated projections of many items are
        # uniform over {1..m}; goodness of fit at significance 0.01
        matrix = build_hash_matrix(d=10_000, m=1000, k=4, seed=3)
        counts = np.bincount(matrix.rows.ravel(), minlength=1001)[1:]
        result = stats.chisquare(counts)
        assert result.pvalue > 0.01

    @pytest.mark.parametrize("d,m,k", [(10, 4, 5), (10, 0, 1), (0, 4, 2),
                                       (5, 6, 2)])
    def test_rejects_bad_dimensions(self, d, m, k):
        with pytest.raises(ValueError):
            build_hash_matrix(d=d, m=m, k=k, seed=0)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(dims_and_seed())
    @example((1, 1, 1, 0))
    @example((80, 60, 60, 2**64 - 1))  # k = m, seed at the top of the range
    @example((5, 1, 1, 2**63))
    def test_rows_match_the_shared_pool_oracle(self, case):
        assert np.array_equal(_build_rows(*case), pool_rows(*case))

    def test_rejects_item_count_beyond_int32(self):
        # checked with no rows at all: a build at this d would allocate GiBs
        with pytest.raises(ValueError, match=r"d must lie in \[1, 2\*\*31 - 1\]"):
            HashMatrix(d=2**31 + 10, m=4, k=2, seed=0, rows=np.ones((0, 2), np.int32))

    def test_equals_only_a_hash_matrix(self):
        matrix = identity_hash_matrix(3)
        assert matrix.__eq__(matrix.rows) is NotImplemented and matrix != "rows"

    def test_identity_matrix(self):
        matrix = identity_hash_matrix(5)
        assert matrix.rows.ravel().tolist() == [1, 2, 3, 4, 5]
        assert (matrix.m, matrix.k) == (5, 1)


class TestSerialization:
    def test_text_round_trip(self):
        matrix = build_hash_matrix(d=6, m=4, k=2, seed=17)
        assert matrix_from_bytes(matrix_to_text(matrix).encode()) == matrix

    def test_binary_round_trip(self):
        matrix = build_hash_matrix(d=6, m=4, k=2, seed=17)
        assert matrix_from_bytes(matrix_to_binary(matrix)) == matrix

    def test_round_trip_via_files(self, tmp_path):
        matrix = build_hash_matrix(d=37, m=9, k=4, seed=2**63 + 5)
        (tmp_path / "m.txt").write_text(matrix_to_text(matrix))
        (tmp_path / "m.bin").write_bytes(matrix_to_binary(matrix))
        for name in ("m.txt", "m.bin"):
            assert matrix_from_bytes((tmp_path / name).read_bytes()) == matrix

    def test_truncated_binary_rejected(self):
        payload = matrix_to_binary(build_hash_matrix(6, 4, 2, 0))
        with pytest.raises(ValueError, match="truncated"):
            matrix_from_bytes(payload[:-3])

    def test_truncated_text_rejected(self):
        text = matrix_to_text(build_hash_matrix(6, 4, 2, 0))
        lines = text.splitlines()
        with pytest.raises(ValueError):
            matrix_from_bytes("\n".join(lines[:-1]).encode())

    def test_out_of_range_index_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_bytes(b"2 2 2 0\n1 2\n0 1\n")
        with pytest.raises(ValueError):
            matrix_from_bytes(b"2 2 2 0\n1 2\n3 1\n")
        with pytest.raises(ValueError):
            # 2**32 + 1 would read as 1 once cast to int32
            HashMatrix(d=4, m=3, k=1, seed=0,
                       rows=np.array([[2**32 + 1], [2], [3], [1]]))
        with pytest.raises(ValueError, match="integers"):
            # cast to int32, these rows would read [[1], [2], [3]]
            HashMatrix(d=3, m=3, k=1, seed=0, rows=[[1.5], [2.9], [3.0]])

    def test_rows_of_the_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match=r"^rows shape \(2, 2\) does not match "
                                             r"header \(3, 2\)$"):
            HashMatrix(d=3, m=3, k=2, seed=0, rows=np.array([[1, 2], [2, 3]]))

    def test_malformed_header_rejected(self):
        with pytest.raises(ValueError):
            matrix_from_bytes(b"2 2 2\n1 2\n2 1\n")

    def test_binary_layout_is_frozen(self):
        matrix = HashMatrix(d=3, m=3, k=2, seed=1,
                            rows=np.array([[1, 3], [2, 1], [3, 2]],
                                          dtype=np.int32))
        payload = matrix_to_binary(matrix)
        assert payload[:4] == b"BEH1"
        assert payload[4:16] == (3).to_bytes(4, "little") + \
            (3).to_bytes(4, "little") + (2).to_bytes(4, "little")
        assert payload[16:24] == (1).to_bytes(8, "little")
        assert payload[24:] == b"".join(v.to_bytes(4, "little")
                                        for v in (1, 3, 2, 1, 3, 2))


class TestInvariants:
    def test_full_pipeline_bit_reproducible(self, tmp_path):
        d, m, k, seed = 200, 40, 4, 987654321
        first = build_hash_matrix(d, m, k, seed)
        path = tmp_path / "h.bin"
        path.write_bytes(matrix_to_binary(first))
        reloaded = matrix_from_bytes(path.read_bytes())
        # an independent rebuild from the same arguments matches the file
        assert reloaded == build_hash_matrix(d, m, k, seed)

    def test_matrix_is_read_only(self):
        matrix = build_hash_matrix(10, 5, 2, 0)
        with pytest.raises(ValueError):
            matrix.rows[0, 0] = 3
