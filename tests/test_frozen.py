"""Frozen outputs of the seeded hashing and evaluation paths.

Hash rows, encodings, CBE rebuilds and evaluation scores must stay
bit-identical for a fixed seed, so checkpoints, matrices and sweep scores
written by one version are reproduced by the next. The expected values
were captured once and must never be edited to make a change pass.
"""

import numpy as np
import pytest

from bloomemb import (ExperimentConfig, SparseInstance, build_hash_matrix,
                      encode_batch, evaluate_model, rebuild_hash_matrix)
from bloomemb.experiment import build_matrices, fit, load_dataset


@pytest.mark.parametrize("d,m,k,seed,expected", [
    # k = m: every row is a permutation of {1..m}
    (6, 4, 4, 123, [[1, 2, 4, 3], [4, 1, 2, 3], [2, 1, 3, 4], [2, 3, 1, 4],
                    [1, 3, 4, 2], [2, 4, 3, 1]]),
    (12, 11, 3, 21, [[9, 7, 10], [8, 6, 4], [6, 9, 2], [7, 3, 1], [11, 2, 1],
                     [4, 8, 3], [10, 2, 7], [7, 9, 5], [5, 8, 2], [6, 2, 9],
                     [4, 8, 5], [1, 4, 10]]),
    (9, 9, 1, 0, [[8], [1], [3], [9], [3], [5], [4], [3], [6]]),
])
def test_build_hash_matrix_rows(d, m, k, seed, expected):
    assert build_hash_matrix(d, m, k, seed).rows.tolist() == expected


@pytest.mark.parametrize("d,m,k,seed,picks,expected", [
    # a seed above 2^63 exercises the full unsigned 64-bit range
    (50, 40, 4, 2**63 + 5, [0, 1, 2, 49],
     [[4, 10, 40, 31], [26, 16, 21, 5], [37, 34, 2, 7], [29, 3, 7, 8]]),
    (1000, 100, 3, 7, [0, 499, 999], [[70, 29, 64], [76, 41, 32], [13, 5, 34]]),
])
def test_build_hash_matrix_selected_rows(d, m, k, seed, picks, expected):
    assert build_hash_matrix(d, m, k, seed).rows[picks].tolist() == expected


def test_encode_batch_bits():
    matrix = build_hash_matrix(12, 8, 3, 5)
    instances = [SparseInstance.from_items(12, items)
                 for items in ([1, 2], [5], [], [3, 7, 12])]
    bits = encode_batch(instances, matrix)
    assert ["".join(map(str, row)) for row in bits.tolist()] == [
        "01101101", "01010001", "00000000", "10111110"]


def test_rebuild_hash_matrix_rows():
    matrix = build_hash_matrix(10, 10, 3, 9)
    assert matrix.rows.tolist() == [
        [10, 2, 4], [3, 7, 6], [1, 8, 2], [7, 8, 4], [5, 4, 3], [3, 10, 5],
        [4, 1, 5], [9, 3, 1], [3, 10, 2], [7, 9, 8]]
    pairs = np.array([[2, 1], [5, 3], [8, 2]])
    rebuilt = rebuild_hash_matrix(matrix, pairs, seed=4)
    assert rebuilt.rows.tolist() == [
        [10, 2, 8], [8, 5, 6], [1, 8, 7], [7, 8, 4], [5, 7, 3], [3, 10, 5],
        [4, 1, 5], [9, 5, 1], [3, 10, 2], [7, 9, 8]]


@pytest.fixture(scope="module")
def tiny_run():
    cfg = ExperimentConfig(d=200, n=500, m_in=40, m_out=40, epochs=2)
    ds = load_dataset(cfg)
    h_in, h_out = build_matrices(cfg, ds)
    net, _ = fit(cfg, ds, h_in, h_out)
    return ds.test_profiles(), h_in, h_out, net


@pytest.mark.parametrize("measure,decode_mode,top_n,expected", [
    ("MAP", "likelihood", None, 0.0669685031131882),
    ("MAP", "likelihood", 10, 0.039966269841269844),
    ("MAP", "nll", None, 0.0669685031131882),
    ("MAP", "nll", 10, 0.039966269841269844),
    ("RR", "likelihood", None, 0.0565223289059904),
    ("RR", "likelihood", 10, 0.04352380952380952),
    ("RR", "nll", None, 0.0565223289059904),
    ("RR", "nll", 10, 0.04352380952380952),
])
def test_evaluate_model_scores(tiny_run, measure, decode_mode, top_n, expected):
    test, h_in, h_out, net = tiny_run
    result = evaluate_model(net, test, h_in, h_out, decode_mode=decode_mode,
                            measure=measure, top_n=top_n)
    assert result.score == expected
