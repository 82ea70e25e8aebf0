"""Frozen outputs of the seeded hashing, loading and evaluation paths.

Hash rows, encodings, CBE rebuilds, a loaded file's cuts and test split,
and evaluation scores must stay bit-identical for a fixed seed, so
checkpoints, matrices, datasets and sweep scores written or read by one
version are reproduced by the next. The expected values
were captured once and must never be edited to make a change pass.
"""

import io

import numpy as np
import pytest

from bloomemb import (ExperimentConfig, SparseInstance, build_hash_matrix,
                      encode_batch, evaluate_model, load_profiles,
                      rebuild_hash_matrix)
from bloomemb.experiment import build_matrices, fit, load_dataset, run_sweep


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


def test_load_profiles_cuts_and_split():
    # timestamp ties, repeated items, ratings below 3 and an item ("f") that
    # min_item_count drops
    text = ("ann b 3 5\nann a 1 4\nann c 1 2\nann b 4 5\nann d 1 5\n"
            "bob a 2 5\nbob e 2 3\nbob c 1 5\nbob b 2 4\n"
            "cat d 5 4\ncat a 5 1\ncat b 6 5\ncat e 7 5\ncat c 5 5\n"
            "dan c 1 5\ndan b 1 4\ndan a 2 5\ndan c 0 4\n"
            "eve f 1 5\neve e 2 5\neve d 2 5\neve a 3 2\neve b 3 3\n"
            "fay b 9 4\nfay a 8 4\nfay d 8 4\nfay b 7 5\n")
    ds = load_profiles(io.StringIO(text), min_item_count=2, rating_threshold=3,
                       test_size=0.34, seed=5)
    assert ds.d == 5
    assert [(i.positions.tolist(), o.positions.tolist()) for i, o in ds.train] == [
        ([1, 4], [2]), ([4], [2, 3, 5]), ([5], [2, 4]), ([1, 2], [4])]
    assert [(i.positions.tolist(), o.positions.tolist()) for i, o in ds.test] == [
        ([1, 3, 5], [2]), ([2, 3], [1])]


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


@pytest.mark.parametrize("parallel", [1, 2])
def test_sweep_scores(parallel):
    cfg = ExperimentConfig(d=200, n=500, m_in=40, m_out=40, epochs=2)
    rows = run_sweep(cfg, [0.2], [2], [0, 1], parallel=parallel)
    assert [(r["variant"], r["k"], r["m_ratio"], r["seed"], r["S_i"],
             r["score_ratio"]) for r in rows] == [
        ("baseline", 1, 1.0, 0, 0.07161212795322007, 1.0),
        ("baseline", 1, 1.0, 1, 0.0768333012554709, 1.0),
        ("be", 2, 0.2, 0, 0.042372419205659095, 0.5916933404539866),
        ("be", 2, 0.2, 1, 0.033908908341088596, 0.4413308784994335)]
