"""Kernel contracts on small hand-checked inputs."""

import numpy as np

from bloomemb import kernels as K


def test_build_rows_without_replacement():
    rows = K.build_rows(500, 12, 12, 77)
    srt = np.sort(rows, axis=1)
    assert (srt == np.arange(1, 13)).all()  # k == m forces a permutation


def test_encode_bits_sets_exactly_projected_positions():
    rows = np.array([[1, 3], [2, 4], [1, 2]], dtype=np.int32)
    indptr = np.array([0, 2], dtype=np.int64)
    flat = np.array([1, 3], dtype=np.int32)
    bits = K.encode_bits(rows, indptr, flat, 4)
    assert bits.tolist() == [[1, 1, 1, 0]]


def test_decode_handles_empty_probability_edge():
    rows = np.array([[2, 1]], dtype=np.int32)
    probs = np.array([[0.5, 0.0]])
    out = K.decode_likelihood_bulk(probs, rows)
    assert out[0, 0] == 0.0
