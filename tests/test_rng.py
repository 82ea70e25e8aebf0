"""Frozen stream values and exact-uniformity checks for the portable RNG."""

import collections

import pytest

from bloomemb.hashing import GOLDEN_GAMMA, SplitMix64, mix64


def test_stream_matches_reference_vectors():
    # published SplitMix64 outputs for these seeds
    s = SplitMix64(1234567)
    assert [s.next_u64() for _ in range(5)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ]
    s0 = SplitMix64(0)
    assert s0.next_u64() == 0xE220A8397B1DCDAF


def test_mix64_is_frozen():
    assert mix64(0) == 0
    assert mix64(1) == 6238072747940578789
    assert mix64(GOLDEN_GAMMA) == 0xE220A8397B1DCDAF


def test_seed_is_masked_to_64_bits():
    a = SplitMix64(5)
    b = SplitMix64(5 + (1 << 64))
    assert a.next_u64() == b.next_u64()


def test_randbelow_bounds_and_determinism():
    s1 = SplitMix64(99)
    s2 = SplitMix64(99)
    for n in (1, 2, 3, 7, 100, 2**40):
        v1 = s1.randbelow(n)
        v2 = s2.randbelow(n)
        assert v1 == v2
        assert 0 <= v1 < n


def test_randbelow_rejects_nonpositive():
    with pytest.raises(ValueError):
        SplitMix64(0).randbelow(0)


def test_randbelow_exact_uniformity_small_n():
    # over a power-of-two mask the acceptance region is exactly [0, n)
    s = SplitMix64(2024)
    counts = collections.Counter(s.randbelow(5) for _ in range(50_000))
    assert set(counts) == {0, 1, 2, 3, 4}
    for v in counts.values():
        assert abs(v - 10_000) < 600  # ~4.5 sigma of Binomial(5e4, 1/5)

