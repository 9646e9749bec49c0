import math
import struct

import numpy as np
import pytest

from bloomretrieval.binseq import (
    BinarySignature,
    CentroidDictionary,
    encode_signature,
    init_dictionary,
)
from bloomretrieval.errors import DataFormatError, DimensionMismatchError

from oracles import signature_bits


def test_exhaustive_sample():
    vectors = np.arange(64 * 3, dtype=float).reshape(64, 3)
    d = init_dictionary(vectors, count=64, threshold=1.0, rng_seed=5)
    got = {tuple(c) for c in d.centroids}
    want = {tuple(v) for v in vectors}
    assert got == want


def test_init_deterministic():
    rng = np.random.default_rng(0)
    vectors = rng.normal(size=(200, 4))
    d1 = init_dictionary(vectors, count=16, threshold=2.0, rng_seed=99)
    d2 = init_dictionary(vectors, count=16, threshold=2.0, rng_seed=99)
    np.testing.assert_array_equal(d1.centroids, d2.centroids)


def test_different_seeds_differ():
    rng = np.random.default_rng(1)
    vectors = rng.normal(size=(1000, 4))
    d1 = init_dictionary(vectors, count=64, threshold=2.0, rng_seed=1)
    d2 = init_dictionary(vectors, count=64, threshold=2.0, rng_seed=2)
    assert not np.array_equal(d1.centroids, d2.centroids)


def test_too_few_vectors():
    with pytest.raises(ValueError):
        init_dictionary(np.zeros((5, 2)), count=6, threshold=1.0, rng_seed=0)


def test_encode_origin_example():
    d = CentroidDictionary(
        centroids=np.array([[0.0, 0.0], [10.0, 10.0]]), threshold=10.0, rng_seed=0
    )
    sig = encode_signature(d, [0.0, 0.0])
    # d(c1) = sqrt(200) ~ 14.14 >= 10, so only bit 0
    assert math.sqrt(200) >= 10
    assert signature_bits(sig) == [True, False]


def test_all_far_gives_zero_signature():
    d = CentroidDictionary(
        centroids=np.array([[100.0, 0.0], [0.0, 100.0]]), threshold=1.0, rng_seed=0
    )
    sig = encode_signature(d, [0.0, 0.0])
    assert not any(signature_bits(sig))


def test_encode_matches_brute_force_loop():
    rng = np.random.default_rng(9)
    vectors = rng.normal(size=(500, 8))
    d = init_dictionary(vectors, count=64, threshold=3.0, rng_seed=4)
    for _ in range(20):
        x = rng.normal(size=8)
        bits = signature_bits(encode_signature(d, x))
        for i in range(64):
            dist = math.sqrt(sum((a - b) ** 2 for a, b in zip(x, d.centroids[i])))
            assert bits[i] == (dist < 3.0)


def test_centroid_matches_itself():
    rng = np.random.default_rng(10)
    vectors = rng.normal(size=(100, 5))
    d = init_dictionary(vectors, count=32, threshold=0.5, rng_seed=6)
    for i in range(32):
        assert signature_bits(encode_signature(d, d.centroids[i]))[i]


def test_popcount_monotone_in_threshold():
    rng = np.random.default_rng(11)
    vectors = rng.normal(size=(100, 5))
    x = rng.normal(size=5)
    prev = -1
    for t in (0.5, 1.0, 2.0, 4.0, 8.0):
        d = init_dictionary(vectors, count=32, threshold=t, rng_seed=7)
        count = sum(signature_bits(encode_signature(d, x)))
        assert count >= prev
        prev = count


def test_encode_deterministic_bit_for_bit():
    rng = np.random.default_rng(12)
    vectors = rng.normal(size=(100, 5))
    d = init_dictionary(vectors, count=64, threshold=2.0, rng_seed=8)
    x = rng.normal(size=5)
    assert encode_signature(d, x) == encode_signature(d, x)


def test_encode_dim_mismatch():
    d = CentroidDictionary(centroids=np.zeros((4, 3)), threshold=1.0, rng_seed=0)
    with pytest.raises(DimensionMismatchError):
        encode_signature(d, [1.0, 2.0])


def test_signature_bit_layout():
    # bit i lives at byte i//8, position i%8 (LSB first)
    sig = BinarySignature.from_bits([1, 0, 0, 0, 0, 0, 0, 0, 1])
    assert sig.data == b"\x01\x01"
    assert sig.width == 9
    assert signature_bits(sig) == [True] + [False] * 7 + [True]


def test_dictionary_round_trip():
    rng = np.random.default_rng(13)
    vectors = rng.normal(size=(100, 6)).astype(np.float32).astype(np.float64)
    d = init_dictionary(vectors, count=16, threshold=2.5, rng_seed=77)
    back = CentroidDictionary.from_bytes(d.to_bytes())
    np.testing.assert_array_equal(back.centroids, d.centroids)
    assert back.rng_seed == 77
    assert back.to_bytes() == d.to_bytes()


@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan")])
def test_dictionary_bad_threshold_rejected(threshold):
    d = init_dictionary(np.eye(4), count=2, threshold=1.0, rng_seed=0)
    blob = bytearray(d.to_bytes())
    blob[8:12] = struct.pack("<f", threshold)
    with pytest.raises(DataFormatError, match="threshold"):
        CentroidDictionary.from_bytes(bytes(blob))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_dictionary_non_finite_centroid_rejected(value):
    d = init_dictionary(np.eye(4), count=2, threshold=1.0, rng_seed=0)
    d.centroids[1, 2] = value
    with pytest.raises(DataFormatError, match="NaN or Inf"):
        CentroidDictionary.from_bytes(d.to_bytes())
