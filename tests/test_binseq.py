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

from oracles import reference_signature, signature_bits


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
    # bit i lives at byte i//8, position i%8 (LSB first); only the first and
    # last of nine centroids lie within the threshold of the origin
    centroids = np.array([[0.0]] + [[5.0]] * 7 + [[0.5]])
    d = CentroidDictionary(centroids=centroids, threshold=1.0, rng_seed=0)
    sig = encode_signature(d, [0.0])
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


@pytest.mark.parametrize("threshold", [0.0, -1.0, float("nan"), float("inf")])
def test_dictionary_bad_threshold_rejected(threshold):
    d = init_dictionary(np.eye(4), count=2, threshold=1.0, rng_seed=0)
    blob = bytearray(d.to_bytes())
    blob[8:12] = struct.pack("<f", threshold)
    with pytest.raises(DataFormatError, match="threshold"):
        CentroidDictionary.from_bytes(bytes(blob))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_dictionary_non_finite_centroid_rejected(value):
    centroids = np.eye(4)[:2].copy()
    centroids[1, 2] = value
    d = CentroidDictionary(centroids=centroids, threshold=1.0, rng_seed=0)
    with pytest.raises(DataFormatError, match="NaN or Inf"):
        CentroidDictionary.from_bytes(d.to_bytes())


@pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
def test_dictionary_threshold_must_be_positive_and_finite(threshold):
    # a NaN threshold signed every vector all-zero and an Inf one set every bit
    with pytest.raises(ValueError, match="threshold"):
        CentroidDictionary(centroids=np.eye(4), threshold=threshold, rng_seed=0)
    with pytest.raises(ValueError, match="threshold"):
        init_dictionary(np.eye(4), count=2, threshold=threshold, rng_seed=0)


@pytest.mark.parametrize(
    "make, message",
    [
        (lambda: BinarySignature(width=9, data=b"\x00"), "byte length"),
        (lambda: BinarySignature(width=8, data=b"\x00\x00"), "byte length"),
        (lambda: init_dictionary(np.ones(4), count=1, threshold=1.0), "share one dimension"),
        (lambda: init_dictionary(np.eye(4), count=0, threshold=1.0), "count must be positive"),
    ],
    ids=["signature-short", "signature-long", "vectors-1d", "count-0"],
)
def test_argument_checks(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_dictionary_centroids_are_a_read_only_copy():
    source = np.arange(12, dtype=np.float32).reshape(4, 3)
    d = CentroidDictionary(centroids=source, threshold=1.0, rng_seed=0)
    assert d.centroids.dtype == np.float64
    with pytest.raises(ValueError, match="read-only"):
        d.centroids[0, 0] = 5.0
    source[0, 0] = 99.0
    assert d.centroids[0, 0] == 0.0


def _ulps_around(t, k):
    """t and the 2k floats nearest it, k each side."""
    out = [t]
    for toward in (-math.inf, math.inf):
        u = t
        for _ in range(k):
            u = math.nextafter(u, toward)
            out.append(u)
    return out


def _assert_signs_as_reference(centroids, threshold, x):
    d = CentroidDictionary(centroids=centroids, threshold=threshold, rng_seed=0)
    assert encode_signature(d, x).data == reference_signature(centroids, threshold, x)


@pytest.mark.parametrize("scale", [1.0, 10.0, 1e3])
@pytest.mark.parametrize("dim", [2, 8, 128])
def test_encode_matches_reference_at_threshold(dim, scale):
    # t is the reference distance to one centroid, or 1 or 2 ulps from it,
    # so the pre-test alone would get some of these bits wrong
    rng = np.random.default_rng([dim, int(scale)])
    for trial in range(60):
        centroids = rng.normal(size=(64, dim)) * scale
        j = rng.integers(64)
        # every other x lies close to centroid j, where |c - x| is small
        # next to |c| and |x| and the pre-test cancels most
        spread = 1e-3 if trial % 2 else 1.0
        x = centroids[j] + rng.normal(size=dim) * scale * spread
        dist = np.linalg.norm(centroids - x, axis=1)[j]
        for t in _ulps_around(float(dist), 2):
            _assert_signs_as_reference(centroids, t, x)


@pytest.mark.parametrize("scale", [1e-160, 5e149])
def test_encode_matches_reference_at_extreme_scales(scale):
    # 1e-160: squares are subnormal; 5e149: (M + X)^2 + t^2 lies on either
    # side of the pre-test's overflow limit
    rng = np.random.default_rng(7)
    for _ in range(20):
        centroids = rng.normal(size=(64, 8)) * scale
        x = centroids[rng.integers(64)] + rng.normal(size=8) * scale * 1e-3
        dists = np.linalg.norm(centroids - x, axis=1)
        for t in _ulps_around(float(dists[rng.integers(64)]), 1):
            _assert_signs_as_reference(centroids, t, x)


def test_encode_matches_reference_when_pretest_overflows():
    # |x|^2 overflows, yet x lies 0.5 from the first centroid
    centroids = np.array([[1e200, 0.0], [1e200, 3.0], [0.0, 1.0], [-1e200, 0.5]])
    x = np.array([1e200, 0.5])
    with np.errstate(over="ignore"):
        for t in (0.5, 1.0, 2.5, 3.0, 1e300):
            _assert_signs_as_reference(centroids, t, x)
        assert signature_bits(
            encode_signature(CentroidDictionary(centroids, 1.0, 0), x)
        ) == [True, False, False, False]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_encode_non_finite_x_matches_reference(value):
    rng = np.random.default_rng(8)
    centroids = rng.normal(size=(64, 8))
    x = rng.normal(size=8)
    x[3] = value
    with np.errstate(invalid="ignore", over="ignore"):
        _assert_signs_as_reference(centroids, 3.0, x)


def test_encode_nan_centroid_matches_reference():
    rng = np.random.default_rng(9)
    centroids = rng.normal(size=(64, 8))
    centroids[5, 2] = math.nan
    x = centroids[7] + rng.normal(size=8) * 0.1
    dist = float(np.linalg.norm(centroids[7] - x))
    for t in _ulps_around(dist, 1) + [3.0]:
        _assert_signs_as_reference(centroids, t, x)


@pytest.mark.parametrize("dim", [7, 8, 9, 16, 127, 128, 129, 300])
def test_band_row_alone_matches_full_matrix(dim):
    # a bit at the threshold is scored alone, on its own row of C - x; numpy
    # must give that row the bits it gets inside the full (64, d) matrix
    rng = np.random.default_rng(dim)
    centroids = rng.normal(size=(64, dim))
    x = rng.normal(size=dim)
    dists = np.linalg.norm(centroids - x, axis=1)
    for i in range(0, 64, 4):
        for t in _ulps_around(float(dists[i]), 1):
            full = encode_signature(CentroidDictionary(centroids, t, 0), x)
            alone = encode_signature(CentroidDictionary(centroids[i:i + 1], t, 0), x)
            assert signature_bits(alone) == [signature_bits(full)[i]] == [dists[i] < t]
