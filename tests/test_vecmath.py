import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bloomretrieval.errors import DimensionMismatchError, ZeroVectorError
from bloomretrieval.vecmath import (
    cosine_distance,
    l2_distance,
    l2_normalize,
    unit_cosine_distances,
    unit_rows,
)

finite_vectors = st.lists(
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    min_size=2,
    max_size=8,
)


def test_l2_distance_345():
    assert l2_distance([0, 0], [3, 4]) == 5.0


def test_l2_distance_identity():
    x = [1.5, -2.25, 7.0]
    assert l2_distance(x, x) == 0.0


def test_l2_distance_sqrt200():
    assert l2_distance([0, 0], [10, 10]) == pytest.approx(math.sqrt(200), rel=1e-12)


def test_l2_distance_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        l2_distance([1, 2], [1, 2, 3])


def test_cosine_identical_direction():
    assert cosine_distance([1, 0], [1, 0]) == 0.0


def test_cosine_orthogonal():
    assert cosine_distance([1, 0], [0, 1]) == pytest.approx(1.0)


def test_cosine_45_degrees():
    assert cosine_distance([1, 1], [1, 0]) == pytest.approx(1 - 1 / math.sqrt(2))


def test_cosine_zero_vector_rejected():
    with pytest.raises(ZeroVectorError):
        cosine_distance([0, 0], [1, 0])


def test_normalize_345():
    np.testing.assert_allclose(l2_normalize([3, 4]), [0.6, 0.8])


def test_normalize_already_unit():
    np.testing.assert_allclose(l2_normalize([1, 0, 0]), [1, 0, 0])


def test_normalize_diagonal():
    s = 1 / math.sqrt(2)
    np.testing.assert_allclose(l2_normalize([2, 2]), [s, s])


def test_normalize_zero_rejected():
    with pytest.raises(ZeroVectorError):
        l2_normalize([0.0, 0.0, 0.0])


def test_rejects_nan():
    with pytest.raises(ValueError):
        l2_distance([float("nan"), 0], [0, 0])


@given(finite_vectors, finite_vectors)
def test_l2_symmetry(a, b):
    if len(a) != len(b):
        a = a[: min(len(a), len(b))]
        b = b[: len(a)]
    assert l2_distance(a, b) == l2_distance(b, a)


def test_triangle_inequality_random_triples():
    rng = np.random.default_rng(0)
    for _ in range(500):
        a, b, c = rng.normal(size=(3, 6))
        ab = l2_distance(a, b)
        bc = l2_distance(b, c)
        ac = l2_distance(a, c)
        assert ac <= (ab + bc) * (1 + 1e-9)


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=6),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_cosine_scale_invariance(vals, c):
    a = np.asarray(vals)
    if np.linalg.norm(a) < 1e-6:
        return
    assert abs(cosine_distance(a, c * a)) < 1e-9


def test_cosine_invariant_under_normalization():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = rng.normal(size=(2, 5))
        d = cosine_distance(a, b)
        assert abs(cosine_distance(l2_normalize(a), b) - d) < 1e-9
        assert abs(cosine_distance(a, l2_normalize(b)) - d) < 1e-9


def test_unit_cosine_distances_block_independent():
    # the staged path scores a row inside a gathered subset, the brute-force
    # oracle inside the whole matrix: both must get the same bits
    rng = np.random.default_rng(2)
    for n, dim in ((3001, 128), (1001, 37), (77, 128), (1003, 6), (5, 3)):
        rows = unit_rows(rng.normal(size=(n, dim)))
        q = l2_normalize(rng.normal(size=dim))
        full = unit_cosine_distances(rows, q)
        assert np.all((full >= 0.0) & (full <= 2.0))
        sizes = [1, 2, 3, 5, 7, 9, n // 3, n - 1, n]
        sizes += rng.integers(1, n + 1, size=20).tolist()
        for size in (s for s in sizes if s <= n):
            pick = np.sort(rng.choice(n, size=size, replace=False))
            np.testing.assert_array_equal(unit_cosine_distances(rows[pick], q), full[pick])
        np.testing.assert_array_equal(unit_cosine_distances(rows[1:], q), full[1:])


def test_unit_rows_matches_l2_normalize():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(50, 7))
    units = unit_rows(m)
    for row, unit in zip(m, units):
        np.testing.assert_array_equal(l2_normalize(row), unit)
    with pytest.raises(ZeroVectorError):
        unit_rows([[1.0, 0.0], [0.0, 0.0]])
