import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bloomretrieval.errors import InvalidVectorError
from bloomretrieval.index import l2_normalize, unit_cosine_distances, unit_rows

from oracles import cosine_distance


def kernel_distance(a, b):
    """Cosine distance of two raw vectors as retrieval scores it: b as a
    unit row, a as a unit query, through the one kernel."""
    return float(unit_cosine_distances(unit_rows([b]), l2_normalize(a))[0])


def test_cosine_identical_direction():
    assert kernel_distance([1, 0], [1, 0]) == 0.0


def test_cosine_orthogonal():
    assert kernel_distance([1, 0], [0, 1]) == pytest.approx(1.0)


def test_cosine_45_degrees():
    assert kernel_distance([1, 1], [1, 0]) == pytest.approx(1 - 1 / math.sqrt(2))


def test_normalize_345():
    np.testing.assert_allclose(l2_normalize([3, 4]), [0.6, 0.8])


def test_normalize_already_unit():
    np.testing.assert_allclose(l2_normalize([1, 0, 0]), [1, 0, 0])


def test_normalize_diagonal():
    s = 1 / math.sqrt(2)
    np.testing.assert_allclose(l2_normalize([2, 2]), [s, s])


def test_normalize_zero_rejected():
    with pytest.raises(InvalidVectorError):
        l2_normalize([0.0, 0.0, 0.0])


def test_rejects_nan():
    with pytest.raises(ValueError):
        l2_normalize([float("nan"), 0])


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=6),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_cosine_scale_invariance(vals, c):
    a = np.asarray(vals)
    if np.linalg.norm(a) < 1e-6:
        return
    assert abs(kernel_distance(a, c * a)) < 1e-9


def test_cosine_invariant_under_normalization():
    # the kernel scores unit vectors; the oracle takes the raw ones
    rng = np.random.default_rng(1)
    for _ in range(200):
        a, b = rng.normal(size=(2, 5))
        d = cosine_distance(a, b)
        assert abs(kernel_distance(a, b) - d) < 1e-9
        assert abs(kernel_distance(l2_normalize(a), b) - d) < 1e-9
        assert abs(kernel_distance(a, l2_normalize(b)) - d) < 1e-9


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
    with pytest.raises(InvalidVectorError):
        unit_rows([[1.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("bad", [[math.nan, 1.0], [1.0, math.inf], [1e200, 1e200]])
def test_unit_rows_names_non_finite_row(bad):
    # the last input is finite, but its squared norm overflows
    with pytest.raises(ValueError, match="row 1 is non-finite"):
        unit_rows([[1.0, 0.0], bad])
