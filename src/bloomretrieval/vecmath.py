"""Dense vector primitives: L2 distance, cosine distance, normalization.

All functions accept anything array-like and compute in float64. Persisted
formats elsewhere store float32; the extra internal precision keeps distance
accumulation stable.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, ZeroVectorError


def as_vector(x) -> np.ndarray:
    """Coerce to a finite 1-D float64 array."""
    v = np.asarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector contains NaN or Inf")
    return v


def _check_dims(a: np.ndarray, b: np.ndarray) -> None:
    if a.shape[0] != b.shape[0]:
        raise DimensionMismatchError(
            f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}"
        )


def l2_distance(a, b) -> float:
    """Euclidean distance between two equal-dimension vectors."""
    a = as_vector(a)
    b = as_vector(b)
    _check_dims(a, b)
    return float(np.linalg.norm(a - b))


def unit_rows(rows) -> np.ndarray:
    """Each row of a 2-D array (or a sequence of equal-length vectors) scaled
    to unit L2 norm, as a new contiguous float64 matrix.

    Row norms come from the same per-row einsum as `unit_cosine_distances`,
    so a vector normalized alone or inside a matrix gets the same bits.
    """
    m = np.array(rows, dtype=np.float64, order="C")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array of rows, got shape {m.shape}")
    norms = np.sqrt(np.einsum("ij,ij->i", m, m))
    if not np.all(norms > 0.0):
        raise ZeroVectorError("cannot normalize a zero vector")
    m /= norms[:, None]
    return m


def l2_normalize(a) -> np.ndarray:
    """Scale to unit L2 norm, preserving direction."""
    return unit_rows(as_vector(a)[None, :])[0]


def cosine_distance(a, b) -> float:
    """1 - cosine similarity, in [0, 2]. Zero for same-direction vectors."""
    a = as_vector(a)
    b = as_vector(b)
    _check_dims(a, b)
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        raise ZeroVectorError("cosine distance is undefined for zero vectors")
    return 1.0 - float(np.dot(a, b)) / (na * nb)


def unit_cosine_distances(rows: np.ndarray, qn: np.ndarray) -> np.ndarray:
    """Cosine distance from a unit query to each unit row, clamped to [0, 2].

    The staged and brute-force retrieval paths both score through this one
    kernel, often over different blocks of the same rows. einsum computes
    each row's dot product on its own, so a row gets bit-identical distances
    whichever block it sits in; a BLAS matrix-vector product does not (its
    blocking changes the summation order). The clamp absorbs the rounding
    that would otherwise push a self-match a few ulps below zero.
    """
    d = 1.0 - np.einsum("ij,j->i", rows, qn)
    np.clip(d, 0.0, 2.0, out=d)
    return d
