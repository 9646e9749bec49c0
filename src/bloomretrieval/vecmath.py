"""Dense vector primitives: unit normalization and the one cosine distance
kernel, which the staged and the brute-force retrieval paths share.

Both compute in float64. Persisted formats elsewhere store float32; the
extra internal precision keeps distance accumulation stable.
"""

from __future__ import annotations

import numpy as np

from .errors import ZeroVectorError


def unit_rows(rows) -> np.ndarray:
    """Each row of a 2-D array (or a sequence of equal-length vectors) scaled
    to unit L2 norm, as a new contiguous float64 matrix.

    Row norms come from the same per-row einsum as `unit_cosine_distances`,
    so a vector normalized alone or inside a matrix gets the same bits. A
    row with a NaN or Inf (or a norm that overflows) raises `ValueError`; a
    zero row raises `ZeroVectorError`.
    """
    m = np.array(rows, dtype=np.float64, order="C")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array of rows, got shape {m.shape}")
    norms = np.sqrt(np.einsum("ij,ij->i", m, m))
    finite = np.isfinite(norms)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise ValueError(f"row {bad} is non-finite or its norm overflows")
    if not np.all(norms > 0.0):
        raise ZeroVectorError("cannot normalize a zero vector")
    m /= norms[:, None]
    return m


def l2_normalize(a) -> np.ndarray:
    """A 1-D vector scaled to unit L2 norm, with the bits `unit_rows` gives
    it as a row; the same errors, and `ValueError` for input that is not 1-D."""
    v = np.asarray(a, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {v.shape}")
    return unit_rows(v[None, :])[0]


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
