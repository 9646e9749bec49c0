"""PCA compression of raw layer features down to a fixed target dimension.

The fitted model keeps the top principal components of the sample covariance
(descending eigenvalue order), from one eigendecomposition of the smaller of
the D x D covariance and the n x n Gram matrix, which share their nonzero
eigenvalues. From the Gram matrix the components are lifted to input space;
QR completes any zero-variance directions to an orthonormal basis.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .binio import Reader
from .errors import DimensionMismatchError, InvalidVectorError

_EIG_CLAMP = -1e-9
_F32_MAX = float(np.finfo(np.float32).max)


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray         # (D,)
    basis: np.ndarray        # (d, D), orthonormal rows, descending eigenvalue
    eigenvalues: np.ndarray  # (d,), non-increasing, >= 0

    @property
    def input_dim(self) -> int:
        return int(self.mean.shape[0])

    @property
    def target_dim(self) -> int:
        return int(self.basis.shape[0])

    def to_bytes(self) -> bytes:
        out = [struct.pack("<II", self.input_dim, self.target_dim)]
        out.append(self.mean.astype("<f4").tobytes())
        out.append(self.basis.astype("<f4").tobytes())
        out.append(self.eigenvalues.astype("<f4").tobytes())
        return b"".join(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PcaModel":
        r = Reader(blob, "PCA model")
        d_in, d_out = r.unpack("II")
        mean = r.finite(d_in)
        basis = r.finite(d_out * d_in).reshape(d_out, d_in)
        eig = r.finite(d_out)
        r.end()
        return cls(mean=mean, basis=basis, eigenvalues=eig)


def _fix_signs(basis: np.ndarray) -> np.ndarray:
    # largest-magnitude entry of every component made positive, so the fit
    # serializes identically across runs
    for row in basis:
        j = int(np.argmax(np.abs(row)))
        if row[j] < 0:
            row *= -1.0
    return basis


def _storable(y: np.ndarray) -> np.ndarray:
    """Projection y, unless it holds a NaN or Inf, as it does whenever the raw
    input did, or a value beyond float32, the precision records hold."""
    if y.size and not abs(y).max() <= _F32_MAX:
        raise InvalidVectorError("raw features hold a NaN or Inf, or project beyond float32")
    return y


def fit_pca(samples, target_dim: int) -> PcaModel:
    """Fit mean + top-target_dim principal components of the sample covariance."""
    X = np.asarray(samples, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("fit_pca needs at least 2 samples of equal dimension")
    if not np.isfinite(X).all():
        raise InvalidVectorError("raw features hold a NaN or Inf")
    n, dim = X.shape
    if target_dim < 1 or target_dim > min(dim, n - 1):
        raise ValueError(
            f"target_dim {target_dim} exceeds min(input_dim={dim}, samples-1={n - 1})"
        )

    mean = X.mean(axis=0)
    centered = X - mean
    # D > n: the n x n Gram matrix (eigenfaces), else the D x D covariance
    small = centered @ centered.T if dim > n else centered.T @ centered
    eigvals, eigvecs = np.linalg.eigh(small / (n - 1))
    order = np.argsort(eigvals)[::-1][:target_dim]
    eig = eigvals[order]
    vecs = eigvecs[:, order]
    if dim > n:
        vecs = centered.T @ vecs
        dead = eig <= 1e-12
        if dead.any():
            # QR normalises the live columns and completes the rest
            eig[dead] = 0.0
            vecs[:, dead] = 0.0
            vecs = np.linalg.qr(vecs)[0]
        else:
            vecs /= np.linalg.norm(vecs, axis=0)
    if np.any(eig < _EIG_CLAMP):
        raise ValueError("covariance produced a significantly negative eigenvalue")
    eig = np.clip(eig, 0.0, None)
    return PcaModel(mean=mean, basis=_fix_signs(vecs.T.copy()), eigenvalues=eig)


def project(model: PcaModel, x) -> np.ndarray:
    """Map a raw vector into the compressed space: basis @ (x - mean).
    Raises `InvalidVectorError` unless the result fits float32."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.input_dim,):
        raise DimensionMismatchError(
            f"PCA model takes {model.input_dim} values, got shape {x.shape}"
        )
    return _storable(model.basis @ (x - model.mean))


def project_many(model: PcaModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise DimensionMismatchError(
            f"PCA model takes rows of {model.input_dim} values, got shape {X.shape}"
        )
    return _storable((X - model.mean) @ model.basis.T)
