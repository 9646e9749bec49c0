"""PCA compression of raw layer features down to a fixed target dimension.

The fitted model keeps the top principal components of the sample covariance
(descending eigenvalue order). When the input dimension exceeds the sample
count the Gram-matrix trick is used so fitting stays O(n^2) in samples.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .binio import Reader
from .errors import DimensionMismatchError

_EIG_CLAMP = -1e-9


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
        mean = r.floats(d_in)
        basis = r.floats(d_out * d_in).reshape(d_out, d_in)
        eig = r.floats(d_out)
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


def _complete_basis(basis_rows: list[np.ndarray], needed: int, dim: int) -> list[np.ndarray]:
    """Deterministically extend a partial orthonormal set (zero-variance case)."""
    rows = list(basis_rows)
    e = 0
    while len(rows) < needed:
        if e >= dim:
            raise ValueError("cannot complete orthonormal basis")
        cand = np.zeros(dim)
        cand[e] = 1.0
        e += 1
        for r in rows:
            cand -= np.dot(cand, r) * r
        n = np.linalg.norm(cand)
        if n > 1e-8:
            rows.append(cand / n)
    return rows


def fit_pca(samples, target_dim: int) -> PcaModel:
    """Fit mean + top-target_dim principal components of the sample covariance."""
    X = np.asarray(samples, dtype=np.float64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("fit_pca needs at least 2 samples of equal dimension")
    n, dim = X.shape
    if target_dim < 1 or target_dim > min(dim, n - 1):
        raise ValueError(
            f"target_dim {target_dim} exceeds min(input_dim={dim}, samples-1={n - 1})"
        )

    mean = X.mean(axis=0)
    centered = X - mean

    if dim <= n:
        cov = centered.T @ centered / (n - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1][:target_dim]
        eig = eigvals[order]
        basis = eigvecs[:, order].T.copy()
    else:
        # D >> n: eigendecompose the n x n Gram matrix instead
        gram = centered @ centered.T / (n - 1)
        gvals, gvecs = np.linalg.eigh(gram)
        order = np.argsort(gvals)[::-1][:target_dim]
        eig = gvals[order]
        rows = []
        kept = []
        for lam, i in zip(eig, order):
            if lam > 1e-12:
                u = centered.T @ gvecs[:, i]
                rows.append(u / np.linalg.norm(u))
                kept.append(lam)
        rows = _complete_basis(rows, target_dim, dim)
        basis = np.vstack(rows)
        eig = np.concatenate([kept, np.zeros(target_dim - len(kept))])

    if np.any(eig < _EIG_CLAMP):
        raise ValueError("covariance produced a significantly negative eigenvalue")
    eig = np.clip(eig, 0.0, None)
    basis = _fix_signs(np.ascontiguousarray(basis))
    return PcaModel(mean=mean, basis=basis, eigenvalues=eig)


def project(model: PcaModel, x) -> np.ndarray:
    """Map a raw vector into the compressed space: basis @ (x - mean)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.input_dim,):
        raise DimensionMismatchError(
            f"expected dim {model.input_dim}, got {x.shape}"
        )
    return model.basis @ (x - model.mean)


def project_many(model: PcaModel, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.input_dim:
        raise DimensionMismatchError(
            f"expected (n, {model.input_dim}), got {X.shape}"
        )
    return (X - model.mean) @ model.basis.T
