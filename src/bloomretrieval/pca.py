"""PCA compression of raw layer features down to a fixed target dimension.

The model keeps the top principal components from one eigh of S, the smaller
of the D x D covariance and the n x n Gram matrix (over n - 1); one QR lifts
Gram components to an orthonormal basis. Each selected eigenvalue at or below
f = 4u (k tr S + (n + 2)^2 u X), u = 2^-53, k = max(n, D), X = sum_j max_i
x_ij^2, becomes 0 with its lifted column, which the QR completes. Centring
errs by (n + 2) u max_i |x_ij| an entry, a product entry by k u sum |c_p c_q|
(Higham 2002, 3.5), so z'Sz <= 2 (n + 2)^2 u^2 X + k u tr S for a unit z with
Cz = 0 (C^T z = 0 for Gram), C the exactly centred samples (Cauchy-Schwarz).
By Courant-Fischer that bounds as many eigenvalues of S as C has null
directions, and eigh moves each by at most N u |S| <= k u tr S (Golub & Van
Loan, 8.1). f doubles the sum for second-order terms; it scales as x^2 does.
Each of its terms is scaled down by u before it is multiplied, so f is finite
wherever S is; an S that overflows float64 raises `InvalidVectorError`.

`proven_storable(model, x)` proves, without projecting, that `project(model,
x)` raises nothing and that its float32 cast has a nonzero entry, so a query
layer the filter never reaches need not be projected. Let eta = 2^-1074, D
the input width, b_i the basis rows, beta = max |b_i|, mu the mean, and
R = beta (X + |mu|) the reach, X >= |x|. A dot product of length D in any
order errs by at most D u sum |a_j c_j| <= D u |a| |c| to first order, and
by eta / 2 a product for underflow (Higham 2002, 3.1); x - mu rounds each
entry by u relatively (a subnormal difference is exact). So each computed
y_i = b_i.(x - mu) is within (D + 1) u R + D eta of the exact one, which is
at most R in size. With p = b_0.x per call and q = b_0.mu once, p - q is
within D u R + D eta of the exact y_0 and its rounding adds u |p - q|: the
pre-test's y_0 is within (2D + 1) u R + 2D eta + u |p - q| of project's. A
float64 rounds to a nonzero float32 iff it exceeds 2^-150 in size: that is
half the least float32 subnormal, and it ties to 0. The pre-test takes
X = sqrt(x.x + D eta), at least |x| to first order (x.x errs by D u |x|^2
and D eta / 2), the margin e = 4 (D + 4) (u R + eta), over twice the sum
of the R and eta terms, which covers the second-order terms and the
rounding of X, R, beta, |mu| and e, and the floor 2^-149. It holds when
R + e < F32_MAX, so every |y_i| fits float32, and |p - q| > e + 2^-149: then
project's |y_0| exceeds (1 - u) (e + 2^-149) - e / 2 > 2^-150, so y_0 rounds
to a nonzero float32. x.x is then finite, so x holds no NaN or Inf and no
float64 step of `project` can overflow. A NaN or Inf in x makes x.x, and
with it R, NaN or Inf, and both comparisons fail; so do x at or near the
mean and an x near float32's limit.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .binio import Reader
from .errors import DimensionMismatchError, InvalidVectorError

_U = 2.0**-53
_ETA = 2.0**-1074
_F32_MAX = float(np.finfo(np.float32).max)
# the pre-test's floor, the least float32 subnormal: a float64 above half of
# it in size rounds to a nonzero float32
_F32_TINY = 2.0**-149


@dataclass(frozen=True)
class PcaModel:
    """`mean` and `basis` are stored as read-only float64 copies, so the
    constants cached from them for `proven_storable` cannot go stale."""

    mean: np.ndarray         # (D,)
    basis: np.ndarray        # (d, D), orthonormal rows, descending eigenvalue
    eigenvalues: np.ndarray  # (d,), non-increasing, >= 0
    # b_0, beta, |mean| and b_0.mean of the module docstring; b_0 is 0 for
    # a model of no rows, which the pre-test then never passes
    _row: np.ndarray = field(init=False, repr=False, compare=False)
    _max_row_norm: float = field(init=False, repr=False, compare=False)
    _mean_norm: float = field(init=False, repr=False, compare=False)
    _row_mean: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in ("mean", "basis"):
            array = np.array(getattr(self, name), dtype=np.float64)
            array.flags.writeable = False
            object.__setattr__(self, name, array)
        mean, basis = self.mean, self.basis
        row = basis[0] if len(basis) else np.zeros_like(mean)
        with np.errstate(over="ignore", invalid="ignore"):
            max_row_sq = np.einsum("ij,ij->i", basis, basis).max(initial=0.0)
        object.__setattr__(self, "_row", row)
        object.__setattr__(self, "_max_row_norm", math.sqrt(max_row_sq))
        object.__setattr__(self, "_mean_norm", math.sqrt(np.vdot(mean, mean)))
        object.__setattr__(self, "_row_mean", float(np.vdot(row, mean)))

    @property
    def input_dim(self) -> int:
        return int(self.mean.shape[0])

    @property
    def target_dim(self) -> int:
        return int(self.basis.shape[0])

    def to_bytes(self) -> bytes:
        """The model at float32; `InvalidVectorError` for a finite value beyond it."""
        fields = (self.mean, self.basis, self.eigenvalues)
        if any(np.any(np.isfinite(f) & (abs(f) > _F32_MAX)) for f in fields):
            raise InvalidVectorError("raw features too large: their PCA model exceeds float32")
        head = struct.pack("<II", self.input_dim, self.target_dim)
        return head + b"".join(f.astype("<f4").tobytes() for f in fields)

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

    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        centered = X - mean
        # D > n: the n x n Gram matrix (eigenfaces), else the D x D covariance
        S = (centered @ centered.T if dim > n else centered.T @ centered) / (n - 1)
        trace = np.trace(S)
    if not (np.isfinite(S).all() and np.isfinite(trace)):
        raise InvalidVectorError("raw features too large: their covariance overflows float64")
    eigvals, eigvecs = np.linalg.eigh(S)
    order = np.argsort(eigvals)[::-1][:target_dim]
    eig, vecs = eigvals[order], eigvecs[:, order]
    scaled_max = _U * abs(X).max(axis=0)  # the floor f of the module docstring
    null = eig <= 4 * _U * max(n, dim) * trace + 4 * (n + 2) ** 2 * scaled_max.dot(scaled_max)
    eig[null] = 0.0
    if dim > n:
        vecs = centered.T @ vecs
        vecs[:, null] = 0.0
        vecs = np.linalg.qr(vecs)[0]
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


def proven_storable(model: PcaModel, x) -> bool:
    """True only when `project(model, x)` is proven, by the pre-test of the
    module docstring, to return values within float32 whose float32 cast has
    a nonzero entry; False in every other case, including a wrong shape."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != model.mean.shape:
        return False
    dim = x.shape[0]
    # Python floats: numpy scalar arithmetic here costs as much as the dot products
    reach = model._max_row_norm * (math.sqrt(float(np.vdot(x, x)) + dim * _ETA) + model._mean_norm)
    margin = 4 * (dim + 4) * (_U * reach + _ETA)
    return (
        reach + margin < _F32_MAX
        and abs(float(np.vdot(model._row, x)) - model._row_mean) > margin + _F32_TINY
    )
