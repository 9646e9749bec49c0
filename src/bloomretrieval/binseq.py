"""Binary sequencing: compressed vectors -> fixed-width bit signatures.

A dictionary of centroids is sampled (without replacement) from training
vectors; a vector's signature sets bit i whenever its L2 distance to
centroid i is strictly below the dictionary threshold. A vector may match
several centroids, or none (the all-zero signature is legal and hashes
normally downstream).

Bit i is defined as `np.linalg.norm(C - x, axis=1)[i] < t`: the rounded
square root of the rounded sum of the squared rounded differences, compared
with t. `encode_signature` returns exactly those bits at about half the
cost, and `sign_rows` returns them for several vectors at once, each by its
own dictionary, from the squared norm its caller already took (any
summation order of it is within the margin below). Since
|c - x|^2 = |c|^2 - 2 c.x + |x|^2, the bit is set iff

    g = c.x - |c|^2 / 2 - (|x|^2 - t^2) / 2 > 0,

so a pre-test computes every g from one BLAS product C.x and the halves
|c|^2 / 2 the dictionary caches, and takes the sign of g wherever |g| > m.
Each bit in the band |g| <= m gets the defining expression on its own row;
numpy reduces each row of `C - x` on its own, so a row's distance has the
same bits alone as inside the full matrix. The signatures are therefore
independent of how BLAS blocks, threads or fuses the product.

The margin m. Let u = 2^-53, d the width, M = max |c| and X = |x|. A dot
product of length d in any summation order errs by at most
gamma_d sum |a_j b_j| <= d u |a| |b| to first order (Higham, Accuracy and
Stability of Numerical Algorithms, 2002, section 3.1). So c.x, |c|^2 / 2
and |x|^2 / 2 err by at most d u (M X + M^2 / 2 + X^2 / 2) = d u (M + X)^2 / 2
together, t^2 / 2 by u t^2 / 2, and the three subtractions that form g by
u (M + X)^2 + u t^2: the pre-test's g is within
(d + 2) u (M + X)^2 / 2 + 1.5 u t^2 of the exact one. The definition rounds
each difference, square and sum and the square root, so its distance
squared is within (d + 4) u D^2 of D^2 = t^2 - 2g, with D <= M + X; it is
below t whenever g > (d + 4) u (M + X)^2 / 2 and not below t whenever
-g > (d + 4) u (M + X)^2 / 2. A settled bit therefore agrees with the
definition when m >= (d + 3) u (M + X)^2 + 1.5 u t^2. Underflow adds at
most half of eta = 2^-1074 per product and per halving, under (2d + 4) eta
in all. The code uses

    m = (2d + 16) (u (M + X)^2 + eta) + 4 u t^2,

at least twice that sum, which covers the second-order terms and the
rounding of M, X and m themselves. When (M + X)^2 + t^2 is not below 2^1000,
including every case where x or a centroid holds a NaN or Inf, the pre-test
could overflow, so every bit takes the definition. Only |x|^2 itself can
then overflow; numpy warns of that, and the bits still follow the definition.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .binio import Reader
from .errors import DataFormatError, DimensionMismatchError

_U = 2.0**-53
_ETA = 2.0**-1074
# (M + X)^2 + t^2 below this: no term of the pre-test can overflow
_PRETEST_LIMIT = 2.0**1000


@dataclass(frozen=True)
class BinarySignature:
    width: int
    data: bytes  # ceil(width/8) bytes, bit i at byte i//8, bit i%8 (LSB first)

    def __post_init__(self):
        if len(self.data) != (self.width + 7) // 8:
            raise ValueError("signature byte length does not match width")


@dataclass(frozen=True)
class CentroidDictionary:
    """`centroids` is stored as a read-only float64 copy, so the norms cached
    from it for `encode_signature` cannot go stale."""

    centroids: np.ndarray  # (C, d)
    threshold: float
    rng_seed: int
    _half_sq_norms: np.ndarray = field(init=False, repr=False, compare=False)
    _max_norm: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 0 < self.threshold < math.inf:
            raise ValueError("threshold must be positive and finite")
        centroids = np.array(self.centroids, dtype=np.float64)
        centroids.flags.writeable = False
        with np.errstate(over="ignore"):
            sq = np.einsum("ij,ij->i", centroids, centroids)
        object.__setattr__(self, "centroids", centroids)
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "_half_sq_norms", sq / 2)
        object.__setattr__(self, "_max_norm", math.sqrt(sq.max(initial=0.0)))

    @property
    def signature_width(self) -> int:
        return int(self.centroids.shape[0])

    @property
    def dim(self) -> int:
        return int(self.centroids.shape[1])

    def to_bytes(self) -> bytes:
        head = struct.pack(
            "<IIfQ",
            self.signature_width,
            self.dim,
            float(self.threshold),
            self.rng_seed & 0xFFFFFFFFFFFFFFFF,
        )
        return head + self.centroids.astype("<f4").tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CentroidDictionary":
        r = Reader(blob, "centroid dictionary")
        count, dim, threshold, seed = r.unpack("IIfQ")
        if not 0 < threshold < math.inf:
            raise DataFormatError(
                f"centroid dictionary threshold {threshold} is not finite and > 0"
            )
        cents = r.finite(count * dim).reshape(count, dim)
        r.end()
        return cls(centroids=cents, threshold=float(threshold), rng_seed=seed)


def init_dictionary(
    training_vectors,
    count: int,
    threshold: float,
    rng_seed: int = 0,
) -> CentroidDictionary:
    """Sample `count` distinct training vectors as centroids, per rng_seed."""
    X = np.asarray(training_vectors, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError("training vectors must share one dimension")
    if count < 1:
        raise ValueError("centroid count must be positive")
    if X.shape[0] < count:
        raise ValueError(
            f"need at least {count} training vectors, got {X.shape[0]}"
        )
    rng = np.random.default_rng(rng_seed)
    idx = rng.choice(X.shape[0], size=count, replace=False)
    return CentroidDictionary(
        centroids=X[idx], threshold=float(threshold), rng_seed=rng_seed
    )


def encode_signature(dictionary: CentroidDictionary, x) -> BinarySignature:
    """Bit i set iff the L2 distance from x to centroid i is < threshold
    (strict), bit for bit as `np.linalg.norm(C - x, axis=1) < threshold`."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dictionary.dim,):
        raise DimensionMismatchError(
            f"expected dim {dictionary.dim}, got {x.shape}"
        )
    packed = sign_rows((dictionary,), x[None], [float(x.dot(x))])
    return BinarySignature(dictionary.signature_width, packed[0].tobytes())


def sign_rows(dictionaries, X: np.ndarray, xx: list[float]) -> np.ndarray:
    """`encode_signature(dictionaries[i], X[i])`'s bytes as row i of one
    packed uint8 matrix, for dictionaries of one width and dim, given each
    row's squared norm xx[i] in any summation order (the margin covers it):
    one pre-test product a row, then one sign and one pack over every row,
    and the definition for each bit of a row within the row's margin. One
    reduction tests the smallest |g| of every row against the widest
    margin; only when that fails is each row tested against its own."""
    g = np.empty((len(X), len(dictionaries[0].centroids)))
    d = X.shape[1]
    margins = []
    for i, dictionary in enumerate(dictionaries):
        t, s, gx = dictionary.threshold, xx[i], g[i]
        reach = dictionary._max_norm + math.sqrt(s)
        if reach * reach + t * t < _PRETEST_LIMIT:
            dictionary.centroids.dot(X[i], out=gx)
            gx -= dictionary._half_sq_norms
            gx -= (s - t * t) / 2
            margins.append((2 * d + 16) * (_U * reach * reach + _ETA) + 4 * _U * t * t)
        else:  # every bit of the row takes the definition
            gx[:] = 0.0
            margins.append(math.inf)
    bits = g > 0
    if np.minimum.reduce(abs(g), axis=None, initial=math.inf) > max(margins):
        return np.packbits(bits, axis=1, bitorder="little")
    for i, margin in enumerate(margins):
        # one row: the reduction above was its own test
        if len(margins) > 1 and np.minimum.reduce(abs(g[i]), initial=math.inf) > margin:
            continue
        dictionary, near = dictionaries[i], np.abs(g[i]) <= margin
        distance = np.sqrt(np.add.reduce((dictionary.centroids[near] - X[i]) ** 2, axis=1))
        bits[i, near] = distance < dictionary.threshold
    return np.packbits(bits, axis=1, bitorder="little")
