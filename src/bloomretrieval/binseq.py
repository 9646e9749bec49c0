"""Binary sequencing: compressed vectors -> fixed-width bit signatures.

A dictionary of centroids is sampled (without replacement) from training
vectors; a vector's signature sets bit i whenever its L2 distance to
centroid i is strictly below the dictionary threshold. A vector may match
several centroids, or none (the all-zero signature is legal and hashes
normally downstream).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .binio import Reader
from .errors import DataFormatError, DimensionMismatchError

@dataclass(frozen=True)
class BinarySignature:
    width: int
    data: bytes  # ceil(width/8) bytes, bit i at byte i//8, bit i%8 (LSB first)

    def __post_init__(self):
        if len(self.data) != (self.width + 7) // 8:
            raise ValueError("signature byte length does not match width")

    @classmethod
    def from_bits(cls, bits) -> "BinarySignature":
        mask = np.asarray(bits, dtype=np.uint8)
        data = np.packbits(mask, bitorder="little").tobytes()
        return cls(width=len(mask), data=data)


@dataclass(frozen=True)
class CentroidDictionary:
    centroids: np.ndarray  # (C, d)
    threshold: float
    rng_seed: int

    def __post_init__(self):
        if self.threshold <= 0:
            raise ValueError("threshold must be positive")

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
        if not threshold > 0:
            raise DataFormatError(f"centroid dictionary threshold {threshold} is not > 0")
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
        centroids=X[idx].copy(), threshold=float(threshold), rng_seed=rng_seed
    )


def encode_signature(dictionary: CentroidDictionary, x) -> BinarySignature:
    """Bit i set iff the L2 distance from x to centroid i is < threshold (strict)."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dictionary.dim,):
        raise DimensionMismatchError(
            f"expected dim {dictionary.dim}, got {x.shape}"
        )
    dists = np.linalg.norm(dictionary.centroids - x, axis=1)
    return BinarySignature.from_bits(dists < dictionary.threshold)
