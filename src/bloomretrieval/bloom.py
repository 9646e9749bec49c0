"""Layer-seeded bloom filter over per-layer binary signatures.

One bit array serves all layers: each inserted image sets one bit per
active layer, at the Murmur3 position of that layer's signature. k (the
hash-function count of the classic analysis) therefore equals the number
of active layers, so false-positive probability and optimal sizing follow
the standard formulas:

    P = (1 - (1 - 1/m)^(n*k))^k
    m_opt = ceil(k * n * ln 2)

Eq. 1 (P) describes bit collisions of independent keys. A query's layers
are not independent keys of the stored records: each layer's bit comes
from that layer's signature alone, so a query whose per-layer signatures
each occur in some stored record passes with certainty, even if no record
holds them together. A near-miss from an indexed superclass is such a
query: in a probe on the benchmark corpora of seeds 42 and 7 (one class of
each indexed superclass held out), 191 and 200 of 200 near-misses passed,
and none of them had its signature tuple stored.

A query probes its layers coarse to fine, L3 → L2 → L1, whatever order the
filter was built with, and stops at the first clear bit. Membership is the
AND of the k bits, so the order changes no verdict and leaves Eq. 1 as it
is. What it changes is the work: a query that misses at L3 hashes one
signature. The pipeline's gate walks `probe_order` itself: it projects and
signs a layer only when it reaches it and tests that layer's bit from the
signature bytes (`_contains`, what `contains` runs), so a query that misses
at L3 is projected and signed once too.

`insert` hashes each distinct signature once per filter object. It keeps a
memo from (layer, signature bytes) to bit position, one entry for each
distinct pair this object has inserted, and calls Murmur3 only for a pair
it has not seen; every insert still sets its bits. The pipeline's add sets
them through the same memo straight from its packed signature bytes
(`_insert`, what `insert` runs). The memo is bounded by
the number of distinct pairs inserted, at most k per inserted record: 75
for the 30,000 keys of the seed-42 benchmark index. It is a cache, not
state: `to_bytes` does not write it, `from_bytes` starts it empty, and
equality ignores it. `query` always hashes.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Mapping
from dataclasses import dataclass, field

from .binseq import BinarySignature
from .binio import Reader
from .errors import ConfigMismatchError, DataFormatError
from .murmur3 import murmur3_x64_128

LAYERS = ("L1", "L2", "L3")
LAYER_SEEDS = {"L1": 1, "L2": 2, "L3": 3}


def coarse_to_fine(layers) -> tuple[str, ...]:
    """`layers` in the order the paper's hierarchy searches them, L3 first:
    the filter's probe order, the index's stages and the key its frozen rows
    are sorted by. `ValueError` for an unknown or repeated layer, or for
    other than 1 to 3 layers."""
    layers = tuple(layers)
    bad = [l for l in layers if l not in LAYER_SEEDS]
    if bad:
        raise ValueError(f"unknown layers: {bad}")
    if not 1 <= len(layers) <= len(LAYERS):
        raise ValueError(f"need 1 to 3 layers, got {len(layers)}")
    if len(set(layers)) != len(layers):
        raise ValueError(f"repeated layer in {layers}")
    return tuple(l for l in reversed(LAYERS) if l in layers)

_MAGIC = b"MBF1"
# The largest filter allocated: 2^34 bits, 2 GiB of memory. Eq. 2 sizes a
# three-layer filter for over 8 billion records below it, and it is far
# under the u64 that filter.bin stores m in.
MAX_BITS = 2**34


@dataclass(frozen=True)
class BloomParams:
    n: int
    k: int
    m: int

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.n < 0:
            raise ValueError("n must be >= 0")
        if not 1 <= self.k <= 3:
            raise ValueError("k must be in 1..3")


def fp_probability(params: BloomParams) -> float:
    """Expected false-positive probability: (1 - (1 - 1/m)^(nk))^k."""
    if params.n == 0:
        return 0.0
    return (1.0 - (1.0 - 1.0 / params.m) ** (params.n * params.k)) ** params.k


def optimal_bits(n: int, k: int) -> int:
    """Smallest integer filter size at the optimum m = k*n*ln(2)."""
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    return math.ceil(k * n * math.log(2))


@dataclass
class LayeredBloomFilter:
    m: int
    layers: tuple[str, ...]
    bits: bytearray = field(default=None)  # type: ignore[assignment]
    inserted_count: int = 0
    # `coarse_to_fine(layers)`: the order `query` reads the layers in
    probe_order: tuple[str, ...] = field(init=False, repr=False, compare=False)
    # the layer set `_check_layers` compares key views with
    _layer_set: frozenset = field(init=False, repr=False, compare=False)
    # (layer, signature bytes) -> bit position of every pair `insert` has
    # hashed; see the module docstring
    _positions: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not 1 <= self.m <= MAX_BITS:
            raise ValueError(f"filter size must be 1..2^34 bits (2 GiB), got {self.m}")
        self.probe_order = coarse_to_fine(self.layers)
        self._layer_set = frozenset(self.layers)
        self._positions = {}
        if self.bits is None:
            self.bits = bytearray((self.m + 7) // 8)

    @property
    def k(self) -> int:
        return len(self.layers)

    def position_for(self, layer: str, sig: BinarySignature) -> int:
        """Murmur3 x64_128(signature bytes, layer seed), low word mod m."""
        return self._position(layer, sig.data)

    def _position(self, layer: str, data: bytes) -> int:
        try:
            seed = LAYER_SEEDS[layer]
        except KeyError:
            raise ValueError(f"unknown layer {layer!r}") from None
        low, _ = murmur3_x64_128(data, seed)
        return low % self.m

    def _check_layers(self, sigs: Mapping) -> None:
        if sigs.keys() != self._layer_set:
            raise ConfigMismatchError(
                f"expected layers {sorted(self.layers)}, got {sorted(sigs)}"
            )

    def insert(self, sigs: Mapping[str, BinarySignature]) -> None:
        """Set one bit per active layer; exactly the active layers required.
        A (layer, signature) pair this filter has inserted before is not
        hashed again."""
        self._check_layers(sigs)
        self._insert(self.layers, [sigs[layer].data for layer in self.layers])

    def _insert(self, layers: tuple[str, ...], signatures) -> None:
        """`insert` of the signature bytes `signatures[i]` at `layers[i]`,
        which must be this filter's layers in its order."""
        if layers != self.layers:
            raise ConfigMismatchError(f"expected layers {self.layers}, got {layers}")
        positions = self._positions
        for layer, data in zip(layers, signatures):
            key = layer, data
            pos = positions.get(key)
            if pos is None:
                pos = positions[key] = self._position(layer, data)
            self.bits[pos >> 3] |= 1 << (pos & 7)
        self.inserted_count += 1

    def contains(self, layer: str, sig: BinarySignature) -> bool:
        """Whether the bit at `position_for(layer, sig)` is set; False means
        no record inserted has `sig` at `layer`."""
        return self._contains(layer, sig.data)

    def _contains(self, layer: str, data: bytes) -> bool:
        pos = self._position(layer, data)
        return bool((self.bits[pos >> 3] >> (pos & 7)) & 1)

    def query(self, sigs: Mapping[str, BinarySignature]) -> bool:
        """True = maybe-present; False = definitely absent. Probes L3 → L1
        by `contains` and returns at the first clear bit, reading no
        signature past it."""
        self._check_layers(sigs)
        return all(self.contains(layer, sigs[layer]) for layer in self.probe_order)

    def set_bit_count(self) -> int:
        return sum(b.bit_count() for b in self.bits)

    def to_bytes(self) -> bytes:
        head = struct.pack("<4sQB", _MAGIC, self.m, self.k)
        seeds = b"".join(
            struct.pack("<I", LAYER_SEEDS[l]) for l in self.layers
        )
        return head + seeds + struct.pack("<Q", self.inserted_count) + bytes(self.bits)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "LayeredBloomFilter":
        r = Reader(blob, "bloom filter file", _MAGIC)
        m, k = r.unpack("QB")
        if not 1 <= m <= MAX_BITS or not 1 <= k <= len(LAYERS):
            raise DataFormatError(
                f"bloom filter m={m}, k={k}: need m in 1..2^34 (2 GiB), k in 1..3"
            )
        seed_to_layer = {v: l for l, v in LAYER_SEEDS.items()}
        layers = []
        for _ in range(k):
            (seed,) = r.unpack("I")
            if seed not in seed_to_layer:
                raise ConfigMismatchError(f"unknown layer seed {seed}")
            if seed_to_layer[seed] in layers:
                raise ConfigMismatchError(f"repeated layer seed {seed}")
            layers.append(seed_to_layer[seed])
        (count,) = r.unpack("Q")
        bits = bytearray(r.take((m + 7) // 8))
        r.end()
        return cls(m=m, layers=tuple(layers), bits=bits, inserted_count=count)
