"""Hierarchical per-layer store and coarse-to-fine retrieval.

Records hold one compressed vector (float32, the precision the record store
persists) and one binary signature per active layer. Freezing the index
builds one contiguous float64 matrix of unit rows per layer. Retrieval
filters candidates layer by layer, coarse to fine as the paper orders the
hierarchy (L3 first, L1 last), against calibrated cosine thresholds: the
first stage scores the rows of the buckets it cannot skip (below), each
later stage only the rows that survived the stage before. The survivors are
ranked by the finest (L1) distance.

The staged path is a pruning strategy only: its output is exactly equal to
a full brute-force scan applying the same thresholds, which doubles as its
test oracle and timing baseline. Both paths score through one distance
kernel, `unit_cosine_distances`, often over different blocks of the same
rows. Its einsum takes each row's dot product on its own, so a row gets the
same bits in any block; a BLAS product would not (its blocking changes the
summation order), and the two paths would disagree in the last bit at a
threshold. `unit_rows` takes its norms from the same per-row einsum, so a
vector normalised alone or inside a matrix gets the same bits. Both compute
in float64 although the record store holds float32: the extra precision
keeps the distance accumulation stable, and the bound below is for it.

Buckets. `freeze()` groups the rows by their signature on the first stage's
layer (the paper's neural hash of L3) and lays out every layer's matrix in
bucket order: buckets in order of first insertion, rows within a bucket in
insertion order, so each bucket is a contiguous slice. A bucket holds a
centre c, the mean of its unit rows on that layer, and a radius
r >= max |u - c|. For unit rows the kernel's distance 1 - u.q equals
|u - q|^2 / 2, and |u - q| >= |q - c| - r for every row u of the bucket.
So a bucket with

    |q - c| - r > sqrt(2 (t + eps))

holds no row within the stage's effective threshold t, and the query skips
it. t is read at query time, so a threshold scale changed after `freeze()`
is obeyed. With more than sqrt(n) distinct signatures the per-bucket bounds
would cost about as much as the scan they save, so the rows form one bucket
in insertion order; that is the same code path. When no bucket is skipped
the stage scores the whole matrix as one view. `records` and the record
store keep insertion order; only the matrices and the row-to-id list are in
bucket order, and ranking ties break by id, so the order changes no answer.

eps bounds the rounding of the kernel and of c and r. Let u = 2^-53 and d
the rows' width. `unit_rows` leaves |u.u - 1| <= (d + 5)u, so the exact
1 - u.q is at least |u - q|^2 / 2 - (d + 5)u, and the kernel's dot product
and subtraction lose at most (2d + 3)u more. The skip test's own terms
(|q - c|, r and the square root, each at most about 2) carry at most
(d + 17)u of error, which costs at most 2(d + 17)u in |u - q|^2 / 2. The
sum, (5d + 42)u, is below eps = 8(d + 8)u, about 1.2e-13 at d = 128. The
radius is taken as sqrt(1 + c.c - 2 min u.c + eps); its expansion errs by
at most (4d + 20)u, so the added eps makes r an upper bound. For t >= 2 the
bound exceeds 2 by more than |q - c| - r can, so no bucket is skipped where
the kernel's clip at 2 would pass every row.

Each layer's threshold is calibrated as the mean cosine distance over all
same-class pairs of training vectors. It is computed in closed form from
each class's sum of unit rows (`unit_rows`, the normalisation the index
uses), so no pair is visited. The record store gives ids and labels
u16 length prefixes; a longer one raises `DataFormatError` before the file
is opened.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .binio import Reader, pack_id_label
from .binseq import BinarySignature
from .errors import (
    ConfigMismatchError,
    DimensionMismatchError,
    DuplicateIdError,
    InconsistentDimsError,
    InvalidVectorError,
)

_MAGIC = b"MHIX"

# floor applied to degenerate (identical-image) calibrated thresholds so
# exact duplicates still match
THRESHOLD_FLOOR = 1e-6


def unit_rows(rows) -> np.ndarray:
    """Each row of a 2-D array (or a sequence of equal-length vectors) scaled
    to unit L2 norm, as a new contiguous float64 matrix. A row with no
    direction (a NaN or Inf, a norm that overflows, or a zero norm) raises
    `InvalidVectorError` naming the first such row.
    """
    m = np.array(rows, dtype=np.float64, order="C")
    if m.ndim != 2:
        raise ValueError(f"expected a 2-D array of rows, got shape {m.shape}")
    norms = np.sqrt(np.einsum("ij,ij->i", m, m))
    usable = (norms > 0.0) & (norms < np.inf)  # False for NaN
    if not usable.all():
        bad = int(np.argmin(usable))
        raise InvalidVectorError(f"row {bad} is non-finite or zero, or its norm overflows")
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
    """Cosine distance from a unit query to each unit row, clamped to [0, 2]:
    the one kernel of both retrieval paths. The clamp absorbs the rounding
    that would otherwise push a self-match a few ulps below zero.
    """
    d = 1.0 - np.einsum("ij,j->i", rows, qn)
    np.clip(d, 0.0, 2.0, out=d)
    return d


@dataclass(frozen=True)
class FeatureRecord:
    id: str
    label: str
    compressed: dict[str, np.ndarray]
    signatures: dict[str, BinarySignature]


@dataclass
class ThresholdSet:
    thresholds: dict[str, float]
    scales: dict[str, float] = field(default_factory=dict)

    def effective(self, layer: str) -> float:
        return self.thresholds[layer] * self.scales.get(layer, 1.0)


def calibrate_thresholds(labels, vectors) -> ThresholdSet:
    """Per-layer mean cosine distance over all unordered same-class pairs.

    `vectors` maps each layer to a matrix with one row per label. A class of
    c unit rows u (`unit_rows`, the index's normalisation) with sum s has
    pairwise distances summing to c(c-1)/2 - (s.s - sum |u|^2)/2, so no pair
    is visited; a row with no direction raises `InvalidVectorError`.
    """
    _, members, counts = np.unique(
        list(labels), return_inverse=True, return_counts=True
    )
    pairs = float(np.sum(counts * (counts - 1) // 2))
    if not pairs:
        raise ValueError("threshold calibration needs a class with >= 2 records")

    thresholds = {}
    for layer, rows in vectors.items():
        if len(rows) != len(members):
            raise ValueError(f"layer {layer}: {len(rows)} rows, {len(members)} labels")
        u = unit_rows(rows)
        sums = np.zeros((len(counts), u.shape[1]))
        np.add.at(sums, members, u)
        cross = np.einsum("ij,ij->", sums, sums) - np.einsum("ij,ij->", u, u)
        thresholds[layer] = max(float((pairs - cross / 2.0) / pairs), THRESHOLD_FLOOR)
    return ThresholdSet(thresholds=thresholds)


@dataclass(frozen=True)
class Buckets:
    """The first stage's buckets: row `bounds[b]` up to `bounds[b + 1]` of
    each layer matrix, their `centres` and `radii`, and the skip test's
    rounding bound `eps` (see the module docstring)."""

    bounds: np.ndarray
    centres: np.ndarray
    radii: np.ndarray
    eps: float

    @classmethod
    def build(cls, rows: np.ndarray, counts: np.ndarray) -> "Buckets":
        """Buckets of unit `rows` laid out in runs of `counts` rows; each
        radius comes from one dot product per row, with no n x d temporary."""
        bounds = np.concatenate(([0], np.cumsum(counts)))
        blocks = [rows[start:stop] for start, stop in zip(bounds[:-1], bounds[1:])]
        centres = np.array([block.mean(axis=0) for block in blocks])
        nearest = np.array([np.einsum("ij,j->i", b, c).min() for b, c in zip(blocks, centres)])
        eps = 8 * (rows.shape[1] + 8) * 2.0**-53
        reach = 1.0 + np.einsum("ij,ij->i", centres, centres) - 2.0 * nearest
        return cls(bounds, centres, np.sqrt(np.maximum(reach, 0.0) + eps), eps)

    def spans(self, qn: np.ndarray, t: float):
        """(starts, stops) of the row ranges a unit query must score at
        threshold t: the runs of buckets the bound cannot skip."""
        diff = self.centres - qn
        gap = np.sqrt(np.einsum("ij,ij->i", diff, diff)) - self.radii
        # a t below -eps keeps no row; the kernel's distances are >= 0
        live = gap <= math.sqrt(max(2.0 * (t + self.eps), 0.0))
        edges = self.bounds[np.flatnonzero(np.diff(live, prepend=False, append=False))]
        return edges[0::2], edges[1::2]


class HierarchicalIndex:
    """Append-then-freeze store; frozen indices serve concurrent queries."""

    def __init__(self, layers, thresholds: ThresholdSet):
        self.layers = tuple(layers)
        self.thresholds = thresholds
        self.records: list[FeatureRecord] = []
        self._ids: set[str] = set()
        self._rows: dict[str, np.ndarray] | None = None
        self._row_ids: list[str] = []
        self._buckets: Buckets | None = None

    def __len__(self) -> int:
        return len(self.records)

    def add(self, record: FeatureRecord) -> None:
        """Append a record as the record store holds it, its vectors cast to
        float32; rejects one that would poison a layer matrix or the store."""
        if record.id in self._ids:
            raise DuplicateIdError(f"duplicate record id {record.id!r}")
        layers = set(self.layers)
        if set(record.compressed) != layers or set(record.signatures) != layers:
            raise ConfigMismatchError(
                f"record vector layers {sorted(record.compressed)} and signature "
                f"layers {sorted(record.signatures)} != index layers {sorted(self.layers)}"
            )
        first = self.records[0] if self.records else record
        vectors = {}
        for layer in self.layers:
            vec = np.asarray(record.compressed[layer], dtype=np.float32)
            if vec.ndim != 1 or vec.shape != np.shape(first.compressed[layer]):
                raise InconsistentDimsError(
                    f"record {record.id!r} layer {layer} shape {vec.shape} != "
                    f"{np.shape(first.compressed[layer])}"
                )
            nbytes = len(record.signatures[layer].data)
            if nbytes != len(first.signatures[layer].data):
                raise InconsistentDimsError(
                    f"record {record.id!r} layer {layer} signature is {nbytes} bytes, "
                    f"not {len(first.signatures[layer].data)}"
                )
            wide = vec.astype(np.float64)
            if not 0.0 < float(wide @ wide) < math.inf:
                raise InvalidVectorError(
                    f"record {record.id!r} layer {layer} vector is non-finite "
                    "or has zero norm"
                )
            vectors[layer] = vec
        self.records.append(FeatureRecord(record.id, record.label, vectors, record.signatures))
        self._ids.add(record.id)
        self._rows = None

    def freeze(self) -> None:
        """Build each layer's unit-row matrix in bucket order, the row-to-id
        list and the first stage's buckets, once until the next add; queries
        afterwards are read-only."""
        if self._rows is not None or not self.records:
            return
        first = self.stage_layers()[0]
        bucket_of: dict[bytes, int] = {}
        bucket = np.array(
            [bucket_of.setdefault(r.signatures[first].data, len(bucket_of)) for r in self.records]
        )
        if len(bucket_of) ** 2 > len(self.records):
            bucket[:] = 0
        order = np.argsort(bucket, kind="stable").tolist()
        rows = {}
        for layer in self.layers:
            # gathered in record order, then permuted as a list: faster than
            # visiting the records out of order, and no matrix is built twice
            vectors = [r.compressed[layer] for r in self.records]
            rows[layer] = unit_rows([vectors[i] for i in order])
        self._row_ids = [self.records[i].id for i in order]
        self._buckets = Buckets.build(rows[first], np.bincount(bucket))
        self._rows = rows  # last: a query that sees it sees the ids and buckets

    def stage_layers(self) -> tuple[str, ...]:
        """The active layers in retrieval order: coarse to fine."""
        return tuple(l for l in ("L3", "L2", "L1") if l in self.layers)


def check_top_k(top_k) -> None:
    """Raise `ValueError` unless top_k is an int >= 1; a bool is not one."""
    if not isinstance(top_k, int) or isinstance(top_k, bool) or top_k < 1:
        raise ValueError(f"top_k must be an int >= 1, got {top_k!r}")


def _prepare(index: HierarchicalIndex, q: dict, top_k):
    """Check a query and top_k against the index: (stages, unit matrices,
    unit query vector per stage)."""
    check_top_k(top_k)
    if set(q) != set(index.layers):
        raise ConfigMismatchError(
            f"query layers {sorted(q)} != index layers {sorted(index.layers)}"
        )
    # freeze() checks this too; calling it only to build keeps each of its
    # spans in the benchmark's trace a real build, not a per-query no-op
    if index._rows is None:
        index.freeze()
    stages = index.stage_layers()
    qn = {layer: l2_normalize(q[layer]) for layer in stages}
    if index._rows is not None:  # None: no record to be as wide as
        for layer, vec in qn.items():
            if len(vec) != index._rows[layer].shape[1]:
                raise DimensionMismatchError(
                    f"query layer {layer} vector is {len(vec)} wide, "
                    f"the index's is {index._rows[layer].shape[1]}"
                )
    return stages, index._rows, qn


def _ranked(index: HierarchicalIndex, hits: np.ndarray, dists: np.ndarray, top_k: int):
    """(id, distance) of the hit rows, nearest first, ties by id; at most top_k."""
    if top_k < len(dists):
        # only hits as near as the top_k-th nearest can rank, ties included
        near = dists <= np.partition(dists, top_k - 1)[top_k - 1]
        hits, dists = hits[near], dists[near]
    ranked = sorted(zip(dists.tolist(), (index._row_ids[i] for i in hits.tolist())))
    return [(rid, d) for d, rid in ranked[:top_k]]


def query_hierarchical(
    index: HierarchicalIndex,
    q: dict[str, np.ndarray],
    top_k: int,
) -> list[tuple[str, float]]:
    """Staged filter-then-rank retrieval; at most top_k (id, distance) pairs."""
    stages, rows, qn = _prepare(index, q, top_k)
    if not index.records:
        return []
    first = stages[0]
    t = index.thresholds.effective(first)
    kept, dists = [], []
    for start, stop in zip(*index._buckets.spans(qn[first], t)):
        d = unit_cosine_distances(rows[first][start:stop], qn[first])
        passed = np.flatnonzero(d <= t)
        kept.append(passed + start)
        dists.append(d[passed])
    if not kept:
        return []
    kept, d = np.concatenate(kept), np.concatenate(dists)
    for layer in stages[1:]:
        d = unit_cosine_distances(rows[layer][kept], qn[layer])
        passed = np.flatnonzero(d <= index.thresholds.effective(layer))
        kept = kept[passed]
        d = d[passed]
    return _ranked(index, kept, d, top_k)


def brute_force_scan(
    index: HierarchicalIndex,
    q: dict[str, np.ndarray],
    top_k: int,
) -> list[tuple[str, float]]:
    """Unpruned oracle: every record scored on every layer, same thresholds."""
    stages, rows, qn = _prepare(index, q, top_k)
    if not index.records:
        return []
    dists = [unit_cosine_distances(rows[layer], qn[layer]) for layer in stages]
    passed = np.logical_and.reduce(
        [d <= index.thresholds.effective(layer) for d, layer in zip(dists, stages)]
    )
    hits = np.flatnonzero(passed)
    return _ranked(index, hits, dists[-1][hits], top_k)


def save_records(path, index: HierarchicalIndex) -> None:
    """Write the record store; an over-long id or label raises before the
    file is opened."""
    heads = [pack_id_label(rec) for rec in index.records]
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(index.records)))
        for rec, head in zip(index.records, heads):
            fh.write(head)
            for layer in index.layers:
                vec = np.asarray(rec.compressed[layer], dtype="<f4")
                sig = rec.signatures[layer]
                fh.write(struct.pack("<I", vec.shape[0]))
                fh.write(vec.tobytes())
                fh.write(struct.pack("<H", len(sig.data)))
                fh.write(sig.data)


def load_records(
    path,
    idx: HierarchicalIndex,
    dim: int,
    sig_width: int,
) -> HierarchicalIndex:
    """Read the record store into `idx` and return it. Every vector must be
    `dim` wide and every signature `sig_width` bits, else `ConfigMismatchError`;
    each record then passes through `idx.add`, which rejects a poisoned vector."""
    r = Reader(Path(path).read_bytes(), "records file", _MAGIC)
    (count,) = r.unpack("Q")
    sig_bytes = (sig_width + 7) // 8
    for _ in range(count):
        rid = r.text()
        lab = r.text()
        compressed = {}
        signatures = {}
        for layer in idx.layers:
            (width,) = r.unpack("I")
            if width != dim:
                raise ConfigMismatchError(
                    f"record {rid!r} layer {layer} vector is {width} wide, not {dim}"
                )
            compressed[layer] = r.floats(dim, np.float32)
            (nbytes,) = r.unpack("H")
            if nbytes != sig_bytes:
                raise ConfigMismatchError(
                    f"signature byte width {nbytes} does not fit {sig_width} bits"
                )
            signatures[layer] = BinarySignature(width=sig_width, data=r.take(nbytes))
        idx.add(FeatureRecord(rid, lab, compressed, signatures))
    r.end()
    return idx
