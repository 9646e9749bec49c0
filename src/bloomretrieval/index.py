"""Hierarchical per-layer store and coarse-to-fine retrieval.

Records hold one compressed vector (float32, the precision the record store
persists) and one binary signature per active layer. Freezing the index
builds one contiguous float64 matrix of unit rows per layer. Retrieval
filters candidates layer by layer (coarse L3 first, by default) against
calibrated cosine thresholds: each stage scores, in one kernel call, the
whole L3 matrix or only the rows that survived the stage before. The
survivors are ranked by the final stage's distance.

The staged path is a pruning strategy only: its output is exactly equal to
a full brute-force scan applying the same thresholds, which doubles as its
test oracle and timing baseline. Both paths score through one distance
kernel, `vecmath.unit_cosine_distances`, which gives a row the same bits in
any block; a BLAS product would not, and the two paths would disagree in
the last bit at a threshold.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .binseq import BinarySignature
from .errors import (
    BadMagicError,
    ConfigMismatchError,
    DuplicateIdError,
    InconsistentDimsError,
    InvalidVectorError,
    TruncatedFileError,
)
from .vecmath import (
    cosine_distance,
    l2_normalize,
    unit_cosine_distances,
    unit_rows,
)

_MAGIC = b"MHIX"

COARSE_TO_FINE = "coarse_to_fine"
FINE_TO_COARSE = "fine_to_coarse"

# floor applied to degenerate (identical-image) calibrated thresholds so
# exact duplicates still match
THRESHOLD_FLOOR = 1e-6


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


def calibrate_thresholds(records, layers) -> ThresholdSet:
    """Per-layer mean cosine distance over all unordered same-class pairs."""
    by_label: dict[str, list[FeatureRecord]] = {}
    for rec in records:
        by_label.setdefault(rec.label, []).append(rec)
    groups = [g for g in by_label.values() if len(g) >= 2]
    if not groups:
        raise ValueError("threshold calibration needs a class with >= 2 records")

    thresholds = {}
    for layer in layers:
        total = 0.0
        pairs = 0
        for group in groups:
            for i in range(len(group)):
                for j in range(i + 1, len(group)):
                    total += cosine_distance(
                        group[i].compressed[layer], group[j].compressed[layer]
                    )
                    pairs += 1
        thresholds[layer] = max(float(total / pairs), THRESHOLD_FLOOR)
    return ThresholdSet(thresholds=thresholds)


class HierarchicalIndex:
    """Append-then-freeze store; frozen indices serve concurrent queries."""

    def __init__(self, layers, thresholds: ThresholdSet):
        self.layers = tuple(layers)
        self.thresholds = thresholds
        self.records: list[FeatureRecord] = []
        self._ids: set[str] = set()
        self._rows: dict[str, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, record_id: str) -> bool:
        return record_id in self._ids

    def add(self, record: FeatureRecord) -> None:
        """Append a record; rejects one that would poison a layer matrix."""
        if record.id in self._ids:
            raise DuplicateIdError(f"duplicate record id {record.id!r}")
        if set(record.compressed) != set(self.layers):
            raise ConfigMismatchError(
                f"record layers {sorted(record.compressed)} != index layers "
                f"{sorted(self.layers)}"
            )
        for layer in self.layers:
            vec = np.asarray(record.compressed[layer], dtype=np.float64)
            first = self.records[0].compressed[layer] if self.records else vec
            if vec.ndim != 1 or vec.shape != np.shape(first):
                raise InconsistentDimsError(
                    f"record {record.id!r} layer {layer} shape {vec.shape} != "
                    f"{np.shape(first)}"
                )
            if not 0.0 < float(vec @ vec) < math.inf:
                raise InvalidVectorError(
                    f"record {record.id!r} layer {layer} vector is non-finite "
                    "or has zero norm"
                )
        self.records.append(record)
        self._ids.add(record.id)
        self._rows = None

    def labels(self) -> set[str]:
        return {r.label for r in self.records}

    def freeze(self) -> None:
        """Build each layer's unit-row matrix, once until the next add;
        queries afterwards are read-only."""
        if self._rows is None and self.records:
            self._rows = {
                layer: unit_rows([r.compressed[layer] for r in self.records])
                for layer in self.layers
            }

    def stage_layers(self, stage_order: str = COARSE_TO_FINE) -> tuple[str, ...]:
        ordered = [l for l in ("L3", "L2", "L1") if l in self.layers]
        if stage_order == FINE_TO_COARSE:
            ordered.reverse()
        elif stage_order != COARSE_TO_FINE:
            raise ValueError(f"unknown stage order {stage_order!r}")
        return tuple(ordered)


def _prepare(index: HierarchicalIndex, q: dict, stage_order: str):
    """Check a query against the index: (stages, unit matrices, unit query
    vector per stage)."""
    if set(q) != set(index.layers):
        raise ConfigMismatchError(
            f"query layers {sorted(q)} != index layers {sorted(index.layers)}"
        )
    # freeze() checks this too; calling it only to build keeps each of its
    # spans in the benchmark's trace a real build, not a per-query no-op
    if index._rows is None:
        index.freeze()
    stages = index.stage_layers(stage_order)
    return stages, index._rows, {layer: l2_normalize(q[layer]) for layer in stages}


def _ranked(index: HierarchicalIndex, hits: np.ndarray, dists: np.ndarray, top_k: int):
    """(id, distance) of the hit rows, nearest first, ties by id; at most top_k."""
    if 0 < top_k < len(dists):
        # only hits as near as the top_k-th nearest can rank, ties included
        near = dists <= np.partition(dists, top_k - 1)[top_k - 1]
        hits, dists = hits[near], dists[near]
    ranked = sorted(zip(dists.tolist(), (index.records[i].id for i in hits.tolist())))
    return [(rid, d) for d, rid in ranked[:top_k]]


def query_hierarchical(
    index: HierarchicalIndex,
    q: dict[str, np.ndarray],
    top_k: int,
    stage_order: str = COARSE_TO_FINE,
) -> list[tuple[str, float]]:
    """Staged filter-then-rank retrieval; at most top_k (id, distance) pairs."""
    stages, rows, qn = _prepare(index, q, stage_order)
    if not index.records:
        return []
    kept = None  # row numbers of the survivors; None while every row survives
    for layer in stages:
        block = rows[layer] if kept is None else rows[layer][kept]
        d = unit_cosine_distances(block, qn[layer])
        passed = np.flatnonzero(d <= index.thresholds.effective(layer))
        kept = passed if kept is None else kept[passed]
        d = d[passed]
    return _ranked(index, kept, d, top_k)


def brute_force_scan(
    index: HierarchicalIndex,
    q: dict[str, np.ndarray],
    top_k: int,
    stage_order: str = COARSE_TO_FINE,
) -> list[tuple[str, float]]:
    """Unpruned oracle: every record scored on every layer, same thresholds."""
    stages, rows, qn = _prepare(index, q, stage_order)
    if not index.records:
        return []
    dists = [unit_cosine_distances(rows[layer], qn[layer]) for layer in stages]
    passed = np.logical_and.reduce(
        [d <= index.thresholds.effective(layer) for d, layer in zip(dists, stages)]
    )
    hits = np.flatnonzero(passed)
    return _ranked(index, hits, dists[-1][hits], top_k)


def save_records(path, index: HierarchicalIndex) -> None:
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(index.records)))
        for rec in index.records:
            rid = rec.id.encode("utf-8")
            lab = rec.label.encode("utf-8")
            fh.write(struct.pack("<H", len(rid)) + rid)
            fh.write(struct.pack("<H", len(lab)) + lab)
            for layer in index.layers:
                vec = np.asarray(rec.compressed[layer], dtype="<f4")
                sig = rec.signatures[layer]
                fh.write(struct.pack("<I", vec.shape[0]))
                fh.write(vec.tobytes())
                fh.write(struct.pack("<H", len(sig.data)))
                fh.write(sig.data)


def load_records(
    path,
    layers,
    sig_widths: dict[str, int],
    thresholds: ThresholdSet,
) -> HierarchicalIndex:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MAGIC:
        raise BadMagicError(f"bad records magic {blob[:4]!r}")
    off = 4

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise TruncatedFileError("records file truncated")
        chunk = blob[off:off + n]
        off += n
        return chunk

    (count,) = struct.unpack("<Q", take(8))
    idx = HierarchicalIndex(layers, thresholds)
    for _ in range(count):
        (idlen,) = struct.unpack("<H", take(2))
        rid = take(idlen).decode("utf-8")
        (lablen,) = struct.unpack("<H", take(2))
        lab = take(lablen).decode("utf-8")
        compressed = {}
        signatures = {}
        for layer in layers:
            (dim,) = struct.unpack("<I", take(4))
            vec = np.frombuffer(take(4 * dim), "<f4").astype(np.float32)
            (nbytes,) = struct.unpack("<H", take(2))
            data = take(nbytes)
            width = sig_widths[layer]
            if nbytes != (width + 7) // 8:
                raise ConfigMismatchError(
                    f"signature byte width {nbytes} does not fit {width} bits"
                )
            compressed[layer] = vec
            signatures[layer] = BinarySignature(width=width, data=data)
        idx.add(FeatureRecord(rid, lab, compressed, signatures))
    return idx
