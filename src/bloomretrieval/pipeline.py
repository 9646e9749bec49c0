"""End-to-end orchestration: ingestion, training, indexing, gated querying,
evaluation, and synthetic data generation.

Training fits one PCA model and one centroid dictionary per active layer,
calibrates per-layer cosine thresholds from class labels, and sizes the
bloom filter from the training-set size. Queries are compressed, binary
sequenced, and checked against the filter before any index work happens.
"""

from __future__ import annotations

import json
import math
import struct
import time
from dataclasses import dataclass, field

import numpy as np

from . import binseq, pca
from .binseq import BinarySignature, CentroidDictionary
from .bloom import LAYERS, LayeredBloomFilter, optimal_bits
from .errors import (
    BadMagicError,
    ConfigMismatchError,
    DataFormatError,
    DuplicateIdError,
    InconsistentDimsError,
    TruncatedFileError,
)
from .index import (
    COARSE_TO_FINE,
    FeatureRecord,
    HierarchicalIndex,
    ThresholdSet,
    calibrate_thresholds,
    load_records,
    query_hierarchical,
    save_records,
)

_MLHC_MAGIC = b"MLHC"
_MLHC_VERSION = 1


@dataclass(frozen=True)
class PipelineConfig:
    active_layers: tuple[str, ...] = ("L1", "L2", "L3")
    pca_dim: int = 128
    centroid_count: int = 64
    binseq_threshold: float = 10.0
    filter_multiplier: float | None = 2.0
    filter_optimal: bool = False
    rng_seed: int = 0
    top_k: int = 10
    threshold_scales: dict = field(default_factory=dict)
    stage_order: str = COARSE_TO_FINE

    def __post_init__(self):
        layers = tuple(self.active_layers)
        object.__setattr__(self, "active_layers", layers)
        if not layers or layers != LAYERS[: len(layers)]:
            raise ValueError(
                "active_layers must be a non-empty prefix of (L1, L2, L3)"
            )
        if self.filter_optimal == (self.filter_multiplier is not None):
            raise ValueError(
                "configure exactly one of filter_multiplier / filter_optimal"
            )
        if self.pca_dim < 1 or self.centroid_count < 1 or self.top_k < 1:
            raise ValueError("pca_dim, centroid_count and top_k must be positive")
        if self.binseq_threshold <= 0:
            raise ValueError("binseq_threshold must be positive")

    def to_dict(self) -> dict:
        return {
            "active_layers": list(self.active_layers),
            "pca_dim": self.pca_dim,
            "centroid_count": self.centroid_count,
            "binseq_threshold": self.binseq_threshold,
            "filter_multiplier": self.filter_multiplier,
            "filter_optimal": self.filter_optimal,
            "rng_seed": self.rng_seed,
            "top_k": self.top_k,
            "threshold_scales": dict(self.threshold_scales),
            "stage_order": self.stage_order,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        known = {f: d[f] for f in cls.__dataclass_fields__ if f in d}
        cfg = cls(**known)
        return cfg


@dataclass(frozen=True)
class RawRecord:
    id: str
    label: str
    features: dict[str, np.ndarray]


# ---------------------------------------------------------------------------
# MLHC feature files


def write_features(path, records: list[RawRecord]) -> None:
    if not records:
        layers: tuple[str, ...] = ()
        dims: list[int] = []
    else:
        layers = LAYERS[: len(records[0].features)]
        dims = [records[0].features[l].shape[0] for l in layers]
    with open(path, "wb") as fh:
        fh.write(_MLHC_MAGIC)
        fh.write(struct.pack("<HQB", _MLHC_VERSION, len(records), len(layers)))
        for d in dims:
            fh.write(struct.pack("<I", d))
        for rec in records:
            if set(rec.features) != set(layers):
                raise InconsistentDimsError(
                    f"record {rec.id!r} layer set differs from header"
                )
            rid = rec.id.encode("utf-8")
            lab = rec.label.encode("utf-8")
            fh.write(struct.pack("<H", len(rid)) + rid)
            fh.write(struct.pack("<H", len(lab)) + lab)
            for layer, d in zip(layers, dims):
                vec = np.asarray(rec.features[layer], dtype="<f4")
                if vec.shape != (d,):
                    raise InconsistentDimsError(
                        f"record {rec.id!r} layer {layer} dim {vec.shape} != {d}"
                    )
                fh.write(vec.tobytes())


def read_features(path) -> list[RawRecord]:
    """Parse an MLHC feature file into raw records (float64 in memory)."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != _MLHC_MAGIC:
        raise BadMagicError(f"bad feature file magic {blob[:4]!r}")
    off = 4

    def take(n: int) -> bytes:
        nonlocal off
        if off + n > len(blob):
            raise TruncatedFileError("feature file truncated")
        chunk = blob[off:off + n]
        off += n
        return chunk

    version, count, layer_count = struct.unpack("<HQB", take(11))
    if version != _MLHC_VERSION:
        raise DataFormatError(f"unsupported feature file version {version}")
    layers = LAYERS[:layer_count]
    dims = [struct.unpack("<I", take(4))[0] for _ in range(layer_count)]

    records = []
    seen = set()
    for _ in range(count):
        (idlen,) = struct.unpack("<H", take(2))
        rid = take(idlen).decode("utf-8")
        (lablen,) = struct.unpack("<H", take(2))
        lab = take(lablen).decode("utf-8")
        if rid in seen:
            raise DuplicateIdError(f"duplicate record id {rid!r}")
        seen.add(rid)
        features = {}
        for layer, d in zip(layers, dims):
            features[layer] = np.frombuffer(take(4 * d), "<f4").astype(np.float64)
        records.append(RawRecord(rid, lab, features))
    if off != len(blob):
        raise DataFormatError("trailing bytes after last record")
    return records


# ---------------------------------------------------------------------------
# Training and the trained bundle


@dataclass
class TrainedBundle:
    config: PipelineConfig
    pca_models: dict[str, pca.PcaModel]
    dictionaries: dict[str, CentroidDictionary]
    thresholds: ThresholdSet
    filter: LayeredBloomFilter

    def new_index(self) -> HierarchicalIndex:
        return HierarchicalIndex(self.config.active_layers, self.thresholds)


def compress_record(bundle: TrainedBundle, raw: RawRecord) -> FeatureRecord:
    """PCA-compress and binary-sequence one raw record.

    Compressed vectors are held as float32, so in-memory state matches what
    the record store persists.
    """
    compressed = {}
    signatures = {}
    for layer in bundle.config.active_layers:
        if layer not in raw.features:
            raise ConfigMismatchError(f"record {raw.id!r} missing layer {layer}")
        vec = pca.project(bundle.pca_models[layer], raw.features[layer])
        vec = vec.astype(np.float32)
        compressed[layer] = vec
        signatures[layer] = binseq.encode_signature(bundle.dictionaries[layer], vec)
    return FeatureRecord(raw.id, raw.label, compressed, signatures)


def train(config: PipelineConfig, records: list[RawRecord]) -> TrainedBundle:
    """Fit per-layer PCA + dictionaries, calibrate thresholds, size the filter."""
    if not records:
        raise ValueError("training requires at least one record")
    n = len(records)
    layers = config.active_layers

    pca_models = {}
    dictionaries = {}
    for ordinal, layer in enumerate(layers, start=1):
        raws = [r.features.get(layer) for r in records]
        if any(v is None for v in raws):
            raise ConfigMismatchError(f"training records missing layer {layer}")
        model = pca.fit_pca(np.vstack(raws), config.pca_dim)
        pca_models[layer] = model
        compressed = (
            pca.project_many(model, np.vstack(raws))
            .astype(np.float32)
            .astype(np.float64)
        )
        dictionaries[layer] = binseq.init_dictionary(
            compressed,
            count=config.centroid_count,
            threshold=config.binseq_threshold,
            rng_seed=config.rng_seed + ordinal,
        )

    bundle = TrainedBundle(
        config=config,
        pca_models=pca_models,
        dictionaries=dictionaries,
        thresholds=ThresholdSet(thresholds={}, scales=dict(config.threshold_scales)),
        filter=None,  # type: ignore[arg-type]
    )
    feature_records = [compress_record(bundle, r) for r in records]
    calibrated = calibrate_thresholds(feature_records, layers)
    bundle.thresholds = ThresholdSet(
        thresholds=calibrated.thresholds,
        scales=dict(config.threshold_scales),
    )

    if config.filter_optimal:
        m = optimal_bits(n, len(layers))
    else:
        m = math.ceil(config.filter_multiplier * n)
    bundle.filter = LayeredBloomFilter(m=m, layers=layers)
    return bundle


def add_record(bundle: TrainedBundle, index: HierarchicalIndex, raw: RawRecord) -> None:
    """Compress, sign, append to the index, and insert into the filter."""
    if raw.id in index:
        raise DuplicateIdError(f"duplicate record id {raw.id!r}")
    rec = compress_record(bundle, raw)
    index.add(rec)  # first: a record the index rejects must not reach the filter
    bundle.filter.insert(rec.signatures)


# ---------------------------------------------------------------------------
# Querying and evaluation


@dataclass(frozen=True)
class QueryResult:
    rejected: bool
    results: list[tuple[str, float]]


def gated_query(
    bundle: TrainedBundle,
    index: HierarchicalIndex,
    features: dict[str, np.ndarray],
    top_k: int | None = None,
) -> QueryResult:
    """Bloom-gated retrieval: definitely-absent queries never touch the index."""
    raw = RawRecord("__query__", "", dict(features))
    rec = compress_record(bundle, raw)
    if not bundle.filter.query(rec.signatures):
        return QueryResult(rejected=True, results=[])
    k = bundle.config.top_k if top_k is None else top_k
    ranked = query_hierarchical(
        index, rec.compressed, k, stage_order=bundle.config.stage_order
    )
    return QueryResult(rejected=False, results=ranked)


def average_precision(ranked_ids, relevant_ids) -> float:
    """AP = (1/|relevant|) * sum of precision@r at each relevant rank r."""
    relevant = set(relevant_ids)
    if not relevant:
        raise ValueError("relevant set must be non-empty")
    hits = 0
    total = 0.0
    for rank, rid in enumerate(ranked_ids, start=1):
        if rid in relevant:
            hits += 1
            total += hits / rank
    return total / len(relevant)


@dataclass
class EvaluationReport:
    query_ids: list[str]
    average_precisions: list[float | None]  # None = excluded (absent label)
    mean_average_precision: float | None
    query_times: list[float]
    mean_query_time: float
    bloom_rejections: int
    correct_rejections: int
    bloom_false_positives: int

    def to_dict(self, include_timing: bool = True) -> dict:
        d = {
            "query_ids": self.query_ids,
            "average_precisions": self.average_precisions,
            "mean_average_precision": self.mean_average_precision,
            "bloom_rejections": self.bloom_rejections,
            "correct_rejections": self.correct_rejections,
            "bloom_false_positives": self.bloom_false_positives,
        }
        if include_timing:
            d["query_times"] = self.query_times
            d["mean_query_time"] = self.mean_query_time
        return d


def evaluate(
    bundle: TrainedBundle,
    index: HierarchicalIndex,
    queries: list[RawRecord],
    top_k: int | None = None,
) -> EvaluationReport:
    """Run gated queries and score mAP against shared-label ground truth.

    A query rejected by the filter scores AP 0 when its label is indexed;
    queries whose label is absent from the index are distractors: excluded
    from mAP, counted as correct rejections (if rejected) or filter false
    positives (if passed, since their id is not stored).
    """
    if not queries:
        raise ValueError("evaluation requires at least one query")
    index.freeze()
    indexed_labels = index.labels()
    relevant_by_label: dict[str, list[str]] = {}
    for rec in index.records:
        relevant_by_label.setdefault(rec.label, []).append(rec.id)

    ids, aps, times = [], [], []
    rejections = correct_rejections = false_positives = 0
    for q in queries:
        t0 = time.perf_counter()
        result = gated_query(bundle, index, q.features, top_k)
        times.append(time.perf_counter() - t0)
        ids.append(q.id)
        distractor = q.label not in indexed_labels
        if result.rejected:
            rejections += 1
            if distractor:
                correct_rejections += 1
                aps.append(None)
            else:
                aps.append(0.0)
            continue
        if q.id not in index:
            false_positives += 1
        if distractor:
            aps.append(None)
        else:
            ranked = [rid for rid, _ in result.results]
            aps.append(average_precision(ranked, relevant_by_label[q.label]))

    included = [a for a in aps if a is not None]
    mean_ap = sum(included) / len(included) if included else None
    return EvaluationReport(
        query_ids=ids,
        average_precisions=aps,
        mean_average_precision=mean_ap,
        query_times=times,
        mean_query_time=sum(times) / len(times),
        bloom_rejections=rejections,
        correct_rejections=correct_rejections,
        bloom_false_positives=false_positives,
    )


# ---------------------------------------------------------------------------
# Synthetic data


def synth_generate(
    classes: int,
    per_class: int,
    layer_dims,
    noise_scale: float,
    seed: int,
    out_path,
    queries_per_class: int = 0,
    queries_path=None,
) -> tuple[int, int]:
    """Gaussian class-blob features written in MLHC format, one file for the
    database and optionally one for held-out queries from the same centers."""
    if classes < 1 or per_class < 1 or queries_per_class < 0:
        raise ValueError("counts must be positive")
    layer_dims = list(layer_dims)
    if not layer_dims or any(d < 1 for d in layer_dims):
        raise ValueError("layer dims must be positive")
    if noise_scale < 0:
        raise ValueError("noise scale must be non-negative")
    layers = LAYERS[: len(layer_dims)]

    rng = np.random.default_rng(seed)
    centers = [
        {l: rng.standard_normal(d) for l, d in zip(layers, layer_dims)}
        for _ in range(classes)
    ]

    def make(prefix: str, count: int) -> list[RawRecord]:
        recs = []
        for c in range(classes):
            for i in range(count):
                feats = {
                    l: centers[c][l] + noise_scale * rng.standard_normal(d)
                    for l, d in zip(layers, layer_dims)
                }
                recs.append(
                    RawRecord(f"{prefix}-{c:03d}-{i:05d}", f"class-{c:03d}", feats)
                )
        return recs

    records = make("img", per_class)
    write_features(out_path, records)
    n_queries = 0
    if queries_per_class:
        if queries_path is None:
            raise ValueError("queries_path required when queries_per_class > 0")
        queries = make("qry", queries_per_class)
        write_features(queries_path, queries)
        n_queries = len(queries)
    return len(records), n_queries


# ---------------------------------------------------------------------------
# Index directory persistence


def save_index_dir(path, bundle: TrainedBundle, index: HierarchicalIndex) -> None:
    import os

    os.makedirs(path, exist_ok=True)
    doc = bundle.config.to_dict()
    doc["calibrated_thresholds"] = {
        l: bundle.thresholds.thresholds[l] for l in bundle.config.active_layers
    }
    with open(os.path.join(path, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for layer in bundle.config.active_layers:
        with open(os.path.join(path, f"pca-{layer}.bin"), "wb") as fh:
            fh.write(bundle.pca_models[layer].to_bytes())
        with open(os.path.join(path, f"dict-{layer}.bin"), "wb") as fh:
            fh.write(bundle.dictionaries[layer].to_bytes())
    with open(os.path.join(path, "filter.bin"), "wb") as fh:
        fh.write(bundle.filter.to_bytes())
    save_records(os.path.join(path, "records.bin"), index)


def load_index_dir(path) -> tuple[TrainedBundle, HierarchicalIndex]:
    import os

    with open(os.path.join(path, "config.json"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    config = PipelineConfig.from_dict(doc)
    calibrated = doc.get("calibrated_thresholds")
    if calibrated is None or set(calibrated) != set(config.active_layers):
        raise ConfigMismatchError("calibrated thresholds missing for active layers")
    thresholds = ThresholdSet(
        thresholds={l: float(v) for l, v in calibrated.items()},
        scales=dict(config.threshold_scales),
    )

    pca_models = {}
    dictionaries = {}
    for layer in config.active_layers:
        with open(os.path.join(path, f"pca-{layer}.bin"), "rb") as fh:
            model = pca.PcaModel.from_bytes(fh.read())
        if model.target_dim != config.pca_dim:
            raise ConfigMismatchError(
                f"PCA target dim {model.target_dim} != configured {config.pca_dim}"
            )
        pca_models[layer] = model
        with open(os.path.join(path, f"dict-{layer}.bin"), "rb") as fh:
            d = CentroidDictionary.from_bytes(fh.read())
        if d.signature_width != config.centroid_count:
            raise ConfigMismatchError(
                f"dictionary width {d.signature_width} != configured "
                f"{config.centroid_count}"
            )
        dictionaries[layer] = d

    with open(os.path.join(path, "filter.bin"), "rb") as fh:
        filt = LayeredBloomFilter.from_bytes(fh.read())
    if filt.layers != config.active_layers:
        raise ConfigMismatchError(
            f"filter layers {filt.layers} != configured {config.active_layers}"
        )

    bundle = TrainedBundle(config, pca_models, dictionaries, thresholds, filt)
    sig_widths = {l: config.centroid_count for l in config.active_layers}
    index = load_records(
        os.path.join(path, "records.bin"),
        config.active_layers,
        sig_widths,
        thresholds,
    )
    return bundle, index
