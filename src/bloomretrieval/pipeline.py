"""End-to-end orchestration: ingestion, training, indexing, gated querying,
evaluation, and synthetic data generation.

Training fits one PCA model and one centroid dictionary per active layer,
calibrates per-layer cosine thresholds from class labels, and sizes the
bloom filter from the training-set size. A record's layers are projected
and signed when first read. The filter's probe reads them L3 first, so a
query it rules out at L3 is projected, signed and hashed once and does no
index work. Every layer of a query is still checked before the probe,
either by a pre-test that proves its projection sound or by projecting it,
so a bad vector is refused whatever the filter would say.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import sys
import time
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import binseq, pca
from .binseq import CentroidDictionary
from .binio import Reader, pack_id_label
from .bloom import LAYERS, MAX_BITS, LayeredBloomFilter, optimal_bits
from .errors import (
    ConfigMismatchError,
    DataFormatError,
    DuplicateIdError,
    InconsistentDimsError,
    InvalidVectorError,
)
from .index import (
    FeatureRecord,
    HierarchicalIndex,
    ThresholdSet,
    calibrate_thresholds,
    check_top_k,
    load_records,
    query_hierarchical,
    save_records,
)

_MLHC_MAGIC = b"MLHC"
_MLHC_VERSION = 1


def _is_int(value, low: int) -> bool:
    """An int >= low; a bool is not one."""
    return isinstance(value, int) and not isinstance(value, bool) and value >= low


def _is_positive(value) -> bool:
    """A real number > 0 that is finite as a float; a bool or a string is
    not one."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and 0 < value <= sys.float_info.max
    )


def _as_f32(value: float) -> float:
    """value rounded to float32, the precision a dictionary stores its
    threshold at; inf when it is too large for one."""
    try:
        return struct.unpack("<f", struct.pack("<f", value))[0]
    except OverflowError:
        return math.inf


@dataclass(frozen=True)
class PipelineConfig:
    active_layers: tuple[str, ...] = ("L1", "L2", "L3")
    pca_dim: int = 128
    centroid_count: int = 64
    binseq_threshold: float = 10.0
    filter_multiplier: float | None = 2.0  # x training-set size; None: Eq. 2
    rng_seed: int = 0
    top_k: int = 10
    threshold_scales: dict = field(default_factory=dict)

    def __post_init__(self):
        """Check each value's type and range, so a bad config fails here with
        `ValueError`, not later in training or querying."""
        layers = self.active_layers
        layers = tuple(layers) if isinstance(layers, (list, tuple)) else ()
        object.__setattr__(self, "active_layers", layers)
        if not layers or layers != LAYERS[: len(layers)]:
            raise ValueError(
                "active_layers must be a non-empty prefix of (L1, L2, L3)"
            )
        for name in ("pca_dim", "centroid_count", "top_k"):
            value = getattr(self, name)
            if not _is_int(value, 1):
                raise ValueError(f"{name} must be an int >= 1, got {value!r}")
        if not _is_int(self.rng_seed, 0):
            raise ValueError(f"rng_seed must be an int >= 0, got {self.rng_seed!r}")
        if not (
            _is_positive(self.binseq_threshold)
            and _is_positive(_as_f32(self.binseq_threshold))
        ):
            raise ValueError(
                "binseq_threshold must be finite and > 0 as a float32, "
                f"got {self.binseq_threshold!r}"
            )
        if not (self.filter_multiplier is None or _is_positive(self.filter_multiplier)):
            raise ValueError(
                "filter_multiplier must be null or finite and > 0, "
                f"got {self.filter_multiplier!r}"
            )
        if not isinstance(self.threshold_scales, dict):
            raise ValueError("threshold_scales must map layers to scales")
        for layer, scale in self.threshold_scales.items():
            if layer not in layers:
                raise ValueError(f"threshold_scales names inactive layer {layer!r}")
            if not _is_positive(scale):
                raise ValueError(
                    f"threshold_scales[{layer!r}] must be finite and > 0, got {scale!r}"
                )

    def to_dict(self) -> dict:
        return {**asdict(self), "active_layers": list(self.active_layers)}

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """Config from a dict; an unknown key is an error. The
        `calibrated_thresholds` key that config.json carries is skipped, and
        so are the retired keys older files carry, when they hold the one
        behaviour left: `stage_order: "coarse_to_fine"`, and `filter_optimal`
        equal to `filter_multiplier is None`. Another value of them is an error."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
        d = {k: v for k, v in d.items() if k != "calibrated_thresholds"}
        stage_order = d.pop("stage_order", "coarse_to_fine")
        if stage_order != "coarse_to_fine":
            raise ValueError(f"retired stage_order {stage_order!r}: only coarse_to_fine")
        optimal = d.pop("filter_optimal", None)
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        config = cls(**d)
        if optimal not in (None, config.filter_multiplier is None):
            raise ValueError(
                f"retired filter_optimal {optimal!r}: filter_multiplier sizes the "
                "filter, and null sizes it by Eq. 2"
            )
        return config


@dataclass(frozen=True)
class RawRecord:
    id: str
    label: str
    features: dict[str, np.ndarray]


# ---------------------------------------------------------------------------
# MLHC feature files


def write_features(path, records: list[RawRecord]) -> None:
    """Write an MLHC feature file. Every record is checked first (its layer
    set and 1-D shapes against the first record's, its id and label lengths),
    so a bad record raises before the file is opened."""
    layers = LAYERS[: len(records[0].features)] if records else ()
    if records and not layers:
        raise InconsistentDimsError(f"record {records[0].id!r} has no layers")
    shapes = [np.shape(records[0].features.get(layer)) for layer in layers]
    layer_set = set(layers)
    for rec in records:
        if rec.features.keys() != layer_set:
            raise InconsistentDimsError(
                f"record {rec.id!r} layer set differs from header"
            )
        for layer, shape in zip(layers, shapes):
            # not np.shape: its per-call dispatch triples this loop's cost
            got = np.asarray(rec.features[layer]).shape
            if got != shape or len(got) != 1:
                raise InconsistentDimsError(
                    f"record {rec.id!r} layer {layer} shape {got} != {shape}"
                )
    heads = [pack_id_label(rec) for rec in records]
    with open(path, "wb") as fh:
        fh.write(_MLHC_MAGIC)
        fh.write(struct.pack("<HQB", _MLHC_VERSION, len(records), len(layers)))
        for (d,) in shapes:
            fh.write(struct.pack("<I", d))
        for rec, head in zip(records, heads):
            fh.write(head)
            for layer in layers:
                fh.write(np.asarray(rec.features[layer], dtype="<f4").tobytes())


def read_features(path) -> list[RawRecord]:
    """Parse an MLHC feature file into raw records. A record's features are
    float32 as stored, one array per record with a view per layer; each
    consumer widens what it computes with."""
    r = Reader(Path(path).read_bytes(), "feature file", _MLHC_MAGIC)
    version, count, layer_count = r.unpack("HQB")
    if version != _MLHC_VERSION:
        raise DataFormatError(f"unsupported feature file version {version}")
    # a file of no records, as writing none gives, may name no layer
    if layer_count > len(LAYERS) or (count and not layer_count):
        raise DataFormatError(f"feature file layer count {layer_count} is not 1..3")
    layers = LAYERS[:layer_count]
    bounds = np.cumsum([0, *(r.unpack("I")[0] for _ in layers)]).tolist()

    records = []
    seen = set()
    for _ in range(count):
        rid = r.text()
        lab = r.text()
        if rid in seen:
            raise DuplicateIdError(f"duplicate record id {rid!r}")
        seen.add(rid)
        row = r.floats(bounds[-1], np.float32)
        features = {layer: row[a:b] for layer, a, b in zip(layers, bounds, bounds[1:])}
        records.append(RawRecord(rid, lab, features))
    r.end()
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


class _PerLayer(Mapping):
    """Per-layer values, each made by `make(layer)` the first time it is read
    and kept; iterating or testing membership makes none."""

    __slots__ = ("_layers", "_make", "_made")

    def __init__(self, layers: tuple[str, ...], make):
        self._layers = layers
        self._make = make
        self._made: dict = {}

    def __getitem__(self, layer: str):
        value = self._made.get(layer)
        if value is None:
            if layer not in self._layers:
                raise KeyError(layer)
            value = self._made[layer] = self._make(layer)
        return value

    def __contains__(self, layer) -> bool:  # Mapping's would make the layer
        return layer in self._layers

    def keys(self):
        """The layers, in order, as a dict's key view: it compares with a set
        in C, where Mapping's view compares in Python."""
        return dict.fromkeys(self._layers).keys()

    def __iter__(self):
        return iter(self._layers)

    def __len__(self) -> int:
        return len(self._layers)


def _kernels(bundle: TrainedBundle, raw: RawRecord):
    """(compress, sign), the per-layer kernels that insert and query share:
    `compress(layer)` is the layer's compressed vector, by `pca.project` and
    a float32 cast, so in-memory state matches what the record store
    persists, and `sign(layer, vector)` its signature, by
    `binseq.encode_signature`. A missing active layer raises
    `ConfigMismatchError` here; every other error of a raw vector (a wrong
    shape, a NaN or Inf, a projection beyond float32) is raised by
    `compress`."""
    for layer in bundle.config.active_layers:
        if layer not in raw.features:
            # the record `gated_query` builds has no id
            who = f"record {raw.id!r}" if raw.id else "query"
            raise ConfigMismatchError(f"{who} missing layer {layer}")
    models, features, dictionaries = bundle.pca_models, raw.features, bundle.dictionaries

    def compress(layer: str) -> np.ndarray:
        return pca.project(models[layer], features[layer]).astype(np.float32)

    def sign(layer: str, vector: np.ndarray):
        return binseq.encode_signature(dictionaries[layer], vector)

    return compress, sign


def compress_record(bundle: TrainedBundle, raw: RawRecord) -> FeatureRecord:
    """One raw record as the index and the filter read it, by `_kernels`.
    Each active layer is computed the first time it is read, and kept, so a
    reader does the work of only the layers it reads. A missing active layer
    raises here; every other error of a raw vector when its layer is first
    read."""
    compress, sign = _kernels(bundle, raw)
    layers = bundle.config.active_layers
    compressed = _PerLayer(layers, compress)
    signatures = _PerLayer(layers, lambda layer: sign(layer, compressed[layer]))
    return FeatureRecord(raw.id, raw.label, compressed, signatures)


def train(config: PipelineConfig, records: list[RawRecord]) -> TrainedBundle:
    """Fit per-layer PCA + dictionaries, calibrate thresholds, size the filter.

    Each layer's training vectors are projected once, as one matrix. Nothing
    is signed: only indexed records and queries need signatures.
    """
    if not records:
        raise ValueError("training requires at least one record")
    n = len(records)
    layers = config.active_layers

    pca_models = {}
    dictionaries = {}
    compressed = {}
    for ordinal, layer in enumerate(layers, start=1):
        raws = [r.features.get(layer) for r in records]
        if any(v is None for v in raws):
            raise ConfigMismatchError(f"training records missing layer {layer}")
        raw = np.vstack(raws)
        # the model and threshold as pca-*.bin and dict-*.bin store them, so
        # the bundle answers as the index it saves does once loaded
        model = pca.PcaModel.from_bytes(pca.fit_pca(raw, config.pca_dim).to_bytes())
        pca_models[layer] = model
        # float32: the precision records hold and records.bin persists
        compressed[layer] = pca.project_many(model, raw).astype(np.float32)
        dictionaries[layer] = binseq.init_dictionary(
            compressed[layer],
            count=config.centroid_count,
            threshold=_as_f32(config.binseq_threshold),
            rng_seed=config.rng_seed + ordinal,
        )
    thresholds = calibrate_thresholds([r.label for r in records], compressed)
    thresholds.scales = dict(config.threshold_scales)

    if config.filter_multiplier is None:
        m = optimal_bits(n, len(layers))
    else:
        # capped so a product that overflows to inf still meets the filter's
        # range check, not an OverflowError in ceil
        m = math.ceil(min(config.filter_multiplier * n, MAX_BITS + 1.0))
    return TrainedBundle(
        config=config,
        pca_models=pca_models,
        dictionaries=dictionaries,
        thresholds=thresholds,
        filter=LayeredBloomFilter(m=m, layers=layers),
    )


def add_record(bundle: TrainedBundle, index: HierarchicalIndex, raw: RawRecord) -> None:
    """Compress, append to the index, and insert into the filter, each layer
    read once by the kernels `gated_query` reads (`_kernels`): every layer
    is projected first, so a bad raw vector raises before any of the index's
    checks, then signed, and the index and the filter share those
    signatures."""
    compress, sign = _kernels(bundle, raw)
    layers = bundle.config.active_layers
    compressed = {layer: compress(layer) for layer in layers}
    signatures = {layer: sign(layer, compressed[layer]) for layer in layers}
    # the index first: a record it rejects must not reach the filter
    index.add(FeatureRecord(raw.id, raw.label, compressed, signatures))
    bundle.filter.insert(signatures)


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
    """Bloom-gated retrieval: definitely-absent queries never touch the index.

    Every error a query can raise comes before the filter's verdict, whatever
    layer the filter would rule it out at: `ValueError` for a top_k other
    than an int >= 1, `ConfigMismatchError` for a missing active layer, and
    `InvalidVectorError` for a layer that holds a NaN or Inf, projects beyond
    float32 or compresses to zero, as `HierarchicalIndex.add` refuses such a
    record. The probe's first layer is projected and checked. Every other
    layer is either settled by `pca.proven_storable`, which proves that its
    projection raises none of these, or projected and checked now, in layer
    order, so the first error is the one a query projected in full raises.
    Only the layers the probe reaches are then projected and signed: a query
    ruled out at L3 projects and signs L3 alone, and one that passes reads
    every layer, with the same bits."""
    k = bundle.config.top_k if top_k is None else top_k
    check_top_k(k)
    rec = compress_record(bundle, RawRecord("", "", features))
    first = bundle.filter.probe_order[0]
    checked = [
        (layer, rec.compressed[layer])
        for layer in bundle.config.active_layers
        if layer == first or not pca.proven_storable(bundle.pca_models[layer], features[layer])
    ]
    for layer, vec in checked:
        if not np.count_nonzero(vec):
            raise InvalidVectorError(f"query layer {layer} vector is non-finite or zero")
    if not bundle.filter.query(rec.signatures):
        return QueryResult(rejected=True, results=[])
    ranked = query_hierarchical(index, rec.compressed, k)
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
    bloom_rejections: int
    correct_rejections: int
    bloom_false_positives: int
    query_times: list[float]
    mean_query_time: float

    def to_dict(self, include_timing: bool = True) -> dict:
        d = asdict(self)
        if not include_timing:
            del d["query_times"], d["mean_query_time"]
        return d


def evaluate(
    bundle: TrainedBundle,
    index: HierarchicalIndex,
    queries: list[RawRecord],
    top_k: int | None = None,
) -> EvaluationReport:
    """Run gated queries and score mAP against shared-label ground truth.

    A query whose label is indexed scores the AP of the ids the gate
    returned, so a rejected one scores 0. A query whose label is absent is a
    distractor: excluded from mAP, counted as a correct rejection if
    rejected and as a filter false positive if passed.
    """
    if not queries:
        raise ValueError("evaluation requires at least one query")
    index.freeze()
    relevant_by_label: dict[str, list[str]] = {}
    for rid, label in zip(index.ids, index.labels):
        relevant_by_label.setdefault(label, []).append(rid)

    aps, times, outcomes = [], [], []  # outcomes: (rejected, distractor)
    for q in queries:
        t0 = time.perf_counter()
        result = gated_query(bundle, index, q.features, top_k)
        times.append(time.perf_counter() - t0)
        relevant = relevant_by_label.get(q.label)
        outcomes.append((result.rejected, relevant is None))
        ranked = [rid for rid, _ in result.results]
        aps.append(None if relevant is None else average_precision(ranked, relevant))

    included = [a for a in aps if a is not None]
    return EvaluationReport(
        query_ids=[q.id for q in queries],
        average_precisions=aps,
        mean_average_precision=sum(included) / len(included) if included else None,
        bloom_rejections=sum(r for r, _ in outcomes),
        correct_rejections=sum(r and d for r, d in outcomes),
        bloom_false_positives=sum(d and not r for r, d in outcomes),
        query_times=times,
        mean_query_time=sum(times) / len(times),
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
    database and optionally one for held-out queries from the same centers.
    Every argument is checked before anything is drawn or written."""
    if classes < 1 or per_class < 1 or queries_per_class < 0:
        raise ValueError("counts must be positive")
    layer_dims = list(layer_dims)
    if not 1 <= len(layer_dims) <= len(LAYERS) or any(d < 1 for d in layer_dims):
        raise ValueError(f"need 1 to {len(LAYERS)} positive layer dims, got {layer_dims}")
    if not 0 <= noise_scale < math.inf:
        raise ValueError(f"noise scale must be finite and >= 0, got {noise_scale!r}")
    if queries_per_class and queries_path is None:
        raise ValueError("queries_path required when queries_per_class > 0")
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
        queries = make("qry", queries_per_class)
        write_features(queries_path, queries)
        n_queries = len(queries)
    return len(records), n_queries


# ---------------------------------------------------------------------------
# Index directory persistence


def save_index_dir(path, bundle: TrainedBundle, index: HierarchicalIndex) -> None:
    """Write the index directory, atomically per file, not as a whole.

    Every part is first written under a temporary name in `path` (the small
    parts from memory, the record store by `save_records`), and only then
    renamed over its old file, one by one, `records.bin` last; a save
    stopped between two renames leaves parts of both saves. No temporary
    file is left behind.
    """
    os.makedirs(path, exist_ok=True)
    doc = bundle.config.to_dict()
    doc["calibrated_thresholds"] = {
        l: bundle.thresholds.thresholds[l] for l in bundle.config.active_layers
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    parts = {"config.json": text.encode("utf-8")}
    for layer in bundle.config.active_layers:
        parts[f"pca-{layer}.bin"] = bundle.pca_models[layer].to_bytes()
        parts[f"dict-{layer}.bin"] = bundle.dictionaries[layer].to_bytes()
    parts["filter.bin"] = bundle.filter.to_bytes()

    staged = {n: os.path.join(path, n + ".tmp") for n in [*parts, "records.bin"]}
    try:
        save_records(staged["records.bin"], index)
        for name, data in parts.items():
            with open(staged[name], "wb") as fh:
                fh.write(data)
        for name, tmp in staged.items():
            os.replace(tmp, os.path.join(path, name))
    finally:
        for tmp in staged.values():
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)


def load_index_dir(path) -> tuple[TrainedBundle, HierarchicalIndex]:
    # not UTF-8, not one JSON value, or not a valid config: all ValueErrors
    try:
        doc = json.loads(Path(path, "config.json").read_bytes().decode("utf-8"))
        config = PipelineConfig.from_dict(doc)
    except ValueError as exc:
        raise DataFormatError(f"config.json: {exc}") from None
    calibrated = doc.get("calibrated_thresholds")
    if calibrated is not None and not isinstance(calibrated, dict):
        raise DataFormatError("calibrated_thresholds must be a JSON object")
    if calibrated is None or set(calibrated) != set(config.active_layers):
        raise ConfigMismatchError("calibrated thresholds missing for active layers")
    for layer, value in calibrated.items():
        if not _is_positive(value):
            raise DataFormatError(
                f"calibrated threshold of {layer} must be finite and > 0, got {value!r}"
            )
    thresholds = ThresholdSet(
        thresholds={l: float(v) for l, v in calibrated.items()},
        scales=dict(config.threshold_scales),
    )

    pca_models = {}
    dictionaries = {}
    for layer in config.active_layers:
        model = pca.PcaModel.from_bytes(Path(path, f"pca-{layer}.bin").read_bytes())
        if model.target_dim != config.pca_dim:
            raise ConfigMismatchError(
                f"PCA target dim {model.target_dim} != configured {config.pca_dim}"
            )
        pca_models[layer] = model
        d = CentroidDictionary.from_bytes(Path(path, f"dict-{layer}.bin").read_bytes())
        if (d.signature_width, d.dim) != (config.centroid_count, config.pca_dim):
            raise ConfigMismatchError(
                f"dictionary {layer} is {d.signature_width} centroids of dim {d.dim}, "
                f"configured {config.centroid_count} of dim {config.pca_dim}"
            )
        if d.threshold != _as_f32(config.binseq_threshold):
            raise ConfigMismatchError(
                f"dictionary {layer} threshold {d.threshold} != configured "
                f"binseq_threshold {config.binseq_threshold}"
            )
        dictionaries[layer] = d

    filt = LayeredBloomFilter.from_bytes(Path(path, "filter.bin").read_bytes())
    if filt.layers != config.active_layers:
        raise ConfigMismatchError(
            f"filter layers {filt.layers} != configured {config.active_layers}"
        )

    bundle = TrainedBundle(config, pca_models, dictionaries, thresholds, filt)
    index = load_records(
        os.path.join(path, "records.bin"),
        bundle.new_index(),
        config.pca_dim,
        config.centroid_count,
    )
    if filt.inserted_count != len(index):
        raise ConfigMismatchError(
            f"filter counts {filt.inserted_count} inserted records, "
            f"records.bin holds {len(index)}"
        )
    return bundle, index
