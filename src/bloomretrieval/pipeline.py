"""End-to-end orchestration: ingestion, training, indexing, gated querying,
evaluation, and synthetic data generation.

Training fits one PCA model and one centroid dictionary per active layer,
calibrates per-layer cosine thresholds from class labels, and sizes the
bloom filter from the training-set size. Insert and query share one
compress-and-sign kernel, which does each step once for all the layers a
call needs: `_compress` (one GEMV a layer, one check of every row, one
float32 cast and one widening back, every row's squared norm in one
product) and `binseq.sign_rows` (one pre-test product a layer, one sign and
one pack over every row). The norms serve both the zero-norm checks and the
signing pre-test; `pca.project` and `binseq.encode_signature` run the same
code on one row. An add runs the kernel once on every layer and hands its
rows and packed signatures to the index and the filter as they are. The
query gate walks the filter's probe order, L3 first, and runs the kernel on
a layer only when the probe reaches it, so a query the filter rules out at
L3 is projected, signed and hashed once and does no index work. Every layer
of a query is still checked before the probe, either by a pre-test that
proves its projection sound or by projecting it, so a bad vector is
refused whatever the filter would say.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import struct
import sys
import time
from dataclasses import asdict, dataclass, field
from itertools import chain
from pathlib import Path

import numpy as np

from . import binseq, pca
from .binseq import BinarySignature, CentroidDictionary
from .binio import Reader, id_label_heads
from .bloom import LAYERS, MAX_BITS, LayeredBloomFilter, optimal_bits
from .errors import (
    ConfigMismatchError,
    DataFormatError,
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
# bytes of rows `write_features` hands to one write, heads aside
_WRITE_BYTES = 1 << 18


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


def _unique_keys(pairs: list) -> dict:
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} given twice")
        obj[key] = value
    return obj


def parse_json(text: str):
    """The JSON value `text` holds; `ValueError` for an object that names a
    key twice, which `json` alone would resolve to the last value."""
    return json.loads(text, object_pairs_hook=_unique_keys)


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
        `calibrated_thresholds` key that config.json carries is skipped."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {type(d).__name__}")
        d = {k: v for k, v in d.items() if k != "calibrated_thresholds"}
        unknown = set(d) - set(cls.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        return cls(**d)


@dataclass(frozen=True)
class RawRecord:
    id: str
    label: str
    features: dict[str, np.ndarray]


# ---------------------------------------------------------------------------
# MLHC feature files


def _first_bad_record(records: list[RawRecord], layers: tuple, shapes: list) -> None:
    """Raise the error of the first record, in record order, whose layer set
    differs from the header's or, layer by layer, whose vector is not of the
    first record's 1-D shape or holds a finite value beyond float32, which a
    cast would write as an Inf. Run under `write_features`'s errstate."""
    layer_set = set(layers)
    for rec in records:
        if rec.features.keys() != layer_set:
            raise InconsistentDimsError(f"record {rec.id!r} layer set differs from header")
        for layer, shape in zip(layers, shapes):
            vec = np.asarray(rec.features[layer])
            if vec.shape != shape or len(vec.shape) != 1:
                raise InconsistentDimsError(
                    f"record {rec.id!r} layer {layer} shape {vec.shape} != {shape}"
                )
            try:
                vec.astype("<f4")
            except FloatingPointError:
                raise InvalidVectorError(
                    f"record {rec.id!r} layer {layer} holds a value beyond float32"
                ) from None


def write_features(path, records: list[RawRecord]) -> None:
    """Write an MLHC feature file. Every record is checked before the file
    is opened, so a bad one raises and writes nothing. The first error in
    record order is raised: a layer set other than the first record's, then
    layer by layer a shape other than the first record's 1-D one, then a
    finite value beyond float32, which would be written as an Inf; only
    when every record passes those, an id and then a label of more than
    `MAX_TEXT` UTF-8 bytes. A NaN or an Inf is written as it is; a float64
    signalling NaN becomes the quiet NaN its float32 cast gives.

    The features go into one (n, Σd) float32 matrix, each layer's column
    block cast from every record's vector in one assignment; only when that
    fails are the records scanned one by one to name the first bad one.
    Records and their id/label heads are then written in chunks of about
    `_WRITE_BYTES`."""
    layers = LAYERS[: len(records[0].features)] if records else ()
    if records and not layers:
        raise InconsistentDimsError(f"record {records[0].id!r} has no layers")
    shapes = [np.shape(records[0].features.get(layer)) for layer in layers]
    layer_set = set(layers)
    # a cast overflows only from a finite value beyond float32; a float64
    # signalling NaN cast to float32 is made quiet, which is no error
    with np.errstate(over="raise", invalid="ignore"):
        try:
            if any(len(shape) != 1 for shape in shapes) or any(
                rec.features.keys() != layer_set for rec in records
            ):
                raise InconsistentDimsError("a layer set or shape differs")  # named below
            dims = [d for (d,) in shapes]
            bounds = np.cumsum([0, *dims]).tolist()
            matrix = np.empty((len(records), bounds[-1]), "<f4")
            for layer, a, b in zip(layers, bounds, bounds[1:]):
                matrix[:, a:b] = [rec.features[layer] for rec in records]
        except (InconsistentDimsError, ValueError, FloatingPointError):
            _first_bad_record(records, layers, shapes)
            raise
    heads = id_label_heads(records)
    step = max(1, _WRITE_BYTES // max(1, 4 * bounds[-1]))  # records a write
    with open(path, "wb") as fh:
        fh.write(_MLHC_MAGIC)
        fh.write(struct.pack(f"<HQB{len(dims)}I", _MLHC_VERSION, len(records), len(dims), *dims))
        for i in range(0, len(records), step):
            fh.write(b"".join(chain.from_iterable(zip(heads[i:i + step], matrix[i:i + step]))))


def read_features(path) -> list[RawRecord]:
    """Parse an MLHC feature file into raw records. The errors a file can
    raise come in file order: a bad header, then record by record a
    truncated or non-UTF-8 id or label, an id met before, a truncated
    vector; then trailing bytes.

    The file is read into one writable buffer, and every record's floats
    are moved to its front, where they make one float32 matrix: as stored,
    but with every NaN made quiet (widening a signalling NaN makes numpy
    warn). A record's features are views of its own row, one a layer, so
    keeping any record keeps the whole file's matrix alive. Each consumer
    widens what it computes with."""
    with open(path, "rb") as fh:
        blob = bytearray(os.fstat(fh.fileno()).st_size)
        del blob[fh.readinto(blob):]
        blob += fh.read()  # what the size missed, as a pipe's would be
    r = Reader(blob, "feature file", _MLHC_MAGIC)
    version, count, layer_count = r.unpack("HQB")
    if version != _MLHC_VERSION:
        raise DataFormatError(f"unsupported feature file version {version}")
    # a file of no records, as writing none gives, may name no layer
    if layer_count > len(LAYERS) or (count and not layer_count):
        raise DataFormatError(f"feature file layer count {layer_count} is not 1..3")
    layers = LAYERS[:layer_count]
    bounds = np.cumsum([0, *(r.unpack("I")[0] for _ in layers)]).tolist()
    size = 4 * bounds[-1]
    ids, labels, starts = r.entries(count, size)
    r.end()
    # the rows move to the front of the file's own buffer, each to an
    # offset at or before its own, so the matrix takes no second buffer
    with memoryview(blob) as view:
        for k, start in enumerate(starts):
            view[k * size:(k + 1) * size] = view[start:start + size]
    del blob[count * size:]
    matrix = np.frombuffer(blob, "<f4").reshape(count, bounds[-1])
    # min propagates a NaN, so one reduction, with no mask the size of the
    # matrix, finds whether there is any; a signalling one sets the flag
    with np.errstate(invalid="ignore"):
        if np.isnan(matrix.min(initial=0.0)):
            matrix[np.isnan(matrix)] = np.nan
    columns = [list(matrix[:, a:b]) for a, b in zip(bounds, bounds[1:])]
    return [
        RawRecord(rid, lab, dict(zip(layers, views)))
        for rid, lab, *views in zip(ids, labels, *columns)
    ]


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


def _require_layers(bundle: TrainedBundle, features, rid: str | None = None) -> None:
    """`ConfigMismatchError` for the first active layer `features` lacks,
    naming the record `rid`, or the query when it is None."""
    for layer in bundle.config.active_layers:
        if layer not in features:
            who = "query" if rid is None else f"record {rid!r}"
            raise ConfigMismatchError(f"{who} missing layer {layer}")


def _compress(models, xs) -> tuple[np.ndarray, np.ndarray, list]:
    """The kernel's compression of the layers whose PCA models and raw
    vectors are `models` and `xs`, row i the i-th's: (float32 vectors, as
    the record store persists them; their float64 widening; their squared
    norms). Every error of a raw vector is raised here, the first in layer
    order (`pca.project_rows`). `binseq.sign_rows` signs the rows from the
    last two."""
    wide = pca.project_rows(models, xs)
    vectors = wide.astype(np.float32)
    wide[...] = vectors
    # the diagonal of one product: one BLAS call for every row's norm
    return vectors, wide, wide.dot(wide.T).diagonal().tolist()


def _compress_and_sign(bundle: TrainedBundle, raw: RawRecord) -> tuple[np.ndarray, list, np.ndarray]:
    """A raw record's active layers, in layer order, through the kernel:
    (float32 vectors, their squared norms, packed signatures), one row a
    layer. Every layer is projected by `_compress` and only then signed by
    `binseq.sign_rows`, so a bad raw vector raises before any layer is
    signed. A missing active layer raises `ConfigMismatchError` before any
    is projected."""
    layers = bundle.config.active_layers
    _require_layers(bundle, raw.features, raw.id)
    models = [bundle.pca_models[layer] for layer in layers]
    vectors, wide, sq = _compress(models, [raw.features[layer] for layer in layers])
    return vectors, sq, binseq.sign_rows([bundle.dictionaries[layer] for layer in layers], wide, sq)


def compress_record(bundle: TrainedBundle, raw: RawRecord) -> FeatureRecord:
    """One raw record as the index and the filter read it, with the errors
    of `_compress_and_sign`."""
    vectors, _, packed = _compress_and_sign(bundle, raw)
    layers, width = bundle.config.active_layers, bundle.config.centroid_count
    signatures = {layer: BinarySignature(width, row.tobytes()) for layer, row in zip(layers, packed)}
    return FeatureRecord(raw.id, raw.label, dict(zip(layers, vectors)), signatures)


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
    """Compress and sign every active layer of the record at once
    (`_compress_and_sign`), append the rows to the index and set the
    filter's bits from the same packed signatures, one `tobytes()` sliced a
    layer. The errors, and their order, are those of `compress_record`,
    `HierarchicalIndex.add` and `insert` in turn: a missing layer, then a
    bad raw vector in layer order, then a stored id, then the first layer
    that compresses to zero; nothing is stored or inserted on any of them."""
    vectors, sq, signatures = _compress_and_sign(bundle, raw)
    # the index first: a record it rejects must not reach the filter
    index._append(raw.id, raw.label, vectors, sq, signatures, bundle.config.centroid_count)
    data, width = signatures.tobytes(), signatures.shape[1]
    rows = [data[i:i + width] for i in range(0, len(data), width)]
    bundle.filter._insert(bundle.config.active_layers, rows)


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
    The probe then walks `filter.probe_order`, projecting a layer not yet
    projected, signing it and testing its one bit, so only the layers the
    probe reaches are projected and signed: a query ruled out at L3
    projects and signs L3 alone, and one that passes reads every layer,
    with the bits `add_record` computes for it. Each layer is one kernel
    call of one row."""
    k = bundle.config.top_k if top_k is None else top_k
    check_top_k(k)
    _require_layers(bundle, features)
    probe = bundle.filter.probe_order
    projected = {
        layer: _compress((bundle.pca_models[layer],), (features[layer],))
        for layer in bundle.config.active_layers
        if layer == probe[0] or not pca.proven_storable(bundle.pca_models[layer], features[layer])
    }
    for layer, (_, _, sq) in projected.items():
        if sq[0] == 0.0:
            raise InvalidVectorError(f"query layer {layer} vector is non-finite or zero")
    for layer in probe:
        kernel = projected.get(layer)
        if kernel is None:
            kernel = projected[layer] = _compress((bundle.pca_models[layer],), (features[layer],))
        data = binseq.sign_rows((bundle.dictionaries[layer],), kernel[1], kernel[2]).tobytes()
        if not bundle.filter.contains(layer, data):
            return QueryResult(rejected=True, results=[])
    vectors = {layer: kernel[0][0] for layer, kernel in projected.items()}
    return QueryResult(rejected=False, results=query_hierarchical(index, vectors, k))


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
        doc = parse_json(Path(path, "config.json").read_bytes().decode("utf-8"))
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
