"""Independent oracles used by the test suite.

These deliberately avoid the code paths they check: the eigensolver is a
hand-rolled cyclic Jacobi sweep (not numpy.linalg), the covariance PCA is
the textbook D x D route with no Gram matrix or QR, average precision is
recomputed directly from its textbook definition, an evaluation report
is rescored case by case from each query's gated result, the calibrated
threshold is a mean over explicitly enumerated pairs, a cosine distance is
one dot product over two norms, a signature's bits are read byte by byte,
a signature is the L2 distance to every centroid at once, as
`np.linalg.norm` computes it, a reconstruction is the textbook
mean + basisᵀy, a v1 record store, which must be refused, is written
record by record, as the store was before v2, an MLHC feature file is
written and read record by record, as the codec was before it moved whole
files as one float32 matrix, a filter's verdict on a
query signs every layer first and then ANDs its bits, as the gate did
before it probed L3 first, a retrieval scores every row at every stage,
with no bucket skipped and no batch, and sorts every hit, and the spans a
staged retrieval scans come row by row from the rows' signature prefixes,
with no bucket table.
"""

import math
import struct
from pathlib import Path

import numpy as np

from bloomretrieval import binseq, pca
from bloomretrieval.binio import MAX_TEXT, Reader, too_long
from bloomretrieval.bloom import LAYER_SEEDS, LAYERS
from bloomretrieval.errors import (
    DataFormatError,
    DuplicateIdError,
    InconsistentDimsError,
    InvalidVectorError,
)
from bloomretrieval.pipeline import RawRecord
from bloomretrieval.index import l2_normalize, unit_cosine_distances, unit_rows
from bloomretrieval.murmur3 import murmur3_x64_128


def jacobi_eigh(A, tol=1e-12, max_sweeps=100):
    """Eigendecomposition of a symmetric matrix by cyclic Jacobi rotations.

    Returns (eigenvalues, eigenvectors-as-columns), descending order.
    """
    A = np.array(A, dtype=np.float64)
    n = A.shape[0]
    V = np.eye(n)
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off = max(off, abs(A[p, q]))
                if abs(A[p, q]) < tol:
                    continue
                theta = (A[q, q] - A[p, p]) / (2 * A[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1))
                if theta == 0:
                    t = 1.0
                c = 1 / np.sqrt(t * t + 1)
                s = t * c
                J = np.eye(n)
                J[p, p] = J[q, q] = c
                J[p, q] = s
                J[q, p] = -s
                A = J.T @ A @ J
                V = V @ J
        if off < tol:
            break
    vals = np.diag(A).copy()
    order = np.argsort(vals)[::-1]
    return vals[order], V[:, order]


def covariance_pca(samples, target_dim):
    """(mean, basis rows, eigenvalues) of the top target_dim principal
    components: numpy's eigh of the D x D sample covariance, descending
    order, each component's largest-magnitude entry made positive, negative
    rounding noise in the eigenvalues clipped to 0."""
    X = np.asarray(samples, dtype=np.float64)
    mean = X.mean(axis=0)
    centered = X - mean
    vals, vecs = np.linalg.eigh(centered.T @ centered / (len(X) - 1))
    order = np.argsort(vals)[::-1][:target_dim]
    basis = vecs[:, order].T.copy()
    for row in basis:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    return mean, basis, np.clip(vals[order], 0.0, None)


def average_precision_oracle(ranked_ids, relevant_ids):
    """AP straight from the definition: mean over relevant items of the
    precision at that item's rank (0 for relevant items never ranked)."""
    relevant = set(relevant_ids)
    precisions = []
    seen_relevant = 0
    for rank, rid in enumerate(ranked_ids, start=1):
        if rid in relevant:
            seen_relevant += 1
            precisions.append(seen_relevant / rank)
    missing = len(relevant) - seen_relevant
    precisions.extend([0.0] * missing)
    return sum(precisions) / len(relevant)


def evaluation_oracle(queries, results, indexed):
    """An evaluation report's fields, timing aside, from each query's
    `gated_query` result and the (id, label) pairs of the index, by four
    cases: a rejected query of an indexed label scores AP 0.0, a passed one
    the AP of its ranking; a distractor (a label not indexed) scores None
    and counts as a correct rejection if rejected, a false positive if not."""
    relevant = {}
    for rid, label in indexed:
        relevant.setdefault(label, []).append(rid)
    aps = []
    rejections = correct_rejections = false_positives = 0
    for q, res in zip(queries, results):
        if res.rejected:
            rejections += 1
            if q.label in relevant:
                aps.append(0.0)
            else:
                correct_rejections += 1
                aps.append(None)
        elif q.label in relevant:
            ranked = [rid for rid, _ in res.results]
            aps.append(average_precision_oracle(ranked, relevant[q.label]))
        else:
            false_positives += 1
            aps.append(None)
    included = [a for a in aps if a is not None]
    return {
        "query_ids": [q.id for q in queries],
        "average_precisions": aps,
        "mean_average_precision": sum(included) / len(included) if included else None,
        "bloom_rejections": rejections,
        "correct_rejections": correct_rejections,
        "bloom_false_positives": false_positives,
    }


def mean_same_class_cosine_distance(labels, rows):
    """Mean cosine distance over every unordered pair of rows sharing a
    label, each pair computed on its own from the raw vectors."""
    by_label = {}
    for label, row in zip(labels, rows):
        by_label.setdefault(label, []).append(np.asarray(row, dtype=np.float64))
    total = 0.0
    pairs = 0
    for group in by_label.values():
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                total += cosine_distance(group[i], group[j])
                pairs += 1
    return total / pairs


def cosine_distance(a, b):
    """1 - cos(a, b) of two raw vectors, neither normalized first."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    return 1.0 - np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))


def signature_bits(sig):
    """A signature's bits as a list of bools: bit i at byte i // 8, bit
    position i % 8, least significant first."""
    return [bool((sig.data[i // 8] >> (i % 8)) & 1) for i in range(sig.width)]


def reference_signature(centroids, threshold, x):
    """Signature bytes straight from the definition: bit i set iff
    `np.linalg.norm(C - x, axis=1)[i] < threshold`, over the whole float64
    centroid matrix, packed LSB first."""
    C = np.asarray(centroids, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    bits = np.linalg.norm(C - x, axis=1) < threshold
    return np.packbits(bits, bitorder="little").tobytes()


def reconstruct(model, y):
    """mean + basisᵀy: the inverse of projection on the retained subspace."""
    return model.mean + model.basis.T @ np.asarray(y, dtype=np.float64)


def write_records_v1(path, records, layers):
    """A records.bin v1: "MHIX", the u64 record count, then per record its id
    and label as u16-length-prefixed UTF-8 and per layer a u32 vector width,
    the float32 vector, a u16 signature byte width and the signature."""
    with open(path, "wb") as fh:
        fh.write(b"MHIX" + struct.pack("<Q", len(records)))
        for rec in records:
            for text in (rec.id, rec.label):
                data = text.encode("utf-8")
                fh.write(struct.pack("<H", len(data)) + data)
            for layer in layers:
                vec = np.asarray(rec.compressed[layer], dtype="<f4")
                sig = rec.signatures[layer].data
                fh.write(struct.pack("<I", len(vec)) + vec.tobytes())
                fh.write(struct.pack("<H", len(sig)) + sig)


def write_features_per_record(path, records):
    """An MLHC feature file written record by record, as `write_features`
    was before it cast each layer's column block at once: every record's
    layer set, each layer's shape and its float32 cast checked in record
    order, then every id and label packed, then the file written. Raises
    what `write_features` must raise, for the same record."""
    layers = LAYERS[: len(records[0].features)] if records else ()
    if records and not layers:
        raise InconsistentDimsError(f"record {records[0].id!r} has no layers")
    shapes = [np.shape(records[0].features.get(layer)) for layer in layers]
    rows = []
    with np.errstate(over="raise"):
        for rec in records:
            if rec.features.keys() != set(layers):
                raise InconsistentDimsError(f"record {rec.id!r} layer set differs from header")
            row = []
            for layer, shape in zip(layers, shapes):
                vec = np.asarray(rec.features[layer])
                if vec.shape != shape or len(vec.shape) != 1:
                    raise InconsistentDimsError(
                        f"record {rec.id!r} layer {layer} shape {vec.shape} != {shape}"
                    )
                try:
                    row.append(np.asarray(vec, dtype="<f4").tobytes())
                except FloatingPointError:
                    raise InvalidVectorError(
                        f"record {rec.id!r} layer {layer} holds a value beyond float32"
                    ) from None
            rows.append(b"".join(row))
    heads = []
    for rec in records:
        head = b""
        for name, text in (("id", rec.id), ("label", rec.label)):
            data = text.encode("utf-8")
            if len(data) > MAX_TEXT:
                raise too_long(rec.id, name, len(data))
            head += struct.pack("<H", len(data)) + data
        heads.append(head)
    with open(path, "wb") as fh:
        fh.write(b"MLHC" + struct.pack("<HQB", 1, len(records), len(layers)))
        for (d,) in shapes:
            fh.write(struct.pack("<I", d))
        for head, row in zip(heads, rows):
            fh.write(head + row)


def read_features_per_record(path):
    """An MLHC feature file read record by record, as `read_features` was
    before it gathered one matrix: each record's id and label, its duplicate
    check, then its own float32 array with every NaN made quiet and a view
    of it per layer."""
    r = Reader(Path(path).read_bytes(), "feature file", b"MLHC")
    version, count, layer_count = r.unpack("HQB")
    if version != 1:
        raise DataFormatError(f"unsupported feature file version {version}")
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
        row = r.array("<f4", bounds[-1]).astype(np.float32)
        row[np.isnan(row)] = np.nan
        features = {layer: row[a:b] for layer, a, b in zip(layers, bounds, bounds[1:])}
        records.append(RawRecord(rid, lab, features))
    r.end()
    return records


def filter_positions(bundle, features):
    """Each active layer's bit position for raw query features: projected,
    rounded to float32, signed by `encode_signature` and hashed with the
    layer's seed, every layer before any bit is read."""
    positions = {}
    for layer in bundle.config.active_layers:
        vec = pca.project(bundle.pca_models[layer], features[layer]).astype(np.float32)
        sig = binseq.encode_signature(bundle.dictionaries[layer], vec)
        low, _ = murmur3_x64_128(sig.data, LAYER_SEEDS[layer])
        positions[layer] = low % bundle.filter.m
    return positions


def eager_rejected(bundle, features):
    """Whether the bundle's filter rules the query out: the AND of the bits
    at every active layer's position, read straight from the bit array."""
    bits = bundle.filter.bits
    return not all(
        (bits[pos >> 3] >> (pos & 7)) & 1 for pos in filter_positions(bundle, features).values()
    )


def eager_error(bundle, features):
    """(type, message) of the error a query with every active layer raises
    when all its layers are projected, in layer order, before any is checked
    for a float32 zero; None when it raises none."""
    try:
        vectors = {
            layer: pca.project(bundle.pca_models[layer], features[layer]).astype(np.float32)
            for layer in bundle.config.active_layers
        }
    except ValueError as exc:  # both errors of `project` are ValueErrors
        return type(exc), str(exc)
    for layer, vec in vectors.items():
        if not np.count_nonzero(vec):
            return InvalidVectorError, f"query layer {layer} vector is non-finite or zero"
    return None


def naive_retrieval(index, q, top_k):
    """(id, distance) pairs from the definition of retrieval: every stored
    record's float32 vectors made unit rows by `unit_rows`, in insertion
    order, scored at every stage by the one distance kernel, the stage masks
    ANDed, and every hit sorted by (finest-stage distance, id); the first
    top_k. It reads the record columns only, none of what `freeze()` builds."""
    records = list(index.records)
    if not records:
        return []
    passed = np.ones(len(records), dtype=bool)
    for layer in index.stage_layers():  # coarse to fine: d ends on the finest
        rows = unit_rows([r.compressed[layer] for r in records])
        d = unit_cosine_distances(rows, l2_normalize(q[layer]))
        passed &= d <= index.thresholds.effective(layer)
    hits = sorted((float(d[i]), records[i].id) for i in range(len(records)) if passed[i])
    return [(rid, dist) for dist, rid in hits[:top_k]]


def live_spans(index, qn, geometry):
    """The (start, stop) row spans the staged scan covers for the unit query
    matrix `qn` (one row per stage), from the `index.py` docstring. The rows,
    in the frozen index's row order, must be sorted by their signatures read
    coarse to fine. Each stage in turn adds a level while its signature
    prefixes number at most sqrt(n); when the first stage's do not, one
    bucket on the first stage holds every row. A level's buckets are its
    runs of equal prefixes. A bucket is skipped when
    |q - c| - r > sqrt(2 (t + eps)), eps = 8 (d + 8) 2^-53, at its stage's
    effective threshold t, and live when neither it nor a bucket holding it
    is skipped; the live deepest buckets' rows, merged into runs, are the
    spans. `geometry` gives each level's (centres, radii) in row order, the
    index's own: their bits come from BLAS products, whose summation order
    only the index reproduces. The distance |q - c| is the kernel's per-row
    einsum, as the index computes it."""
    index.freeze()
    n, stages = len(index), index.stage_layers()
    by_id = {r.id: r for r in index.records}
    keys = [tuple(by_id[rid].signatures[l].data for l in stages) for rid in index._row_ids]
    assert keys == sorted(keys), "rows not sorted by their signature prefixes"
    depth = 0
    while depth < len(stages) and len({k[:depth + 1] for k in keys}) ** 2 <= n:
        depth += 1
    lengths = list(range(1, depth + 1)) or [0]  # prefix length per level
    assert len(geometry) == len(lengths), "levels"
    eps = 8 * (qn.shape[1] + 8) * 2.0**-53
    live = {(): True}
    for length, (centres, radii) in zip(lengths, geometry):
        stage = max(length - 1, 0)
        firsts = [i for i in range(n) if i == 0 or keys[i][:length] != keys[i - 1][:length]]
        assert len(firsts) == len(radii), f"buckets at prefix length {length}"
        diff = centres - qn[stage]
        gap = np.sqrt(np.einsum("ij,ij->i", diff, diff)) - radii
        t = index.thresholds.effective(stages[stage])
        bound = math.sqrt(max(2.0 * (t + eps), 0.0))
        for b, i in enumerate(firsts):
            key = keys[i][:length]
            live[key] = live[key[:-1]] and bool(gap[b] <= bound)
    spans = []
    for i, key in enumerate(keys):
        if live[key[:lengths[-1]]]:
            if spans and spans[-1][1] == i:
                spans[-1][1] = i + 1
            else:
                spans.append([i, i + 1])
    return [tuple(span) for span in spans]
