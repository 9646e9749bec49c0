"""Hierarchical per-layer store and coarse-to-fine retrieval.

The store is columnar and keeps insertion order: ids and labels as lists,
and per active layer one float32 matrix of compressed vectors (the
precision the record store persists) and one packed uint8 matrix of binary
signatures, grown by doubling as records are added. Every layer has one
vector width and one signature width, the widths the record store reads
back. `records` builds `FeatureRecord`s from these columns only when it is
read. Freezing the index gathers, in blocks of rows, one contiguous float64
matrix of unit rows for the finest stage (L1), the only stage that scans
spans, and keeps only each row's float64 norm for each coarser stage
(below). Retrieval filters candidates layer by layer, coarse to fine as the
paper orders the hierarchy (L3 first, L1 last), against calibrated cosine
thresholds: a row is a hit when it passes every stage, and the hits are
ranked by the finest (L1) distance.

Both retrieval paths are one scan over spans of rows. It ranks on the
finest stage first: the L1 stage scores each span as a view of its
layer's matrix and keeps the rows within its threshold. Those candidates
are then taken nearest first, in batches cut at a distance: first every
row at or under the 2 top_k-th smallest L1 distance, ties included, then
batches twice as deep. Only a batch's rows are scored at the coarser
stages (L3, L2), each row once per stage, and the scan stops as soon as
top_k rows have passed every stage or no candidate is left. That is exact:
every row outside the batches taken is farther on L1 than every row inside
them, so it ranks after the top_k rows already found, and a tie at a cut
falls inside the batch. The brute-force path, the staged path's test oracle
and timing baseline, scans the one span of every row; the staged path scans
only the rows of the buckets no stage can skip (below). So the staged
output is exactly the brute-force output, and their identity tests the
pruning alone. That holds because the one distance kernel,
`unit_cosine_distances`, gives a row the same bits in a span, or gathered
into a batch, as in the whole matrix: its einsum takes each row's dot
product on its own, where a BLAS product would not (its blocking changes
the summation order), and the two paths would disagree in the last bit at
a threshold. `unit_rows` takes its norms from the same per-row einsum, so a
vector normalised alone or inside a matrix gets the same bits; a query's
stages are normalised as one matrix. Both compute in float64 although the
record store holds float32: the extra precision keeps the distance
accumulation stable, and the bound below is for it.

A coarser stage's unit rows are made only when a batch, or at `freeze()` a
bucket, needs them: its float32 rows, gathered by insertion position,
widened and divided by the norms `freeze()` cached from the same per-row
einsum. Widening is exact and `_normalise` divides by those very norms, so
a rebuilt row has `_normalise`'s bits, and the index holds one n x d
float64 matrix instead of one per stage.

Buckets. Each layer's signature is the paper's neural hash of that layer,
and coarse to fine the hashes nest: `freeze()` groups the rows by their
signature prefix at each stage, (L3), then (L3, L2), then (L3, L2, L1), one
level of buckets per stage. It sorts the rows once, stably, by their packed
signatures read in stage order (`bloom.coarse_to_fine`), so each level's
buckets are the runs of rows whose prefix bytes are equal, nested inside the
runs of the level above, and the rows of a deepest bucket stay in insertion
order. A bucket holds a centre c, the mean of its unit rows on its own
stage's layer, and a radius r >= max |u - c| on that layer. For unit rows
the kernel's distance 1 - u.q equals |u - q|^2 / 2, and
|u - q| >= |q - c| - r for every row u of the bucket.
So a bucket with

    |q - c| - r > sqrt(2 (t + eps))

holds no row within its stage's effective threshold t: none of its rows
survives that stage. A bucket is live when its own bound passes and the
bucket holding it a level up is live. `freeze()` builds one table of every
level's buckets straight from the level cuts: each level's cuts, every
bucket's c, r and stage, and each bucket's parent, and one pass over it
tests every bound at once. The staged path scans the runs of the deepest
level's live buckets. A row it skips fails some stage, so the full scan
would not have kept it either. t is read at query time, so a threshold
scale changed after `freeze()` is obeyed. A stage with more than sqrt(n)
distinct prefixes adds no level, and neither does any later one: the
per-bucket bounds would cost about as much as the scan they save. An index
with more than sqrt(n) distinct L3 signatures therefore keeps one level of
one bucket, cut at [0, n], over the same sorted rows, and runs the same
code. When no bucket is skipped the staged path scans the one span of
every row, as the brute-force path does. The columns and the record store
keep insertion order; only the finest stage's unit rows, the coarser
stages' norms and the row-to-id list are in bucket order, and ranking ties
break by id, so the order changes no answer.

eps bounds the rounding of the kernel and of c and r on a level's layer;
nothing in it depends on the layer but the width d of its rows, and every
layer has the one width d, so one eps serves every level. Let u = 2^-53.
`unit_rows` leaves |u.u - 1| <= (d + 5)u, so the exact 1 - u.q is at least
|u - q|^2 / 2 - (d + 5)u, and the kernel's dot product and subtraction lose
at most (2d + 3)u more. The skip test's own terms (|q - c|, r and the
square root, each at most about 2) carry at most (d + 17)u of error, which
costs at most 2(d + 17)u in |u - q|^2 / 2. The sum, (5d + 42)u, is below
eps = 8(d + 8)u, about 1.2e-13 at d = 128. The radius is taken as
sqrt(1 + c.c - 2 min u.c + eps) for the stored c, whatever its rounding; the
expansion errs by at most (4d + 20)u in any summation order of the d-term
dot products, so BLAS may compute c and u.c, and the added eps makes r an
upper bound. For t >= 2 the bound exceeds 2 by more than |q - c| - r can,
so no bucket is skipped where the kernel's clip at 2 would pass every row.

Each layer's threshold is calibrated as the mean cosine distance over all
same-class pairs of training vectors. It is computed in closed form from
each class's sum of unit rows (`unit_rows`, the normalisation the index
uses), so no pair is visited.

The record store, records.bin v2, holds the columns as raw arrays, so a
load reads each with `np.frombuffer` and checks it in one pass. All
integers are little-endian:

    "MHIX", u64 2^64 - 1 (where v1 held its record count), u16 version 2,
    u16 layer count, u64 record count n;
    per layer: u32 vector width d, u32 signature byte width s;
    per layer: the n x d float32 vector matrix;
    n u32 id end offsets, then n u32 label end offsets;
    per layer: the n x s signature matrix;
    the ids' UTF-8 bytes, then the labels'.

The arrays of 4-byte values come first, so they are aligned in memory. An
empty store gives widths of 0. An id or label of more than 65,535 UTF-8
bytes, the most a feature file can hold, raises `DataFormatError` before
the file is opened. A store without the v2 mark, a v1 store as written
before v2, raises `DataFormatError` naming version 1.
"""

from __future__ import annotations

import math
import struct
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from .binio import MAX_TEXT, Reader, too_long
from .binseq import BinarySignature
from .bloom import coarse_to_fine
from .errors import (
    ConfigMismatchError,
    DataFormatError,
    DimensionMismatchError,
    DuplicateIdError,
    InconsistentDimsError,
    InvalidVectorError,
)

_MAGIC = b"MHIX"
# where v1 held its record count, so any other value marks a v1 store
_V2_MARK = 2**64 - 1
_VERSION = 2
# the rows freeze() makes float64 at a time
_BLOCK = 256

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
    return _normalise(m)


def _row_norms(m: np.ndarray) -> np.ndarray:
    """The L2 norm of each row of a float64 matrix, each its own row's
    einsum, so a row gets the same bits in any block of rows."""
    return np.sqrt(np.einsum("ij,ij->i", m, m))


def _normalise(m: np.ndarray, name=lambda i: f"row {i}") -> np.ndarray:
    """`unit_rows` in place on a float64 matrix, each row divided by its
    `_row_norms`. The error names the first bad row by `name(i)`."""
    norms = _row_norms(m)
    usable = (norms > 0.0) & (norms < np.inf)  # False for NaN
    if not usable.all():
        bad = int(np.argmin(usable))
        raise InvalidVectorError(f"{name(bad)} is non-finite or zero, or its norm overflows")
    m /= norms[:, None]
    return m


def _unit_gather(matrix: np.ndarray, order: np.ndarray) -> np.ndarray:
    """`unit_rows(matrix[order])`, gathered and scaled _BLOCK rows at a time
    into the float64 result, so no whole-matrix temporary is made."""
    out = np.empty((len(order), matrix.shape[1]))
    for start in range(0, len(order), _BLOCK):
        block = out[start:start + _BLOCK]
        block[...] = matrix[order[start:start + _BLOCK]]
        _normalise(block)
    return out


def _gathered_norms(matrix: np.ndarray, order: np.ndarray) -> np.ndarray:
    """`_row_norms` of the rows matrix[order] widened to float64, taken
    _BLOCK rows at a time in the matrix's own order, so no whole-matrix
    temporary is made."""
    norms = [
        _row_norms(matrix[start:start + _BLOCK].astype(np.float64))
        for start in range(0, len(matrix), _BLOCK)
    ]
    return np.concatenate(norms)[order]


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
    # np.clip's bits, at half its cost: the two differ only at -0.0, which
    # 1.0 - x never gives
    np.maximum(d, 0.0, out=d)
    np.minimum(d, 2.0, out=d)
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
    """Every level's buckets in one table, level after level, so one pass
    tests every bound: each level's `cuts` (its bucket b is rows cuts[b] up
    to cuts[b + 1] in bucket order), every bucket's `centres` and
    `radii` on its stage's layer and its `stage` (its level's index), per
    level after the first its (start, stop) in the table and its buckets'
    parents as table rows (`chain`), and the skip test's rounding bound
    `eps` for the one row width d (see the module docstring)."""

    cuts: tuple[np.ndarray, ...]
    centres: np.ndarray
    radii: np.ndarray
    stage: np.ndarray
    chain: tuple[tuple[int, int, np.ndarray], ...]
    eps: float

    @classmethod
    def build(cls, units: Sequence[Callable[[slice], np.ndarray]], cuts: Sequence[np.ndarray],
              width: int) -> "Buckets":
        """Level i's buckets of the unit rows, `width` wide, that `units[i]`
        makes for a slice of row positions, split at `cuts[i]`, each level
        nested in the one above. A bucket's rows are made _BLOCK at a time,
        so no n x d temporary is: its centre sums the blocks, and each
        radius comes from one dot product per row."""
        centres, nearest = [], []
        for unit, bounds in zip(units, cuts):
            for start, stop in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                # two BLAS products a block while it is in cache; r bounds any
                # c, and their summation order is within eps (module docstring)
                pieces = [slice(a, min(a + _BLOCK, stop)) for a in range(start, stop, _BLOCK)]
                weight = np.full(min(stop - start, _BLOCK), 1.0 / (stop - start))
                first = unit(pieces[0])
                centre = weight[:len(first)] @ first
                for piece in pieces[1:]:
                    block = unit(piece)
                    centre = centre + weight[:len(block)] @ block
                # a bucket of one block is made once, a larger one again
                blocks = [first] if len(pieces) == 1 else map(unit, pieces)
                centres.append(centre)
                nearest.append(min((block @ centre).min() for block in blocks))
        centres = np.array(centres)
        eps = 8 * (width + 8) * 2.0**-53
        reach = 1.0 + np.einsum("ij,ij->i", centres, centres) - 2.0 * np.array(nearest)
        sizes = [len(bounds) - 1 for bounds in cuts]
        starts = np.cumsum([0] + sizes).tolist()
        chain = tuple(
            (starts[i], starts[i + 1],
             np.searchsorted(cuts[i - 1], cuts[i][:-1], side="right") - 1 + starts[i - 1])
            for i in range(1, len(cuts))
        )
        radii = np.sqrt(np.maximum(reach, 0.0) + eps)
        return cls(tuple(cuts), centres, radii, np.repeat(np.arange(len(cuts)), sizes), chain, eps)


class Records(Sequence):
    """An index's records in insertion order, as they stood when it was
    read: each `FeatureRecord` is built from the columns when it is read,
    its vectors read-only views of the layer matrices."""

    def __init__(self, index: "HierarchicalIndex"):
        self._n = len(index)
        self._ids, self._labels = index._ids, index._labels  # appended to only
        self._bits, self._columns = index._sig_bits, []
        for layer, vectors in index._vectors.items():
            vectors = vectors[:self._n].view()
            vectors.flags.writeable = False
            self._columns.append((layer, vectors, index._signatures[layer][:self._n]))

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[j] for j in range(*i.indices(self._n))]
        i = range(self._n)[i]
        vectors, signatures = {}, {}
        for layer, matrix, sigs in self._columns:
            vectors[layer] = matrix[i]
            signatures[layer] = BinarySignature(self._bits, sigs[i].tobytes())
        return FeatureRecord(self._ids[i], self._labels[i], vectors, signatures)


class HierarchicalIndex:
    """Append-then-freeze columnar store; frozen indices serve concurrent
    queries. Records are held by column, in insertion order: ids and labels
    as lists, and per layer a float32 vector matrix and a packed uint8
    signature matrix whose first len(self) rows are the records'."""

    def __init__(self, layers, thresholds: ThresholdSet):
        self.layers = tuple(layers)
        self._stages = coarse_to_fine(self.layers)
        self._layer_set = frozenset(self.layers)  # what `add` compares key views with
        self.thresholds = thresholds
        self._ids: list[str] = []
        self._labels: list[str] = []
        self._id_set: set[str] = set()
        # from the first record: every layer's signature bits; the vector
        # width is the matrices'
        self._sig_bits = 0
        self._vectors: dict[str, np.ndarray] = {}
        self._signatures: dict[str, np.ndarray] = {}
        # built by freeze(), all in bucket order: the finest stage's unit
        # rows, each coarser stage's row norms, each row's insertion
        # position and id; None buckets until then
        self._rows: np.ndarray | None = None
        self._norms: dict[str, np.ndarray] = {}
        self._order = np.empty(0, dtype=np.intp)
        self._row_ids: list[str] = []
        self._buckets: Buckets | None = None

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def ids(self) -> tuple[str, ...]:
        return tuple(self._ids)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._labels)

    @property
    def records(self) -> "Records":
        """The records in insertion order, as they stand now."""
        return Records(self)

    @np.errstate(invalid="ignore", over="ignore")
    def add(self, record: FeatureRecord) -> None:
        """Append a record, its vectors cast to float32 as the record store
        holds them; rejects one that would poison a layer matrix or the store.
        Checked in this order: the record's layer sets, then each layer's
        vector shape and signature width against the index's (or the first
        layer's of the first record), then `_append`'s duplicate id and
        norms; nothing is stored until every check passes. A cast that
        overflows float32 or widens a signalling NaN is refused as any Inf
        or NaN is, not warned about."""
        layers = self._layer_set
        if record.compressed.keys() != layers or record.signatures.keys() != layers:
            raise ConfigMismatchError(
                f"record vector layers {sorted(record.compressed)} and signature "
                f"layers {sorted(record.signatures)} != index layers {sorted(self.layers)}"
            )
        # one vector width and one signature width for every layer: the
        # index's, or the first layer's of the first record
        first = self.layers[0]
        if self._vectors:
            shape, bits = self._vectors[first].shape[1:], self._sig_bits
        else:
            shape, bits = np.shape(record.compressed[first]), record.signatures[first].width
        vectors, signatures = [], []
        for layer in self.layers:
            vec = np.asarray(record.compressed[layer], dtype=np.float32)
            if vec.ndim != 1 or vec.shape != shape:
                raise InconsistentDimsError(
                    f"record {record.id!r} layer {layer} shape {vec.shape} != {shape}"
                )
            sig = record.signatures[layer]
            if sig.width != bits:
                raise InconsistentDimsError(
                    f"record {record.id!r} layer {layer} signature is "
                    f"{sig.width} bits, not {bits}"
                )
            vectors.append(vec)
            signatures.append(sig.data)
        vectors = np.array(vectors)
        wide = vectors.astype(np.float64)
        packed = np.frombuffer(b"".join(signatures), np.uint8)
        packed = packed.reshape(len(vectors), (bits + 7) // 8)
        sq = np.einsum("ij,ij->i", wide, wide).tolist()
        self._append(record.id, record.label, vectors, sq, packed, bits)

    def _append(self, rid: str, label: str, vectors: np.ndarray, sq: list[float],
                signatures: np.ndarray, bits: int) -> None:
        """Store a record whose layers are as wide as the index's: row i of
        the float32 `vectors` and of the packed `signatures` (`bits` bits
        each) is layer i's, and sq[i] that row's float64 squared norm.
        Raises `DuplicateIdError` for a stored id, then `InvalidVectorError`
        for the first layer whose norm is not finite and > 0; nothing is
        stored until both pass."""
        if rid in self._id_set:
            raise DuplicateIdError(f"duplicate record id {rid!r}")
        for layer, norm in zip(self.layers, sq):
            if not 0.0 < norm < math.inf:
                raise InvalidVectorError(
                    f"record {rid!r} layer {layer} vector is non-finite or has zero norm"
                )
        n = len(self)
        if not self._vectors:
            self._sig_bits = bits
            for layer in self.layers:
                self._vectors[layer] = np.empty((0, vectors.shape[1]), np.float32)
                self._signatures[layer] = np.empty((0, signatures.shape[1]), np.uint8)
        if n == len(self._vectors[self.layers[0]]):
            self._reserve(n + 1)
        for layer, vec, sig in zip(self.layers, vectors, signatures):
            self._vectors[layer][n] = vec
            self._signatures[layer][n] = sig
        self._ids.append(rid)
        self._labels.append(label)
        self._id_set.add(rid)
        self._rows = self._buckets = None

    def _reserve(self, rows: int) -> None:
        """Grow every matrix to at least `rows` rows, at least doubling it."""
        n = len(self)
        for store in (self._vectors, self._signatures):
            for layer, m in store.items():
                grown = np.empty((max(rows, 2 * len(m)), m.shape[1]), m.dtype)
                grown[:n] = m[:n]
                store[layer] = grown

    def _fill(self, ids: list[str], labels: list[str], vectors, signatures, sig_width: int):
        """Take a record store's columns, as `load_records` reads them, into
        this empty index, with one check per column: every id unique, and
        every vector finite and not all zero, which is what `add` asks of a
        float32 vector's float64 squared norm."""
        if len(self):
            raise ValueError("a record store loads only into an empty index")
        seen = set()
        for rid in ids:
            if rid in seen:
                raise DuplicateIdError(f"duplicate record id {rid!r}")
            seen.add(rid)
        for layer, m in vectors.items():
            # != 0, not count_nonzero: its cast to bool warns on a signalling NaN
            usable = np.isfinite(m).all(axis=1) & (m != 0).any(axis=1)
            if not usable.all():
                raise InvalidVectorError(
                    f"record {ids[int(np.argmin(usable))]!r} layer {layer} vector is "
                    "non-finite or has zero norm"
                )
        if ids:  # an empty store leaves the widths to the first record added
            self._sig_bits = sig_width
            self._vectors, self._signatures = dict(vectors), dict(signatures)
        self._ids, self._labels, self._id_set = list(ids), list(labels), seen
        self._rows = self._buckets = None

    def freeze(self) -> None:
        """Build, in bucket order, the finest stage's unit-row matrix, each
        coarser stage's row norms, the row-to-insertion-position and
        row-to-id lists and the bucket table, once until the next add;
        queries afterwards are read-only."""
        if self._buckets is not None or not len(self):
            return
        stages, n = self._stages, len(self)
        # each row's signature bytes coarse to fine, one column a byte: one
        # stable sort by them lays every level's buckets out as runs nested
        # in the runs of the level above, ties in insertion order
        keys = np.concatenate([self._signatures[layer][:n] for layer in stages], axis=1)
        perm = np.lexsort(keys.T[::-1]) if keys.shape[1] else np.arange(n)
        self._rows = _unit_gather(self._vectors[stages[-1]], perm)
        self._norms = {layer: _gathered_norms(self._vectors[layer][:n], perm) for layer in stages[:-1]}
        self._order, self._row_ids = perm, [self._ids[i] for i in perm.tolist()]
        # a level splits where its prefix changes; one of more than sqrt(n)
        # buckets ends the levels, and if the first does, one bucket is left
        keys = keys[perm]
        split, stop, cuts = np.zeros(n - 1, dtype=bool), 0, []
        for layer in stages:
            start, stop = stop, stop + self._signatures[layer].shape[1]
            split |= (keys[1:, start:stop] != keys[:-1, start:stop]).any(axis=1)
            bounds = np.concatenate(([0], np.flatnonzero(split) + 1, [n]))
            if (len(bounds) - 1) ** 2 > n:
                break
            cuts.append(bounds)
        self._buckets = Buckets.build(  # last: a query that sees it sees the rest
            [partial(self._units, layer) for layer in stages], cuts or [np.array([0, n])], self._rows.shape[1]
        )

    def _units(self, layer: str, rows) -> np.ndarray:
        """The unit rows of `layer` at the row positions `rows` (an index
        array or a slice) of the frozen index. The finest stage's are read
        from its matrix. A coarser stage's are made from its float32 rows,
        gathered by insertion position, widened and divided by their cached
        norms: `_normalise`'s bits (module docstring)."""
        if layer == self._stages[-1]:
            return self._rows[rows]
        vectors = self._vectors[layer].take(self._order[rows], axis=0)
        return np.divide(vectors, self._norms[layer][rows][:, None])

    def _spans(self, qn: np.ndarray):
        """(starts, stops) of the row ranges the staged scan must score for
        the unit query matrix `qn`, one row per stage: the runs of the
        deepest level's buckets that are live at every level, each at its
        stage's effective threshold, read now."""
        table = self._buckets
        bounds = table.cuts[-1]
        # only the stages with a level; a t below -eps keeps no row, and the
        # kernel's distances are >= 0
        bound = np.array([
            math.sqrt(max(2.0 * (self.thresholds.effective(layer) + table.eps), 0.0))
            for layer in self._stages[:len(table.cuts)]
        ])
        diff = table.centres - qn[table.stage]
        gap = np.sqrt(np.einsum("ij,ij->i", diff, diff)) - table.radii
        live = gap <= bound[table.stage]
        for start, stop, parent in table.chain:
            live[start:stop] &= live[parent]
        # a run starts or ends where the deepest level's `live` flips;
        # padding it with False is faster than np.diff's prepend and append
        padded = np.zeros(len(bounds) + 1, dtype=bool)
        padded[1:-1] = live[len(live) + 1 - len(bounds):]
        edges = bounds[np.flatnonzero(padded[1:] != padded[:-1])]
        return edges[0::2], edges[1::2]

    def stage_layers(self) -> tuple[str, ...]:
        """The active layers in retrieval order: coarse to fine."""
        return self._stages


def check_top_k(top_k) -> None:
    """Raise `ValueError` unless top_k is an int >= 1; a bool is not one."""
    if not isinstance(top_k, int) or isinstance(top_k, bool) or top_k < 1:
        raise ValueError(f"top_k must be an int >= 1, got {top_k!r}")


def _prepare(index: HierarchicalIndex, q: dict, top_k) -> np.ndarray:
    """Check a query and top_k against the index, frozen first: the unit
    query matrix, one row per stage, normalised at once. Checked in this
    order, each error naming the first stage's layer that fails it: a query
    vector that is not 1-D raises `ValueError`, one of another width than
    the index's (on an empty index, the first stage's) raises
    `DimensionMismatchError`, and one with no direction raises
    `InvalidVectorError`."""
    check_top_k(top_k)
    if set(q) != set(index.layers):
        raise ConfigMismatchError(
            f"query layers {sorted(q)} != index layers {sorted(index.layers)}"
        )
    # freeze() checks this too; calling it only to build keeps each of its
    # spans in the benchmark's trace a real build, not a per-query no-op
    if index._buckets is None:
        index.freeze()
    stages = index.stage_layers()
    shapes = [np.shape(q[layer]) for layer in stages]
    for layer, shape in zip(stages, shapes):
        if len(shape) != 1:
            raise ValueError(f"query layer {layer}: expected a 1-D vector, got shape {shape}")
    # None: no record to be as wide as
    width = shapes[0][0] if index._rows is None else index._rows.shape[1]
    for layer, (wide,) in zip(stages, shapes):
        if wide != width:
            raise DimensionMismatchError(f"query layer {layer} vector is {wide} wide, not {width}")
    qn = np.array([q[layer] for layer in stages], dtype=np.float64)
    return _normalise(qn, lambda i: f"query layer {stages[i]} vector")


def _scan(index: HierarchicalIndex, qn: np.ndarray, spans, top_k: int):
    """(id, distance) of the rows of the (start, stop) `spans` that pass
    every stage, nearest by the finest stage first, ties by id; at most
    top_k. The finest stage scores each span as a view of its unit rows;
    its candidates are then taken in batches nearest first, and a batch's
    rows are made at each coarser stage from their float32 rows and cached
    norms, scored, and their masks ANDed (module docstring)."""
    *coarse, (_, qf, tf) = [
        (layer, qv, index.thresholds.effective(layer))
        for layer, qv in zip(index.stage_layers(), qn)
    ]
    fine = index._rows
    rows, dists = [], []
    for start, stop in spans:
        d = unit_cosine_distances(fine[start:stop], qf)
        near = np.flatnonzero(d <= tf)
        rows.append(near + start)
        dists.append(d[near])
    if not rows:
        return []
    rows, dists = np.concatenate(rows), np.concatenate(dists)
    hits, found, depth, below = [], 0, 2 * top_k, -1.0  # no distance is below 0
    while found < top_k and below < np.inf:
        # the next batch: every candidate farther than the last cut and at
        # or under this one, so a tie at a cut is in the batch
        cut = np.partition(dists, depth - 1)[depth - 1] if depth < len(dists) else np.inf
        batch = np.flatnonzero((dists > below) & (dists <= cut))
        passed, batch_rows = np.ones(len(batch), dtype=bool), rows[batch]
        for layer, qv, t in coarse:
            passed &= unit_cosine_distances(index._units(layer, batch_rows), qv) <= t
        hits.append(batch[passed])
        found += int(np.count_nonzero(passed))
        depth, below = 2 * depth, cut
    hits = np.concatenate(hits)
    rows, dists = rows[hits], dists[hits]
    if top_k < len(dists):
        # only hits as near as the top_k-th nearest can rank, ties included
        near = dists <= np.partition(dists, top_k - 1)[top_k - 1]
        rows, dists = rows[near], dists[near]
    ranked = sorted(zip(dists.tolist(), (index._row_ids[i] for i in rows.tolist())))
    return [(rid, d) for d, rid in ranked[:top_k]]


def query_hierarchical(
    index: HierarchicalIndex,
    q: dict[str, np.ndarray],
    top_k: int,
) -> list[tuple[str, float]]:
    """Staged filter-then-rank retrieval, the scan over the live spans only;
    at most top_k (id, distance) pairs."""
    qn = _prepare(index, q, top_k)
    return _scan(index, qn, zip(*index._spans(qn)), top_k) if len(index) else []


def brute_force_scan(
    index: HierarchicalIndex,
    q: dict[str, np.ndarray],
    top_k: int,
) -> list[tuple[str, float]]:
    """Unpruned oracle: the same scan over every row, same thresholds."""
    qn = _prepare(index, q, top_k)
    return _scan(index, qn, [(0, len(index))], top_k) if len(index) else []


def save_records(path, index: HierarchicalIndex) -> None:
    """Write the record store as records.bin v2 (module docstring); an
    over-long id or label raises before the file is opened."""
    n = len(index)
    texts = [
        _text_column(index._ids, index._ids, "id"),
        _text_column(index._ids, index._labels, "label"),
    ]
    header = _MAGIC + struct.pack("<QHHQ", _V2_MARK, _VERSION, len(index.layers), n)
    for layer in index.layers:
        m, s = index._vectors.get(layer), index._signatures.get(layer)
        header += struct.pack("<II", *((m.shape[1], s.shape[1]) if n else (0, 0)))
    with open(path, "wb") as fh:
        fh.write(header)
        for m in index._vectors.values():
            fh.write(np.ascontiguousarray(m[:n], "<f4"))
        for ends, _ in texts:
            fh.write(ends)
        for s in index._signatures.values():
            fh.write(s[:n])
        for _, blob in texts:
            fh.write(blob)


def _text_column(ids: list[str], texts: list[str], name: str) -> tuple[np.ndarray, bytes]:
    """(u32 end offsets, UTF-8 blob) of `texts`; raises `too_long` for the
    first one of more than `MAX_TEXT` bytes."""
    data = [t.encode("utf-8") for t in texts]
    lengths = np.array([len(d) for d in data], dtype=np.int64)
    over = np.flatnonzero(lengths > MAX_TEXT)
    if len(over):
        raise too_long(ids[over[0]], name, int(lengths[over[0]]))
    ends = np.cumsum(lengths)
    if len(ends) and ends[-1] > 0xFFFFFFFF:
        raise DataFormatError(f"the {name}s of {len(ends)} records take more than 4 GiB")
    return ends.astype("<u4"), b"".join(data)


def load_records(
    path,
    idx: HierarchicalIndex,
    dim: int,
    sig_width: int,
) -> HierarchicalIndex:
    """Read a records.bin v2 into the empty `idx` and return it, its matrices
    read-only views of the file's bytes. A store without the v2 mark (v1) or
    of any version but 2 raises `DataFormatError` naming the version.
    Every vector must be `dim` wide and every signature `sig_width` bits,
    else `ConfigMismatchError`; `idx._fill` then rejects a duplicate id and a
    poisoned vector."""
    r = Reader(Path(path).read_bytes(), "records file", _MAGIC)
    (mark,) = r.unpack("Q")
    version = r.unpack("H")[0] if mark == _V2_MARK else 1
    if version != _VERSION:
        raise DataFormatError(f"unsupported records file version {version}")
    layers, (count, n) = idx.layers, r.unpack("HQ")
    if count != len(layers):
        raise ConfigMismatchError(f"records file holds {count} layers, the index {len(layers)}")
    widths = [r.unpack("II") for _ in layers]
    for layer, (d, s) in zip(layers, widths if n else []):  # an empty store gives none
        if d != dim:
            raise ConfigMismatchError(f"records file layer {layer} vector is {d} wide, not {dim}")
        if s != (sig_width + 7) // 8:
            raise ConfigMismatchError(f"signature byte width {s} does not fit {sig_width} bits")
    vectors = {l: r.array("<f4", n * w).reshape(n, w) for l, (w, _) in zip(layers, widths)}
    id_ends, label_ends = r.array("<u4", n), r.array("<u4", n)
    signatures = {l: r.array(np.uint8, n * b).reshape(n, b) for l, (_, b) in zip(layers, widths)}
    ids, labels = r.texts(id_ends), r.texts(label_ends)
    r.end()
    idx._fill(ids, labels, vectors, signatures, sig_width)
    return idx
