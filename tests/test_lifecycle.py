"""Stateful lifecycle tests: random sequences of the operations an index goes
through, with the invariants checked after every step.

`IndexLifecycle` drives a `HierarchicalIndex` directly: `add`, `freeze`, a
threshold-scale change, a `save_records` / `load_records` round trip and
queries. Its records are 6-d, with each layer's signature drawn from a pool
of three, so bucket levels form and prune; spreads of 0 and 1e-9 make
buckets of identical and nearly identical rows.

`PipelineLifecycle` drives a trained bundle: `add_record`, `gated_query`, a
threshold-scale change and a `save_index_dir` / `load_index_dir` round trip,
and checks that every stored record passes the filter. Its gate rule queries
a stored record, a perturbed one or a foreign one, and checks the filter's
verdict against one that signs every layer first.

Both run derandomized and with no example database, so a run is
reproducible and writes nothing into the repository.
"""

from __future__ import annotations

import copy
import dataclasses
import shutil
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from bloomretrieval import pipeline as pl
from bloomretrieval.binseq import BinarySignature
from bloomretrieval.index import (
    FeatureRecord,
    HierarchicalIndex,
    ThresholdSet,
    brute_force_scan,
    load_records,
    query_hierarchical,
    save_records,
)

from oracles import eager_rejected

LAYERS3 = ("L1", "L2", "L3")
DIM = 6
SIGNATURES = [BinarySignature(width=8, data=bytes([b])) for b in (0x01, 0x06, 0xF0)]
SPREADS = st.sampled_from([0.0, 1e-9, 1e-3, 0.3, 1.0])
SCALES = st.sampled_from([0.25, 0.5, 1.0, 2.0, 8.0])
CENTRES = {
    layer: np.random.default_rng(i).normal(size=(3, DIM)) for i, layer in enumerate(LAYERS3)
}

STATEFUL = settings(
    derandomize=True, database=None, deadline=None, max_examples=150, stateful_step_count=40
)


def draw_vectors(centre: int, spread: float, seed: int) -> dict[str, np.ndarray]:
    """One vector per layer: a pooled centre plus `spread` times noise."""
    rng = np.random.default_rng(seed)
    return {
        layer: (CENTRES[layer][centre] + spread * rng.normal(size=DIM)).astype(np.float32)
        for layer in LAYERS3
    }


def stored(idx: HierarchicalIndex) -> list[tuple]:
    """Every record as (id, label, vector bytes, signature bytes) per layer,
    in the index's order."""
    return [
        (
            r.id,
            r.label,
            tuple(np.asarray(r.compressed[l], dtype=np.float32).tobytes() for l in idx.layers),
            tuple(r.signatures[l].data for l in idx.layers),
        )
        for r in idx.records
    ]


class IndexLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp())
        ts = ThresholdSet(thresholds={"L1": 0.3, "L2": 0.2, "L3": 0.1})
        self.idx = HierarchicalIndex(LAYERS3, ts)
        self.expected: list[tuple] = []
        self.answers: dict[tuple, list] = {}

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    @rule(
        sigs=st.tuples(*[st.integers(0, 2)] * 3),
        centre=st.integers(0, 2),
        spread=SPREADS,
        seed=st.integers(0, 2**16),
    )
    def add(self, sigs, centre, spread, seed):
        rid = f"r{len(self.expected):04d}"
        vectors = draw_vectors(centre, spread, seed)
        signatures = {l: SIGNATURES[s] for l, s in zip(LAYERS3, sigs)}
        self.idx.add(FeatureRecord(rid, f"c{centre}", vectors, signatures))
        self.expected.append(
            (
                rid,
                f"c{centre}",
                tuple(vectors[l].tobytes() for l in LAYERS3),
                tuple(signatures[l].data for l in LAYERS3),
            )
        )
        self.answers.clear()

    @rule()
    def freeze(self):
        self.idx.freeze()

    @rule(layer=st.sampled_from(LAYERS3), scale=SCALES)
    def scale(self, layer, scale):
        self.idx.thresholds.scales[layer] = scale
        self.answers.clear()

    @rule()
    def round_trip(self):
        path = self.dir / "records.bin"
        save_records(path, self.idx)
        back = load_records(path, HierarchicalIndex(LAYERS3, self.idx.thresholds), DIM, 8)
        assert stored(back) == stored(self.idx)
        self.idx = back

    @rule(
        centre=st.integers(0, 2),
        spread=SPREADS,
        seed=st.integers(0, 2**16),
        top_k=st.integers(1, 12),
    )
    def query(self, centre, spread, seed, top_k):
        q = draw_vectors(centre, spread, seed)
        staged = query_hierarchical(self.idx, q, top_k)
        assert staged == brute_force_scan(self.idx, q, top_k)
        key = (centre, spread, seed, top_k)
        assert self.answers.setdefault(key, staged) == staged

    @invariant()
    def records_in_insertion_order(self):
        assert len(self.idx) == len(self.expected)
        assert stored(self.idx) == self.expected


TestIndexLifecycle = IndexLifecycle.TestCase
TestIndexLifecycle.settings = STATEFUL


def _trained():
    """A bundle trained on 5 classes of 20 records, the 60 held-out and
    indexable raw records its pipeline rules draw from, and 12 records from
    other centres, never indexed."""
    root = Path(tempfile.mkdtemp())
    try:
        feats, extra, foreign = root / "feats.mlhc", root / "extra.mlhc", root / "foreign.mlhc"
        pl.synth_generate(5, 20, (24, 24, 24), 0.1, 11, feats, 12, extra)
        pl.synth_generate(3, 4, (24, 24, 24), 0.1, 99, foreign)
        config = pl.PipelineConfig(
            pca_dim=8, centroid_count=16, binseq_threshold=10.0, rng_seed=123, top_k=10
        )
        bundle = pl.train(config, pl.read_features(feats))
        return bundle, pl.read_features(extra), pl.read_features(foreign)
    finally:
        shutil.rmtree(root)


BUNDLE, RAWS, FOREIGN = _trained()


class PipelineLifecycle(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp())
        self.bundle = copy.deepcopy(BUNDLE)
        self.index = self.bundle.new_index()
        self.added: list[str] = []
        self.answers: dict[tuple, pl.QueryResult] = {}

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    @precondition(lambda self: len(self.added) < len(RAWS))
    @rule(data=st.data())
    def add_record(self, data):
        added = set(self.added)
        raw = data.draw(st.sampled_from([r for r in RAWS if r.id not in added]))
        pl.add_record(self.bundle, self.index, raw)
        self.added.append(raw.id)
        self.answers.clear()

    @rule()
    def freeze(self):
        self.index.freeze()

    @rule(layer=st.sampled_from(LAYERS3), scale=SCALES)
    def scale(self, layer, scale):
        scales = {**self.bundle.config.threshold_scales, layer: scale}
        self.bundle.config = dataclasses.replace(self.bundle.config, threshold_scales=scales)
        self.bundle.thresholds.scales = dict(scales)
        self.answers.clear()

    @rule()
    def round_trip(self):
        before = stored(self.index)
        pl.save_index_dir(self.dir / "idx", self.bundle, self.index)
        self.bundle, self.index = pl.load_index_dir(self.dir / "idx")
        assert stored(self.index) == before

    @rule(which=st.integers(0, len(RAWS) - 1), top_k=st.integers(1, 12))
    def query(self, which, top_k):
        raw = RAWS[which]
        result = pl.gated_query(self.bundle, self.index, raw.features, top_k)
        if not result.rejected:
            q = pl.compress_record(self.bundle, raw).compressed
            assert result.results == brute_force_scan(self.index, q, top_k)
            assert result.results == query_hierarchical(self.index, q, top_k)
        key = (which, top_k)
        assert self.answers.setdefault(key, result) == result

    @rule(data=st.data(), noise=st.sampled_from([0.0, 1e-3, 0.3, 3.0]), top_k=st.integers(1, 12))
    def gate(self, data, noise, top_k):
        # noise 0 on a stored record queries it as stored
        added = set(self.added)
        raw = data.draw(st.sampled_from(FOREIGN + [r for r in RAWS if r.id in added]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**16)))
        features = {l: v + noise * rng.normal(size=v.shape) for l, v in raw.features.items()}
        result = pl.gated_query(self.bundle, self.index, features, top_k)
        assert result.rejected == eager_rejected(self.bundle, features)
        if not result.rejected:
            q = pl.compress_record(self.bundle, pl.RawRecord("q", "", features)).compressed
            assert result.results == query_hierarchical(self.index, q, top_k)

    @invariant()
    def every_stored_record_passes_the_filter(self):
        records = self.index.records
        assert [r.id for r in records] == self.added
        assert self.bundle.filter.inserted_count == len(records)
        for r in records:
            assert self.bundle.filter.query(r.signatures)


TestPipelineLifecycle = PipelineLifecycle.TestCase
TestPipelineLifecycle.settings = settings(STATEFUL, max_examples=40, stateful_step_count=30)
