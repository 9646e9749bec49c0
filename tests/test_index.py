import itertools
import struct
from types import SimpleNamespace

import numpy as np
import pytest

from bloomretrieval import index as index_module
from bloomretrieval.binseq import BinarySignature
from bloomretrieval.errors import (
    ConfigMismatchError,
    DimensionMismatchError,
    DataFormatError,
    DuplicateIdError,
    InconsistentDimsError,
    InvalidVectorError,
    TruncatedFileError,
)
from bloomretrieval.index import (
    THRESHOLD_FLOOR,
    FeatureRecord,
    HierarchicalIndex,
    ThresholdSet,
    brute_force_scan,
    calibrate_thresholds,
    load_records,
    query_hierarchical,
    save_records,
    unit_cosine_distances,
    unit_rows,
)

from oracles import cosine_distance, live_spans, mean_same_class_cosine_distance, naive_retrieval

LAYERS3 = ("L1", "L2", "L3")


def make_record(rid, label, vectors, sig_width=8):
    sig = BinarySignature(width=sig_width, data=b"\x00")
    return FeatureRecord(
        id=rid,
        label=label,
        compressed={l: np.asarray(v, dtype=np.float32) for l, v in vectors.items()},
        signatures={l: sig for l in vectors},
    )


def random_record(rng, rid, label, layers=LAYERS3, dim=6):
    return make_record(rid, label, {l: rng.normal(size=dim) for l in layers})


def calibrate(records, layers=LAYERS3):
    return calibrate_thresholds(
        [r.label for r in records],
        {l: [r.compressed[l] for r in records] for l in layers},
    )


def build_index(records, thresholds, layers=LAYERS3):
    idx = HierarchicalIndex(layers, thresholds)
    for r in records:
        idx.add(r)
    return idx


def tuple_sorted(records):
    """The records in the order `freeze()` lays them out: by their
    signatures' bytes read coarse to fine, ties in insertion order."""
    return sorted(records, key=lambda r: tuple(r.signatures[l].data for l in ("L3", "L2", "L1")))


class TestCalibration:
    def test_identical_pair_clamped_to_floor(self):
        recs = [
            make_record("a", "c", {l: [1.0, 2.0] for l in LAYERS3}),
            make_record("b", "c", {l: [1.0, 2.0] for l in LAYERS3}),
        ]
        ts = calibrate(recs)
        for l in LAYERS3:
            assert ts.thresholds[l] == 1e-6

    def test_orthogonal_pair(self):
        recs = [
            make_record("a", "c", {"L1": [1.0, 0.0], "L2": [1.0, 0.0], "L3": [1.0, 0.0]}),
            make_record("b", "c", {"L1": [1.0, 0.0], "L2": [1.0, 0.0], "L3": [0.0, 1.0]}),
        ]
        ts = calibrate(recs)
        assert ts.thresholds["L3"] == pytest.approx(1.0)

    def test_matches_pair_enumeration(self):
        rng = np.random.default_rng(42)
        small = [random_record(rng, f"{c}-{i}", f"cls{c}") for c in range(3) for i in range(4)]
        # one class of 200 rows beside a pair
        large = [random_record(rng, f"big-{i}", "big") for i in range(200)]
        large += [random_record(rng, f"pair-{i}", "pair") for i in range(2)]
        # near-duplicate rows: mean distance ~1e-5, where c(c-1)/2 and
        # (s.s - sum |u|^2)/2 almost cancel
        base = rng.normal(size=6)
        near = [
            make_record(f"near-{i}", "near", {l: base + 3e-3 * rng.normal(size=6) for l in LAYERS3})
            for i in range(50)
        ]
        for recs in (small, large, near):
            ts = calibrate(recs)
            for layer in LAYERS3:
                expected = mean_same_class_cosine_distance(
                    [r.label for r in recs], [r.compressed[layer] for r in recs]
                )
                # The closed form's rounding error scales with the pair
                # count, not with the distances, so its mean is off by a few
                # ulps of 1 (under 1e-14 on these inputs) however small the
                # distances are; 1e-9 leaves a wide margin.
                assert ts.thresholds[layer] == pytest.approx(expected, abs=1e-9)

    def test_row_count_must_match_labels(self):
        with pytest.raises(ValueError):
            calibrate_thresholds(["c", "c", "c"], {"L1": [[1.0, 0.0], [0.0, 1.0]]})

    def test_no_multi_record_class(self):
        recs = [make_record(str(i), f"cls{i}", {l: [1.0, float(i)] for l in LAYERS3}) for i in range(3)]
        with pytest.raises(ValueError):
            calibrate(recs)


class TestQueries:
    def test_exact_match_single_record(self):
        rng = np.random.default_rng(0)
        rec = random_record(rng, "only", "c")
        ts = ThresholdSet(thresholds={l: 0.5 for l in LAYERS3})
        idx = build_index([rec], ts)
        out = query_hierarchical(idx, rec.compressed, top_k=5)
        assert out == [("only", 0.0)]

    def test_coarse_stage_eliminates_all(self):
        ts = ThresholdSet(thresholds={l: 0.9 for l in LAYERS3})
        rec = make_record("a", "c", {"L1": [1.0, 0.0], "L2": [1.0, 0.0], "L3": [1.0, 0.0]})
        idx = build_index([rec], ts)
        q = {"L1": np.array([1.0, 0.0]), "L2": np.array([1.0, 0.0]), "L3": np.array([0.0, 1.0])}
        assert query_hierarchical(idx, q, top_k=5) == []

    def test_brute_force_empty_index(self):
        ts = ThresholdSet(thresholds={l: 1.0 for l in LAYERS3})
        idx = HierarchicalIndex(LAYERS3, ts)
        q = {l: np.ones(6) for l in LAYERS3}
        assert brute_force_scan(idx, q, top_k=3) == []
        idx.freeze()
        for fn in (query_hierarchical, brute_force_scan):
            assert fn(idx, q, top_k=3) == []

    @pytest.mark.parametrize("top_k", [0, -1, 2.5, True])
    def test_top_k_must_be_positive_int(self, top_k):
        rng = np.random.default_rng(0)
        rec = random_record(rng, "only", "c")
        idx = build_index([rec], ThresholdSet(thresholds={l: 0.5 for l in LAYERS3}))
        for fn in (query_hierarchical, brute_force_scan):
            with pytest.raises(ValueError, match="top_k"):
                fn(idx, rec.compressed, top_k)

    def test_single_record_iff_passes_thresholds(self):
        rng = np.random.default_rng(1)
        rec = random_record(rng, "r", "c")
        for thr in (1e-9, 2.0):
            ts = ThresholdSet(thresholds={l: thr for l in LAYERS3})
            idx = build_index([rec], ts)
            q = {l: rng.normal(size=6) for l in LAYERS3}
            passes = all(
                cosine_distance(q[l], rec.compressed[l]) <= thr for l in LAYERS3
            )
            for fn in (brute_force_scan, query_hierarchical):
                assert bool(fn(idx, q, top_k=1)) == passes

    def test_layer_mismatch(self):
        ts = ThresholdSet(thresholds={l: 1.0 for l in LAYERS3})
        idx = HierarchicalIndex(LAYERS3, ts)
        with pytest.raises(ConfigMismatchError):
            query_hierarchical(idx, {"L1": np.ones(3)}, top_k=1)

    @pytest.mark.parametrize(
        "layers, message",
        [(("X",), r"unknown layers: \['X'\]"), (("L1", "L1"), "repeated layer"), ((), "1 to 3 layers")],
        ids=["unknown", "repeated", "none"],
    )
    def test_layers_checked_at_construction(self, layers, message):
        # as the filter checks them; a query would otherwise fail on a
        # missing stage or count a layer twice
        with pytest.raises(ValueError, match=message):
            HierarchicalIndex(layers, ThresholdSet(thresholds={l: 1.0 for l in LAYERS3}))

    @pytest.mark.parametrize("search", [query_hierarchical, brute_force_scan])
    def test_query_of_other_width_rejected(self, search):
        rng = np.random.default_rng(2)
        idx = build_index([random_record(rng, "x", "c")], ThresholdSet(thresholds={l: 1.0 for l in LAYERS3}))
        q = {"L1": rng.normal(size=6), "L2": rng.normal(size=5), "L3": rng.normal(size=6)}
        with pytest.raises(DimensionMismatchError, match="query layer L2 vector is 5 wide"):
            search(idx, q, top_k=1)

    @pytest.mark.parametrize("search", [query_hierarchical, brute_force_scan])
    def test_zero_query_names_its_layer(self, search):
        rng = np.random.default_rng(2)
        idx = build_index([random_record(rng, "x", "c")], ThresholdSet(thresholds={l: 1.0 for l in LAYERS3}))
        q = {"L1": rng.normal(size=6), "L2": np.zeros(6), "L3": rng.normal(size=6)}
        with pytest.raises(InvalidVectorError, match="query layer L2 vector is non-finite or zero"):
            search(idx, q, top_k=1)

    def test_duplicate_id_rejected(self):
        rng = np.random.default_rng(2)
        ts = ThresholdSet(thresholds={l: 1.0 for l in LAYERS3})
        idx = build_index([random_record(rng, "x", "c")], ts)
        assert [r.id for r in idx.records] == ["x"]
        with pytest.raises(DuplicateIdError):
            idx.add(random_record(rng, "x", "c"))

    def test_signature_layers_must_match(self):
        rng = np.random.default_rng(2)
        idx = HierarchicalIndex(LAYERS3, ThresholdSet(thresholds={l: 1.0 for l in LAYERS3}))
        rec = random_record(rng, "x", "c")
        del rec.signatures["L3"]
        with pytest.raises(ConfigMismatchError, match="signature layers"):
            idx.add(rec)
        assert len(idx) == 0

    def test_signature_byte_width_must_match(self):
        # records.bin holds one signature byte width; the loader rejects a mix
        rng = np.random.default_rng(2)
        idx = build_index([random_record(rng, "a", "c")], ThresholdSet(thresholds={l: 1.0 for l in LAYERS3}))
        wide = random_record(rng, "b", "c")
        wide.signatures["L2"] = BinarySignature(width=16, data=bytes(2))
        with pytest.raises(InconsistentDimsError, match="signature"):
            idx.add(wide)
        assert len(idx) == 1 and [r.id for r in idx.records] == ["a"]

    @pytest.mark.parametrize("part", ["vector", "signature"])
    def test_first_record_of_mixed_widths_rejected(self, tmp_path, part):
        # records.bin is read back at one vector width and one signature
        # width, so an index whose layers differed could be saved but never
        # loaded; later records are held to the first one's widths
        rng = np.random.default_rng(2)
        idx = HierarchicalIndex(LAYERS3, ThresholdSet(thresholds={l: 1.0 for l in LAYERS3}))
        mixed = random_record(rng, "b", "c")
        if part == "vector":
            mixed.compressed["L2"] = rng.normal(size=4).astype(np.float32)
        else:
            mixed.signatures["L2"] = BinarySignature(width=16, data=bytes(2))
        with pytest.raises(InconsistentDimsError, match="layer L2"):
            idx.add(mixed)
        assert len(idx) == 0
        idx.add(random_record(rng, "a", "c"))
        save_records(tmp_path / "records.bin", idx)
        back = load_records(tmp_path / "records.bin", HierarchicalIndex(LAYERS3, idx.thresholds), 6, 8)
        assert back.ids == ("a",)

    @pytest.mark.filterwarnings("error")  # a numpy cast warning is no refusal
    @pytest.mark.parametrize(
        "vector, error",
        [
            ([1.0, np.nan, 0.0, 1.0, 1.0, 1.0], InvalidVectorError),
            ([1.0, -np.inf, 0.0, 1.0, 1.0, 1.0], InvalidVectorError),
            ([0.0] * 6, InvalidVectorError),
            ([1e200] * 6, InvalidVectorError),  # beyond float32, as is its squared norm
            ([1.0] * 5, InconsistentDimsError),
            ([[1.0] * 6], InconsistentDimsError),
            # finite as a float64, inf as the float32 the store holds
            ([1e39] + [1.0] * 5, InvalidVectorError),
            # float32 signalling NaNs, which numpy warns of when widened
            (np.frombuffer(bytes.fromhex("0100807f") * 6, "<f4"), InvalidVectorError),
        ],
    )
    def test_poisoned_vector_rejected(self, vector, error):
        rng = np.random.default_rng(2)
        ts = ThresholdSet(thresholds={l: 2.0 for l in LAYERS3})
        good = random_record(rng, "good", "c")
        idx = build_index([good], ts)
        bad = random_record(rng, "bad", "c")
        bad.compressed["L2"] = np.array(vector)
        with pytest.raises(error, match="record 'bad' layer L2"):
            idx.add(bad)
        assert len(idx) == 1 and [r.id for r in idx.records] == ["good"]
        assert query_hierarchical(idx, good.compressed, 5) == [("good", 0.0)]

    def test_query_after_add_to_frozen_index(self):
        rng = np.random.default_rng(9)
        ts = ThresholdSet(thresholds={l: 2.0 for l in LAYERS3})
        idx = build_index([random_record(rng, "a", "c")], ts)
        idx.freeze()
        rows = idx._rows
        idx.freeze()
        assert idx._rows is rows  # nothing added, nothing rebuilt
        new = random_record(rng, "b", "c")
        idx.add(new)
        for fn in (query_hierarchical, brute_force_scan):
            assert fn(idx, new.compressed, 1) == [("b", 0.0)]


    def test_frozen_rows_are_unit_rows_in_bucket_order(self):
        # more rows than freeze() gathers at once, under three L3 signatures
        # whose first insertions are not in their byte order: the rows are
        # in byte order, each bucket's in insertion order
        rng = np.random.default_rng(12)
        sigs = [BinarySignature(width=8, data=bytes([b])) for b in (0x40, 0x02, 0x10)]
        recs = [
            FeatureRecord(
                f"r{i:04d}", "c", {l: rng.normal(size=6) for l in LAYERS3},
                {l: sigs[int(rng.integers(3))] if l == "L3" else sigs[0] for l in LAYERS3},
            )
            for i in range(700)
        ]
        idx = build_index(recs, ThresholdSet(thresholds={l: 1.0 for l in LAYERS3}))
        idx.freeze()
        first_seen = list(dict.fromkeys(r.signatures["L3"] for r in recs))
        assert first_seen != sorted(first_seen, key=lambda sig: sig.data)
        in_buckets = tuple_sorted(recs)
        assert [idx._ids[i] for i in idx._order] == [r.id for r in in_buckets]
        # the finest stage's matrix, and each coarser stage's rows as a
        # batch makes them, from the float32 rows and the cached norms
        everything = np.arange(len(recs))
        for l in LAYERS3:
            want = unit_rows([r.compressed[l].astype(np.float32) for r in in_buckets])
            got = idx._rows if l == "L1" else idx._units(l, everything)
            assert got.tobytes() == want.tobytes()


class TestEquivalence:
    def test_hierarchical_equals_brute_force_randomized(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            n = int(rng.integers(5, 200))
            thr = float(rng.uniform(0.2, 1.2))
            ts = ThresholdSet(thresholds={l: thr for l in LAYERS3})
            recs = [
                random_record(rng, f"r{i:04d}", f"c{i % 7}") for i in range(n)
            ]
            idx = build_index(recs, ts)
            idx.freeze()
            for _ in range(20):
                q = {l: rng.normal(size=6) for l in LAYERS3}
                k = int(rng.integers(1, n + 5))
                want = naive_retrieval(idx, q, k)
                assert query_hierarchical(idx, q, k) == want
                assert brute_force_scan(idx, q, k) == want

    def test_survivors_shrink_across_stages(self):
        rng = np.random.default_rng(4)
        ts = ThresholdSet(thresholds={l: 0.8 for l in LAYERS3})
        recs = [random_record(rng, f"r{i}", "c") for i in range(100)]
        idx = build_index(recs, ts)
        idx.freeze()
        q = {l: rng.normal(size=6) for l in LAYERS3}

        def survivors(layers):
            out = set()
            for r in recs:
                if all(cosine_distance(q[l], r.compressed[l]) <= 0.8 for l in layers):
                    out.add(r.id)
            return out

        assert survivors(("L3", "L2")) <= survivors(("L3",))
        assert survivors(("L3", "L2", "L1")) <= survivors(("L3", "L2"))

    def test_tie_break_by_id(self):
        vecs = {l: [1.0, 0.0] for l in LAYERS3}
        ts = ThresholdSet(thresholds={l: 0.5 for l in LAYERS3})
        idx = build_index(
            [make_record(rid, "c", vecs) for rid in ("b", "c", "a")], ts
        )
        out = query_hierarchical(idx, {l: np.array([2.0, 0.0]) for l in LAYERS3}, 2)
        assert [rid for rid, _ in out] == ["a", "b"]

    def test_ranking_matches_sorted_oracle(self):
        rng = np.random.default_rng(10)
        recs = [random_record(rng, f"r{i:03d}", "c") for i in range(60)]
        # exact duplicates under other ids tie on every layer
        recs += [make_record(f"d{i:03d}", "c", recs[i].compressed) for i in range(0, 60, 3)]
        ts = ThresholdSet(thresholds={l: 2.0 for l in LAYERS3})
        idx = build_index(recs, ts)
        for _ in range(20):
            q = {l: rng.normal(size=6) for l in LAYERS3}
            q["L1"] = recs[int(rng.integers(60))].compressed["L1"] * 3.0
            k = int(rng.integers(1, 90))
            oracle = sorted((cosine_distance(q["L1"], r.compressed["L1"]), r.id) for r in recs)
            got = query_hierarchical(idx, q, k)
            assert [rid for rid, _ in got] == [rid for _, rid in oracle[:k]]

    def test_raising_scale_keeps_results(self):
        rng = np.random.default_rng(5)
        recs = [random_record(rng, f"r{i}", "c") for i in range(50)]
        q = {l: rng.normal(size=6) for l in LAYERS3}
        base = ThresholdSet(thresholds={l: 0.5 for l in LAYERS3})
        wide = ThresholdSet(
            thresholds={l: 0.5 for l in LAYERS3}, scales={l: 2.0 for l in LAYERS3}
        )
        small = build_index(recs, base)
        big = build_index(recs, wide)
        got_small = {rid for rid, _ in query_hierarchical(small, q, 100)}
        got_big = {rid for rid, _ in query_hierarchical(big, q, 100)}
        assert got_small <= got_big


def same_as_naive(idx, q, ks):
    """Whether both retrieval paths equal the naive oracle at every top_k
    in `ks`, at zero tolerance."""
    return all(
        query_hierarchical(idx, q, k) == brute_force_scan(idx, q, k) == naive_retrieval(idx, q, k)
        for k in ks
    )


def counted_search(monkeypatch, search, idx, q, top_k):
    """(answer, rows the index's distance kernel scored per stage) of one
    search: a kernel call counts for the layer whose unit query vector it
    is given."""
    units = {l: unit_rows([q[l]])[0] for l in idx.stage_layers()}
    rows = dict.fromkeys(units, 0)
    kernel = index_module.unit_cosine_distances

    def counted(matrix, qn):
        rows[next(l for l, u in units.items() if np.array_equal(u, qn))] += len(matrix)
        return kernel(matrix, qn)

    with monkeypatch.context() as m:
        m.setattr(index_module, "unit_cosine_distances", counted)
        return search(idx, q, top_k), rows


class TestFinestStageFirst:
    """The scan ranks the finest stage's candidates and scores the coarser
    stages in batches of the nearest; both paths must equal the naive
    oracle, which scores every row at every stage and sorts every hit."""

    @pytest.mark.parametrize("layers", [LAYERS3, ("L1", "L3"), ("L2",)])
    def test_every_top_k(self, layers):
        # each stage's threshold at the 16th nearest row of 40 on its layer,
        # so with more than one stage every stage drops rows the others keep
        rng = np.random.default_rng(41)
        recs, centres = clustered_records(rng, clusters=4, per=10, spread=0.3)
        recs = [
            FeatureRecord(r.id, r.label, {l: r.compressed[l] for l in layers}, {l: r.signatures[l] for l in layers})
            for r in recs
        ]
        ts = ThresholdSet(thresholds={l: 2.0 for l in layers})
        idx = build_index(recs, ts, layers)
        dropped = 0
        for c in range(4):
            q = {l: centres[c] + 0.3 * rng.normal(size=6) for l in layers}
            for layer in layers:
                ts.thresholds[layer] = float(np.sort(distances(idx, q, layer))[15])
            assert same_as_naive(idx, q, range(1, len(idx) + 2))
            dropped += len(naive_retrieval(idx, q, len(idx))) < 16
        assert dropped == (4 if len(layers) > 1 else 0)

    def test_ties_at_a_batch_cut(self):
        # each vector three times under other ids: every cut at the
        # 2 top_k-th nearest distance falls inside a group of tied rows,
        # and the ids, not the row order, break the tie
        rng = np.random.default_rng(42)
        recs, centres = clustered_records(rng, clusters=3, per=6, copies=3)
        ts = ThresholdSet(thresholds={l: 2.0 for l in LAYERS3})
        idx = build_index(recs, ts)
        for c in range(3):
            q = {l: centres[c] + 0.05 * rng.normal(size=6) for l in LAYERS3}
            for t3 in (2.0, float(np.sort(distances(idx, q))[20])):
                ts.thresholds["L3"] = t3
                assert same_as_naive(idx, q, range(1, len(idx) + 1))
            first = naive_retrieval(idx, q, 3)
            assert len({d for _, d in first}) == 1 and first == sorted(first)

    @pytest.mark.parametrize("layer", ["L3", "L2"])
    def test_batches_grow_past_rows_a_coarse_stage_drops(self, layer):
        # the 12 rows nearest the query on L1 point away from it on `layer`,
        # so the first batches hold no hit and the scan must go deeper
        rng = np.random.default_rng(43)
        q = {l: rng.normal(size=6) for l in LAYERS3}
        recs = []
        for i in range(40):
            near = i < 12
            vecs = {l: q[l] + 0.1 * rng.normal(size=6) for l in LAYERS3}
            vecs["L1"] = q["L1"] + (0.01 if near else 0.5) * rng.normal(size=6)
            vecs[layer] = (-1.0 if near else 1.0) * vecs[layer]
            recs.append(make_record(f"r{i:02d}", "c", vecs))
        idx = build_index(recs, open_but(layer, 0.5))
        assert same_as_naive(idx, q, range(1, 41))
        got = query_hierarchical(idx, q, 5)
        assert len(got) == 5 and all(int(rid[1:]) >= 12 for rid, _ in got)

    def test_no_candidates(self):
        rng = np.random.default_rng(44)
        recs, centres = clustered_records(rng, clusters=2, per=10)
        ts = ThresholdSet(thresholds={l: 2.0 for l in LAYERS3})
        idx = build_index(recs, ts)
        q = {l: centres[0] for l in LAYERS3}
        # no row within the finest threshold, then none past a coarse stage
        for thresholds in ({"L1": -1.0}, {"L1": 2.0, "L3": -1.0}, {"L3": 2.0, "L2": -1.0}):
            ts.thresholds.update(thresholds)
            assert same_as_naive(idx, q, (1, 5, len(idx)))
            assert query_hierarchical(idx, q, len(idx)) == []

    @pytest.mark.parametrize("top_k", [1, 3, 10])
    @pytest.mark.parametrize("search", [query_hierarchical, brute_force_scan])
    def test_coarse_stages_score_only_rows_that_could_rank(self, monkeypatch, search, top_k):
        # every stage open, so every candidate passes: the finest stage
        # scores every row it covers, and the coarser ones only the first
        # batch of 2 top_k rows
        rng = np.random.default_rng(45)
        recs, centres = clustered_records(rng, clusters=4, per=25)
        idx = build_index(recs, ThresholdSet(thresholds={l: 2.0 for l in LAYERS3}))
        for c in range(4):
            q = {l: centres[c] + 0.05 * rng.normal(size=6) for l in LAYERS3}
            covered = rows_scored(idx, q) if search is query_hierarchical else len(idx)
            got, rows = counted_search(monkeypatch, search, idx, q, top_k)
            assert len(got) == top_k
            assert rows == {"L1": covered, "L2": 2 * top_k, "L3": 2 * top_k}


def clustered_records(rng, clusters, per, dim=6, spread=0.05, copies=1):
    """`per` records around each of `clusters` random directions, each
    cluster under its own L3 signature, inserted in shuffled order; each
    vector is repeated `copies` times under other ids."""
    centres = rng.normal(size=(clusters, dim))
    recs = []
    for c in range(clusters):
        sigs = {l: BinarySignature(width=8, data=bytes([c])) for l in LAYERS3}
        for i in range(per):
            vecs = {l: centres[c] + spread * rng.normal(size=dim) for l in LAYERS3}
            for j in range(copies):
                recs.append(FeatureRecord(f"c{c}-{i:03d}-{j}", f"k{c}", vecs, sigs))
    return [recs[i] for i in rng.permutation(len(recs))], centres


def rows_scored(idx, q):
    """How many rows the staged scan covers for q: the rows of the deepest
    level's buckets that no level skips. The finest stage scores each of
    them; a coarser stage scores only those that could rank."""
    idx.freeze()
    starts, stops = idx._spans(unit_rows([q[l] for l in idx.stage_layers()]))
    return int(np.sum(stops - starts))


def levels(idx):
    """The frozen index's bucket table read one level at a time, coarse to
    fine: each level's row `bounds`, its buckets' `centres` and `radii`,
    the bucket of the level above that holds each one (`parent`, read from
    the table's `chain`; 0 at the first level), and the table's one `eps`."""
    idx.freeze()
    table = idx._buckets
    sizes = [len(cuts) - 1 for cuts in table.cuts]
    starts = np.cumsum([0] + sizes).tolist()
    assert [start for start, _, _ in table.chain] == starts[1:-1]
    out = []
    for i, cuts in enumerate(table.cuts):
        own = slice(starts[i], starts[i + 1])
        assert np.all(table.stage[own] == i)
        parent = table.chain[i - 1][2] - starts[i - 1] if i else np.zeros(sizes[0], dtype=int)
        out.append(SimpleNamespace(
            bounds=cuts, centres=table.centres[own], radii=table.radii[own], parent=parent, eps=table.eps,
        ))
    return out


def bucket_unit_rows(idx, layer):
    """`unit_rows` of the stored float32 vectors on `layer`, in the frozen
    index's row order: the definition of what its scan reads."""
    idx.freeze()
    records = idx.records
    return unit_rows([records[i].compressed[layer] for i in idx._order])


def distances(idx, q, layer="L3"):
    """The kernel's distance on `layer` of every row, in row order."""
    return unit_cosine_distances(bucket_unit_rows(idx, layer), unit_rows([q[layer]])[0])


def ulps_around(x, count=3):
    """x and its `count` nearest float64 neighbours on each side."""
    out = [x]
    lo = hi = x
    for _ in range(count):
        lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
        out += [lo, hi]
    return [float(v) for v in out]


class TestBucketPruning:
    """Staged == brute force at zero tolerance where whole L3 buckets are
    skipped; the oracle never prunes."""

    @staticmethod
    def open_later_stages(t3=0.02):
        return ThresholdSet(thresholds={"L3": t3, "L2": 2.0, "L1": 2.0})

    def test_thresholds_at_row_distances_and_bucket_bounds(self):
        rng = np.random.default_rng(21)
        recs, centres = clustered_records(rng, clusters=6, per=8)
        ts = self.open_later_stages()
        idx = build_index(recs, ts)
        idx.freeze()
        assert len(levels(idx)[0].radii) == 6
        skipped = 0
        for c in range(6):
            q = {l: centres[c] + 0.05 * rng.normal(size=6) for l in LAYERS3}
            qn = unit_rows([q["L3"]])[0]
            b = levels(idx)[0]
            diff = b.centres - qn
            gaps = np.sqrt(np.einsum("ij,ij->i", diff, diff)) - b.radii
            # t where each far bucket's skip decision flips, and each row's
            # own distance: both within a few ulps either side
            flips = [g * g / 2 - b.eps for g in gaps if g * g / 2 > b.eps]
            near = np.sort(distances(idx, q))[[0, 3, 7, 8, 20]]
            for t in [v for x in [*flips, *near] for v in ulps_around(float(x))]:
                ts.thresholds["L3"] = t
                assert query_hierarchical(idx, q, 100) == brute_force_scan(idx, q, 100)
                skipped += rows_scored(idx, q) < len(idx)
        assert skipped

    def test_bucket_flips_at_its_bound(self):
        rng = np.random.default_rng(22)
        recs, centres = clustered_records(rng, clusters=4, per=5)
        ts = self.open_later_stages()
        idx = build_index(recs, ts)
        idx.freeze()
        q = {l: centres[0] for l in LAYERS3}
        b = levels(idx)[0]
        diff = b.centres - unit_rows([q["L3"]])[0]
        gap = np.sqrt(np.einsum("ij,ij->i", diff, diff)) - b.radii
        far = int(np.argmax(gap))
        size = int(b.bounds[far + 1] - b.bounds[far])
        flip = float(gap[far] ** 2 / 2 - b.eps)
        below = ulps_around(flip, 3)[1::2]  # lower neighbours, nearest first
        # a threshold just below the flip skips the bucket (the rounding of
        # sqrt may decide at the flip itself); one well above keeps it
        ts.thresholds["L3"] = below[-1]
        assert rows_scored(idx, q) <= len(idx) - size
        ts.thresholds["L3"] = flip * (1 + 1e-9)
        scored_above = rows_scored(idx, q)
        assert scored_above >= size
        for t in ulps_around(flip, 3):
            ts.thresholds["L3"] = t
            assert query_hierarchical(idx, q, 50) == brute_force_scan(idx, q, 50)

    @pytest.mark.parametrize("rho, alpha", [(1e-5, 1e-4), (3e-4, 3e-4), (1e-3, 1e-5)])
    def test_row_at_the_triangle_bound(self, rho, alpha):
        # a bucket of two rows rho either side of e0, and a query alpha
        # beyond one of them on the same great circle: q, the centre and
        # that row are nearly collinear, so |q - c| - r falls short of
        # |q - u| only by the bound's slack and eps
        rng = np.random.default_rng(29)
        e0, e1 = np.linalg.qr(rng.normal(size=(6, 2)))[0].T
        at = lambda a: np.cos(a) * e0 + np.sin(a) * e1
        vectors = [at(rho), at(-rho), -at(0.1), -at(-0.1)]
        recs = [
            FeatureRecord(
                f"r{i}", "c", {l: v for l in LAYERS3},
                {l: BinarySignature(8, bytes([i // 2])) for l in LAYERS3},
            )
            for i, v in enumerate(vectors)
        ]
        ts = self.open_later_stages()
        idx = build_index(recs, ts)
        idx.freeze()
        assert len(levels(idx)[0].radii) == 2
        q = {l: at(rho + alpha) for l in LAYERS3}
        b = levels(idx)[0]
        qn = unit_rows([q["L3"]])[0]
        gap = np.linalg.norm(b.centres[0] - qn) - b.radii[0]
        own = float(distances(idx, q)[0])
        assert 0 < np.sqrt(2 * own) - gap < 1e-8
        for t in ulps_around(own):
            ts.thresholds["L3"] = t
            staged = query_hierarchical(idx, q, 4)
            assert staged == brute_force_scan(idx, q, 4)
            assert [rid for rid, _ in staged] == (["r0"] if t >= own else [])
            assert rows_scored(idx, q) == 2

    def test_buckets_of_identical_rows(self):
        # every bucket's rows are one vector, so r is 0 up to eps; queries
        # sit at tiny angles from a row, down to where the kernel rounds
        # their distance to 0, and t at that row's distance
        rng = np.random.default_rng(23)
        recs, centres = clustered_records(rng, clusters=5, per=1, copies=6)
        ts = self.open_later_stages()
        idx = build_index(recs, ts)
        idx.freeze()
        first = levels(idx)[0]
        assert len(first.radii) == 5
        assert np.all(first.radii <= 2 * np.sqrt(first.eps))
        skipped = 0
        for rec in recs[:10]:
            for angle in (0.0, 1e-9, 1e-8, 1e-7, 1e-4, 1e-2):
                q = {l: rec.compressed[l] + angle * rng.normal(size=6) for l in LAYERS3}
                own = float(np.min(distances(idx, q)))
                for t in ulps_around(own) + [THRESHOLD_FLOOR]:
                    if t < 0:
                        continue
                    ts.thresholds["L3"] = t
                    staged = query_hierarchical(idx, q, 10)
                    assert staged == brute_force_scan(idx, q, 10)
                    assert bool(staged) == (own <= t)
                    skipped += rows_scored(idx, q) < len(idx)
        assert skipped

    def test_single_record_bucket(self):
        rng = np.random.default_rng(24)
        rec = random_record(rng, "only", "c")
        ts = ThresholdSet(thresholds={l: 1e-6 for l in LAYERS3})
        idx = build_index([rec], ts)
        assert query_hierarchical(idx, rec.compressed, 3) == [("only", 0.0)]
        far = {l: -rec.compressed[l] for l in LAYERS3}
        assert rows_scored(idx, far) == 0
        for fn in (query_hierarchical, brute_force_scan):
            assert fn(idx, far, 3) == []

    def test_every_bucket_skipped(self):
        rng = np.random.default_rng(25)
        recs, centres = clustered_records(rng, clusters=4, per=10)
        ts = self.open_later_stages(0.01)
        idx = build_index(recs, ts)
        idx.freeze()
        # the direction farthest from every cluster centre
        q = {l: -centres.sum(axis=0) for l in LAYERS3}
        assert rows_scored(idx, q) == 0
        for fn in (query_hierarchical, brute_force_scan):
            assert fn(idx, q, 10) == []
        # a threshold below 0 passes no row, and its bound is no error
        ts.thresholds["L3"] = -1.0
        on_a_row = recs[0].compressed
        for fn in (query_hierarchical, brute_force_scan):
            assert fn(idx, on_a_row, 10) == []

    def test_scales_changed_after_freeze(self):
        rng = np.random.default_rng(26)
        recs, centres = clustered_records(rng, clusters=6, per=10)
        ts = self.open_later_stages(0.01)
        idx = build_index(recs, ts)
        idx.freeze()
        q = {l: centres[2] + 0.05 * rng.normal(size=6) for l in LAYERS3}
        narrow = rows_scored(idx, q)
        assert narrow < len(idx)
        before = query_hierarchical(idx, q, 100)
        assert before == brute_force_scan(idx, q, 100)
        # a new scales mapping, the way a caller swaps it, with no new freeze
        ts.scales = {"L3": 200.0}
        assert rows_scored(idx, q) == len(idx)
        wide = query_hierarchical(idx, q, 100)
        assert wide == brute_force_scan(idx, q, 100)
        assert len(wide) > len(before)
        ts.scales = {}
        assert query_hierarchical(idx, q, 100) == before

    @pytest.mark.parametrize("signatures, buckets", [(4, 4), (5, 1)])
    def test_sqrt_n_cut(self, signatures, buckets):
        # 16 rows: 4 distinct signatures is sqrt(n) and keeps its buckets,
        # 5 is above it and falls back to one bucket; either way the rows
        # are sorted by their signatures
        rng = np.random.default_rng(27)
        recs, centres = clustered_records(rng, clusters=signatures, per=4)
        recs = recs[:16]
        ts = self.open_later_stages(0.01)
        idx = build_index(recs, ts)
        idx.freeze()
        assert len(levels(idx)[0].radii) == buckets
        # every layer shares the cluster's signature, so every stage adds a
        # level or none does
        assert len(levels(idx)) == (3 if buckets > 1 else 1)
        assert [idx._ids[i] for i in idx._order] == [r.id for r in tuple_sorted(recs)]
        skipped = 0
        for c in range(signatures):
            q = {l: centres[c] + 0.05 * rng.normal(size=6) for l in LAYERS3}
            assert query_hierarchical(idx, q, 20) == brute_force_scan(idx, q, 20)
            skipped += rows_scored(idx, q) < len(idx)
        assert skipped == (signatures if buckets > 1 else 0)

    def test_sqrt_n_cut_at_a_later_stage(self):
        # 16 rows under 2 L3 signatures but 6 (L3, L2) prefixes, more than
        # sqrt(16): the L3 level stays alone, and each of its buckets keeps
        # its rows sorted by the signatures the cut levels would have split on
        rng = np.random.default_rng(30)
        recs, centres = clustered_records(rng, clusters=2, per=8)
        recs = [
            FeatureRecord(r.id, r.label, r.compressed, {**r.signatures, "L2": BinarySignature(8, bytes([i % 3]))})
            for i, r in enumerate(recs)
        ]
        ts = self.open_later_stages(0.01)
        idx = build_index(recs, ts)
        idx.freeze()
        assert [len(level.radii) for level in levels(idx)] == [2]
        assert [idx._ids[i] for i in idx._order] == [r.id for r in tuple_sorted(recs)]
        for c in range(2):
            q = {l: centres[c] + 0.05 * rng.normal(size=6) for l in LAYERS3}
            for t2 in (0.01, 2.0):
                ts.thresholds["L2"] = t2
                assert query_hierarchical(idx, q, 20) == brute_force_scan(idx, q, 20)
                assert rows_scored(idx, q) == 8

    def test_zero_bit_signatures(self):
        # every signature is empty, so every prefix is equal: each stage adds
        # one bucket over the rows in insertion order, and nothing is skipped
        # that a scan would pass
        rng = np.random.default_rng(36)
        empty = BinarySignature(0, b"")
        recs = [
            FeatureRecord(f"z{i:02d}", "c", {l: rng.normal(size=6) for l in LAYERS3}, {l: empty for l in LAYERS3})
            for i in range(20)
        ]
        ts = self.open_later_stages(0.3)
        idx = build_index(recs, ts)
        idx.freeze()
        assert [len(level.radii) for level in levels(idx)] == [1, 1, 1]
        assert [idx._ids[i] for i in idx._order] == [r.id for r in recs]
        for _ in range(10):
            q = {l: rng.normal(size=6) for l in LAYERS3}
            assert query_hierarchical(idx, q, 20) == brute_force_scan(idx, q, 20)
        assert query_hierarchical(idx, recs[3].compressed, 1) == [("z03", 0.0)]

    def test_bucket_order_keeps_record_order(self, tmp_path):
        rng = np.random.default_rng(28)
        recs, _ = clustered_records(rng, clusters=3, per=4)
        idx = build_index(recs, self.open_later_stages())
        idx.freeze()
        assert [r.id for r in idx.records] == [r.id for r in recs]
        assert [idx._ids[i] for i in idx._order] != [r.id for r in recs]
        save_records(tmp_path / "records.bin", idx)
        back = load_records(tmp_path / "records.bin", HierarchicalIndex(LAYERS3, idx.thresholds), 6, 8)
        assert [r.id for r in back.records] == [r.id for r in recs]


def nested_records(rng, shape=(2, 2, 2), per=8, dim=6, spread=0.05, copies=1):
    """`per` records under each signature prefix: shape[0] L3 signatures,
    each over shape[1] L2 ones, each over shape[2] L1 ones. The L2 and L1
    signature values repeat under every parent, so only the prefix tells
    their buckets apart. Each layer's vector lies near a random direction of
    its own prefix; each vector is repeated `copies` times under other ids,
    and the records are inserted in shuffled order. Also returns the
    directions, keyed by (layer, prefix)."""
    directions, recs = {}, []
    for key in np.ndindex(*shape):
        prefixes = {"L3": key[:1], "L2": key[:2], "L1": key}
        sigs = {l: BinarySignature(8, bytes([p[-1]])) for l, p in prefixes.items()}
        for i in range(per):
            vecs = {
                l: directions.setdefault((l, p), rng.normal(size=dim)) + spread * rng.normal(size=dim)
                for l, p in prefixes.items()
            }
            for j in range(copies):
                recs.append(FeatureRecord(f"n{''.join(map(str, key))}-{i:02d}-{j}", "k", vecs, sigs))
    return [recs[i] for i in rng.permutation(len(recs))], directions


def near(rng, directions, key, spread=0.05):
    """A query near the directions of prefix `key` on every layer."""
    prefixes = {"L3": key[:1], "L2": key[:2], "L1": key}
    return {l: directions[(l, p)] + spread * rng.normal(size=6) for l, p in prefixes.items()}


def open_but(layer, t):
    """Thresholds of 2.0, which the bound never skips at, but t on `layer`."""
    return ThresholdSet(thresholds={l: (t if l == layer else 2.0) for l in LAYERS3})


def level_of(idx, layer):
    return levels(idx)[idx.stage_layers().index(layer)]


def gaps(level, qn):
    diff = level.centres - qn
    return np.sqrt(np.einsum("ij,ij->i", diff, diff)) - level.radii


class TestNestedPruning:
    """The L2 and L1 bucket levels nest inside the L3 buckets by signature
    prefix; staged == brute force at zero tolerance where they skip."""

    def test_levels_nest_by_signature_prefix(self):
        rng = np.random.default_rng(31)
        recs, _ = nested_records(rng)
        idx = build_index(recs, open_but("L3", 2.0))
        idx.freeze()
        assert [len(level.radii) for level in levels(idx)] == [2, 4, 8]
        rows = [recs[i] for i in idx._order]
        above = np.array([0, len(recs)])
        for depth, (level, layer) in enumerate(zip(levels(idx), ("L3", "L2", "L1"))):
            assert set(above.tolist()) <= set(level.bounds.tolist())
            for b, (start, stop) in enumerate(zip(level.bounds[:-1], level.bounds[1:])):
                prefix = {tuple(r.signatures[l].data for l in LAYERS3[2 - depth:]) for r in rows[start:stop]}
                assert len(prefix) == 1  # one prefix per bucket, one bucket per prefix
                assert above[level.parent[b]] <= start and stop <= above[level.parent[b] + 1]
                if depth == 2:  # each deepest bucket's rows in insertion order
                    ids = [r.id for r in rows[start:stop]]
                    assert ids == [r.id for r in recs if r.id in set(ids)]
            # buckets in the byte order of their prefixes, read coarse to fine
            firsts = [
                tuple(rows[start].signatures[l].data for l in ("L3", "L2", "L1")[:depth + 1])
                for start in level.bounds[:-1]
            ]
            assert firsts == sorted(set(firsts))
            above = level.bounds
        assert [r.id for r in idx.records] == [r.id for r in recs]

    @pytest.mark.parametrize("layer", ["L2", "L1"])
    def test_thresholds_at_row_distances_and_bucket_bounds(self, layer):
        rng = np.random.default_rng(32)
        recs, directions = nested_records(rng)
        ts = open_but(layer, 2.0)
        idx = build_index(recs, ts)
        level = level_of(idx, layer)
        skipped = 0
        for key in np.ndindex(2, 2, 2):
            q = near(rng, directions, key)
            g = gaps(level, unit_rows([q[layer]])[0])
            flips = [x * x / 2 - level.eps for x in g if x * x / 2 > level.eps]
            closest = np.sort(distances(idx, q, layer))[[0, 3, 7, 8, 20]]
            for t in [v for x in [*flips, *closest] for v in ulps_around(float(x))]:
                ts.thresholds[layer] = t
                assert query_hierarchical(idx, q, 100) == brute_force_scan(idx, q, 100)
                skipped += rows_scored(idx, q) < len(idx)
        assert skipped

    @pytest.mark.parametrize("layer", ["L2", "L1"])
    def test_row_at_the_triangle_bound(self, layer):
        # as the L3 test of that name, on a finer level: two buckets of two
        # rows under one prefix of the stages above
        rng = np.random.default_rng(33)
        e0, e1 = np.linalg.qr(rng.normal(size=(6, 2)))[0].T
        at = lambda a: np.cos(a) * e0 + np.sin(a) * e1
        vectors = [at(1e-5), at(-1e-5), -at(0.1), -at(-0.1)]
        other = rng.normal(size=6)
        recs = [
            FeatureRecord(
                f"r{i}", "c", {l: (v if l == layer else other) for l in LAYERS3},
                {l: BinarySignature(8, bytes([i // 2 if l == layer else 0])) for l in LAYERS3},
            )
            for i, v in enumerate(vectors)
        ]
        ts = open_but(layer, 2.0)
        idx = build_index(recs, ts)
        level = level_of(idx, layer)
        assert len(level.radii) == 2
        q = {l: (at(1e-5 + 1e-4) if l == layer else other) for l in LAYERS3}
        own = float(distances(idx, q, layer)[0])
        assert 0 < np.sqrt(2 * own) - gaps(level, unit_rows([q[layer]])[0])[0] < 1e-8
        for t in ulps_around(own):
            ts.thresholds[layer] = t
            staged = query_hierarchical(idx, q, 4)
            assert staged == brute_force_scan(idx, q, 4)
            assert [rid for rid, _ in staged] == (["r0"] if t >= own else [])
            assert rows_scored(idx, q) == 2

    @pytest.mark.parametrize("layer", ["L2", "L1"])
    def test_buckets_of_identical_rows(self, layer):
        # every row of a bucket is one vector on every layer, so r is 0 up to
        # eps; queries at tiny angles from a row, t at that row's distance
        rng = np.random.default_rng(34)
        recs, _ = nested_records(rng, per=1, spread=0.0, copies=8)
        ts = open_but(layer, 2.0)
        idx = build_index(recs, ts)
        level = level_of(idx, layer)
        assert len(level.radii) == {"L2": 4, "L1": 8}[layer]
        assert np.all(level.radii <= 2 * np.sqrt(level.eps))
        skipped = 0
        for rec in recs[:10]:
            for angle in (0.0, 1e-9, 1e-8, 1e-7, 1e-4, 1e-2):
                q = dict(rec.compressed)
                q[layer] = q[layer] + angle * rng.normal(size=6)
                own = float(np.min(distances(idx, q, layer)))
                for t in ulps_around(own) + [THRESHOLD_FLOOR]:
                    if t < 0:
                        continue
                    ts.thresholds[layer] = t
                    staged = query_hierarchical(idx, q, 10)
                    assert staged == brute_force_scan(idx, q, 10)
                    assert bool(staged) == (own <= t)
                    skipped += rows_scored(idx, q) < len(idx)
        assert skipped

    @pytest.mark.parametrize("layer, above", [("L2", "L3"), ("L1", "L2"), ("L1", "L3")])
    def test_each_level_reads_its_own_threshold(self, layer, above):
        # a tight stage above and an open one below, and the other way round:
        # a level tested at another stage's threshold would skip rows that pass
        rng = np.random.default_rng(35)
        recs, directions = nested_records(rng)
        ts = open_but(layer, 2.0)
        idx = build_index(recs, ts)
        idx.freeze()
        for key in np.ndindex(2, 2, 2):
            q = near(rng, directions, key)
            for stage in (layer, above):
                for t in np.sort(distances(idx, q, stage))[[0, 7, 15, 31, 40]]:
                    ts.scales = {stage: float(t) / ts.thresholds[stage]}
                    got = query_hierarchical(idx, q, len(idx))
                    assert got and got == brute_force_scan(idx, q, len(idx))
            ts.scales = {}


def only(records, layers):
    """The records with their vectors and signatures of `layers` alone."""
    return [
        FeatureRecord(r.id, r.label, {l: r.compressed[l] for l in layers}, {l: r.signatures[l] for l in layers})
        for r in records
    ]


class TestLiveSpans:
    """`_spans` equals the `live_spans` oracle exactly: on 3, 2 and 1
    layers, with every stage adding a level, a later stage adding none, and
    one bucket over every row; at thresholds within a few ulps of where each
    bucket's skip decision flips; and after a scale change with no new
    freeze."""

    @staticmethod
    def spans(idx, q):
        idx.freeze()
        qn = unit_rows([q[l] for l in idx.stage_layers()])
        starts, stops = idx._spans(qn)
        spans = list(zip(starts.tolist(), stops.tolist()))
        assert spans == live_spans(idx, qn, [(level.centres, level.radii) for level in levels(idx)])
        return tuple(spans)

    @pytest.mark.parametrize("layers", [LAYERS3, ("L1", "L2"), ("L1",)])
    @pytest.mark.parametrize("shape, per, depth", [((2, 2, 2), 8, 3), ((2, 4, 4), 2, 2), ((9, 1, 1), 1, 0)])
    def test_at_each_bucket_flip(self, layers, shape, per, depth):
        rng = np.random.default_rng(37)
        recs, directions = nested_records(rng, shape=shape, per=per)
        ts = ThresholdSet(thresholds=dict.fromkeys(layers, 2.0))
        idx = build_index(only(recs, layers), ts, layers)
        stages = idx.stage_layers()
        if len(layers) == 3:  # the prefixes of the other cases nest differently
            assert len(levels(idx)) == max(depth, 1) and len(levels(idx)[0].radii) == (shape[0] if depth else 1)
        seen = set()
        for key in list(np.ndindex(*shape))[:4]:
            q = near(rng, directions, key)
            qn = unit_rows([q[l] for l in stages])
            # each level's stage at each bucket's flip, the others open
            for stage, level in zip(stages, levels(idx)):
                g = gaps(level, qn[stages.index(stage)])
                for flip in [x * x / 2 - level.eps for x in g if x * x / 2 > level.eps]:
                    for t in ulps_around(float(flip)):
                        ts.thresholds[stage] = t
                        seen.add(self.spans(idx, q))
                ts.thresholds[stage] = 2.0
            # every mix of tight and open stages, so a live bucket can sit
            # under a skipped one
            for mix in itertools.product((0.02, 0.2, 2.0), repeat=len(layers)):
                ts.thresholds.update(zip(stages, mix))
                seen.add(self.spans(idx, q))
            ts.thresholds.update(dict.fromkeys(layers, 2.0))
        assert len(seen) > (1 if depth else 0)

    def test_scales_changed_after_freeze(self):
        rng = np.random.default_rng(38)
        recs, directions = nested_records(rng)
        ts = ThresholdSet(thresholds=dict.fromkeys(LAYERS3, 0.05))
        idx = build_index(recs, ts)
        q = near(rng, directions, (0, 1, 0))
        before = self.spans(idx, q)
        seen = {before}
        for layers in (["L3"], ["L2"], ["L1"], LAYERS3):
            for scale in (0.0, 0.5, 4.0, 40.0):
                # a new scales mapping, the way a caller swaps it
                ts.scales = dict.fromkeys(layers, scale)
                seen.add(self.spans(idx, q))
        ts.scales = {}
        assert self.spans(idx, q) == before
        assert len(seen) > 2


def float64_bytes(value, seen):
    """The bytes of the float64 arrays `value` holds: itself, or reached
    through dicts, lists, tuples and object attributes, each counted once."""
    if id(value) in seen:
        return 0
    seen.add(id(value))
    if isinstance(value, np.ndarray):
        return value.nbytes if value.dtype == np.float64 else 0
    if isinstance(value, dict):
        value = list(value.values())
    elif hasattr(value, "__dict__"):
        value = list(vars(value).values())
    if not isinstance(value, (list, tuple)):
        return 0
    return sum(float64_bytes(v, seen) for v in value)


def signed_records(rng, n, layers, dim=7, kinds=(2, 2, 3)):
    """n records whose L3, L2 and L1 signatures each take one of `kinds`
    values at random, so buckets at each level hold hundreds of rows."""
    records = []
    for i in range(n):
        sigs = {
            l: BinarySignature(width=8, data=bytes([int(rng.integers(k))]))
            for l, k in zip(("L3", "L2", "L1"), kinds) if l in layers
        }
        records.append(FeatureRecord(f"r{i:04d}", "c", {l: rng.normal(size=dim) for l in layers}, sigs))
    return records


class TestRebuiltUnitRows:
    """A coarser stage keeps no float64 matrix: every unit row a batch or the
    bucket build makes from the float32 rows and the cached norms has the
    bits `unit_rows` gives the float32 rows in bucket order, and the bucket
    table equals one built from the whole unit matrices."""

    @staticmethod
    def check(idx):
        idx.freeze()
        n, stages = len(idx), idx.stage_layers()
        full = {l: bucket_unit_rows(idx, l) for l in stages}
        assert idx._rows.tobytes() == full[stages[-1]].tobytes()
        shuffled = np.random.default_rng(0).permutation(n)
        for l in stages:
            for rows in (np.arange(n), shuffled, slice(0, n), slice(n // 3, n - 1)):
                assert idx._units(l, rows).tobytes() == full[l][rows].tobytes()
        table = idx._buckets
        want = index_module.Buckets.build(
            [full[l].__getitem__ for l in stages], table.cuts, full[stages[0]].shape[1]
        )
        assert table.centres.tobytes() == want.centres.tobytes()
        assert table.radii.tobytes() == want.radii.tobytes()
        # and by the definition: each centre the mean of its bucket's unit
        # rows, each radius at least as far as its farthest row
        for layer, level in zip(stages, levels(idx)):
            for b, (start, stop) in enumerate(zip(level.bounds[:-1], level.bounds[1:])):
                members = full[layer][start:stop]
                assert np.allclose(level.centres[b], members.mean(axis=0), rtol=0, atol=1e-12)
                assert level.radii[b] >= np.sqrt(np.max(np.sum((members - level.centres[b]) ** 2, axis=1)))
        return table

    @pytest.mark.parametrize("layers", [LAYERS3, ("L1", "L3"), ("L2",)])
    def test_as_built(self, layers):
        # a level at every stage, the first of buckets of more rows than
        # freeze() makes at a time
        idx = build_index(signed_records(np.random.default_rng(60), 700, layers), open_but("L3", 2.0), layers)
        table = self.check(idx)
        assert len(table.cuts) == len(layers)
        assert max(np.diff(table.cuts[0])) > index_module._BLOCK

    def test_loaded_from_disk(self, tmp_path):
        idx = build_index(signed_records(np.random.default_rng(61), 600, LAYERS3), open_but("L3", 2.0))
        save_records(tmp_path / "records.bin", idx)
        back = load_records(tmp_path / "records.bin", HierarchicalIndex(LAYERS3, idx.thresholds), 7, 8)
        assert not back._vectors["L3"].flags.writeable
        self.check(back)

    def test_frozen_again_after_an_add(self):
        recs = signed_records(np.random.default_rng(62), 650, LAYERS3)
        idx = build_index(recs[:400], open_but("L3", 2.0))
        self.check(idx)
        for r in recs[400:]:
            idx.add(r)
        assert len(self.check(idx).cuts[-1]) > 1 and len(idx._rows) == 650

    def test_one_float64_matrix(self):
        # what a frozen index holds in float64: the finest stage's n x d unit
        # rows, n norms per coarser stage, and per bucket a centre and radius
        n, d = 1500, 64
        idx = build_index(signed_records(np.random.default_rng(63), n, LAYERS3, dim=d), open_but("L3", 2.0))
        idx.freeze()
        buckets = len(idx._buckets.radii)
        assert float64_bytes(idx, set()) <= 8 * (n * d + 2 * n + buckets * (d + 1))


class TestRecordsFile:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(7)
        ts = ThresholdSet(thresholds={l: 1.0 for l in LAYERS3})
        recs = []
        for i in range(10):
            vecs = {
                l: rng.normal(size=4).astype(np.float32).astype(np.float64)
                for l in LAYERS3
            }
            sigs = {l: BinarySignature(width=16, data=rng.bytes(2)) for l in LAYERS3}
            recs.append(FeatureRecord(f"id{i}", f"lab{i % 3}", vecs, sigs))
        idx = build_index(recs, ts)
        path = tmp_path / "records.bin"
        save_records(path, idx)
        back = load_records(path, HierarchicalIndex(LAYERS3, ts), 4, 16)
        assert len(back) == 10
        for a, b in zip(idx.records, back.records):
            assert a.id == b.id and a.label == b.label
            for l in LAYERS3:
                np.testing.assert_array_equal(a.compressed[l], b.compressed[l])
                assert a.signatures[l] == b.signatures[l]

    def test_float64_records_answer_as_after_load(self, tmp_path):
        # add() keeps float32, the precision the store persists, so loading
        # the store back changes no distance
        rng = np.random.default_rng(11)
        ts = ThresholdSet(thresholds={l: 2.0 for l in LAYERS3})
        sig = BinarySignature(width=8, data=b"\x00")
        recs = [
            FeatureRecord(f"r{i:03d}", "c", {l: rng.normal(size=6) for l in LAYERS3}, {l: sig for l in LAYERS3})
            for i in range(200)
        ]
        idx = build_index(recs, ts)
        save_records(tmp_path / "records.bin", idx)
        back = load_records(tmp_path / "records.bin", HierarchicalIndex(LAYERS3, ts), 6, 8)
        for _ in range(50):
            q = {l: rng.normal(size=6) for l in LAYERS3}
            assert query_hierarchical(idx, q, 10) == query_hierarchical(back, q, 10)

    def test_zero_vector_in_file_rejected(self, tmp_path):
        ts = ThresholdSet(thresholds={l: 1.0 for l in LAYERS3})
        sig = BinarySignature(width=16, data=b"\x00\x00")
        vecs = {l: np.ones(4, dtype=np.float32) for l in LAYERS3}
        idx = build_index([FeatureRecord("a", "c", vecs, {l: sig for l in LAYERS3})], ts)
        path = tmp_path / "records.bin"
        save_records(path, idx)
        blob = bytearray(path.read_bytes())
        # v2: a 24-byte header and two u32 widths per layer, then the L1 matrix
        blob[48:48 + 16] = bytes(16)
        path.write_bytes(bytes(blob))
        with pytest.raises(InvalidVectorError):
            load_records(path, HierarchicalIndex(LAYERS3, ts), 4, 16)

    def test_trailing_bytes_rejected(self, tmp_path):
        ts = ThresholdSet(thresholds={l: 1.0 for l in LAYERS3})
        sig = BinarySignature(width=16, data=b"\x00\x00")
        vecs = {l: np.ones(4, dtype=np.float32) for l in LAYERS3}
        idx = build_index([FeatureRecord("a", "c", vecs, {l: sig for l in LAYERS3})], ts)
        path = tmp_path / "records.bin"
        save_records(path, idx)
        path.write_bytes(path.read_bytes() + bytes(25))
        with pytest.raises(DataFormatError, match="trailing bytes"):
            load_records(path, HierarchicalIndex(LAYERS3, ts), 4, 16)

    def test_bad_magic(self, tmp_path):
        from bloomretrieval.errors import BadMagicError

        p = tmp_path / "x.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        ts = ThresholdSet(thresholds={l: 1.0 for l in LAYERS3})
        with pytest.raises(BadMagicError):
            load_records(p, HierarchicalIndex(LAYERS3, ts), 4, 16)


def stored(records):
    """Each record as (id, label, vector bytes, signature bytes per layer)."""
    return [
        (
            r.id,
            r.label,
            [np.asarray(r.compressed[l], dtype=np.float32).tobytes() for l in LAYERS3],
            [r.signatures[l].data for l in LAYERS3],
        )
        for r in records
    ]


def store_index(n=6, dim=4, seed=7):
    """n records with 16-bit signatures from a pool of two per layer."""
    rng = np.random.default_rng(seed)
    pool = [BinarySignature(width=16, data=rng.bytes(2)) for _ in range(2)]
    recs = [
        FeatureRecord(
            f"rec-{i:04d}",
            f"lab-{i % 3}",
            {l: rng.normal(size=dim).astype(np.float32) for l in LAYERS3},
            {l: pool[int(rng.integers(2))] for l in LAYERS3},
        )
        for i in range(n)
    ]
    return build_index(recs, ThresholdSet(thresholds={"L1": 0.8, "L2": 0.6, "L3": 0.4}))


def reload(path, idx, dim=4, sig_width=16, layers=LAYERS3):
    return load_records(path, HierarchicalIndex(layers, idx.thresholds), dim, sig_width)


# v2 is the one version that loads; the parameter keeps each case's id
@pytest.mark.parametrize("version", ["v2"])
class TestRecordsFileVersions:
    """records.bin loads through these checks."""

    def written(self, tmp_path, version, idx):
        path = tmp_path / "records.bin"
        save_records(path, idx)
        return path

    def test_loads_as_written(self, tmp_path, version):
        idx = store_index(n=40)
        back = reload(self.written(tmp_path, version, idx), idx)
        assert stored(back.records) == stored(idx.records)
        again = reload(self.written(tmp_path, version, back), idx)
        assert stored(again.records) == stored(idx.records)
        rng = np.random.default_rng(8)
        for _ in range(30):
            q = {l: rng.normal(size=4) for l in LAYERS3}
            k = int(rng.integers(1, 12))
            want = query_hierarchical(idx, q, k)
            assert query_hierarchical(back, q, k) == want == query_hierarchical(again, q, k)
            assert brute_force_scan(back, q, k) == want

    def test_every_cut_is_truncated(self, tmp_path, version):
        path = self.written(tmp_path, version, store_index(n=3))
        blob = path.read_bytes()
        for cut in range(len(blob)):
            path.write_bytes(blob[:cut])
            with pytest.raises(TruncatedFileError):
                reload(path, store_index())

    def test_trailing_bytes(self, tmp_path, version):
        path = self.written(tmp_path, version, store_index())
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(DataFormatError, match="trailing bytes"):
            reload(path, store_index())

    @pytest.mark.parametrize(
        "dim, sig_width, message",
        [
            (5, 16, "L1 vector is 4 wide, not 5"),
            (4, 24, "signature byte width 2 does not fit 24 bits"),
        ],
    )
    def test_other_width(self, tmp_path, version, dim, sig_width, message):
        path = self.written(tmp_path, version, store_index())
        with pytest.raises(ConfigMismatchError, match=message):
            reload(path, store_index(), dim=dim, sig_width=sig_width)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 0.0])
    def test_poisoned_row(self, tmp_path, version, value):
        idx = store_index()
        path = self.written(tmp_path, version, idx)
        vec = idx.records[2].compressed["L2"]
        blob = path.read_bytes()
        assert blob.count(vec.tobytes()) == 1
        bad = np.full(4, value, dtype=np.float32) if value == 0.0 else vec.copy()
        bad[1] = value
        path.write_bytes(blob.replace(vec.tobytes(), bad.tobytes()))
        with pytest.raises(InvalidVectorError, match="record 'rec-0002' layer L2"):
            reload(path, idx)

    def test_duplicate_id(self, tmp_path, version):
        path = self.written(tmp_path, version, store_index())
        blob = path.read_bytes()
        assert blob.count(b"rec-0003") == 1
        path.write_bytes(blob.replace(b"rec-0003", b"rec-0001"))
        with pytest.raises(DuplicateIdError, match="rec-0001"):
            reload(path, store_index())

    def test_empty_store(self, tmp_path, version):
        empty = HierarchicalIndex(LAYERS3, store_index().thresholds)
        back = reload(self.written(tmp_path, version, empty), empty)
        assert len(back) == 0 and list(back.records) == []
        # the first record sets the widths, as in a new index
        back.add(make_record("a", "c", {l: [1.0, 2.0] for l in LAYERS3}))
        hits = query_hierarchical(back, {l: np.array([1.0, 2.0]) for l in LAYERS3}, 1)
        assert [rid for rid, _ in hits] == ["a"]


class TestRecordsFileV2:
    def test_header(self, tmp_path):
        idx = store_index(n=5)
        save_records(tmp_path / "records.bin", idx)
        blob = (tmp_path / "records.bin").read_bytes()
        assert blob[:24] == b"MHIX" + b"\xff" * 8 + struct.pack("<HHQ", 2, 3, 5)
        assert struct.unpack_from("<6I", blob, 24) == (4, 2) * 3
        # the arrays of 4-byte values come first, the id and label bytes last
        assert blob.endswith(b"".join(r.id.encode() for r in idx.records) + b"lab-0lab-1lab-2lab-0lab-1")

    def test_unknown_version(self, tmp_path):
        path = tmp_path / "records.bin"
        save_records(path, store_index())
        blob = path.read_bytes()
        path.write_bytes(blob[:12] + struct.pack("<H", 3) + blob[14:])
        with pytest.raises(DataFormatError, match="unsupported records file version 3"):
            reload(path, store_index())

    @pytest.mark.parametrize("mark", [0, 6, 2**64 - 2], ids=["empty", "count", "one-less"])
    def test_v1_store_is_refused(self, tmp_path, mark):
        # v1 holds its record count where v2 holds its mark: any other value
        # than the mark, as an empty v1 store's 0, is version 1
        path = tmp_path / "records.bin"
        save_records(path, store_index())
        blob = path.read_bytes()
        for stale in (blob[:4] + struct.pack("<Q", mark) + blob[12:], b"MHIX" + struct.pack("<Q", mark)):
            path.write_bytes(stale)
            with pytest.raises(DataFormatError, match="unsupported records file version 1$"):
                reload(path, store_index())

    def test_other_layer_count(self, tmp_path):
        path = tmp_path / "records.bin"
        save_records(path, store_index())
        with pytest.raises(ConfigMismatchError, match="holds 3 layers, the index 2"):
            reload(path, store_index(), layers=("L1", "L2"))

    def test_decreasing_text_offsets(self, tmp_path):
        idx = store_index(n=3)
        path = tmp_path / "records.bin"
        save_records(path, idx)
        blob = bytearray(path.read_bytes())
        at = 48 + 3 * 3 * 4 * 4  # after the header and the three vector matrices
        assert struct.unpack_from("<3I", blob, at) == (8, 16, 24)
        struct.pack_into("<I", blob, at, 17)
        path.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match="offsets decrease"):
            reload(path, idx)

    @pytest.mark.parametrize("field", ["id", "label"])
    def test_long_text_raises_before_the_file_is_opened(self, tmp_path, field):
        idx = store_index()
        text = "x" * 70_000
        rec = idx.records[0]
        idx.add(FeatureRecord(
            text if field == "id" else "long", text if field == "label" else "c",
            {l: np.ones(4) for l in LAYERS3}, rec.signatures,
        ))
        path = tmp_path / "records.bin"
        with pytest.raises(DataFormatError, match=f"{field} is 70000 UTF-8 bytes"):
            save_records(path, idx)
        assert not path.exists()

    def test_records_are_a_snapshot_in_insertion_order(self):
        idx = store_index(n=4)
        records = idx.records
        first = records[0]
        idx.add(FeatureRecord("rec-0004", "c", {l: np.ones(4) for l in LAYERS3}, first.signatures))
        assert len(records) == 4 and len(idx.records) == 5
        assert [r.id for r in records[1:3]] == ["rec-0001", "rec-0002"]
        assert records[-1].id == "rec-0003" and idx.records[-1].id == "rec-0004"
        with pytest.raises(IndexError):
            records[4]
        assert stored(idx.records)[:4] == stored(records)

    def test_records_are_read_only(self):
        idx = store_index()
        with pytest.raises(ValueError, match="read-only"):
            idx.records[0].compressed["L1"][0] = 1.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: unit_rows(np.ones(3)), "2-D array"),
        (lambda: unit_rows(np.ones((2, 2, 2))), "2-D array"),
    ],
    ids=["rows-1d", "rows-3d"],
)
def test_shape_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
