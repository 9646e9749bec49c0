import numpy as np
import pytest

from bloomretrieval.binseq import BinarySignature
from bloomretrieval.errors import (
    ConfigMismatchError,
    DataFormatError,
    DuplicateIdError,
    InconsistentDimsError,
    InvalidVectorError,
)
from bloomretrieval.index import (
    FeatureRecord,
    HierarchicalIndex,
    ThresholdSet,
    brute_force_scan,
    calibrate_thresholds,
    load_records,
    query_hierarchical,
    save_records,
)
from bloomretrieval.vecmath import cosine_distance

from oracles import mean_same_class_cosine_distance

LAYERS3 = ("L1", "L2", "L3")


def make_record(rid, label, vectors, sig_width=8):
    sig = BinarySignature(width=sig_width, data=b"\x00")
    return FeatureRecord(
        id=rid,
        label=label,
        compressed={l: np.asarray(v, dtype=float) for l, v in vectors.items()},
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

    def test_duplicate_id_rejected(self):
        rng = np.random.default_rng(2)
        ts = ThresholdSet(thresholds={l: 1.0 for l in LAYERS3})
        idx = build_index([random_record(rng, "x", "c")], ts)
        assert "x" in idx and "y" not in idx
        with pytest.raises(DuplicateIdError):
            idx.add(random_record(rng, "x", "c"))

    @pytest.mark.parametrize(
        "vector, error",
        [
            ([1.0, np.nan, 0.0, 1.0, 1.0, 1.0], InvalidVectorError),
            ([1.0, -np.inf, 0.0, 1.0, 1.0, 1.0], InvalidVectorError),
            ([0.0] * 6, InvalidVectorError),
            pytest.param(  # its squared norm overflows
                [1e200] * 6,
                InvalidVectorError,
                marks=pytest.mark.filterwarnings("ignore:overflow"),
            ),
            ([1.0] * 5, InconsistentDimsError),
            ([[1.0] * 6], InconsistentDimsError),
        ],
    )
    def test_poisoned_vector_rejected(self, vector, error):
        rng = np.random.default_rng(2)
        ts = ThresholdSet(thresholds={l: 2.0 for l in LAYERS3})
        good = random_record(rng, "good", "c")
        idx = build_index([good], ts)
        bad = random_record(rng, "bad", "c")
        bad.compressed["L2"] = np.array(vector)
        with pytest.raises(error):
            idx.add(bad)
        assert len(idx) == 1 and "bad" not in idx
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
                assert query_hierarchical(idx, q, k) == brute_force_scan(idx, q, k)

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
        back = load_records(path, LAYERS3, 4, 16, ts)
        assert len(back) == 10
        for a, b in zip(idx.records, back.records):
            assert a.id == b.id and a.label == b.label
            for l in LAYERS3:
                np.testing.assert_array_equal(a.compressed[l], b.compressed[l])
                assert a.signatures[l] == b.signatures[l]

    def test_zero_vector_in_file_rejected(self, tmp_path):
        ts = ThresholdSet(thresholds={l: 1.0 for l in LAYERS3})
        sig = BinarySignature(width=16, data=b"\x00\x00")
        vecs = {l: np.ones(4, dtype=np.float32) for l in LAYERS3}
        idx = build_index([FeatureRecord("a", "c", vecs, {l: sig for l in LAYERS3})], ts)
        path = tmp_path / "records.bin"
        save_records(path, idx)
        blob = bytearray(path.read_bytes())
        # magic, count, id "a", label "c", L1 dim: the L1 vector starts at 22
        blob[22:22 + 16] = bytes(16)
        path.write_bytes(bytes(blob))
        with pytest.raises(InvalidVectorError):
            load_records(path, LAYERS3, 4, 16, ts)

    def test_trailing_bytes_rejected(self, tmp_path):
        ts = ThresholdSet(thresholds={l: 1.0 for l in LAYERS3})
        sig = BinarySignature(width=16, data=b"\x00\x00")
        vecs = {l: np.ones(4, dtype=np.float32) for l in LAYERS3}
        idx = build_index([FeatureRecord("a", "c", vecs, {l: sig for l in LAYERS3})], ts)
        path = tmp_path / "records.bin"
        save_records(path, idx)
        path.write_bytes(path.read_bytes() + bytes(25))
        with pytest.raises(DataFormatError, match="trailing bytes"):
            load_records(path, LAYERS3, 4, 16, ts)

    def test_bad_magic(self, tmp_path):
        from bloomretrieval.errors import BadMagicError

        p = tmp_path / "x.bin"
        p.write_bytes(b"NOPE" + b"\x00" * 16)
        ts = ThresholdSet(thresholds={l: 1.0 for l in LAYERS3})
        with pytest.raises(BadMagicError):
            load_records(p, LAYERS3, 4, 16, ts)
