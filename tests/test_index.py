import numpy as np
import pytest

from bloomretrieval.binseq import BinarySignature
from bloomretrieval.errors import (
    ConfigMismatchError,
    DimensionMismatchError,
    DataFormatError,
    DuplicateIdError,
    InconsistentDimsError,
    InvalidVectorError,
)
from bloomretrieval.index import (
    THRESHOLD_FLOOR,
    FeatureRecord,
    HierarchicalIndex,
    ThresholdSet,
    brute_force_scan,
    calibrate_thresholds,
    l2_normalize,
    load_records,
    query_hierarchical,
    save_records,
    unit_cosine_distances,
    unit_rows,
)

from oracles import cosine_distance, mean_same_class_cosine_distance

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

    @pytest.mark.parametrize("search", [query_hierarchical, brute_force_scan])
    def test_query_of_other_width_rejected(self, search):
        rng = np.random.default_rng(2)
        idx = build_index([random_record(rng, "x", "c")], ThresholdSet(thresholds={l: 1.0 for l in LAYERS3}))
        q = {"L1": rng.normal(size=6), "L2": rng.normal(size=5), "L3": rng.normal(size=6)}
        with pytest.raises(DimensionMismatchError, match="query layer L2 vector is 5 wide"):
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
            pytest.param(  # finite as a float64, inf as the float32 the store holds
                [1e39] + [1.0] * 5,
                InvalidVectorError,
                marks=pytest.mark.filterwarnings("ignore:overflow"),
            ),
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
    """How many rows the first stage scores for q: the rows of the buckets
    it cannot skip."""
    idx.freeze()
    layer = idx.stage_layers()[0]
    starts, stops = idx._buckets.spans(l2_normalize(q[layer]), idx.thresholds.effective(layer))
    return int(np.sum(stops - starts))


def l3_distances(idx, q):
    """The kernel's L3 distance of every row, in row order."""
    idx.freeze()
    return unit_cosine_distances(idx._rows["L3"], l2_normalize(q["L3"]))


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
        assert len(idx._buckets.radii) == 6
        skipped = 0
        for c in range(6):
            q = {l: centres[c] + 0.05 * rng.normal(size=6) for l in LAYERS3}
            qn = l2_normalize(q["L3"])
            b = idx._buckets
            diff = b.centres - qn
            gaps = np.sqrt(np.einsum("ij,ij->i", diff, diff)) - b.radii
            # t where each far bucket's skip decision flips, and each row's
            # own distance: both within a few ulps either side
            flips = [g * g / 2 - b.eps for g in gaps if g * g / 2 > b.eps]
            near = np.sort(l3_distances(idx, q))[[0, 3, 7, 8, 20]]
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
        b = idx._buckets
        diff = b.centres - l2_normalize(q["L3"])
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
        assert len(idx._buckets.radii) == 2
        q = {l: at(rho + alpha) for l in LAYERS3}
        b = idx._buckets
        qn = l2_normalize(q["L3"])
        gap = np.linalg.norm(b.centres[0] - qn) - b.radii[0]
        own = float(l3_distances(idx, q)[0])
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
        assert len(idx._buckets.radii) == 5
        assert np.all(idx._buckets.radii <= 2 * np.sqrt(idx._buckets.eps))
        skipped = 0
        for rec in recs[:10]:
            for angle in (0.0, 1e-9, 1e-8, 1e-7, 1e-4, 1e-2):
                q = {l: rec.compressed[l] + angle * rng.normal(size=6) for l in LAYERS3}
                own = float(np.min(l3_distances(idx, q)))
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
        # 5 is above it and falls back to one bucket in insertion order
        rng = np.random.default_rng(27)
        recs, centres = clustered_records(rng, clusters=signatures, per=4)
        recs = recs[:16]
        ts = self.open_later_stages(0.01)
        idx = build_index(recs, ts)
        idx.freeze()
        assert len(idx._buckets.radii) == buckets
        if buckets == 1:
            assert idx._row_ids == [r.id for r in recs]
        skipped = 0
        for c in range(signatures):
            q = {l: centres[c] + 0.05 * rng.normal(size=6) for l in LAYERS3}
            assert query_hierarchical(idx, q, 20) == brute_force_scan(idx, q, 20)
            skipped += rows_scored(idx, q) < len(idx)
        assert skipped == (signatures if buckets > 1 else 0)

    def test_bucket_order_keeps_record_order(self, tmp_path):
        rng = np.random.default_rng(28)
        recs, _ = clustered_records(rng, clusters=3, per=4)
        idx = build_index(recs, self.open_later_stages())
        idx.freeze()
        assert [r.id for r in idx.records] == [r.id for r in recs]
        assert idx._row_ids != [r.id for r in recs]
        save_records(tmp_path / "records.bin", idx)
        back = load_records(tmp_path / "records.bin", HierarchicalIndex(LAYERS3, idx.thresholds), 6, 8)
        assert [r.id for r in back.records] == [r.id for r in recs]


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
        # magic, count, id "a", label "c", L1 dim: the L1 vector starts at 22
        blob[22:22 + 16] = bytes(16)
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


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: unit_rows(np.ones(3)), "2-D array"),
        (lambda: unit_rows(np.ones((2, 2, 2))), "2-D array"),
        (lambda: l2_normalize(np.ones((1, 3))), "1-D vector"),
        (lambda: l2_normalize(1.0), "1-D vector"),
    ],
    ids=["rows-1d", "rows-3d", "vector-2d", "vector-scalar"],
)
def test_shape_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()
