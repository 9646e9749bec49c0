import itertools
import json
import struct

import numpy as np
import pytest

from bloomretrieval import binseq, bloom, pca, pipeline as pl
from bloomretrieval.bloom import BloomParams, fp_probability
from bloomretrieval.errors import (
    BadMagicError,
    ConfigMismatchError,
    DataFormatError,
    DuplicateIdError,
    InconsistentDimsError,
    InvalidVectorError,
    TruncatedFileError,
)
from bloomretrieval.index import save_records

from oracles import (
    average_precision_oracle,
    eager_error,
    eager_rejected,
    evaluation_oracle,
    filter_positions,
)

LAYERS = ("L1", "L2", "L3")


def small_config(layers=("L1", "L2", "L3"), **kw):
    defaults = dict(
        active_layers=layers,
        pca_dim=8,
        centroid_count=16,
        binseq_threshold=10.0,
        filter_multiplier=2.0,
        rng_seed=123,
        top_k=50,
    )
    defaults.update(kw)
    return pl.PipelineConfig(**defaults)


def synth_records(tmp_path, classes=5, per_class=20, dims=(24, 24, 24), noise=0.1,
                  seed=11, queries_per_class=0):
    feats = tmp_path / "feats.mlhc"
    qrys = tmp_path / "qrys.mlhc"
    pl.synth_generate(
        classes, per_class, dims, noise, seed, feats,
        queries_per_class=queries_per_class,
        queries_path=qrys if queries_per_class else None,
    )
    records = pl.read_features(feats)
    queries = pl.read_features(qrys) if queries_per_class else []
    return records, queries


class TestConfig:
    @pytest.mark.parametrize(
        "bad",
        [
            {"treshold_scales": {"L1": 2.0}},
            {"threshold_scales": {"L3": 2.0}},
            {"threshold_scales": {"L9": -3.0}},
            {"threshold_scales": {"L1": float("nan")}},
            {"threshold_scales": {"L1": float("inf")}},
            {"threshold_scales": {"L1": -1.0}},
            {"threshold_scales": {"L1": 0.0}},
            {"threshold_scales": {"L1": "2"}},
            {"threshold_scales": None},
            {"stage_order": "sideways"},
            {"stage_order": "fine_to_coarse"},
            {"filter_multiplier": float("inf")},
            {"filter_multiplier": "2"},
            {"filter_multiplier": 0.0},
            {"filter_multiplier": True},
            {"pca_dim": "8"},
            {"pca_dim": True},
            {"centroid_count": 16.0},
            {"top_k": 2.5},
            {"binseq_threshold": float("nan")},
            {"binseq_threshold": "10"},
            {"rng_seed": "0"},
            {"active_layers": 5},
            {"binseq_threshold": 1e39},  # too large for the dictionary's float32
            {"binseq_threshold": 1e-50},  # 0 as a float32
        ],
    )
    def test_bad_config_rejected(self, bad):
        doc = {**small_config(layers=("L1", "L2")).to_dict(), **bad}
        with pytest.raises(ValueError):
            pl.PipelineConfig.from_dict(doc)

    def test_config_json_keys_accepted(self):
        cfg = small_config(threshold_scales={"L2": 0.5})
        doc = {**cfg.to_dict(), "calibrated_thresholds": {"L1": 0.1}}
        assert pl.PipelineConfig.from_dict(doc) == cfg

    @pytest.mark.parametrize("value", ["coarse_to_fine", True, False, None])
    @pytest.mark.parametrize("key", ["stage_order", "filter_optimal"])
    def test_retired_keys_are_unknown(self, key, value):
        # keys an older config.json carried, now refused whatever they hold
        doc = {**small_config().to_dict(), key: value}
        with pytest.raises(ValueError, match=rf"unknown config keys: \['{key}'\]"):
            pl.PipelineConfig.from_dict(doc)


class TestFeatureFiles:
    def test_empty_file_round_trip(self, tmp_path):
        p = tmp_path / "empty.mlhc"
        pl.write_features(p, [])
        assert pl.read_features(p) == []

    def test_round_trip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(0)
        records = [
            pl.RawRecord(
                f"id{i}",
                f"lab{i % 2}",
                {
                    "L1": rng.normal(size=5).astype(np.float32).astype(np.float64),
                    "L2": rng.normal(size=3).astype(np.float32).astype(np.float64),
                },
            )
            for i in range(7)
        ]
        p1 = tmp_path / "a.mlhc"
        p2 = tmp_path / "b.mlhc"
        pl.write_features(p1, records)
        back = pl.read_features(p1)
        pl.write_features(p2, back)
        assert p1.read_bytes() == p2.read_bytes()
        for a, b in zip(records, back):
            assert (a.id, a.label) == (b.id, b.label)
            for l in ("L1", "L2"):
                np.testing.assert_array_equal(a.features[l], b.features[l])

    def test_hand_crafted_fixture(self, tmp_path):
        # two records, one layer of dim 2, built byte by byte
        blob = b"MLHC"
        blob += struct.pack("<HQB", 1, 2, 1)
        blob += struct.pack("<I", 2)
        for rid, lab, vals in (("a", "x", (1.0, 2.0)), ("b", "y", (-1.0, 0.5))):
            blob += struct.pack("<H", len(rid)) + rid.encode()
            blob += struct.pack("<H", len(lab)) + lab.encode()
            blob += struct.pack("<ff", *vals)
        p = tmp_path / "fixture.mlhc"
        p.write_bytes(blob)
        records = pl.read_features(p)
        assert [r.id for r in records] == ["a", "b"]
        assert [r.label for r in records] == ["x", "y"]
        np.testing.assert_array_equal(records[0].features["L1"], [1.0, 2.0])
        np.testing.assert_array_equal(records[1].features["L1"], [-1.0, 0.5])

    def test_bad_magic(self, tmp_path):
        p = tmp_path / "bad.mlhc"
        p.write_bytes(b"JUNK" + b"\x00" * 20)
        with pytest.raises(BadMagicError):
            pl.read_features(p)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(1)
        records = [pl.RawRecord("a", "x", {"L1": rng.normal(size=4)})]
        p = tmp_path / "t.mlhc"
        pl.write_features(p, records)
        p.write_bytes(p.read_bytes()[:-3])
        with pytest.raises(TruncatedFileError):
            pl.read_features(p)

    @pytest.mark.parametrize("field", ["id", "label"])
    def test_over_long_text_rejected_before_writing(self, tmp_path, field):
        text = {"id": "r", "label": "c", field: "\u00e9" * 40_000}  # 80,000 bytes
        rec = pl.RawRecord(text["id"], text["label"], {"L1": np.ones(2)})
        p = tmp_path / "long.mlhc"
        with pytest.raises(DataFormatError, match=field):
            pl.write_features(p, [rec])
        assert not p.exists()

    @pytest.mark.parametrize(
        "second",
        [{"L1": np.ones(3)}, {"L1": np.ones((2, 1))}, {"L1": np.ones(2), "L2": np.ones(2)}],
    )
    def test_bad_record_leaves_old_file(self, tmp_path, second):
        p = tmp_path / "feats.mlhc"
        pl.write_features(p, [pl.RawRecord("old", "c", {"L1": np.zeros(5)})])
        before = p.read_bytes()
        records = [pl.RawRecord("a", "c", {"L1": np.ones(2)}), pl.RawRecord("b", "c", second)]
        with pytest.raises(InconsistentDimsError):
            pl.write_features(p, records)
        assert p.read_bytes() == before

    @pytest.mark.filterwarnings("error")  # the cast's overflow warning is no refusal
    def test_value_beyond_float32_rejected_before_writing(self, tmp_path):
        # a finite float64 beyond float32 would be written as an Inf; a NaN
        # or an Inf is written as it is
        p = tmp_path / "feats.mlhc"
        kept = {"L1": np.array([np.nan, 1.0]), "L2": np.array([-np.inf, np.inf])}
        pl.write_features(p, [pl.RawRecord("a", "c", kept)])
        back = pl.read_features(p)[0].features
        assert np.isnan(back["L1"][0]) and list(back["L2"]) == [-np.inf, np.inf]
        p.unlink()
        beyond = {"L1": np.ones(2), "L2": np.array([1.0, -1e40])}
        records = [pl.RawRecord("a", "c", kept), pl.RawRecord("b", "c", beyond)]
        with pytest.raises(InvalidVectorError, match="^record 'b' layer L2 holds a value beyond float32$"):
            pl.write_features(p, records)
        assert not p.exists()

    def test_record_with_no_layers_rejected_before_writing(self, tmp_path):
        # its file would declare layer count 0, which read_features refuses
        p = tmp_path / "none.mlhc"
        with pytest.raises(InconsistentDimsError, match="no layers"):
            pl.write_features(p, [pl.RawRecord("a", "c", {})])
        assert not p.exists()

    @pytest.mark.parametrize("layer_count", [0, 4])
    def test_layer_count_out_of_range(self, tmp_path, layer_count):
        p = tmp_path / "f.mlhc"
        pl.write_features(p, [pl.RawRecord("a", "x", {l: np.ones(2) for l in ("L1", "L2", "L3")})])
        blob = bytearray(p.read_bytes())
        blob[14] = layer_count  # magic, version u16, count u64, then the layer count
        p.write_bytes(bytes(blob))
        with pytest.raises(DataFormatError, match=f"layer count {layer_count}"):
            pl.read_features(p)

    def test_duplicate_ids(self, tmp_path):
        blob = b"MLHC" + struct.pack("<HQB", 1, 2, 1) + struct.pack("<I", 1)
        rec = struct.pack("<H", 1) + b"a" + struct.pack("<H", 1) + b"x"
        rec += struct.pack("<f", 0.0)
        p = tmp_path / "dup.mlhc"
        p.write_bytes(blob + rec + rec)
        with pytest.raises(DuplicateIdError):
            pl.read_features(p)


class TestTrain:
    def test_single_layer_structure(self, tmp_path):
        records, _ = synth_records(tmp_path, dims=(24,))
        bundle = pl.train(small_config(layers=("L1",)), records)
        assert set(bundle.pca_models) == {"L1"}
        assert set(bundle.dictionaries) == {"L1"}
        assert set(bundle.thresholds.thresholds) == {"L1"}
        assert bundle.filter.k == 1

    def test_missing_layer_rejected(self, tmp_path):
        records, _ = synth_records(tmp_path, dims=(24, 24))
        with pytest.raises(ConfigMismatchError):
            pl.train(small_config(), records)

    def test_filter_sizing_arithmetic(self, tmp_path):
        records, _ = synth_records(tmp_path, classes=10, per_class=50)
        bundle = pl.train(small_config(), records)
        assert bundle.filter.m == 1000
        assert bundle.filter.k == 3

    def test_optimal_sizing(self, tmp_path):
        records, _ = synth_records(tmp_path, classes=10, per_class=50)
        cfg = small_config(filter_multiplier=None)
        bundle = pl.train(cfg, records)
        assert bundle.filter.m == 1040  # ceil(3 * 500 * ln 2)

    def test_same_seed_serializes_identically(self, tmp_path):
        records, _ = synth_records(tmp_path)
        cfg = small_config()
        for run in ("one", "two"):
            bundle = pl.train(cfg, records)
            index = bundle.new_index()
            for r in records:
                pl.add_record(bundle, index, r)
            pl.save_index_dir(tmp_path / run, bundle, index)
        for name in ("config.json", "pca-L1.bin", "dict-L2.bin", "filter.bin", "records.bin"):
            assert (tmp_path / "one" / name).read_bytes() == (
                tmp_path / "two" / name
            ).read_bytes()


class TestAddAndQuery:
    @pytest.fixture
    def system(self, tmp_path):
        records, _ = synth_records(tmp_path)
        bundle = pl.train(small_config(threshold_scales={"L1": 4.0, "L2": 4.0, "L3": 4.0}), records)
        index = bundle.new_index()
        for r in records:
            pl.add_record(bundle, index, r)
        index.freeze()
        return bundle, index, records

    def test_self_retrieval(self, system):
        bundle, index, records = system
        res = pl.gated_query(bundle, index, records[0].features, top_k=5)
        assert not res.rejected
        assert res.results[0][0] == records[0].id
        assert res.results[0][1] == pytest.approx(0.0, abs=1e-12)

    def test_inserted_count(self, system):
        bundle, index, records = system
        assert bundle.filter.inserted_count == len(records)

    def test_duplicate_add_rejected(self, system):
        bundle, index, records = system
        with pytest.raises(DuplicateIdError):
            pl.add_record(bundle, index, records[0])

    def test_poisoned_record_rejected(self, system):
        bundle, index, records = system
        nan = {l: v.copy() for l, v in records[0].features.items()}
        nan["L2"][3] = np.nan
        # a raw vector equal to the PCA mean compresses to the zero vector
        mean = {l: bundle.pca_models[l].mean for l in records[0].features}
        for i, features in enumerate((nan, mean)):
            with pytest.raises(InvalidVectorError):
                pl.add_record(bundle, index, pl.RawRecord(f"bad{i}", "c", features))
        assert len(index) == bundle.filter.inserted_count == len(records)
        res = pl.gated_query(bundle, index, records[0].features, top_k=1)
        assert res.results[0][0] == records[0].id

    def test_query_on_empty_system_rejected(self, tmp_path):
        records, _ = synth_records(tmp_path)
        bundle = pl.train(small_config(), records)
        index = bundle.new_index()
        res = pl.gated_query(bundle, index, records[0].features)
        assert res.rejected
        # a bad top_k fails even on a query the filter rejects
        for bad in (0, -1, 2.5, True):
            with pytest.raises(ValueError, match="top_k"):
                pl.gated_query(bundle, index, records[0].features, top_k=bad)

    def test_fill_fraction_after_adds(self, tmp_path):
        # distinct-signature records so each add sets fresh random positions
        rng = np.random.default_rng(5)
        records = [
            pl.RawRecord(f"r{i}", f"c{i % 5}", {l: rng.normal(size=24) for l in ("L1", "L2", "L3")})
            for i in range(1000)
        ]
        cfg = small_config(
            filter_multiplier=5.0, centroid_count=64, binseq_threshold=4.0
        )
        bundle = pl.train(cfg, records)
        index = bundle.new_index()
        for r in records:
            pl.add_record(bundle, index, r)
        m, n, k = bundle.filter.m, 1000, 3
        # the formula assumes n independent per-layer hash positions, so the
        # records must carry (mostly) distinct per-layer signatures
        for layer in cfg.active_layers:
            distinct = len({rec.signatures[layer].data for rec in index.records})
            assert distinct > 0.9 * n
        expected = 1 - (1 - 1 / m) ** (n * k)
        assert bundle.filter.set_bit_count() / m == pytest.approx(expected, rel=0.06)

    def test_layer_mismatch(self, system):
        bundle, index, _ = system
        with pytest.raises(ConfigMismatchError):
            pl.gated_query(bundle, index, {"L1": np.zeros(24)})


def gate_system(tmp_path, layers):
    """A bundle at binseq threshold 5.0, its index holding 5 classes of 20
    records, those records, and queries: 20 held out from those classes and
    12 from other centres, of which the filter rules some out."""
    records, held_out = synth_records(tmp_path, queries_per_class=4)
    pl.synth_generate(3, 4, (24, 24, 24), 0.1, 99, tmp_path / "foreign.mlhc")
    foreign = pl.read_features(tmp_path / "foreign.mlhc")
    bundle = pl.train(small_config(layers, binseq_threshold=5.0), records)
    index = bundle.new_index()
    for r in records:
        pl.add_record(bundle, index, r)
    return bundle, index, records, held_out + foreign


def clear_bit(bundle, pos):
    bundle.filter.bits[pos >> 3] &= ~(1 << (pos & 7)) & 0xFF


class Calls:
    """From construction on, the layer of each row the kernel projects
    (`pca.project_rows`, which `pca.project` also runs) and signs
    (`binseq.sign_rows`, which `encode_signature` also runs), the layers of
    each kernel call as one tuple, and the seed of each Murmur3 call, in
    call order."""

    def __init__(self, monkeypatch, bundle):
        layer_of = {id(d): layer for layer, d in bundle.dictionaries.items()}
        layer_of.update({id(m): layer for layer, m in bundle.pca_models.items()})
        project, sign, hash_ = pca.project_rows, binseq.sign_rows, bloom.murmur3_x64_128
        self.projected, self.signed, self.hashed = [], [], []
        self.project_calls, self.sign_calls = [], []

        def counted_project(models, xs):
            self.project_calls.append(tuple(layer_of[id(m)] for m in models))
            self.projected += self.project_calls[-1]
            return project(models, xs)

        def counted_sign(dictionaries, X, xx):
            self.sign_calls.append(tuple(layer_of[id(d)] for d in dictionaries))
            self.signed += self.sign_calls[-1]
            return sign(dictionaries, X, xx)

        def counted_hash(data, seed):
            self.hashed.append(seed)
            return hash_(data, seed)

        monkeypatch.setattr(pca, "project_rows", counted_project)
        monkeypatch.setattr(binseq, "sign_rows", counted_sign)
        monkeypatch.setattr(bloom, "murmur3_x64_128", counted_hash)


class TestCoarseToFineGate:
    @pytest.mark.parametrize("layers", [LAYERS[:1], LAYERS[:2], LAYERS])
    def test_verdict_equals_eager_oracle(self, tmp_path, layers):
        bundle, index, _, queries = gate_system(tmp_path, layers)
        verdicts = [pl.gated_query(bundle, index, q.features).rejected for q in queries]
        assert verdicts == [eager_rejected(bundle, q.features) for q in queries]
        assert 0 < sum(verdicts) < len(verdicts)

    @pytest.mark.parametrize("layers", [LAYERS[:2], LAYERS])
    def test_a_miss_at_any_one_layer_rejects(self, tmp_path, layers):
        # a stored record whose layers hash to distinct bits; each bit in
        # turn cleared, so exactly that layer misses
        bundle, index, records, _ = gate_system(tmp_path, layers)
        for raw in records:
            positions = filter_positions(bundle, raw.features)
            if len(set(positions.values())) == len(layers):
                break
        else:
            pytest.fail("no record hashes its layers to distinct bits")
        full = bytes(bundle.filter.bits)
        assert not pl.gated_query(bundle, index, raw.features).rejected
        for pos in positions.values():
            bundle.filter.bits[:] = full
            clear_bit(bundle, pos)
            assert eager_rejected(bundle, raw.features)
            assert pl.gated_query(bundle, index, raw.features).rejected

    def test_rejected_at_l3_signs_and_hashes_once(self, tmp_path, monkeypatch):
        bundle, index, records, _ = gate_system(tmp_path, LAYERS)
        clear_bit(bundle, filter_positions(bundle, records[0].features)["L3"])
        calls = Calls(monkeypatch, bundle)
        assert pl.gated_query(bundle, index, records[0].features).rejected
        assert (calls.signed, calls.hashed) == (["L3"], [3])

    def test_passing_query_signs_each_layer_once(self, tmp_path, monkeypatch):
        bundle, index, records, _ = gate_system(tmp_path, LAYERS)
        calls = Calls(monkeypatch, bundle)
        res = pl.gated_query(bundle, index, records[0].features)
        assert not res.rejected and res.results[0][0] == records[0].id
        assert (calls.signed, calls.hashed) == (["L3", "L2", "L1"], [3, 2, 1])

    def test_add_record_signs_each_layer_once(self, tmp_path, monkeypatch):
        # the index and the filter share one signature per layer, and it is
        # the layer's own; the filter hashes only the layers whose signature
        # it has not inserted before
        bundle, index, _, queries = gate_system(tmp_path, LAYERS)
        raw = queries[0]  # held out, so not yet stored
        fresh = []
        for layer in LAYERS:
            vec = pca.project(bundle.pca_models[layer], raw.features[layer]).astype(np.float32)
            sig = binseq.encode_signature(bundle.dictionaries[layer], vec)
            if (layer, sig.data) not in bundle.filter._positions:
                fresh.append(bloom.LAYER_SEEDS[layer])
        calls = Calls(monkeypatch, bundle)
        pl.add_record(bundle, index, raw)
        assert calls.sign_calls == [LAYERS] and sorted(calls.hashed) == fresh
        monkeypatch.undo()
        rec = index.records[-1]
        for layer in LAYERS:
            expected = binseq.encode_signature(bundle.dictionaries[layer], rec.compressed[layer])
            assert rec.signatures[layer] == expected
        assert not eager_rejected(bundle, raw.features)

    def test_insert_and_query_share_one_kernel(self, tmp_path, monkeypatch):
        # the stored row is what compress_record gives, bit for bit, and the
        # gate hashes the positions the eager oracle computes, coarse to fine
        bundle, index, _, queries = gate_system(tmp_path, LAYERS)
        raw = queries[0]  # held out, so not yet stored
        pl.add_record(bundle, index, raw)
        rec, stored = pl.compress_record(bundle, raw), index.records[-1]
        for layer in LAYERS:
            assert rec.compressed[layer].dtype == stored.compressed[layer].dtype == np.float32
            assert rec.compressed[layer].tobytes() == stored.compressed[layer].tobytes()
        assert rec.signatures == stored.signatures
        # the gate probes by signature bytes, through the method that
        # `query` and `insert` also hash by
        hashed, position = [], bloom.LayeredBloomFilter.position

        def recorded(self, layer, data):
            hashed.append((layer, position(self, layer, data)))
            return hashed[-1][1]

        monkeypatch.setattr(bloom.LayeredBloomFilter, "position", recorded)
        assert not pl.gated_query(bundle, index, raw.features).rejected
        assert [layer for layer, _ in hashed] == ["L3", "L2", "L1"]
        assert dict(hashed) == filter_positions(bundle, raw.features)

    def test_add_record_hashes_a_repeated_signature_once(self, tmp_path, monkeypatch):
        # two records of the same features on a fresh filter: the first
        # hashes every layer, the second none, and both set the same bits
        bundle, _, _, queries = gate_system(tmp_path, LAYERS)
        bundle.filter = bloom.LayeredBloomFilter(bundle.filter.m, bundle.filter.layers)
        index = bundle.new_index()
        calls = Calls(monkeypatch, bundle)
        pl.add_record(bundle, index, queries[0])
        assert sorted(calls.hashed) == [1, 2, 3]
        bits = bytes(bundle.filter.bits)
        calls.hashed.clear()
        pl.add_record(bundle, index, pl.RawRecord("again", "x", queries[0].features))
        assert calls.hashed == []
        assert (bytes(bundle.filter.bits), bundle.filter.inserted_count) == (bits, 2)
        assert index.records[0].signatures == index.records[1].signatures

    def test_rejected_at_l3_projects_l3_alone(self, tmp_path, monkeypatch):
        bundle, index, records, _ = gate_system(tmp_path, LAYERS)
        clear_bit(bundle, filter_positions(bundle, records[0].features)["L3"])
        calls = Calls(monkeypatch, bundle)
        assert pl.gated_query(bundle, index, records[0].features).rejected
        assert calls.projected == ["L3"]

    def test_passing_query_projects_each_layer_once(self, tmp_path, monkeypatch):
        # L3 before the probe, L2 and L1 when the probe signs them
        bundle, index, records, _ = gate_system(tmp_path, LAYERS)
        calls = Calls(monkeypatch, bundle)
        res = pl.gated_query(bundle, index, records[0].features)
        assert not res.rejected and res.results[0][0] == records[0].id
        assert calls.projected == ["L3", "L2", "L1"]

    def test_add_record_projects_each_layer_once(self, tmp_path, monkeypatch):
        bundle, index, _, queries = gate_system(tmp_path, LAYERS)
        calls = Calls(monkeypatch, bundle)
        pl.add_record(bundle, index, queries[0])
        assert calls.project_calls == [LAYERS]

    def test_add_record_projects_before_the_index_checks(self, tmp_path):
        # a stored id, which the index refuses, with a NaN in L2: the NaN is
        # reported, as when every layer was projected up front
        bundle, index, records, _ = gate_system(tmp_path, LAYERS)
        bad = {**records[0].features, "L2": records[0].features["L2"].copy()}
        bad["L2"][0] = np.nan
        inserted = bundle.filter.inserted_count
        with pytest.raises(InvalidVectorError, match="NaN or Inf"):
            pl.add_record(bundle, index, pl.RawRecord(records[0].id, "x", bad))
        assert (len(index), bundle.filter.inserted_count) == (len(records), inserted)

    @pytest.mark.parametrize("rejects", [True, False], ids=["filter-rejects", "filter-passes"])
    def test_errors_equal_a_query_projected_in_full(self, tmp_path, rejects):
        # every mix of a good, NaN, beyond-float32, at-mean or short vector on
        # each layer raises what projecting every layer first raised
        bundle, index, records, _ = gate_system(tmp_path, LAYERS)
        if rejects:
            bundle.filter.bits[:] = bytes(len(bundle.filter.bits))
        good = records[0].features
        f32_max = float(np.finfo(np.float32).max)

        def variants(layer):
            model, x = bundle.pca_models[layer], good[layer]
            nan = x.astype(np.float64)
            nan[3] = np.nan
            beyond = np.sign(model.basis[0]) * f32_max
            return [x, nan, beyond, model.mean, x[:-1]]

        for vectors in itertools.product(*map(variants, LAYERS)):
            features = dict(zip(LAYERS, vectors))
            want = eager_error(bundle, features)
            if want is None:
                assert pl.gated_query(bundle, index, features).rejected == rejects
                continue
            with pytest.raises(want[0]) as raised:
                pl.gated_query(bundle, index, features)
            assert str(raised.value) == want[1]

    def test_errors_come_before_the_verdict(self, tmp_path):
        # an empty filter rules every query out at L3, its first probe
        bundle, index, records, _ = gate_system(tmp_path, LAYERS)
        bundle.filter.bits[:] = bytes(len(bundle.filter.bits))
        good = records[0].features
        assert pl.gated_query(bundle, index, good).rejected
        nan = {**good, "L1": good["L1"].copy()}
        nan["L1"][0] = np.nan
        with pytest.raises(InvalidVectorError):
            pl.gated_query(bundle, index, nan)
        with pytest.raises(ConfigMismatchError, match="^query missing layer L1$"):
            pl.gated_query(bundle, index, {"L2": good["L2"], "L3": good["L3"]})
        at_mean = {**good, "L1": bundle.pca_models["L1"].mean}
        with pytest.raises(InvalidVectorError, match="query layer L1 vector is non-finite or zero"):
            pl.gated_query(bundle, index, at_mean)


def reference_add(bundle, index, raw):
    """What `add_record` must do, through the public steps: the record
    compressed and signed, appended by `HierarchicalIndex.add`, inserted by
    `LayeredBloomFilter.insert`."""
    rec = pl.compress_record(bundle, raw)
    index.add(rec)
    bundle.filter.insert(rec.signatures)


def add_state(bundle, index):
    """Everything an add can change: each stored record's id, label, vectors
    (float32 bytes) and signatures, the filter's bits and its count."""
    records = [
        (r.id, r.label, {l: v.tobytes() for l, v in r.compressed.items()}, r.signatures)
        for r in index.records
    ]
    return records, bytes(bundle.filter.bits), bundle.filter.inserted_count


def band_dictionaries(bundle, rng):
    """Per layer, 16 centroids of small nonzero integers, so a compressed
    vector c + (3, 4, 0, ...) lies at distance exactly 5 from centroid c; at
    threshold 5 its bit is clear, and one ulp above 5 it is set, and either
    way the pre-test's g is 0 or within one ulp of t^2 of it, inside the
    band the definition decides."""
    thresholds = {"L1": 5.0, "L2": np.nextafter(5.0, 6.0), "L3": 5.0}
    return {
        layer: binseq.CentroidDictionary(
            rng.integers(1, 4, size=(16, bundle.config.pca_dim)).astype(float), thresholds[layer], 0
        )
        for layer in bundle.config.active_layers
    }


def band_record(bundle, rid, k):
    """Raw features whose float32 compression is c_k + (3, 4, 0, ...), the
    (3, 4) on coordinates k and k + 1 (wrapping): the raw vector is solved
    for from the basis as stored, so it projects to within rounding of the
    target, which the float32 cast removes."""
    features = {}
    for layer in bundle.config.active_layers:
        model, centroids = bundle.pca_models[layer], bundle.dictionaries[layer].centroids
        step = np.zeros(model.target_dim)
        step[k % len(step)], step[(k + 1) % len(step)] = 3.0, 4.0
        target = centroids[k % len(centroids)] + step
        features[layer] = model.mean + np.linalg.pinv(model.basis) @ target
    return pl.RawRecord(rid, "band", features)


class TestAddRecordOracle:
    """`add_record` against `reference_add`, each on its own filter and index
    over one bundle: the same bytes stored and inserted, the same errors."""

    @staticmethod
    def systems(bundle):
        return [
            (bloom.LayeredBloomFilter(bundle.filter.m, bundle.filter.layers), bundle.new_index())
            for _ in range(2)
        ]

    def test_corpus_and_band_records_store_the_same_bytes(self, tmp_path):
        records, _ = synth_records(tmp_path)
        bundle = pl.train(small_config(), records)
        bundle.dictionaries = band_dictionaries(bundle, np.random.default_rng(3))
        band = [band_record(bundle, f"band-{k}", k) for k in range(48)]
        corpus = [r for pair in itertools.zip_longest(records, band) for r in pair if r]
        states = []
        for add, (filt, index) in zip((reference_add, pl.add_record), self.systems(bundle)):
            bundle.filter = filt
            for raw in corpus:
                add(bundle, index, raw)
            states.append(add_state(bundle, index))
        assert states[0] == states[1]
        stored, _, count = states[1]
        assert count == len(stored) == len(corpus)
        # every band record lies at distance 5 from a centroid on every
        # layer, and its bits are the definition's
        on_band = 0
        for rec in index.records:
            for layer, vec in rec.compressed.items():
                d = bundle.dictionaries[layer]
                dist = np.linalg.norm(d.centroids - vec.astype(np.float64), axis=1)
                bits = np.packbits(dist < d.threshold, bitorder="little").tobytes()
                assert rec.signatures[layer].data == bits
                on_band += rec.label == "band" and bool(np.any(dist == 5.0))
        assert on_band == len(band) * len(LAYERS)

    def test_errors_and_their_order_equal_the_reference(self, tmp_path):
        # every mix of a good, NaN, beyond-float32, at-mean or short vector on
        # each layer, with a new id and with a stored one: the reference's
        # error, type and message, and nothing stored or inserted
        records, _ = synth_records(tmp_path)
        bundle = pl.train(small_config(binseq_threshold=5.0), records)
        systems = self.systems(bundle)
        for add, (filt, index) in zip((reference_add, pl.add_record), systems):
            bundle.filter = filt
            for raw in records:
                add(bundle, index, raw)
        f32_max = float(np.finfo(np.float32).max)

        def variants(layer):
            model, x = bundle.pca_models[layer], records[0].features[layer]
            nan = x.astype(np.float64)
            nan[3] = np.nan
            return [x, nan, np.sign(model.basis[0]) * f32_max, model.mean, x[:-1]]

        seen = set()
        for i, vectors in enumerate(itertools.product(*map(variants, LAYERS))):
            for rid in (f"new-{i}", records[0].id):
                raw = pl.RawRecord(rid, "x", dict(zip(LAYERS, vectors)))
                outcomes = []
                for add, (filt, index) in zip((reference_add, pl.add_record), systems):
                    bundle.filter = filt
                    try:
                        add(bundle, index, raw)
                        outcomes.append(None)
                    except (ValueError, DataFormatError) as exc:
                        outcomes.append((type(exc), str(exc)))
                    outcomes.append((len(index), bytes(filt.bits), filt.inserted_count))
                assert outcomes[:2] == outcomes[2:], (rid, i)
                seen.add(outcomes[0] and outcomes[0][0])
        assert seen == {None, pca.DimensionMismatchError, InvalidVectorError, DuplicateIdError}
        assert add_state(bundle, systems[0][1]) == add_state(bundle, systems[1][1])


class TestAveragePrecision:
    def test_perfect_ranking(self):
        assert pl.average_precision(["a", "b", "c"], {"a", "b", "c"}) == 1.0

    def test_interleaved(self):
        ap = pl.average_precision(["r1", "n", "r2"], {"r1", "r2"})
        assert ap == pytest.approx((1 / 1 + 2 / 3) / 2)

    def test_missing_relevant_items_count_zero(self):
        ap = pl.average_precision(["r1"], {"r1", "r2", "r3"})
        assert ap == pytest.approx(1 / 3)

    def test_empty_relevant_set(self):
        with pytest.raises(ValueError):
            pl.average_precision(["a"], set())

    def test_matches_independent_oracle(self):
        rng = np.random.default_rng(6)
        universe = [f"d{i}" for i in range(80)]
        for _ in range(50):
            ranking = list(rng.permutation(universe))[:50]
            relevant = set(rng.choice(universe, size=rng.integers(1, 30), replace=False))
            got = pl.average_precision(ranking, relevant)
            want = average_precision_oracle(ranking, relevant)
            assert abs(got - want) < 1e-12


class TestEvaluate:
    def test_indexed_queries_score_one(self, tmp_path):
        records, _ = synth_records(tmp_path, classes=4, per_class=10)
        cfg = small_config(threshold_scales={l: 4.0 for l in ("L1", "L2", "L3")})
        bundle = pl.train(cfg, records)
        index = bundle.new_index()
        for r in records:
            pl.add_record(bundle, index, r)
        report = pl.evaluate(bundle, index, records)
        assert report.mean_average_precision == pytest.approx(1.0)
        assert report.bloom_rejections == 0
        assert report.bloom_false_positives == 0

    def test_held_out_queries_are_no_false_positives(self, tmp_path):
        # a query of an indexed class passes the filter rightly, though its
        # own id is not stored
        records, queries = synth_records(tmp_path, classes=4, per_class=10, queries_per_class=3)
        bundle = pl.train(small_config(threshold_scales={l: 4.0 for l in ("L1", "L2", "L3")}), records)
        index = bundle.new_index()
        for r in records:
            pl.add_record(bundle, index, r)
        report = pl.evaluate(bundle, index, queries)
        assert report.bloom_rejections < len(queries)
        assert report.bloom_false_positives == 0

    def test_all_distractor_queries(self, tmp_path):
        records, _ = synth_records(tmp_path, classes=4, per_class=10)
        cfg = small_config()
        bundle = pl.train(cfg, records)
        index = bundle.new_index()
        for r in records:
            pl.add_record(bundle, index, r)
        rng = np.random.default_rng(7)
        distractors = [
            pl.RawRecord(f"d{i}", "unseen", {l: 100 + rng.normal(size=24) for l in ("L1", "L2", "L3")})
            for i in range(50)
        ]
        report = pl.evaluate(bundle, index, distractors)
        assert report.mean_average_precision is None
        assert report.bloom_rejections + report.bloom_false_positives == 50
        assert report.correct_rejections == report.bloom_rejections

    def test_every_outcome_scored_as_the_oracle(self, tmp_path):
        records, queries = synth_records(tmp_path, classes=4, per_class=10, queries_per_class=3)
        bundle = pl.train(small_config(threshold_scales={l: 4.0 for l in ("L1", "L2", "L3")}), records)
        index = bundle.new_index()
        for r in records:
            pl.add_record(bundle, index, r)
        rng = np.random.default_rng(12)

        def far():
            return {l: 100 + rng.normal(size=24) for l in ("L1", "L2", "L3")}

        mixed = [
            *queries,  # held out from indexed classes
            *(pl.RawRecord(f"far-{i}", records[0].label, far()) for i in range(5)),
            *(pl.RawRecord(f"copy-{i}", "unseen", r.features) for i, r in enumerate(records[::10])),
            *(pl.RawRecord(f"stray-{i}", "unseen", far()) for i in range(5)),
        ]
        report = pl.evaluate(bundle, index, mixed)
        results = [pl.gated_query(bundle, index, q.features) for q in mixed]
        # (rejected, distractor): hits, rejected indexed labels, passed and
        # rejected distractors all occur
        outcomes = {(res.rejected, q.label == "unseen") for q, res in zip(mixed, results)}
        assert outcomes == {(False, False), (True, False), (False, True), (True, True)}
        want = evaluation_oracle(mixed, results, [(r.id, r.label) for r in index.records])
        assert report.to_dict(include_timing=False) == want
        assert list(report.to_dict()) == [
            "query_ids", "average_precisions", "mean_average_precision", "bloom_rejections",
            "correct_rejections", "bloom_false_positives", "query_times", "mean_query_time",
        ]

    def test_empty_query_set(self, tmp_path):
        records, _ = synth_records(tmp_path, classes=2, per_class=10)
        bundle = pl.train(small_config(), records)
        with pytest.raises(ValueError):
            pl.evaluate(bundle, bundle.new_index(), [])

    def test_self_queries_never_rejected_property(self, tmp_path):
        # end-to-end no-false-negatives across assorted configs
        for layers, mult, seed in (
            (("L1",), 2.0, 1),
            (("L1", "L2"), 5.0, 2),
            (("L1", "L2", "L3"), 2.0, 3),
        ):
            records, _ = synth_records(tmp_path, dims=(24,) * len(layers), seed=seed)
            cfg = small_config(layers=layers, filter_multiplier=mult, rng_seed=seed)
            bundle = pl.train(cfg, records)
            index = bundle.new_index()
            for r in records:
                pl.add_record(bundle, index, r)
            index.freeze()
            for r in records:
                res = pl.gated_query(bundle, index, r.features, top_k=1)
                assert not res.rejected
                assert res.results[0][0] == r.id

    def test_distractor_pass_rate_bounded_by_eq1(self, tmp_path):
        records, _ = synth_records(tmp_path, classes=5, per_class=40)
        cfg = small_config(filter_multiplier=2.0)
        bundle = pl.train(cfg, records)
        index = bundle.new_index()
        for r in records:
            pl.add_record(bundle, index, r)
        rng = np.random.default_rng(8)
        n_probe = 500
        passed = 0
        for i in range(n_probe):
            feats = {l: rng.normal(size=24) * 10 for l in ("L1", "L2", "L3")}
            res = pl.gated_query(bundle, index, feats, top_k=1)
            passed += not res.rejected
        p = fp_probability(BloomParams(n=len(records), m=bundle.filter.m, k=3))
        bound = p + 3 * np.sqrt(p * (1 - p) / n_probe)
        assert passed / n_probe <= bound


class TestSynth:
    def test_single_record(self, tmp_path):
        p = tmp_path / "one.mlhc"
        pl.synth_generate(1, 1, [4], 0.5, 0, p)
        assert len(pl.read_features(p)) == 1

    def test_same_seed_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.mlhc", tmp_path / "b.mlhc"
        pl.synth_generate(3, 5, [6, 4], 0.2, 99, p1)
        pl.synth_generate(3, 5, [6, 4], 0.2, 99, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_zero_noise_degenerate(self, tmp_path):
        p = tmp_path / "z.mlhc"
        pl.synth_generate(2, 3, [5], 0.0, 1, p)
        records = pl.read_features(p)
        by_label = {}
        for r in records:
            by_label.setdefault(r.label, []).append(r)
        for group in by_label.values():
            for r in group[1:]:
                np.testing.assert_array_equal(r.features["L1"], group[0].features["L1"])
        cfg = small_config(layers=("L1",), pca_dim=1, centroid_count=2)
        bundle = pl.train(cfg, records)
        assert bundle.thresholds.thresholds["L1"] == 1e-6

    def test_invalid_counts(self, tmp_path):
        with pytest.raises(ValueError):
            pl.synth_generate(0, 1, [4], 0.1, 0, tmp_path / "x.mlhc")
        with pytest.raises(ValueError):
            pl.synth_generate(1, 1, [], 0.1, 0, tmp_path / "x.mlhc")


class TestIndexDir:
    def test_save_load_round_trip(self, tmp_path):
        records, queries = synth_records(tmp_path, queries_per_class=3)
        cfg = small_config(threshold_scales={l: 4.0 for l in ("L1", "L2", "L3")})
        bundle = pl.train(cfg, records)
        index = bundle.new_index()
        for r in records:
            pl.add_record(bundle, index, r)
        out = tmp_path / "idx"
        pl.save_index_dir(out, bundle, index)
        bundle2, index2 = pl.load_index_dir(out)
        assert bundle2.config.active_layers == cfg.active_layers
        assert len(index2) == len(index)
        for q in queries:
            a = pl.gated_query(bundle, index, q.features, top_k=10)
            b = pl.gated_query(bundle2, index2, q.features, top_k=10)
            assert a == b  # distances included

    def test_trained_signature_bits_survive_round_trip(self, tmp_path):
        # axis-aligned, zero-mean samples: the projection is exact, and the
        # probe lies 0.1000000009 from the centroid at (a, a), outside a
        # threshold of 0.1 but inside the float32 0.1 that dict-L1.bin holds
        a = 2.0**-10
        points = [(a, a), (-a, -a), (a, -a), (-a, a), (1, 0), (-1, 0), (0, 2), (0, -2)]
        records = [
            pl.RawRecord(f"r{i}", f"c{i // 4}", {"L1": np.array(p, np.float32)})
            for i, p in enumerate(points)
        ]
        cfg = small_config(layers=("L1",), pca_dim=2, centroid_count=8, binseq_threshold=0.1)
        bundle = pl.train(cfg, records)
        pl.save_index_dir(tmp_path / "idx", bundle, bundle.new_index())
        loaded, _ = pl.load_index_dir(tmp_path / "idx")
        offset = np.array([0.0631851, 0.077508986], np.float32)
        assert 0.1 < np.linalg.norm(offset.astype(np.float64)) < np.float32(0.1)
        probe = pl.RawRecord("p", "c0", {"L1": offset + np.float32(a)})
        trained = pl.compress_record(bundle, probe).signatures["L1"]
        assert trained == pl.compress_record(loaded, probe).signatures["L1"]
        assert trained.data != bytes(1)  # the near centroid's bit is set

    def test_mismatched_config_rejected(self, tmp_path):
        records, _ = synth_records(tmp_path)
        cfg = small_config()
        bundle = pl.train(cfg, records)
        out = tmp_path / "idx"
        pl.save_index_dir(out, bundle, bundle.new_index())
        doc = json.loads((out / "config.json").read_text())
        doc["centroid_count"] = 32
        (out / "config.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigMismatchError):
            pl.load_index_dir(out)

    def test_failed_save_keeps_previous_dir(self, tmp_path):
        records, _ = synth_records(tmp_path)
        bundle = pl.train(small_config(), records)
        index = bundle.new_index()
        for r in records[:10]:
            pl.add_record(bundle, index, r)
        out = tmp_path / "idx"
        pl.save_index_dir(out, bundle, index)
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        long_id = pl.RawRecord("x" * 70_000, "c", records[10].features)
        pl.add_record(bundle, index, long_id)
        with pytest.raises(DataFormatError):
            pl.save_index_dir(out, bundle, index)
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before
        _, loaded = pl.load_index_dir(out)
        assert len(loaded) == 10

    def test_filter_count_must_match_records(self, tmp_path):
        records, _ = synth_records(tmp_path)
        bundle = pl.train(small_config(), records)
        index = bundle.new_index()
        pl.add_record(bundle, index, records[0])
        out = tmp_path / "idx"
        pl.save_index_dir(out, bundle, index)
        save_records(out / "records.bin", bundle.new_index())
        with pytest.raises(ConfigMismatchError):
            pl.load_index_dir(out)
