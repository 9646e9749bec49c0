import itertools
import json
import math
import re
import shutil
import struct
import types

import numpy as np
import pytest

from bloomretrieval import cli, pca, pipeline
from bloomretrieval.index import HierarchicalIndex
from bloomretrieval.pca import PcaModel

from oracles import write_records_v1

LAYERS = ("L1", "L2", "L3")


def make_workspace(tmp_path, pca_dim=8, dims="24,24,24"):
    feats = tmp_path / "feats.mlhc"
    qrys = tmp_path / "qrys.mlhc"
    rc = cli.main(
        [
            "synth",
            "--classes", "4",
            "--per-class", "15",
            "--dims", dims,
            "--noise", "0.1",
            "--seed", "5",
            "--out", str(feats),
            "--queries-per-class", "3",
            "--queries-out", str(qrys),
        ]
    )
    assert rc == 0
    cfg = {
        "active_layers": ["L1", "L2", "L3"],
        "pca_dim": pca_dim,
        "centroid_count": 16,
        "binseq_threshold": 10.0,
        "filter_multiplier": 2.0,
        "rng_seed": 3,
        "top_k": 30,
        "threshold_scales": {"L1": 4.0, "L2": 4.0, "L3": 4.0},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path, feats, qrys, cfg_path


@pytest.fixture
def workspace(tmp_path):
    return make_workspace(tmp_path)


def filled_index(tmp_path, pca_dim=8):
    """A workspace's index trained on its records and holding all of them."""
    root, feats, qrys, cfg_path = make_workspace(tmp_path, pca_dim)
    idx = root / "idx"
    assert cli.main(["train", "--config", str(cfg_path), "--features", str(feats), "--out", str(idx)]) == 0
    assert cli.main(["add", "--index", str(idx), "--features", str(feats)]) == 0
    return idx, feats, qrys


@pytest.fixture(scope="module")
def filled(tmp_path_factory):
    return filled_index(tmp_path_factory.mktemp("filled"))


@pytest.fixture
def filled_copy(filled, tmp_path):
    """A private copy of the filled index and its query file, to corrupt."""
    idx, _, qrys = filled
    shutil.copytree(idx, tmp_path / "idx")
    shutil.copy(qrys, tmp_path / "qrys.mlhc")
    return tmp_path / "idx", tmp_path / "qrys.mlhc"


def test_full_cli_flow(workspace, capsys):
    tmp_path, feats, qrys, cfg_path = workspace
    idx = tmp_path / "idx"

    assert cli.main(["train", "--config", str(cfg_path), "--features", str(feats), "--out", str(idx)]) == 0
    assert (idx / "config.json").exists()
    assert (idx / "filter.bin").exists()

    assert cli.main(["add", "--index", str(idx), "--features", str(feats)]) == 0

    capsys.readouterr()
    assert cli.main(["query", "--index", str(idx), "--features", str(qrys), "--top-k", "5", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 12
    for entry in out:
        assert "rejected_by_filter" in entry

    capsys.readouterr()
    assert cli.main(["evaluate", "--index", str(idx), "--queries", str(qrys), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["mean_average_precision"] > 0.9
    assert report["bloom_rejections"] == 0

    capsys.readouterr()
    assert cli.main(["bench", "--index", str(idx), "--queries", str(qrys)]) == 0
    bench_out = capsys.readouterr().out
    assert "hierarchical" in bench_out and "brute-force" in bench_out


def test_usage_error_exit_1():
    assert cli.main(["train"]) == 1
    assert cli.main(["not-a-command"]) == 1


def test_unknown_config_key_exit_1(workspace):
    tmp_path, feats, _, cfg_path = workspace
    doc = json.loads(cfg_path.read_text())
    doc["treshold_scales"] = doc.pop("threshold_scales")
    cfg_path.write_text(json.dumps(doc))
    out = tmp_path / "typo-idx"
    rc = cli.main(["train", "--config", str(cfg_path), "--features", str(feats), "--out", str(out)])
    assert rc == 1
    assert not out.exists()


def test_bad_config_value_exit_1(workspace, capsys):
    tmp_path, feats, _, cfg_path = workspace
    good = json.loads(cfg_path.read_text())
    for doc in (
        {**good, "filter_multiplier": float("inf")},  # written as Infinity
        {**good, "filter_multiplier": "2"},
        {**good, "pca_dim": "8"},
        {**good, "top_k": 2.5},
        {**good, "binseq_threshold": float("nan")},
        {**good, "stage_order": "fine_to_coarse"},
        {**good, "filter_multiplier": 1e300},  # more bits than a u64 counts
        [],  # not a JSON object
    ):
        cfg_path.write_text(json.dumps(doc))
        out = tmp_path / "bad-idx"
        rc = cli.main(["train", "--config", str(cfg_path), "--features", str(feats), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 1, doc
        assert err.startswith("error: ") and "Traceback" not in err
        assert not out.exists()


def test_data_error_exit_2(workspace, tmp_path):
    _, feats, _, cfg_path = workspace
    bad = tmp_path / "bad.mlhc"
    bad.write_bytes(b"JUNK")
    assert cli.main(["train", "--config", str(cfg_path), "--features", str(bad), "--out", str(tmp_path / "i")]) == 2


def test_missing_file_exit_2(workspace, tmp_path):
    _, _, _, cfg_path = workspace
    assert (
        cli.main(
            ["train", "--config", str(cfg_path), "--features", str(tmp_path / "nope.mlhc"), "--out", str(tmp_path / "i")]
        )
        == 2
    )


def test_config_mismatch_exit_3(workspace, tmp_path):
    tmp_path, feats, _, cfg_path = workspace
    idx = tmp_path / "idx3"
    assert cli.main(["train", "--config", str(cfg_path), "--features", str(feats), "--out", str(idx)]) == 0
    doc = json.loads((idx / "config.json").read_text())
    doc["centroid_count"] = 8
    (idx / "config.json").write_text(json.dumps(doc))
    assert cli.main(["add", "--index", str(idx), "--features", str(feats)]) == 3


def test_duplicate_add_exit_2(workspace):
    tmp_path, feats, _, cfg_path = workspace
    idx = tmp_path / "idx2"
    assert cli.main(["train", "--config", str(cfg_path), "--features", str(feats), "--out", str(idx)]) == 0
    assert cli.main(["add", "--index", str(idx), "--features", str(feats)]) == 0
    assert cli.main(["add", "--index", str(idx), "--features", str(feats)]) == 2


BINARY_PARTS = [
    *(f"{kind}-{layer}.bin" for kind in ("pca", "dict") for layer in LAYERS),
    "filter.bin",
    "records.bin",
]


def run(capsys, *argv):
    """Exit code and standard error of one CLI call."""
    rc = cli.main([str(a) for a in argv])
    return rc, capsys.readouterr().err


@pytest.mark.parametrize("edit", ["cut", "append"])
@pytest.mark.parametrize("part", [*BINARY_PARTS, "queries"])
def test_corrupt_part_exit_2(filled_copy, capsys, part, edit):
    idx, qrys = filled_copy
    target = qrys if part == "queries" else idx / part
    blob = target.read_bytes()
    target.write_bytes(blob[:-1] if edit == "cut" else blob + b"\x00")
    rc, err = run(capsys, "query", "--index", idx, "--features", qrys)
    assert rc == 2, err
    assert err.startswith("data error: ")
    assert ("truncated" if edit == "cut" else "trailing bytes") in err


@pytest.mark.parametrize(
    "edit", ["cut", "append", "non-utf8", "pca-dim-0", "unknown-key", "list-wrapped"]
)
def test_corrupt_config_json_exit_2(filled_copy, capsys, edit):
    # an index's config.json is a part of it: a value that `train --config`
    # refuses with exit 1 exits 2 here
    idx, qrys = filled_copy
    blob = (idx / "config.json").read_bytes()
    doc = json.loads(blob)
    (idx / "config.json").write_bytes(
        {
            "cut": blob[: len(blob) // 2],
            "append": blob + b"\x00",
            "non-utf8": blob.replace(b'"active_layers"', b'"\xffactive_layers"', 1),
            "pca-dim-0": json.dumps({**doc, "pca_dim": 0}).encode(),
            "unknown-key": json.dumps({**doc, "top_kk": 10}).encode(),
            "list-wrapped": json.dumps([doc]).encode(),
        }[edit]
    )
    for command, flag in (
        ("query", "--features"), ("evaluate", "--queries"), ("bench", "--queries"), ("add", "--features"),
    ):
        rc, err = run(capsys, command, "--index", idx, flag, qrys)
        assert rc == 2, (command, err)
        assert err.startswith("data error: config.json: "), err


@pytest.mark.parametrize(
    "part, first_id", [("records.bin", b"img-000-00000"), ("queries", b"qry-000-00000")]
)
def test_non_utf8_id_exit_2(filled_copy, capsys, part, first_id):
    idx, qrys = filled_copy
    target = qrys if part == "queries" else idx / part
    blob = target.read_bytes()
    assert first_id in blob
    target.write_bytes(blob.replace(first_id, b"\xff" + first_id[1:], 1))
    rc, err = run(capsys, "query", "--index", idx, "--features", qrys)
    assert rc == 2, err
    assert err.startswith("data error: ") and "not UTF-8" in err


@pytest.mark.parametrize("part", ["dict-L2.bin", "records.bin"])
def test_part_of_other_width_exit_3(filled_copy, tmp_path, capsys, part):
    idx, qrys = filled_copy
    (tmp_path / "narrow").mkdir()
    narrow, feats, _ = filled_index(tmp_path / "narrow", pca_dim=6)
    shutil.copy(narrow / part, idx / part)
    for command, inputs in (("query", qrys), ("add", feats)):
        rc, err = run(capsys, command, "--index", idx, "--features", inputs)
        assert rc == 3, (command, err)
        assert err.startswith("config mismatch: ")


def test_add_to_v1_index_leaves_v2(filled_copy, capsys):
    # an index saved before records.bin v2 answers as before, and `add`
    # rewrites its record store as v2
    idx, qrys = filled_copy
    query = [str(a) for a in ("query", "--index", idx, "--features", qrys, "--json")]
    assert cli.main(query) == 0
    answers = capsys.readouterr().out
    _, index = pipeline.load_index_dir(idx)
    old = [(r.id, [r.compressed[l].tobytes() for l in LAYERS]) for r in index.records]
    write_records_v1(idx / "records.bin", index.records, index.layers)
    assert (idx / "records.bin").read_bytes()[4:12] == struct.pack("<Q", len(old))
    assert cli.main(query) == 0
    assert capsys.readouterr().out == answers

    rc, err = run(capsys, "add", "--index", idx, "--features", qrys)
    assert rc == 0, err
    assert (idx / "records.bin").read_bytes()[:14] == b"MHIX" + b"\xff" * 8 + struct.pack("<H", 2)
    _, index = pipeline.load_index_dir(idx)
    records = index.records
    assert [(r.id, [r.compressed[l].tobytes() for l in LAYERS]) for r in records[: len(old)]] == old
    assert [r.id for r in records[len(old):]] == [q.id for q in pipeline.read_features(qrys)]


def test_repeated_filter_seed_exit_3(filled_copy, capsys):
    idx, qrys = filled_copy
    blob = bytearray((idx / "filter.bin").read_bytes())
    blob[17:21] = struct.pack("<I", 1)  # the L2 seed becomes a second L1
    (idx / "filter.bin").write_bytes(bytes(blob))
    rc, err = run(capsys, "query", "--index", idx, "--features", qrys)
    assert rc == 3, err
    assert err.startswith("config mismatch: repeated layer seed 1")


def test_bench_projects_every_query_before_its_timed_calls(filled, capsys, monkeypatch):
    # a record's layers are projected when first read: bench must read them
    # all up front, or its index times would include the projections
    idx, _, qrys = filled
    projected, timed = [], []
    project = pca.project

    def counted_project(model, x):
        projected.append(model)
        return project(model, x)

    def timing(fn):
        def call(index, vectors, top_k):
            before = len(projected)
            result = fn(index, vectors, top_k)
            timed.append(len(projected) - before)
            return result
        return call

    monkeypatch.setattr(pca, "project", counted_project)
    for name in ("query_hierarchical", "brute_force_scan"):
        monkeypatch.setattr(cli, name, timing(getattr(cli, name)))
    rc, err = run(capsys, "bench", "--index", idx, "--queries", qrys)
    assert rc == 0, err
    n = len(pipeline.read_features(qrys))
    assert len(projected) == 3 * n
    assert timed == [0] * (2 * n)


def test_bench_compresses_each_query_once(filled, capsys, monkeypatch):
    idx, _, qrys = filled
    calls = []
    compress = pipeline.compress_record

    def counted(bundle, raw):
        calls.append(raw.id)
        return compress(bundle, raw)

    monkeypatch.setattr(pipeline, "compress_record", counted)
    rc, err = run(capsys, "bench", "--index", idx, "--queries", qrys)
    assert rc == 0, err
    assert calls == [q.id for q in pipeline.read_features(qrys)]


@pytest.mark.parametrize("top_k", ["-1", "0"])
def test_bad_top_k_exit_1(filled, capsys, top_k):
    idx, _, qrys = filled
    for command, flag in (("query", "--features"), ("bench", "--queries")):
        rc, err = run(capsys, command, "--index", idx, flag, qrys, "--top-k", top_k)
        assert rc == 1, (command, err)
        assert err.startswith("error: top_k")


def trained_index(tmp_path, dims="24,24,24", **config):
    """A fresh workspace's trained (empty) index, with config values changed."""
    tmp_path.mkdir()
    root, feats, _, cfg_path = make_workspace(tmp_path, dims=dims)
    cfg_path.write_text(json.dumps({**json.loads(cfg_path.read_text()), **config}))
    idx = root / "idx"
    assert cli.main(["train", "--config", str(cfg_path), "--features", str(feats), "--out", str(idx)]) == 0
    return idx


def test_dictionary_of_other_threshold_exit_3(filled_copy, tmp_path, capsys):
    # same features, seed and shape: the centroids match, the threshold not
    idx, qrys = filled_copy
    other = trained_index(tmp_path / "other", binseq_threshold=5.0)
    shutil.copy(other / "dict-L1.bin", idx / "dict-L1.bin")
    rc, err = run(capsys, "query", "--index", idx, "--features", qrys)
    assert rc == 3, err
    assert err.startswith("config mismatch: ") and "threshold" in err


def test_pca_of_other_input_width_exit_3(filled_copy, tmp_path, capsys):
    idx, qrys = filled_copy
    wide = trained_index(tmp_path / "wide", dims="32,32,32")
    shutil.copy(wide / "pca-L1.bin", idx / "pca-L1.bin")
    before = (idx / "records.bin").read_bytes()
    for command, flag in (
        ("query", "--features"), ("evaluate", "--queries"), ("bench", "--queries"), ("add", "--features"),
    ):
        rc, err = run(capsys, command, "--index", idx, flag, qrys)
        assert rc == 3, (command, err)
        assert err.startswith("config mismatch: ") and "PCA" in err
    assert (idx / "records.bin").read_bytes() == before


def test_filter_memory_ceiling(filled_copy, workspace, capsys):
    # 60 records x 1e9 is above the 2^34-bit ceiling but fits a u64; the
    # check comes before the bit array is allocated
    tmp_path, feats, _, cfg_path = workspace
    cfg_path.write_text(json.dumps({**json.loads(cfg_path.read_text()), "filter_multiplier": 1e9}))
    rc, err = run(capsys, "train", "--config", cfg_path, "--features", feats, "--out", tmp_path / "big")
    assert rc == 1 and err.startswith("error: ") and "2 GiB" in err
    assert not (tmp_path / "big").exists()
    idx, qrys = filled_copy
    blob = bytearray((idx / "filter.bin").read_bytes())
    blob[4:12] = struct.pack("<Q", 2**34 + 1)
    (idx / "filter.bin").write_bytes(bytes(blob))
    rc, err = run(capsys, "query", "--index", idx, "--features", qrys)
    assert rc == 2 and err.startswith("data error: ") and "2 GiB" in err


@pytest.mark.parametrize(
    "bad",
    [{"L1": -1.0}, {"L1": True}, {"L1": math.nan}, {"L1": None}, {"L1": "x"}, {"L1": 10**400}, list(LAYERS), 0.5],
    ids=["negative", "bool", "nan", "null", "string", "huge-int", "list", "number"],
)
def test_bad_calibrated_thresholds_exit_2(filled_copy, capsys, bad):
    idx, qrys = filled_copy
    doc = json.loads((idx / "config.json").read_text())
    stored = doc["calibrated_thresholds"]
    doc["calibrated_thresholds"] = {**stored, **bad} if isinstance(bad, dict) else bad
    (idx / "config.json").write_text(json.dumps(doc))
    rc, err = run(capsys, "query", "--index", idx, "--features", qrys)
    assert rc == 2, err
    assert err.startswith("data error: ") and "calibrated" in err


@pytest.mark.parametrize("case", ["index-is-file", "features-is-dir", "config-is-dir", "out-is-file"])
def test_unusable_path_exit_2(filled, workspace, capsys, case):
    idx, _, qrys = filled
    tmp_path, feats, _, cfg_path = workspace
    argv = {
        "index-is-file": ("query", "--index", qrys, "--features", qrys),
        "features-is-dir": ("query", "--index", idx, "--features", tmp_path),
        "config-is-dir": ("train", "--config", tmp_path, "--features", feats, "--out", tmp_path / "i"),
        "out-is-file": ("train", "--config", cfg_path, "--features", feats, "--out", feats),
    }[case]
    before = feats.read_bytes()
    rc, err = run(capsys, *argv)
    assert rc == 2, err
    assert err.startswith("data error: ") and "Traceback" not in err
    assert feats.read_bytes() == before


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning fails the test
@pytest.mark.parametrize(
    "layer,at,value",
    [
        ("L2", 3, math.nan),
        ("L2", 3, math.inf),
        # finite, but it projects beyond float32, the precision records hold
        ("L1", slice(None), 3e38 * (-1.0) ** np.arange(24)),
    ],
    ids=["nan", "inf", "beyond-f32"],
)
@pytest.mark.parametrize("command", ["train", "add", "query", "evaluate", "bench"])
def test_non_finite_feature_exit_2(filled_copy, workspace, capsys, command, layer, at, value):
    idx, qrys = filled_copy
    tmp_path, feats, _, cfg_path = workspace
    records = pipeline.read_features(feats if command == "train" else qrys)
    poisoned = records[1].features[layer].copy()
    poisoned[at] = value
    records[1] = pipeline.RawRecord(records[1].id, records[1].label, {**records[1].features, layer: poisoned})
    bad = tmp_path / "bad.mlhc"
    pipeline.write_features(bad, records)
    flag = "--queries" if command in ("evaluate", "bench") else "--features"
    argv = (
        ("train", "--config", cfg_path, "--features", bad, "--out", tmp_path / "new")
        if command == "train"
        else (command, "--index", idx, flag, bad)
    )
    before = (idx / "records.bin").read_bytes()
    rc, err = run(capsys, *argv)
    assert rc == 2, err
    assert err.startswith("data error: ") and err.count("\n") == 1, err
    assert (idx / "records.bin").read_bytes() == before
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["query", "evaluate"])
@pytest.mark.parametrize("part", ["pca-L2.bin", "dict-L2.bin"])
def test_non_finite_model_float_exit_2(filled_copy, capsys, part, command):
    idx, qrys = filled_copy
    blob = bytearray((idx / part).read_bytes())
    # a NaN as the first basis entry, after the two u32 dims and the mean, or
    # as the first centroid value, after the dictionary's 20-byte header
    at = 8 + 4 * struct.unpack_from("<I", blob)[0] if part.startswith("pca") else 20
    blob[at:at + 4] = struct.pack("<f", math.nan)
    (idx / part).write_bytes(bytes(blob))
    flag = "--queries" if command == "evaluate" else "--features"
    rc, err = run(capsys, command, "--index", idx, flag, qrys)
    assert rc == 2, err
    assert err.startswith("data error: ") and "NaN or Inf" in err


def test_query_at_pca_mean_exit_2(filled_copy, tmp_path, capsys):
    # raw features equal to each layer's PCA mean compress to zero vectors,
    # which have no direction to rank by
    idx, qrys = filled_copy
    means = {l: PcaModel.from_bytes((idx / f"pca-{l}.bin").read_bytes()).mean for l in LAYERS}
    pipeline.write_features(tmp_path / "mean.mlhc", [pipeline.RawRecord("q", "class-000", means)])
    rc, err = run(capsys, "bench", "--index", idx, "--queries", tmp_path / "mean.mlhc")
    assert rc == 2, err
    assert err.startswith("data error: ") and "non-finite or zero" in err


@pytest.mark.parametrize(
    "n,q,want",
    [(10, 0.90, 9), (100, 0.90, 90), (10, 0.50, 5), (100, 0.99, 99), (1, 0.99, 1), (3, 0.50, 2)],
)
def test_bench_percentile_is_nearest_rank(n, q, want):
    # the value at rank ceil(q * n), as benchmark/workloads.py reports it;
    # the old int(q * n) index was one rank too high
    assert cli._percentile(list(range(1, n + 1)), q) == want


@pytest.mark.parametrize(
    "flag, value",
    [("--noise", "nan"), ("--noise", "inf"), ("--dims", "4,4,4,4"), ("--queries-per-class", "1")],
    ids=["noise-nan", "noise-inf", "four-dims", "queries-without-path"],
)
def test_synth_refuses_before_writing(tmp_path, capsys, flag, value):
    args = {"--classes": "2", "--per-class": "3", "--dims": "4,4", "--out": tmp_path / "feats.mlhc"}
    args[flag] = value
    rc, err = run(capsys, "synth", *(x for pair in args.items() for x in pair))
    assert rc == 1 and err.startswith("error: "), err
    assert list(tmp_path.iterdir()) == []


def test_top_k_checked_before_any_file_is_read(filled, tmp_path, capsys):
    idx, _, _ = filled
    empty = tmp_path / "empty.mlhc"
    pipeline.write_features(empty, [])
    for command, flag in (("query", "--features"), ("bench", "--queries")):
        for index in (idx, tmp_path / "no-such-index"):
            rc, err = run(capsys, command, "--index", index, flag, empty, "--top-k", "0")
            assert rc == 1, (command, index, err)
            assert err.startswith("error: top_k"), err


def test_bench_refuses_empty_query_file(filled, tmp_path, capsys):
    idx, _, _ = filled
    empty = tmp_path / "empty.mlhc"
    pipeline.write_features(empty, [])
    rc, err = run(capsys, "bench", "--index", idx, "--queries", empty)
    assert rc == 1, err
    assert err.startswith("error: ") and str(empty) in err and "no query records" in err


@pytest.mark.filterwarnings("error")  # no numpy cast overflow
def test_train_refuses_model_beyond_float32(workspace, capsys):
    # features of amplitude 1e20 fit float32, their variance of 1e40 does not
    tmp_path, feats, _, cfg_path = workspace
    huge = [
        pipeline.RawRecord(r.id, r.label, {l: 1e20 * v for l, v in r.features.items()})
        for r in pipeline.read_features(feats)
    ]
    pipeline.write_features(tmp_path / "huge.mlhc", huge)
    rc, err = run(capsys, "train", "--config", cfg_path, "--features", tmp_path / "huge.mlhc", "--out", tmp_path / "new")
    assert rc == 2, err
    assert err.startswith("data error: ") and "float32" in err
    assert not (tmp_path / "new").exists()


def _signature_bytes_3(blob):
    # records.bin v2: magic, v2 mark, version, layer count and record count
    # (24 bytes), then per layer a u32 vector width and a u32 signature byte
    # width; L1's becomes 3, which does not fit 16 bits
    return blob[:28] + struct.pack("<I", 3) + blob[32:]


def _records_version_3(blob):
    # after the magic and the v2 mark, the u16 version
    return blob[:12] + struct.pack("<H", 3) + blob[14:]


def _pca_one_dim_short(blob):
    model = PcaModel.from_bytes(blob)
    return PcaModel(model.mean, model.basis[:-1], model.eigenvalues[:-1]).to_bytes()


def _filter_without_l3(blob):
    # magic and m (12 bytes), the layer count, then one u32 seed per layer
    return blob[:12] + bytes([2]) + blob[13:21] + blob[25:]


def _calibrated_without_l3(blob):
    doc = json.loads(blob)
    del doc["calibrated_thresholds"]["L3"]
    return json.dumps(doc).encode()


def _feature_file_version_2(blob):
    return blob[:4] + struct.pack("<H", 2) + blob[6:]


@pytest.mark.parametrize(
    "part, edit, code, message",
    [
        ("records.bin", _signature_bytes_3, 3, "signature byte width 3 does not fit 16 bits"),
        ("records.bin", _records_version_3, 2, "unsupported records file version 3"),
        ("pca-L2.bin", _pca_one_dim_short, 3, "PCA target dim 7 != configured 8"),
        ("filter.bin", _filter_without_l3, 3, "filter layers ('L1', 'L2') != configured"),
        ("config.json", _calibrated_without_l3, 3, "calibrated thresholds missing"),
        ("queries", _feature_file_version_2, 2, "unsupported feature file version 2"),
    ],
    ids=["record-signature-bytes", "records-version", "pca-target-dim", "filter-layers", "calibrated-layer", "mlhc-version"],
)
def test_cross_check_exit_code(filled_copy, capsys, part, edit, code, message):
    idx, qrys = filled_copy
    target = qrys if part == "queries" else idx / part
    target.write_bytes(edit(target.read_bytes()))
    rc, err = run(capsys, "query", "--index", idx, "--features", qrys)
    assert rc == code, err
    assert message in err


def gated_index(tmp_path, binseq_threshold):
    """An index holding 4 classes of 30 records (seed 3) under 16 centroids,
    with its 8 held-out queries and 6 records of 2 foreign classes (seed 4),
    labelled `foreign`. At a binseq threshold of 1.0 its filter passes every
    held-out query and rejects every foreign record."""
    feats, qrys, foreign = tmp_path / "feats.mlhc", tmp_path / "qrys.mlhc", tmp_path / "foreign.mlhc"
    synth = ["synth", "--dims", "24,24,24", "--classes"]
    assert cli.main([*synth, "4", "--per-class", "30", "--seed", "3", "--out", str(feats), "--queries-per-class", "2", "--queries-out", str(qrys)]) == 0
    assert cli.main([*synth, "2", "--per-class", "3", "--seed", "4", "--out", str(foreign)]) == 0
    pipeline.write_features(
        foreign, [pipeline.RawRecord(r.id, "foreign", r.features) for r in pipeline.read_features(foreign)]
    )
    cfg = {
        "active_layers": list(LAYERS),
        "pca_dim": 8,
        "centroid_count": 16,
        "binseq_threshold": binseq_threshold,
        "rng_seed": 1,
    }
    (tmp_path / "config.json").write_text(json.dumps(cfg))
    idx = tmp_path / "idx"
    assert cli.main(["train", "--config", str(tmp_path / "config.json"), "--features", str(feats), "--out", str(idx)]) == 0
    assert cli.main(["add", "--index", str(idx), "--features", str(feats)]) == 0
    return idx, qrys, foreign


@pytest.fixture(scope="module")
def gated(tmp_path_factory):
    """`gated_index` at binseq thresholds 1.0 and 10.0."""
    return {t: gated_index(tmp_path_factory.mktemp(f"gated-{t}"), t) for t in (1.0, 10.0)}


def passes_filter(idx, raw):
    bundle, _ = pipeline.load_index_dir(idx)
    return bundle.filter.query(pipeline.compress_record(bundle, raw).signatures)


@pytest.mark.parametrize("threshold, passes", [(1.0, False), (10.0, True)], ids=["filter-rejects", "filter-passes"])
@pytest.mark.parametrize("command", ["query", "evaluate", "bench"])
def test_query_at_pca_mean_exit_2_whatever_the_filter(gated, tmp_path, capsys, command, threshold, passes):
    # a query that compresses to zero has no direction, whether or not the
    # filter would send it on to the index (`bench` asks no filter), and the
    # message names the layer
    idx, _, _ = gated[threshold]
    means = {l: PcaModel.from_bytes((idx / f"pca-{l}.bin").read_bytes()).mean for l in LAYERS}
    raw = pipeline.RawRecord("q", "class-000", means)
    assert passes_filter(idx, raw) is passes
    pipeline.write_features(tmp_path / "mean.mlhc", [raw])
    flag = "--features" if command == "query" else "--queries"
    rc, err = run(capsys, command, "--index", idx, flag, tmp_path / "mean.mlhc")
    assert rc == 2, err
    assert re.match(r"data error: query layer L[123] vector is non-finite or zero", err), err


@pytest.mark.parametrize(
    "bad, code, message",
    [
        ("nan-L1", 2, "data error: "),
        ("only-L1", 3, "config mismatch: query missing layer L2\n"),
        ("L1-at-mean", 2, "data error: query layer L1 vector is non-finite or zero\n"),
        ("L1-beyond-float32", 2, "data error: raw features hold a NaN or Inf, or project beyond float32\n"),
        ("L2-at-mean", 2, "data error: query layer L2 vector is non-finite or zero\n"),
    ],
)
def test_bad_query_refused_before_the_filter_rejects_it(tmp_path, capsys, bad, code, message):
    # an index trained and never added to: its empty filter rules every query
    # out at L3, its first probe, yet a bad L1 or L2 or a missing layer still
    # fails
    idx = trained_index(tmp_path / "ws")
    qrys = tmp_path / "ws" / "qrys.mlhc"
    capsys.readouterr()
    assert cli.main(["query", "--index", str(idx), "--features", str(qrys), "--json"]) == 0
    assert all(e["rejected_by_filter"] for e in json.loads(capsys.readouterr().out))
    raw = pipeline.read_features(qrys)[0]
    l1 = raw.features["L1"].astype(np.float64)
    if bad == "nan-L1":
        l1[0] = math.nan
    elif bad == "L1-at-mean":
        l1 = PcaModel.from_bytes((idx / "pca-L1.bin").read_bytes()).mean
    elif bad == "L1-beyond-float32":
        # every value within float32, and the first component about
        # |b_0|_1 times beyond it
        basis = PcaModel.from_bytes((idx / "pca-L1.bin").read_bytes()).basis
        l1 = np.sign(basis[0]) * float(np.finfo(np.float32).max)
    features = {"L1": l1} if bad == "only-L1" else {**raw.features, "L1": l1}
    if bad == "L2-at-mean":
        features["L2"] = PcaModel.from_bytes((idx / "pca-L2.bin").read_bytes()).mean
    pipeline.write_features(tmp_path / "bad.mlhc", [pipeline.RawRecord("q", "class-000", features)])
    rc, err = run(capsys, "query", "--index", idx, "--features", tmp_path / "bad.mlhc")
    assert rc == code, err
    assert err.startswith(message), err


def test_query_rejected_in_full_builds_no_index(gated, capsys, monkeypatch):
    idx, _, foreign = gated[1.0]
    assert not any(passes_filter(idx, raw) for raw in pipeline.read_features(foreign))

    def refuse(self):
        raise AssertionError("freeze() called for queries the filter rejects")

    monkeypatch.setattr(HierarchicalIndex, "freeze", refuse)
    assert cli.main(["query", "--index", str(idx), "--features", str(foreign), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert len(out) == 6 and all(e["rejected_by_filter"] and not e["results"] for e in out)


def test_query_text_output(gated, tmp_path, capsys):
    # one line a query: its hits as `id (distance)`, `rejected-by-filter`, or
    # `(no matches)` when the filter passes it and no record is near enough
    idx, qrys, foreign = gated[1.0]
    strict = tmp_path / "strict"
    shutil.copytree(idx, strict)
    doc = json.loads((strict / "config.json").read_text())
    doc["threshold_scales"] = {l: 1e-9 for l in LAYERS}
    (strict / "config.json").write_text(json.dumps(doc))
    seen = set()
    for index, queries in ((idx, qrys), (idx, foreign), (strict, qrys)):
        argv = ["query", "--index", str(index), "--features", str(queries)]
        assert cli.main([*argv, "--json"]) == 0
        entries = json.loads(capsys.readouterr().out)
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(entries)
        for line, e in zip(lines, entries):
            hits = ", ".join(f"{r['id']} ({r['distance']:.6f})" for r in e["results"])
            rest = "rejected-by-filter" if e["rejected_by_filter"] else hits or "(no matches)"
            assert line == f"{e['query_id']}: {rest}"
            seen.add("hits" if hits else rest)
    assert seen == {"hits", "rejected-by-filter", "(no matches)"}


def test_evaluate_text_output_matches_json(gated, tmp_path, capsys, monkeypatch):
    idx, qrys, foreign = gated[1.0]
    mixed = tmp_path / "mixed.mlhc"
    pipeline.write_features(mixed, pipeline.read_features(qrys) + pipeline.read_features(foreign))
    # every query takes one tick of 1 ms, so both runs time alike
    ticks = itertools.count()
    monkeypatch.setattr(pipeline, "time", types.SimpleNamespace(perf_counter=lambda: next(ticks) * 1e-3))
    argv = ["evaluate", "--index", str(idx), "--queries", str(mixed)]
    assert cli.main([*argv, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines() == [
        "queries:              14",
        f"mAP:                  {report['mean_average_precision']:.4f}",
        "mean query time:      1.000 ms",
        "bloom rejections:     6",
        "correct rejections:   6",
        "bloom false positives:0",
    ]
    assert report["bloom_rejections"] == report["correct_rejections"] == 6
    assert report["bloom_false_positives"] == 0 and report["mean_query_time"] == pytest.approx(1e-3)


def test_unknown_filter_seed_exit_3(filled_copy, capsys):
    idx, qrys = filled_copy
    blob = bytearray((idx / "filter.bin").read_bytes())
    blob[13:17] = struct.pack("<I", 9)  # magic, m u64, k u8, then the L1 seed
    (idx / "filter.bin").write_bytes(bytes(blob))
    rc, err = run(capsys, "query", "--index", idx, "--features", qrys)
    assert rc == 3, err
    assert err.startswith("config mismatch: unknown layer seed 9")


def test_train_on_no_records_exit_1(workspace, capsys):
    tmp_path, _, _, cfg_path = workspace
    empty = tmp_path / "empty.mlhc"
    pipeline.write_features(empty, [])
    rc, err = run(capsys, "train", "--config", cfg_path, "--features", empty, "--out", tmp_path / "new")
    assert rc == 1, err
    assert err.startswith("error: ") and "at least one record" in err
    assert not (tmp_path / "new").exists()
