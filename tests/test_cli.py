import json
import math
import shutil
import struct

import numpy as np
import pytest

from bloomretrieval import cli, pipeline
from bloomretrieval.pca import PcaModel

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
