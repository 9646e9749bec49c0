import json

import pytest

from bloomretrieval import cli

LAYERS = ("L1", "L2", "L3")


@pytest.fixture
def workspace(tmp_path):
    feats = tmp_path / "feats.mlhc"
    qrys = tmp_path / "qrys.mlhc"
    rc = cli.main(
        [
            "synth",
            "--classes", "4",
            "--per-class", "15",
            "--dims", "24,24,24",
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
        "pca_dim": 8,
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
