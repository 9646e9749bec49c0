"""Corruption fuzz over every file the CLI reads.

One small index is built through `cli.main` (3 classes of 30 records,
64-d, `pca_dim` 16, 16 centroids, all records added) with a file of held-out
queries. Each example corrupts one index part or the query file, by a
truncation, a byte flipped by a mask, a run of 00, 7f, 80 or ff bytes, or an
insertion of such a run, then runs `query`, `evaluate` or `add` in process.
It asserts that:

- the exit code is one of the documented 0-3;
- stderr is empty on exit 0, and otherwise one line that starts with the
  code's prefix (`error: `, `data error: `, `config mismatch: `);
- no exception escapes `main`, a numpy warning among them: the test runs
  with every warning an error;
- any change to records.bin's v2 mark or version exits 2;
- a failed `add` leaves every file of the index as it was.

Only lengths, magics, versions, widths, counts, layer seeds, ranges and
finiteness are checked on load; no part carries a digest. So a corruption
of these fields can still load silently and exit 0:

- `pca-<layer>.bin`: any value of the mean, basis or eigenvalues that stays
  finite and fits float32;
- `dict-<layer>.bin`: any finite centroid value, and the rng seed;
- `filter.bin`: any byte of the bit array;
- `records.bin`: any finite stored vector that is not all zero, any
  signature byte, and any id or label byte that leaves the ids distinct
  UTF-8;
- `config.json`: any other valid value of a key (a scale, `top_k`,
  `rng_seed`, a calibrated threshold), and any whitespace;
- the query file: any finite feature value, and any id or label byte that
  leaves the ids distinct UTF-8.
"""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from bloomretrieval import cli

LAYERS = ("L1", "L2", "L3")
PARTS = (
    "config.json",
    *(f"{kind}-{layer}.bin" for kind in ("pca", "dict") for layer in LAYERS),
    "filter.bin",
    "records.bin",
    "queries",
)
PREFIX = {1: "error: ", 2: "data error: ", 3: "config mismatch: "}


@pytest.fixture(scope="module")
def pristine(tmp_path_factory):
    """(index directory, query file, every file's bytes by part name) of one
    small filled index; each example rewrites the files from the bytes."""
    root = tmp_path_factory.mktemp("fuzz")
    feats, qrys, idx = root / "feats.mlhc", root / "qrys.mlhc", root / "idx"
    assert cli.main([
        "synth", "--classes", "3", "--per-class", "30", "--dims", "64,64,64", "--seed", "11",
        "--out", str(feats), "--queries-per-class", "2", "--queries-out", str(qrys),
    ]) == 0
    config = {"pca_dim": 16, "centroid_count": 16, "rng_seed": 2, "top_k": 5}
    (root / "config.json").write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(root / "config.json"), "--features", str(feats), "--out", str(idx)]) == 0
    assert cli.main(["add", "--index", str(idx), "--features", str(feats)]) == 0
    blobs = {part: (qrys if part == "queries" else idx / part).read_bytes() for part in PARTS}
    return idx, qrys, blobs


def corrupt(blob: bytes, kind: str, at: int, width: int, byte: int) -> bytes:
    """`blob` cut at `at`, or with `width` bytes from `at` XORed with `byte`,
    overwritten by it, or with a run of it inserted there; `at` is taken
    modulo the blob's length, and a mask of 0 flips every bit."""
    at %= len(blob)
    if kind == "truncate":
        return blob[:at]
    if kind == "flip":
        return blob[:at] + bytes(b ^ (byte or 0xFF) for b in blob[at:at + width]) + blob[at + width:]
    run = bytes([byte]) * width
    return blob[:at] + run + blob[at + (width if kind == "run" else 0):]


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning escapes `main`
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    part=st.sampled_from(PARTS),
    command=st.sampled_from(["query", "evaluate", "add"]),
    kind=st.sampled_from(["truncate", "flip", "run", "insert"]),
    at=st.integers(0, 2**16),
    width=st.integers(1, 8),
    byte=st.sampled_from([0x00, 0x7F, 0x80, 0xFF]) | st.integers(0, 255),
)
# records.bin's v2 mark, after the 4-byte magic, made a v1 record count, and
# its version, after the mark, made 0x7f7f
@example(part="records.bin", command="add", kind="run", at=4, width=8, byte=0x00)
@example(part="records.bin", command="query", kind="run", at=12, width=2, byte=0x7F)
def test_corrupted_input_exits_as_documented(pristine, part, command, kind, at, width, byte):
    idx, qrys, blobs = pristine
    bad = corrupt(blobs[part], kind, at, width, byte)
    for name, blob in blobs.items():
        (qrys if name == "queries" else idx / name).write_bytes(bad if name == part else blob)
    before = {p.name: p.read_bytes() for p in idx.iterdir()}
    flag = "--queries" if command == "evaluate" else "--features"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main([command, "--index", str(idx), flag, str(qrys)])
    err = err.getvalue()
    assert rc in (0, 1, 2, 3)
    if rc:
        assert err.startswith(PREFIX[rc]) and err.count("\n") == 1, err
    else:
        assert err == ""
    if part == "records.bin" and bad[4:14] != blobs[part][4:14]:
        assert rc == 2, err
    if command == "add" and rc:
        assert {p.name: p.read_bytes() for p in idx.iterdir()} == before
