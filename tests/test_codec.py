"""The MLHC feature-file codec against its record-by-record reference.

`write_features` and `read_features` move a whole file as one float32
matrix; `oracles.write_features_per_record` and
`oracles.read_features_per_record` are the per-record codec they replaced.
The properties draw 0-40 records of 1-3 layers (zero widths included), ids
and labels of multi-byte UTF-8 up to and past the 65,535 bytes a u16 prefix
counts, and feature values that are NaNs, signalling NaNs with payloads,
infinities, subnormals, float32's extremes and values beyond it, given as
lists, float32 arrays and float64 arrays, with a bad layer set or shape
at random positions. They assert:

- writing: the same file bytes, or the same exception type and message
  with the file left absent or as it was;
- reading: equal records (ids, labels, layer keys, dtype, `writeable`,
  feature bytes) on valid files, and the same error on truncations,
  trailing bytes, bad UTF-8, duplicate ids and bad header fields.

The reference casts a float64 signalling NaN with numpy's warning on;
`write_features` quiets it silently, so the reference runs with that
warning ignored and `write_features` with every warning an error.
"""

import struct
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings, strategies as st

from bloomretrieval import pipeline as pl
from bloomretrieval.errors import DuplicateIdError, InconsistentDimsError, InvalidVectorError

from oracles import read_features_per_record, write_features_per_record

LAYERS = ("L1", "L2", "L3")
F32_MAX = float(np.finfo(np.float32).max)
# the float64 neighbours of float32's rounding boundary: below it a cast
# rounds to float32's max, at it the cast overflows to Inf
BELOW_OVERFLOW = float.fromhex("0x1.fffffefffffffp+127")
AT_OVERFLOW = float.fromhex("0x1.ffffffp+127")
HEADER = 15  # magic, version u16, record count u64, layer count u8

ALPHABET = "aZ0-é€😀"  # 1-, 2-, 3- and 4-byte UTF-8


def bits32(value: int) -> np.float32:
    return np.array([value], np.uint32).view(np.float32)[0]


def bits64(value: int) -> float:
    return float(np.array([value], np.uint64).view(np.float64)[0])


def long_text(char: str, nbytes: int) -> str:
    """A text of exactly `nbytes` UTF-8 bytes, mostly `char`."""
    width = len(char.encode("utf-8"))
    return char * (nbytes // width) + "a" * (nbytes % width)


short_texts = st.text(ALPHABET, max_size=6)
texts = st.one_of(
    short_texts,
    st.builds(long_text, st.sampled_from(ALPHABET), st.integers(65_533, 65_538)),
)
payload32 = st.integers(1, 0x3FFFFF)
payload64 = st.integers(1, 2**51 - 1)
sign = st.sampled_from([0, 1])
wide_values = st.one_of(
    st.floats(-1e6, 1e6, width=64),
    st.sampled_from([
        float("nan"), float("inf"), -float("inf"), 5e-324, -2.2e-308, 1e-45, 1e-40,
        F32_MAX, -F32_MAX, BELOW_OVERFLOW, 0.0, -0.0,
    ]),
    st.builds(lambda s, p: bits64(s << 63 | 0x7FF << 52 | p), sign, payload64),  # signalling NaN
)
beyond_values = st.one_of(wide_values, st.sampled_from([AT_OVERFLOW, -AT_OVERFLOW, 1e39, -1e39]))
narrow_values = st.one_of(
    st.floats(-1e6, 1e6, width=32).map(np.float32),
    st.sampled_from([0x7FC00000, 0x7F800000, 0xFF800000, 0x00000001, 0x807FFFFF, 0x7F7FFFFF,
                     0xFF7FFFFF, 0x80000000]).map(bits32),
    st.builds(lambda s, p: bits32(s << 31 | 0x7F800000 | p), sign, payload32),  # signalling NaN
)


@st.composite
def vectors(draw, width: int, beyond: bool):
    """One layer's vector of `width` values: a list of floats, or a float64
    or float32 array; only if `beyond`, a list or float64 array may hold a
    finite value beyond float32."""
    kind = draw(st.sampled_from(["list", "float64", "float32"]))
    if kind == "float32":
        values = draw(st.lists(narrow_values, min_size=width, max_size=width))
        return np.array(values, dtype=np.float32).reshape(width)
    values = draw(st.lists(beyond_values if beyond else wide_values, min_size=width, max_size=width))
    return values if kind == "list" else np.array(values, dtype=np.float64).reshape(width)


def defect(draw, features: dict, widths: list) -> dict:
    """`features` with its layer set or one layer's shape broken."""
    layer = draw(st.sampled_from(sorted(features)))
    kind = draw(st.sampled_from(["drop", "extra", "longer", "shorter", "2-d", "scalar"]))
    features = dict(features)
    if kind == "drop":
        del features[layer]
    elif kind == "extra":
        features[draw(st.sampled_from([l for l in (*LAYERS, "L9") if l not in features]))] = np.ones(1)
    elif kind == "longer":
        features[layer] = np.ones(widths[LAYERS.index(layer)] + 1)
    elif kind == "shorter" and widths[LAYERS.index(layer)]:
        features[layer] = np.ones(widths[LAYERS.index(layer)] - 1)
    elif kind == "2-d":
        features[layer] = np.ones((widths[LAYERS.index(layer)], 1))
    else:
        features[layer] = 1.0
    return features


@st.composite
def record_lists(draw, clean: bool = False):
    """0-40 records of 1-3 layers; unless `clean`, some with a bad layer set
    or shape at random positions, and in some lists values beyond float32
    and texts around the u16 limit. Clean records are float32 arrays with
    distinct short ids."""
    layers = LAYERS[: draw(st.integers(1, 3))]
    widths = draw(st.lists(st.integers(0, 5), min_size=len(layers), max_size=len(layers)))
    n = draw(st.integers(0, 40))
    bad, beyond, long = set(), False, False
    if not clean:
        positions = st.lists(st.integers(0, max(n - 1, 0)), min_size=1, max_size=3)
        bad = set(draw(positions)) if draw(st.booleans()) else set()
        beyond, long = draw(st.booleans()), draw(st.booleans())
    records = []
    for i in range(n):
        features = {layer: draw(vectors(width, beyond)) for layer, width in zip(layers, widths)}
        if i in bad:
            features = defect(draw, features, widths)
        if clean:
            with np.errstate(invalid="ignore"):  # a float64 signalling NaN is made quiet
                features = {l: np.asarray(v).astype(np.float32) for l, v in features.items()}
            rid, label = f"r{i}-{draw(st.text(ALPHABET, max_size=4))}", draw(st.text(ALPHABET, max_size=6))
        else:
            rid, label = draw(texts if long else short_texts), draw(texts if long else short_texts)
        records.append(pl.RawRecord(rid, label, features))
    return records


def outcome(write, path: Path, records):
    """("bytes", the file) or ("error", its type, its message, the file's
    bytes or None) after `write(path, records)`."""
    try:
        write(path, records)
    except Exception as exc:
        return ("error", type(exc), str(exc), path.read_bytes() if path.exists() else None)
    return ("bytes", path.read_bytes())


def reference_write(path, records):
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", "invalid value encountered in cast", RuntimeWarning)
        write_features_per_record(path, records)


def strict_write(path, records):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        pl.write_features(path, records)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(records=record_lists(), old=st.sampled_from([None, b"old bytes"]))
def test_write_matches_per_record_writer(records, old):
    with tempfile.TemporaryDirectory() as tmp:
        results = []
        for write, name in ((reference_write, "ref"), (strict_write, "new")):
            path = Path(tmp) / name
            if old is not None:
                path.write_bytes(old)
            results.append(outcome(write, path, records))
        ref, new = results
        event(ref[0] if ref[0] == "bytes" else ref[1].__name__)
        assert new == ref
        if ref[0] == "error":
            assert ref[3] == old


def same_records(a, b):
    assert [(r.id, r.label, list(r.features)) for r in a] == [(r.id, r.label, list(r.features)) for r in b]
    for x, y in zip(a, b):
        for layer in x.features:
            u, v = x.features[layer], y.features[layer]
            assert (u.dtype, u.shape, u.flags.writeable, u.tobytes()) == (v.dtype, v.shape, v.flags.writeable, v.tobytes())


def read_outcome(read, path):
    try:
        return ("records", read(path))
    except Exception as exc:
        return ("error", type(exc), str(exc))


def record_offsets(records) -> list[int]:
    """Where each record starts in the file `records` make."""
    offsets = [HEADER + 4 * len(records[0].features)] if records else []
    for rec in records:
        size = 4 + len(rec.id.encode()) + len(rec.label.encode()) + 4 * sum(map(len, rec.features.values()))
        offsets.append(offsets[-1] + size)
    return offsets


@st.composite
def corrupted_files(draw):
    """The bytes of a valid file of clean records, corrupted by one of:
    nothing, a truncation, trailing bytes, a byte of an id or label made
    0xff, a later id made a copy of an earlier one (maybe then cut short at
    or past the copy's vector), or a header field rewritten."""
    records = draw(record_lists(clean=True))
    kind = draw(st.sampled_from(["none", "none", "truncate", "trailing", "utf-8", "duplicate", "header"]))
    if kind == "duplicate" and len(records) >= 2:
        i, j = sorted(draw(st.lists(st.integers(0, len(records) - 1), min_size=2, max_size=2, unique=True)))
        records[j] = pl.RawRecord(records[i].id, records[j].label, records[j].features)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.mlhc"
        write_features_per_record(path, records)
        blob = bytearray(path.read_bytes())
    offsets = record_offsets(records)
    if kind == "truncate":
        del blob[draw(st.integers(0, len(blob) - 1)):]
    elif kind == "duplicate" and len(records) >= 2 and draw(st.booleans()):
        vector = offsets[j] + 4 + len(records[j].id.encode()) + len(records[j].label.encode())
        del blob[draw(st.integers(vector, len(blob))):]
    elif kind == "trailing":
        blob += draw(st.binary(min_size=1, max_size=8))
    elif kind == "utf-8" and records:
        j = draw(st.integers(0, len(records) - 1))
        id_size = len(records[j].id.encode())
        blob[offsets[j] + draw(st.sampled_from([2, 4 + id_size] if records[j].label else [2]))] = 0xFF
    elif kind == "header":
        at, fmt = draw(st.sampled_from([(4, "<H"), (6, "<Q"), (14, "<B"), (15, "<I")]))
        size = struct.calcsize(fmt)
        if at + size <= len(blob):
            blob[at:at + size] = struct.pack(fmt, draw(st.integers(0, min(2 ** (8 * size) - 1, 2**40))))
    return bytes(blob)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(blob=corrupted_files())
def test_read_matches_per_record_reader(blob):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "f.mlhc"
        path.write_bytes(blob)
        ref, new = read_outcome(read_features_per_record, path), read_outcome(pl.read_features, path)
    event(ref[0] if ref[0] == "records" else ref[1].__name__)
    assert new[0] == ref[0], (ref, new)
    if ref[0] == "error":
        assert new == ref
    else:
        same_records(new[1], ref[1])


def test_read_quiets_every_nan(tmp_path):
    # a signalling NaN of either sign and any payload reads as the one quiet
    # NaN np.nan is, so widening it makes numpy warn of nothing
    stored = np.array([0x7F800001, 0xFFBFFFFF, 0x7FC00001, 0x3F800000], np.uint32).view(np.float32)
    path = tmp_path / "nan.mlhc"
    pl.write_features(path, [pl.RawRecord("a", "x", {"L1": stored})])
    assert path.read_bytes()[-16:] == stored.tobytes()
    (rec,) = pl.read_features(path)
    assert rec.features["L1"].view(np.uint32).tolist() == [0x7FC00000] * 3 + [0x3F800000]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rec.features["L1"].astype(np.float64)


def test_records_share_one_writable_matrix(tmp_path):
    path = tmp_path / "f.mlhc"
    records = [pl.RawRecord(f"r{i}", "x", {"L1": np.full(2, i), "L2": np.full(3, -i)}) for i in range(4)]
    pl.write_features(path, records)
    back = pl.read_features(path)
    views = [rec.features[layer] for rec in back for layer in ("L1", "L2")]
    assert len({id(v.base) for v in views}) == 1
    back[2].features["L2"][0] = 7.0
    assert back[2].features["L2"].tolist() == [7.0, -2.0, -2.0]
    assert [rec.features["L1"].tolist() for rec in back] == [[i, i] for i in range(4)]


@pytest.mark.parametrize(
    "bad, message",
    [
        # two bad records: the first in record order is named, whatever its error
        ({1: {"L1": np.ones(2), "L2": np.array([1.0, 1e39])}, 3: {"L1": np.ones(3), "L2": np.ones(2)}},
         (InvalidVectorError, "record 'r1' layer L2 holds a value beyond float32")),
        ({1: {"L1": np.ones(3), "L2": np.ones(2)}, 3: {"L1": np.ones(2), "L2": np.array([1e39, 1.0])}},
         (InconsistentDimsError, "record 'r1' layer L1 shape (3,) != (2,)")),
        ({2: {"L1": np.ones(2)}, 3: {"L1": np.ones(3), "L2": np.ones(2)}},
         (InconsistentDimsError, "record 'r2' layer set differs from header")),
        # within a record: its layer set, then layer by layer shape and value
        ({1: {"L1": [1e39, 0.0], "L2": np.ones((2, 1))}},
         (InvalidVectorError, "record 'r1' layer L1 holds a value beyond float32")),
        ({1: {"L1": np.ones(2), "L2": np.ones(2), "L3": np.ones(2)}},
         (InconsistentDimsError, "record 'r1' layer set differs from header")),
    ],
)
def test_writer_names_first_bad_record(tmp_path, bad, message):
    records = [pl.RawRecord(f"r{i}", "x" * (70_000 * (i == 0)), bad.get(i, {"L1": np.ones(2), "L2": np.ones(2)}))
               for i in range(5)]
    path = tmp_path / "f.mlhc"
    with pytest.raises(message[0]) as info:
        pl.write_features(path, records)
    assert str(info.value) == message[1]
    assert not path.exists()


def test_duplicate_id_before_truncation(tmp_path):
    # the second record repeats the first's id and its vector is cut short:
    # the duplicate is met first, so it is the error
    head = b"MLHC" + struct.pack("<HQB", 1, 2, 1) + struct.pack("<I", 2)
    rec = struct.pack("<H", 1) + b"a" + struct.pack("<H", 1) + b"x" + struct.pack("<ff", 1.0, 2.0)
    path = tmp_path / "dup.mlhc"
    path.write_bytes(head + rec + rec[:-1])
    with pytest.raises(DuplicateIdError, match="duplicate record id 'a'"):
        pl.read_features(path)


def test_layer_blocks_at_their_offsets(tmp_path):
    # equal widths, so a block written at another layer's offset still fits
    records = [pl.RawRecord("a", "x", {"L1": [1.0, 2.0], "L2": [3.0, 4.0], "L3": [5.0, 6.0]})]
    path = tmp_path / "f.mlhc"
    pl.write_features(path, records)
    assert path.read_bytes()[-24:] == struct.pack("<6f", 1, 2, 3, 4, 5, 6)
