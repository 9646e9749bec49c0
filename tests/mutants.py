"""Mutation check: every derived rounding margin (pca's pre-test among them:
its margin, its float32 bound and its float32 zero floor), the bucket table
built on the index's columns (its sort key, its level cuts, the layer each
level reads, its parent chain, and each bucket's centre and radius over
every block of its rows), the coarser stages' unit rows made from float32
rows and cached norms (the norms' row order and layer), the one scan both
retrieval paths share (its span offset, its ranking by the finest stage,
its batch cut with ties included, its stop at top_k hits and its AND of
every coarse stage's mask), the filter's insert memo (its key's layer and
the bit set on a hit), its `query` as the AND of every layer's `contains`,
the gate's probe loop (its test of every layer's bit, and each layer
signing its own vector), the record store's version gate (a v1 store,
or any version but 2, refused) and the feature-file codec (the reader's
NaN-quieting pass and the NaN test that gates it, its row offsets past
each label, its duplicate-id check before a later truncation; the
writer's column block offsets and its scan that names the first bad
record) must have a test that fails when they are broken.

    python tests/mutants.py           # every mutant
    python tests/mutants.py index     # the mutants whose name starts so

Each mutant is one exact source substitution in one file under
src/bloomretrieval/, paired with the test files, or the one named test,
that must catch it. For each, src/ is copied to a temporary directory, the
substitution applied, and the paired tests run with that copy first on the
import path, under CI's tier-1 flags and with -x. The unmutated copy must
pass every paired test first. The check fails when that baseline fails, when a substitution's
target text is missing or not unique, or when a mutant's tests all pass.
pytest does not collect this file: its name does not start with "test".
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# hypothesis's failure report imports a module that raises this warning;
# under -W error it would end pytest in INTERNALERROR and lose the example
TYPEDDICT_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"

BINSEQ_MARGIN = "margin = (2 * d + 16) * (_U * reach * reach + _ETA) + 4 * _U * t * t"
PCA_PRETEST = "def proven_storable(model: PcaModel, x) -> bool:\n"
PCA_FLOOR = "null = eig <= 4 * _U * max(n, dim) * trace + 4 * (n + 2) ** 2 * scaled_max.dot(scaled_max)"
INDEX_EPS = "eps = 8 * (width + 8) * 2.0**-53"
INDEX_RADIUS = "np.sqrt(np.maximum(reach, 0.0) + eps)"
INDEX_FINE = "self._rows = _unit_gather(self._vectors[stages[-1]], perm)"
INDEX_BOUND = "math.sqrt(max(2.0 * (self.thresholds.effective(layer) + table.eps), 0.0))"
INDEX_LEVELS = "for layer in self._stages[:len(table.cuts)]"
INDEX_COARSE = "passed &= unit_cosine_distances(index._units(layer, batch_rows), qv) <= t"
INDEX_NORMS = "self._norms[layer][rows][:, None]"
BLOOM_MISS = "pos = positions[key] = self._position(layer, data)\n"
CODEC_ENTRY = """            if rid in seen:
                raise DuplicateIdError(f"duplicate record id {rid!r}")
            seen.add(rid)
            ids.append(rid)
            starts.append(self._skip(size))
"""


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


BINSEQ = ("tests/test_binseq.py",)
BLOOM = ("tests/test_bloom.py", "tests/test_pipeline.py")
INDEX = ("tests/test_index.py", "tests/test_lifecycle.py")
PCA = ("tests/test_pca.py",)
GATE = ("tests/test_pipeline.py", "tests/test_lifecycle.py")
PRETEST = ("tests/test_pca.py", "tests/test_pipeline.py")
CODEC = "tests/test_codec.py"  # each codec mutant runs the one test that must catch it

MUTANTS = [
    Mutant("binseq: margin 0", "binseq.py", BINSEQ_MARGIN, "margin = 0.0", BINSEQ),
    Mutant("binseq: margin / 64", "binseq.py", BINSEQ_MARGIN, f"margin = ({BINSEQ_MARGIN.split('= ', 1)[1]}) / 64", BINSEQ),
    Mutant(
        "binseq: margin without eta", "binseq.py", BINSEQ_MARGIN,
        BINSEQ_MARGIN.replace("(_U * reach * reach + _ETA)", "_U * reach * reach"), BINSEQ,
    ),
    Mutant(
        "binseq: no overflow guard", "binseq.py",
        "if reach * reach + t * t < _PRETEST_LIMIT:", "if True:", BINSEQ,
    ),
    Mutant(
        "binseq: fallback summed by einsum", "binseq.py",
        "np.sqrt(np.add.reduce((dictionary.centroids[near] - X[i]) ** 2, axis=1))",
        'np.sqrt(np.einsum("ij,ij->i", dictionary.centroids[near] - X[i], dictionary.centroids[near] - X[i]))',
        BINSEQ,
    ),
    Mutant(
        "binseq: a row pre-tested with another layer's dictionary", "binseq.py",
        "dictionary.centroids.dot(X[i], out=gx)", "dictionaries[0].centroids.dot(X[i], out=gx)", GATE,
    ),
    Mutant("index: eps 0", "index.py", INDEX_EPS, "eps = 0.0", INDEX),
    Mutant(
        "index: eps in no stage's bound but the first", "index.py", INDEX_BOUND,
        INDEX_BOUND.replace("+ table.eps)", "+ table.eps * (layer == self._stages[0]))"), INDEX,
    ),
    Mutant(
        "index: bound sqrt(t + eps)", "index.py",
        INDEX_BOUND, INDEX_BOUND.replace("2.0 * (self.thresholds.effective(layer) + table.eps)",
                                         "self.thresholds.effective(layer) + table.eps"), INDEX,
    ),
    Mutant("index: half radii", "index.py", INDEX_RADIUS, f"{INDEX_RADIUS} / 2", INDEX),
    Mutant(
        "index: r^2 short by 1e-12", "index.py", INDEX_RADIUS,
        INDEX_RADIUS.replace("reach,", "reach - 1e-12,"), INDEX,
    ),
    Mutant("index: missing slice offset", "index.py", "rows.append(near + start)", "rows.append(near)", INDEX),
    Mutant("index: stage masks ORed", "index.py", INDEX_COARSE, INDEX_COARSE.replace("&=", "|="), INDEX),
    Mutant(
        "index: ranked by the first stage's distance", "index.py", INDEX_FINE,
        INDEX_FINE.replace("stages[-1]", "stages[0]"), INDEX,
    ),
    Mutant(
        "index: batch cut with < (drops ties)", "index.py",
        "(dists > below) & (dists <= cut)", "(dists > below) & (dists < cut)", INDEX,
    ),
    Mutant(
        "index: stops before top_k rows pass", "index.py",
        "while found < top_k and", "while 2 * found < top_k and", INDEX,
    ),
    Mutant(
        "index: a coarse stage skipped", "index.py",
        "for layer, qv, t in coarse:", "for layer, qv, t in coarse[1:]:", INDEX,
    ),
    Mutant(
        "index: every level on the first stage's layer", "index.py",
        "[partial(self._units, layer) for layer in stages]", "[partial(self._units, stages[0]) for layer in stages]",
        INDEX,
    ),
    Mutant(
        "index: coarse norms indexed by insertion position", "index.py", INDEX_NORMS,
        INDEX_NORMS.replace("[rows][", "[self._order[rows]]["), INDEX,
    ),
    Mutant(
        "index: a batch's coarse rows divided by another layer's norms", "index.py", INDEX_NORMS,
        INDEX_NORMS.replace("[layer]", "[self._stages[0]]"), INDEX,
    ),
    Mutant(
        "index: a bucket's centre from its first block only", "index.py",
        "for piece in pieces[1:]:", "for piece in pieces[1:1]:", INDEX,
    ),
    Mutant(
        "index: a bucket's radius from its first block only", "index.py",
        "blocks = [first] if len(pieces) == 1 else map(unit, pieces)", "blocks = [first]", INDEX,
    ),
    Mutant(
        "index: coarse norms left in insertion order", "index.py",
        "return np.concatenate(norms)[order]", "return np.concatenate(norms)", INDEX,
    ),
    Mutant(
        "index: each level at the threshold of the stage above", "index.py", INDEX_LEVELS,
        INDEX_LEVELS.replace("self._stages[:len", "(self._stages[:1] + self._stages)[:len"), INDEX,
    ),
    Mutant(
        "index: a level not ANDed with its parent", "index.py",
        "live[start:stop] &= live[parent]", "pass", INDEX,
    ),
    Mutant(
        "index: parents not offset into the table", "index.py",
        "side=\"right\") - 1 + starts[i - 1])", "side=\"right\") - 1)", INDEX,
    ),
    Mutant(
        "index: each level split on the whole tuple", "index.py",
        "(keys[1:, start:stop] != keys[:-1, start:stop])", "(keys[1:] != keys[:-1])", INDEX,
    ),
    Mutant(
        "index: signatures concatenated fine to coarse", "index.py",
        "[self._signatures[layer][:n] for layer in stages]", "[self._signatures[layer][:n] for layer in stages[::-1]]",
        INDEX,
    ),
    Mutant(
        "index: every block gathers the first rows", "index.py",
        "block[...] = matrix[order[start:start + _BLOCK]]", "block[...] = matrix[order[:len(block)]]", INDEX,
    ),
    Mutant(
        "index: version gate lets an older version through", "index.py",
        "if version != _VERSION:", "if version > _VERSION:", INDEX,
    ),
    Mutant(
        "gate: probe passes at the first set bit", "pipeline.py",
        "if not bundle.filter._contains(", "if layer == probe[0] and not bundle.filter._contains(", GATE,
    ),
    Mutant(
        "gate: a layer the probe reaches reuses the first layer's vector", "pipeline.py",
        "kernel = projected.get(layer)", "kernel = projected.get(probe[0])", GATE,
    ),
    Mutant(
        "index: add path without its zero-norm check", "index.py",
        "if not 0.0 < norm < math.inf:", "if not norm < math.inf:", GATE,
    ),
    Mutant(
        "bloom: query passes at any set bit", "bloom.py",
        "return all(self.contains(", "return any(self.contains(", BLOOM,
    ),
    Mutant("bloom: insert memo keyed without the layer", "bloom.py", "key = layer, data", "key = data", BLOOM),
    Mutant(
        "bloom: memo hit skips setting the bit", "bloom.py", BLOOM_MISS,
        BLOOM_MISS + "            else:\n                continue\n", BLOOM,
    ),
    Mutant(
        "pca: pre-test margin 0", "pca.py",
        "margin = 4 * (dim + 4) * (_U * reach + _ETA)", "margin = 0.0", PRETEST,
    ),
    Mutant(
        "pca: pre-test without the float32 bound", "pca.py",
        "reach + margin < _F32_MAX\n        and ", "", PRETEST,
    ),
    Mutant(
        "pca: pre-test without the float32 zero floor", "pca.py",
        "> margin + _F32_TINY", "> margin", PRETEST,
    ),
    Mutant("pca: pre-test always passes", "pca.py", PCA_PRETEST, PCA_PRETEST + "    return True\n", PRETEST),
    Mutant(
        "codec: reader's NaN-quieting pass dropped", "pipeline.py",
        "matrix[np.isnan(matrix)] = np.nan\n", "pass\n", (f"{CODEC}::test_read_quiets_every_nan",),
    ),
    Mutant(
        "codec: reader's NaN test by fmin, which skips a NaN", "pipeline.py",
        "np.isnan(matrix.min(initial=0.0))", "np.isnan(np.fmin.reduce(matrix, axis=None, initial=0.0))",
        (f"{CODEC}::test_read_quiets_every_nan",),
    ),
    Mutant(
        "codec: writer's culprit scan names the last bad record", "pipeline.py",
        "    for rec in records:\n        if rec.features.keys() != layer_set:",
        "    for rec in records[::-1]:\n        if rec.features.keys() != layer_set:",
        (f"{CODEC}::test_writer_names_first_bad_record",),
    ),
    Mutant(
        "codec: a row read from the label's offset, not past it", "binio.py",
        "starts.append(self._skip(size))", "starts.append(self._skip(size) - 2 - len(labels[-1].encode()))",
        ("tests/test_pipeline.py::TestFeatureFiles::test_hand_crafted_fixture",),
    ),
    Mutant(
        "codec: a layer's column block written at the wrong offset", "pipeline.py",
        "matrix[:, a:b] = [", "matrix[:, bounds[-1] - b:bounds[-1] - a] = [",
        (f"{CODEC}::test_layer_blocks_at_their_offsets",),
    ),
    Mutant(
        "codec: duplicate-id check after the truncation check", "binio.py", CODEC_ENTRY,
        "            starts.append(self._skip(size))\n" + CODEC_ENTRY.replace("            starts.append(self._skip(size))\n", ""),
        (f"{CODEC}::test_duplicate_id_before_truncation",),
    ),
    Mutant("pca: floor 0", "pca.py", PCA_FLOOR, "null = eig <= 0.0", PCA),
    Mutant("pca: floor x 1e6", "pca.py", PCA_FLOOR, f"null = eig <= 1e6 * ({PCA_FLOOR.split('<= ', 1)[1]})", PCA),
    Mutant(
        "pca: floor without its centring term", "pca.py", PCA_FLOOR,
        PCA_FLOOR.split(" + 4 * (n + 2)")[0], PCA,
    ),
]


def run_tests(src: Path, tests: tuple[str, ...]) -> bool:
    """Whether the test files pass against the package under `src`."""
    # no bytecode cache: a mutant as long as its original, written within
    # the same second, could otherwise run from the original's cache
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-X", "dev", "-m", "pytest", "-q", "-x", "-W", "error",
            "-W", TYPEDDICT_WARNING, "-p", "no:cacheprovider", *tests]
    done = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return done.returncode == 0


def main(prefixes: list[str]) -> int:
    chosen = [m for m in MUTANTS if not prefixes or m.name.startswith(tuple(prefixes))]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        for tests in sorted({m.tests for m in chosen}):
            if not run_tests(src, tests):
                failures.append(f"unmutated tree fails {' '.join(tests)}")
        for m in chosen:
            path = src / "bloomretrieval" / m.file
            original = path.read_text()
            if original.count(m.old) != 1:
                failures.append(f"{m.name}: target text found {original.count(m.old)} times in {m.file}")
                continue
            path.write_text(original.replace(m.old, m.new))
            try:
                caught = not run_tests(src, m.tests)
            finally:
                path.write_text(original)
            print(f"{'caught' if caught else 'MISSED'}: {m.name}", flush=True)
            if not caught:
                failures.append(f"{m.name}: {' '.join(m.tests)} all pass")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"{len(chosen)} mutants, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
