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
src/bloomretrieval/, paired with test files and with the pytest node id of
the test in them that catches it. src/ is copied to a temporary directory
and, for each mutant, the substitution applied and its named test run with
that copy first on the import path, under CI's tier-1 flags; only when that
test passes do its files run, with -x, and a mutant they catch is reported
as caught by them, so its named test can be mended. The unmutated copy must
pass every paired file first, in one run. The check fails when that
baseline fails, when a substitution's target text is missing or not unique,
when a named test is not found in its mutant's files, or when a mutant's
tests all pass. pytest does not collect this file: its name does not start
with "test".
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# hypothesis's failure report imports a module that raises this warning;
# under -W error it would end pytest in INTERNALERROR and lose the example
TYPEDDICT_WARNING = "ignore:mypy_extensions.TypedDict is deprecated:DeprecationWarning"

BINSEQ_MARGIN = "(2 * d + 16) * (_U * reach * reach + _ETA) + 4 * _U * t * t"
PCA_PRETEST = "def proven_storable(model: PcaModel, x) -> bool:\n"
PCA_FLOOR = "null = eig <= 4 * _U * max(n, dim) * trace + 4 * (n + 2) ** 2 * scaled_max.dot(scaled_max)"
INDEX_EPS = "eps = 8 * (width + 8) * 2.0**-53"
INDEX_RADIUS = "np.sqrt(np.maximum(reach, 0.0) + eps)"
INDEX_FINE = "self._rows = _unit_gather(self._vectors[stages[-1]], perm)"
INDEX_BOUND = "math.sqrt(max(2.0 * (self.thresholds.effective(layer) + table.eps), 0.0))"
INDEX_LEVELS = "for layer in self._stages[:len(table.cuts)]"
INDEX_COARSE = "passed &= unit_cosine_distances(index._units(layer, batch_rows), qv) <= t"
INDEX_NORMS = "self._norms[layer][rows][:, None]"
BLOOM_MISS = "pos = positions[key] = self.position(layer, data)\n"
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
    files: tuple[str, ...]
    catcher: str  # the node id of a test in `files` that fails on the mutant


T_BINSEQ, T_BLOOM, T_CODEC, T_INDEX, T_LIFECYCLE, T_PCA, T_PIPELINE = (
    f"tests/test_{name}.py" for name in ("binseq", "bloom", "codec", "index", "lifecycle", "pca", "pipeline")
)
BINSEQ = (T_BINSEQ,)
BLOOM = (T_BLOOM, T_PIPELINE)
INDEX = (T_INDEX, T_LIFECYCLE)
PCA = (T_PCA,)
GATE = (T_PIPELINE, T_LIFECYCLE)
PRETEST = (T_PCA, T_PIPELINE)
CODEC = (T_CODEC,)
FIXTURE = (T_PIPELINE,)

MUTANTS = [
    Mutant(
        "binseq: margin 0", "binseq.py", BINSEQ_MARGIN, "0.0", BINSEQ,
        f"{T_BINSEQ}::test_encode_matches_reference_at_threshold[2-1.0]",
    ),
    Mutant(
        "binseq: margin / 64", "binseq.py", BINSEQ_MARGIN, f"({BINSEQ_MARGIN}) / 64", BINSEQ,
        f"{T_BINSEQ}::test_encode_matches_reference_at_extreme_scales[1e-160]",
    ),
    Mutant(
        "binseq: margin without eta", "binseq.py", BINSEQ_MARGIN,
        BINSEQ_MARGIN.replace("(_U * reach * reach + _ETA)", "_U * reach * reach"), BINSEQ,
        f"{T_BINSEQ}::test_encode_matches_reference_at_extreme_scales[1e-160]",
    ),
    Mutant(
        "binseq: every row tested against the smallest margin", "binseq.py",
        "> max(margins):", "> min(margins):", BINSEQ,
        f"{T_BINSEQ}::test_each_row_takes_the_definition_within_its_own_margin",
    ),
    Mutant(
        "binseq: no overflow guard", "binseq.py",
        "if reach * reach + t * t < _PRETEST_LIMIT:", "if True:", BINSEQ,
        f"{T_BINSEQ}::test_encode_matches_reference_when_pretest_overflows",
    ),
    Mutant(
        "binseq: fallback summed by einsum", "binseq.py",
        "np.sqrt(np.add.reduce((dictionary.centroids[near] - X[i]) ** 2, axis=1))",
        'np.sqrt(np.einsum("ij,ij->i", dictionary.centroids[near] - X[i], dictionary.centroids[near] - X[i]))',
        BINSEQ,
        f"{T_BINSEQ}::test_encode_matches_reference_at_threshold[8-1.0]",
    ),
    Mutant(
        "binseq: a row pre-tested with another layer's dictionary", "binseq.py",
        "dictionary.centroids.dot(X[i], out=gx)", "dictionaries[0].centroids.dot(X[i], out=gx)", GATE,
        f"{T_PIPELINE}::TestCoarseToFineGate::test_verdict_equals_eager_oracle[layers2]",
    ),
    Mutant(
        "index: eps 0", "index.py", INDEX_EPS, "eps = 0.0", INDEX,
        f"{T_INDEX}::TestBucketPruning::test_buckets_of_identical_rows",
    ),
    Mutant(
        "index: eps in no stage's bound but the first", "index.py", INDEX_BOUND,
        INDEX_BOUND.replace("+ table.eps)", "+ table.eps * (layer == self._stages[0]))"), INDEX,
        f"{T_INDEX}::TestLiveSpans::test_at_each_bucket_flip[shape0-8-3-layers0]",
    ),
    Mutant(
        "index: bound sqrt(t + eps)", "index.py",
        INDEX_BOUND, INDEX_BOUND.replace("2.0 * (self.thresholds.effective(layer) + table.eps)",
                                         "self.thresholds.effective(layer) + table.eps"), INDEX,
        f"{T_INDEX}::TestQueries::test_single_record_iff_passes_thresholds",
    ),
    Mutant(
        "index: half radii", "index.py", INDEX_RADIUS, f"{INDEX_RADIUS} / 2", INDEX,
        f"{T_INDEX}::TestBucketPruning::test_thresholds_at_row_distances_and_bucket_bounds",
    ),
    Mutant(
        "index: r^2 short by 1e-12", "index.py", INDEX_RADIUS,
        INDEX_RADIUS.replace("reach,", "reach - 1e-12,"), INDEX,
        f"{T_INDEX}::TestBucketPruning::test_row_at_the_triangle_bound[1e-05-0.0001]",
    ),
    Mutant(
        "index: missing slice offset", "index.py", "rows.append(near + start)", "rows.append(near)", INDEX,
        f"{T_INDEX}::TestFinestStageFirst::test_every_top_k[layers0]",
    ),
    Mutant(
        "index: stage masks ORed", "index.py", INDEX_COARSE, INDEX_COARSE.replace("&=", "|="), INDEX,
        f"{T_INDEX}::TestEquivalence::test_hierarchical_equals_brute_force_randomized",
    ),
    Mutant(
        "index: ranked by the first stage's distance", "index.py", INDEX_FINE,
        INDEX_FINE.replace("stages[-1]", "stages[0]"), INDEX,
        f"{T_INDEX}::TestQueries::test_exact_match_single_record",
    ),
    Mutant(
        "index: batch cut with < (drops ties)", "index.py",
        "(dists > below) & (dists <= cut)", "(dists > below) & (dists < cut)", INDEX,
        f"{T_INDEX}::TestEquivalence::test_hierarchical_equals_brute_force_randomized",
    ),
    Mutant(
        "index: stops before top_k rows pass", "index.py",
        "while found < top_k and", "while 2 * found < top_k and", INDEX,
        f"{T_INDEX}::TestEquivalence::test_hierarchical_equals_brute_force_randomized",
    ),
    Mutant(
        "index: a coarse stage skipped", "index.py",
        "for layer, qv, t in coarse:", "for layer, qv, t in coarse[1:]:", INDEX,
        f"{T_INDEX}::TestEquivalence::test_hierarchical_equals_brute_force_randomized",
    ),
    Mutant(
        "index: every level on the first stage's layer", "index.py",
        "[partial(self._units, layer) for layer in stages]", "[partial(self._units, stages[0]) for layer in stages]", INDEX,
        f"{T_INDEX}::TestQueries::test_exact_match_single_record",
    ),
    Mutant(
        "index: coarse norms indexed by insertion position", "index.py", INDEX_NORMS,
        INDEX_NORMS.replace("[rows][", "[self._order[rows]]["), INDEX,
        f"{T_INDEX}::TestQueries::test_frozen_rows_are_unit_rows_in_bucket_order",
    ),
    Mutant(
        "index: a batch's coarse rows divided by another layer's norms", "index.py", INDEX_NORMS,
        INDEX_NORMS.replace("[layer]", "[self._stages[0]]"), INDEX,
        f"{T_INDEX}::TestQueries::test_frozen_rows_are_unit_rows_in_bucket_order",
    ),
    Mutant(
        "index: a bucket's centre from its first block only", "index.py",
        "for piece in pieces[1:]:", "for piece in pieces[1:1]:", INDEX,
        f"{T_INDEX}::TestRebuiltUnitRows::test_as_built[layers0]",
    ),
    Mutant(
        "index: a bucket's radius from its first block only", "index.py",
        "blocks = [first] if len(pieces) == 1 else map(unit, pieces)", "blocks = [first]", INDEX,
        f"{T_INDEX}::TestRebuiltUnitRows::test_as_built[layers2]",
    ),
    Mutant(
        "index: coarse norms left in insertion order", "index.py",
        "return np.concatenate(norms)[order]", "return np.concatenate(norms)", INDEX,
        f"{T_INDEX}::TestQueries::test_frozen_rows_are_unit_rows_in_bucket_order",
    ),
    Mutant(
        "index: each level at the threshold of the stage above", "index.py", INDEX_LEVELS,
        INDEX_LEVELS.replace("self._stages[:len", "(self._stages[:1] + self._stages)[:len"), INDEX,
        f"{T_INDEX}::TestBucketPruning::test_thresholds_at_row_distances_and_bucket_bounds",
    ),
    Mutant(
        "index: a level not ANDed with its parent", "index.py",
        "live[start:stop] &= live[parent]", "pass", INDEX,
        f"{T_INDEX}::TestBucketPruning::test_thresholds_at_row_distances_and_bucket_bounds",
    ),
    Mutant(
        "index: parents not offset into the table", "index.py",
        "side=\"right\") - 1 + starts[i - 1])", "side=\"right\") - 1)", INDEX,
        f"{T_INDEX}::TestNestedPruning::test_levels_nest_by_signature_prefix",
    ),
    Mutant(
        "index: each level split on the whole tuple", "index.py",
        "(keys[1:, start:stop] != keys[:-1, start:stop])", "(keys[1:] != keys[:-1])", INDEX,
        f"{T_INDEX}::TestBucketPruning::test_sqrt_n_cut_at_a_later_stage",
    ),
    Mutant(
        "index: signatures concatenated fine to coarse", "index.py",
        "[self._signatures[layer][:n] for layer in stages]", "[self._signatures[layer][:n] for layer in stages[::-1]]", INDEX,
        f"{T_INDEX}::TestNestedPruning::test_levels_nest_by_signature_prefix",
    ),
    Mutant(
        "index: every block gathers the first rows", "index.py",
        "block[...] = matrix[order[start:start + _BLOCK]]", "block[...] = matrix[order[:len(block)]]", INDEX,
        f"{T_INDEX}::TestQueries::test_frozen_rows_are_unit_rows_in_bucket_order",
    ),
    Mutant(
        "index: version gate lets an older version through", "index.py",
        "if version != _VERSION:", "if version > _VERSION:", INDEX,
        f"{T_INDEX}::TestRecordsFileV2::test_v1_store_is_refused[empty]",
    ),
    Mutant(
        "gate: probe passes at the first set bit", "pipeline.py",
        "if not bundle.filter.contains(", "if layer == probe[0] and not bundle.filter.contains(", GATE,
        f"{T_PIPELINE}::TestCoarseToFineGate::test_verdict_equals_eager_oracle[layers1]",
    ),
    Mutant(
        "gate: a layer the probe reaches reuses the first layer's vector", "pipeline.py",
        "kernel = projected.get(layer)", "kernel = projected.get(probe[0])", GATE,
        f"{T_PIPELINE}::TestAddAndQuery::test_self_retrieval",
    ),
    Mutant(
        "index: add path without its zero-norm check", "index.py",
        "if not 0.0 < norm < math.inf:", "if not norm < math.inf:", GATE,
        f"{T_PIPELINE}::TestAddAndQuery::test_poisoned_record_rejected",
    ),
    Mutant(
        "bloom: query passes at any set bit", "bloom.py",
        "return all(self.contains(", "return any(self.contains(", BLOOM,
        f"{T_BLOOM}::TestProbeOrder::test_coarse_to_fine_whatever_the_construction_order[layers0]",
    ),
    Mutant(
        "bloom: insert memo keyed without the layer", "bloom.py", "key = layer, data", "key = data", BLOOM,
        f"{T_BLOOM}::TestInsertMemo::test_equal_bytes_on_every_layer_set_each_layer_s_bit",
    ),
    Mutant(
        "bloom: memo hit skips setting the bit", "bloom.py", BLOOM_MISS,
        BLOOM_MISS + "            else:\n                continue\n", BLOOM,
        f"{T_BLOOM}::TestInsertMemo::test_memo_hit_still_sets_its_bit",
    ),
    Mutant(
        "pca: pre-test margin 0", "pca.py",
        "margin = 4 * (dim + 4) * (_U * reach + _ETA)", "margin = 0.0", PRETEST,
        f"{T_PCA}::test_pretest_near_the_mean_at_tiny_scale",
    ),
    Mutant(
        "pca: pre-test without the float32 bound", "pca.py",
        "reach + margin < _F32_MAX\n        and ", "", PRETEST,
        f"{T_PCA}::test_pretest_passes_only_sound_projections",
    ),
    Mutant(
        "pca: pre-test without the float32 zero floor", "pca.py",
        "> margin + _F32_TINY", "> margin", PRETEST,
        f"{T_PCA}::test_pretest_passes_only_sound_projections",
    ),
    Mutant(
        "pca: pre-test always passes", "pca.py", PCA_PRETEST, PCA_PRETEST + "    return True\n", PRETEST,
        f"{T_PCA}::test_pretest_passes_only_sound_projections",
    ),
    Mutant(
        "codec: reader's NaN-quieting pass dropped", "pipeline.py",
        "matrix[np.isnan(matrix)] = np.nan\n", "pass\n", CODEC,
        f"{T_CODEC}::test_read_quiets_every_nan",
    ),
    Mutant(
        "codec: reader's NaN test by fmin, which skips a NaN", "pipeline.py",
        "np.isnan(matrix.min(initial=0.0))", "np.isnan(np.fmin.reduce(matrix, axis=None, initial=0.0))", CODEC,
        f"{T_CODEC}::test_read_quiets_every_nan",
    ),
    Mutant(
        "codec: writer's culprit scan names the last bad record", "pipeline.py",
        "    for rec in records:\n        if rec.features.keys() != layer_set:",
        "    for rec in records[::-1]:\n        if rec.features.keys() != layer_set:", CODEC,
        f"{T_CODEC}::test_writer_names_first_bad_record[bad0-message0]",
    ),
    Mutant(
        "codec: a row read from the label's offset, not past it", "binio.py",
        "starts.append(self._skip(size))", "starts.append(self._skip(size) - 2 - len(labels[-1].encode()))", FIXTURE,
        f"{T_PIPELINE}::TestFeatureFiles::test_hand_crafted_fixture",
    ),
    Mutant(
        "codec: a layer's column block written at the wrong offset", "pipeline.py",
        "matrix[:, a:b] = [", "matrix[:, bounds[-1] - b:bounds[-1] - a] = [", CODEC,
        f"{T_CODEC}::test_layer_blocks_at_their_offsets",
    ),
    Mutant(
        "codec: duplicate-id check after the truncation check", "binio.py", CODEC_ENTRY,
        "            starts.append(self._skip(size))\n" + CODEC_ENTRY.replace("            starts.append(self._skip(size))\n", ""), CODEC,
        f"{T_CODEC}::test_duplicate_id_before_truncation",
    ),
    Mutant(
        "pca: floor 0", "pca.py", PCA_FLOOR, "null = eig <= 0.0", PCA,
        f"{T_PCA}::test_gram_fit_completes_zero_variance_directions[identical-rows]",
    ),
    Mutant(
        "pca: floor x 1e6", "pca.py", PCA_FLOOR, f"null = eig <= 1e6 * ({PCA_FLOOR.split('<= ', 1)[1]})", PCA,
        f"{T_PCA}::test_gram_fit_orthonormal_with_near_null_eigenvalues[nine-decade-spectrum]",
    ),
    Mutant(
        "pca: floor without its centring term", "pca.py", PCA_FLOOR,
        PCA_FLOOR.split(" + 4 * (n + 2)")[0], PCA,
        f"{T_PCA}::test_gram_fit_completes_zero_variance_directions[identical-rows]",
    ),
]


def run_tests(src: Path, tests) -> int:
    """pytest's exit code for the tests against the package under `src`:
    0 when all pass, 4 or 5 when a node id is not found."""
    # no bytecode cache: a mutant as long as its original, written within
    # the same second, could otherwise run from the original's cache. So no
    # assertion rewriting either: uncached, it rewrites hypothesis's modules
    # anew in every run (about 1.3 s), and only the exit code is read here
    env = {**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1"}
    argv = [sys.executable, "-X", "dev", "-m", "pytest", "-q", "-x", "-W", "error",
            "-W", TYPEDDICT_WARNING, "-p", "no:cacheprovider", "--assert=plain", *tests]
    return subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main(prefixes: list[str]) -> int:
    start = time.monotonic()
    chosen = [m for m in MUTANTS if not prefixes or m.name.startswith(tuple(prefixes))]
    failures = [f"{m.name}: {m.catcher} is in none of {m.files}" for m in chosen
                if m.catcher.split("::")[0] not in m.files]
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        files = sorted({f for m in chosen for f in m.files})
        if run_tests(src, files):
            failures.append(f"unmutated tree fails {' '.join(files)}")
        for m in chosen:
            path = src / "bloomretrieval" / m.file
            original = path.read_text()
            if original.count(m.old) != 1:
                failures.append(f"{m.name}: target text found {original.count(m.old)} times in {m.file}")
                continue
            path.write_text(original.replace(m.old, m.new))
            try:
                named = run_tests(src, (m.catcher,))
                by_files = named == 0 and run_tests(src, m.files) != 0
            finally:
                path.write_text(original)
            if named in (4, 5):
                failures.append(f"{m.name}: no test {m.catcher}")
                continue
            caught = named != 0 or by_files
            print(f"{'caught' if caught else 'MISSED'}: {m.name}", flush=True)
            if by_files:
                print(f"  by {' '.join(m.files)}, not by {m.catcher}", flush=True)
            if not caught:
                failures.append(f"{m.name}: {m.catcher} and {' '.join(m.files)} all pass")
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"{len(chosen)} mutants, {len(failures)} failures, {time.monotonic() - start:.0f} s")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
