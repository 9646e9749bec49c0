"""The three benchmark workloads, their correctness gate and their metrics.

Every workload is a closed loop with one client in one process: each call
waits for its answer before the next is made, as a CLI caller does. All
three build the same 10k index through the CLI's steps (`train`, `add`,
then the open that every `query` pays), so the build, quality and memory
metrics exist on each of them:

- serve-hier: builds in set-up (one `add` of all 10k records), then times
  `gated_query` on held-out queries from indexed classes. Every query
  passes the gate, so the index stages dominate.
- serve-reject: the same, queried only from the two held-out superclasses.
  The gate rejects them, so the front end (projection, signing, filter
  probe) is almost all of the time.
- ingest: writes the inputs in set-up, then times a whole build with ten
  `add` runs of 1,000 records: calibration, add_record and the record
  store's load and save.

Timing is noisy on shared machines: on a 2-vCPU virtual machine, CPU speed
was seen to switch between states 1.4-1.6x apart, for seconds to minutes at
a time. Each run therefore repeats its work REPEATS times, spread over the
run, and reports medians. Metrics that still moved by a fifth or more
between seeds on that machine (op_p50_ms, which falls between the two
speeds, add_rps, train_s and open_s) are printed but not part of the JSON
result; op_p90_ms and setup_s carry the timing.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

from bloomretrieval import bloom, index, pipeline

import gen
from spans import Tracer, median

TOP_K = 10
REPEATS = 3            # set-ups per run, each followed by a timed slice
ADD_CYCLES = {"serve-hier": 1, "serve-reject": 1, "ingest": 10}
OPEN = 2.0  # a cosine threshold no distance exceeds: the stage keeps every row

CHECK_QUERIES = 8      # per query set: staged == brute force, zero tolerance
FN_PROBE_STEP = 20     # every 20th indexed record must pass the gate
SURVIVOR_QUERIES = 16  # per-stage survivor counts on the workload's queries
RECALL_QUERIES = 24    # staged top-10 against exact top-10
MAP_QUERIES = 80       # pipeline.evaluate, top_k = class size

CONFIG = pipeline.PipelineConfig(
    active_layers=gen.LAYERS,
    pca_dim=128,
    centroid_count=64,
    binseq_threshold=10.0,
    filter_multiplier=2.0,
    top_k=TOP_K,
    threshold_scales={layer: 1.0 for layer in gen.LAYERS},
)

clock = time.perf_counter


@dataclass
class Gate:
    """Counts every timed operation and every correctness check."""

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)


@dataclass
class Build:
    train_s: float
    add_s: float
    open_s: float
    add_latencies: list[float]
    index_bytes: int
    index_digest: str
    bundle: pipeline.TrainedBundle | None
    index: index.HierarchicalIndex | None


def write_inputs(corpus: gen.Corpus, out: Path, cycles: int) -> Path:
    """The MLHC files a CLI user would hand to train, add and query."""
    out.mkdir(parents=True)
    pipeline.write_features(out / "train.mlhc", corpus.train)
    chunk = len(corpus.indexed) // cycles
    for c in range(cycles):
        part = corpus.indexed[c * chunk:(c + 1) * chunk]
        pipeline.write_features(out / f"add-{c}.mlhc", part)
    pipeline.write_features(out / "hit-queries.mlhc", corpus.hit_queries)
    pipeline.write_features(out / "reject-queries.mlhc", corpus.reject_queries)
    return out


def build(inputs: Path, out: Path, cycles: int, gate: Gate, tracer: Tracer | None) -> Build:
    """`train`, `cycles` runs of `add`, then load + freeze, as the CLI does."""
    t0 = clock()
    bundle = pipeline.train(CONFIG, pipeline.read_features(inputs / "train.mlhc"))
    pipeline.save_index_dir(out, bundle, bundle.new_index())
    train_s = clock() - t0

    add_s = 0.0
    latencies = []
    for c in range(cycles):
        t0 = clock()
        bundle, idx = pipeline.load_index_dir(out)
        for raw in pipeline.read_features(inputs / f"add-{c}.mlhc"):
            if tracer:
                tracer.op += 1
            t = clock()
            try:
                pipeline.add_record(bundle, idx, raw)
            except Exception as exc:  # counted, reported, and fails the run
                gate.check(False, f"add_record({raw.id}): {exc!r}")
                continue
            latencies.append(clock() - t)
            gate.attempted += 1
        pipeline.save_index_dir(out, bundle, idx)
        add_s += clock() - t0

    t0 = clock()
    bundle, idx = pipeline.load_index_dir(out)
    idx.freeze()
    open_s = clock() - t0

    digest = hashlib.sha256()
    size = 0
    for path in sorted(out.iterdir()):
        blob = path.read_bytes()
        size += len(blob)
        digest.update(path.name.encode() + b"\0" + blob)
    gate.check(len(idx) == len(latencies), "index holds every added record")
    gate.check(bundle.filter.inserted_count == len(idx), "filter count == records")
    return Build(train_s, add_s, open_s, latencies, size, digest.hexdigest(), bundle, idx)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100 * len(ordered)) - 1)]


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, work: Path):
        self.workload = workload
        self.serve = workload != "ingest"
        self.cycles = ADD_CYCLES[workload]
        self.seconds = seconds
        self.work = work
        self.gate = Gate()
        self.corpus = gen.generate(seed)
        self.builds: list[Build] = []
        self.setup_s: list[float] = []
        self._first: dict[str, pipeline.QueryResult] = {}
        self._dirs = 0

    def measure(self) -> list[float]:
        """Untraced: REPEATS set-ups, each followed by a timed slice (for
        ingest, at least one build). Per-op latencies."""
        latencies = []
        for _ in range(REPEATS):
            self.setup()
            latencies += self.timed(self.seconds / REPEATS)
        return latencies

    def _fresh(self, stem: str) -> Path:
        self._dirs += 1
        return self.work / f"{stem}-{self._dirs}"

    def _add_build(self, tracer: Tracer | None) -> None:
        for old in self.work.glob("index-*"):
            shutil.rmtree(old)
        self.builds.append(
            build(self.inputs, self._fresh("index"), self.cycles, self.gate, tracer)
        )
        # only the newest build stays alive; older ones keep their numbers
        for b in self.builds[:-1]:
            b.bundle = b.index = None

    def setup(self, tracer: Tracer | None = None) -> None:
        """Write the inputs and, for a serve workload, build and open the index."""
        for old in self.work.iterdir():
            shutil.rmtree(old)
        t0 = clock()
        self.inputs = write_inputs(self.corpus, self._fresh("inputs"), self.cycles)
        if self.serve:
            self._add_build(tracer)
        self.setup_s.append(clock() - t0)
        name = "reject-queries" if self.workload == "serve-reject" else "hit-queries"
        self.queries = pipeline.read_features(self.inputs / f"{name}.mlhc")

    def timed(self, seconds: float, tracer: Tracer | None = None) -> list[float]:
        """The workload's operation for `seconds` (ingest: whole builds, at
        least one); per-op latencies."""
        if not self.serve:
            latencies: list[float] = []
            t_end = clock() + seconds
            start = len(self.builds)
            while len(self.builds) == start or clock() < t_end:
                self._add_build(tracer)
                latencies += self.builds[-1].add_latencies
            return latencies

        b = self.builds[-1]
        ids = {r.id for r in b.index.records}
        limit = b.index.thresholds.effective(b.index.stage_layers()[-1])
        latencies = []
        t_end = clock() + seconds
        i = 0
        while clock() < t_end:
            q = self.queries[i % len(self.queries)]
            i += 1
            if tracer:
                tracer.op += 1
            t0 = clock()
            try:
                res = pipeline.gated_query(b.bundle, b.index, q.features, TOP_K)
            except Exception as exc:  # counted, reported, and fails the run
                self.gate.check(False, f"gated_query({q.id}): {exc!r}")
                continue
            latencies.append(clock() - t0)
            dists = [d for _, d in res.results]
            well_formed = (not res.results) if res.rejected else (
                len(dists) <= TOP_K
                and dists == sorted(dists)
                and all(d <= limit for d in dists)
                and all(rid in ids for rid, _ in res.results)
            )
            # a query must get the same answer every time, from every build
            repeatable = self._first.setdefault(q.id, res) == res
            self.gate.check(well_formed and repeatable, f"gated_query({q.id}) malformed or changed")
        return latencies

    # -- correctness gate, quality and characterisation (untimed) -------

    def verify(self) -> dict:
        b = self.builds[-1]
        bundle, idx = b.bundle, b.index
        gate = self.gate
        hits = pipeline.read_features(self.inputs / "hit-queries.mlhc")
        rejects = pipeline.read_features(self.inputs / "reject-queries.mlhc")
        compressed = lambda q: pipeline.compress_record(bundle, q).compressed

        digests = {x.index_digest for x in self.builds}
        gate.check(len(digests) == 1, "every build of this seed is byte-identical")

        result_hash = hashlib.sha256()
        for q in hits[:CHECK_QUERIES] + rejects[:CHECK_QUERIES]:
            qc = compressed(q)
            staged = index.query_hierarchical(idx, qc, TOP_K)
            brute = index.brute_force_scan(idx, qc, TOP_K)
            gate.check(staged == brute, f"staged != brute force for {q.id}")
            result_hash.update(repr((q.id, staged)).encode())

        added = [
            r for c in range(self.cycles)
            for r in pipeline.read_features(self.inputs / f"add-{c}.mlhc")
        ]
        for raw in added[::FN_PROBE_STEP]:
            sigs = pipeline.compress_record(bundle, raw).signatures
            gate.check(bundle.filter.query(sigs), f"filter false negative on {raw.id}")

        recalls = []
        with opened(idx, idx.stage_layers()):
            exact = [
                [rid for rid, _ in index.brute_force_scan(idx, compressed(q), TOP_K)]
                for q in hits[:RECALL_QUERIES]
            ]
        for q, truth in zip(hits, exact):
            res = pipeline.gated_query(bundle, idx, q.features, TOP_K)
            result_hash.update(repr((q.id, res.rejected, res.results)).encode())
            recalls.append(len({rid for rid, _ in res.results} & set(truth)) / TOP_K)

        report = pipeline.evaluate(bundle, idx, hits[:MAP_QUERIES], top_k=gen.PER_CLASS)
        gate.check(report.mean_average_precision is not None, "mAP is defined")

        self.characterisation = self._characterise(bundle, idx, rejects)
        return {
            "map": report.mean_average_precision or 0.0,
            "recall_at_10": statistics.fmean(recalls),
            "result_digest": result_hash.hexdigest(),
            "index_digest": b.index_digest,
        }

    def _characterise(self, bundle, idx, rejects) -> dict:
        """Counts that say which share of the workload has which property,
        as name -> (value, unit)."""
        out = {}
        for layer in idx.layers:
            out[f"binseq.distinct_signatures.{layer}"] = (
                len({r.signatures[layer].data for r in idx.records}), "count"
            )
        tuples = {tuple(r.signatures[l].data for l in idx.layers) for r in idx.records}
        filt = bundle.filter
        eq1 = lambda n: bloom.fp_probability(bloom.BloomParams(n=n, k=filt.k, m=filt.m))
        out["bloom.fill_fraction"] = (filt.set_bit_count() / filt.m, "1")
        out["bloom.fp_predicted_eq1"] = (eq1(filt.inserted_count), "1")
        out["bloom.fp_predicted_eq1_distinct"] = (eq1(len(tuples)), "1")

        def pass_ratio(queries) -> float:
            passed = sum(
                filt.query(pipeline.compress_record(bundle, q).signatures)
                for q in queries
            )
            return passed / len(queries)

        fp = pass_ratio(rejects)
        out["bloom.fp_observed"] = (fp, "1")
        out["bloom.pass_ratio"] = (
            fp if self.workload == "serve-reject" else pass_ratio(self.queries), "1"
        )

        stages = idx.stage_layers()
        survivors = {layer: [] for layer in stages}
        rows = []
        for q in self.queries[:SURVIVOR_QUERIES]:
            qc = pipeline.compress_record(bundle, q).compressed
            for s, layer in enumerate(stages):
                with opened(idx, stages[s + 1:]):
                    survivors[layer].append(
                        len(index.query_hierarchical(idx, qc, len(idx)))
                    )
            rows.append(len(idx) + sum(survivors[l][-1] for l in stages[:-1]))
        for layer in stages:
            out[f"index.survivors.{layer}"] = (
                statistics.median(survivors[layer]), "count/query"
            )
        out["index.rows_scored"] = (statistics.median(rows), "count/query")
        return out


@contextlib.contextmanager
def opened(idx, layers):
    """Open the given stages' thresholds to OPEN while the block runs."""
    th = idx.thresholds
    saved = dict(th.scales)
    for layer in layers:
        th.scales[layer] = OPEN / th.thresholds[layer]
    try:
        yield
    finally:
        th.scales = saved


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(run: Run, latencies: list[float], verified: dict) -> tuple[dict, dict]:
    """(the JSON result's metrics, metrics only printed): see the module
    docstring for the split."""
    builds = run.builds
    records = len(builds[-1].index)
    result = {
        "setup_s": (statistics.median(run.setup_s), "s"),
        "op_p90_ms": (1000 * percentile(latencies, 90), "ms"),
        "index_bytes_per_record": (builds[-1].index_bytes / records, "B"),
        "map": (verified["map"], "1"),
        "recall_at_10": (verified["recall_at_10"], "1"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    printed = {
        "op_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "add_rps": (statistics.median(len(b.add_latencies) / b.add_s for b in builds), "records/s"),
        "train_s": (statistics.median(b.train_s for b in builds), "s"),
        "open_s": (statistics.median(b.open_s for b in builds), "s"),
    }
    return result, printed


def per_layer(tracer: Tracer, characterisation: dict, calls: dict) -> dict:
    """Median self time per call of each hooked layer, then the counts."""
    us, ms, s = 1e6, 1e3, 1.0
    t = tracer.times
    timed = {
        "index.query_ms": (t("index.query"), ms, "ms"),
        "index.calibrate_s": (t("index.calibrate"), s, "s"),
        "pca.fit_s": (t("pca.fit"), s, "s"),
        "binseq.init_dictionary_s": (t("binseq.init_dictionary"), s, "s"),
        "pipeline.add_record_self_us": (t("pipeline.add_record"), us, "us"),
        "index.add_us": (t("index.add", parent="pipeline.add_record"), us, "us"),
        "bloom.insert_us": (t("bloom.insert"), us, "us"),
        "index.save_records_s": (t("index.save_records"), s, "s"),
        # the record-by-record index.add calls are part of parsing the store
        "index.load_records_s": (t("index.load_records", inclusive=True), s, "s"),
        "index.freeze_s": (t("index.freeze"), s, "s"),
        "pipeline.read_features_s": (t("pipeline.read_features"), s, "s"),
        "pipeline.compress_us": (t("pipeline.compress"), us, "us"),
        "pca.project_us": (t("pca.project"), us, "us"),
        "binseq.encode_us": (t("binseq.encode"), us, "us"),
        "bloom.probe_us": (t("bloom.probe"), us, "us"),
        "murmur3.hash_us": (t("murmur3.hash"), us, "us"),
    }
    out = {name: (median(v) * scale, unit) for name, (v, scale, unit) in timed.items()}
    out.update(calls)
    out.update(characterisation)
    return out
