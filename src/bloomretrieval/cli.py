"""Command-line interface.

Exit codes: 0 success, 1 usage error, 2 data/format error or a path that
cannot be read or written, 3 config mismatch.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time

from . import pipeline
from .errors import ConfigMismatchError, DataFormatError
from .index import brute_force_scan, check_top_k, query_hierarchical


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    p = _Parser(prog="bloomretrieval", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("synth", help="generate synthetic MLHC feature files")
    sp.add_argument("--classes", type=int, required=True)
    sp.add_argument("--per-class", type=int, required=True)
    sp.add_argument("--dims", required=True, help="comma-separated per-layer dims")
    sp.add_argument("--noise", type=float, default=0.1)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", required=True)
    sp.add_argument("--queries-per-class", type=int, default=0)
    sp.add_argument("--queries-out")

    tp = sub.add_parser("train", help="train PCA/dictionaries/thresholds/filter")
    tp.add_argument("--config", required=True, help="PipelineConfig JSON file")
    tp.add_argument("--features", required=True)
    tp.add_argument("--out", required=True, help="index directory to create")

    ap = sub.add_parser("add", help="add feature records to an index")
    ap.add_argument("--index", required=True)
    ap.add_argument("--features", required=True)

    qp = sub.add_parser("query", help="bloom-gated retrieval for each query record")
    qp.add_argument("--index", required=True)
    qp.add_argument("--features", required=True)
    qp.add_argument("--top-k", type=int, default=None)
    qp.add_argument("--json", action="store_true")

    ep = sub.add_parser("evaluate", help="mAP / latency report over labeled queries")
    ep.add_argument("--index", required=True)
    ep.add_argument("--queries", required=True)
    ep.add_argument("--json", action="store_true")

    bp = sub.add_parser("bench", help="hierarchical vs brute-force query timing")
    bp.add_argument("--index", required=True)
    bp.add_argument("--queries", required=True)
    bp.add_argument("--top-k", type=int, default=None)
    return p


def _cmd_synth(args) -> int:
    dims = [int(d) for d in args.dims.split(",") if d]
    n, nq = pipeline.synth_generate(
        classes=args.classes,
        per_class=args.per_class,
        layer_dims=dims,
        noise_scale=args.noise,
        seed=args.seed,
        out_path=args.out,
        queries_per_class=args.queries_per_class,
        queries_path=args.queries_out,
    )
    print(f"wrote {n} records to {args.out}" + (f", {nq} queries to {args.queries_out}" if nq else ""))
    return 0


def _cmd_train(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        config = pipeline.PipelineConfig.from_dict(json.load(fh))
    records = pipeline.read_features(args.features)
    bundle = pipeline.train(config, records)
    index = bundle.new_index()
    pipeline.save_index_dir(args.out, bundle, index)
    print(
        f"trained on {len(records)} records; filter m={bundle.filter.m} "
        f"k={bundle.filter.k}; index at {args.out}"
    )
    return 0


def _cmd_add(args) -> int:
    bundle, index = pipeline.load_index_dir(args.index)
    records = pipeline.read_features(args.features)
    for rec in records:
        pipeline.add_record(bundle, index, rec)
    pipeline.save_index_dir(args.index, bundle, index)
    print(f"added {len(records)} records; index now holds {len(index)}")
    return 0


def _cmd_query(args) -> int:
    if args.top_k is not None:  # before any file is read
        check_top_k(args.top_k)
    bundle, index = pipeline.load_index_dir(args.index)
    queries = pipeline.read_features(args.features)
    out = []
    for q in queries:
        res = pipeline.gated_query(bundle, index, q.features, args.top_k)
        out.append(
            {
                "query_id": q.id,
                "rejected_by_filter": res.rejected,
                "results": [{"id": rid, "distance": d} for rid, d in res.results],
            }
        )
    if args.json:
        json.dump(out, sys.stdout, indent=2)
        print()
    else:
        for entry in out:
            if entry["rejected_by_filter"]:
                print(f"{entry['query_id']}: rejected-by-filter")
            else:
                hits = ", ".join(
                    f"{r['id']} ({r['distance']:.6f})" for r in entry["results"]
                )
                print(f"{entry['query_id']}: {hits or '(no matches)'}")
    return 0


def _cmd_evaluate(args) -> int:
    bundle, index = pipeline.load_index_dir(args.index)
    queries = pipeline.read_features(args.queries)
    report = pipeline.evaluate(bundle, index, queries)
    if args.json:
        json.dump(report.to_dict(), sys.stdout, indent=2)
        print()
    else:
        mAP = report.mean_average_precision
        print(f"queries:              {len(report.query_ids)}")
        print(f"mAP:                  {'n/a' if mAP is None else f'{mAP:.4f}'}")
        print(f"mean query time:      {report.mean_query_time * 1e3:.3f} ms")
        print(f"bloom rejections:     {report.bloom_rejections}")
        print(f"correct rejections:   {report.correct_rejections}")
        print(f"bloom false positives:{report.bloom_false_positives}")
    return 0


def _percentile(sorted_vals, q):
    """Nearest-rank percentile of ascending values, q in (0, 1]."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def _cmd_bench(args) -> int:
    if args.top_k is not None:  # before any file is read
        check_top_k(args.top_k)
    bundle, index = pipeline.load_index_dir(args.index)
    index.freeze()
    queries = pipeline.read_features(args.queries)
    if not queries:
        raise ValueError(f"{args.queries} holds no query records")
    top_k = bundle.config.top_k if args.top_k is None else args.top_k

    # dict: every layer projected here, so the timed calls time only the index
    compressed = [dict(pipeline.compress_record(bundle, q).compressed) for q in queries]
    for name, fn in (("hierarchical", query_hierarchical), ("brute-force", brute_force_scan)):
        times = []
        for vectors in compressed:
            t0 = time.perf_counter()
            fn(index, vectors, top_k)
            times.append(time.perf_counter() - t0)
        times.sort()
        print(
            f"{name:>12}: mean {statistics.mean(times) * 1e3:.3f} ms  "
            f"p50 {_percentile(times, 0.50) * 1e3:.3f} ms  "
            f"p90 {_percentile(times, 0.90) * 1e3:.3f} ms  "
            f"p99 {_percentile(times, 0.99) * 1e3:.3f} ms"
        )
    return 0


_COMMANDS = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "add": _cmd_add,
    "query": _cmd_query,
    "evaluate": _cmd_evaluate,
    "bench": _cmd_bench,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except ConfigMismatchError as exc:
        print(f"config mismatch: {exc}", file=sys.stderr)
        return 3
    except (DataFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
