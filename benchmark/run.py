"""Benchmark for bloomretrieval: seeded workloads, a correctness gate, and
end-to-end or per-layer metrics.

    python3 benchmark/run.py --workload serve-hier --seed 1 --seconds 10 --trace 0
    python3 benchmark/run.py --workload all --seed 1 --seconds 10 --trace 0

It benchmarks the sources under src/ next to this directory and works in
.bench_work/ there. Human-readable lines come first, every metric with its
unit; the last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`. `--trace 0` reports the end-to-end
metrics with tracing off. `--trace 1` reports per-layer metrics: it times
the workload in alternating untraced and traced slices, hooks the library's
public functions from this directory only, and writes the spans to
.bench_traces/. The exit code is 1 when a correctness check fails and 2
when the library is not there.
"""

from __future__ import annotations

import os
import sys

# BLAS and OpenMP read these once, when numpy loads them.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import json
import platform
import shutil
import statistics
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("serve-hier", "serve-reject", "ingest")
TRACE_PAIRS = 4  # untraced/traced slice pairs in a traced run


def _add_library_path():
    if not (SRC / "bloomretrieval" / "__init__.py").is_file():
        print(f"bloomretrieval sources not found under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _openblas_threads(),
    }
    env.update({var: os.environ[var] for var in THREAD_VARS})
    return env


def _openblas_threads():
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def measure(args, work: Path) -> int:
    import workloads as wl
    from spans import Tracer

    run = wl.Run(args.workload, args.seed, args.seconds, work)
    if not args.trace:
        latencies = run.measure()
        quality = run.verify()
        metrics, printed = wl.end_to_end(run, latencies, quality)
        printed.update(run.characterisation)
    else:
        tracer = Tracer()
        with tracer.active():
            run.setup(tracer)
        # alternate short untraced and traced slices, so that the machine's
        # speed changes hit both alike
        untraced, latencies = [], []
        queries = hashes = 0
        for _ in range(TRACE_PAIRS):
            untraced += run.timed(args.seconds / (2 * TRACE_PAIRS))
            mark = len(tracer.spans)
            with tracer.active():
                latencies += run.timed(args.seconds / (2 * TRACE_PAIRS), tracer)
            queries += tracer.count("index.query", since=mark)
            hashes += tracer.count("murmur3.hash", since=mark)
        quality = run.verify()
        calls = {
            "index.query_calls": (queries, "count"),
            "murmur3.calls": (hashes / len(latencies), "count/op"),
            "tracing_overhead_pct": (
                100 * (statistics.median(latencies) / statistics.median(untraced) - 1), "%"
            ),
        }
        metrics = wl.per_layer(tracer, run.characterisation, calls)
        printed = {}
        out = ROOT / ".bench_traces"
        out.mkdir(exist_ok=True)
        tracer.write(out / f"{args.workload}-seed{args.seed}.tsv")

    gate = run.gate
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    op = "gated_query (top_k 10)" if run.serve else "add_record"
    print(f"op {op}  timed samples {len(latencies)}  builds {len(run.builds)}  "
          f"set-ups {len(run.setup_s)}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print("  -- printed only, not in the JSON result --")
    for name, (value, unit) in printed.items():
        print(f"  {name:34s} {value:.6g} {unit}")
    print(f"  {'error_rate':34s} {gate.failed / gate.attempted:.6g} 1  "
          f"({gate.failed} of {gate.attempted} operations and checks)")
    print(f"index_digest {quality['index_digest']}")
    print(f"result_digest {quality['result_digest']}")
    for failure in gate.failures:
        print(f"FAILED {failure}")

    correct = gate.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS is its own."""
    worst = 0
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            check=False,
        )
        worst = max(worst, proc.returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _add_library_path()
    if args.workload == "all":
        return run_all(args)
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        return measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
