"""Span tracing around the public functions of bloomretrieval.

The hooks replace each function where the pipeline looks it up (a module
attribute or a class method), so nothing under src/ changes. Spans are kept
in memory while tracing is on and written out once, at the end of a run.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time

from bloomretrieval import binseq, bloom, index, pca, pipeline

# (owner, attribute, span name). A name that no longer exists fails the
# traced run: a refactor must update this table, not silently report zero.
HOOKS = [
    (pipeline, "write_features", "pipeline.write_features"),
    (pipeline, "read_features", "pipeline.read_features"),
    (pipeline, "train", "pipeline.train"),
    (pipeline, "add_record", "pipeline.add_record"),
    (pipeline, "compress_record", "pipeline.compress"),
    (pipeline, "gated_query", "pipeline.gated_query"),
    (pipeline, "save_index_dir", "pipeline.save_index_dir"),
    (pipeline, "load_index_dir", "pipeline.load_index_dir"),
    (pipeline, "calibrate_thresholds", "index.calibrate"),
    (pipeline, "query_hierarchical", "index.query"),
    (pipeline, "save_records", "index.save_records"),
    (pipeline, "load_records", "index.load_records"),
    (index.HierarchicalIndex, "add", "index.add"),
    (index.HierarchicalIndex, "freeze", "index.freeze"),
    (pca, "fit_pca", "pca.fit"),
    (pca, "project", "pca.project"),
    (pca, "project_many", "pca.project_many"),
    (binseq, "init_dictionary", "binseq.init_dictionary"),
    (binseq, "encode_signature", "binseq.encode"),
    (bloom.LayeredBloomFilter, "insert", "bloom.insert"),
    (bloom.LayeredBloomFilter, "query", "bloom.probe"),
    (bloom, "murmur3_x64_128", "murmur3.hash"),
]


class Tracer:
    """Records (name, start, end, parent span, op id) for every hooked call."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._child: list[float] | None = None

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer hooks already installed")
        for owner, attr, name in HOOKS:
            if attr not in vars(owner):
                raise RuntimeError(
                    f"trace hook target {owner.__name__}.{attr} no longer exists; "
                    "update HOOKS in benchmark/spans.py"
                )
        for owner, attr, name in HOOKS:
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def active(self):
        """Hooks installed for the block, restored afterwards whatever happens."""
        self.install()
        try:
            yield self
        finally:
            self.restore()

    def _wrap(self, fn, name):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            slot = len(spans)
            spans.append(None)  # placeholder keeps parent indices stable
            parent = stack[-1] if stack else -1
            stack.append(slot)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[slot] = (name, t0, t1, parent, self.op)

        return traced

    def times(self, name: str, parent: str | None = None, inclusive=False):
        """Per call of `name` (optionally only under `parent`): its duration,
        minus the time its child spans cover unless `inclusive`."""
        if self._child is None or len(self._child) != len(self.spans):
            self._child = [0.0] * len(self.spans)
            for _, t0, t1, p, _ in self.spans:
                if p >= 0:
                    self._child[p] += t1 - t0
        return [
            t1 - t0 - (0.0 if inclusive else self._child[i])
            for i, (n, t0, t1, p, _) in enumerate(self.spans)
            if n == name
            and (parent is None or (p >= 0 and self.spans[p][0] == parent))
        ]

    def count(self, name: str, since: int = 0) -> int:
        """Calls of `name` recorded from span number `since` on."""
        return sum(1 for span in self.spans[since:] if span[0] == name)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, t0, t1, parent, op in self.spans:
                fh.write(f"{name}\t{t0!r}\t{t1!r}\t{parent}\t{op}\n")


def median(values, default=0.0) -> float:
    return statistics.median(values) if values else default
