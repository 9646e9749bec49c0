"""Seeded synthetic corpus for the benchmark workloads.

10 superclasses x 5 classes, 256-d raw features on each of L1, L2, L3.
L3 holds one centre per superclass, so the coarse stage can only narrow a
query to its superclass. L2 and L1 add a per-class offset, so the finer
stages separate classes within a superclass. Noise rises from L3 to L1, so
the finest stage is the least clean and ranking within a class is not
trivial. Eight superclasses are indexed; the last two are held out and
only ever appear as queries, which the bloom gate should reject.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from bloomretrieval.pipeline import RawRecord

SUPERCLASSES = 10
CLASSES_PER_SUPER = 5
INDEXED_SUPERCLASSES = 8
PER_CLASS = 250          # indexed records per class -> 40 x 250 = 10,000
TRAIN_PER_CLASS = 40     # training sample per indexed class -> 1,600
QUERIES_PER_CLASS = 25   # held-out queries per indexed class -> 1,000
REJECTS_PER_CLASS = 100  # queries per held-out class -> 1,000
DIM = 256
LAYERS = ("L1", "L2", "L3")

OFFSET_SCALE = {"L1": 0.6, "L2": 0.6, "L3": 0.0}
NOISE = {"L1": 0.25, "L2": 0.2, "L3": 0.15}


@dataclass(frozen=True)
class Corpus:
    indexed: list[RawRecord]   # 10,000 records of the 40 indexed classes
    train: list[RawRecord]     # the 40-per-class training sample of `indexed`
    hit_queries: list[RawRecord]     # held out, from indexed classes
    reject_queries: list[RawRecord]  # from the two held-out superclasses


def generate(seed: int) -> Corpus:
    rng = np.random.default_rng(seed)
    centres = {l: rng.standard_normal((SUPERCLASSES, DIM)) for l in LAYERS}
    n_classes = SUPERCLASSES * CLASSES_PER_SUPER
    offsets = {
        l: OFFSET_SCALE[l] * rng.standard_normal((n_classes, DIM)) for l in LAYERS
    }

    def draw(prefix: str, cls: int, count: int) -> list[RawRecord]:
        sup = cls // CLASSES_PER_SUPER
        feats = {
            l: centres[l][sup] + offsets[l][cls]
            + NOISE[l] * rng.standard_normal((count, DIM))
            for l in LAYERS
        }
        return [
            RawRecord(
                f"{prefix}-{cls:02d}-{i:04d}",
                f"class-{cls:02d}",
                {l: feats[l][i] for l in LAYERS},
            )
            for i in range(count)
        ]

    indexed, train, hits, rejects = [], [], [], []
    for cls in range(n_classes):
        if cls // CLASSES_PER_SUPER < INDEXED_SUPERCLASSES:
            recs = draw("img", cls, PER_CLASS)
            indexed += recs
            train += recs[:TRAIN_PER_CLASS]
            hits += draw("qry", cls, QUERIES_PER_CLASS)
        else:
            rejects += draw("dis", cls, REJECTS_PER_CLASS)
    # records arrive, and queries are asked, in no class order
    indexed = [indexed[i] for i in rng.permutation(len(indexed))]
    hits = [hits[i] for i in rng.permutation(len(hits))]
    return Corpus(indexed, train, hits, rejects)
