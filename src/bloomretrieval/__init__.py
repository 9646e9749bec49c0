"""Bloom-gated hierarchical image retrieval over multi-layer feature vectors."""

from .binseq import (
    BinarySignature,
    CentroidDictionary,
    encode_signature,
    init_dictionary,
)
from .bloom import (
    LAYER_SEEDS,
    LAYERS,
    BloomParams,
    LayeredBloomFilter,
    fp_probability,
    optimal_bits,
)
from .index import (
    FeatureRecord,
    HierarchicalIndex,
    ThresholdSet,
    brute_force_scan,
    calibrate_thresholds,
    query_hierarchical,
)
from .murmur3 import murmur3_x64_128
from .pca import PcaModel, fit_pca, project
from .pipeline import (
    EvaluationReport,
    PipelineConfig,
    QueryResult,
    RawRecord,
    TrainedBundle,
    add_record,
    average_precision,
    evaluate,
    gated_query,
    read_features,
    synth_generate,
    train,
    write_features,
)
from .vecmath import l2_normalize

__version__ = "0.1.0"

__all__ = [
    "BinarySignature",
    "BloomParams",
    "CentroidDictionary",
    "EvaluationReport",
    "FeatureRecord",
    "HierarchicalIndex",
    "LAYERS",
    "LAYER_SEEDS",
    "LayeredBloomFilter",
    "PcaModel",
    "PipelineConfig",
    "QueryResult",
    "RawRecord",
    "ThresholdSet",
    "TrainedBundle",
    "add_record",
    "average_precision",
    "brute_force_scan",
    "calibrate_thresholds",
    "encode_signature",
    "evaluate",
    "fit_pca",
    "fp_probability",
    "gated_query",
    "init_dictionary",
    "l2_normalize",
    "murmur3_x64_128",
    "optimal_bits",
    "project",
    "query_hierarchical",
    "read_features",
    "synth_generate",
    "train",
    "write_features",
]
