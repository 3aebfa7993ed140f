"""Tanner codes on bipartite expanders with linear-time flip decoders."""

from .gf2 import BitMatrix, BitVector, mat_vec_mul, nullspace_basis
from .graphs import (
    BipartiteGraph,
    ExpansionReport,
    build_lowerbound_graph,
    count_bounded_neighbors,
    expected_neighbor_lower_bound,
    gen_random_biregular,
    sample_expansion,
    verify_counting_bound,
    verify_expansion,
)
from .inner import InnerCode, parity_check_code, repetition_code
from .tanner import TannerCode, corrupt, load_bundle, write_bundle
from .decode_det import (
    DecodeFailure,
    DecodeReport,
    DecodeState,
    DecoderParams,
    NoAcceptableBranch,
    OpCounters,
    TruthTrace,
    compute_truth_trace,
    derive_params,
    hard_search,
    main_decode,
)
from .decode_rand import (
    RandDecodeConfig,
    RandDecodeReport,
    RandomizedAbort,
    iteration_draw,
    randomized_decode,
    sample_flip_set,
)
from .sweep import ExperimentConfig, SweepReport, SweepRow, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BitMatrix",
    "BitVector",
    "mat_vec_mul",
    "nullspace_basis",
    "BipartiteGraph",
    "ExpansionReport",
    "build_lowerbound_graph",
    "count_bounded_neighbors",
    "expected_neighbor_lower_bound",
    "gen_random_biregular",
    "sample_expansion",
    "verify_counting_bound",
    "verify_expansion",
    "InnerCode",
    "parity_check_code",
    "repetition_code",
    "TannerCode",
    "corrupt",
    "load_bundle",
    "write_bundle",
    "DecodeFailure",
    "DecodeReport",
    "DecodeState",
    "DecoderParams",
    "NoAcceptableBranch",
    "OpCounters",
    "TruthTrace",
    "compute_truth_trace",
    "derive_params",
    "hard_search",
    "main_decode",
    "RandDecodeConfig",
    "RandDecodeReport",
    "RandomizedAbort",
    "randomized_decode",
    "sample_flip_set",
    "iteration_draw",
    "ExperimentConfig",
    "SweepReport",
    "SweepRow",
    "run_sweep",
]
