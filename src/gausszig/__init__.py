"""Gaussian random-variate samplers over pluggable uniform PRNG backends.

Three samplers (polar method, original ziggurat, single-draw modified
ziggurat) that all take the uniform source as a call argument, plus the
statistical gates and the microbenchmark harness used to compare them.
"""

from .bench import (
    BenchConfig,
    BenchResult,
    confidence_interval,
    percent_faster,
    render_table,
    run_benchmark,
    student_t_quantile,
)
from .config import DEFAULT_SEED
from .samplers import (
    GaussianSampler,
    ModifiedZigguratSampler,
    PolarSampler,
    RejectionLoopExceeded,
    UnsanctionedPairing,
    ZigguratSampler,
    gaussian_affine,
    is_sanctioned,
    make_sampler,
    require_sanctioned,
    tail_sample,
    SAMPLER_IDS,
)
from .sources import (
    Lcg48,
    ScriptedSource,
    ScriptExhausted,
    SplitMix64,
    UniformSource,
    make_source,
    SOURCE_IDS,
)
from .stats import (
    GofReport,
    KsReport,
    MomentSummary,
    chi_square_gof,
    equal_probability_edges,
    ks_test,
    low_bits_chi_square,
    moments,
    normal_cdf,
    normal_quantile,
)
from .tables import (
    ZigguratTables,
    build_ziggurat_tables,
    tables_from_json,
    tables_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "BenchConfig",
    "BenchResult",
    "DEFAULT_SEED",
    "GaussianSampler",
    "GofReport",
    "KsReport",
    "Lcg48",
    "ModifiedZigguratSampler",
    "MomentSummary",
    "PolarSampler",
    "RejectionLoopExceeded",
    "SAMPLER_IDS",
    "SOURCE_IDS",
    "ScriptExhausted",
    "ScriptedSource",
    "SplitMix64",
    "UniformSource",
    "UnsanctionedPairing",
    "ZigguratSampler",
    "ZigguratTables",
    "build_ziggurat_tables",
    "chi_square_gof",
    "confidence_interval",
    "equal_probability_edges",
    "gaussian_affine",
    "is_sanctioned",
    "ks_test",
    "low_bits_chi_square",
    "make_sampler",
    "make_source",
    "moments",
    "normal_cdf",
    "normal_quantile",
    "percent_faster",
    "render_table",
    "require_sanctioned",
    "run_benchmark",
    "student_t_quantile",
    "tables_from_json",
    "tables_to_json",
    "tail_sample",
]
