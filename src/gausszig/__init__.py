"""Gaussian random-variate samplers over pluggable uniform PRNG backends.

Three samplers (polar method, original ziggurat, single-draw modified
ziggurat) that all take the uniform source as a call argument, plus the
statistical gates and the microbenchmark harness used to compare them.

Each public name loads its submodule on first use (PEP 562), so the
per-call path (``sources``, ``tables``, ``samplers``) never imports numpy;
``engine``, ``stats``, ``bench`` and ``cli`` do.
"""

import importlib

__version__ = "0.1.0"

#: public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(("BenchConfig", "BenchResult", "confidence_interval",
                     "percent_faster", "render_table", "run_benchmark",
                     "student_t_quantile"), "bench"),
    "DEFAULT_SEED": "config",
    **dict.fromkeys(("GaussianSampler", "ModifiedZigguratSampler",
                     "PolarSampler", "RejectionLoopExceeded",
                     "UnsanctionedPairing", "ZigguratSampler",
                     "gaussian_affine", "is_sanctioned", "make_sampler",
                     "require_sanctioned", "tail_sample", "SAMPLER_IDS"),
                    "samplers"),
    **dict.fromkeys(("Lcg48", "ScriptedSource", "ScriptExhausted",
                     "SplitMix64", "UniformSource", "make_source",
                     "SOURCE_IDS"), "sources"),
    **dict.fromkeys(("GofReport", "KsReport", "MomentSummary",
                     "chi_square_gof", "equal_probability_edges", "ks_test",
                     "low_bits_chi_square", "moments", "normal_cdf",
                     "normal_quantile"), "stats"),
    **dict.fromkeys(("ZigguratTables", "build_ziggurat_tables",
                     "tables_from_json", "tables_to_json"), "tables"),
}
_SUBMODULES = frozenset(("bench", "cli", "config", "engine", "samplers",
                         "sources", "stats", "tables"))

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__),
                    name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
