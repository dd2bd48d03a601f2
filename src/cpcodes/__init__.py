"""Permutation source codes on concentric spheres for i.i.d. Gaussian sources.

The package covers the full pipeline: exact combinatorics of compositions and
codebook sizes, Gaussian / folded-Gaussian order-statistic moments, optimal
encoding and bijective indexing, Lloyd-style codebook design (including the
reduced-dimension form for a shared composition), shape-gain rate allocation
for sizing subcodebooks, and Monte Carlo rate-distortion evaluation.
"""

import importlib

__version__ = "0.5.0"

# public name -> the submodule that defines it, imported on first access (PEP 562)
_EXPORTS = {
    "Composition": "combinatorics",
    "RatePointCensus": "combinatorics",
    "ResourceLimitError": "combinatorics",
    "distinct_multinomials": "combinatorics",
    "enumerate_compositions": "combinatorics",
    "index_groups": "combinatorics",
    "max_rate_gap": "combinatorics",
    "multinomial_size": "combinatorics",
    "rate_point_census": "combinatorics",
    "variant2_size": "combinatorics",
    "IntegrationError": "order_stats",
    "OrderStatTable": "order_stats",
    "folded_order_stats": "order_stats",
    "gaussian_order_stats": "order_stats",
    "grouped_projection": "order_stats",
    "VARIANT_I": "codec",
    "VARIANT_II": "codec",
    "ConcentricCode": "codec",
    "InitialCodeword": "codec",
    "StreamError": "codec",
    "encode_cpc": "codec",
    "rank_codeword": "codec",
    "unrank_codeword": "codec",
    "DesignConfig": "design",
    "DesignInfeasibleError": "design",
    "LloydResult": "design",
    "design_common_composition": "design",
    "lloyd_general": "design",
    "optimal_levels_single": "design",
    "pc_distortion_exact": "design",
    "swap_composition": "design",
    "swap_improvement_test": "design",
    "GainCodebook": "wsc",
    "RateSplit": "wsc",
    "RateTooLowError": "wsc",
    "WscConstants": "wsc",
    "allocate_compositions": "wsc",
    "design_fixed_rate": "wsc",
    "design_variable_rate": "wsc",
    "gain_codebook": "wsc",
    "optimal_rate_split": "wsc",
    "sizes_fixed_rate": "wsc",
    "sizes_variable_rate": "wsc",
    "snr_improvement_db": "wsc",
    "wsc_constants": "wsc",
    "RDPoint": "evaluation",
    "ecsq_curve": "evaluation",
    "ecusq_curve": "evaluation",
    "empirical_distortion": "evaluation",
    "empirical_distortions": "evaluation",
    "pareto_filter": "evaluation",
    "rate_fixed": "evaluation",
    "rate_variable": "evaluation",
    "shannon_bound": "evaluation",
}

__all__ = list(_EXPORTS)

# submodules reachable as attributes of the package, imported on first access
_SUBMODULES = {"codec", "combinatorics", "design", "evaluation", "order_stats", "streams", "wsc"}


def __getattr__(name: str):
    if name in _EXPORTS:
        value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = importlib.import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_EXPORTS) | _SUBMODULES)
