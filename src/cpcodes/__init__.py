"""Permutation source codes on concentric spheres for i.i.d. Gaussian sources.

The package covers the full pipeline: exact combinatorics of compositions and
codebook sizes, Gaussian / folded-Gaussian order-statistic moments, optimal
encoding and bijective indexing, Lloyd-style codebook design (including the
reduced-dimension form for a shared composition), shape-gain rate allocation
for sizing subcodebooks, and Monte Carlo rate-distortion evaluation.
"""

__version__ = "0.1.0"

from .combinatorics import (
    Composition,
    RatePointCensus,
    ResourceLimitError,
    distinct_multinomials,
    enumerate_compositions,
    index_groups,
    max_rate_gap,
    multinomial_size,
    rate_point_census,
    variant2_size,
)
from .order_stats import (
    IntegrationError,
    OrderStatTable,
    folded_order_stats,
    gaussian_order_stats,
    grouped_projection,
)
from .codec import (
    VARIANT_I,
    VARIANT_II,
    ConcentricCode,
    EncodedIndex,
    InitialCodeword,
    StreamError,
    decode,
    encode_cpc,
    encode_pc,
    rank_codeword,
    unrank_codeword,
)
from .design import (
    DesignConfig,
    DesignInfeasibleError,
    LloydResult,
    design_common_composition,
    lloyd_general,
    optimal_levels_single,
    pc_distortion_exact,
    swap_composition,
    swap_improvement_test,
)
from .wsc import (
    GainCodebook,
    RateSplit,
    RateTooLowError,
    WscConstants,
    allocate_compositions,
    design_fixed_rate,
    design_variable_rate,
    gain_codebook,
    optimal_rate_split,
    sizes_fixed_rate,
    sizes_variable_rate,
    snr_improvement_db,
    wsc_constants,
)
from .evaluation import (
    RDPoint,
    ecsq_curve,
    ecusq_curve,
    empirical_distortion,
    empirical_distortions,
    pareto_filter,
    rate_fixed,
    rate_variable,
    shannon_bound,
)
