"""Minimum sum vertex cover: solvers, hardness ratios, and reductions.

The package covers the full pipeline: weighted graphs and sum-cover
values, correlated gaussian quadrant probabilities, exact and heuristic
orderings, scheduled hardness ratios over graph families, the long-code
reduction from affine unique games, gadget-based weight removal, and the
regular-graph approximation analysis with its tightness construction.
"""

__version__ = "0.1.0"

from .gaussian import (
    copula_diag,
    copula_diag_deriv,
    copula_diag_grid,
    copula_diag_integral,
    gaussian_copula,
    phi_cdf,
    phi_inv,
    phi_pdf,
)
from .graph import (
    GRAPH_MAGIC,
    GraphFormatError,
    Ordering,
    WeightedGraph,
    complete_bipartite,
    complete_graph,
    cover_times,
    cycle_graph,
    disjoint_union,
    inside_weight_table,
    load_graph,
    path_graph,
    random_regular_graph,
    random_weighted_graph,
    read_graph,
    save_graph,
    star_graph,
    svc_value,
    write_graph,
)
from .hardness import (
    CONFIG_MAGIC,
    CompositeLimit,
    ConfigFormatError,
    CoverProfile,
    HardnessConfig,
    OptimizeResult,
    RatioReport,
    completeness_limit,
    completeness_profile,
    composite_limit,
    composite_ratio,
    figure1_config,
    format_hardness_config,
    load_hardness_config,
    optimize_config,
    parse_hardness_config,
    save_hardness_config,
    single_ratio,
    soundness_profile,
)
from .reduction import (
    LABELS_MAGIC,
    UG_MAGIC,
    AffineUGInstance,
    ReductionReport,
    UGFormatError,
    UGLabeling,
    build_long_code_graph,
    completeness_ordering,
    format_labels,
    format_ug,
    load_labels,
    load_ug,
    parse_labels,
    parse_ug,
    random_affine_instance,
    save_labels,
    save_ug,
    ug_value,
    verify_reduction,
)
from .regular import (
    ALPHA_BISECTION_LIMIT,
    ALPHA_MAX2SAT_BISECTION,
    CounterexampleParams,
    CounterexampleReport,
    CoverageBoundReport,
    RatioAnalysis,
    counterexample_graph,
    coverage_bound_check,
    optimize_two_phase,
    staged_ordering,
    staged_value_formula,
    two_phase_ratio,
    verify_counterexample,
)
from .solvers import (
    SolveResult,
    covered_weight,
    max_kvc,
    msvc_bruteforce,
    msvc_exact_dp,
    msvc_greedy,
    msvc_two_phase,
)
from .unweighting import (
    BlowUpMap,
    GadgetResult,
    GadgetSamplingError,
    GadgetSpec,
    SubsetCheck,
    UnweightReport,
    blow_up,
    sample_gadget,
    unweight,
)
