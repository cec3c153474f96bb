"""Distances, overlay functionals and quotient sets for measure-valued step kernels."""

from .measures import (
    DecorationSpace,
    SignedMeasure,
    SpaceMismatchError,
    TestFamily,
    dirac,
    f_distance,
    f_norm,
    hahn_jordan,
    integrate,
    lp_distance,
    lp_distance_batch,
    lp_distance_estimate,
    lp_feasible,
    tv_distance,
)
from .kernels import (
    CbGraph,
    CbStepKernel,
    RealStepKernel,
    StepKernel,
    aggregate_measure,
    apply_function,
    block_integral,
    cb_graph_to_kernel,
    common_refinement,
    from_real_graphon,
    minimal_refinement,
    pair,
    relabel,
    uniform_refine,
)
from .metrics import (
    cut_dist_f,
    cut_dist_lp,
    cut_dist_search,
    cut_norm_real,
    cut_norm_real_search,
    delta_2f,
    delta_cut,
    f_inner,
    f_l2_norm,
)
from .overlay import (
    OverlapMatrix,
    f_overlay,
    f_overlay_truncated,
    overlay_graph,
    overlay_kernel,
    overlay_objective,
)
from .quotients import (
    Quotient,
    QuotientCloud,
    d1_quotient,
    dsquare_quotient,
    dsquare_quotient_search,
    hausdorff,
    quotient,
    quotient_cloud,
    rebalance_partition,
)
from .sampling import (
    DecoratedSample,
    KernelMixture,
    convergence_run,
    empirical_kernel,
    mixture_delta_n,
    sample_graph,
)
from .search import SearchBudget, SearchResult

__version__ = "0.1.0"
