"""Covariance matrix estimation under prescribed zero entries.

A missing edge in a bi-directed graph pins the matching covariance to
zero; this package fits such patterned covariance matrices by maximum
likelihood (vertexwise or blockwise conditional fitting, and a plain
linear-equation iteration), by dual estimation, and by empirical
likelihood, and ships a Monte-Carlo harness comparing them.
"""

from .anderson import fit_anderson
from .dual import dual_residual, fit_dual, is_decomposable
from .emplik import (
    ELConvergenceError,
    ELInfeasibleError,
    WeightedSample,
    fit_el,
    inner_el,
    missing_pairs,
)
from .graphs import (
    CovarianceGraph,
    FreeIndexSet,
    GraphError,
    cliques,
    free_index_set,
    graph_from_matrix,
    parse_family_text,
    parse_graph_text,
    validate_family,
)
from .icf import fit_icf, icf_update_vertex
from .icf_multi import block_update, fit_icf_multi
from .model import (
    ConstrainedCovariance,
    ModelError,
    NotPositiveDefiniteError,
    PatternViolationError,
    SampleStats,
    deviance,
    fisher_information,
    hessian,
    is_pos_def,
    profile_loglik,
    sample_stats,
    score,
    stationarity_residual,
    stats_from_moments,
)
from .results import FitConfig, FitResult
from .simulate import SimReport, SimSpec, run_simulation, sample_gaussian, sample_t

__version__ = "0.1.0"
