"""Iterative conditional fitting with block updates: the family front end.

Instead of refitting one vertex at a time, a whole complete set of
vertices is refit jointly.  The block update itself is the engine in
:mod:`covgraph.icf`, shared with the vertexwise fitter (and
re-exported here); this module chooses and validates the family of
complete sets that one sweep cycles through.
"""

from __future__ import annotations

from .graphs import CompleteSetFamily, CovarianceGraph, cliques, validate_family
from .icf import _sweep_fit, block_update
from .model import ModelError, SampleStats
from .results import FitConfig, FitResult

__all__ = ["block_update", "fit_icf_multi"]


def fit_icf_multi(
    stats: SampleStats,
    g: CovarianceGraph,
    family: CompleteSetFamily | None = None,
    cfg: FitConfig | None = None,
) -> FitResult:
    """Fit the constrained covariance by cycling block updates.

    ``family`` must cover every vertex with complete sets; the default
    is the family of cliques, the largest admissible blocks.  With an
    all-singleton family the trajectory is the vertexwise fitter's.
    """
    family = family if family is not None else cliques(g)
    bad = validate_family(g, family)
    if bad is not None:
        raise ModelError(f"invalid complete-set family: {bad.message}")
    blocks = [[g.index(v) for v in block] for block in family]
    return _sweep_fit(stats, g, cfg or FitConfig(), blocks, "ml-icf-multi")
