"""Iterative conditional fitting with block updates: the family front end.

Instead of refitting one vertex at a time, a whole complete set of
vertices is refit jointly.  The block update itself is the engine in
:mod:`covgraph.icf`, shared with the vertexwise fitter (and
re-exported here); this module checks the family that one sweep
cycles through: label tuples such as ``[("1", "3"), ("2", "4")]``.
"""

from __future__ import annotations

from typing import Iterable

from .graphs import CovarianceGraph, cliques, validate_family
from .icf import _sweep_fit, block_update
from .model import ModelError, SampleStats
from .results import FitConfig, FitResult

__all__ = ["block_update", "fit_icf_multi"]


def fit_icf_multi(
    stats: SampleStats,
    g: CovarianceGraph,
    family: Iterable[Iterable[str]] | None = None,
    cfg: FitConfig | None = None,
) -> FitResult:
    """Fit the constrained covariance by cycling block updates.

    ``family`` must cover every vertex with complete sets; the default
    is ``cliques(g)``, the largest admissible blocks.  With the family
    ``[(v,) for v in g.vertices]`` the trajectory is the vertexwise fitter's.
    """
    family = tuple(map(tuple, family)) if family is not None else cliques(g)
    bad = validate_family(g, family)
    if bad is not None:
        raise ModelError(f"invalid complete-set family: {bad}")
    blocks = [[g.index(v) for v in block] for block in family]
    return _sweep_fit(stats, g, cfg or FitConfig(), blocks, "ml-icf-multi")
