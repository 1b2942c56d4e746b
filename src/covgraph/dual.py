"""Dual covariance estimation by iterative proportional fitting.

The dual estimate is the unique patterned positive-definite matrix
whose inverse agrees with the inverse sample covariance on all free
entries.  Flipping the roles of covariance and concentration turns
this into a standard concentration-graph fit with the inverse sample
covariance playing the part of the data: clique marginals of that
surrogate are matched one at a time while the zero pattern is kept
exact.  On decomposable graphs a single pass in perfect elimination
order already terminates.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve

# free_index_set is unused here but stays: perfbench/spans.py wraps this name.
from .graphs import CompleteSetFamily, CovarianceGraph, cliques, free_index_set  # noqa: F401
from .model import (
    ConstrainedCovariance,
    ModelError,
    SampleStats,
    profile_loglik,
    unit_free_gap,
)
from .results import FitConfig, FitResult

__all__ = ["fit_dual", "dual_residual", "is_decomposable"]


def _mcs_order(adj: np.ndarray) -> list[int]:
    """Maximum cardinality search order with deterministic tie-breaks."""
    p = adj.shape[0]
    weight = np.zeros(p, dtype=int)
    order: list[int] = []
    remaining = set(range(p))
    while remaining:
        v = min(remaining, key=lambda u: (-weight[u], u))
        order.append(v)
        remaining.discard(v)
        for u in np.flatnonzero(adj[v]):
            if int(u) in remaining:
                weight[int(u)] += 1
    return order


def is_decomposable(g: CovarianceGraph) -> bool:
    """Whether the graph admits a perfect elimination ordering."""
    adj = g.adjacency
    order = _mcs_order(adj)
    rank = {v: k for k, v in enumerate(order)}
    for v in order:
        earlier = [u for u in np.flatnonzero(adj[v]) if rank[int(u)] < rank[v]]
        for a in range(len(earlier)):
            for b in range(a + 1, len(earlier)):
                if not adj[earlier[a], earlier[b]]:
                    return False
    return True


def _clique_order(g: CovarianceGraph, fam: CompleteSetFamily) -> list[tuple[int, ...]]:
    """Cliques as index tuples, ordered along the search ranks.

    On a decomposable graph this realizes the running-intersection
    ordering, for which one fitting pass is exact.
    """
    rank = {v: k for k, v in enumerate(_mcs_order(g.adjacency))}
    idx_sets = [tuple(sorted(g.index(v) for v in c)) for c in fam]
    return sorted(idx_sets, key=lambda c: (max(rank[v] for v in c), c))


def dual_residual(stats: SampleStats, sigma: np.ndarray, g: CovarianceGraph) -> float:
    """Max gap inv(sigma) - inv(S) on the free entries, scaled by ``unit_free_gap``."""
    return unit_free_gap(np.linalg.inv(sigma) - np.linalg.inv(stats.s), sigma, g)


def fit_dual(stats: SampleStats, g: CovarianceGraph, cfg: FitConfig | None = None) -> FitResult:
    """Match the inverse sample covariance on the free entries.

    The fit stops as ``converged`` once the defining residual is at most
    ``tol`` (not on parameter change), else as ``max-iter``.  The
    reported log-likelihood is the Gaussian profile value at the dual
    estimate; the dual estimate is generally not a likelihood maximizer.
    """
    cfg = cfg or FitConfig()
    if stats.labels is not None and stats.labels != g.vertices:
        stats = stats.aligned_to(g.vertices)
    if not stats.s_pos_def:
        raise ModelError("sample covariance must be positive definite")
    p = g.p
    k = cho_solve(cho_factor(stats.s, lower=True), np.eye(p))
    k = (k + k.T) / 2.0

    order = _clique_order(g, cliques(g))
    target_inv = {c: _pd_inv(k[np.ix_(c, c)]) for c in order}

    sigma = np.diag(1.0 / np.diag(k))  # patterned start: diagonal concentration
    residual = np.inf
    cycles = 0
    for cycles in range(1, cfg.max_iter + 1):
        for c in order:
            ci = np.array(c, dtype=int)
            cols = cho_solve(cho_factor(sigma, lower=True), np.eye(p)[:, ci])
            marg = cols[ci, :]
            sigma[np.ix_(ci, ci)] += target_inv[c] - _pd_inv((marg + marg.T) / 2.0)
        residual = dual_residual(stats, sigma, g)
        if residual <= cfg.tol:
            break
    estimate = ConstrainedCovariance(g, (sigma + sigma.T) / 2.0)
    return FitResult(
        method="dual",
        estimate=estimate,
        loglik=profile_loglik(stats, estimate, n_adjust=cfg.n_adjust),
        iterations=cycles,
        detail="converged" if residual <= cfg.tol else "max-iter",
        final_sigma=estimate.sigma,
        residual=residual,
    )


def _pd_inv(a: np.ndarray) -> np.ndarray:
    inv = cho_solve(cho_factor(a, lower=True), np.eye(a.shape[0]))
    return (inv + inv.T) / 2.0
