"""Dual covariance estimation by iterative proportional fitting.

The dual estimate is the unique patterned positive-definite matrix
whose inverse agrees with the inverse sample covariance on all free
entries.  Flipping the roles of covariance and concentration turns
this into a standard concentration-graph fit with the inverse sample
covariance K playing the part of the data: clique marginals of that
surrogate are matched one at a time while the zero pattern is kept
exact.  On decomposable graphs a single pass in perfect elimination
order already terminates.

A cycle keeps H, the inverse of the iterate, next to it (the
covariance-form update of Speed and Kiiveri 1986, Ann. Statist. 14).
A clique step factorises only the |C| x |C| block H_CC and refreshes
H with one rank-|C| term, so it costs O(p^2 |C|) instead of a p x p
factorisation.  Once per cycle the iterate is factorised afresh: that
checks it is still in the cone, gives the exact H the next cycle
starts from, so rounding does not build up across cycles, and gives
the residual.  The rank-|C| term is added to H in place by one BLAS
gemm, so a step allocates nothing p x p.  What a step needs from the
graph alone (the clique order and index grids) is kept in the graph's
store, and what it needs from K is taken once per fit.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

import numpy as np
from scipy.linalg.blas import dgemm
from scipy.linalg.lapack import dpotrs

# free_index_set is unused here but stays: perfbench/spans.py wraps this name.
from .graphs import CompleteSetFamily, CovarianceGraph, _kept, cliques, free_index_set  # noqa: F401
from .model import (
    ConstrainedCovariance,
    ModelError,
    NotPositiveDefiniteError,
    SampleStats,
    _cholesky,
    _inv_pd,
    profile_loglik,
    unit_free_gap,
)
from .results import FitConfig, FitResult, _resolve_stats

__all__ = ["fit_dual", "dual_residual", "is_decomposable"]


def _mcs_order(adj: np.ndarray) -> list[int]:
    """Maximum cardinality search order with deterministic tie-breaks.

    Each step takes the unnumbered vertex with the most numbered
    neighbours, the smallest index among ties.  A heap keyed on
    (-weight, index) holds one entry per weight a vertex has had; an
    entry whose weight is out of date, or whose vertex is numbered, is
    skipped when popped.
    """
    p = adj.shape[0]
    neighbours = [np.flatnonzero(row).tolist() for row in adj]
    weight = [0] * p
    numbered = [False] * p
    heap = [(0, u) for u in range(p)]  # sorted, so already a heap
    order: list[int] = []
    while heap:
        w, v = heapq.heappop(heap)
        if numbered[v] or -w != weight[v]:
            continue
        numbered[v] = True
        order.append(v)
        for u in neighbours[v]:
            if not numbered[u]:
                weight[u] += 1
                heapq.heappush(heap, (-weight[u], u))
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


class _CliqueStep(NamedTuple):
    """The graph-only part of a clique step, kept in the graph's store."""

    idx: np.ndarray  # the clique's vertex positions
    cc: tuple  # np.ix_(idx, idx)
    eye: np.ndarray  # the |C| x |C| identity


def _steps(g: CovarianceGraph) -> tuple[_CliqueStep, ...]:
    """The steps of the cliques in ``_clique_order``, built on first use and kept on ``g``."""

    def build() -> tuple[_CliqueStep, ...]:
        idx = [np.array(c, dtype=int) for c in _clique_order(g, cliques(g))]
        return tuple(_CliqueStep(i, np.ix_(i, i), np.eye(i.size)) for i in idx)

    return _kept(g, "dual", build)


def _targets(k: np.ndarray, steps: tuple[_CliqueStep, ...]) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each step's target block K_CC of the inverse and its inverse, taken once per fit."""
    blocks = [k[st.cc] for st in steps]
    return [(b, _block_inv(b, st.eye, "inverse sample covariance block")) for b, st in zip(blocks, steps)]


def _block_inv(a: np.ndarray, eye: np.ndarray, what: str) -> np.ndarray:
    """Inverse of a small positive-definite block by direct LAPACK calls."""
    low = _cholesky(a)
    if low is None:
        raise NotPositiveDefiniteError(f"{what} is not positive definite")
    inv, _ = dpotrs(low, eye, lower=1)
    return (inv + inv.T) / 2.0


def _cycle(steps: tuple[_CliqueStep, ...], targets: list, sigma: np.ndarray, h: np.ndarray) -> np.ndarray:
    """One pass over the cliques; updates ``sigma`` in place and returns its inverse.

    ``targets`` holds each step's K_CC and its inverse.  ``h`` holds the
    inverse of ``sigma`` on entry and is used up.  Each step sets the
    clique block of the inverse to K_CC by adding K_CC^-1 - H_CC^-1 to
    sigma's block, and keeps H current with one rank-|C| term.  The
    returned inverse is recomputed from sigma, whose factorisation also
    checks that sigma is still in the cone.
    """
    for step, (k_cc, k_cc_inv) in zip(steps, targets):
        h_cc = h[step.cc]
        b = _block_inv(h_cc, step.eye, "clique block of the inverse iterate")
        w = h[:, step.idx] @ b
        sigma[step.cc] += k_cc_inv - b
        # H += u w^T with u = w (K_CC - H_CC), in place: the symmetric H goes
        # to BLAS as its F-ordered transpose, which receives w u^T, and the
        # result is kept, so a copy made by the wrapper would not be lost.
        u = w @ (k_cc - h_cc)
        h = dgemm(1.0, w.T, u.T, 1.0, h.T, trans_a=1, overwrite_c=1).T
    return _inv_pd(sigma, "dual iterate")


def dual_residual(stats: SampleStats, sigma: np.ndarray, g: CovarianceGraph) -> float:
    """Max gap inv(sigma) - inv(S) on the free entries, scaled by ``unit_free_gap``.

    Both inverses come from Cholesky factorisations, as in ``fit_dual``.
    """
    gap = _inv_pd(sigma, "dual iterate") - _inv_pd(stats.s, "sample covariance")
    return unit_free_gap(gap, sigma, g)


def fit_dual(stats: SampleStats, g: CovarianceGraph, cfg: FitConfig | None = None) -> FitResult:
    """Match the inverse sample covariance on the free entries.

    The fit stops as ``converged`` once the defining residual is at most
    ``tol`` (not on parameter change), else as ``max-iter``.  The
    reported log-likelihood is the Gaussian profile value at the dual
    estimate; the dual estimate is generally not a likelihood maximizer.
    An iterate that leaves the cone raises ``NotPositiveDefiniteError``.
    The fit starts from the diagonal concentration of S, so a
    ``cfg.start`` raises ``ModelError`` instead of being ignored.
    """
    cfg = cfg or FitConfig()
    if cfg.start is not None:
        raise ModelError("the dual fit takes no starting value")
    stats = _resolve_stats(stats, g)
    k = _inv_pd(stats.s, "sample covariance")
    steps = _steps(g)
    targets = _targets(k, steps)

    sigma = np.diag(1.0 / np.diag(k))  # patterned start: diagonal concentration
    h = _inv_pd(sigma, "dual iterate")
    residual = np.inf
    cycles = 0
    for cycles in range(1, cfg.max_iter + 1):
        h = _cycle(steps, targets, sigma, h)
        residual = unit_free_gap(h - k, sigma, g)
        if residual <= cfg.tol:
            break
    estimate = ConstrainedCovariance(g, sigma)
    return FitResult(
        method="dual",
        estimate=estimate,
        loglik=profile_loglik(stats, estimate, n_adjust=cfg.n_adjust),
        iterations=cycles,
        detail="converged" if residual <= cfg.tol else "max-iter",
        final_sigma=estimate.sigma,
        residual=residual,
    )
