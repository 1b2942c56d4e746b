"""Dual covariance estimation by its closed form or damped Newton steps.

The dual estimate is the unique patterned positive-definite matrix
whose inverse agrees with the inverse sample covariance K on all free
entries.  It minimizes f(sigma) = tr(K sigma) - log det sigma over the
patterned matrices (Kauermann 1996, Scand. J. Statist. 23).  The
engine follows from the graph: whether it is decomposable is decided
once and kept in the graph's store.

On a decomposable graph, flipping the roles of covariance and
concentration turns the problem into a concentration-graph fit with K
as the data, whose estimate has a closed form (Lauritzen 1996,
Graphical Models, Prop. 5.9):

    sigma = sum_C [K_CC^-1]^0 - sum_S [K_SS^-1]^0,

with C over the cliques in a running-intersection order, S over their
separators (each clique's intersection with the cliques before it) and
[.]^0 padding a block with zeros to p x p.  Each block is inverted
on its own, and the sum is factorised once, which checks it is in the
cone and gives its inverse.  The clique and separator index grids
depend on the graph alone and are kept in the graph's store.

On any other graph, damped Newton steps minimize f from the diagonal
concentration of S.  f is convex and self-concordant, so the steps
converge from any start, and quadratically near the optimum (Boyd and
Vandenberghe 2004, Convex Optimization, 9.5-9.6).  The Hessian over
the free entries is the free-pair form of H (x) H, H the inverse of
the iterate (``kron_form``, Anderson's system).  A step, as in ICF, is
``model._damped_step``: it solves that form against the adjoint of
H - K by Cholesky and halves the step until the candidate, factorised
once by ``model._point`` as is every block, sum and iterate here, is in
the cone and passes Armijo's test.  It costs O(m^3) in the m = p + |E|
free entries.  A graph's cliques are built only for the closed form.

Both engines stop on the same unit-free residual of H - K: the closed
form feeds the Newton loop, which takes no step once the residual is
at most ``tol`` and otherwise polishes an ill-conditioned case.
"""

from __future__ import annotations

import heapq

import numpy as np

from .graphs import CovarianceGraph, _kept, cliques, free_index_set
from .model import (
    ConstrainedCovariance,
    ModelError,
    SampleStats,
    _damped_step,
    _point,
    kron_form,
    profile_loglik,
    unit_free_gap,
)
from .results import FitConfig, FitResult, _resolve_stats

__all__ = ["fit_dual", "dual_residual", "is_decomposable"]

# Armijo's sufficient-decrease fraction for a Newton step.
_ARMIJO = 1e-4
# A line search that tries the step this often, halved between tries,
# without a kept candidate ends the fit as stalled.
_TRIES = 50


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
    """Whether the graph admits a perfect elimination ordering; ``fit_dual`` picks its engine by it."""
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


def _clique_order(g: CovarianceGraph, fam: tuple[tuple[str, ...], ...]) -> list[tuple[int, ...]]:
    """Cliques as index tuples, ordered along the search ranks.

    On a decomposable graph this realizes the running-intersection
    ordering, along which the closed form adds cliques and subtracts
    separators.
    """
    rank = {v: k for k, v in enumerate(_mcs_order(g.adjacency))}
    idx_sets = [tuple(sorted(g.index(v) for v in c)) for c in fam]
    return sorted(idx_sets, key=lambda c: (max(rank[v] for v in c), c))


def _steps(g: CovarianceGraph) -> tuple[tuple[tuple, float], ...]:
    """The closed form's blocks, built on first use and kept on ``g``.

    Each clique in ``_clique_order`` comes with sign +1, then its
    separator, if not empty, with sign -1: its intersection with the
    cliques before it.  A block is its np.ix_ grid and sign.
    """

    def build() -> tuple:
        blocks, seen = [], set()
        for c in _clique_order(g, cliques(g)):
            for idx, sign in ((c, 1.0), (sorted(seen.intersection(c)), -1.0)):
                if idx:
                    blocks.append((np.ix_(idx, idx), sign))
            seen.update(c)
        return tuple(blocks)

    return _kept(g, "dual", build)


def dual_residual(stats: SampleStats, sigma: np.ndarray, g: CovarianceGraph) -> float:
    """Max gap inv(sigma) - inv(S) on the free entries, scaled by ``unit_free_gap``.

    Both inverses come from Cholesky factorisations, as in ``fit_dual``.
    """
    stats = stats.aligned_to(g.vertices)
    gap = _point(sigma, "dual iterate").inv - _point(stats.s, "sample covariance").inv
    return unit_free_gap(gap, sigma, g)


def fit_dual(stats: SampleStats, g: CovarianceGraph, cfg: FitConfig | None = None) -> FitResult:
    """Match the inverse sample covariance on the free entries.

    On a decomposable graph the closed form over the cliques and their
    separators gives the estimate; on any other graph damped Newton
    steps minimize tr(K sigma) - log det sigma from the diagonal
    concentration of S.  ``iterations`` counts the closed form as one,
    if it ran, plus the Newton steps.  The fit stops as ``converged``
    once the defining residual is at most ``tol`` (not on parameter
    change), and otherwise as ``max-iter`` after ``max_iter``
    iterations, as ``stalled`` when a line search finds no candidate
    in the cone that descends, or as ``singular-system`` when a Newton
    system does not factorise; the estimate is then the last iterate.
    The reported log-likelihood is the Gaussian profile value at the
    dual estimate; the dual estimate is generally not a likelihood
    maximizer.  A closed form that is not in the cone raises
    ``NotPositiveDefiniteError``.  The fit has its own start, so a
    ``cfg.start`` raises ``ModelError`` instead of being ignored.
    """
    cfg = cfg or FitConfig()
    if cfg.start is not None:
        raise ModelError("the dual fit takes no starting value")
    stats = _resolve_stats(stats, g)
    k = _point(stats.s, "sample covariance").inv
    fis = free_index_set(g)

    if _kept(g, "decomposable", lambda: is_decomposable(g)):
        sigma = np.zeros((g.p, g.p))
        for cc, sign in _steps(g):
            sigma[cc] += sign * _point(k[cc], "inverse sample covariance block").inv
        iterations = 1
    else:
        sigma = np.diag(1.0 / np.diag(k))  # patterned start: diagonal concentration
        iterations = 0
    cur = _point(sigma, "dual iterate")
    while True:
        gap = cur.inv - k
        residual = unit_free_gap(gap, cur.sigma, g)
        if residual <= cfg.tol:
            detail = "converged"
            break
        if iterations >= cfg.max_iter:
            detail = "max-iter"
            break
        value = float(np.vdot(k, cur.sigma)) - cur.logdet

        def armijo(cand, t, decrease):
            # Below this floor Armijo's test would only see rounding; this
            # close, the full step is safe once it is in the cone.
            at_floor = decrease <= 1e-12 * max(1.0, abs(value))
            return at_floor or float(np.vdot(k, cand.sigma)) - cand.logdet <= value - _ARMIJO * t * decrease

        cand = _damped_step(cur, (lambda: kron_form(cur.inv, fis),), fis.adjoint_vec(gap), fis, _TRIES, armijo)
        if isinstance(cand, str):
            detail = cand
            break
        cur = cand
        iterations += 1
    estimate = ConstrainedCovariance(g, cur.sigma)
    return FitResult(
        method="dual",
        estimate=estimate,
        loglik=profile_loglik(stats, estimate),
        iterations=iterations,
        detail=detail,
        sigma=estimate.sigma,
        residual=residual,
    )
