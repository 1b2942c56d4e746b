"""Maximum likelihood fitting by iterative conditional fitting.

One engine serves the vertexwise and the blockwise fitter.  An update
refits the rows and columns of a complete set of vertices (a single
vertex in the vertexwise fitter) with the covariance of the remaining
variables held fixed.  The conditional model of the block given the
rest is a system of seemingly unrelated regressions: each block
variable regresses on the pseudo-variables of its own spouses, with a
joint residual covariance.  One two-step pass (generalized least
squares with the incoming residual covariance as weight, then a
residual-covariance refresh) per block is enough for a convergent
ascent; the two-step estimator is deliberately not iterated within a
block, and for a single vertex it is the plain least-squares refit.
Every sweep keeps the iterate inside the constraint cone and never
decreases the log-likelihood.

A sweep keeps K, the inverse of the iterate, next to it.  K is
recomputed from the iterate once at the start of each sweep and
refreshed after every update, so an update factorises nothing larger
than its block: the inverse incoming conditional covariance is K's
block, the inverse of the fixed rest is the Schur complement of that
block in K, and two rank-|C| terms turn K into the inverse of the
refitted iterate.  An update of a block C with spouses S costs
O(p^2 (|C| + |S|)) instead of the O(p^3) of inverting the rest.

What an update needs from the graph alone is planned once per fit.
All regressions are expressed through the empirical covariance
matrix, so the sample size never enters the per-sweep cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.linalg.blas import dtrsm

from .graphs import CovarianceGraph
from .model import (
    ConstrainedCovariance,
    ModelError,
    SampleStats,
    profile_loglik,
    stationarity_residual,
)
from .results import FitConfig, FitResult, stop_reason

__all__ = [
    "BlockSelector",
    "block_update",
    "icf_update_vertex",
    "fit_icf",
]


@dataclass(frozen=True)
class BlockSelector:
    """Positions of the unrestricted coefficients of one block.

    The free coefficients are the pairs (i in block, j in spouses of
    the block) joined by an edge; ``rows`` and ``cols`` hold their
    positions inside the block and spouse orderings, listed
    column-major so they follow matrix vectorization order.
    """

    rows: np.ndarray
    cols: np.ndarray

    @classmethod
    def from_graph(cls, g: CovarianceGraph, block: np.ndarray, spo: np.ndarray) -> "BlockSelector":
        rows, cols = [], []
        for b, j in enumerate(spo):
            for a, i in enumerate(block):
                if g.adjacency[i, j]:
                    rows.append(a)
                    cols.append(b)
        return cls(np.array(rows, dtype=int), np.array(cols, dtype=int))

    def __len__(self) -> int:
        return len(self.rows)


@dataclass(frozen=True)
class _BlockPlan:
    """The graph-only part of one block update.

    ``block`` is the complete set C, ``spo`` its spouses (the vertices
    outside C adjacent to a member) and ``sel`` the positions of its
    free coefficients.  Everything that depends on the iterate is read
    from the maintained inverse when the update runs.
    """

    block: np.ndarray
    spo: np.ndarray
    sel: BlockSelector


def _plan(g: CovarianceGraph, idx: Iterable[int]) -> _BlockPlan:
    block = np.array(sorted(idx), dtype=int)
    spo_set = {int(j) for i in block for j in g.spouse_idx(i)} - set(block.tolist())
    spo = np.array(sorted(spo_set), dtype=int)
    return _BlockPlan(block, spo, BlockSelector.from_graph(g, block, spo))


def _inverse(m: np.ndarray) -> np.ndarray:
    """Exactly symmetric inverse of a positive-definite iterate."""
    k = cho_solve(cho_factor(m, lower=True), np.eye(len(m)))
    return (k + k.T) / 2.0


def _pseudo_moments(
    s: np.ndarray, block: np.ndarray, w: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Cross moments and Gram matrix of the spouse pseudo-variables.

    Column j of ``w`` is the column of the inverse fixed rest block
    that belongs to spouse j, spread over all p rows with zeros on the
    block, so ``w.T @ x`` holds the pseudo-variables of an observation x.
    """
    sw = s @ w
    gram = w.T @ sw
    return sw[block], (gram + gram.T) / 2.0


def _update(s: np.ndarray, m: np.ndarray, k: np.ndarray, plan: _BlockPlan) -> None:
    """Refit the block's rows and columns of ``m`` in place, the rest fixed.

    ``k`` holds the inverse of ``m`` on entry and is refreshed in place
    to the inverse of the refitted ``m``.
    """
    block, spo, sel = plan.block, plan.spo, plan.sel
    # Weight matrix: the inverse incoming conditional covariance is K_CC.
    omega = k[np.ix_(block, block)]
    try:
        low_omega = np.linalg.cholesky(omega)
    except np.linalg.LinAlgError:
        raise ModelError("incoming conditional covariance is singular") from None
    # Inverse of the fixed rest block, the Schur complement of K_CC,
    # with zero block rows and columns.  The triangular solves call BLAS
    # trsm: OpenBLAS runs LAPACK's trtrs on its thread pool even for a
    # 1x1 triangle, and waking the pool costs more than the whole update.
    z = dtrsm(1.0, low_omega, k[block], lower=1)
    inv_rest = k - z.T @ z
    inv_rest[block, :] = 0.0
    inv_rest[:, block] = 0.0
    # A block without spouses is a union of whole components: the
    # arrays below are empty and the residual covariance is the sample block.
    cross, gram = _pseudo_moments(s, block, inv_rest[:, spo])
    normal = gram[np.ix_(sel.cols, sel.cols)] * omega[np.ix_(sel.rows, sel.rows)]
    rhs = (omega @ cross)[sel.rows, sel.cols]
    try:
        coef_free = cho_solve(cho_factor(normal, lower=True), rhs)
    except np.linalg.LinAlgError:
        raise ModelError("generalized least squares system is not positive definite") from None
    coef = np.zeros((block.size, spo.size))
    coef[sel.rows, sel.cols] = coef_free
    lam_new = (
        s[np.ix_(block, block)] - coef @ cross.T - cross @ coef.T + coef @ gram @ coef.T
    )
    lam_new = (lam_new + lam_new.T) / 2.0
    try:
        low_lam = np.linalg.cholesky(lam_new)
    except np.linalg.LinAlgError:
        raise ModelError(
            "conditional covariance collapsed; sample covariance ill-conditioned"
        ) from None

    m[block, :] = 0.0
    m[:, block] = 0.0
    m[np.ix_(block, spo)] = coef
    m[np.ix_(spo, block)] = coef.T
    block_cov = lam_new + coef @ inv_rest[np.ix_(spo, spo)] @ coef.T
    m[np.ix_(block, block)] = (block_cov + block_cov.T) / 2.0

    # Block inverse of the refitted m: the rest inverse plus E^T lam^-1 E
    # with E = [I on the block, -coef times the spouse rows of inv_rest].
    e = -coef @ inv_rest[spo]
    e[:, block] = np.eye(block.size)
    y = dtrsm(1.0, low_lam, e, lower=1)
    np.add(inv_rest, y.T @ y, out=k)


def block_update(
    stats: SampleStats, sigma: ConstrainedCovariance, c: Iterable[str]
) -> ConstrainedCovariance:
    """Refit the rows and columns of a complete set with the rest fixed."""
    g = sigma.graph
    cidx = sorted({g.index(v) for v in c})
    if not cidx:
        raise ModelError("block must be nonempty")
    if not g.is_complete(cidx):
        raise ModelError(f"block {tuple(g.vertices[i] for i in cidx)} is not complete")
    m = np.array(sigma.sigma)
    _update(stats.s, m, _inverse(m), _plan(g, cidx))
    return ConstrainedCovariance(g, m)


def icf_update_vertex(
    stats: SampleStats, sigma: ConstrainedCovariance, i: str
) -> ConstrainedCovariance:
    """One conditional refit of vertex ``i`` with the rest held fixed.

    Returns the unique maximizer of the log-likelihood over the section
    where everything but row and column ``i`` is frozen.
    """
    return block_update(stats, sigma, (i,))


def _resolve_start(g: CovarianceGraph, cfg: FitConfig) -> ConstrainedCovariance:
    if cfg.start is None:
        return ConstrainedCovariance.identity(g)
    if isinstance(cfg.start, ConstrainedCovariance):
        if cfg.start.graph != g:
            raise ModelError("starting value belongs to a different graph")
        return cfg.start
    return ConstrainedCovariance(g, np.asarray(cfg.start, dtype=float))


def _sweep_fit(
    stats: SampleStats,
    g: CovarianceGraph,
    cfg: FitConfig,
    blocks: Iterable[Iterable[int]],
    method: str,
) -> FitResult:
    """Cycle block updates over ``blocks`` (vertex positions) to convergence.

    Each sweep updates one working array and is validated once at its
    end.  ``stop_reason`` decides the stop from the sweep's unit-free
    change and the stationarity residual; ``detail`` is ``max-iter``
    after ``max_iter`` sweeps.
    """
    if stats.labels is not None and stats.labels != g.vertices:
        stats = stats.aligned_to(g.vertices)
    if not stats.s_pos_def:
        raise ModelError("sample covariance must be positive definite")
    plans = [_plan(g, b) for b in blocks]
    current = _resolve_start(g, cfg)
    m = np.array(current.sigma)
    trace: list[float] = []
    detail = None
    sweeps = 0
    for sweeps in range(1, cfg.max_iter + 1):
        k = _inverse(m)
        for plan in plans:
            _update(stats.s, m, k, plan)
        prev, current = current, ConstrainedCovariance(g, m.copy())
        if cfg.record_trace:
            trace.append(profile_loglik(stats, current, n_adjust=cfg.n_adjust))
        detail = stop_reason(current.sigma, prev.sigma, lambda: stationarity_residual(stats, current), cfg.tol)
        if detail:
            break
    return FitResult(
        method=method,
        estimate=current,
        loglik=profile_loglik(stats, current, n_adjust=cfg.n_adjust),
        iterations=sweeps,
        detail=detail or "max-iter",
        final_sigma=current.sigma,
        trace=tuple(trace) if cfg.record_trace else None,
        residual=stationarity_residual(stats, current),
    )


def fit_icf(stats: SampleStats, g: CovarianceGraph, cfg: FitConfig | None = None) -> FitResult:
    """Fit the constrained covariance by cycling vertexwise updates."""
    return _sweep_fit(stats, g, cfg or FitConfig(), [[v] for v in range(g.p)], "ml-icf")

