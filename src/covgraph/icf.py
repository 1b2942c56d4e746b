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

What an update needs from the graph alone is planned once per fit.
All regressions are expressed through the empirical covariance
matrix, so the sample size never enters the per-sweep cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .graphs import CovarianceGraph
from .model import (
    ConstrainedCovariance,
    ModelError,
    PatternViolationError,
    SampleStats,
    profile_loglik,
    stationarity_residual,
)
from .results import FitConfig, FitResult

__all__ = [
    "BlockSelector",
    "block_update",
    "pseudo_variables_gram",
    "icf_update_vertex",
    "fit_icf",
    "fit_best_start",
    "random_starts",
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

    ``kept`` holds the rest vertices in those connected components of
    the graph without the block that contain spouses.  A patterned
    covariance is exactly zero across components, so its fixed block
    is block-diagonal and only the kept part of its inverse reaches
    the regression.  ``spo_in_kept`` locates the spouses inside it.
    """

    block: np.ndarray
    spo: np.ndarray
    kept: np.ndarray
    spo_in_kept: np.ndarray
    sel: BlockSelector


def _plan(g: CovarianceGraph, idx: Iterable[int]) -> _BlockPlan:
    block = np.array(sorted(idx), dtype=int)
    spo_set = {int(j) for i in block for j in g.spouse_idx(i)} - set(block.tolist())
    spo = np.array(sorted(spo_set), dtype=int)
    comps = [comp.tolist() for comp in g.components_excluding(block.tolist())]
    kept = np.array(
        sorted(v for comp in comps if spo_set.intersection(comp) for v in comp), dtype=int
    )
    sel = BlockSelector.from_graph(g, block, spo)
    return _BlockPlan(block, spo, kept, np.searchsorted(kept, spo), sel)


def _pseudo_moments(
    s: np.ndarray, m: np.ndarray, plan: _BlockPlan
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Inverse of the kept fixed block, cross moments, and Gram matrix."""
    kept = plan.kept
    try:
        c = cho_factor(m[np.ix_(kept, kept)], lower=True)
    except np.linalg.LinAlgError:
        raise ModelError("fixed covariance block is singular") from None
    inv_kept = cho_solve(c, np.eye(kept.size))
    inv_kept = (inv_kept + inv_kept.T) / 2.0
    w = inv_kept[:, plan.spo_in_kept]
    cross = s[np.ix_(plan.block, kept)] @ w
    gram = w.T @ s[np.ix_(kept, kept)] @ w
    return inv_kept, cross, (gram + gram.T) / 2.0


def _update(s: np.ndarray, m: np.ndarray, plan: _BlockPlan) -> None:
    """Refit the block's rows and columns of ``m`` in place, the rest fixed."""
    block, spo, sel = plan.block, plan.spo, plan.sel
    if spo.size == 0:
        # The block is a union of whole components: no regressors, the
        # residual covariance is the sample block itself.
        m[np.ix_(block, block)] = s[np.ix_(block, block)]
        return
    inv_kept, cross, gram = _pseudo_moments(s, m, plan)

    # Weight matrix: inverse conditional covariance of the incoming iterate.
    sig_cr = m[np.ix_(block, plan.kept)]
    lam_in = m[np.ix_(block, block)] - sig_cr @ inv_kept @ sig_cr.T
    lam_in = (lam_in + lam_in.T) / 2.0
    try:
        omega = cho_solve(cho_factor(lam_in, lower=True), np.eye(block.size))
    except np.linalg.LinAlgError:
        raise ModelError("incoming conditional covariance is singular") from None
    omega = (omega + omega.T) / 2.0

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
        np.linalg.cholesky(lam_new)
    except np.linalg.LinAlgError:
        raise ModelError(
            "conditional covariance collapsed; sample covariance ill-conditioned"
        ) from None

    inv_spo = inv_kept[np.ix_(plan.spo_in_kept, plan.spo_in_kept)]
    m[block, :] = 0.0
    m[:, block] = 0.0
    m[np.ix_(block, spo)] = coef
    m[np.ix_(spo, block)] = coef.T
    block_cov = lam_new + coef @ inv_spo @ coef.T
    m[np.ix_(block, block)] = (block_cov + block_cov.T) / 2.0


def pseudo_variables_gram(
    stats: SampleStats, g: CovarianceGraph, sigma_rest: np.ndarray, i: str
) -> tuple[np.ndarray, np.ndarray]:
    """Cross products and Gram matrix of the pseudo-variable regression.

    ``sigma_rest`` is the fixed covariance of the variables other than
    ``i``, in vertex order with ``i`` removed; it must be exactly zero
    between non-adjacent vertices.  The returned pair is the
    response/covariate cross moment row and the covariate Gram matrix,
    both expressed through the empirical covariance.
    """
    iv = g.index(i)
    plan = _plan(g, [iv])
    if plan.spo.size == 0:
        raise ModelError(f"vertex {i!r} has no spouses; the regression is empty")
    sigma_rest = np.asarray(sigma_rest, dtype=float)
    if sigma_rest.shape != (g.p - 1, g.p - 1):
        raise ModelError("sigma_rest must drop exactly the chosen vertex")
    rest = np.flatnonzero(np.arange(g.p) != iv)
    off = ~g.adjacency[np.ix_(rest, rest)] & ~np.eye(rest.size, dtype=bool)
    bad = np.argwhere(off & (sigma_rest != 0.0))
    if bad.size:
        a, b = rest[bad[0]]
        raise PatternViolationError(
            f"sigma_rest entry ({g.vertices[a]}, {g.vertices[b]}) must be zero"
        )
    m = np.zeros((g.p, g.p))
    m[np.ix_(rest, rest)] = sigma_rest
    _, cross, gram = _pseudo_moments(stats.s, m, plan)
    return cross[0], gram


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
    _update(stats.s, m, _plan(g, cidx))
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
    end.  ``detail`` gives the stop reason: ``converged`` when the
    max-abs parameter change over a sweep drops below ``tol`` and the
    likelihood-equation residual confirms a stationary point,
    ``stalled`` when the parameters stop moving but the residual stays
    large, and ``max-iter`` after ``max_iter`` sweeps.
    """
    if stats.labels is not None and stats.labels != g.vertices:
        stats = stats.aligned_to(g.vertices)
    if not stats.s_pos_def:
        raise ModelError("sample covariance must be positive definite")
    plans = [_plan(g, b) for b in blocks]
    current = _resolve_start(g, cfg)
    m = np.array(current.sigma)
    trace: list[float] = []
    detail = "max-iter"
    residual = None
    sweeps = 0
    for sweeps in range(1, cfg.max_iter + 1):
        for plan in plans:
            _update(stats.s, m, plan)
        prev, current = current, ConstrainedCovariance(g, m.copy())
        if cfg.record_trace:
            trace.append(profile_loglik(stats, current, n_adjust=cfg.n_adjust))
        delta = float(np.abs(current.sigma - prev.sigma).max())
        if delta < cfg.tol:
            residual = stationarity_residual(stats, current)
            if residual <= 100.0 * cfg.tol:
                detail = "converged"
                break
            if delta < 1e-3 * cfg.tol:
                detail = "stalled"
                break
    if residual is None:
        residual = stationarity_residual(stats, current)
    return FitResult(
        method=method,
        estimate=current,
        loglik=profile_loglik(stats, current, n_adjust=cfg.n_adjust),
        iterations=sweeps,
        converged=detail == "converged",
        final_sigma=current.sigma,
        trace=tuple(trace) if cfg.record_trace else None,
        detail=detail,
        residual=residual,
    )


def fit_icf(stats: SampleStats, g: CovarianceGraph, cfg: FitConfig | None = None) -> FitResult:
    """Fit the constrained covariance by cycling vertexwise updates."""
    return _sweep_fit(stats, g, cfg or FitConfig(), [[v] for v in range(g.p)], "ml-icf")


def random_starts(
    g: CovarianceGraph, count: int, seed: int = 0, scale: float = 0.5
) -> list[ConstrainedCovariance]:
    """Random positive-definite starting values inside the pattern.

    Diagonally dominant draws: edge entries uniform, diagonal lifted
    above each row's absolute sum.
    """
    rng = np.random.default_rng(seed)
    out = []
    edges = np.triu(g.adjacency, 1)
    for _ in range(count):
        m = np.zeros((g.p, g.p))
        for i, j in zip(*np.nonzero(edges)):
            m[i, j] = m[j, i] = scale * rng.uniform(-1.0, 1.0)
        m += np.diag(rng.uniform(1.0, 2.0, g.p) + np.abs(m).sum(axis=1))
        out.append(ConstrainedCovariance(g, m))
    return out


def fit_best_start(
    stats: SampleStats,
    g: CovarianceGraph,
    starts: Iterable[np.ndarray | ConstrainedCovariance],
    cfg: FitConfig | None = None,
    fitter=fit_icf,
) -> FitResult:
    """Run a fitter from several starting values and keep the best likelihood.

    The likelihood surface can have multiple local maxima; supplying
    extra starting points is the pragmatic guard.
    """
    cfg = cfg or FitConfig()
    best: FitResult | None = None
    best_ll = -np.inf
    for start in starts:
        res = fitter(stats, g, FitConfig(
            tol=cfg.tol,
            max_iter=cfg.max_iter,
            start=start,
            record_trace=cfg.record_trace,
            n_adjust=cfg.n_adjust,
        ))
        ll = -np.inf if res.loglik is None else res.loglik
        if best is None or ll > best_ll:
            best, best_ll = res, ll
    if best is None:
        raise ModelError("no starting values supplied")
    return best
