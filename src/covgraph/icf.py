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
recomputed from the iterate once at the start of each sweep, from the
factorisation that also checks the iterate is in the cone, and
refreshed after every update, so an update factorises nothing larger
than its block: the inverse incoming conditional covariance is K's
block, the inverse of the fixed rest is the Schur complement of that
block in K, and two rank-|C| terms turn K into the inverse of the
refitted iterate.  An update of a block C with spouses S costs
O(p^2 (|C| + |S|)) instead of the O(p^3) of inverting the rest.

What an update needs from the graph alone, index grids included, is
planned once per fit, and the small factorisations call LAPACK
directly.  All regressions are expressed through the empirical
covariance matrix, so the sample size never enters the per-sweep cost.

The sweeps are accelerated by SQUAREM (Varadhan and Roland 2008): every
two plain sweeps are followed by one try of a squared extrapolation of
the sweep map, kept only if it stays in the cone and does not lower the
log-likelihood.  The ascent stays monotone and positive definite, and
the stop rule only ever measures a plain sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np
from scipy.linalg.blas import dtrsm
from scipy.linalg.lapack import dpotrf, dpotrs

from .graphs import CovarianceGraph
from .model import (
    PD_REL_TOL,
    ConstrainedCovariance,
    ModelError,
    NotPositiveDefiniteError,
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
    free coefficients.  ``_plan`` also builds the index grids and the
    block identity, once per fit; everything that depends on the
    iterate is read from the maintained inverse when the update runs.
    """

    block: np.ndarray
    spo: np.ndarray
    sel: BlockSelector
    cc: tuple  # np.ix_(block, block)
    cs: tuple  # np.ix_(block, spo)
    sc: tuple  # np.ix_(spo, block)
    ss: tuple  # np.ix_(spo, spo)
    sel_rows: tuple  # np.ix_(sel.rows, sel.rows)
    sel_cols: tuple  # np.ix_(sel.cols, sel.cols)
    eye: np.ndarray  # the |C| x |C| identity


def _plan(g: CovarianceGraph, idx: Iterable[int]) -> _BlockPlan:
    block = np.array(sorted(idx), dtype=int)
    spo_set = {int(j) for i in block for j in g.spouse_idx(i)} - set(block.tolist())
    spo = np.array(sorted(spo_set), dtype=int)
    sel = BlockSelector.from_graph(g, block, spo)
    return _BlockPlan(
        block, spo, sel,
        np.ix_(block, block), np.ix_(block, spo), np.ix_(spo, block), np.ix_(spo, spo),
        np.ix_(sel.rows, sel.rows), np.ix_(sel.cols, sel.cols), np.eye(block.size),
    )


def _cholesky(a: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``a``, or None if LAPACK finds it not positive definite.

    The plain LAPACK call skips scipy's argument checks, which cost
    more than the factorisation of a small block.
    """
    low, info = dpotrf(a, lower=1)
    return None if info else low


class _Point(NamedTuple):
    """An iterate with its inverse and its log-likelihood kernel."""

    sigma: np.ndarray
    inv: np.ndarray
    kernel: float  # -log det sigma - trace(sigma^-1 S)


def _point(s: np.ndarray, m: np.ndarray) -> _Point:
    """Factorise ``m`` once for its inverse and its kernel.

    Raises ``NotPositiveDefiniteError`` unless ``m`` lies in
    ``is_pos_def``'s cone: every pivot above ``PD_REL_TOL`` times its own
    diagonal entry, which also rules out a non-finite ``m``.
    """
    low = _cholesky(m)
    if low is None or not np.all(np.diag(low) ** 2 > PD_REL_TOL * np.diag(m)):
        raise NotPositiveDefiniteError("iterate is not positive definite")
    k, _ = dpotrs(low, np.eye(len(m)), lower=1)
    k = (k + k.T) / 2.0
    return _Point(m, k, -2.0 * float(np.log(np.diag(low)).sum()) - float(np.vdot(k, s)))


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
    omega = k[plan.cc]
    low_omega = _cholesky(omega)
    if low_omega is None:
        raise ModelError("incoming conditional covariance is singular")
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
    coef = np.zeros((block.size, spo.size))
    if sel.rows.size:
        low_normal = _cholesky(gram[plan.sel_cols] * omega[plan.sel_rows])
        if low_normal is None:
            raise ModelError("generalized least squares system is not positive definite")
        coef[sel.rows, sel.cols] = dpotrs(low_normal, (omega @ cross)[sel.rows, sel.cols], lower=1)[0]
    lam_new = s[plan.cc] - coef @ cross.T - cross @ coef.T + coef @ gram @ coef.T
    lam_new = (lam_new + lam_new.T) / 2.0
    low_lam = _cholesky(lam_new)
    if low_lam is None:
        raise ModelError("conditional covariance collapsed; sample covariance ill-conditioned")

    m[block, :] = 0.0
    m[:, block] = 0.0
    m[plan.cs] = coef
    m[plan.sc] = coef.T
    block_cov = lam_new + coef @ inv_rest[plan.ss] @ coef.T
    m[plan.cc] = (block_cov + block_cov.T) / 2.0

    # Block inverse of the refitted m: the rest inverse plus E^T lam^-1 E
    # with E = [I on the block, -coef times the spouse rows of inv_rest].
    e = -coef @ inv_rest[spo]
    e[:, block] = plan.eye
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
    _update(stats.s, m, _point(stats.s, m).inv, _plan(g, cidx))
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


def _sweep(s: np.ndarray, plans: list[_BlockPlan], x: _Point) -> _Point:
    """One plain sweep of block updates from ``x``; uses up ``x.inv``."""
    m = x.sigma.copy()
    for plan in plans:
        _update(s, m, x.inv, plan)
    return _point(s, m)


def _squarem(s: np.ndarray, x0: _Point, x1: _Point, x2: _Point) -> tuple[_Point, bool]:
    """The start of the next cycle after the sweeps x1 = F(x0), x2 = F(x1).

    With r = x1 - x0 and v = x2 - 2 x1 + x0, the step length is
    alpha = -max(1, |r| / |v|) and the candidate x0 - 2 alpha r +
    alpha^2 v.  It is tried once and kept only if it is in the cone and
    its log-likelihood is at least that of x2; otherwise x2 is kept.
    Returns the kept point and whether a tried candidate was rejected.
    At alpha = -1 the candidate is x2 itself, and a zero |v| or a
    non-finite alpha gives no step, so none is tried.
    """
    r = x1.sigma - x0.sigma
    v = x2.sigma - x1.sigma - r
    norm_v = float(np.linalg.norm(v))
    if norm_v == 0.0:
        return x2, False
    alpha = -float(np.linalg.norm(r)) / norm_v
    if not -np.inf < alpha < -1.0:
        return x2, False
    try:
        trial = _point(s, x0.sigma - 2.0 * alpha * r + alpha * alpha * v)
    except NotPositiveDefiniteError:
        return x2, True
    if trial.kernel >= x2.kernel:
        return trial, False
    return x2, True


def _sweep_fit(
    stats: SampleStats,
    g: CovarianceGraph,
    cfg: FitConfig,
    blocks: Iterable[Iterable[int]],
    method: str,
) -> FitResult:
    """Cycle block updates over ``blocks`` (vertex positions) to convergence.

    The ascent is accelerated by SQUAREM, the squared extrapolation of
    the sweep map F (Varadhan and Roland 2008, Scand. J. Statist. 35):
    each cycle runs two plain sweeps and one try of ``_squarem``, and
    the next cycle starts from the point it keeps.  That point is never
    below the second sweep in log-likelihood, so the plain sweeps never
    lose log-likelihood, and its off-pattern entries are exactly zero.

    ``stop_reason`` only ever measures a plain sweep, F(x) against x,
    never the extrapolation jump.  ``iterations``, ``max_iter`` and the
    trace count plain sweeps; ``detail`` is ``max-iter`` after
    ``max_iter`` sweeps.  Each sweep's result is factorised once, for
    the cone check, the next sweep's inverse and the log-likelihood.
    """
    if stats.labels is not None and stats.labels != g.vertices:
        stats = stats.aligned_to(g.vertices)
    if not stats.s_pos_def:
        raise ModelError("sample covariance must be positive definite")
    s = stats.s
    plans = [_plan(g, b) for b in blocks]
    cur = _point(s, np.array(_resolve_start(g, cfg).sigma))
    trace: list[float] = []
    detail = None
    sweeps = rejected = 0
    cycle_start = None
    for sweeps in range(1, cfg.max_iter + 1):
        prev, cur = cur, _sweep(s, plans, cur)
        if cfg.record_trace:
            trace.append(profile_loglik(stats, cur.sigma, n_adjust=cfg.n_adjust))
        detail = stop_reason(
            cur.sigma, prev.sigma,
            lambda: stationarity_residual(stats, ConstrainedCovariance(g, cur.sigma)), cfg.tol,
        )
        if detail:
            break
        if cycle_start is None:
            cycle_start = prev
        elif sweeps < cfg.max_iter:
            cur, missed = _squarem(s, cycle_start, prev, cur)
            rejected += missed
            cycle_start = None
    estimate = ConstrainedCovariance(g, cur.sigma)
    return FitResult(
        method=method,
        estimate=estimate,
        loglik=profile_loglik(stats, estimate, n_adjust=cfg.n_adjust),
        iterations=sweeps,
        detail=detail or "max-iter",
        final_sigma=estimate.sigma,
        trace=tuple(trace) if cfg.record_trace else None,
        residual=stationarity_residual(stats, estimate),
        rejected_extrapolations=rejected,
    )


def fit_icf(stats: SampleStats, g: CovarianceGraph, cfg: FitConfig | None = None) -> FitResult:
    """Fit the constrained covariance by cycling vertexwise updates."""
    return _sweep_fit(stats, g, cfg or FitConfig(), [[v] for v in range(g.p)], "ml-icf")

