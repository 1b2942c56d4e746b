"""Anderson's linear-equation iteration for the likelihood equations.

Each step linearizes the likelihood equations at the current iterate
and solves for the free entries.  The iteration is reproduced exactly
as stated, without damping or safeguards, so its documented failure
modes stay observable: iterates need not be positive definite, the
likelihood may decrease, and convergence is not guaranteed.  A fixed
point solves the likelihood equations, so converged runs agree with
the conditional-fitting estimate.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg

from .graphs import CovarianceGraph, free_index_set
from .model import (
    ConstrainedCovariance,
    DuplicationMap,
    ModelError,
    SampleStats,
    is_pos_def,
    pair_quadratic,
    profile_loglik,
    stationarity_residual,
)
from .results import FitConfig, FitResult, stop_reason

__all__ = ["fit_anderson"]


def fit_anderson(stats: SampleStats, g: CovarianceGraph, cfg: FitConfig | None = None) -> FitResult:
    """Iterate the linear system from the identity (or a given start).

    The per-iterate positive-definiteness record is kept, and the
    log-likelihood trace holds None wherever the iterate was not PD.
    ``stop_reason`` decides the stop, as for conditional fitting; an
    overflowing iterate stops as ``diverged`` and an unsolvable system
    as ``singular-system``.
    """
    cfg = cfg or FitConfig()
    if stats.labels is not None and stats.labels != g.vertices:
        stats = stats.aligned_to(g.vertices)
    if not stats.s_pos_def:
        raise ModelError("sample covariance must be positive definite")
    fis = free_index_set(g)
    dup = DuplicationMap(fis)
    if cfg.start is None:
        sigma = np.eye(g.p)
    elif isinstance(cfg.start, ConstrainedCovariance):
        sigma = np.array(cfg.start.sigma)
    else:
        sigma = np.asarray(cfg.start, dtype=float)
    # Scaling of rows by 2 on the edge pairs symmetrizes the system, so
    # a symmetric-indefinite solve applies even off the PD cone.
    edge_scale = np.array([1.0 if i == j else 2.0 for i, j in fis.pairs])

    pd_flags: list[bool] = []
    trace: list[float | None] = []
    detail = None
    iteration = 0
    for iteration in range(1, cfg.max_iter + 1):
        try:
            k = np.linalg.inv(sigma)
        except np.linalg.LinAlgError:
            detail = "singular-system"
            break
        if not np.all(np.isfinite(k)):
            detail = "singular-system"
            break
        sym = pair_quadratic(k, k, fis.pairs)
        t = k @ stats.s @ k
        rhs = edge_scale * np.array([t[i, j] for i, j in fis.pairs])
        try:
            # ill-conditioned systems are expected on divergent runs and
            # already surface through pd_flags and the detail tag
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
                free = scipy.linalg.solve(sym, rhs, assume_a="sym")
        except (np.linalg.LinAlgError, scipy.linalg.LinAlgError, ValueError):
            detail = "singular-system"
            break
        if not np.all(np.isfinite(free)):
            detail = "diverged"
            break
        new_sigma = dup.expand(free, g.p)
        pd = is_pos_def(new_sigma)
        pd_flags.append(pd)
        if cfg.record_trace:
            trace.append(profile_loglik(stats, new_sigma) if pd else None)
        sigma, old = new_sigma, sigma
        detail = stop_reason(
            sigma, old, lambda: stationarity_residual(stats, ConstrainedCovariance(g, sigma)), cfg.tol
        )
        if detail:
            break
    # A converged iterate is positive definite; the last flag is sigma's.
    estimate = ConstrainedCovariance(g, sigma) if detail == "converged" else None
    return FitResult(
        method="ml-anderson",
        estimate=estimate,
        loglik=profile_loglik(stats, sigma, n_adjust=cfg.n_adjust) if pd_flags and pd_flags[-1] else None,
        iterations=iteration,
        final_sigma=sigma,
        trace=tuple(trace) if cfg.record_trace else None,
        detail=detail or "max-iter",
        pd_flags=tuple(pd_flags),
        residual=None if estimate is None else stationarity_residual(stats, estimate),
    )
