"""Anderson's linear-equation iteration for the likelihood equations.

Each step linearizes the likelihood equations at the current iterate
and solves for the free entries.  The iteration is reproduced exactly
as stated, without damping or safeguards, so its documented failure
modes stay observable: iterates need not be positive definite, the
likelihood may decrease, and convergence is not guaranteed.  A fixed
point solves the likelihood equations, so converged runs agree with
the conditional-fitting estimate.

The system of a step is the free-pair form of K (x) K, K the inverse
of the iterate (``kron_form``, built by blocks from gathers of K
through the graph's free-entry map), and the right-hand side is the
duplication adjoint of K S K.  The form is positive definite while
the iterate is, so a step factors it by Cholesky; only a form that
is not, off the cone, goes to a symmetric-indefinite solve, whose
arithmetic the documented failure modes depend on.  A step costs an
inverse, the form and one of the two solves.
"""

from __future__ import annotations

import warnings

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import dpotrs

from .graphs import CovarianceGraph, free_index_set
from .model import (
    ConstrainedCovariance,
    NotPositiveDefiniteError,
    SampleStats,
    _chol,
    _cholesky,
    _factored,
    _loglik,
    _stationarity,
    kron_form,
    profile_loglik,
    stationarity_residual,
)
from .results import FitConfig, FitResult, _resolve_start, _resolve_stats, stop_reason

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
    stats = _resolve_stats(stats, g)
    fis = free_index_set(g)
    sigma = np.array(_resolve_start(g, cfg).sigma)

    pd_flags: list[bool] = []
    trace: list[float | None] = []
    detail = residual = None
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
        # Scaling the rows of the edge pairs by 2 symmetrizes the system.
        # It is positive definite while the iterate is, so Cholesky goes
        # first; off the PD cone a symmetric-indefinite solve takes over.
        sym = kron_form(k, fis)
        rhs = fis.adjoint_vec(k @ stats.s @ k)
        if not (np.all(np.isfinite(sym)) and np.all(np.isfinite(rhs))):
            detail = "singular-system"
            break
        low = _cholesky(sym)
        if low is not None:
            # Only the factor outlives the step, as in fit_dual: the next
            # form then reuses freed heap rather than faulting in pages.
            del sym
            free = dpotrs(low, rhs, lower=1)[0]
        else:
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
        new_sigma = fis.expand(free)
        # One factorisation gives the flag, the trace entry and the stop
        # rule's residual; the inverse is formed only for the last two.
        # Off the cone there is no factor, and the estimate's own check
        # raises as the stop rule expects.  It is not named ``low``: the
        # form's factor must outlive the step, as said above.
        try:
            root = _chol(new_sigma, "iterate")
        except NotPositiveDefiniteError:
            root = None
        pd_flags.append(root is not None)
        if cfg.record_trace:
            trace.append(None if root is None else _loglik(stats, _factored(new_sigma, root)))
        sigma, old = new_sigma, sigma
        detail, residual = stop_reason(
            sigma,
            old,
            lambda: stationarity_residual(stats, ConstrainedCovariance(g, sigma))
            if root is None
            else _stationarity(stats.s, _factored(sigma, root), g),
            cfg.tol,
        )
        if detail:
            break
    # A converged iterate is positive definite, and its residual was
    # read by the stop rule; the last flag is sigma's.
    estimate = ConstrainedCovariance(g, sigma) if detail == "converged" else None
    return FitResult(
        method="ml-anderson",
        estimate=estimate,
        loglik=profile_loglik(stats, sigma) if pd_flags and pd_flags[-1] else None,
        iterations=iteration,
        sigma=sigma if estimate is None else estimate.sigma,
        trace=tuple(trace) if cfg.record_trace else None,
        detail=detail or "max-iter",
        pd_flags=tuple(pd_flags),
        residual=None if estimate is None else residual,
    )
