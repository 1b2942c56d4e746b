"""Shared fitter configuration, result records and stop rule."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .model import ConstrainedCovariance, NotPositiveDefiniteError

__all__ = ["FitConfig", "FitResult"]


@dataclass(frozen=True)
class FitConfig:
    """Knobs shared by the iterative fitters.

    ``tol`` is unit-free: see ``stop_reason``, and the dual fitter
    stops once its residual is at most ``tol``.  ``start`` overrides
    the identity starting value, ``record_trace`` keeps the per-sweep
    log-likelihood, and ``n_adjust`` substitutes n - 1 for n in
    reported likelihood values.
    """

    tol: float = 1e-8
    max_iter: int = 5000
    start: np.ndarray | ConstrainedCovariance | None = None
    record_trace: bool = False
    n_adjust: bool = False

    def __post_init__(self):
        if not self.tol > 0:
            raise ValueError("tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(frozen=True)
class FitResult:
    """Outcome of one covariance fit.

    ``estimate`` is None when the final iterate is not a valid
    patterned covariance (possible for the linear-equation method);
    ``final_sigma`` always holds the raw final matrix.  ``detail`` is
    the stop reason (converged, stalled, max-iter, diverged,
    singular-system or not-pd), ``pd_flags`` the per-iterate
    positive-definiteness record where the method tracks it,
    ``residual`` the method's own unit-free defining residual at exit,
    and ``rejected_extrapolations`` the number of extrapolation steps
    the ICF fitters tried and threw away.
    """

    method: str
    estimate: ConstrainedCovariance | None
    loglik: float | None
    iterations: int
    detail: str
    final_sigma: np.ndarray | None = None
    trace: tuple[float | None, ...] | None = None
    pd_flags: tuple[bool, ...] | None = None
    residual: float | None = None
    rejected_extrapolations: int | None = None

    @property
    def converged(self) -> bool:
        return self.detail == "converged"

    @property
    def sigma(self) -> np.ndarray | None:
        if self.estimate is not None:
            return self.estimate.sigma
        return self.final_sigma


def stop_reason(new: np.ndarray, old: np.ndarray, residual: Callable[[], float], tol: float) -> str | None:
    """The likelihood fitters' stop rule on one step; None means go on.

    The step is small when max |new_ij - old_ij| / sqrt(new_ii new_jj)
    is below ``tol``.  Then ``residual()`` decides: ``converged`` at most
    100 ``tol``, ``not-pd`` if it finds ``new`` not positive definite,
    and ``stalled`` once the step is below 1e-3 ``tol``.
    """
    d = np.diag(new)
    if not np.all(d > 0.0):
        return None
    change = float((np.abs(new - old) / np.sqrt(np.outer(d, d))).max())
    if not change < tol:
        return None
    try:
        if residual() <= 100.0 * tol:
            return "converged"
    except NotPositiveDefiniteError:
        return "not-pd"
    return "stalled" if change < 1e-3 * tol else None
