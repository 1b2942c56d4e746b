"""Shared fitter configuration, result records and stop rule."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .graphs import CovarianceGraph
from .model import ConstrainedCovariance, ModelError, NotPositiveDefiniteError, SampleStats

if TYPE_CHECKING:
    from .emplik import WeightedSample

__all__ = ["FitConfig", "FitResult"]


def _as_int(what: str, value) -> int:
    """``value`` as an int; ``ModelError`` unless it is an int or numpy integer, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ModelError(f"{what} must be an integer, not {value!r}")
    return int(value)


def _as_float(what: str, value) -> float:
    """``value`` as a float; ``ModelError`` unless it is a real Python or numpy scalar, and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ModelError(f"{what} must be a real number, not {value!r}")
    return float(value)


@dataclass(frozen=True)
class FitConfig:
    """Knobs shared by the iterative fitters.

    ``tol`` is a finite, positive, unit-free real number, not a bool, kept as a float: see
    ``stop_reason``; the dual fitter stops once its residual is at most ``tol``.
    ``max_iter`` is a whole number of at least 1, not a bool, kept as an int.
    ``start`` overrides the default start, diag(S) for ``ml-icf`` and
    ``ml-icf-multi`` and the identity for ``ml-anderson`` (see
    ``_resolve_start``); the dual fitter has its own start and rejects
    one.  ``record_trace`` keeps the log-likelihood of each iteration.
    """

    tol: float = 1e-8
    max_iter: int = 5000
    start: np.ndarray | ConstrainedCovariance | None = None
    record_trace: bool = False

    def __post_init__(self):
        object.__setattr__(self, "tol", _as_float("tol", self.tol))
        if not self.tol > 0:
            raise ModelError("tol must be positive")
        if not np.isfinite(self.tol):
            raise ModelError("tol must be finite")
        object.__setattr__(self, "max_iter", _as_int("max_iter", self.max_iter))
        if self.max_iter < 1:
            raise ModelError("max_iter must be at least 1")


def _resolve_start(g: CovarianceGraph, cfg: FitConfig, default: np.ndarray | None = None) -> ConstrainedCovariance:
    """The starting value ``cfg`` asks for, checked against ``g``.

    When ``cfg.start`` is None, ``default``: the ICF fitters pass
    diag(S), and ``ml-anderson`` passes nothing and starts at the
    identity.  A start of another graph raises ``ModelError``, and a
    plain matrix must be a valid patterned covariance of ``g``.
    """
    if cfg.start is None:
        return ConstrainedCovariance.identity(g) if default is None else ConstrainedCovariance(g, default)
    if isinstance(cfg.start, ConstrainedCovariance):
        if cfg.start.graph != g:
            raise ModelError("starting value belongs to a different graph")
        return cfg.start
    return ConstrainedCovariance(g, np.asarray(cfg.start, dtype=float))


def _resolve_stats(stats: SampleStats, g: CovarianceGraph) -> SampleStats:
    """``stats`` in the vertex order of ``g``; its covariance must be positive definite."""
    stats = stats.aligned_to(g.vertices)
    if not stats.s_pos_def:
        raise ModelError("sample covariance must be positive definite")
    return stats


@dataclass(frozen=True)
class FitResult:
    """Outcome of one covariance fit, for every method.

    ``estimate`` is None when the final iterate is not a valid
    patterned covariance (possible for the linear-equation method) and
    for ``el``, whose weighted covariance need not be positive definite.
    ``sigma`` is the estimate's read-only matrix when there is one, else
    the raw final matrix.  ``loglik`` is None for ``el``.  ``detail`` is
    the stop reason (converged, stalled, max-iter, diverged,
    singular-system or not-pd), ``iterations`` the iterations: for the
    ICF fitters the plain sweeps plus the Newton or scoring steps, for
    ``dual`` one for the closed form, if it ran, plus the Newton steps,
    and for ``el`` the accepted Newton steps;
    ``pd_flags`` the per-iterate positive-definiteness record where the
    method tracks it, ``residual`` the method's own unit-free defining
    residual at exit, ``rejected_extrapolations`` the number of
    extrapolation steps the ICF fitters tried and threw away, and
    ``newton_steps`` the number of Newton or scoring steps they kept.  Only
    ``el`` sets ``inner_solves``, the inner dual problems it solved, and
    ``weighted``, its optimal weighting.
    """

    method: str
    estimate: ConstrainedCovariance | None
    loglik: float | None
    iterations: int
    detail: str
    sigma: np.ndarray | None = None
    trace: tuple[float | None, ...] | None = None
    pd_flags: tuple[bool, ...] | None = None
    residual: float | None = None
    rejected_extrapolations: int | None = None
    newton_steps: int | None = None
    inner_solves: int | None = None
    weighted: WeightedSample | None = None

    @property
    def converged(self) -> bool:
        return self.detail == "converged"


def unit_free_change(new: np.ndarray, old: np.ndarray) -> float:
    """max |new_ij - old_ij| / sqrt(new_ii new_jj); infinite unless diag(new) is positive."""
    d = np.diag(new)
    if not np.all(d > 0.0):
        return np.inf
    return float((np.abs(new - old) / np.sqrt(np.outer(d, d))).max())


def stop_reason(
    new: np.ndarray, old: np.ndarray, residual: Callable[[], float], tol: float
) -> tuple[str | None, float | None]:
    """The likelihood fitters' stop rule on one step, with the residual it read.

    The step is small when max |new_ij - old_ij| / sqrt(new_ii new_jj)
    is below ``tol``.  Then ``residual()`` decides: ``converged`` at most
    100 ``tol``, ``not-pd`` if it finds ``new`` not positive definite,
    and ``stalled`` once the step is below 1e-3 ``tol``.  The reason is
    None to go on; the residual is None where it was not computed.
    """
    change = unit_free_change(new, old)
    if not change < tol:
        return None, None
    try:
        value = residual()
    except NotPositiveDefiniteError:
        return "not-pd", None
    if value <= 100.0 * tol:
        return "converged", value
    return ("stalled" if change < 1e-3 * tol else None), value
