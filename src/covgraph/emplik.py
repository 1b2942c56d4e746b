"""Non-parametric covariance estimation by empirical likelihood.

Each observation gets a weight; the product of n times the weights is
maximized subject to the weights being a probability vector, the
weighted mean matching a profiled location vector, and the weighted
covariance vanishing on every missing edge.  For a fixed location the
inner problem is solved in its Lagrange dual, whose dimension equals
the number of constraints.  Each constraint column is divided by its
root mean square first, so the dual's stop rule and its feasibility
checks do not depend on the units of the data.

The location is profiled by BFGS from the sample mean.  The gradient of
the profile objective comes from the inner multipliers by the envelope
theorem: at the optimal weights the weighted deviations sum to zero, so
the product constraints drop out and the gradient with respect to the
location is -n times the mean multipliers (Qin & Lawless 1994; Owen
2001, ch. 3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graphs import CovarianceGraph
from .model import ModelError

__all__ = [
    "ELConfig",
    "WeightedSample",
    "ELFit",
    "ELInfeasibleError",
    "ELConvergenceError",
    "missing_pairs",
    "inner_el",
    "fit_el",
]


# Outer stationarity, max_i n |lambda_mean,i| sd_i: the gradient of the
# profile objective over the location in sample standard deviations.
_STATIONARY_TOL = 1e-5
# BFGS's own stop on the same gradient, ten times tighter.  Stopping there
# leaves sigma within about 2e-8 of a fully polished fit, and the margin
# lets a fit that BFGS ends on a line-search failure at its precision
# floor count as converged.
_BFGS_GTOL = 1e-6


class ELInfeasibleError(ModelError):
    """No location admitted a feasible weighting."""


class ELConvergenceError(ModelError):
    """The dual solver failed to converge on a feasible problem."""


@dataclass(frozen=True)
class ELConfig:
    """Solver settings.

    ``tol`` stops the inner dual once every constraint, scaled to unit
    root mean square, holds to it; ``constraint_tol`` is the acceptance
    check on the same scale.  ``outer_max_iter`` caps the BFGS
    iterations of the location search.
    """

    tol: float = 1e-10
    max_iter: int = 200
    outer_max_iter: int = 400
    constraint_tol: float = 1e-8


@dataclass(frozen=True)
class WeightedSample:
    """Optimal weights for one location vector.

    ``multipliers`` stacks one Lagrange multiplier per mean constraint
    followed by one per missing edge; ``el_log_ratio`` is the attained
    sum of log(n w_k), never positive.
    """

    weights: np.ndarray
    mean: np.ndarray
    multipliers: np.ndarray
    el_log_ratio: float


@dataclass(frozen=True)
class ELFit:
    """Profiled solution and the induced weighted covariance estimate.

    ``detail`` is the stop reason: ``converged`` when the returned
    location is stationary on a unit-free scale, max_i n |lambda_mean,i|
    sd_i <= 1e-5 with sd the sample standard deviations; ``max-iter``
    when the location search used ``outer_max_iter`` iterations; and
    ``stalled`` when it ended earlier without reaching stationarity.
    ``inner_solves`` counts the inner dual problems solved, the sample
    mean included.
    """

    weighted: WeightedSample
    sigma: np.ndarray
    sigma_singular: bool
    detail: str
    outer_iterations: int
    inner_solves: int

    @property
    def converged(self) -> bool:
        return self.detail == "converged"


def missing_pairs(g: CovarianceGraph) -> tuple[tuple[int, int], ...]:
    """Non-adjacent index pairs (i < j): one product constraint each."""
    adj = g.adjacency
    return tuple(
        (i, j) for i in range(g.p) for j in range(i + 1, g.p) if not adj[i, j]
    )


def _constraint_columns(data: np.ndarray, mu: np.ndarray, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    d = data - mu
    cols = [d] + [(d[:, i] * d[:, j])[:, None] for i, j in pairs]
    return np.hstack(cols)


def _log_star(z: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log with a quadratic extension below eps; value, d/dz, d2/dz2."""
    z = np.asarray(z, dtype=float)
    lo = z < eps
    val = np.empty_like(z)
    d1 = np.empty_like(z)
    d2 = np.empty_like(z)
    zh = z[~lo]
    val[~lo] = np.log(zh)
    d1[~lo] = 1.0 / zh
    d2[~lo] = -1.0 / zh**2
    zl = z[lo]
    val[lo] = np.log(eps) - 1.5 + 2.0 * zl / eps - zl**2 / (2.0 * eps**2)
    d1[lo] = 2.0 / eps - zl / eps**2
    d2[lo] = -1.0 / eps**2
    return val, d1, d2


def _solve_dual(gmat: np.ndarray, tol: float, max_iter: int) -> np.ndarray:
    """Damped Newton minimization of the safeguarded dual objective.

    Stops once every weighted constraint mean is within ``tol`` of zero.
    Returns the best multiplier vector found; the caller decides
    validity by checking the primal constraints, since near the
    optimum the gradient stalls at the floating-point floor.
    """
    n, m = gmat.shape
    eps = 1.0 / n
    lam = np.zeros(m)
    gtol = tol * n  # the gradient is -n times the weighted constraint means
    at_lam = _log_star(1.0 + gmat @ lam, eps)
    for _ in range(max_iter):
        val, d1, d2 = at_lam
        grad = -gmat.T @ d1
        if np.abs(grad).max() <= gtol:
            return lam
        hess = gmat.T @ (-d2[:, None] * gmat)
        try:
            step = np.linalg.solve(hess, -grad)
        except np.linalg.LinAlgError:
            hess = hess + (1e-12 * max(1.0, np.trace(hess) / m)) * np.eye(m)
            try:
                step = np.linalg.solve(hess, -grad)
            except np.linalg.LinAlgError:
                return lam
        f0 = -val.sum()
        slope = grad @ step
        if -slope <= 1e-12 * max(1.0, abs(f0)):
            # The predicted decrease is below what the objective can
            # resolve, so a sufficient-decrease test would only see
            # rounding; this close, the full Newton step is safe.
            lam = lam + step
            at_lam = _log_star(1.0 + gmat @ lam, eps)
            continue
        t = 1.0
        for _ in range(50):
            cand = lam + t * step
            at_cand = _log_star(1.0 + gmat @ cand, eps)
            if -at_cand[0].sum() <= f0 + 1e-4 * t * slope:
                break
            t *= 0.5
        else:
            return lam  # no measurable descent left
        lam, at_lam = cand, at_cand
    return lam


def _interior_feasible(gmat: np.ndarray, tol: float) -> bool:
    """Phase-1 linear program: is 0 strictly inside the hull of the rows?

    A point counts as a certificate only if the solver's weight vector
    actually satisfies the moment equations to ``tol``; near-ties that
    pass only by the solver's own slack are treated as infeasible.
    """
    import scipy.optimize

    n, m = gmat.shape
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_eq = np.zeros((m + 1, n + 1))
    a_eq[:m, :n] = gmat.T
    a_eq[m, :n] = 1.0
    b_eq = np.zeros(m + 1)
    b_eq[m] = 1.0
    a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    b_ub = np.zeros(n)
    bounds = [(0.0, 1.0)] * n + [(-1.0, 1.0)]
    res = scipy.optimize.linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds, method="highs"
    )
    if not res.success or float(res.x[-1]) <= 1e-9 / n:
        return False
    w = res.x[:n]
    return bool(np.abs(w @ gmat).max() <= tol and abs(w.sum() - 1.0) <= tol)


def _solve_at(
    data: np.ndarray,
    mu: np.ndarray,
    pairs: Sequence[tuple[int, int]],
    cfg: ELConfig,
) -> WeightedSample | None:
    """``inner_el`` on checked inputs, with the missing pairs given."""
    n = data.shape[0]
    if n <= 1 + len(pairs):
        return None  # more constraints than the sample can carry
    gmat = _constraint_columns(data, mu, pairs)
    # Unit root mean square per column makes every tolerance below
    # unit-free; z, and with it the weights, is unchanged by the scaling.
    rms = np.sqrt((gmat**2).mean(axis=0))
    scale = np.where(rms > 0.0, rms, 1.0)
    gmat = gmat / scale
    lam = _solve_dual(gmat, cfg.tol, cfg.max_iter)
    z = 1.0 + gmat @ lam
    valid = False
    if z.min() > 0.0:
        w = 1.0 / (n * z)
        moment_gap = np.abs(w @ gmat).max()
        valid = (
            w.min() >= -cfg.constraint_tol
            and abs(w.sum() - 1.0) <= cfg.constraint_tol
            and moment_gap <= cfg.constraint_tol
            and z.min() >= 1.0 / n - cfg.constraint_tol
        )
    if not valid:
        # An unbounded dual (weights draining away, or a constraint
        # pushed past the safeguard) certifies that 0 lies outside the
        # hull; only a stalled solve on a certified-feasible problem is
        # a genuine solver failure.
        diverged = z.min() <= 0.0 or abs((1.0 / (n * np.maximum(z, 1e-300))).sum() - 1.0) > 1e-3
        if diverged or not _interior_feasible(gmat, cfg.constraint_tol):
            return None
        raise ELConvergenceError("dual solver failed on a feasible problem")
    return WeightedSample(
        weights=w,
        mean=mu.copy(),
        multipliers=lam / scale,  # back in the units of the raw constraints
        el_log_ratio=float(-np.log(z).sum()),
    )


def inner_el(
    data: np.ndarray,
    mu: np.ndarray,
    g: CovarianceGraph,
    cfg: ELConfig | None = None,
) -> WeightedSample | None:
    """Maximize the weight log-likelihood ratio for a fixed location.

    Returns None when the problem is infeasible: either the sample size
    does not exceed the constraint count, or zero is not interior to
    the convex hull of the per-observation constraint values.
    """
    data = np.asarray(data, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if data.ndim != 2 or data.shape[1] != g.p or mu.shape != (g.p,):
        raise ModelError("data, location, and graph dimensions disagree")
    return _solve_at(data, mu, missing_pairs(g), cfg or ELConfig())


def fit_el(
    data: np.ndarray,
    g: CovarianceGraph,
    cfg: ELConfig | None = None,
    labels: Sequence[str] | None = None,
) -> ELFit:
    """Profile the location and return weights plus the weighted covariance.

    BFGS minimizes -el_log_ratio from the sample mean, over the location
    measured in sample standard deviations, with the gradient taken from
    the inner multipliers.  A location that admits no weighting scores
    +inf, and the line search backs away from it.  The best location
    probed is returned.  Raises when the sample mean itself is
    infeasible, the small-sample failure mode of the method.
    """
    import scipy.optimize

    cfg = cfg or ELConfig()
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ModelError("data must be a two-dimensional table")
    if labels is not None:
        labels = list(labels)
        try:
            perm = [labels.index(v) for v in g.vertices]
        except ValueError as exc:
            raise ModelError(f"data labels do not cover the graph: {exc}") from None
        data = data[:, perm]
    n, p = data.shape
    if p != g.p:
        raise ModelError("data and graph dimensions disagree")
    pairs = missing_pairs(g)
    ybar = data.mean(axis=0)
    sd = data.std(axis=0)
    sd = np.where(sd > 0.0, sd, 1.0)
    best = _solve_at(data, ybar, pairs, cfg)  # solver errors here are real
    if best is None:
        raise ELInfeasibleError(
            "no feasible weights at the sample mean; sample too small for the constraint set"
        )
    solves = 1

    def neg_ratio(t: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal best, solves
        mu = ybar + sd * t
        if np.array_equal(mu, best.mean):
            ws = best
        else:
            solves += 1
            try:
                ws = _solve_at(data, mu, pairs, cfg)
            except ELConvergenceError:
                ws = None  # a failed probe only rules out that location
            if ws is None:
                return np.inf, np.zeros(p)
            if ws.el_log_ratio > best.el_log_ratio:
                best = ws
        return -ws.el_log_ratio, -n * sd * ws.multipliers[:p]

    res = scipy.optimize.minimize(
        neg_ratio, np.zeros(p), jac=True, method="BFGS",
        options={"maxiter": cfg.outer_max_iter, "gtol": _BFGS_GTOL},
    )
    stationarity = float((n * np.abs(best.multipliers[:p]) * sd).max())
    d = data - best.mean
    sigma = d.T @ (best.weights[:, None] * d)
    sigma = (sigma + sigma.T) / 2.0
    eigs = np.linalg.eigvalsh(sigma)
    singular = bool(eigs.min() <= 1e-10 * max(eigs.max(), 1e-300))
    if stationarity <= _STATIONARY_TOL:
        detail = "converged"
    else:
        detail = "max-iter" if res.nit >= cfg.outer_max_iter else "stalled"
    return ELFit(
        weighted=best,
        sigma=sigma,
        sigma_singular=singular,
        detail=detail,
        outer_iterations=int(res.nit),
        inner_solves=solves,
    )
