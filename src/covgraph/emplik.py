"""Non-parametric covariance estimation by empirical likelihood.

Each observation gets a weight; the product of n times the weights is
maximized subject to the weights being a probability vector, the
weighted mean matching a profiled location vector, and the weighted
covariance vanishing on every missing edge.  For a fixed location the
inner problem is solved in its Lagrange dual, whose dimension equals
the number of constraints.  Each constraint column is divided by its
root mean square first, so the dual's stop rule and its feasibility
checks do not depend on the units of the data.

The location is profiled by safeguarded Newton steps from the sample
mean.  The gradient of the profile objective comes from the inner
multipliers by the envelope theorem: at the optimal weights the
weighted deviations sum to zero, so the product constraints drop out
and the gradient with respect to the location is -n times the mean
multipliers (Qin & Lawless 1994; Owen 2001, ch. 3).  Its derivative,
the exact profile Hessian, follows from differentiating the inner
stationarity equations in the location (Owen 2001, ch. 12).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import CovarianceGraph, _upper_pairs
from .model import ModelError, _check_finite
from .results import FitResult

__all__ = [
    "WeightedSample",
    "ELInfeasibleError",
    "ELConvergenceError",
    "missing_pairs",
    "inner_el",
    "fit_el",
]


# The inner dual stops once every constraint, scaled to unit root mean
# square, holds to _DUAL_TOL, or after _DUAL_MAX_ITER Newton steps; a
# weighting is accepted when it holds to _CONSTRAINT_TOL on that scale.
_DUAL_TOL = 1e-10
_DUAL_MAX_ITER = 200
_CONSTRAINT_TOL = 1e-8
# Outer stationarity, max_i n |lambda_mean,i| sd_i: the gradient of the
# profile objective over the location in sample standard deviations.
_STATIONARY_TOL = 1e-5
# The Newton steps stop on the same gradient ten times tighter.  Stopping
# there leaves sigma within about 2e-8 of a fully polished fit, and the
# margin lets a search that stalls at its precision floor count as
# converged.
_NEWTON_GTOL = 1e-6
# Armijo's sufficient-decrease fraction for an accepted location step.
_ARMIJO = 1e-4
# The location search stops after this many accepted Newton steps.
_OUTER_MAX_ITER = 400


class ELInfeasibleError(ModelError):
    """No location admitted a feasible weighting."""


class ELConvergenceError(ModelError):
    """The dual solver failed to converge on a feasible problem."""


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


def missing_pairs(g: CovarianceGraph) -> tuple[tuple[int, int], ...]:
    """Non-adjacent index pairs (i < j), in lexicographic order: one product constraint each."""
    return tuple(_upper_pairs(~g.adjacency))


def _missing_index(g: CovarianceGraph) -> np.ndarray:
    """``missing_pairs`` as an (m, 2) int array, built once per fit."""
    return np.array(missing_pairs(g), dtype=int).reshape(-1, 2)


def _constraint_columns(data: np.ndarray, mu: np.ndarray, pairs: np.ndarray) -> np.ndarray:
    """Deviations from ``mu``, then their products over the (m, 2) ``pairs``."""
    d = data - mu
    return np.hstack([d, d[:, pairs[:, 0]] * d[:, pairs[:, 1]]])


def _log_star(z: np.ndarray, eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log with a quadratic extension below eps; value, d/dz, d2/dz2."""
    z = np.asarray(z, dtype=float)
    if z.min() >= eps:  # the common case near the optimum: no extension needed
        return np.log(z), 1.0 / z, -1.0 / z**2
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


def _solve_dual(gmat: np.ndarray) -> np.ndarray:
    """Damped Newton minimization of the safeguarded dual objective.

    Stops once every weighted constraint mean is within ``_DUAL_TOL`` of zero.
    Returns the best multiplier vector found; the caller decides
    validity by checking the primal constraints, since near the
    optimum the gradient stalls at the floating-point floor.
    """
    n, m = gmat.shape
    eps = 1.0 / n
    lam = np.zeros(m)
    gtol = _DUAL_TOL * n  # the gradient is -n times the weighted constraint means
    at_lam = _log_star(1.0 + gmat @ lam, eps)
    for _ in range(_DUAL_MAX_ITER):
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


def _interior_feasible(gmat: np.ndarray) -> bool:
    """Phase-1 linear program: is 0 strictly inside the hull of the rows?

    A point counts as a certificate only if the solver's weight vector
    actually satisfies the moment equations to ``_CONSTRAINT_TOL``;
    near-ties that pass only by the solver's own slack are treated as
    infeasible.
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
    return bool(np.abs(w @ gmat).max() <= _CONSTRAINT_TOL and abs(w.sum() - 1.0) <= _CONSTRAINT_TOL)


def _solve_at(data: np.ndarray, mu: np.ndarray, pairs: np.ndarray) -> WeightedSample | None:
    """``inner_el`` on checked inputs, with the missing pairs given by ``_missing_index``."""
    n = data.shape[0]
    if n <= 1 + len(pairs):
        return None  # more constraints than the sample can carry
    gmat = _constraint_columns(data, mu, pairs)
    # Unit root mean square per column makes every tolerance below
    # unit-free; z, and with it the weights, is unchanged by the scaling.
    rms = np.sqrt((gmat**2).mean(axis=0))
    scale = np.where(rms > 0.0, rms, 1.0)
    gmat = gmat / scale
    lam = _solve_dual(gmat)
    z = 1.0 + gmat @ lam
    valid = False
    if z.min() > 0.0:
        w = 1.0 / (n * z)
        moment_gap = np.abs(w @ gmat).max()
        valid = (
            w.min() >= -_CONSTRAINT_TOL
            and abs(w.sum() - 1.0) <= _CONSTRAINT_TOL
            and moment_gap <= _CONSTRAINT_TOL
            and z.min() >= 1.0 / n - _CONSTRAINT_TOL
        )
    if not valid:
        # An unbounded dual (weights draining away, or a constraint
        # pushed past the safeguard) certifies that 0 lies outside the
        # hull; only a stalled solve on a certified-feasible problem is
        # a genuine solver failure.
        diverged = z.min() <= 0.0 or abs((1.0 / (n * np.maximum(z, 1e-300))).sum() - 1.0) > 1e-3
        if diverged or not _interior_feasible(gmat):
            return None
        raise ELConvergenceError("dual solver failed on a feasible problem")
    return WeightedSample(
        weights=w,
        mean=mu.copy(),
        multipliers=lam / scale,  # back in the units of the raw constraints
        el_log_ratio=float(-np.log(z).sum()),
    )


def inner_el(data: np.ndarray, mu: np.ndarray, g: CovarianceGraph) -> WeightedSample | None:
    """Maximize the weight log-likelihood ratio for a fixed location.

    Returns None when the problem is infeasible: either the sample size
    does not exceed the constraint count, or zero is not interior to
    the convex hull of the per-observation constraint values.  A NaN
    or infinite cell of ``data`` raises ``ModelError`` naming it, as
    does a location that is not finite.
    """
    data = np.asarray(data, dtype=float)
    mu = np.asarray(mu, dtype=float)
    if data.ndim != 2 or data.shape[1] != g.p or mu.shape != (g.p,):
        raise ModelError("data, location, and graph dimensions disagree")
    _check_finite(data)
    if not np.all(np.isfinite(mu)):
        raise ModelError("location must be finite")
    return _solve_at(data, mu, _missing_index(g))


def _profile_hessian(
    x: np.ndarray, t: np.ndarray, w: np.ndarray, lam: np.ndarray, pairs: np.ndarray
) -> np.ndarray:
    """Exact Hessian of -el_log_ratio over the location, on standardized data.

    ``x`` is the data less its mean, in sample standard deviations, and
    ``t`` the location on that scale; ``w`` and ``lam`` are the inner
    solution's weights and its multipliers in the same units.  With
    z_i = 1 / (n w_i), the constraint rows g_i and their derivatives
    J_i in the location, the inner stationarity sum_i g_i / z_i = 0
    gives dlam/dmu = A^-1 B, where A = sum_i g_i g_i' / z_i^2 and
    B = sum_i (J_i / z_i - g_i lam'J_i / z_i^2).  The gradient is
    -n lam_mean, so the Hessian is -n times the mean rows of A^-1 B.
    """
    n, p = x.shape
    iz = n * w  # 1 / z_i
    g = _constraint_columns(x, t, pairs)
    d = g[:, :p]
    gz = g * iz[:, None]  # g_i / z_i
    a, b = pairs[:, 0], pairs[:, 1]
    # lam'J_i = -lam_mean - L d_i, with L symmetric and holding the
    # product multipliers at the missing pairs.
    prod = np.zeros((p, p))
    prod[a, b] = lam[p:]
    lj = -lam[:p] - d @ (prod + prod.T)
    # sum_i J_i / z_i: the mean rows of J_i are -I; the row of the pair
    # (a, b) is -(d_ib e_a + d_ia e_b).
    s = iz @ d
    rows = np.arange(p, p + len(pairs))
    jsum = np.zeros((p + len(pairs), p))
    jsum[:p] = -iz.sum() * np.eye(p)
    jsum[rows, a] = -s[b]
    jsum[rows, b] = -s[a]
    dlam = np.linalg.solve(gz.T @ gz, jsum - gz.T @ (lj * iz[:, None]))
    h = -n * dlam[:p]
    return (h + h.T) / 2.0


def fit_el(data: np.ndarray, g: CovarianceGraph) -> FitResult:
    """Profile the location and return weights plus the weighted covariance.

    ``data`` has one column per vertex of ``g``, in vertex order.  The
    location is measured in sample standard deviations from the sample
    mean, t, and -el_log_ratio is minimized over it by Newton steps on
    the exact profile Hessian, with the gradient taken from the inner
    multipliers.  Each step is Levenberg-Marquardt shifted: it solves
    with H + (max(0, -lambda_min(H)) + tau |H|) I, and is accepted only
    at a location that admits a weighting and passes Armijo's test;
    tau grows tenfold on a rejection and shrinks tenfold on an
    acceptance.  The search stops at a gradient of 1e-6, at 400
    accepted steps, or when a step no longer moves the location.
    Raises when the sample mean itself is infeasible, the small-sample
    failure mode of the method, and raises ``ModelError`` naming the
    first NaN or infinite cell of ``data``.

    The record's ``sigma`` is the weighted
    covariance, ``weighted`` the optimal weighting, ``iterations`` the
    accepted Newton steps and ``inner_solves`` the inner dual problems
    solved, the sample mean and rejected steps included.  ``residual``
    is the unit-free stationarity max_i n |lambda_mean,i| sd_i, with sd
    the sample standard deviations; ``detail`` is ``converged`` when it
    is at most 1e-5, else ``max-iter`` when the search used all 400
    steps, else ``stalled``.  ``estimate`` and ``loglik`` are None.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise ModelError("data must be a two-dimensional table")
    n, p = data.shape
    if p != g.p:
        raise ModelError("data and graph dimensions disagree")
    _check_finite(data)
    pairs = _missing_index(g)
    ybar = data.mean(axis=0)
    sd = data.std(axis=0)
    sd = np.where(sd > 0.0, sd, 1.0)
    best = _solve_at(data, ybar, pairs)  # solver errors here are real
    if best is None:
        raise ELInfeasibleError(
            "no feasible weights at the sample mean; sample too small for the constraint set"
        )
    x = (data - ybar) / sd
    col_scale = np.concatenate([sd, sd[pairs[:, 0]] * sd[pairs[:, 1]]])  # raw -> standardized
    t = np.zeros(p)
    solves, steps, tau = 1, 0, 1e-3
    while steps < _OUTER_MAX_ITER:
        lam = best.multipliers * col_scale
        grad = -n * lam[:p]
        if np.abs(grad).max() <= _NEWTON_GTOL:
            break
        evals, evecs = np.linalg.eigh(_profile_hessian(x, t, best.weights, lam, pairs))
        along = evecs.T @ grad
        f = -best.el_log_ratio
        ws = None
        while ws is None:
            step = -evecs @ (along / (evals + max(0.0, -evals[0]) + tau * np.abs(evals).max()))
            cand = t + step
            if np.array_equal(cand, t):
                break
            solves += 1
            try:
                ws = _solve_at(data, ybar + sd * cand, pairs)
            except ELConvergenceError:
                ws = None  # a failed solve only rules out that location
            if ws is None or -ws.el_log_ratio > f + _ARMIJO * (grad @ step):
                ws, tau = None, tau * 10.0
        if ws is None:
            break  # the shifted step no longer moves the location
        best, t, steps, tau = ws, cand, steps + 1, tau / 10.0
    stationarity = float((n * np.abs(best.multipliers[:p]) * sd).max())
    d = data - best.mean
    sigma = d.T @ (best.weights[:, None] * d)
    if stationarity <= _STATIONARY_TOL:
        detail = "converged"
    else:
        detail = "max-iter" if steps >= _OUTER_MAX_ITER else "stalled"
    return FitResult(
        method="el",
        estimate=None,
        loglik=None,
        iterations=steps,
        detail=detail,
        sigma=(sigma + sigma.T) / 2.0,
        residual=stationarity,
        inner_solves=solves,
        weighted=best,
    )
