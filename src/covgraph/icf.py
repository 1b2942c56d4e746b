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
recomputed at the start of each sweep by ``model._point``, whose one
factorisation also checks the iterate is in the cone and gives its
log-determinant; the log-likelihood tests, the trace and the stop
rule's residual all read that one point, so a kept point is factorised
once.  K is refreshed after every update, so an update
factorises nothing larger than its block: the inverse incoming
conditional covariance is K's block, the inverse of the fixed rest is
the Schur complement of that block in K, and two rank-|C| terms turn K
into the inverse of the refitted iterate.  An update forms only the
spouse columns of the rest inverse, and refreshes K in place by two
BLAS gemm passes, one per rank-|C| term, with the block's rows and
columns zeroed between them, so it allocates nothing p x p.  An update
of a block C with spouses S costs O(p^2 (|C| + |S|)) flops and
O(p (|C| + |S|)) new memory, instead of the O(p^3) of inverting the rest.

What an update needs from the graph alone, index grids included, is
kept in the graph's store, once per block, and the small factorisations
call LAPACK directly.  All regressions are expressed through the empirical
covariance matrix, so the sample size never enters the per-sweep cost.

A fit starts at diag(S) and, where second-order steps are cheap next
to a sweep, takes them on the free entries from its first iteration
(the hybrid of Jamshidian and Jennrich 1997): Newton's step from the
exact score and Hessian of the profile log-likelihood where the negated
Hessian factorises by Cholesky, and the Fisher-scoring step where it
does not.  A step, halved a few times at most, is kept only if it stays
in the cone without lowering the log-likelihood by more than a bound on
the rounding error of its evaluation; else a sweep cycle runs.  Sweeps
are accelerated by SQUAREM (Varadhan and Roland 2008): every two plain
sweeps of a cycle are followed by one try of a squared extrapolation of
the sweep map, kept only if it stays in the cone and does not lower the
log-likelihood.  The ascent stays positive definite and monotone up to
that rounding bound, and the stop rule only ever measures a plain sweep.
Newton and scoring steps are affine invariant, diag(S) rescales with
the data and SQUAREM measures its step on the correlation scale, so the
path does not depend on units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np
from scipy.linalg.blas import dgemm, dtrsm
from scipy.linalg.lapack import dpotrs

from .graphs import CovarianceGraph, FreeIndexSet, _kept, free_index_set
from .model import (
    ConstrainedCovariance,
    ModelError,
    NotPositiveDefiniteError,
    SampleStats,
    _cholesky,
    _curvature,
    _damped_step,
    _kernel,
    _loglik,
    _Point,
    _point,
    _stationarity,
    kron_form,
    profile_loglik,
    stationarity_residual,
)
from .results import FitConfig, FitResult, _resolve_start, _resolve_stats, stop_reason, unit_free_change

__all__ = [
    "block_update",
    "icf_update_vertex",
    "fit_icf",
]


@dataclass(frozen=True)
class _BlockPlan:
    """The graph-only part of one block update.

    ``block`` is the complete set C and ``spo`` its spouses (the
    vertices outside C adjacent to a member).  The free coefficients
    are the pairs (i in C, j in spouses) joined by an edge;
    ``free_rows`` and ``free_cols`` hold their positions inside the
    block and spouse orderings, listed column-major so they follow
    matrix vectorization order.  ``_plan`` also builds the index grids
    and the block identity; ``_plans`` keeps each plan in the graph's
    store under ``("icf", block)``, so it is built once per graph and
    block.  Everything that depends on the iterate is read from the
    maintained inverse when the update runs.
    """

    block: np.ndarray
    spo: np.ndarray
    free_rows: np.ndarray
    free_cols: np.ndarray
    cc: tuple  # np.ix_(block, block)
    row_grid: tuple  # np.ix_(free_rows, free_rows)
    col_grid: tuple  # np.ix_(free_cols, free_cols)
    eye: np.ndarray  # the |C| x |C| identity
    rowcol: np.ndarray  # flat positions of the block rows and columns of a p x p array
    source: np.ndarray  # where each of them is read from in [coef, block covariance, 0]


def _plan(g: CovarianceGraph, idx: Iterable[int]) -> _BlockPlan:
    block = np.array(sorted(idx), dtype=int)
    near = g.adjacency[block].any(axis=0)
    near[block] = False
    spo = np.flatnonzero(near)
    # The transposed grid's row-major nonzeros are the column-major ones.
    cols, rows = np.nonzero(g.adjacency[np.ix_(spo, block)])
    # The block rows of the refitted m read [coef, block covariance, 0]
    # at ``rows_from``; its block columns are their transpose.  An entry of
    # the block's own square is listed twice, once from each side, and
    # reads the symmetric block covariance at (a, b) and at (b, a).
    p, nb, ns = g.p, block.size, spo.size
    rows_from = np.full((nb, p), nb * (ns + nb))
    rows_from[:, spo] = np.arange(nb * ns).reshape(nb, ns)
    rows_from[:, block] = nb * ns + np.arange(nb * nb).reshape(nb, nb)
    every = np.arange(p)
    rowcol = np.concatenate(((block[:, None] * p + every).ravel(), (every[:, None] * p + block).ravel()))
    source = np.concatenate((rows_from.ravel(), rows_from.T.ravel()))
    return _BlockPlan(
        block, spo, rows, cols,
        np.ix_(block, block), np.ix_(rows, rows), np.ix_(cols, cols), np.eye(block.size),
        rowcol, source,
    )


def _plans(g: CovarianceGraph, blocks: Iterable[Iterable[int]]) -> list[_BlockPlan]:
    """The plans of ``blocks``, each built on first use and kept on ``g``."""
    keys = [tuple(sorted(b)) for b in blocks]
    return [_kept(g, ("icf", key), lambda: _plan(g, key)) for key in keys]


_ZERO = np.zeros(1)


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
    to the inverse of the refitted ``m``.  Both are C-contiguous, and
    each gets its block rows and columns by one flat-index write.
    """
    block, spo, rows, cols = plan.block, plan.spo, plan.free_rows, plan.free_cols
    # Weight matrix: the inverse incoming conditional covariance is K_CC.
    omega = k[plan.cc]
    low_omega = _cholesky(omega)
    if low_omega is None:
        raise ModelError("incoming conditional covariance is singular")
    # The inverse of the fixed rest block is the Schur complement K - z^T z
    # of K_CC, zero on the block rows and columns; only its spouse columns
    # W are formed.  The triangular solves call BLAS trsm: OpenBLAS runs
    # LAPACK's trtrs on its thread pool even for a 1x1 triangle, and
    # waking the pool costs more than the whole update.
    z = dtrsm(1.0, low_omega, k[block], lower=1)
    w = k[:, spo] - z.T @ z[:, spo]
    w[block] = 0.0
    # A block without spouses is a union of whole components: the
    # arrays below are empty and the residual covariance is the sample block.
    cross, gram = _pseudo_moments(s, block, w)
    coef = np.zeros((block.size, spo.size))
    if rows.size:
        low_normal = _cholesky(gram[plan.col_grid] * omega[plan.row_grid])
        if low_normal is None:
            raise ModelError("generalized least squares system is not positive definite")
        coef[rows, cols] = dpotrs(low_normal, (omega @ cross)[rows, cols], lower=1)[0]
    lam_new = s[plan.cc] - coef @ cross.T - cross @ coef.T + coef @ gram @ coef.T
    lam_new = (lam_new + lam_new.T) / 2.0
    low_lam = _cholesky(lam_new)
    if low_lam is None:
        raise ModelError("conditional covariance collapsed; sample covariance ill-conditioned")

    block_cov = lam_new + coef @ w[spo] @ coef.T
    values = np.concatenate((coef.ravel(), ((block_cov + block_cov.T) / 2.0).ravel(), _ZERO))
    assert m.flags.c_contiguous, "the flat view of m would be a copy"
    m.reshape(-1)[plan.rowcol] = values[plan.source]

    # Block inverse of the refitted m: the rest inverse plus y^T y with
    # y = lam^-1/2 E and E = [I on the block, -coef times W^T].  K is
    # refreshed in place: one dgemm takes it to the rest inverse K - z^T z,
    # whose block rows and columns are then set to their exact zeros, and
    # a second adds y^T y.  The symmetric K goes to BLAS as its F-ordered
    # transpose, and trsm returns y and z F-ordered, so nothing p x p is
    # copied.
    e = -coef @ w.T
    e[:, block] = plan.eye
    y = dtrsm(1.0, low_lam, e, lower=1)
    kt = dgemm(-1.0, z, z, 1.0, k.T, trans_a=1, overwrite_c=1)
    k.reshape(-1)[plan.rowcol] = 0.0
    kt = dgemm(1.0, y, y, 1.0, kt, trans_a=1, overwrite_c=1)
    assert np.may_share_memory(kt, k), "dgemm copied K instead of updating it"


def block_update(
    stats: SampleStats, sigma: ConstrainedCovariance, c: Iterable[str]
) -> ConstrainedCovariance:
    """Refit the rows and columns of a complete set with the rest fixed."""
    g = sigma.graph
    cidx = sorted({g.index(v) for v in c})
    if not cidx:
        raise ModelError("block must be nonempty")
    if g.adjacency[np.ix_(cidx, cidx)].sum() != len(cidx) * (len(cidx) - 1):
        raise ModelError(f"block {tuple(g.vertices[i] for i in cidx)} is not complete")
    s = stats.aligned_to(g.vertices).s
    m = np.array(sigma.sigma)
    _update(s, m, _point(m, "iterate").inv, _plans(g, [cidx])[0])
    return ConstrainedCovariance(g, m)


def icf_update_vertex(
    stats: SampleStats, sigma: ConstrainedCovariance, i: str
) -> ConstrainedCovariance:
    """One conditional refit of vertex ``i`` with the rest held fixed.

    Returns the unique maximizer of the log-likelihood over the section
    where everything but row and column ``i`` is frozen.
    """
    return block_update(stats, sigma, (i,))


def _sweep(s: np.ndarray, plans: list[_BlockPlan], x: _Point) -> _Point:
    """One plain sweep of block updates from ``x``; uses up ``x.inv``."""
    m = x.sigma.copy()
    for plan in plans:
        _update(s, m, x.inv, plan)
    return _point(m, "iterate")


def _squarem(s: np.ndarray, x0: _Point, x1: _Point, x2: _Point) -> tuple[_Point, bool]:
    """The start of the next cycle after the sweeps x1 = F(x0), x2 = F(x1).

    With r = x1 - x0 and v = x2 - 2 x1 + x0, the step length is
    alpha = -max(1, |r| / |v|) and the candidate x0 - 2 alpha r +
    alpha^2 v.  The norms are Frobenius norms on the correlation scale
    of S, entry (i, j) weighted by 1 / sqrt(S_ii S_jj), so alpha does
    not depend on units.  The candidate is tried once and kept only if
    it is in the cone and its log-likelihood is at least that of x2;
    otherwise x2 is kept.  Returns the kept point and whether a tried
    candidate was rejected.  At alpha = -1 the candidate is x2 itself,
    and a zero |v| or a non-finite alpha gives no step, so none is tried.
    """
    w = 1.0 / np.sqrt(np.diag(s))
    w = np.outer(w, w)
    r = x1.sigma - x0.sigma
    v = x2.sigma - x1.sigma - r
    norm_v = float(np.linalg.norm(v * w))
    if norm_v == 0.0:
        return x2, False
    alpha = -float(np.linalg.norm(r * w)) / norm_v
    if not -np.inf < alpha < -1.0:
        return x2, False
    try:
        trial = _point(x0.sigma - 2.0 * alpha * r + alpha * alpha * v, "iterate")
    except NotPositiveDefiniteError:
        return x2, True
    if _kernel(s, trial) >= _kernel(s, x2):
        return trial, False
    return x2, True


# Newton or scoring steps are tried when m^3, for m free entries, is at
# most this many times the p^2 (|C| + |S|) summed over the blocks of one sweep.
_NEWTON_GATE = 15.0
# A Newton or scoring step is tried at most this often, halved between tries.
_TRIES = 5


def _newton(s: np.ndarray, fis: FreeIndexSet, x: _Point) -> tuple[_Point, bool] | None:
    """A Newton or Fisher-scoring step on the free entries from ``x``, or None if it is refused.

    ``model._damped_step`` solves -H d = g, g the score and H the Hessian
    of the profile log-likelihood at ``x``, or the scoring step
    ``kron_form(K)`` d = g where -H does not factorise, and keeps the
    first try whose kernel is not below that of ``x`` by more than 8 eps
    (p + |trace(sigma^-1 S)|), a bound on the rounding error of its
    change, read off the ratios of the Cholesky pivots and the change of
    the inverse: unlike that of two kernels, it does not grow with the
    units of S.  A kept step comes with whether it raised the kernel by
    more than that bound.  ``x.inv`` is left as it was.
    """
    k = x.inv
    t = k @ s @ k
    slack = 8.0 * np.finfo(float).eps * (len(s) + abs(float(np.vdot(k, s))))

    def gain(y: _Point) -> float:
        return -2.0 * float(np.log(y.pivots / x.pivots).sum()) - float(np.vdot(y.inv - k, s))

    forms = (lambda: _curvature(k, t, fis), lambda: kron_form(k, fis))
    kept = _damped_step(x, forms, fis.adjoint_vec(t - k), fis, _TRIES, lambda y, *_: gain(y) >= -slack)
    return None if isinstance(kept, str) else (kept, gain(kept) > slack)


def _sweep_fit(
    stats: SampleStats,
    g: CovarianceGraph,
    cfg: FitConfig,
    blocks: Iterable[Iterable[int]],
    method: str,
) -> FitResult:
    """Cycle block updates over ``blocks`` (vertex positions) to convergence.

    The fit starts at diag(S) unless ``cfg.start`` says otherwise, and
    from its first iteration tries a Newton or Fisher-scoring step on
    the free entries (``_newton``), as in the EM-then-Newton hybrid of
    Jamshidian and Jennrich (1997, JRSS B 59).  Steps go on while their
    unit-free change is at least ``tol``, and a shorter one is followed
    by a plain sweep, from whose result a step is tried again.  A
    refused step, and a kept one that raised the kernel by no more than
    its rounding bound, fall back to a cycle of two plain sweeps and one try
    of ``_squarem``, the squared extrapolation of the sweep map F
    (Varadhan and Roland 2008, Scand. J. Statist. 35), after which a
    step is tried again.  Every kept point is in the cone, and never
    below the one before in log-likelihood by more than that bound, so
    the ascent is monotone up to rounding, and its off-pattern
    entries are exactly zero.

    Newton and scoring steps cost O(m^3) in the m = p + |E| free
    entries, and a sweep O(p^2 (|C| + |S|)) summed over its blocks.
    They are tried only when m^3 is at most ``_NEWTON_GATE`` times that
    sum; otherwise the fit is the plain SQUAREM-accelerated ascent.

    ``stop_reason`` only ever measures a plain sweep, F(x) against x,
    never an extrapolation jump or a Newton or scoring step, so a fit it stops
    ends on a sweep, which keeps the sample block of a block without
    spouses exactly.  ``iterations``, ``max_iter`` and the trace
    count plain sweeps and Newton or scoring steps, and
    ``newton_steps`` the latter; ``detail`` is ``max-iter`` after
    ``max_iter`` iterations.
    Each kept point is factorised once, for the cone check, the next
    step's inverse, the log-likelihood tests, the trace entry and the
    stop rule's residual.
    """
    stats = _resolve_stats(stats, g)
    s = stats.s
    plans = _plans(g, blocks)
    fis = free_index_set(g)
    sweep_cost = sum(plan.block.size + plan.spo.size for plan in plans) * g.p**2
    use_newton = len(fis) ** 3 <= _NEWTON_GATE * sweep_cost
    cur = _point(np.array(_resolve_start(g, cfg, np.diag(np.diag(s))).sigma), "iterate")
    trace: list[float] = []
    detail = residual = None
    it = rejected = newton = 0
    cycle_start = None
    judge = False  # the last step was short, for a plain sweep to judge
    flat = False  # the last step gained no more than rounding, so a sweep cycle follows
    for it in range(1, cfg.max_iter + 1):
        if use_newton and cycle_start is None and not (judge or flat):
            kept = _newton(s, fis, cur)
            if kept is not None:
                step, gained = kept
                flat = not gained
                judge = gained and unit_free_change(step.sigma, cur.sigma) < cfg.tol
                cur, residual = step, None
                newton += 1
                if cfg.record_trace:
                    trace.append(_loglik(stats, cur))
                continue
        judged, judge, flat = judge, False, False
        prev, cur = cur, _sweep(s, plans, cur)
        if cfg.record_trace:
            trace.append(_loglik(stats, cur))
        detail, residual = stop_reason(cur.sigma, prev.sigma, lambda: _stationarity(s, cur, g), cfg.tol)
        if detail:
            break
        if judged:
            continue
        if cycle_start is None:
            cycle_start = prev
        elif it < cfg.max_iter:
            cur, missed = _squarem(s, cycle_start, prev, cur)
            rejected += missed
            cycle_start = None
    estimate = ConstrainedCovariance(g, cur.sigma)
    return FitResult(
        method=method,
        estimate=estimate,
        loglik=profile_loglik(stats, estimate),
        iterations=it,
        detail=detail or "max-iter",
        sigma=estimate.sigma,
        trace=tuple(trace) if cfg.record_trace else None,
        residual=stationarity_residual(stats, estimate) if residual is None else residual,
        rejected_extrapolations=rejected,
        newton_steps=newton,
    )


def fit_icf(stats: SampleStats, g: CovarianceGraph, cfg: FitConfig | None = None) -> FitResult:
    """Fit the constrained covariance by cycling vertexwise updates."""
    return _sweep_fit(stats, g, cfg or FitConfig(), [[v] for v in range(g.p)], "ml-icf")

