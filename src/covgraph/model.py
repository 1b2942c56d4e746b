"""Numerical core of the Gaussian covariance graph model.

Everything here is a pure function of sample moments and a patterned
covariance matrix: profile log-likelihood, score, Hessian, Fisher
information, stationarity residual of the likelihood equations, and
deviance against the saturated model.  Whatever is indexed by the free
entries reads them through the graph's one ``FreeIndexSet``.  Every
fitter factorises a matrix by ``_point``, once for its cone check,
inverse and log-determinant, and builds a free-pair form by
``_pair_form``, as ``kron_form`` or as the negated Hessian ``_curvature``,
and ICF and the dual take their second-order steps by ``_damped_step``.
The log-likelihood and deviance read ``_kernel`` off a point and the
stationarity residual ``_stationarity``, so a kept point is factorised once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Sequence

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from .graphs import CovarianceGraph, FreeIndexSet, free_index_set, label_order

__all__ = [
    "ModelError",
    "NotPositiveDefiniteError",
    "PatternViolationError",
    "SampleStats",
    "ConstrainedCovariance",
    "is_pos_def",
    "sample_stats",
    "stats_from_moments",
    "profile_loglik",
    "score",
    "fisher_information",
    "hessian",
    "stationarity_residual",
    "deviance",
    "kron_form",
]

# Relative pivot tolerance for positive-definiteness checks.
PD_REL_TOL = 1e-12


class ModelError(ValueError):
    """Bad numerical input to a model operation."""


class NotPositiveDefiniteError(ModelError):
    """A matrix required to be positive definite is not."""


class PatternViolationError(ModelError):
    """A matrix has a nonzero entry where the graph prescribes zero."""


def is_pos_def(a: np.ndarray) -> bool:
    """Positive definiteness via Cholesky with a relative pivot floor.

    Accepts iff ``a`` is square, nonempty and finite, the factorization exists
    and every pivot exceeds ``PD_REL_TOL`` times its own diagonal entry of
    ``a``.  A pivot over its diagonal entry is one minus the squared
    multiple correlation on the earlier variables, so the verdict does
    not depend on units.
    """
    try:
        _chol(a)
    except NotPositiveDefiniteError:
        return False
    return True


def _cholesky(a: np.ndarray) -> np.ndarray | None:
    """Lower Cholesky factor of ``a``, or None if LAPACK finds it not positive definite.

    The plain LAPACK call skips scipy's argument checks, which cost
    more than the factorisation of a small block.
    """
    low, info = dpotrf(a, lower=1)
    return None if info else low


def _chol(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    """Lower Cholesky factor of ``a``, which must pass ``is_pos_def``.

    One factorisation serves the check and the caller; raises
    ``NotPositiveDefiniteError`` naming ``what`` otherwise.
    """
    a = np.asarray(a, dtype=float)
    if a.ndim == 2 and a.shape[0] == a.shape[1] > 0 and np.isfinite(a).all():
        low = _cholesky(a)
        if low is not None and (low.diagonal() ** 2 > PD_REL_TOL * a.diagonal()).all():
            return low
    raise NotPositiveDefiniteError(f"{what} is not positive definite")


def _check_sample_size(n: int) -> None:
    if n < 2:
        raise ModelError(f"need at least 2 observations, got {n}")


def _check_finite(data: np.ndarray) -> None:
    """Raise ``ModelError`` naming the first NaN or infinite cell of a data table."""
    if not np.all(np.isfinite(data)):
        bad = np.argwhere(~np.isfinite(data))[0]
        raise ModelError(f"non-numeric cell at row {bad[0] + 1}, column {bad[1] + 1}")


class _Point(NamedTuple):
    """A positive-definite matrix with its symmetrised inverse, log-determinant and Cholesky pivots."""

    sigma: np.ndarray
    inv: np.ndarray
    logdet: float
    pivots: np.ndarray  # the diagonal of its Cholesky factor


def _point(a: np.ndarray, what: str) -> _Point:
    """Factorise ``a`` once; ``NotPositiveDefiniteError`` naming ``what`` unless it passes ``is_pos_def``."""
    return _factored(a, _chol(a, what))


def _factored(a: np.ndarray, low: np.ndarray) -> _Point:
    """The point of ``a`` read off ``low``, its lower Cholesky factor from ``_chol``."""
    inv, _ = dpotrs(low, np.eye(len(a)), lower=1)
    pivots = low.diagonal().copy()
    return _Point(a, (inv + inv.T) / 2.0, 2.0 * float(np.log(pivots).sum()), pivots)


def _kernel(s: np.ndarray, x: _Point) -> float:
    """The log-likelihood kernel -log det sigma - trace(sigma^-1 S) of ``x``; reads ``x.inv``."""
    return -x.logdet - float(np.vdot(x.inv, s))


@dataclass(frozen=True)
class SampleStats:
    """Sample size, mean vector, and empirical covariance (divisor n).

    The sample size must be at least 2, whether the moments come from
    raw data or from a moment file.
    """

    n: int
    mean: np.ndarray
    s: np.ndarray
    labels: tuple[str, ...] | None = None
    s_pos_def: bool = field(init=False)

    def __post_init__(self):
        _check_sample_size(self.n)
        mean = np.asarray(self.mean, dtype=float)
        s = np.asarray(self.s, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1] or mean.shape != (s.shape[0],):
            raise ModelError("mean and covariance dimensions do not match")
        if not np.allclose(s, s.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(s).max())):
            raise ModelError("sample covariance must be symmetric")
        s = (s + s.T) / 2.0
        if self.labels is not None and len(self.labels) != s.shape[0]:
            raise ModelError("label count does not match dimension")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "s", s)
        object.__setattr__(self, "s_pos_def", is_pos_def(s))

    @property
    def p(self) -> int:
        return self.s.shape[0]

    def aligned_to(self, labels: Sequence[str]) -> "SampleStats":
        """The variables in ``labels`` order, matched by ``label_order``; ``self`` if already so."""
        labels = tuple(labels)
        if self.labels == labels or (self.labels is None and self.p == len(labels)):
            return self
        perm = label_order(labels, self.labels, self.p, "stats")
        return SampleStats(n=self.n, mean=self.mean[perm], s=self.s[np.ix_(perm, perm)], labels=labels)


def sample_stats(data: np.ndarray, labels: Sequence[str] | None = None) -> SampleStats:
    """Column means and empirical covariance with divisor n.

    Requires at least two rows and a fully numeric table, read row-major
    so that its memory layout cannot change the last bits.
    """
    arr = np.ascontiguousarray(data, dtype=float)
    if arr.ndim != 2:
        raise ModelError("data must be a two-dimensional table")
    _check_sample_size(arr.shape[0])  # before numpy averages an empty table
    _check_finite(arr)
    mean = arr.mean(axis=0)
    centered = arr - mean
    s = centered.T @ centered / arr.shape[0]
    return SampleStats(n=arr.shape[0], mean=mean, s=s, labels=tuple(labels) if labels else None)


def stats_from_moments(
    n: int,
    s: np.ndarray,
    mean: np.ndarray | None = None,
    labels: Sequence[str] | None = None,
) -> SampleStats:
    s = np.asarray(s, dtype=float)
    if mean is None:
        mean = np.zeros(s.shape[0])
    return SampleStats(n=int(n), mean=np.asarray(mean, dtype=float), s=s, labels=tuple(labels) if labels else None)


@dataclass(frozen=True)
class ConstrainedCovariance:
    """Symmetric positive-definite matrix lying in the graph's zero pattern.

    Off-pattern entries must be exactly zero, not merely small.
    """

    graph: CovarianceGraph
    sigma: np.ndarray

    def __post_init__(self):
        m = np.array(self.sigma, dtype=float)  # a copy: the caller's array stays writeable
        p = self.graph.p
        if m.shape != (p, p):
            raise ModelError(f"matrix shape {m.shape} does not match graph with {p} vertices")
        if not np.array_equal(m, m.T):
            if np.abs(m - m.T).max() > 1e-12 * max(1.0, np.abs(m).max()):
                raise ModelError("matrix is not symmetric")
            m = (m + m.T) / 2.0
        off = ~self.graph.adjacency & ~np.eye(p, dtype=bool)
        if np.any(m[off] != 0.0):
            i, j = np.argwhere(off & (m != 0.0))[0]
            raise PatternViolationError(
                "nonzeros outside the graph's edges: "
                f"entry ({self.graph.vertices[i]}, {self.graph.vertices[j]}) must be zero"
            )
        if not is_pos_def(m):
            raise NotPositiveDefiniteError("constrained covariance is not positive definite")
        m.setflags(write=False)
        object.__setattr__(self, "sigma", m)

    @property
    def p(self) -> int:
        return self.graph.p

    @classmethod
    def identity(cls, graph: CovarianceGraph) -> "ConstrainedCovariance":
        return cls(graph, np.eye(graph.p))


def _as_matrix(sigma: ConstrainedCovariance | np.ndarray) -> np.ndarray:
    if isinstance(sigma, ConstrainedCovariance):
        return sigma.sigma
    return np.asarray(sigma, dtype=float)


def kron_form(k: np.ndarray, fis: FreeIndexSet) -> np.ndarray:
    """Free-pair form (A o C + B o B^T) o (d d^T) / 2 of any square ``k``, as ``_pair_form(k, k)``.

    A, B and C are k[ii, ii], k[ii, jj] and k[jj, jj] over the pair rows ii and columns
    jj; for a symmetric k it is the duplication-map sandwich around k (x) k.
    """
    return _pair_form(k, k, fis)


def profile_loglik(stats: SampleStats, sigma: ConstrainedCovariance | np.ndarray) -> float:
    """Gaussian profile log-likelihood of the covariance matrix, as ``_loglik`` reads it.

    Labelled stats are read in the graph's vertex order when ``sigma``
    carries its graph, and in their own order otherwise.
    """
    if isinstance(sigma, ConstrainedCovariance):
        stats = stats.aligned_to(sigma.graph.vertices)
    return _loglik(stats, _point(_as_matrix(sigma), "covariance"))


def _loglik(stats: SampleStats, x: _Point) -> float:
    """-(n / 2) (p log(2 pi) + log det sigma + trace(sigma^-1 S)) at ``x``, by ``_kernel``."""
    return -0.5 * stats.n * (stats.p * np.log(2.0 * np.pi) - _kernel(stats.s, x))


def score(stats: SampleStats, sigma: ConstrainedCovariance) -> np.ndarray:
    """Gradient of the profile log-likelihood over the free entries."""
    stats = stats.aligned_to(sigma.graph.vertices)
    k = _point(sigma.sigma, "covariance").inv
    m = k @ stats.s @ k - k
    return 0.5 * stats.n * free_index_set(sigma.graph).adjoint_vec(m)


def fisher_information(sigma: ConstrainedCovariance, n: int) -> np.ndarray:
    """Expected negated Hessian over the free entries; symmetric PD."""
    k = _point(sigma.sigma, "covariance").inv
    return 0.5 * n * kron_form(k, free_index_set(sigma.graph))


def hessian(stats: SampleStats, sigma: ConstrainedCovariance) -> np.ndarray:
    """Second derivative of the profile log-likelihood over the free entries.

    The negation of (n / 2) ``_curvature(K, T)``, K = sigma^-1 and
    T = K S K symmetrised, so the result is exactly symmetric.
    """
    stats = stats.aligned_to(sigma.graph.vertices)
    k = _point(sigma.sigma, "covariance").inv
    t = k @ stats.s @ k
    return -0.5 * stats.n * _curvature(k, (t + t.T) / 2.0, free_index_set(sigma.graph))


def _curvature(k: np.ndarray, t: np.ndarray, fis: FreeIndexSet) -> np.ndarray:
    """The negated Hessian over the free entries in units of n / 2, at K = sigma^-1 and T = K S K.

    The Hessian is (n / 2) (B(K, K) - 2 B(K, T)), B the form of
    ``_pair_form``, so the negation is (n / 2) B(K, 2T - K).
    """
    return _pair_form(k, 2.0 * t - k, fis)


def _pair_form(x: np.ndarray, y: np.ndarray, fis: FreeIndexSet) -> np.ndarray:
    """B(X, Y), the free-pair form of (X (x) Y + Y (x) X) / 2, built by blocks into one m x m array.

    For symmetric X and Y the entry of the pairs (i, j) and (k, l) is
    d_ij d_kl / 4 times (X_ik Y_jl + Y_ik X_jl) + (X_il Y_kj + X_kj Y_il),
    d the edge doubling, as the edge pairs take it; the diagonal pairs
    take (Y o X^T + Y o X) / 2 and the mixed blocks Y_ri X_rj + X_ir Y_rj
    and X_ir Y_jr + Y_ir X_rj, so X = Y gives ``kron_form``'s bits for
    any square X.  Spent gathers hold the later products.
    """
    p, ii, jj = fis.p, fis.rows[fis.p:], fis.cols[fis.p:]
    out = np.empty((len(fis), len(fis)))
    dd, de, ed, ee = out[:p, :p], out[:p, p:], out[p:, :p], out[p:, p:]
    np.add(y * x.T, y * x, out=dd)
    dd *= 0.5
    x_i, y_j = x.take(ii, axis=1), y.take(jj, axis=1)  # X_ri and Y_rj
    y_i, x_j = y.take(ii, axis=1), x.take(jj, axis=1)
    # Row gathers are freed once used: six p x |E| gathers freed with the edge-pair
    # products would let the allocator trim the heap and fault it in again per build.
    np.multiply(y_i, x_j, out=de)
    de += (x.take(ii, axis=0) * y_j.T).T
    np.multiply(x.take(ii, axis=0), y.take(jj, axis=0), out=ed)
    ed += y.take(ii, axis=0) * x_j.T
    a, b = x_i.take(ii, axis=0), y_j.take(jj, axis=0)  # X_ik and Y_jl over the edge pairs
    np.multiply(a, b, out=ee)
    np.take(y_i, ii, axis=0, out=a, mode="clip")  # "raise" would copy through a buffer
    np.take(x_j, jj, axis=0, out=b, mode="clip")
    a *= b
    ee += a
    np.take(x_j, ii, axis=0, out=a, mode="clip")  # X_il
    np.take(y_j, ii, axis=0, out=b, mode="clip")  # Y_il, whose transpose is Y_kj
    a *= b.T
    np.add(a, a.T, out=b)
    ee += b
    return out


def _damped_step(x: _Point, forms: Sequence[Callable[[], np.ndarray]], rhs: np.ndarray, fis: FreeIndexSet,
                 tries: int, accept: Callable[[_Point, float, float], bool]) -> _Point | str:
    """The first of x + t d, t = 1, 1/2, ... over ``tries`` tries, in the cone and kept by ``accept``.

    d solves F d = ``rhs`` for the first form F that ``forms`` build
    whose upper triangle factorises, in place, by Cholesky; ``accept``
    gets the candidate, t and the decrement rhs . d.  Returns
    ``singular-system`` if no form factorises, ``stalled`` if no try is kept.
    """
    for form in forms:
        low, info = dpotrf(form().T, lower=1, overwrite_a=1)
        if not info:
            break
    else:
        return "singular-system"
    d = dpotrs(low, rhs, lower=1)[0]
    decrement = float(rhs @ d)
    step = fis.expand(d)
    t = 1.0
    for _ in range(tries):
        try:
            trial = _point(x.sigma + t * step, "iterate")
        except NotPositiveDefiniteError:
            pass  # outside the cone
        else:
            if accept(trial, t, decrement):
                return trial
        t *= 0.5
    return "stalled"


def unit_free_gap(gap: np.ndarray, sigma: np.ndarray, g: CovarianceGraph) -> float:
    """Max |d_i gap_ij d_j| over the free entries, d = sqrt(diag(sigma))."""
    fis = free_index_set(g)
    d = np.sqrt(np.diag(sigma))
    return float(np.abs(gap[fis.rows, fis.cols] * (d[fis.rows] * d[fis.cols])).max())


def stationarity_residual(stats: SampleStats, sigma: ConstrainedCovariance) -> float:
    """Max defect K - K S K of the likelihood equations, K = sigma^-1, unit-free.

    Scaled by ``unit_free_gap``.  Zero exactly when sigma is a stationary
    point of the profile log-likelihood within the pattern.
    """
    stats = stats.aligned_to(sigma.graph.vertices)
    return _stationarity(stats.s, _point(sigma.sigma, "covariance"), sigma.graph)


def _stationarity(s: np.ndarray, x: _Point, g: CovarianceGraph) -> float:
    """``unit_free_gap`` of K - K S K at ``x``, K = ``x.inv``."""
    k = x.inv
    return unit_free_gap(k - k @ s @ k, x.sigma, g)


def deviance(
    stats: SampleStats,
    sigma: ConstrainedCovariance | np.ndarray,
    graph: CovarianceGraph | None = None,
) -> tuple[float, int]:
    """Deviance against the saturated model, with its degrees of freedom.

    n times the ``_kernel`` of S less that of sigma, which is
    n (log det(sigma) - log det(S) + trace(sigma^-1 S) - p); the
    degrees of freedom count the constrained entries, p(p+1)/2 minus
    the number of free pairs, p plus the edge count.
    """
    if graph is None:
        if not isinstance(sigma, ConstrainedCovariance):
            raise ModelError("deviance needs a graph when sigma is a plain matrix")
        graph = sigma.graph
    stats = stats.aligned_to(graph.vertices)
    saturated = _kernel(stats.s, _point(stats.s, "sample covariance"))
    dev = stats.n * (saturated - _kernel(stats.s, _point(_as_matrix(sigma), "covariance")))
    df = stats.p * (stats.p + 1) // 2 - (graph.p + graph.n_edges)
    return float(dev), int(df)
