"""Numerical core of the Gaussian covariance graph model.

Everything here is a pure function of sample moments and a patterned
covariance matrix: profile log-likelihood, score, Hessian, Fisher
information, stationarity residual of the likelihood equations, and
deviance against the saturated model.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .graphs import CovarianceGraph, FreeIndexSet, free_index_set

__all__ = [
    "ModelError",
    "NotPositiveDefiniteError",
    "PatternViolationError",
    "SampleStats",
    "ConstrainedCovariance",
    "DuplicationMap",
    "is_pos_def",
    "sample_stats",
    "stats_from_moments",
    "profile_loglik",
    "score",
    "fisher_information",
    "hessian",
    "stationarity_residual",
    "deviance",
    "pair_quadratic",
]

# Relative pivot tolerance for positive-definiteness checks.
PD_REL_TOL = 1e-12


class ModelError(ValueError):
    """Bad numerical input to a model operation."""


class NotPositiveDefiniteError(ModelError):
    """A matrix required to be positive definite is not."""


class PatternViolationError(ModelError):
    """A matrix has a nonzero entry where the graph prescribes zero."""


def is_pos_def(a: np.ndarray, rel_tol: float = PD_REL_TOL) -> bool:
    """Positive definiteness via Cholesky with a relative pivot floor.

    Accepts iff the factorization exists and every pivot exceeds
    ``rel_tol`` times its own diagonal entry of ``a``.  A pivot over its
    diagonal entry is one minus the squared multiple correlation on the
    earlier variables, so the verdict does not depend on units.
    """
    a = np.asarray(a, dtype=float)
    if a.size == 0 or not np.all(np.isfinite(a)):
        return False
    try:
        low = np.linalg.cholesky(a)
    except np.linalg.LinAlgError:
        return False
    pivots = np.diag(low) ** 2
    return bool(np.all(pivots > rel_tol * a.diagonal()))


def _chol(a: np.ndarray, what: str = "matrix"):
    if not is_pos_def(a):
        raise NotPositiveDefiniteError(f"{what} is not positive definite")
    return cho_factor(a, lower=True)


def _inv_pd(a: np.ndarray, what: str = "matrix") -> np.ndarray:
    c = _chol(a, what)
    inv = cho_solve(c, np.eye(a.shape[0]))
    return (inv + inv.T) / 2.0


@dataclass(frozen=True)
class SampleStats:
    """Sample size, mean vector, and empirical covariance (divisor n)."""

    n: int
    mean: np.ndarray
    s: np.ndarray
    labels: tuple[str, ...] | None = None
    s_pos_def: bool = field(init=False)

    def __post_init__(self):
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
        """Reorder variables to match ``labels``; requires own labels."""
        if self.labels is None:
            raise ModelError("stats carry no labels to align by")
        if tuple(labels) == self.labels:
            return self
        try:
            perm = [self.labels.index(lab) for lab in labels]
        except ValueError as exc:
            raise ModelError(f"cannot align stats: {exc}") from None
        if len(perm) != self.p:
            raise ModelError("label sets differ, cannot align stats")
        return SampleStats(
            n=self.n,
            mean=self.mean[perm],
            s=self.s[np.ix_(perm, perm)],
            labels=tuple(labels),
        )


def sample_stats(data: np.ndarray, labels: Sequence[str] | None = None) -> SampleStats:
    """Column means and empirical covariance with divisor n.

    Requires at least two rows and a fully numeric table.
    """
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 2:
        raise ModelError("data must be a two-dimensional table")
    if arr.shape[0] < 2:
        raise ModelError(f"need at least 2 observations, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        bad = np.argwhere(~np.isfinite(arr))[0]
        raise ModelError(f"non-numeric cell at row {bad[0] + 1}, column {bad[1] + 1}")
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
        m = np.asarray(self.sigma, dtype=float)
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

    @classmethod
    def from_matrix(cls, graph: CovarianceGraph, m: np.ndarray, project: bool = False) -> "ConstrainedCovariance":
        """Wrap ``m``; with ``project=True`` off-pattern entries are zeroed first."""
        m = np.array(m, dtype=float)
        if project:
            keep = graph.adjacency | np.eye(graph.p, dtype=bool)
            m = np.where(keep, (m + m.T) / 2.0, 0.0)
        return cls(graph, m)


def _as_matrix(sigma: ConstrainedCovariance | np.ndarray) -> np.ndarray:
    if isinstance(sigma, ConstrainedCovariance):
        return sigma.sigma
    return np.asarray(sigma, dtype=float)


def _effective_n(n: int, n_adjust: bool) -> int:
    return n - 1 if n_adjust else n


class DuplicationMap:
    """Index map between a patterned symmetric matrix and its free entries.

    Plays the role of the 0/1 matrix sending the free-entry vector to
    the vectorized matrix; it is applied by gather/scatter, never
    materialized densely.
    """

    def __init__(self, fis: FreeIndexSet):
        self.pairs = fis.pairs
        self._rows = np.array([i for i, _ in fis.pairs])
        self._cols = np.array([j for _, j in fis.pairs])
        self._mult = np.where(self._rows == self._cols, 1.0, 2.0)

    @classmethod
    def from_graph(cls, g: CovarianceGraph) -> "DuplicationMap":
        return cls(free_index_set(g))

    def __len__(self) -> int:
        return len(self.pairs)

    def expand(self, values: np.ndarray, p: int) -> np.ndarray:
        """Symmetric p x p matrix with ``values`` on the free entries."""
        out = np.zeros((p, p))
        out[self._rows, self._cols] = values
        out[self._cols, self._rows] = values
        return out

    def restrict(self, m: np.ndarray) -> np.ndarray:
        """Free entries of a symmetric matrix, in pair order."""
        return np.asarray(m)[self._rows, self._cols]

    def adjoint_vec(self, m: np.ndarray) -> np.ndarray:
        """Adjoint applied to a vectorized symmetric matrix: doubles edges."""
        return self._mult * np.asarray(m)[self._rows, self._cols]


def pair_quadratic(u: np.ndarray, w: np.ndarray, pairs: Sequence[tuple[int, int]]) -> np.ndarray:
    """Free-pair quadratic form of the Kronecker product of ``u`` and ``w``.

    For symmetric u, w this is the gather/scatter evaluation of the
    duplication-map sandwich around u (x) w, a symmetric matrix indexed
    by the free pairs.
    """
    ii = np.array([i for i, _ in pairs])
    jj = np.array([j for _, j in pairs])
    g4 = (
        u[np.ix_(ii, ii)] * w[np.ix_(jj, jj)]
        + u[np.ix_(ii, jj)] * w[np.ix_(jj, ii)]
        + u[np.ix_(jj, ii)] * w[np.ix_(ii, jj)]
        + u[np.ix_(jj, jj)] * w[np.ix_(ii, ii)]
    )
    d = np.where(ii == jj, 2.0, 1.0)
    return g4 / np.outer(d, d)


def profile_loglik(
    stats: SampleStats,
    sigma: ConstrainedCovariance | np.ndarray,
    n_adjust: bool = False,
) -> float:
    """Gaussian profile log-likelihood of the covariance matrix.

    Equals -(n p / 2) log(2 pi) - (n / 2) log det(sigma)
    - (n / 2) trace(sigma^-1 S), with n replaced by n - 1 when
    ``n_adjust`` is set.
    """
    m = _as_matrix(sigma)
    n = _effective_n(stats.n, n_adjust)
    c = _chol(m, "covariance")
    logdet = 2.0 * np.log(np.diag(c[0])).sum()
    tr = float(np.trace(cho_solve(c, stats.s)))
    return -0.5 * n * (stats.p * np.log(2.0 * np.pi) + logdet + tr)


def score(stats: SampleStats, sigma: ConstrainedCovariance, n_adjust: bool = False) -> np.ndarray:
    """Gradient of the profile log-likelihood over the free entries."""
    k = _inv_pd(sigma.sigma, "covariance")
    m = k @ stats.s @ k - k
    dup = DuplicationMap.from_graph(sigma.graph)
    n = _effective_n(stats.n, n_adjust)
    return 0.5 * n * dup.adjoint_vec(m)


def fisher_information(sigma: ConstrainedCovariance, n: int) -> np.ndarray:
    """Expected negated Hessian over the free entries; symmetric PD."""
    k = _inv_pd(sigma.sigma, "covariance")
    pairs = free_index_set(sigma.graph).pairs
    return 0.5 * n * pair_quadratic(k, k, pairs)


def hessian(stats: SampleStats, sigma: ConstrainedCovariance, n_adjust: bool = False) -> np.ndarray:
    """Second derivative of the profile log-likelihood over the free entries."""
    k = _inv_pd(sigma.sigma, "covariance")
    t = k @ stats.s @ k
    pairs = free_index_set(sigma.graph).pairs
    n = _effective_n(stats.n, n_adjust)
    return 0.5 * n * (pair_quadratic(k, k, pairs) - pair_quadratic(k, t, pairs) - pair_quadratic(t, k, pairs))


def unit_free_gap(gap: np.ndarray, sigma: np.ndarray, g: CovarianceGraph) -> float:
    """Max |d_i gap_ij d_j| over the free entries, d = sqrt(diag(sigma))."""
    d = np.sqrt(np.diag(sigma))
    free = np.triu(g.adjacency | np.eye(g.p, dtype=bool))
    return float(np.abs(gap * np.outer(d, d))[free].max())


def stationarity_residual(stats: SampleStats, sigma: ConstrainedCovariance) -> float:
    """Max defect K - K S K of the likelihood equations, K = sigma^-1, unit-free.

    Scaled by ``unit_free_gap``.  Zero exactly when sigma is a stationary
    point of the profile log-likelihood within the pattern.
    """
    k = _inv_pd(sigma.sigma, "covariance")
    return unit_free_gap(k - k @ stats.s @ k, sigma.sigma, sigma.graph)


def deviance(
    stats: SampleStats,
    sigma: ConstrainedCovariance | np.ndarray,
    graph: CovarianceGraph | None = None,
    n_adjust: bool = False,
) -> tuple[float, int]:
    """Deviance against the saturated model, with its degrees of freedom.

    Uses n (log det(sigma) - log det(S) + trace(sigma^-1 S) - p); the
    degrees of freedom count the constrained entries, p(p+1)/2 minus
    the number of free pairs.
    """
    if graph is None:
        if not isinstance(sigma, ConstrainedCovariance):
            raise ModelError("deviance needs a graph when sigma is a plain matrix")
        graph = sigma.graph
    m = _as_matrix(sigma)
    if not stats.s_pos_def:
        raise NotPositiveDefiniteError("sample covariance is not positive definite")
    c_m = _chol(m, "covariance")
    logdet_m = 2.0 * np.log(np.diag(c_m[0])).sum()
    logdet_s = 2.0 * np.log(np.diag(_chol(stats.s, "sample covariance")[0])).sum()
    tr = float(np.trace(cho_solve(c_m, stats.s)))
    n = _effective_n(stats.n, n_adjust)
    dev = n * (logdet_m - logdet_s + tr - stats.p)
    df = stats.p * (stats.p + 1) // 2 - len(free_index_set(graph))
    return float(dev), int(df)
