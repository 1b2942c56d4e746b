"""Independent oracles used by the tests.

Everything here deliberately avoids the package's own computational
paths: brute-force loops, dense Kronecker products, finite differences,
and generic numerical optimizers.
"""

import itertools

import numpy as np
import scipy.optimize

import covgraph as cg
from covgraph.graphs import free_index_set
from covgraph.model import is_pos_def, profile_loglik


def cov_double_loop(data):
    """Textbook double-loop covariance with divisor n."""
    data = np.asarray(data, dtype=float)
    n, p = data.shape
    mean = [sum(data[:, j]) / n for j in range(p)]
    s = np.zeros((p, p))
    for a in range(p):
        for b in range(p):
            s[a, b] = sum((data[k, a] - mean[a]) * (data[k, b] - mean[b]) for k in range(n)) / n
    return np.array(mean), s


def loglik_direct(n, s, sigma):
    """Scalar-formula evaluation through eigenvalues and explicit inverse."""
    sigma = np.asarray(sigma, dtype=float)
    p = sigma.shape[0]
    eig = np.linalg.eigvalsh(sigma)
    logdet = float(np.sum(np.log(eig)))
    tr = float(np.trace(np.linalg.inv(sigma) @ s))
    return -0.5 * n * (p * np.log(2.0 * np.pi) + logdet + tr)


def dense_duplication(g):
    """Dense 0/1 map from free entries to the vectorized matrix."""
    pairs = free_index_set(g).pairs
    p = g.p
    q = np.zeros((p * p, len(pairs)))
    for col, (i, j) in enumerate(pairs):
        q[j * p + i, col] = 1.0
        if i != j:
            q[i * p + j, col] = 1.0
    return q


def dense_score(stats, sigma_cc):
    q = dense_duplication(sigma_cc.graph)
    k = np.linalg.inv(sigma_cc.sigma)
    m = k @ stats.s @ k - k
    return 0.5 * stats.n * q.T @ m.flatten(order="F")


def dense_fisher(sigma_cc, n):
    q = dense_duplication(sigma_cc.graph)
    k = np.linalg.inv(sigma_cc.sigma)
    return 0.5 * n * q.T @ np.kron(k, k) @ q


def dense_hessian(stats, sigma_cc):
    q = dense_duplication(sigma_cc.graph)
    k = np.linalg.inv(sigma_cc.sigma)
    t = k @ stats.s @ k
    inner = np.kron(k, k) - np.kron(t, k) - np.kron(k, t)
    return 0.5 * stats.n * q.T @ inner @ q


def perturb_pair(sigma, i, j, h):
    m = np.array(sigma, dtype=float)
    m[i, j] += h
    if i != j:
        m[j, i] += h
    return m


def fd_score(stats, sigma_cc, h=1e-6):
    """Central finite differences of the profile log-likelihood."""
    pairs = free_index_set(sigma_cc.graph).pairs
    out = np.empty(len(pairs))
    for a, (i, j) in enumerate(pairs):
        up = profile_loglik(stats, perturb_pair(sigma_cc.sigma, i, j, h))
        dn = profile_loglik(stats, perturb_pair(sigma_cc.sigma, i, j, -h))
        out[a] = (up - dn) / (2.0 * h)
    return out


def fd_hessian(stats, sigma_cc, h=1e-6):
    """Central finite differences of the score."""
    g = sigma_cc.graph
    pairs = free_index_set(g).pairs
    out = np.empty((len(pairs), len(pairs)))
    for b, (i, j) in enumerate(pairs):
        up = cg.score(stats, cg.ConstrainedCovariance(g, perturb_pair(sigma_cc.sigma, i, j, h)))
        dn = cg.score(stats, cg.ConstrainedCovariance(g, perturb_pair(sigma_cc.sigma, i, j, -h)))
        out[:, b] = (up - dn) / (2.0 * h)
    return (out + out.T) / 2.0


def brute_force_cliques(g):
    """Maximal complete sets by subset enumeration (p <= 8)."""
    p = g.p
    complete = [
        c
        for r in range(1, p + 1)
        for c in itertools.combinations(range(p), r)
        if g.is_complete(c)
    ]
    maximal = [
        c for c in complete
        if not any(set(c) < set(d) for d in complete)
    ]
    return sorted(maximal)


def brute_force_ml(stats, g, extra_starts=()):
    """Generic penalized maximizer of the likelihood over the free entries."""
    dup = cg.DuplicationMap.from_graph(g)
    p = g.p

    def neg(free):
        m = dup.expand(free, p)
        if not is_pos_def(m):
            return 1e8
        return -profile_loglik(stats, m)

    diag = np.diag(np.diag(stats.s))
    keep = g.adjacency | np.eye(p, dtype=bool)
    proj = np.where(keep, stats.s, 0.0)
    t = 1.0
    while not is_pos_def(diag + t * (proj - diag)):
        t *= 0.8
    starts = [dup.restrict(diag + t * (proj - diag)), dup.restrict(diag)]
    starts.extend(np.asarray(s, dtype=float) for s in extra_starts)
    best = None
    for s0 in starts:
        res = scipy.optimize.minimize(
            neg, s0, method="Nelder-Mead",
            options={"maxiter": 100000, "maxfev": 100000, "xatol": 1e-11, "fatol": 1e-13},
        )
        res = scipy.optimize.minimize(
            neg, res.x, method="Nelder-Mead",
            options={"maxiter": 100000, "maxfev": 100000, "xatol": 1e-11, "fatol": 1e-13},
        )
        if best is None or res.fun < best.fun:
            best = res
    return -best.fun, dup.expand(best.x, p)


def section_maximize(stats, sigma_cc, indices, n_starts=3, seed=0):
    """Numeric maximization of the likelihood over chosen free entries.

    ``indices`` selects positions of the free pairs to vary; all other
    entries stay at their current values.
    """
    g = sigma_cc.graph
    dup = cg.DuplicationMap.from_graph(g)
    base = dup.restrict(sigma_cc.sigma)
    idx = list(indices)

    def neg(x):
        free = base.copy()
        free[idx] = x
        m = dup.expand(free, g.p)
        if not is_pos_def(m):
            return 1e8
        return -profile_loglik(stats, m)

    rng = np.random.default_rng(seed)
    best = None
    for k in range(n_starts):
        x0 = base[idx] * (1.0 + 0.1 * k) + 0.05 * k * rng.standard_normal(len(idx))
        res = scipy.optimize.minimize(
            neg, x0, method="Nelder-Mead",
            options={"maxiter": 50000, "maxfev": 50000, "xatol": 1e-12, "fatol": 1e-14},
        )
        if best is None or res.fun < best.fun:
            best = res
    free = base.copy()
    free[idx] = best.x
    return -best.fun, dup.expand(free, g.p)


def primal_el(data, mu, pairs):
    """Interior-point solve of the weight problem in the primal.

    Starts from a strictly feasible point found by a phase-1 linear
    program, and only accepts solutions whose constraint violation is
    negligible.
    """
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    d = data - np.asarray(mu, dtype=float)
    cols = [d] + [(d[:, i] * d[:, j])[:, None] for i, j in pairs]
    gmat = np.hstack(cols)
    m = gmat.shape[1]

    # phase 1: maximize the smallest weight subject to the constraints
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_eq = np.zeros((m + 1, n + 1))
    a_eq[:m, :n] = gmat.T
    a_eq[m, :n] = 1.0
    b_eq = np.zeros(m + 1)
    b_eq[m] = 1.0
    a_ub = np.hstack([-np.eye(n), np.ones((n, 1))])
    lp = scipy.optimize.linprog(
        c, A_ub=a_ub, b_ub=np.zeros(n), A_eq=a_eq, b_eq=b_eq,
        bounds=[(0.0, 1.0)] * n + [(-1.0, 1.0)], method="highs",
    )
    if not lp.success or lp.x[-1] <= 0:
        raise RuntimeError("primal oracle: no strictly feasible point")
    w0 = np.maximum(lp.x[:n], 1e-12)
    w0 = w0 / w0.sum()

    def neg(w):
        return -np.sum(np.log(np.maximum(n * w, 1e-300)))

    def grad(w):
        return -1.0 / np.maximum(w, 1e-300)

    def hess(w):
        return np.diag(1.0 / np.maximum(w, 1e-300) ** 2)

    constraints = [
        scipy.optimize.LinearConstraint(np.ones((1, n)), 1.0, 1.0),
        scipy.optimize.LinearConstraint(gmat.T, 0.0, 0.0),
    ]
    # blend the phase-1 vertex toward uniform to stay safely interior
    starts = (0.5 * w0 + 0.5 / n, np.full(n, 1.0 / n), w0)
    best = None
    for start in starts:
        try:
            res = scipy.optimize.minimize(
                neg,
                start,
                jac=grad,
                hess=hess,
                method="trust-constr",
                bounds=scipy.optimize.Bounds(1e-12, 1.0),
                constraints=constraints,
                options={"gtol": 1e-12, "xtol": 1e-14, "maxiter": 5000},
            )
        except (ValueError, np.linalg.LinAlgError):
            continue
        w = res.x
        feasible = (
            w.min() > 0
            and abs(w.sum() - 1.0) <= 1e-8
            and np.abs(w @ gmat).max() <= 1e-8
        )
        if feasible and (best is None or res.fun < best[0]):
            best = (res.fun, w)
    if best is None:
        raise RuntimeError("primal oracle: optimizer returned no feasible point")
    return -best[0], best[1]


def root_find_dual(stats, g):
    """Generic nonlinear root of the dual equations over the free entries."""
    dup = cg.DuplicationMap.from_graph(g)
    k = np.linalg.inv(stats.s)
    target = dup.restrict(k)

    def equations(free):
        m = dup.expand(free, g.p)
        try:
            inv = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            return np.full(len(free), 1e6)
        return dup.restrict(inv) - target

    x0 = dup.restrict(np.diag(np.diag(stats.s)))
    sol = scipy.optimize.root(equations, x0, method="hybr", tol=1e-13)
    return dup.expand(sol.x, g.p), sol


class SingularSystemError(cg.ModelError):
    """The linear system of one Anderson iteration could not be solved."""


def anderson_system(sigma, stats, fis):
    """Coefficient matrix and right-hand side of one Anderson iteration.

    Element-by-element double loop.  With k the inverse of ``sigma``,
    the row for pair (i, j) has entries k_ik k_jk at column (k, k) and
    k_ik k_jl + k_jk k_il at column (k, l), k != l; the right-hand side
    is the (i, j) entry of k S k.  A patterned matrix solves this
    system at its own free vector exactly when it solves the likelihood
    equations.
    """
    sigma = np.asarray(sigma, dtype=float)
    try:
        k = np.linalg.inv(sigma)
    except np.linalg.LinAlgError:
        raise SingularSystemError("iterate is singular") from None
    if not np.all(np.isfinite(k)):
        raise SingularSystemError("iterate inverse overflowed")
    pairs = fis.pairs
    m = len(pairs)
    a = np.empty((m, m))
    for col, (kk, ll) in enumerate(pairs):
        if kk == ll:
            for row, (i, j) in enumerate(pairs):
                a[row, col] = k[i, kk] * k[j, kk]
        else:
            for row, (i, j) in enumerate(pairs):
                a[row, col] = k[i, kk] * k[j, ll] + k[j, kk] * k[i, ll]
    t = k @ stats.s @ k
    b = np.array([t[i, j] for i, j in pairs])
    return a, b
