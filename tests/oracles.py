"""Independent oracles used by the tests.

Everything here deliberately avoids the package's own computational
paths: brute-force loops, dense Kronecker products, finite differences,
and generic numerical optimizers.
"""

import dataclasses
import itertools

import numpy as np
import scipy.optimize

import covgraph as cg
from covgraph.graphs import free_index_set
from covgraph.model import is_pos_def, profile_loglik
from covgraph.simulate import SimEntry


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


def free_index_arrays(g):
    """Rows and columns of the free pairs, from a double loop over the adjacency.

    The diagonal comes first in vertex order, then the edges (i, j),
    i < j, in lexicographic order.
    """
    p = g.p
    pairs = [(i, i) for i in range(p)]
    pairs += [(i, j) for i in range(p) for j in range(i + 1, p) if g.adjacency[i, j]]
    return np.array(pairs, dtype=int).reshape(-1, 2).T


def expand_free(values, rows, cols, p):
    """Symmetric p x p matrix with ``values`` at (rows, cols), zero elsewhere."""
    m = np.zeros((p, p))
    m[rows, cols] = values
    m[cols, rows] = values
    return m


def pair_quadratic(u, w, pairs):
    """Free-pair quadratic form of the Kronecker product of ``u`` and ``w``.

    For symmetric u, w this is the gather/scatter evaluation of the
    duplication-map sandwich around u (x) w, a symmetric matrix indexed
    by the free pairs, from eight gathers.
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
        if all(g.adjacency[a, b] for a, b in itertools.combinations(c, 2))
    ]
    maximal = [
        c for c in complete
        if not any(set(c) < set(d) for d in complete)
    ]
    return sorted(maximal)


def cholesky_loglik(n, s, sigma):
    """The same log-likelihood from numpy's own Cholesky factor; None off the cone.

    With L the factor, log det sigma = 2 sum log L_ii and
    trace(sigma^-1 S) = sum((L^-1 S) o L^-1).
    """
    try:
        low = np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        return None
    inv_low = np.linalg.inv(low)
    logdet = 2.0 * float(np.log(np.diag(low)).sum())
    tr = float(np.sum((inv_low @ s) * inv_low))
    return -0.5 * n * (len(sigma) * np.log(2.0 * np.pi) + logdet + tr)


def penalized_neg_loglik(stats, m):
    """-cholesky_loglik at ``m``, or a flat 1e8 off the positive-definite cone."""
    value = cholesky_loglik(stats.n, stats.s, m)
    return 1e8 if value is None else -value


def brute_force_ml(stats, g, extra_starts=()):
    """Generic penalized maximizer of the likelihood over the free entries."""
    rows, cols = free_index_arrays(g)
    p = g.p

    def neg(free):
        return penalized_neg_loglik(stats, expand_free(free, rows, cols, p))

    diag = np.diag(np.diag(stats.s))
    keep = g.adjacency | np.eye(p, dtype=bool)
    proj = np.where(keep, stats.s, 0.0)
    t = 1.0
    while cholesky_loglik(stats.n, stats.s, diag + t * (proj - diag)) is None:
        t *= 0.8
    starts = [(diag + t * (proj - diag))[rows, cols], diag[rows, cols]]
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
    return -best.fun, expand_free(best.x, rows, cols, p)


def section_maximize(stats, sigma_cc, indices, n_starts=3, seed=0):
    """Numeric maximization of the likelihood over chosen free entries.

    ``indices`` selects positions of the free pairs to vary; all other
    entries stay at their current values.
    """
    g = sigma_cc.graph
    rows, cols = free_index_arrays(g)
    base = sigma_cc.sigma[rows, cols]
    idx = list(indices)

    def neg(x):
        free = base.copy()
        free[idx] = x
        return penalized_neg_loglik(stats, expand_free(free, rows, cols, g.p))

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
    return -best.fun, expand_free(free, rows, cols, g.p)


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
    rows, cols = free_index_arrays(g)
    k = np.linalg.inv(stats.s)
    target = k[rows, cols]

    def equations(free):
        m = expand_free(free, rows, cols, g.p)
        try:
            inv = np.linalg.inv(m)
        except np.linalg.LinAlgError:
            return np.full(len(free), 1e6)
        return inv[rows, cols] - target

    x0 = np.diag(np.diag(stats.s))[rows, cols]
    sol = scipy.optimize.root(equations, x0, method="hybr", tol=1e-13)
    return expand_free(sol.x, rows, cols, g.p), sol


def plain_dual_ipf(s, adjacency, cliques, tol=1e-8, max_iter=5000):
    """Dual IPF that refactorises the iterate for every clique.

    ``cliques`` are vertex-position tuples in the order they are fitted.
    Each step inverts the whole iterate by Cholesky, reads the clique
    block H_CC of that inverse and adds K_CC^-1 - H_CC^-1 to the
    iterate's block, with K the Cholesky inverse of ``s``.  A cycle ends
    the fit once max |inv(sigma)_ij - K_ij| sqrt(sigma_ii sigma_jj) over
    the diagonal and the edges is at most ``tol``.  Returns the iterate
    and the number of cycles run.
    """
    p = s.shape[0]
    eye = np.eye(p)

    def inv(m):
        x = scipy.linalg.cho_solve(scipy.linalg.cho_factor(m, lower=True), np.eye(len(m)))
        return (x + x.T) / 2.0

    k = inv(s)
    free = np.triu(np.asarray(adjacency, dtype=bool) | eye.astype(bool))
    sigma = np.diag(1.0 / np.diag(k))
    for cycle in range(1, max_iter + 1):
        for c in cliques:
            grid = np.ix_(c, c)
            h_cc = scipy.linalg.cho_solve(scipy.linalg.cho_factor(sigma, lower=True), eye[:, list(c)])[list(c), :]
            sigma[grid] += inv(k[grid]) - inv((h_cc + h_cc.T) / 2.0)
        d = np.sqrt(np.diag(sigma))
        if np.abs((inv(sigma) - k) * np.outer(d, d))[free].max() <= tol:
            break
    return sigma, cycle


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


def plain_anderson(stats, fis, iterations):
    """Anderson's iteration from the identity, a fixed number of steps.

    Each step builds its system element by element with
    ``anderson_system``, solves it with a general LU solve and writes
    the solution on the free pairs of ``fis``.  Returns the last iterate.
    """
    p = stats.s.shape[0]
    sigma = np.eye(p)
    for _ in range(iterations):
        a, b = anderson_system(sigma, stats, fis)
        free = np.linalg.solve(a, b)
        sigma = np.zeros((p, p))
        for (i, j), value in zip(fis.pairs, free):
            sigma[i, j] = sigma[j, i] = value
    return sigma


def icf_sweep(s, sigma, adjacency, blocks):
    """One sweep of conditional block refits, the rest block inverted directly.

    For each block C (a list of vertex positions) with rest R, the
    pseudo-variables are the spouse rows of inv(sigma_RR) applied to
    X_R.  The block regresses on them by generalized least squares,
    written in vectorized form: the normal matrix is
    kron(Gram, Omega) restricted to the edge coefficients, with Omega
    the inverse incoming conditional covariance of the block.  The
    block's rows and columns are then rebuilt from the coefficients
    and the refreshed residual covariance.
    """
    m = np.array(sigma, dtype=float)
    adjacency = np.asarray(adjacency, dtype=bool)
    p = m.shape[0]
    for block in blocks:
        c = sorted(block)
        r = [v for v in range(p) if v not in c]
        spo = [v for v in r if adjacency[c, v].any()]
        inv_r = np.linalg.inv(m[np.ix_(r, r)])
        pos = [r.index(v) for v in spo]
        loadings = inv_r[pos]
        cross = s[np.ix_(c, r)] @ loadings.T
        gram = loadings @ s[np.ix_(r, r)] @ loadings.T
        lam_in = m[np.ix_(c, c)] - m[np.ix_(c, r)] @ inv_r @ m[np.ix_(r, c)]
        omega = np.linalg.inv(lam_in)
        free = adjacency[np.ix_(c, spo)].flatten(order="F")
        vec = np.zeros(len(c) * len(spo))
        if free.any():
            normal = np.kron(gram, omega)[np.ix_(free, free)]
            rhs = (omega @ cross).flatten(order="F")[free]
            vec[free] = np.linalg.solve(normal, rhs)
        coef = vec.reshape((len(c), len(spo)), order="F")
        resid = s[np.ix_(c, c)] - coef @ cross.T - cross @ coef.T + coef @ gram @ coef.T
        m[c, :] = 0.0
        m[:, c] = 0.0
        m[np.ix_(c, spo)] = coef
        m[np.ix_(spo, c)] = coef.T
        m[np.ix_(c, c)] = resid + coef @ inv_r[np.ix_(pos, pos)] @ coef.T
    return m


def components_excluding(g, dropped):
    """Connected components of the graph without the ``dropped`` positions.

    Depth-first search; components are sorted index arrays, ordered by
    their smallest member.
    """
    seen = set(dropped)
    comps = []
    for start in range(g.p):
        if start in seen:
            continue
        stack, comp = [start], []
        seen.add(start)
        while stack:
            v = stack.pop()
            comp.append(v)
            for u in range(g.p):
                if g.adjacency[v, u] and u not in seen:
                    seen.add(u)
                    stack.append(u)
        comps.append(np.array(sorted(comp), dtype=int))
    return comps


def non_spouses(g, i):
    """Vertices distinct from ``i`` and not adjacent to it, in vertex order."""
    iv = g.index(i)
    return tuple(v for j, v in enumerate(g.vertices) if j != iv and not g.adjacency[iv, j])


def spouses_of_set(g, c):
    """Vertices outside ``c`` adjacent to some member of ``c``, in vertex order."""
    cidx = {g.index(v) for v in c}
    return tuple(
        v for j, v in enumerate(g.vertices)
        if j not in cidx and any(g.adjacency[i, j] for i in cidx)
    )


@dataclasses.dataclass(frozen=True)
class ConditionalParams:
    """Regression coefficients and conditional covariance of a block."""

    block: tuple
    rest: tuple
    coefficients: np.ndarray
    conditional_cov: np.ndarray


def conditional_params(sigma_cc, c):
    """Parameters of the conditional distribution of block ``c`` given the rest.

    Plain linear solve against the complementary block.
    """
    g = sigma_cc.graph
    cidx = sorted({g.index(v) for v in c})
    if not cidx or len(cidx) == g.p:
        raise cg.ModelError("block must be a nonempty proper subset of the vertices")
    rest = [j for j in range(g.p) if j not in cidx]
    m = sigma_cc.sigma
    m_cr = m[np.ix_(cidx, rest)]
    coef = np.linalg.solve(m[np.ix_(rest, rest)], m_cr.T).T
    lam = m[np.ix_(cidx, cidx)] - coef @ m_cr.T
    return ConditionalParams(
        block=tuple(g.vertices[i] for i in cidx),
        rest=tuple(g.vertices[j] for j in rest),
        coefficients=coef,
        conditional_cov=(lam + lam.T) / 2.0,
    )


def pseudo_variables_gram(stats, g, sigma_rest, i):
    """Cross moments and Gram matrix of the pseudo-variable regression of ``i``.

    ``sigma_rest`` is the fixed covariance of the other variables, in
    vertex order with ``i`` removed, and must be zero between
    non-adjacent vertices.  Only the components of the graph without
    ``i`` that hold spouses of ``i`` are inverted, so the others may be
    singular.  The pseudo-variables of an observation x are the spouse
    rows of that inverse applied to x, expressed through the empirical
    covariance.
    """
    iv = g.index(i)
    spo = [j for j in range(g.p) if g.adjacency[iv, j]]
    if not spo:
        raise cg.ModelError(f"vertex {i!r} has no spouses; the regression is empty")
    sigma_rest = np.asarray(sigma_rest, dtype=float)
    if sigma_rest.shape != (g.p - 1, g.p - 1):
        raise cg.ModelError("sigma_rest must drop exactly the chosen vertex")
    rest = [j for j in range(g.p) if j != iv]
    for a, b in itertools.combinations(range(len(rest)), 2):
        if not g.adjacency[rest[a], rest[b]] and sigma_rest[a, b] != 0.0:
            raise cg.PatternViolationError(
                f"sigma_rest entry ({g.vertices[rest[a]]}, {g.vertices[rest[b]]}) must be zero"
            )
    comps = [c for c in components_excluding(g, [iv]) if set(spo) & set(c.tolist())]
    kept = sorted(np.concatenate(comps).tolist())
    in_rest = [rest.index(j) for j in kept]
    block = sigma_rest[np.ix_(in_rest, in_rest)]
    if not is_pos_def(block):
        raise cg.ModelError("fixed covariance block is singular")
    w = np.zeros((g.p, len(spo)))
    w[kept] = np.linalg.solve(block, np.eye(len(kept))[:, [kept.index(j) for j in spo]])
    gram = w.T @ stats.s @ w
    return stats.s[iv] @ w, (gram + gram.T) / 2.0


def random_starts(g, count, seed=0, scale=0.5):
    """Random positive-definite starting values inside the pattern.

    Diagonally dominant draws: edge entries uniform, diagonal lifted
    above each row's absolute sum.
    """
    rng = np.random.default_rng(seed)
    out = []
    edges = np.triu(g.adjacency, 1)
    for _ in range(count):
        m = np.zeros((g.p, g.p))
        for i, j in zip(*np.nonzero(edges)):
            m[i, j] = m[j, i] = scale * rng.uniform(-1.0, 1.0)
        m += np.diag(rng.uniform(1.0, 2.0, g.p) + np.abs(m).sum(axis=1))
        out.append(cg.ConstrainedCovariance(g, m))
    return out


def fit_best_start(stats, g, starts, cfg=None, fitter=cg.fit_icf):
    """Run a fitter from several starting values and keep the best likelihood.

    The likelihood surface can have several local maxima; extra
    starting points are the pragmatic guard.
    """
    cfg = cfg or cg.FitConfig()
    best, best_ll = None, -np.inf
    for start in starts:
        res = fitter(stats, g, dataclasses.replace(cfg, start=start))
        ll = -np.inf if res.loglik is None else res.loglik
        if best is None or ll > best_ll:
            best, best_ll = res, ll
    if best is None:
        raise cg.ModelError("no starting values supplied")
    return best


def mcs_order_scan(adj):
    """Maximum cardinality search by a scan of the unnumbered vertices.

    Each step takes the unnumbered vertex with the most numbered
    neighbours, the smallest index among ties, by a ``min`` over the
    remaining set.
    """
    p = adj.shape[0]
    weight = np.zeros(p, dtype=int)
    order = []
    remaining = set(range(p))
    while remaining:
        v = min(remaining, key=lambda u: (-weight[u], u))
        order.append(v)
        remaining.discard(v)
        for u in np.flatnonzero(adj[v]):
            if int(u) in remaining:
                weight[int(u)] += 1
    return order


def aggregate_entry_loop(method, n, errors, labels):
    """Simulation entries of one (method, n) cell by a loop over the entries.

    ``errors`` is the (replications, p, p) error stack whose NaN rows
    mark failed replications.  For each upper-triangle entry the bias is
    the mean of its errors over the successful replications and the
    RMSE the root of their mean square, both NaN when none succeeded.
    """
    ok = ~np.isnan(errors[:, 0, 0])
    failures = int((~ok).sum())
    good = errors[ok]
    p = errors.shape[1]
    entries = []
    for i in range(p):
        for j in range(i, p):
            if good.shape[0] == 0:
                bias, rmse = float("nan"), float("nan")
            else:
                e = good[:, i, j]
                bias = float(e.mean())
                rmse = float(np.sqrt((e**2).mean()))
            entries.append(
                SimEntry(
                    method=method, n=n, i=labels[i], j=labels[j], bias=bias, rmse=rmse, failures=failures
                )
            )
    return entries


def report_table_entry_loop(spec, entries):
    """The simulation report table written entry by entry.

    Every float is written by its own ``format(x, ".17g")`` call: the
    truth matrix row by row, then one line per ``SimEntry``.
    """
    lines = [
        "# covgraph simulation report\n",
        f"# seed {spec.seed} distribution {spec.distribution}"
        + (f" df {spec.df}" if spec.distribution == "t" else "")
        + f" replications {spec.replications}\n",
        "# truth matrix (errors are measured against these values)\n",
    ]
    for row in spec.truth:
        lines.append("# " + "\t".join(format(x, ".17g") for x in row) + "\n")
    lines.append("method\tn\ti\tj\tbias\trmse\tfailures\n")
    for e in entries:
        lines.append(
            f"{e.method}\t{e.n}\t{e.i}\t{e.j}\t"
            f"{format(e.bias, '.17g')}\t{format(e.rmse, '.17g')}\t{e.failures}\n"
        )
    return "".join(lines)


def matrix_text_cell_loop(m, labels=None, digits=None):
    """Matrix text written cell by cell with ``format``, one line per row."""
    spec = ".17g" if digits is None else f".{digits}f"
    lines = [] if labels is None else ["#labels\t" + "\t".join(labels)]
    lines += ["\t".join(format(x, spec) for x in row) for row in np.asarray(m, dtype=float)]
    return "\n".join(lines) + "\n"
