import tracemalloc

import numpy as np
import pytest

import covgraph as cg
from covgraph.dual import _clique_order, _mcs_order, dual_residual, fit_dual, is_decomposable
from covgraph.graphs import CovarianceGraph, cliques, free_index_set, graph_from_matrix
from covgraph.icf import fit_icf
from covgraph.io import load_graph
from covgraph.model import ModelError, NotPositiveDefiniteError, kron_form, sample_stats, stats_from_moments
from covgraph.results import FitConfig

from conftest import DATA, lattice_graph, random_graph, random_patterned_cov, random_spd
from oracles import mcs_order_scan, plain_dual_ipf, root_find_dual


def complete_graph(p):
    labels = [str(i + 1) for i in range(p)]
    return CovarianceGraph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]])


def corr_matrix(m):
    sd = np.sqrt(np.diag(m))
    return m / np.outer(sd, sd)


class TestMcsOrder:
    """The heap search against the scan that takes a min over the remaining set."""

    @pytest.mark.parametrize("seed", range(20))
    def test_matches_scan_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(int(rng.integers(1, 30)), rng, edge_prob=float(rng.uniform(0.0, 0.9)))
        assert _mcs_order(g.adjacency) == mcs_order_scan(g.adjacency)

    def test_matches_scan_on_lattice(self):
        adj = lattice_graph(10).adjacency
        assert _mcs_order(adj) == mcs_order_scan(adj)


class TestDecomposability:
    def test_chain_is_decomposable(self):
        g = CovarianceGraph(["1", "2", "3"], [("1", "2"), ("2", "3")])
        assert is_decomposable(g)

    def test_four_cycle_is_not(self):
        g = CovarianceGraph(
            ["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")]
        )
        assert not is_decomposable(g)

    def test_fig1_tree_is_decomposable(self, fig1):
        assert is_decomposable(fig1)


class TestFitDual:
    def test_complete_graph_returns_sample_cov(self):
        rng = np.random.default_rng(0)
        g = complete_graph(3)
        s = random_spd(3, 30, rng)
        st = stats_from_moments(30, s)
        res = fit_dual(st, g)
        assert res.converged
        assert np.abs(res.sigma - s).max() < 1e-10

    def test_p2_no_edge_closed_form(self):
        # matching the inverse on the diagonal forces (1 - r^2) I,
        # unlike the likelihood fit which keeps the sample variances
        r = 0.6
        g = CovarianceGraph(["a", "b"])
        s = np.array([[1.0, r], [r, 1.0]])
        st = stats_from_moments(40, s)
        res = fit_dual(st, g)
        assert np.abs(res.sigma - (1 - r**2) * np.eye(2)).max() < 1e-12
        ml = fit_icf(st, g)
        assert np.abs(ml.sigma - np.eye(2)).max() < 1e-12

    def test_decomposable_chain_single_pass_matches_root_finder(self):
        rng = np.random.default_rng(1)
        g = CovarianceGraph(["1", "2", "3"], [("1", "2"), ("2", "3")])
        s = random_spd(3, 50, rng)
        st = stats_from_moments(50, s)
        res = fit_dual(st, g)
        assert res.converged
        assert res.iterations == 1
        assert is_decomposable(g)
        oracle, sol = root_find_dual(st, g)
        assert sol.success
        assert np.abs(res.sigma - oracle).max() < 1e-8

    def test_non_decomposable_cycle_converges(self):
        rng = np.random.default_rng(2)
        g = CovarianceGraph(
            ["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")]
        )
        s = random_spd(4, 60, rng)
        st = stats_from_moments(60, s)
        cfg = FitConfig(tol=1e-10)
        res = fit_dual(st, g, cfg)
        assert res.converged
        assert res.residual <= cfg.tol
        oracle, sol = root_find_dual(st, g)
        if sol.success:
            assert np.abs(res.sigma - oracle).max() < 1e-6

    def test_residual_definition(self, fig1):
        rng = np.random.default_rng(3)
        st = stats_from_moments(50, random_spd(4, 50, rng))
        res = fit_dual(st, fig1)
        assert res.residual == pytest.approx(dual_residual(st, res.sigma, fig1))
        assert res.residual <= 1e-8

    def test_zero_pattern_exact(self, fig1):
        rng = np.random.default_rng(4)
        st = stats_from_moments(50, random_spd(4, 50, rng))
        res = fit_dual(st, fig1)
        off = ~fig1.adjacency & ~np.eye(4, dtype=bool)
        assert np.all(res.sigma[off] == 0.0)

    def test_uniqueness_under_relabeling(self):
        # a different vertex order changes the clique processing order;
        # the fitted matrix must agree after undoing the permutation
        rng = np.random.default_rng(5)
        g1 = CovarianceGraph(
            ["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")]
        )
        s = random_spd(4, 60, rng)
        st1 = stats_from_moments(60, s)
        perm = [2, 3, 1, 0]
        g2 = CovarianceGraph(
            [g1.vertices[i] for i in perm], [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")]
        )
        st2 = stats_from_moments(60, s[np.ix_(perm, perm)])
        r1 = fit_dual(st1, g1, FitConfig(tol=1e-12))
        r2 = fit_dual(st2, g2, FitConfig(tol=1e-12))
        back = np.empty_like(r2.sigma)
        for a in range(4):
            for b in range(4):
                back[perm[a], perm[b]] = r2.sigma[a, b]
        assert np.abs(r1.sigma - back).max() < 1e-8

    def test_yeast_dual_closer_to_ml_under_denser_graph(self, yeast_stats, yeast_gd, yeast_gs):
        gaps = {}
        for name, g in (("gd", yeast_gd), ("gs", yeast_gs)):
            st = yeast_stats.aligned_to(g.vertices)
            ml = corr_matrix(fit_icf(st, g).sigma)
            du = corr_matrix(fit_dual(st, g).sigma)
            gaps[name] = np.abs(ml - du).max()
        assert gaps["gd"] < gaps["gs"]

    def test_yeast_likelihood_gap_near_published_values(self, yeast_stats, yeast_gd, yeast_gs):
        # published (doubled-scale) likelihood gaps between the ML and
        # dual fits: 4.29 for the sparser graph shrinking to 0.51 for
        # the denser one; rounded inputs reproduce them within 0.5
        for g, published in ((yeast_gs, 4.29), (yeast_gd, 0.51)):
            st = yeast_stats.aligned_to(g.vertices)
            gap = 2.0 * (fit_icf(st, g).loglik - fit_dual(st, g).loglik)
            assert gap > 0
            assert abs(gap - published) < 0.5

    def test_refuses_singular_sample(self, fig1):
        ones = np.ones((4, 4))
        st = stats_from_moments(8, ones)
        with pytest.raises(ModelError, match="positive definite"):
            fit_dual(st, fig1)

    def test_start_rejected(self, fig1):
        st = stats_from_moments(40, random_spd(4, 40, np.random.default_rng(3)))
        with pytest.raises(ModelError, match="no starting value"):
            fit_dual(st, fig1, FitConfig(start=np.eye(4)))

    def test_ill_conditioned_decomposable_converges_in_one_pass(self):
        # cond(S) = 2.5e6: the fit solves the problem in one pass, and its
        # residual must be read against the same Cholesky inverse of S
        # that it matched, not an LU inverse rounded differently
        rng = np.random.default_rng(25)
        p = int(rng.integers(4, 40))
        dens = rng.uniform(0.05, 0.5)
        labels = [str(i) for i in range(p)]
        edges = [(labels[i], labels[j]) for i in range(p) for j in range(i + 1, p) if rng.random() < dens]
        n = p + int(rng.integers(5, 200))
        x = rng.standard_normal((n, p)) @ rng.standard_normal((p, p))
        st = stats_from_moments(n, np.cov(x, rowvar=False, bias=True))
        g = CovarianceGraph(labels, edges)
        assert p == 22 and is_decomposable(g)
        res = fit_dual(st, g)
        assert res.converged
        assert res.iterations == 1
        assert res.residual == dual_residual(st, res.sigma, g)


def chordal_completion(g):
    """The graph with the fill-in of eliminating its vertices in index order: decomposable."""
    adj = g.adjacency.copy()
    for v in range(g.p):
        later = np.flatnonzero(adj[v, v + 1:]) + v + 1
        adj[np.ix_(later, later)] = True
    np.fill_diagonal(adj, False)
    return graph_from_matrix(adj.astype(float), g.vertices)


def separators(g):
    """Each clique's intersection with the cliques before it in ``_clique_order``."""
    seps, seen = [], set()
    for c in _clique_order(g, cliques(g)):
        seps.append(seen.intersection(c))
        seen.update(c)
    return seps[1:]


def closed_form_case(case):
    """A decomposable graph and a sample: yeast gs, three components, or a random chordal graph."""
    if case == "gs":
        from covgraph.io import load_stats

        g = load_graph(DATA / "gs.graph")
        return load_stats(DATA / "table1.stats").aligned_to(g.vertices), g
    rng = np.random.default_rng(case if case != "components" else 99)
    if case == "components":  # a path, an edge and an isolated vertex
        g = CovarianceGraph(list("abcdef"), [("a", "b"), ("b", "c"), ("d", "e")])
    else:
        p = int(rng.integers(2, 20))
        g = chordal_completion(random_graph(p, rng, edge_prob=float(rng.uniform(0.0, 0.5))))
    n = g.p + int(rng.integers(5, 60))
    return sample_stats(rng.standard_normal((n, g.p)) @ np.linalg.cholesky(random_patterned_cov(g, rng)).T), g


class TestClosedForm:
    """The closed form over cliques and separators against the independent oracles."""

    CASES = ["gs", "components", *range(16)]

    @pytest.mark.parametrize("case", CASES)
    def test_matches_plain_ipf_and_root_finder(self, case):
        st, g = closed_form_case(case)
        assert is_decomposable(g)
        res = fit_dual(st, g)
        assert res.converged and res.iterations == 1
        assert res.residual == dual_residual(st, res.sigma, g)
        sigma, _ = plain_dual_ipf(st.s, g.adjacency, _clique_order(g, cliques(g)), tol=1e-12)
        assert np.abs(res.sigma - sigma).max() <= 1e-12 * np.abs(sigma).max()
        oracle, sol = root_find_dual(st, g)
        if sol.success:
            assert np.abs(res.sigma - oracle).max() <= 1e-8 * np.abs(oracle).max()

    def test_cases_cover_empty_and_wide_separators(self):
        # empty separators join components; gs has a separator of two vertices
        graphs = {case: closed_form_case(case)[1] for case in self.CASES}
        sizes = {case: [len(sep) for sep in separators(g)] for case, g in graphs.items()}
        assert max(sizes["gs"]) >= 2
        assert 0 in sizes["components"]
        random = [case for case in self.CASES if isinstance(case, int)]
        assert any(0 in sizes[case] for case in random)
        assert any(max(sizes[case], default=0) >= 2 for case in random)
        assert any((~graphs[case].adjacency.any(axis=1)).any() for case in random)


def ill_conditioned_case(seed):
    """A random graph and a sample of a few more rows than variables, with correlated columns."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(4, 12))
    labels = [str(i) for i in range(p)]
    edges = [(labels[i], labels[j]) for i in range(p) for j in range(i + 1, p) if rng.random() < 0.4]
    n = p + int(rng.integers(2, 20))
    x = rng.standard_normal((n, p)) @ rng.standard_normal((p, p))
    return stats_from_moments(n, np.cov(x, rowvar=False, bias=True)), CovarianceGraph(labels, edges)


class TestNewton:
    """Damped Newton steps on graphs that are not decomposable."""

    def test_ill_conditioned_graph_converges(self):
        # iterative proportional fitting (plain_dual_ipf) ends here after
        # 5000 cycles with a residual of 9.9e-4
        st, g = ill_conditioned_case(134)
        assert (g.p, st.n) == (10, 29) and not is_decomposable(g)
        res = fit_dual(st, g)
        assert res.converged
        assert res.iterations < 50
        assert res.residual == dual_residual(st, res.sigma, g)
        # the defining equations, read with LU inverses
        free = g.adjacency | np.eye(g.p, dtype=bool)
        d = np.sqrt(np.diag(res.sigma))
        gap = (np.linalg.inv(res.sigma) - np.linalg.inv(st.s)) * np.outer(d, d)
        assert np.abs(gap[free]).max() <= 1e-7
        oracle, sol = root_find_dual(st, g)
        if sol.success:
            assert np.abs(res.sigma - oracle).max() <= 1e-6 * np.abs(oracle).max()

    def test_one_step_is_not_converged(self):
        g = lattice_graph(5)
        st = stats_from_moments(60, random_spd(25, 60, np.random.default_rng(6)))
        res = fit_dual(st, g, FitConfig(max_iter=1))
        assert res.detail == "max-iter" and not res.converged
        assert res.iterations == 1
        assert res.residual == dual_residual(st, res.sigma, g)

    def test_one_step_is_the_full_newton_step(self):
        # from the diagonal concentration of S, the step solves
        # kron_form(H) d = adjoint(H - S^-1), H the inverse of the start
        g = lattice_graph(5)
        st = stats_from_moments(60, random_spd(25, 60, np.random.default_rng(6)))
        fis = free_index_set(g)
        k = np.linalg.inv(st.s)
        h = np.diag(np.diag(k))
        step = fis.expand(np.linalg.solve(kron_form(h, fis), fis.adjoint_vec(h - k)))
        want = np.linalg.inv(h) + step
        res = fit_dual(st, g, FitConfig(max_iter=1))
        assert res.iterations == 1
        assert np.abs(res.sigma - want).max() <= 1e-15 * np.abs(want).max()

    def test_step_keeps_one_free_pair_array(self):
        # the form is factorised in place: the peak of a warm fit stays
        # below 4 m x m arrays of doubles, where a copy for the factor reads 4.73
        g = lattice_graph(10)
        rng = np.random.default_rng(0)
        st = sample_stats(rng.standard_normal((300, g.p)) @ np.linalg.cholesky(random_patterned_cov(g, rng)).T)
        m = len(free_index_set(g))
        fit_dual(st, g)  # the graph's store is filled by the first fit
        tracemalloc.start()
        try:
            res = fit_dual(st, g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.converged and res.iterations > 1
        assert peak < 4 * m * m * 8

    @staticmethod
    def reject_off_diagonal(monkeypatch):
        # a cone check that refuses every step's candidate with an edge
        # entry, so the diagonal start passes and no step can
        import covgraph.model as model

        point = model._point

        def refusing(a, what):
            if what == "iterate" and np.any(a != np.diag(np.diag(a))):
                raise NotPositiveDefiniteError(f"{what} is not positive definite")
            return point(a, what)

        monkeypatch.setattr(model, "_point", refusing)

    def test_line_search_without_descent_stalls(self, monkeypatch, yeast_stats, yeast_gd):
        self.reject_off_diagonal(monkeypatch)
        st = yeast_stats.aligned_to(yeast_gd.vertices)
        res = fit_dual(st, yeast_gd)
        assert res.detail == "stalled" and not res.converged
        assert res.iterations == 0
        assert np.array_equal(res.sigma, np.diag(np.diag(res.sigma)))

    def test_stalled_fit_counts_as_a_simulation_failure(self, monkeypatch):
        self.reject_off_diagonal(monkeypatch)
        cycle = CovarianceGraph(["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4"), ("1", "4")])
        sigma = np.eye(4) + 0.2 * cycle.adjacency
        spec = cg.SimSpec(sigma_true=sigma, sample_sizes=(30,), replications=2, seed=5, methods=("dual",))
        rep = cg.run_simulation(spec, graph=cycle)
        assert rep.failure_reasons[("dual", 30)] == ["stalled", "stalled"]
        assert rep.cells[("dual", 30)][2] == 2

    def test_system_that_does_not_factorise_is_typed(self, monkeypatch, yeast_stats, yeast_gd):
        import covgraph.dual as dual

        monkeypatch.setattr(dual, "kron_form", lambda k, fis: -np.eye(len(fis)))
        res = fit_dual(yeast_stats.aligned_to(yeast_gd.vertices), yeast_gd)
        assert res.detail == "singular-system" and not res.converged
        assert res.iterations == 0

    def test_fresh_graph_builds_no_cliques(self, monkeypatch, yeast_stats):
        import covgraph.graphs as graphs

        found = []
        search = graphs._maximal_cliques
        monkeypatch.setattr(graphs, "_maximal_cliques", lambda g: found.append(g) or search(g))
        g = load_graph(DATA / "gd.graph")
        assert fit_dual(yeast_stats.aligned_to(g.vertices), g).converged
        assert found == []

    def test_decomposable_pass_factorises_no_candidate(self, monkeypatch, yeast_stats, yeast_gs):
        # the inverse the pass returns feeds the stop rule as it is
        import covgraph.dual as dual
        import covgraph.model as model

        calls = []
        point = model._point
        for module in (dual, model):  # the fit's own points, and a Newton step's candidates
            monkeypatch.setattr(module, "_point", lambda a, what: calls.append(what) or point(a, what))
        res = fit_dual(yeast_stats.aligned_to(yeast_gs.vertices), yeast_gs)
        assert res.converged and res.iterations == 1
        assert calls.count("dual iterate") == 1  # the closed form's sum
        assert "iterate" not in calls  # and no candidate


class TestKeptInverse:
    """The fit, and the inverse it keeps for its stop rule, against the plain IPF and the cone check."""

    @pytest.mark.parametrize("case", ["lattice5", "gd", "gs"])
    def test_matches_plain_ipf(self, case, yeast_stats, yeast_gd, yeast_gs):
        # gs is decomposable and takes the closed form; the other two take
        # Newton steps, so only the estimate is compared there
        if case == "lattice5":
            g = lattice_graph(5)
            st = stats_from_moments(60, random_spd(25, 60, np.random.default_rng(6)))
        else:
            g = yeast_gd if case == "gd" else yeast_gs
            st = yeast_stats.aligned_to(g.vertices)
        res = fit_dual(st, g, FitConfig(tol=1e-12))
        sigma, cycles = plain_dual_ipf(st.s, g.adjacency, _clique_order(g, cliques(g)), tol=1e-12)
        assert res.converged
        assert is_decomposable(g) == (case == "gs")
        if case == "gs":
            assert res.iterations == cycles
        assert np.abs(res.sigma - sigma).max() <= 1e-12 * np.abs(sigma).max()
        if case == "lattice5":
            assert cycles > 1

    def test_iterate_leaving_the_cone_raises_typed_error(self, monkeypatch, fig1):
        import covgraph.dual as dual

        st = stats_from_moments(50, random_spd(4, 50, np.random.default_rng(4)))
        point = dual._point
        block = "inverse sample covariance block"
        # a block of K that does not factorise
        monkeypatch.setattr(dual, "_point", lambda a, what: point(-a if what == block else a, what))
        with pytest.raises(NotPositiveDefiniteError, match=block):
            fit_dual(st, fig1)
        monkeypatch.undo()
        # blocks that factorise but sum to a matrix outside the cone: the one
        # factorisation of the sum catches it
        def negated(a, what):
            x = point(a, what)
            return x._replace(inv=-x.inv) if what == block else x

        monkeypatch.setattr(dual, "_point", negated)
        with pytest.raises(NotPositiveDefiniteError, match="dual iterate"):
            fit_dual(st, fig1)
