import numpy as np
import pytest

import covgraph as cg
from covgraph.dual import (
    _block_inv, _clique_order, _cycle, _mcs_order, _steps, _targets, dual_residual, fit_dual,
    is_decomposable,
)
from covgraph.graphs import CovarianceGraph, cliques
from covgraph.icf import fit_icf
from covgraph.model import ModelError, NotPositiveDefiniteError, _inv_pd, sample_stats, stats_from_moments
from covgraph.results import FitConfig

from conftest import lattice_graph, random_graph, random_patterned_cov, random_spd
from oracles import mcs_order_scan, plain_dual_ipf, root_find_dual


def complete_graph(p):
    labels = [str(i + 1) for i in range(p)]
    return CovarianceGraph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]])


def step_out_of_place(step, target, sigma, h):
    """One clique step with H refreshed as h + w (K_CC - H_CC) w^T in a new array."""
    k_cc, k_cc_inv = target
    h_cc = h[step.cc]
    b = _block_inv(h_cc, step.eye, "clique block of the inverse iterate")
    w = h[:, step.idx] @ b
    sigma[step.cc] += k_cc_inv - b
    return h + w @ (k_cc - h_cc) @ w.T


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


class TestKeptInverse:
    """The kept inverse against the plain IPF that refactorises per clique."""

    @pytest.mark.parametrize("case", ["lattice5", "gd", "gs"])
    def test_matches_plain_ipf(self, case, yeast_stats, yeast_gd, yeast_gs):
        if case == "lattice5":
            g = lattice_graph(5)
            st = stats_from_moments(60, random_spd(25, 60, np.random.default_rng(6)))
        else:
            g = yeast_gd if case == "gd" else yeast_gs
            st = yeast_stats.aligned_to(g.vertices)
        res = fit_dual(st, g)
        sigma, cycles = plain_dual_ipf(st.s, g.adjacency, _clique_order(g, cliques(g)))
        assert res.converged
        assert res.iterations == cycles
        assert np.abs(res.sigma - sigma).max() <= 1e-12 * np.abs(sigma).max()
        if case == "lattice5":
            assert cycles > 1

    def test_in_place_refresh_matches_the_out_of_place_step_bit_for_bit(self):
        # p = 100 lattice, two cycles: every step refreshes the caller's H in
        # its own buffer to exactly the out-of-place sum
        g = lattice_graph(10)
        rng = np.random.default_rng(64)
        sigma_true = random_patterned_cov(g, rng)
        st = sample_stats(rng.standard_normal((300, g.p)) @ np.linalg.cholesky(sigma_true).T)
        k = _inv_pd(st.s, "sample covariance")
        steps = _steps(g)
        targets = _targets(k, steps)
        sigma = np.diag(1.0 / np.diag(k))
        h = _inv_pd(sigma, "dual iterate")
        for _ in range(2):
            for step, target in zip(steps, targets):
                sigma_ref = sigma.copy()
                h_ref = step_out_of_place(step, target, sigma_ref, h.copy())
                _cycle([step], [target], sigma, h)
                assert np.array_equal(sigma, sigma_ref)
                assert np.array_equal(h, h_ref)
            h = _inv_pd(sigma, "dual iterate")

    def test_iterate_leaving_the_cone_raises_typed_error(self, fig1):
        steps = _steps(fig1)
        targets = _targets(np.eye(4), steps)
        # a clique block of the kept inverse that is not positive definite
        with pytest.raises(NotPositiveDefiniteError, match="clique block"):
            _cycle(steps, targets, np.eye(4), -np.eye(4))
        # steps that pass, on an iterate that is not in the cone: the
        # refresh at the end of the cycle catches it
        with pytest.raises(NotPositiveDefiniteError, match="dual iterate"):
            _cycle(steps, targets, -np.eye(4), np.eye(4))
