import numpy as np
import pytest

import covgraph as cg
from covgraph.graphs import CovarianceGraph, cliques
from covgraph.icf import _plan, fit_icf, icf_update_vertex
from covgraph.icf_multi import block_update, fit_icf_multi
from covgraph.model import (
    ConstrainedCovariance,
    ModelError,
    profile_loglik,
    stats_from_moments,
)
from covgraph.results import FitConfig

from conftest import SIGMA_CHAIN, random_graph, random_patterned_cov, random_spd
from oracles import conditional_params, expand_free, free_index_arrays, section_maximize, spouses_of_set
from covgraph.graphs import free_index_set


class TestBlockSelector:
    def test_positions_follow_edges(self, fig1):
        plan = _plan(fig1, [fig1.index("3"), fig1.index("4")])
        assert plan.spo.tolist() == [fig1.index("1"), fig1.index("2")]
        # only 3-1 and 4-2 are edges
        got = set(zip(plan.free_rows.tolist(), plan.free_cols.tolist()))
        assert got == {(0, 0), (1, 1)}
        assert plan.free_rows.size == plan.free_cols.size == 2

    @pytest.mark.parametrize("seed", range(5))
    def test_column_major_order_matches_loop(self, seed):
        # the order of the free coefficients is the order of the normal equations
        rng = np.random.default_rng(seed)
        g = random_graph(9, rng, edge_prob=0.4)
        for c in cliques(g):
            plan = _plan(g, [g.index(v) for v in c])
            loop = [(a, b) for b, j in enumerate(plan.spo) for a, i in enumerate(plan.block) if g.adjacency[i, j]]
            assert list(zip(plan.free_rows.tolist(), plan.free_cols.tolist())) == loop
            assert plan.spo.tolist() == [g.index(v) for v in spouses_of_set(g, c)]


class TestBlockUpdate:
    @pytest.mark.parametrize("seed", range(6))
    def test_singleton_block_equals_vertex_update(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(5, rng, edge_prob=0.5)
        st = stats_from_moments(40, random_spd(5, 60, rng))
        start = ConstrainedCovariance(g, random_patterned_cov(g, rng))
        for v in g.vertices:
            a = block_update(st, start, {v})
            b = icf_update_vertex(st, start, v)
            assert np.abs(a.sigma - b.sigma).max() < 1e-12

    def test_component_block_takes_sample_block(self):
        g = CovarianceGraph(["a", "b", "c"], [("a", "b")])
        rng = np.random.default_rng(1)
        s = random_spd(3, 30, rng)
        st = stats_from_moments(30, s)
        out = block_update(st, ConstrainedCovariance.identity(g), {"a", "b"})
        assert np.allclose(out.sigma[:2, :2], s[:2, :2])
        assert out.sigma[0, 2] == 0.0 and out.sigma[1, 2] == 0.0

    def test_rejects_incomplete_block(self, fig1):
        st = stats_from_moments(30, SIGMA_CHAIN)
        with pytest.raises(ModelError, match="not complete"):
            block_update(st, ConstrainedCovariance.identity(fig1), {"1", "2"})

    def test_loglik_non_decreasing_and_gls_section_max(self, fig1):
        rng = np.random.default_rng(2)
        s = SIGMA_CHAIN + 0.05 * random_spd(4, 80, rng)
        st = stats_from_moments(80, s)
        start = ConstrainedCovariance(fig1, random_patterned_cov(fig1, rng, scale=0.2))
        before = profile_loglik(st, start)
        out = block_update(st, start, {"3", "4"})
        after = profile_loglik(st, out)
        assert after >= before - 1e-10

        # first stage alone: regression coefficients move, the incoming
        # conditional covariance is held fixed; compare with a numeric
        # maximizer over (sigma_13, sigma_24) under that same section
        lam_fixed = conditional_params(start, {"3", "4"}).conditional_cov
        fis = free_index_set(fig1)
        idx = [fis.pairs.index((0, 2)), fis.pairs.index((1, 3))]
        rows, cols = free_index_arrays(fig1)

        def complete_with_fixed_lam(coef_vals):
            free = start.sigma[rows, cols]
            free[idx] = coef_vals
            m = expand_free(free, rows, cols, 4)
            block = [2, 3]
            rest = [0, 1]
            b = m[np.ix_(block, rest)] @ np.linalg.inv(m[np.ix_(rest, rest)])
            m[np.ix_(block, block)] = lam_fixed + b @ m[np.ix_(rest, block)]
            return m

        import scipy.optimize

        def neg(x):
            m = complete_with_fixed_lam(x)
            if not cg.is_pos_def(m):
                return 1e8
            return -profile_loglik(st, m)

        res = scipy.optimize.minimize(
            neg, start.sigma[rows, cols][idx], method="Nelder-Mead",
            options={"xatol": 1e-12, "fatol": 1e-14, "maxiter": 20000},
        )
        # redo only stage one of the update to compare coefficients
        stage_one = complete_with_fixed_lam(res.x)
        coef_oracle = np.array([stage_one[2, 0], stage_one[3, 1]])
        coef_update = np.array([out.sigma[2, 0], out.sigma[3, 1]])
        assert np.abs(coef_update - coef_oracle).max() < 1e-6

    def test_rest_block_and_pattern_exact(self, fig1):
        rng = np.random.default_rng(3)
        st = stats_from_moments(50, random_spd(4, 60, rng))
        start = ConstrainedCovariance(fig1, random_patterned_cov(fig1, rng))
        out = block_update(st, start, {"3", "4"})
        rest = [0, 1]
        assert np.array_equal(out.sigma[np.ix_(rest, rest)], start.sigma[np.ix_(rest, rest)])
        off = ~fig1.adjacency & ~np.eye(4, dtype=bool)
        assert np.all(out.sigma[off] == 0.0)
        assert np.linalg.eigvalsh(out.sigma).min() > 0


class TestFitIcfMulti:
    def test_singleton_family_identical_trajectory(self, fig1):
        rng = np.random.default_rng(4)
        st = stats_from_moments(70, random_spd(4, 70, rng))
        cfg = FitConfig(record_trace=True)
        a = fit_icf(st, fig1, cfg)
        b = fit_icf_multi(st, fig1, [(v,) for v in fig1.vertices], cfg)
        assert a.iterations == b.iterations
        assert np.allclose(np.array(a.trace), np.array(b.trace), atol=1e-9)
        assert np.abs(a.sigma - b.sigma).max() < 1e-9

    @pytest.mark.parametrize("graph", ["yeast_gd", "yeast_gs"])
    def test_singleton_family_bitwise_on_yeast(self, graph, yeast_stats, request):
        g = request.getfixturevalue(graph)
        a = fit_icf(yeast_stats, g)
        b = fit_icf_multi(yeast_stats, g, [(v,) for v in g.vertices])
        assert a.iterations == b.iterations and a.newton_steps == b.newton_steps > 0
        assert np.array_equal(a.sigma, b.sigma)

    def test_clique_family_same_loglik(self, fig1):
        rng = np.random.default_rng(5)
        st = stats_from_moments(70, random_spd(4, 70, rng))
        a = fit_icf(st, fig1)
        b = fit_icf_multi(st, fig1)  # default: cliques
        assert b.converged
        assert a.loglik == pytest.approx(b.loglik, abs=1e-6)

    def test_mixed_family_same_loglik(self, fig1):
        rng = np.random.default_rng(6)
        st = stats_from_moments(70, random_spd(4, 70, rng))
        fam = (("1",), ("2",), ("3", "4"))
        a = fit_icf(st, fig1)
        b = fit_icf_multi(st, fig1, fam)
        assert b.converged
        assert a.loglik == pytest.approx(b.loglik, abs=1e-6)

    def test_family_given_once_through_is_read_whole(self, fig1):
        # the family is checked and then cycled: a generator must serve both
        st = stats_from_moments(70, random_spd(4, 70, np.random.default_rng(6)))
        fam = (("1",), ("2",), ("3", "4"))
        a = fit_icf_multi(st, fig1, fam)
        b = fit_icf_multi(st, fig1, (s for s in fam))
        assert b.converged and b.iterations == a.iterations
        assert np.array_equal(a.sigma, b.sigma)

    @pytest.mark.parametrize("seed", range(4))
    def test_agreement_on_random_graphs(self, seed):
        rng = np.random.default_rng(50 + seed)
        g = random_graph(5, rng, edge_prob=0.5)
        st = stats_from_moments(60, random_spd(5, 80, rng))
        a = fit_icf(st, g)
        b = fit_icf_multi(st, g)
        assert a.loglik == pytest.approx(b.loglik, abs=1e-6)

    def test_invalid_family_rejected(self, fig1):
        st = stats_from_moments(30, SIGMA_CHAIN)
        with pytest.raises(ModelError, match="invalid complete-set family"):
            fit_icf_multi(st, fig1, [("1", "2")])

    def test_coverage_violation_rejected(self, fig1):
        st = stats_from_moments(30, SIGMA_CHAIN)
        with pytest.raises(ModelError, match="cover"):
            fit_icf_multi(st, fig1, [("1", "3"), ("2",)])

    def test_trace_non_decreasing(self, fig1):
        rng = np.random.default_rng(7)
        st = stats_from_moments(60, random_spd(4, 60, rng))
        res = fit_icf_multi(st, fig1, cfg=FitConfig(record_trace=True))
        trace = np.array(res.trace)
        assert np.all(np.diff(trace) >= -1e-10)
