import numpy as np
import pytest

import covgraph as cg
from covgraph.anderson import fit_anderson
from covgraph.graphs import CovarianceGraph, free_index_set
from covgraph.icf import fit_icf
from covgraph.model import ModelError, stats_from_moments, stationarity_residual
from covgraph.results import FitConfig, stop_reason

from conftest import SIGMA_CHAIN, random_spd
from oracles import SingularSystemError, anderson_system


def complete_graph(p):
    labels = [str(i + 1) for i in range(p)]
    return CovarianceGraph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]])


class TestAndersonSystem:
    def test_identity_gives_identity_system(self, fig1):
        rng = np.random.default_rng(0)
        s = random_spd(4, 50, rng)
        st = stats_from_moments(50, s)
        fis = free_index_set(fig1)
        a, b = anderson_system(np.eye(4), st, fis)
        assert np.abs(a - np.eye(len(fis))).max() < 1e-14
        assert np.allclose(b, [s[i, j] for i, j in fis.pairs])

    def test_scalar_case(self):
        g = CovarianceGraph(["x"])
        st = stats_from_moments(10, np.array([[3.0]]))
        a, b = anderson_system(np.array([[2.0]]), st, free_index_set(g))
        assert a[0, 0] == pytest.approx(0.25)
        assert b[0] == pytest.approx(3.0 * 0.25)
        # the solved update lands on the sample variance
        assert b[0] / a[0, 0] == pytest.approx(3.0)

    def test_fixed_point_at_icf_estimate(self, fig1):
        rng = np.random.default_rng(1)
        st = stats_from_moments(80, random_spd(4, 80, rng))
        fit = fit_icf(st, fig1)
        assert stationarity_residual(st, fit.estimate) < 1e-7
        fis = free_index_set(fig1)
        a, b = anderson_system(fit.sigma, st, fis)
        sigma_vec = np.array([fit.sigma[i, j] for i, j in fis.pairs])
        assert np.abs(a @ sigma_vec - b).max() < 1e-7

    def test_singular_sigma_rejected(self, fig1):
        st = stats_from_moments(10, SIGMA_CHAIN)
        with pytest.raises(SingularSystemError):
            anderson_system(np.zeros((4, 4)), st, free_index_set(fig1))


class TestFitAnderson:
    def test_complete_graph_one_step_to_sample_cov(self):
        rng = np.random.default_rng(2)
        g = complete_graph(3)
        s = random_spd(3, 40, rng)
        st = stats_from_moments(40, s)
        res = fit_anderson(st, g)
        assert res.converged and res.detail == "converged"
        assert res.iterations <= 2
        assert np.abs(res.sigma - s).max() < 1e-10

    def test_first_iterate_is_sample_cov_on_free_entries(self, fig1):
        rng = np.random.default_rng(3)
        s = random_spd(4, 60, rng)
        st = stats_from_moments(60, s)
        res = fit_anderson(st, fig1, FitConfig(max_iter=1))
        for i, j in free_index_set(fig1).pairs:
            assert res.final_sigma[i, j] == pytest.approx(s[i, j], abs=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_agrees_with_icf_when_converged(self, fig1, seed):
        rng = np.random.default_rng(10 + seed)
        st = stats_from_moments(100, random_spd(4, 100, rng))
        a = fit_anderson(st, fig1)
        b = fit_icf(st, fig1)
        assert a.converged
        assert np.abs(a.sigma - b.sigma).max() < 1e-6

    def test_zero_pattern_preserved_at_every_iterate(self, fig1):
        rng = np.random.default_rng(4)
        st = stats_from_moments(50, random_spd(4, 50, rng))
        res = fit_anderson(st, fig1, FitConfig(max_iter=3))
        off = ~fig1.adjacency & ~np.eye(4, dtype=bool)
        assert np.all(res.final_sigma[off] == 0.0)

    def test_converged_state_has_small_residual(self, fig1):
        rng = np.random.default_rng(5)
        st = stats_from_moments(70, random_spd(4, 70, rng))
        cfg = FitConfig(tol=1e-8)
        res = fit_anderson(st, fig1, cfg)
        assert res.converged
        assert res.residual <= 100 * cfg.tol

    def test_non_pd_intermediate_found_by_randomized_probe(self, fig1):
        # documented failure mode: iterates need not stay positive
        # definite at small n with strong edge correlations
        hit = None
        for seed in range(50):
            rng = np.random.default_rng(seed)
            x = rng.standard_normal((5, 4))
            x[:, 2] = 0.9 * x[:, 0] + 0.45 * x[:, 3] + 0.1 * x[:, 2]
            x = x - x.mean(axis=0)
            st = stats_from_moments(5, x.T @ x / 5)
            if not st.s_pos_def:
                continue
            res = fit_anderson(st, fig1, FitConfig(max_iter=100))
            if res.pd_flags and not all(res.pd_flags):
                hit = (seed, res)
                break
        if hit is None:
            pytest.skip("no non-PD iterate found in the bounded probe")
        seed, res = hit
        assert not all(res.pd_flags)
        assert res.estimate is None or res.converged

    def test_non_converged_reports_detail(self, fig1):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 4))
        x[:, 2] = 0.9 * x[:, 0] + 0.45 * x[:, 3] + 0.1 * x[:, 2]
        x = x - x.mean(axis=0)
        st = stats_from_moments(5, x.T @ x / 5)
        res = fit_anderson(st, fig1, FitConfig(max_iter=50))
        assert not res.converged
        assert res.detail in ("diverged", "max-iter", "not-pd", "singular-system")
        assert res.estimate is None

    def test_trace_holds_none_for_non_pd_iterates(self, fig1):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 4))
        x[:, 2] = 0.9 * x[:, 0] + 0.45 * x[:, 3] + 0.1 * x[:, 2]
        x = x - x.mean(axis=0)
        st = stats_from_moments(5, x.T @ x / 5)
        res = fit_anderson(st, fig1, FitConfig(max_iter=30, record_trace=True))
        assert any(v is None for v in res.trace) == (not all(res.pd_flags))

    def test_refuses_singular_sample(self, fig1):
        data = np.tile(np.arange(4.0), (9, 1))
        st = stats_from_moments(9, data.T @ data / 9)
        with pytest.raises(ModelError, match="positive definite"):
            fit_anderson(st, fig1)


class TestStopRule:
    def test_non_positive_diagonal_is_never_a_small_step(self):
        m = np.diag([1.0, -2.0])
        assert stop_reason(m, m, lambda: 0.0, 1e-8) is None

    def test_small_step_outside_the_cone_is_not_pd(self):
        g = complete_graph(2)
        st = stats_from_moments(10, np.eye(2))
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        residual = lambda: stationarity_residual(st, cg.ConstrainedCovariance(g, m))  # noqa: E731
        assert stop_reason(m, m, residual, 1e-8) == "not-pd"
