import numpy as np
import pytest

import covgraph as cg
from covgraph.emplik import (
    ELConfig,
    ELInfeasibleError,
    fit_el,
    inner_el,
    missing_pairs,
)
from covgraph.graphs import CovarianceGraph
from covgraph.icf import fit_icf
from covgraph.model import sample_stats
from covgraph.simulate import _rep_rng, sample_t

from conftest import SIGMA_CHAIN
from oracles import primal_el


def complete_graph(p):
    labels = [str(i + 1) for i in range(p)]
    return CovarianceGraph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]])


def draw_chain_data(n, seed):
    rng = np.random.default_rng(seed)
    low = np.linalg.cholesky(SIGMA_CHAIN)
    return rng.standard_normal((n, 4)) @ low.T


def forced_moment_data(n, seed):
    """Data whose sample moments satisfy the missing-edge constraints exactly.

    Columns are centered and then rotated so the sample covariance is
    diagonal; any graph's product constraints hold at the sample mean.
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, 3))
    x = x - x.mean(axis=0)
    cov = x.T @ x / n
    vals, vecs = np.linalg.eigh(cov)
    return x @ vecs  # now exactly uncorrelated columns, mean zero


def t5_chain_data(seed, stream):
    """One replication of the t5 chain simulation at n=100."""
    return sample_t(SIGMA_CHAIN, 5, 100, _rep_rng(seed, stream))


def profile_fd_gradient(data, mu, g, h):
    """Central differences of -el_log_ratio over the location, step h[i]."""
    grad = np.empty(len(mu))
    for i in range(len(mu)):
        e = np.zeros(len(mu))
        e[i] = h[i]
        up = inner_el(data, mu + e, g)
        down = inner_el(data, mu - e, g)
        grad[i] = (down.el_log_ratio - up.el_log_ratio) / (2.0 * h[i])
    return grad


def check_weight_invariants(data, ws, pairs, tol=1e-8):
    assert ws.weights.min() >= -tol
    assert ws.weights.sum() == pytest.approx(1.0, abs=tol)
    d = data - ws.mean
    assert np.abs(ws.weights @ d).max() <= tol
    for i, j in pairs:
        assert abs(ws.weights @ (d[:, i] * d[:, j])) <= tol


class TestInnerEl:
    def test_uniform_weights_when_moments_already_satisfied(self):
        data = forced_moment_data(30, 0)
        g = CovarianceGraph(["a", "b", "c"])  # edgeless: all pairs constrained
        ws = inner_el(data, data.mean(axis=0), g)
        assert ws is not None
        assert np.abs(ws.weights - 1.0 / 30).max() < 1e-9
        assert np.abs(ws.multipliers).max() < 1e-7
        assert ws.el_log_ratio == pytest.approx(0.0, abs=1e-10)

    def test_two_point_closed_form(self):
        g = CovarianceGraph(["z"])
        data = np.array([[1.0], [4.0]])
        mu = np.array([2.0])
        ws = inner_el(data, mu, g)
        assert ws is not None
        w1 = (mu[0] - 4.0) / (1.0 - 4.0)
        assert np.allclose(ws.weights, [w1, 1 - w1], atol=1e-10)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_primal_interior_point_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = CovarianceGraph(["a", "b", "c"], [("a", "c"), ("b", "c")])
        data = rng.standard_normal((20, 3))
        mu = data.mean(axis=0) + 0.05 * rng.standard_normal(3)
        ws = inner_el(data, mu, g)
        assert ws is not None
        oracle_val, _ = primal_el(data, mu, missing_pairs(g))
        assert ws.el_log_ratio == pytest.approx(oracle_val, abs=1e-6)
        check_weight_invariants(data, ws, missing_pairs(g))

    def test_log_ratio_never_positive(self):
        rng = np.random.default_rng(4)
        g = CovarianceGraph(["a", "b"])
        for _ in range(5):
            data = rng.standard_normal((15, 2))
            ws = inner_el(data, data.mean(axis=0), g)
            if ws is not None:
                assert ws.el_log_ratio <= 1e-12

    def test_location_outside_hull_is_infeasible(self):
        g = CovarianceGraph(["z"])
        data = np.array([[1.0], [4.0]])
        assert inner_el(data, np.array([9.0]), g) is None

    def test_sample_size_boundary_reports_infeasible(self, fig1):
        # three missing pairs: any n at or below four must be refused
        data = draw_chain_data(4, 5)
        assert inner_el(data, data.mean(axis=0), fig1) is None

    @pytest.mark.parametrize("seed", range(3))
    def test_mean_multipliers_give_profile_gradient(self, fig1, seed):
        # envelope theorem: d(-el_log_ratio)/dmu = -n * lambda_mean
        data = t5_chain_data(20260810, seed + 1)
        sd = data.std(axis=0)
        rng = np.random.default_rng(seed)
        mu = data.mean(axis=0) + 0.05 * sd * rng.standard_normal(4)
        ws = inner_el(data, mu, fig1)
        assert ws is not None
        analytic = -len(data) * ws.multipliers[:4]
        fd = profile_fd_gradient(data, mu, fig1, 1e-5 * sd)
        assert np.abs(analytic - fd).max() <= 1e-6 * max(1.0, np.abs(fd).max())

    @pytest.mark.parametrize("c", [1e-2, 1.0, 10.0, 100.0])
    def test_units_do_not_change_the_solution(self, fig1, c):
        data = t5_chain_data(1000, 1)
        mu = data.mean(axis=0) + 0.05 * data.std(axis=0)
        ref = inner_el(data, mu, fig1)
        ws = inner_el(c * data, c * mu, fig1)
        assert ws is not None
        assert ws.el_log_ratio == pytest.approx(ref.el_log_ratio, abs=1e-10)
        assert np.abs(ws.weights - ref.weights).max() <= 1e-12
        check_weight_invariants(c * data, ws, missing_pairs(fig1), tol=1e-8 * max(1.0, c**2))

    def test_multiplier_count(self, fig1):
        data = draw_chain_data(30, 6)
        ws = inner_el(data, data.mean(axis=0), fig1)
        assert ws is not None
        assert ws.multipliers.shape == (4 + 3,)


class TestFitEl:
    def test_complete_graph_reproduces_sample_moments(self):
        rng = np.random.default_rng(7)
        g = complete_graph(3)
        data = rng.standard_normal((25, 3))
        fit = fit_el(data, g)
        st = sample_stats(data)
        assert np.abs(fit.weighted.weights - 1.0 / 25).max() < 1e-6
        assert np.abs(fit.weighted.mean - st.mean).max() < 1e-6
        assert np.abs(fit.sigma - st.s).max() < 1e-6
        assert fit.weighted.el_log_ratio == pytest.approx(0.0, abs=1e-8)

    def test_forced_moments_give_sample_cov(self):
        data = forced_moment_data(40, 8)
        g = CovarianceGraph(["a", "b", "c"])
        fit = fit_el(data, g)
        st = sample_stats(data)
        assert fit.weighted.el_log_ratio == pytest.approx(0.0, abs=1e-8)
        assert np.abs(fit.sigma - st.s).max() < 1e-5

    def test_chain_data_zero_pattern_and_icf_proximity(self, fig1):
        data = draw_chain_data(50, 9)
        fit = fit_el(data, fig1)
        for i, j in missing_pairs(fig1):
            assert abs(fit.sigma[i, j]) <= 1e-8
        ml = fit_icf(sample_stats(data), fig1)
        assert np.abs(fit.sigma - ml.sigma).max() < 0.5  # same data, same target
        check_weight_invariants(data, fit.weighted, missing_pairs(fig1))
        assert not fit.sigma_singular

    @pytest.mark.parametrize("c", [1e-2, 10.0, 100.0])
    def test_rescaled_data_gives_rescaled_sigma(self, fig1, c):
        data = t5_chain_data(1000, 1)
        ref = fit_el(data, fig1)
        fit = fit_el(c * data, fig1)
        assert fit.converged and ref.converged
        assert fit.weighted.el_log_ratio == pytest.approx(ref.weighted.el_log_ratio, abs=1e-10)
        assert np.abs(fit.sigma / c**2 - ref.sigma).max() <= 1e-7 * np.abs(ref.sigma).max()

    def test_hard_replication_ends_stationary(self, fig1):
        # replication 118 of the acceptance simulation: a raw-unit dual
        # check used to wall off the outer search short of the optimum
        data = t5_chain_data(20260810, 118)
        fit = fit_el(data, fig1)
        assert fit.converged
        sd = data.std(axis=0)
        fd = profile_fd_gradient(data, fit.weighted.mean, fig1, 1e-5 * sd)
        assert np.abs(fd * sd).max() <= 1e-4

    def test_outer_search_is_cheap_and_reported(self, fig1):
        fit = fit_el(draw_chain_data(100, 14), fig1)
        assert fit.converged and fit.detail == "converged"
        assert 1 <= fit.outer_iterations <= ELConfig().outer_max_iter
        assert fit.inner_solves < 100
        capped = fit_el(draw_chain_data(100, 14), fig1, ELConfig(outer_max_iter=1))
        assert capped.detail == "max-iter" and not capped.converged

    def test_monotone_degradation_when_removing_edges(self):
        rng = np.random.default_rng(10)
        data = rng.standard_normal((40, 3))
        g_two = CovarianceGraph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        g_one = CovarianceGraph(["a", "b", "c"], [("a", "b")])
        g_zero = CovarianceGraph(["a", "b", "c"])
        vals = [fit_el(data, g).weighted.el_log_ratio for g in (g_two, g_one, g_zero)]
        assert vals[0] >= vals[1] - 1e-9
        assert vals[1] >= vals[2] - 1e-9

    def test_small_sample_raises_structured_failure(self, fig1):
        data = draw_chain_data(4, 11)
        with pytest.raises(ELInfeasibleError):
            fit_el(data, fig1)

    def test_psd_with_singularity_flag(self):
        # six observations, three variables, edgeless: feasible but the
        # weighted covariance may be near rank-deficient; flag, not fix
        g = CovarianceGraph(["a", "b", "c"])
        data = forced_moment_data(6, 12)
        fit = fit_el(data, g)
        eigs = np.linalg.eigvalsh(fit.sigma)
        assert eigs.min() > -1e-10

    def test_labels_reorder_columns(self, fig1):
        data = draw_chain_data(40, 13)
        perm = [2, 0, 3, 1]
        shuffled = data[:, perm]
        labels = tuple(np.array(fig1.vertices)[perm])
        a = fit_el(data, fig1)
        b = fit_el(shuffled, fig1, labels=labels)
        assert np.abs(a.sigma - b.sigma).max() < 1e-8
