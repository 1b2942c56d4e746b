import numpy as np
import pytest

import covgraph as cg
from covgraph.emplik import (
    _OUTER_MAX_ITER,
    ELConvergenceError,
    ELInfeasibleError,
    _interior_feasible,
    _log_star,
    _missing_index,
    _profile_hessian,
    _solve_at,
    fit_el,
    inner_el,
    missing_pairs,
)
from covgraph.graphs import CovarianceGraph
from covgraph.icf import fit_icf
from covgraph.model import ModelError, is_pos_def, sample_stats
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


class TestPhaseOneLp:
    """The linear program that tells a stalled inner solve from an infeasible problem."""

    def test_zero_strictly_inside_the_hull_is_certified(self):
        gmat = np.random.default_rng(8).standard_normal((30, 3))
        gmat -= gmat.mean(axis=0)  # 0 is the uniform average of the rows
        assert _interior_feasible(gmat)

    @pytest.mark.parametrize(
        "gmat",
        [
            np.abs(np.random.default_rng(8).standard_normal((30, 3))) + 0.1,  # 0 outside
            np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]),  # 0 on the boundary
        ],
        ids=["outside", "boundary"],
    )
    def test_zero_not_strictly_inside_is_refused(self, gmat):
        assert not _interior_feasible(gmat)

    @pytest.mark.parametrize("shift, feasible", [(0.05, True), (20.0, False)])
    def test_stalled_dual_raises_only_on_a_feasible_problem(self, fig1, monkeypatch, shift, feasible):
        data = draw_chain_data(30, 9)
        mu = data.mean(axis=0) + shift * data.std(axis=0)
        pairs = _missing_index(fig1)
        assert (_solve_at(data, mu, pairs) is not None) == feasible
        # a dual solver stuck at its start leaves the uniform weights,
        # which miss the moment equations whenever mu is off the mean
        monkeypatch.setattr("covgraph.emplik._solve_dual", lambda gmat: np.zeros(gmat.shape[1]))
        if feasible:
            with pytest.raises(ELConvergenceError, match="feasible problem"):
                _solve_at(data, mu, pairs)
        else:
            assert _solve_at(data, mu, pairs) is None


class TestLogStar:
    def test_unextended_values_match_the_masked_branch_bit_for_bit(self):
        eps = 1.0 / 30
        z = np.random.default_rng(1).uniform(eps, 3.0, 50)
        z[0] = eps
        masked = _log_star(np.append(z, eps / 2.0), eps)  # one value below eps
        for fast, full in zip(_log_star(z, eps), masked):
            assert np.array_equal(fast, full[:-1])


class TestProfileHessian:
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_central_differences_of_the_gradient(self, fig1, seed):
        # On standardized data the location is t itself and the
        # multipliers are in the Hessian's own units.
        data = t5_chain_data(20260810, seed + 1)
        x = (data - data.mean(axis=0)) / data.std(axis=0)
        n = len(x)
        t = 0.1 * np.random.default_rng(seed).standard_normal(4)
        ws = inner_el(x, t, fig1)
        assert np.abs(n * ws.multipliers[:4]).max() > 1.0  # well off the optimum
        exact = _profile_hessian(x, t, ws.weights, ws.multipliers, np.array(missing_pairs(fig1)))
        h = 1e-5
        fd = np.empty((4, 4))
        for k in range(4):
            e = np.zeros(4)
            e[k] = h
            up = -n * inner_el(x, t + e, fig1).multipliers[:4]
            down = -n * inner_el(x, t - e, fig1).multipliers[:4]
            fd[:, k] = (up - down) / (2.0 * h)
        assert np.abs(exact - fd).max() <= 1e-6 * np.abs(fd).max()


class TestFitEl:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("solve", ["fit_el", "inner_el"])
    def test_non_finite_cell_is_named(self, solve, bad, fig1):
        data = draw_chain_data(40, 3)
        data[6, 2] = bad
        call = {"fit_el": lambda: fit_el(data, fig1), "inner_el": lambda: inner_el(data, np.zeros(4), fig1)}
        with pytest.raises(ModelError, match="row 7, column 3"):
            call[solve]()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_location_is_refused(self, bad, fig1):
        with pytest.raises(ModelError, match="location must be finite"):
            inner_el(draw_chain_data(40, 3), np.array([0.0, bad, 0.0, 0.0]), fig1)

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
        assert is_pos_def(fit.sigma)

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

    def test_outer_search_is_cheap_and_reported(self, fig1, monkeypatch):
        fit = fit_el(draw_chain_data(100, 14), fig1)
        assert fit.converged and fit.detail == "converged"
        assert 1 <= fit.iterations <= _OUTER_MAX_ITER
        assert fit.inner_solves < 100
        monkeypatch.setattr("covgraph.emplik._OUTER_MAX_ITER", 1)
        capped = fit_el(draw_chain_data(100, 14), fig1)
        assert capped.detail == "max-iter" and not capped.converged

    def test_acceptance_replications_converge_in_few_solves(self, fig1):
        # the 200 t5 replications of acceptance 6; a deterministic count guard
        fits = [fit_el(t5_chain_data(20260810, rep + 1), fig1) for rep in range(200)]
        assert all(f.detail == "converged" for f in fits)
        assert np.mean([f.inner_solves for f in fits]) <= 6.0

    def test_residual_is_the_unit_free_stationarity(self, fig1, monkeypatch):
        data = t5_chain_data(1000, 2)
        for cap in (_OUTER_MAX_ITER, 1):
            with monkeypatch.context() as mp:
                mp.setattr("covgraph.emplik._OUTER_MAX_ITER", cap)
                fit = fit_el(data, fig1)
            sd = data.std(axis=0)
            assert fit.residual == (len(data) * np.abs(fit.weighted.multipliers[:4]) * sd).max()
            assert fit.converged == (fit.residual <= 1e-5)
        assert fit_el(100.0 * data, fig1).residual <= 1e-5

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
