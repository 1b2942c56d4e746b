import numpy as np
import pytest

import covgraph as cg
from covgraph.graphs import CovarianceGraph, free_index_set
from covgraph.icf import _point
from covgraph.model import (
    ConstrainedCovariance,
    ModelError,
    NotPositiveDefiniteError,
    PatternViolationError,
    deviance,
    fisher_information,
    hessian,
    profile_loglik,
    sample_stats,
    score,
    stats_from_moments,
    stationarity_residual,
)

from conftest import SIGMA_CHAIN, random_graph, random_patterned_cov, random_spd
from oracles import (
    conditional_params,
    cov_double_loop,
    dense_fisher,
    dense_hessian,
    dense_score,
    fd_hessian,
    fd_score,
    loglik_direct,
)


def complete_graph(p):
    labels = [str(i + 1) for i in range(p)]
    return CovarianceGraph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]])


class TestSampleStats:
    def test_two_points(self):
        st = sample_stats(np.array([[0.0, 0.0], [2.0, 2.0]]))
        assert np.allclose(st.mean, [1.0, 1.0])
        assert np.allclose(st.s, [[1.0, 1.0], [1.0, 1.0]])
        assert not st.s_pos_def

    def test_constant_rows_flagged_singular(self):
        data = np.tile([3.0, -1.0, 2.0], (6, 1))
        st = sample_stats(data)
        assert np.allclose(st.s, 0.0)
        assert not st.s_pos_def

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(7)
        data = rng.normal(size=(5, 3))
        st = sample_stats(data)
        mean, s = cov_double_loop(data)
        assert np.abs(st.mean - mean).max() < 1e-12
        assert np.abs(st.s - s).max() < 1e-12

    def test_rejects_single_row(self):
        with pytest.raises(ModelError, match="at least 2"):
            sample_stats(np.array([[1.0, 2.0]]))

    def test_rejects_nan_cell_with_position(self):
        data = np.ones((3, 2))
        data[1, 1] = np.nan
        with pytest.raises(ModelError, match="row 2, column 2"):
            sample_stats(data)

    def test_aligned_to_permutes(self):
        st = stats_from_moments(10, np.diag([1.0, 4.0]), labels=("a", "b"))
        out = st.aligned_to(("b", "a"))
        assert np.allclose(out.s, np.diag([4.0, 1.0]))
        assert out.labels == ("b", "a")


class TestConstrainedCovariance:
    def test_accepts_identity(self, fig1):
        cc = ConstrainedCovariance.identity(fig1)
        assert np.array_equal(cc.sigma, np.eye(4))

    def test_rejects_pattern_violation_naming_entry(self, fig1):
        m = np.eye(4)
        m[0, 1] = m[1, 0] = 0.1
        with pytest.raises(PatternViolationError, match=r"\(1, 2\) must be zero"):
            ConstrainedCovariance(fig1, m)

    def test_rejects_non_pd(self, fig1):
        m = SIGMA_CHAIN.copy()
        m[2, 3] = m[3, 2] = 5.0
        with pytest.raises(NotPositiveDefiniteError):
            ConstrainedCovariance(fig1, m)

    def test_project_zeroes_off_pattern(self, fig1):
        m = np.eye(4) + 0.01
        cc = ConstrainedCovariance.from_matrix(fig1, m, project=True)
        assert cc.sigma[0, 1] == 0.0
        assert cc.sigma[0, 2] == pytest.approx(0.01)


class TestProfileLoglik:
    def test_scalar_formula(self):
        g = CovarianceGraph(["x"])
        st = stats_from_moments(12, np.array([[2.5]]))
        cc = ConstrainedCovariance(g, np.array([[0.7]]))
        expected = -0.5 * 12 * (np.log(2 * np.pi) + np.log(0.7) + 2.5 / 0.7)
        assert profile_loglik(st, cc) == pytest.approx(expected, abs=1e-12)

    def test_at_sample_cov_complete_graph(self):
        rng = np.random.default_rng(1)
        s = random_spd(3, 40, rng)
        st = stats_from_moments(40, s)
        g = complete_graph(3)
        cc = ConstrainedCovariance(g, s)
        expected = -0.5 * 40 * (3 * np.log(2 * np.pi) + np.linalg.slogdet(s)[1] + 3)
        assert profile_loglik(st, cc) == pytest.approx(expected, rel=1e-12)

    def test_matches_direct_oracle_on_chain_sigma(self, fig1):
        st = stats_from_moments(50, SIGMA_CHAIN)
        cc = ConstrainedCovariance(fig1, SIGMA_CHAIN)
        assert profile_loglik(st, cc) == pytest.approx(loglik_direct(50, SIGMA_CHAIN, SIGMA_CHAIN), abs=1e-10)

    def test_n_adjust_uses_n_minus_one(self, fig1):
        st = stats_from_moments(50, SIGMA_CHAIN)
        cc = ConstrainedCovariance(fig1, SIGMA_CHAIN)
        assert profile_loglik(st, cc, n_adjust=True) == pytest.approx(
            profile_loglik(st, cc) * 49 / 50, rel=1e-12
        )

    def test_rejects_non_pd(self, fig1):
        st = stats_from_moments(50, SIGMA_CHAIN)
        with pytest.raises(NotPositiveDefiniteError):
            profile_loglik(st, -np.eye(4))


class TestScore:
    def test_zero_at_sample_cov_complete_graph(self):
        rng = np.random.default_rng(2)
        s = random_spd(4, 60, rng)
        st = stats_from_moments(60, s)
        g = complete_graph(4)
        assert np.abs(score(st, ConstrainedCovariance(g, s))).max() < 1e-9

    def test_zero_when_sample_cov_in_pattern(self, fig1):
        st = stats_from_moments(77, SIGMA_CHAIN)
        cc = ConstrainedCovariance(fig1, SIGMA_CHAIN)
        assert np.abs(score(st, cc)).max() < 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(4, rng, edge_prob=0.6)
        cc = ConstrainedCovariance(g, random_patterned_cov(g, rng))
        st = stats_from_moments(30, random_spd(4, 50, rng))
        got = score(st, cc)
        ref = fd_score(st, cc, h=1e-6)
        denom = max(1.0, np.abs(ref).max())
        assert np.abs(got - ref).max() / denom < 1e-5

    def test_matches_dense_duplication_oracle(self, fig1):
        rng = np.random.default_rng(11)
        cc = ConstrainedCovariance(fig1, random_patterned_cov(fig1, rng))
        st = stats_from_moments(25, random_spd(4, 50, rng))
        assert np.abs(score(st, cc) - dense_score(st, cc)).max() < 1e-9


class TestFisherInformation:
    def test_scalar(self):
        g = CovarianceGraph(["x"])
        cc = ConstrainedCovariance(g, np.array([[2.0]]))
        assert fisher_information(cc, 10)[0, 0] == pytest.approx(0.5 * 10 / 4.0)

    def test_identity_complete_p2_matches_kron_oracle(self):
        g = complete_graph(2)
        cc = ConstrainedCovariance(g, np.eye(2))
        got = fisher_information(cc, 8)
        ref = dense_fisher(cc, 8)
        assert np.abs(got - ref).max() < 1e-12
        assert np.linalg.eigvalsh(got).min() > 0

    @pytest.mark.parametrize("seed", range(4))
    def test_positive_definite_and_matches_oracle(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(5, rng, edge_prob=0.5)
        cc = ConstrainedCovariance(g, random_patterned_cov(g, rng))
        got = fisher_information(cc, 33)
        assert np.abs(got - dense_fisher(cc, 33)).max() < 1e-9
        assert np.linalg.eigvalsh(got).min() > 0

    def test_equals_negated_hessian_at_sigma(self, fig1):
        rng = np.random.default_rng(5)
        cc = ConstrainedCovariance(fig1, random_patterned_cov(fig1, rng))
        st = stats_from_moments(21, cc.sigma)  # S replaced by sigma itself
        assert np.abs(hessian(st, cc) + fisher_information(cc, 21)).max() < 1e-10


class TestHessian:
    def test_scalar_formula(self):
        g = CovarianceGraph(["x"])
        st = stats_from_moments(9, np.array([[1.7]]))
        cc = ConstrainedCovariance(g, np.array([[0.9]]))
        expected = 0.5 * 9 * (0.9**-2 - 2 * 1.7 * 0.9**-3)
        assert hessian(st, cc)[0, 0] == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_fd_of_score(self, seed):
        rng = np.random.default_rng(100 + seed)
        g = random_graph(4, rng, edge_prob=0.6)
        cc = ConstrainedCovariance(g, random_patterned_cov(g, rng))
        st = stats_from_moments(24, random_spd(4, 60, rng))
        got = hessian(st, cc)
        ref = fd_hessian(st, cc, h=1e-6)
        denom = max(1.0, np.abs(ref).max())
        assert np.abs(got - ref).max() / denom < 1e-4

    def test_matches_dense_oracle(self, fig1):
        rng = np.random.default_rng(200)
        cc = ConstrainedCovariance(fig1, random_patterned_cov(fig1, rng))
        st = stats_from_moments(14, random_spd(4, 40, rng))
        assert np.abs(hessian(st, cc) - dense_hessian(st, cc)).max() < 1e-9


class TestStationarityResidual:
    def test_zero_when_sample_cov_in_pattern(self, fig1):
        st = stats_from_moments(30, SIGMA_CHAIN)
        assert stationarity_residual(st, ConstrainedCovariance(fig1, SIGMA_CHAIN)) < 1e-12

    def test_zero_at_sample_cov_complete_graph(self):
        rng = np.random.default_rng(8)
        s = random_spd(3, 30, rng)
        st = stats_from_moments(30, s)
        g = complete_graph(3)
        assert stationarity_residual(st, ConstrainedCovariance(g, s)) < 1e-10

    def test_identity_against_chain_sigma(self, fig1):
        # direct evaluation: inverse of I is I, so the defect is the
        # largest free off-diagonal of S, here 0.75
        st = stats_from_moments(40, SIGMA_CHAIN)
        got = stationarity_residual(st, ConstrainedCovariance.identity(fig1))
        assert got == pytest.approx(0.75, abs=1e-14)

    @pytest.mark.parametrize("seed", range(4))
    def test_zero_iff_score_zero(self, seed):
        rng = np.random.default_rng(300 + seed)
        g = random_graph(4, rng, edge_prob=0.5)
        st = stats_from_moments(20, random_spd(4, 50, rng))
        cc = ConstrainedCovariance(g, random_patterned_cov(g, rng))
        resid = stationarity_residual(st, cc)
        sc = np.abs(score(st, cc)).max()
        if resid < 1e-12:
            assert sc < 1e-9
        else:
            assert sc > 0
        # stationary point: fit, then both vanish together
        fit = cg.fit_icf(st, g).estimate
        assert stationarity_residual(st, fit) < 1e-6
        assert np.abs(score(st, fit)).max() < 1e-6 * st.n


class TestConditionalParams:
    def test_identity(self, fig1):
        cc = ConstrainedCovariance.identity(fig1)
        cp = conditional_params(cc, {"2"})
        assert np.allclose(cp.coefficients, 0.0)
        assert np.allclose(cp.conditional_cov, np.eye(1))

    def test_chain_sigma_first_vertex(self, fig1):
        # frozen from a linear-solve oracle: the solve gives
        # coefficients (1/4, 5/4, -1) and residual variance 3/8
        cc = ConstrainedCovariance(fig1, SIGMA_CHAIN)
        cp = conditional_params(cc, {"1"})
        assert cp.conditional_cov[0, 0] == pytest.approx(0.375, abs=1e-12)
        assert np.allclose(cp.coefficients, [[0.25, 1.25, -1.0]], atol=1e-12)
        rest = SIGMA_CHAIN[1:, 1:]
        direct = SIGMA_CHAIN[0, 0] - SIGMA_CHAIN[0, 1:] @ np.linalg.solve(rest, SIGMA_CHAIN[1:, 0])
        assert cp.conditional_cov[0, 0] == pytest.approx(direct, abs=1e-12)
        # the ICF engine reads the inverse conditional covariance off K
        assert 1.0 / _point(SIGMA_CHAIN, SIGMA_CHAIN).inv[0, 0] == pytest.approx(0.375, abs=1e-12)

    def test_block_diagonal_zero_outside_block(self):
        g = CovarianceGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        m = np.eye(4)
        m[0, 1] = m[1, 0] = 0.3
        m[2, 3] = m[3, 2] = -0.2
        cc = ConstrainedCovariance(g, m)
        cp = conditional_params(cc, {"a"})
        # rest order is b, c, d; only b gets weight
        assert cp.coefficients[0, 0] != 0.0
        assert np.allclose(cp.coefficients[0, 1:], 0.0)

    def test_rejects_empty_or_full_block(self, fig1):
        cc = ConstrainedCovariance.identity(fig1)
        with pytest.raises(ModelError):
            conditional_params(cc, set())
        with pytest.raises(ModelError):
            conditional_params(cc, set(fig1.vertices))


class TestDeviance:
    def test_zero_at_sample_cov(self):
        rng = np.random.default_rng(9)
        s = random_spd(3, 25, rng)
        st = stats_from_moments(25, s)
        g = complete_graph(3)
        dev, df = deviance(st, ConstrainedCovariance(g, s))
        assert dev == pytest.approx(0.0, abs=1e-9)
        assert df == 0

    def test_df_yeast_graphs(self, yeast_gd, yeast_gs, yeast_stats):
        st = yeast_stats.aligned_to(yeast_gd.vertices)
        _, df_d = deviance(st, np.eye(8), graph=yeast_gd)
        _, df_s = deviance(st, np.eye(8), graph=yeast_gs)
        assert df_d == 9
        assert df_s == 13

    def test_nonnegative_at_ml_fit(self, fig1):
        rng = np.random.default_rng(10)
        st = stats_from_moments(60, random_spd(4, 60, rng))
        fit = cg.fit_icf(st, fig1)
        dev, df = deviance(st, fit.estimate)
        assert dev >= 0
        assert df == 3
