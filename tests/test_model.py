import numpy as np
import pytest

import covgraph as cg
from covgraph.graphs import CovarianceGraph, free_index_set
from covgraph.model import (
    ConstrainedCovariance,
    ModelError,
    NotPositiveDefiniteError,
    PatternViolationError,
    _damped_step,
    _point,
    deviance,
    fisher_information,
    hessian,
    kron_form,
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
    cholesky_loglik,
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

    def test_memory_layout_does_not_change_the_bits(self):
        # a column-permuted table comes back column-major from fancy indexing
        data = np.random.default_rng(21).standard_normal((80, 5))
        perm = [2, 0, 4, 1, 3]
        moved = data[:, perm]
        assert not moved.flags.c_contiguous
        a, b = sample_stats(np.ascontiguousarray(moved)), sample_stats(moved)
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.s, b.s)

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


class TestIsPosDef:
    @pytest.mark.parametrize(
        "a",
        [
            np.ones((2, 3)),
            np.ones(3),
            np.array(2.0),
            np.zeros((0, 0)),
            [[1.0, np.nan], [np.nan, 1.0]],
            [[1.0, 2.0], [2.0, 1.0]],
            [[1.0, 1.0 - 1e-14], [1.0 - 1e-14, 1.0]],
        ],
    )
    def test_rejects(self, a):
        assert not cg.is_pos_def(a)

    @pytest.mark.parametrize("c", [1e-150, 1.0, 1e150])
    def test_pivot_rule_is_unit_free(self, c):
        assert cg.is_pos_def(c * np.array([[1.0, 0.5], [0.5, 1.0]]))


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

    def test_callers_arrays_stay_writeable(self, fig1):
        a = SIGMA_CHAIN.copy()
        cc = ConstrainedCovariance(fig1, a)
        assert a.flags.writeable and not cc.sigma.flags.writeable
        a[0, 0] = 2.0  # the record holds its own copy
        assert cc.sigma[0, 0] == 1.0
        b = SIGMA_CHAIN.copy()
        stats = sample_stats(np.random.default_rng(0).standard_normal((30, 4)))
        res = cg.fit_icf(stats, fig1, cg.FitConfig(start=b))
        assert res.converged and b.flags.writeable


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

    def test_the_two_oracle_logliks_agree(self):
        # the brute-force optimizers' objective against the eigenvalue formula
        rng = np.random.default_rng(20)
        for p in (2, 4, 7):
            sigma, s = random_spd(p, 3 * p, rng), random_spd(p, 40, rng)
            assert cholesky_loglik(40, s, sigma) == pytest.approx(loglik_direct(40, s, sigma), rel=1e-12)
        assert cholesky_loglik(40, np.eye(2), np.diag([1.0, -1.0])) is None

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

    @pytest.mark.parametrize("graph", ["yeast_gd", "yeast_gs"])
    def test_exactly_symmetric_at_yeast_fits(self, graph, request, yeast_stats):
        # T = K S K is symmetrised once, so no rounding breaks the symmetry
        g = request.getfixturevalue(graph)
        h = hessian(yeast_stats, cg.fit_icf(yeast_stats.aligned_to(g.vertices), g).estimate)
        assert np.array_equal(h, h.T)


class TestDampedStep:
    def test_reads_the_upper_triangle_and_factorises_in_place(self, fig1):
        # ICF's negated Hessian is exact only in its upper triangle, and a
        # copy of the form for its factor would double the step's memory
        fis = free_index_set(fig1)
        x = _point(np.eye(4), "iterate")
        form = kron_form(np.linalg.inv(random_patterned_cov(fig1, np.random.default_rng(3))), fis)
        built = form.copy()
        built[np.tril_indices(len(fis), -1)] = np.nan
        rhs = 0.01 * np.random.default_rng(4).standard_normal(len(fis))
        seen = []
        kept = _damped_step(x, (lambda: built,), rhs, fis, 1, lambda y, t, dec: seen.append((t, dec)) or True)
        d = np.linalg.solve(form, rhs)
        assert np.abs(kept.sigma - (x.sigma + fis.expand(d))).max() <= 1e-14
        assert seen == [(1.0, pytest.approx(rhs @ d, rel=1e-12))]
        assert np.abs(np.triu(built) - np.linalg.cholesky(form).T).max() <= 1e-14


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
        assert 1.0 / _point(SIGMA_CHAIN, "covariance").inv[0, 0] == pytest.approx(0.375, abs=1e-12)

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


def _labelled_reads():
    from covgraph.dual import dual_residual
    from covgraph.icf import block_update, icf_update_vertex

    return {
        "stationarity_residual": lambda st, est: stationarity_residual(st, est),
        "profile_loglik": lambda st, est: profile_loglik(st, est),
        "deviance": lambda st, est: deviance(st, est),
        "deviance-graph": lambda st, est: deviance(st, est.sigma, graph=est.graph),
        "dual_residual": lambda st, est: dual_residual(st, est.sigma, est.graph),
        "icf_update_vertex": lambda st, est: icf_update_vertex(st, est, est.graph.vertices[2]).sigma,
        "block_update": lambda st, est: block_update(st, est, max(cg.cliques(est.graph), key=len)).sigma,
        "score": lambda st, est: score(st, est),
        "hessian": lambda st, est: hessian(st, est),
    }


class TestLabelledStats:
    """Labelled stats are read in the graph's vertex order, whatever their own order."""

    @pytest.mark.parametrize("name", list(_labelled_reads()))
    def test_reversed_labels_read_as_graph_order(self, name, yeast_stats, yeast_gd):
        read = _labelled_reads()[name]
        st = yeast_stats.aligned_to(yeast_gd.vertices)
        backwards = yeast_stats.aligned_to(yeast_gd.vertices[::-1])
        assert backwards.labels != st.labels
        est = cg.fit_icf(st, yeast_gd).estimate
        assert np.array_equal(read(backwards, est), read(st, est))

    def test_stats_in_graph_order_are_not_copied(self, yeast_stats, yeast_gd):
        st = yeast_stats.aligned_to(yeast_gd.vertices)
        assert st.aligned_to(yeast_gd.vertices) is st
        unlabelled = stats_from_moments(st.n, st.s)
        assert unlabelled.aligned_to(yeast_gd.vertices) is unlabelled
