import numpy as np
import pytest
import scipy.linalg

import covgraph as cg
import covgraph.anderson
from covgraph.anderson import fit_anderson
from covgraph.graphs import CovarianceGraph, free_index_set
from covgraph.icf import fit_icf
from covgraph.model import ModelError, hessian, kron_form, stats_from_moments, stationarity_residual
from covgraph.results import FitConfig, stop_reason

from conftest import SIGMA_CHAIN, lattice_graph, random_patterned_cov, random_spd, random_stats
from oracles import SingularSystemError, anderson_system, pair_quadratic, plain_anderson

# Iterations of fit_anderson on each case with its system built by
# the oracle pair_quadratic(k, k, pairs); kron_form must keep them.
ITERATIONS = {"gd": 15, "gs": 15, "lattice": 14}


def complete_graph(p):
    labels = [str(i + 1) for i in range(p)]
    return CovarianceGraph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]])


def case_inputs(case, yeast_stats, yeast_gd, yeast_gs):
    if case == "lattice":
        g = lattice_graph(10)
        rng = np.random.default_rng(9)
        return random_stats(100, 300, rng, random_patterned_cov(g, rng)), g
    g = yeast_gd if case == "gd" else yeast_gs
    return yeast_stats.aligned_to(g.vertices), g


class TestPlannedSystem:
    @pytest.mark.parametrize("case", ITERATIONS)
    def test_matches_pair_quadratic(self, case, yeast_stats, yeast_gd, yeast_gs):
        st, g = case_inputs(case, yeast_stats, yeast_gd, yeast_gs)
        fis = free_index_set(g)
        k = np.linalg.inv(st.s)
        k = (k + k.T) / 2.0
        ref = pair_quadratic(k, k, fis.pairs)
        got = kron_form(k, fis)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("case", ITERATIONS)
    def test_hessian_mixed_term_matches_pair_quadratic(self, case, yeast_stats, yeast_gd, yeast_gs):
        # hessian reads K (x) K - K (x) T - T (x) K as the form of K and K - 2T (model._curvature)
        st, g = case_inputs(case, yeast_stats, yeast_gd, yeast_gs)
        est = fit_icf(st, g).estimate
        k = np.linalg.inv(est.sigma)
        k = (k + k.T) / 2.0
        t = k @ st.s @ k
        pairs = free_index_set(g).pairs
        ref = 0.5 * st.n * (pair_quadratic(k, k, pairs) - pair_quadratic(k, t, pairs) - pair_quadratic(t, k, pairs))
        assert np.abs(hessian(st, est) - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("case", ITERATIONS)
    def test_keeps_iterations_and_estimate(self, case, yeast_stats, yeast_gd, yeast_gs):
        st, g = case_inputs(case, yeast_stats, yeast_gd, yeast_gs)
        res = fit_anderson(st, g)
        assert res.converged
        assert res.iterations == ITERATIONS[case]
        sigma = plain_anderson(st, free_index_set(g), res.iterations)
        assert np.abs(res.sigma - sigma).max() <= 1e-10 * np.abs(sigma).max()


def three_gather_form(k, fis):
    """The whole-form formula that the block build of kron_form must match bit for bit."""
    k_rows = k.take(fis.rows, axis=0)
    b = k_rows.take(fis.cols, axis=1)
    out = k_rows.take(fis.rows, axis=1)
    out *= k.take(fis.cols, axis=0).take(fis.cols, axis=1)
    out += b * b.T
    out *= np.multiply.outer(fis.mult, 0.5 * fis.mult)
    return out


class TestBlockBuild:
    @pytest.mark.parametrize("kind", ["symmetric", "asymmetric", "lu-inverse"])
    @pytest.mark.parametrize("case", ["fig1", "gd", "gs", "lattice5"])
    def test_bits_match_the_three_gather_formula(self, case, kind, request):
        g = lattice_graph(5) if case == "lattice5" else request.getfixturevalue(
            {"fig1": "fig1", "gd": "yeast_gd", "gs": "yeast_gs"}[case]
        )
        fis = free_index_set(g)
        rng = np.random.default_rng(len(fis))
        if kind == "lu-inverse":
            # what fit_anderson passes: an inverse that is symmetric only to rounding
            k = np.linalg.inv(random_patterned_cov(g, rng))
        else:
            k = rng.standard_normal((g.p, g.p)) * np.exp(rng.uniform(-5.0, 5.0, (g.p, g.p)))
            if kind == "symmetric":
                k = k + k.T
        got = kron_form(k, fis)
        assert got.shape == (len(fis), len(fis))
        assert got.tobytes() == three_gather_form(k, fis).tobytes()
        if kind == "symmetric":
            assert np.array_equal(got, got.T)


class TestSolvePaths:
    @staticmethod
    def record_cholesky(monkeypatch):
        factored, original = [], covgraph.anderson._cholesky

        def recorded(a):
            low = original(a)
            factored.append(low is not None)
            return low

        monkeypatch.setattr("covgraph.anderson._cholesky", recorded)
        return factored

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_form_is_a_singular_system(self, bad, monkeypatch, fig1):
        # the entry lies in the triangle a lower Cholesky factor never reads
        def broken(k, fis):
            out = kron_form(k, fis)
            out[0, -1] = bad
            return out

        monkeypatch.setattr("covgraph.anderson.kron_form", broken)
        factored = self.record_cholesky(monkeypatch)
        st = stats_from_moments(50, random_spd(4, 50, np.random.default_rng(7)))
        res = fit_anderson(st, fig1)
        assert (res.detail, res.iterations, res.estimate) == ("singular-system", 1, None)
        assert factored == []

    def test_indefinite_form_is_solved_by_the_fallback(self, monkeypatch, fig1):
        fis = free_index_set(fig1)
        m = len(fis)
        rng = np.random.default_rng(8)
        q = np.linalg.qr(rng.standard_normal((m, m)))[0]
        form = (q * (np.arange(m) - 1.5)) @ q.T  # eigenvalues -1.5, -0.5, 0.5, ...
        form = (form + form.T) / 2.0
        monkeypatch.setattr("covgraph.anderson.kron_form", lambda k, f: form.copy())
        factored = self.record_cholesky(monkeypatch)
        s = random_spd(4, 50, rng)
        res = fit_anderson(stats_from_moments(50, s), fig1, FitConfig(max_iter=1))
        # at the identity start K S K is S, so the system is form x = adjoint(S)
        want = fis.expand(scipy.linalg.solve(form, fis.adjoint_vec(s), assume_a="sym"))
        assert factored == [False]
        assert (res.detail, res.iterations) == ("max-iter", 1)
        assert np.abs(res.sigma - want).max() <= 1e-13 * np.abs(want).max()


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
            assert res.sigma[i, j] == pytest.approx(s[i, j], abs=1e-12)

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
        assert np.all(res.sigma[off] == 0.0)

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

    def test_start_of_another_graph_rejected(self, fig1):
        st = stats_from_moments(50, random_spd(4, 50, np.random.default_rng(6)))
        other = cg.ConstrainedCovariance.identity(complete_graph(4))
        with pytest.raises(ModelError, match="different graph"):
            fit_anderson(st, fig1, FitConfig(start=other))


class TestStopRule:
    def test_non_positive_diagonal_is_never_a_small_step(self):
        m = np.diag([1.0, -2.0])
        assert stop_reason(m, m, lambda: 0.0, 1e-8) == (None, None)

    def test_small_step_outside_the_cone_is_not_pd(self):
        g = complete_graph(2)
        st = stats_from_moments(10, np.eye(2))
        m = np.array([[1.0, 2.0], [2.0, 1.0]])
        residual = lambda: stationarity_residual(st, cg.ConstrainedCovariance(g, m))  # noqa: E731
        assert stop_reason(m, m, residual, 1e-8) == ("not-pd", None)

    @pytest.mark.parametrize("module, fit", [("icf", fit_icf), ("anderson", fit_anderson)])
    def test_final_residual_is_read_once(self, module, fit, monkeypatch, yeast_stats, yeast_gd):
        # the residual the stop rule read is the one reported
        calls = []

        def counted(stats, sigma):
            calls.append(1)
            return stationarity_residual(stats, sigma)

        monkeypatch.setattr(f"covgraph.{module}.stationarity_residual", counted)
        st = yeast_stats.aligned_to(yeast_gd.vertices)
        res = fit(st, yeast_gd)
        assert res.converged
        assert len(calls) == 1
        assert res.residual == stationarity_residual(st, res.estimate)
