import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from covgraph.graphs import CovarianceGraph, cliques, free_index_set
import covgraph.icf as icf
import covgraph.model as model
from covgraph.anderson import fit_anderson
from covgraph.icf import (
    _kernel,
    _newton,
    _plan,
    _plans,
    _squarem,
    _sweep,
    _update,
    fit_icf,
    icf_update_vertex,
)
from covgraph.icf_multi import fit_icf_multi
from covgraph.model import (
    ConstrainedCovariance,
    ModelError,
    PatternViolationError,
    _cholesky,
    _curvature,
    _point,
    kron_form,
    profile_loglik,
    sample_stats,
    stats_from_moments,
    stationarity_residual,
)
from covgraph.results import FitConfig

from conftest import SIGMA_CHAIN, lattice_graph, random_graph, random_patterned_cov, random_spd
from oracles import (
    brute_force_ml,
    pair_quadratic,
    fit_best_start,
    forest_ancestors,
    forest_graph_ml,
    icf_sweep,
    pseudo_variables_gram,
    random_starts,
    section_maximize,
)


def complete_graph(p):
    labels = [str(i + 1) for i in range(p)]
    return CovarianceGraph(labels, [(a, b) for i, a in enumerate(labels) for b in labels[i + 1:]])


def family_blocks(g, family):
    if family == "vertex":
        return [[v] for v in range(g.p)]
    return [[g.index(v) for v in block] for block in cliques(g)]


def assert_inverse_kept(stats, g, blocks, sweeps):
    """Drive the engine as a fit does and check K after every update."""
    plans = [_plan(g, b) for b in blocks]
    m = np.eye(g.p)
    for _ in range(sweeps):
        k = _point(m, "iterate").inv
        for plan in plans:
            _update(stats.s, m, k, plan)
            exact = np.linalg.inv(m)
            assert np.abs(k - exact).max() <= 1e-12 * np.abs(exact).max()


class TestPseudoVariablesGram:
    def test_identity_rest_gives_plain_sample_blocks(self, fig1):
        rng = np.random.default_rng(0)
        s = random_spd(4, 60, rng)
        st = stats_from_moments(60, s)
        cross, gram = pseudo_variables_gram(st, fig1, np.eye(3), "3")
        spo = [fig1.index(v) for v in ("1", "4")]
        assert np.allclose(cross, s[2, spo])
        assert np.allclose(gram, s[np.ix_(spo, spo)])

    def test_matches_data_space_construction(self, fig1):
        # oracle: build the transformed covariates from raw data and
        # take plain cross products
        rng = np.random.default_rng(1)
        low = np.linalg.cholesky(SIGMA_CHAIN)
        data = rng.standard_normal((40, 4)) @ low.T
        st = sample_stats(data)
        sigma = random_patterned_cov(fig1, rng)
        iv = fig1.index("1")
        rest = [1, 2, 3]
        spo = np.flatnonzero(fig1.adjacency[iv]).tolist()
        sigma_rest = sigma[np.ix_(rest, rest)]
        cross, gram = pseudo_variables_gram(st, fig1, sigma_rest, "1")
        centered = data - data.mean(axis=0)
        y_rest = centered[:, rest].T
        spo_in_rest = [rest.index(v) for v in spo]
        z = np.linalg.inv(sigma_rest)[spo_in_rest, :] @ y_rest
        assert np.allclose(cross, centered[:, iv] @ z.T / 40, atol=1e-12)
        assert np.allclose(gram, z @ z.T / 40, atol=1e-12)

    def test_p2_complete(self):
        g = complete_graph(2)
        s = np.array([[2.0, 0.6], [0.6, 1.5]])
        st = stats_from_moments(10, s)
        cross, gram = pseudo_variables_gram(st, g, np.array([[1.0]]), "1")
        assert gram[0, 0] == pytest.approx(s[1, 1])
        assert cross[0] == pytest.approx(s[0, 1])

    def test_gram_pd_for_pd_sample(self, fig1):
        rng = np.random.default_rng(2)
        st = stats_from_moments(50, random_spd(4, 50, rng))
        sigma = random_patterned_cov(fig1, rng)
        _, gram = pseudo_variables_gram(st, fig1, sigma[1:, 1:], "1")
        assert np.linalg.eigvalsh(gram).min() > 0

    def test_no_spouse_vertex_rejected(self):
        g = CovarianceGraph(["a", "b", "c"], [("b", "c")])
        st = stats_from_moments(10, np.eye(3))
        with pytest.raises(ModelError, match="no spouses"):
            pseudo_variables_gram(st, g, np.eye(2), "a")

    def test_only_spouse_components_are_inverted(self):
        # the component of the induced subgraph that holds no spouses is
        # never touched: a singular far block must not break the call
        g = CovarianceGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        rng = np.random.default_rng(20)
        st = sample_stats(rng.standard_normal((40, 4)))
        sigma_rest = np.eye(3)
        sigma_rest[1, 2] = sigma_rest[2, 1] = 1.0  # c,d block exactly singular
        cross, gram = pseudo_variables_gram(st, g, sigma_rest, "a")
        assert gram.shape == (1, 1) and np.isfinite(gram[0, 0])
        assert cross[0] == pytest.approx(st.s[0, 1])  # identity spouse block
        # the engine's refit of a does not read the far component either
        rows = []
        for r in (0.0, 0.9):
            m = np.eye(4)
            m[2, 3] = m[3, 2] = r
            rows.append(icf_update_vertex(st, ConstrainedCovariance(g, m), "a").sigma[0])
        assert np.abs(rows[0] - rows[1]).max() <= 1e-14

    @pytest.mark.parametrize("graph", ["fig1", "yeast_gd"])
    def test_engine_update_uses_the_oracle_moments(self, graph, request):
        # a vertex refit is the least-squares fit on the oracle's moments:
        # sigma_i,spo = gram^-1 cross, and sigma_ii adds the residual variance
        g = request.getfixturevalue(graph)
        rng = np.random.default_rng(22)
        st = stats_from_moments(60, random_spd(g.p, 60, rng))
        sigma = random_patterned_cov(g, rng)
        for iv, i in enumerate(g.vertices):
            spo = np.flatnonzero(g.adjacency[iv])
            if spo.size == 0:
                continue
            rest = [j for j in range(g.p) if j != iv]
            sigma_rest = sigma[np.ix_(rest, rest)]
            cross, gram = pseudo_variables_gram(st, g, sigma_rest, i)
            coef = np.linalg.solve(gram, cross)
            in_rest = [rest.index(j) for j in spo]
            inv_spo = np.linalg.inv(sigma_rest)[np.ix_(in_rest, in_rest)]
            new = icf_update_vertex(st, ConstrainedCovariance(g, sigma), i).sigma
            scale = np.abs(new).max()
            assert np.abs(new[iv, spo] - coef).max() <= 1e-10 * scale
            diag = st.s[iv, iv] - cross @ coef + coef @ inv_spo @ coef
            assert new[iv, iv] == pytest.approx(diag, rel=1e-10)

    def test_off_pattern_sigma_rest_rejected(self, fig1):
        st = stats_from_moments(50, SIGMA_CHAIN)
        sigma_rest = np.eye(3)  # rest order 2, 3, 4
        sigma_rest[0, 1] = sigma_rest[1, 0] = 0.1  # 2 and 3 are not adjacent
        with pytest.raises(PatternViolationError, match=r"\(2, 3\)"):
            pseudo_variables_gram(st, fig1, sigma_rest, "1")


class TestVertexUpdate:
    def test_isolated_vertex_takes_sample_variance(self):
        g = CovarianceGraph(["a", "b", "c"], [("b", "c")])
        rng = np.random.default_rng(3)
        s = random_spd(3, 30, rng)
        st = stats_from_moments(30, s)
        out = icf_update_vertex(st, ConstrainedCovariance.identity(g), "a")
        assert out.sigma[0, 0] == pytest.approx(s[0, 0])
        assert np.allclose(out.sigma[0, 1:], 0.0)

    def test_fixed_point_when_sample_in_pattern(self, fig1):
        st = stats_from_moments(100, SIGMA_CHAIN)
        cur = ConstrainedCovariance(fig1, SIGMA_CHAIN)
        for v in fig1.vertices:
            cur = icf_update_vertex(st, cur, v)
        assert np.abs(cur.sigma - SIGMA_CHAIN).max() < 1e-12

    def test_single_update_increases_loglik_and_is_section_max(self, fig1):
        rng = np.random.default_rng(4)
        s = SIGMA_CHAIN + 0.05 * random_spd(4, 80, rng)
        st = stats_from_moments(80, s)
        start = ConstrainedCovariance.identity(fig1)
        before = profile_loglik(st, start)
        updated = icf_update_vertex(st, start, "3")
        after = profile_loglik(st, updated)
        assert after >= before - 1e-10
        # the section for vertex 3 varies the free pairs (3,3), (1,3), (3,4)
        fis = free_index_set(fig1)
        idx = [fis.pairs.index(pair) for pair in ((2, 2), (0, 2), (2, 3))]
        oracle_val, _ = section_maximize(st, start, idx, seed=0)
        assert after == pytest.approx(oracle_val, abs=1e-7)

    def test_update_keeps_rest_block_exactly(self, fig1):
        rng = np.random.default_rng(5)
        st = stats_from_moments(50, random_spd(4, 70, rng))
        start = ConstrainedCovariance(fig1, random_patterned_cov(fig1, rng))
        out = icf_update_vertex(st, start, "2")
        rest = [0, 2, 3]
        assert np.array_equal(out.sigma[np.ix_(rest, rest)], start.sigma[np.ix_(rest, rest)])


class TestFitIcf:
    def test_complete_graph_recovers_sample_cov(self):
        rng = np.random.default_rng(6)
        g = complete_graph(3)
        s = random_spd(3, 40, rng)
        st = stats_from_moments(40, s)
        res = fit_icf(st, g)
        assert res.converged
        assert np.abs(res.sigma - s).max() < 1e-6

    def test_edgeless_graph_gives_diagonal(self):
        rng = np.random.default_rng(7)
        g = CovarianceGraph(["a", "b", "c"])
        s = random_spd(3, 40, rng)
        st = stats_from_moments(40, s)
        res = fit_icf(st, g)
        assert res.converged
        assert np.abs(res.sigma - np.diag(np.diag(s))).max() < 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_brute_force_optimizer(self, fig1, seed):
        rng = np.random.default_rng(40 + seed)
        st = stats_from_moments(100, random_spd(4, 100, rng))
        res = fit_icf(st, fig1)
        oracle_ll, oracle_sigma = brute_force_ml(st, fig1)
        assert res.loglik == pytest.approx(oracle_ll, abs=1e-6)
        assert np.abs(res.sigma - oracle_sigma).max() < 1e-4

    def test_monotone_and_pd_iterates(self):
        rng = np.random.default_rng(8)
        for trial in range(25):
            g = random_graph(rng.integers(2, 6), rng, edge_prob=0.5)
            st = stats_from_moments(50, random_spd(g.p, 3 * g.p + 10, rng))
            cur = ConstrainedCovariance.identity(g)
            ll = profile_loglik(st, cur)
            for sweep in range(4):
                for v in g.vertices:
                    cur = icf_update_vertex(st, cur, v)
                    nxt = profile_loglik(st, cur)
                    assert nxt >= ll - 1e-10
                    ll = nxt
                    assert np.linalg.eigvalsh(cur.sigma).min() > 0

    def test_zero_pattern_exact(self, fig1):
        rng = np.random.default_rng(9)
        st = stats_from_moments(60, random_spd(4, 60, rng))
        res = fit_icf(st, fig1)
        off = ~fig1.adjacency & ~np.eye(4, dtype=bool)
        assert np.all(res.sigma[off] == 0.0)

    def test_convergence_implies_small_residual(self, fig1):
        rng = np.random.default_rng(10)
        st = stats_from_moments(60, random_spd(4, 60, rng))
        cfg = FitConfig(tol=1e-8)
        res = fit_icf(st, fig1, cfg)
        assert res.converged
        assert res.residual <= 100 * cfg.tol
        assert stationarity_residual(st, res.estimate) <= 100 * cfg.tol

    def test_sweep_order_robustness(self, fig1):
        # same instance presented in a different vertex order reaches
        # the same maximum from the identity start
        rng = np.random.default_rng(11)
        s = random_spd(4, 90, rng)
        st1 = stats_from_moments(90, s, labels=("1", "2", "3", "4"))
        res1 = fit_icf(st1, fig1)
        perm = [2, 0, 3, 1]
        g2 = CovarianceGraph(
            [fig1.vertices[i] for i in perm],
            [("1", "3"), ("3", "4"), ("2", "4")],
        )
        st2 = stats_from_moments(90, s[np.ix_(perm, perm)], labels=g2.vertices)
        res2 = fit_icf(st2, g2)
        assert res1.loglik == pytest.approx(res2.loglik, abs=1e-6)

    def test_refuses_singular_sample(self, fig1):
        data = np.tile(np.arange(4.0), (9, 1)) + np.arange(9.0)[:, None]
        st = sample_stats(data)
        assert not st.s_pos_def
        with pytest.raises(ModelError, match="positive definite"):
            fit_icf(st, fig1)

    def test_max_iter_reached_reports_not_converged(self, fig1):
        rng = np.random.default_rng(12)
        st = stats_from_moments(60, random_spd(4, 60, rng))
        res = fit_icf(st, fig1, FitConfig(max_iter=1, record_trace=True))
        assert not res.converged
        assert res.iterations == 1
        assert res.trace is not None and len(res.trace) == 1

    def test_trace_non_decreasing(self, fig1):
        rng = np.random.default_rng(13)
        st = stats_from_moments(60, random_spd(4, 60, rng))
        res = fit_icf(st, fig1, FitConfig(record_trace=True))
        trace = np.array(res.trace)
        assert np.all(np.diff(trace) >= -1e-10)

    def test_multi_start_returns_best(self, fig1):
        rng = np.random.default_rng(14)
        st = stats_from_moments(60, random_spd(4, 60, rng))
        starts = [np.eye(4), random_patterned_cov(fig1, rng), random_patterned_cov(fig1, rng)]
        best = fit_best_start(st, fig1, starts)
        singles = [fit_icf(st, fig1, FitConfig(start=s)) for s in starts]
        assert best.loglik == pytest.approx(max(r.loglik for r in singles), abs=1e-12)

    def test_random_starts_are_valid_and_deterministic(self, fig1):
        a = random_starts(fig1, 3, seed=9)
        b = random_starts(fig1, 3, seed=9)
        assert len(a) == 3
        for x, y in zip(a, b):
            assert np.array_equal(x.sigma, y.sigma)  # seeded
            assert np.linalg.eigvalsh(x.sigma).min() > 0
        rng = np.random.default_rng(16)
        st = stats_from_moments(60, random_spd(4, 60, rng))
        res = fit_best_start(st, fig1, random_starts(fig1, 2, seed=1))
        assert res.converged

    def test_disconnected_graph_fits_blockwise(self):
        # the fit of a disconnected pattern factorizes over components
        g = CovarianceGraph(["a", "b", "c", "d"], [("a", "b"), ("c", "d")])
        rng = np.random.default_rng(21)
        data = rng.standard_normal((40, 4))
        joint = fit_icf(sample_stats(data), g)
        g_ab = CovarianceGraph(["a", "b"], [("a", "b")])
        part = fit_icf(sample_stats(data[:, :2]), g_ab)
        assert np.abs(joint.sigma[:2, :2] - part.sigma).max() < 1e-10
        assert np.all(joint.sigma[:2, 2:] == 0.0)

    def test_stats_aligned_by_labels(self, fig1):
        rng = np.random.default_rng(15)
        s = random_spd(4, 70, rng)
        st = stats_from_moments(70, s, labels=("1", "2", "3", "4"))
        perm = [3, 1, 0, 2]
        st_shuffled = stats_from_moments(
            70, s[np.ix_(perm, perm)], labels=tuple(np.array(st.labels)[perm])
        )
        r1 = fit_icf(st, fig1)
        r2 = fit_icf(st_shuffled, fig1)
        assert np.abs(r1.sigma - r2.sigma).max() < 1e-12


class TestStopReason:
    @pytest.mark.parametrize("fitter", [fit_icf, fit_icf_multi])
    def test_converged_and_max_iter(self, fitter, yeast_stats, yeast_gd):
        res = fitter(yeast_stats, yeast_gd)
        assert res.converged and res.detail == "converged"
        res = fitter(yeast_stats, yeast_gd, cfg=FitConfig(max_iter=1))
        assert not res.converged and res.detail == "max-iter"

    def test_stalled_when_tol_is_below_rounding(self):
        # Newton steps reach S to rounding, and the first that raises the
        # log-likelihood by no more than rounding hands over to a sweep
        # cycle.  The single clique block takes the sample covariance
        # exactly, so the cycle's second sweep does not move while the
        # residual stays at rounding level, far above 100 * tol
        rng = np.random.default_rng(17)
        st = stats_from_moments(40, random_spd(3, 40, rng))
        res = fit_icf_multi(st, complete_graph(3), cfg=FitConfig(tol=1e-30))
        assert res.detail == "stalled" and res.newton_steps > 0
        assert res.iterations == res.newton_steps + 2
        assert not res.converged and 0.0 < res.residual < 1e-12

    @pytest.mark.parametrize(
        "tol, message", [(0.0, "positive"), (float("nan"), "positive"), (float("inf"), "finite")]
    )
    def test_tol_must_be_finite_and_positive(self, tol, message):
        # an infinite tol would pass every stop test after one sweep
        with pytest.raises(ModelError, match=f"tol must be {message}"):
            FitConfig(tol=tol)

    @pytest.mark.parametrize("tol", [True, np.True_, "1e-8", 1e-8 + 0j, np.array([1e-8, 1e-8]), None])
    def test_tol_must_be_a_real_number(self, tol):
        # True was kept as True, and the others raised TypeError or ValueError
        with pytest.raises(ModelError, match="tol must be a real number"):
            FitConfig(tol=tol)

    @pytest.mark.parametrize("tol", [1, np.float32(1e-4), np.int64(1)])
    def test_real_tol_is_stored_as_a_float(self, tol):
        assert type(FitConfig(tol=tol).tol) is float

    @pytest.mark.parametrize("max_iter", [2.5, True, np.float64(3.0), "5", None])
    def test_max_iter_must_be_an_integer(self, max_iter):
        # 2.5 used to fail mid-fit with TypeError, and True ran one sweep
        with pytest.raises(ModelError, match="max_iter must be an integer"):
            FitConfig(max_iter=max_iter)

    def test_numpy_integer_max_iter_is_stored_as_an_int(self, yeast_stats, yeast_gd):
        cfg = FitConfig(max_iter=np.int64(1))
        assert type(cfg.max_iter) is int and cfg.max_iter == 1
        assert fit_icf(yeast_stats, yeast_gd, cfg).iterations == 1


class TestReadOff:
    """A fit reads its trace and its stop rule's residual off the point it keeps."""

    @pytest.mark.parametrize("fitter", [fit_icf, fit_icf_multi])
    @pytest.mark.parametrize("graph", ["yeast_gd", "yeast_gs"])
    def test_the_trace_factorises_nothing(self, fitter, graph, yeast_stats, request, monkeypatch):
        g = request.getfixturevalue(graph)
        chol, counts = model._chol, []
        for record_trace in (False, True):
            calls = []
            monkeypatch.setattr(model, "_chol", lambda *args: calls.append(1) or chol(*args))
            fitter(yeast_stats, g, cfg=FitConfig(record_trace=record_trace))
            counts.append(len(calls))
        assert counts[0] == counts[1]

    @pytest.mark.parametrize("fitter", [fit_icf, fit_icf_multi])
    @pytest.mark.parametrize("graph", ["yeast_gd", "yeast_gs"])
    def test_trace_and_residual_end_at_the_reported_values(self, fitter, graph, yeast_stats, request):
        g = request.getfixturevalue(graph)
        res = fitter(yeast_stats, g, cfg=FitConfig(record_trace=True))
        assert res.converged
        assert res.trace[-1] == res.loglik
        assert res.residual == stationarity_residual(yeast_stats, res.estimate)


class TestSquarem:
    @pytest.mark.parametrize("graph", ["gd", "gs"])
    def test_yeast_sweeps_and_ascent(self, graph, yeast_stats, request):
        # plain ICF takes 115 (gd) and 109 (gs) sweeps here
        g = request.getfixturevalue(f"yeast_{graph}")
        res = fit_icf(yeast_stats, g, FitConfig(record_trace=True))
        assert res.detail == "converged" and res.iterations <= 40
        assert len(res.trace) == res.iterations
        assert np.all(np.diff(np.array(res.trace)) >= -1e-10)
        off = ~g.adjacency & ~np.eye(g.p, dtype=bool)
        assert np.all(res.sigma[off] == 0.0)
        assert res.rejected_extrapolations >= 0

    def test_zero_second_difference_ends(self):
        # the single clique block takes S, so from start = S no sweep moves
        rng = np.random.default_rng(18)
        st_ = stats_from_moments(40, random_spd(3, 40, rng))
        res = fit_icf_multi(st_, complete_graph(3), cfg=FitConfig(start=st_.s))
        assert res.converged and res.iterations <= 2
        assert res.rejected_extrapolations == 0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_step_guard(self):
        # no candidate is tried when |v| is zero, also by underflow of a
        # subnormal v, or when alpha is not finite (|r| overflows)
        s = np.eye(2)
        off = np.array([[0.0, 1.0], [1.0, 0.0]])
        for x0, x1, x2 in [
            (np.eye(2), 2.0 * np.eye(2), 3.0 * np.eye(2)),
            (np.eye(2), 2.0 * np.eye(2), 3.0 * np.eye(2) + 5e-324 * off),
            (np.eye(2), 1e200 * np.eye(2), 2e200 * np.eye(2) + 0.5 * off),
        ]:
            pts = [_point(x, "iterate") for x in (x0, x1, x2)]
            kept, rejected = _squarem(s, *pts)
            assert kept is pts[2] and not rejected

    @pytest.mark.parametrize("last", [1.4, 1.1])
    def test_rejected_step_keeps_the_second_sweep(self, last):
        # the candidate overshoots the optimum at I: to a point with a
        # lower log-likelihood (1.4) or out of the cone (1.1)
        s = np.eye(2)
        pts = [_point(d * np.eye(2), "iterate") for d in (3.0, 2.0, last)]
        kept, rejected = _squarem(s, *pts)
        assert kept is pts[2] and rejected
        good = [_point(d * np.eye(2), "iterate") for d in (3.0, 2.0, 1.5)]
        kept, rejected = _squarem(s, *good)
        assert _kernel(s, kept) > _kernel(s, good[2]) and not rejected


class TestUpdateErrors:
    """The typed errors of a block update, from crafted inputs."""

    @pytest.mark.parametrize(
        "k_scale, s, message",
        [
            (-1.0, np.eye(2), "incoming conditional covariance is singular"),
            (1.0, np.diag([1.0, 0.0]), "generalized least squares system is not positive definite"),
            (1.0, np.ones((2, 2)), "conditional covariance collapsed"),
        ],
    )
    def test_update_raises(self, k_scale, s, message):
        plan = _plan(complete_graph(2), [0])
        with pytest.raises(ModelError, match=message):
            _update(s, np.eye(2), k_scale * np.eye(2), plan)


class TestMaintainedInverse:
    @pytest.mark.parametrize("family", ["vertex", "clique"])
    @pytest.mark.parametrize("graph", ["gd", "gs"])
    def test_tracks_inverse_on_yeast(self, graph, family, yeast_stats, request):
        g = request.getfixturevalue(f"yeast_{graph}")
        st_ = yeast_stats.aligned_to(g.vertices)
        assert_inverse_kept(st_, g, family_blocks(g, family), sweeps=5)

    @pytest.mark.parametrize("family", ["vertex", "clique"])
    def test_tracks_inverse_on_lattice(self, family):
        g = lattice_graph(6)
        rng = np.random.default_rng(61)
        sigma = random_patterned_cov(g, rng)
        data = rng.standard_normal((150, g.p)) @ np.linalg.cholesky(sigma).T
        assert_inverse_kept(sample_stats(data), g, family_blocks(g, family), sweeps=3)

    def test_lean_update_on_a_p100_lattice(self):
        # at p = 100 an update refreshes the caller's K in place and, reading
        # the rest inverse only through its spouse columns, allocates less
        # than one p x p array
        g = lattice_graph(10)
        rng = np.random.default_rng(63)
        sigma = random_patterned_cov(g, rng)
        st_ = sample_stats(rng.standard_normal((300, g.p)) @ np.linalg.cholesky(sigma).T)
        for family in ("vertex", "clique"):
            assert_inverse_kept(st_, g, family_blocks(g, family), sweeps=2)
            plans = [_plan(g, b) for b in family_blocks(g, family)]
            m = np.eye(g.p)
            k = _point(m, "iterate").inv
            for plan in plans:
                tracemalloc.start()
                try:
                    _update(st_.s, m, k, plan)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak < m.nbytes, (plan.block, peak)

    def test_whole_component_blocks(self):
        # {a, b} is a component and f is isolated: clique blocks with no
        # spouses take the sample block, in both fitters and in K
        g = CovarianceGraph(list("abcdef"), [("a", "b"), ("c", "d"), ("d", "e")])
        rng = np.random.default_rng(62)
        low = np.linalg.cholesky(random_spd(6, 60, rng))
        st_ = sample_stats(rng.standard_normal((50, 6)) @ low.T)
        cfg = FitConfig(tol=1e-12)
        single, multi = fit_icf(st_, g, cfg), fit_icf_multi(st_, g, cfg=cfg)
        assert single.converged and multi.converged
        assert np.abs(single.sigma - multi.sigma).max() < 1e-10
        assert np.array_equal(multi.sigma[:2, :2], st_.s[:2, :2])
        assert multi.sigma[5, 5] == st_.s[5, 5]
        for family in ("vertex", "clique"):
            assert_inverse_kept(st_, g, family_blocks(g, family), sweeps=3)


@st.composite
def patterned_problems(draw):
    p = draw(st.integers(min_value=2, max_value=7))
    labels = [f"v{k}" for k in range(p)]
    pairs = [(labels[i], labels[j]) for i in range(p) for j in range(i + 1, p)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    family = draw(st.sampled_from(["vertex", "clique"]))
    return CovarianceGraph(labels, edges), seed, family


@given(patterned_problems())
def test_one_sweep_matches_direct_inverse_oracle(problem):
    g, seed, family = problem
    rng = np.random.default_rng(seed)
    st_ = stats_from_moments(3 * g.p + 10, random_spd(g.p, 3 * g.p + 10, rng))
    start = random_patterned_cov(g, rng)
    blocks = family_blocks(g, family)
    got = _sweep(st_.s, _plans(g, blocks), _point(start, "iterate")).sigma
    expected = icf_sweep(st_.s, start, g.adjacency, blocks)
    assert np.abs(got - expected).max() <= 1e-10 * np.abs(expected).max()


def unit_free(a, b):
    d = np.sqrt(np.diag(b))
    return np.abs((a - b) / np.outer(d, d)).max()


def forest_problem(parent, rng):
    """The covariance graph of a rooted forest, in a shuffled vertex order, with n = 4p rows.

    Returns the graph, the stats and the forest ML estimate in the graph's order.
    """
    p = len(parent)
    labels = [f"x{k}" for k in rng.permutation(p)]  # vertex v of the forest is labels[v]
    edges = [(labels[v], labels[a]) for v, chain in enumerate(forest_ancestors(parent)) for a in chain]
    g = CovarianceGraph(sorted(labels, key=lambda lab: int(lab[1:])), edges)
    data = rng.standard_normal((4 * p, p)) @ np.linalg.cholesky(random_spd(p, 3 * p, rng)).T
    st_ = sample_stats(data, labels=labels)
    perm = [labels.index(v) for v in g.vertices]
    return g, st_, forest_graph_ml(st_.s, parent)[np.ix_(perm, perm)]


# Two p = 30 forests: a shallow one (three roots, nine children, eighteen
# grandchildren), whose fits take Newton steps, and a deep one (a chain of
# ten that forks into two chains of ten), whose free entries are too many
# for them in both the vertexwise and the clique fitter.
SHALLOW_30 = [-1, -1, -1] + [v % 3 for v in range(3, 12)] + [3 + v % 9 for v in range(12, 30)]
DEEP_30 = [-1] + list(range(9)) + [9] + list(range(10, 19)) + [9] + list(range(20, 29))


class TestForestOracle:
    """ML fits on covariance graphs of rooted forests, against the exact regression estimate."""

    TOL = 1e-10

    def check_fits(self, g, st_, ref):
        cfg = FitConfig(tol=self.TOL)
        fits = {
            "ml-icf": fit_icf(st_, g, cfg),
            "ml-icf-multi": fit_icf_multi(st_, g, cfg=cfg),
            "singletons": fit_icf_multi(st_, g, [(v,) for v in g.vertices], cfg),
        }
        anderson = fit_anderson(st_, g, cfg)
        if anderson.converged:
            fits["ml-anderson"] = anderson
        for name, res in fits.items():
            assert res.detail == "converged", name
            assert unit_free(res.sigma, ref) <= 100.0 * self.TOL, name
        return fits

    @pytest.mark.parametrize("seed", range(60))
    def test_random_forests(self, seed):
        rng = np.random.default_rng(seed)
        p = int(rng.integers(3, 13))
        parent = [-1] + [int(rng.integers(-1, v)) for v in range(1, p)]
        g, st_, ref = forest_problem(parent, rng)
        off = ~g.adjacency & ~np.eye(p, dtype=bool)
        assert np.all(ref[off] == 0.0)
        self.check_fits(g, st_, ref)

    @pytest.mark.parametrize("parent, newton", [(SHALLOW_30, True), (DEEP_30, False)], ids=["shallow", "deep"])
    def test_p30_on_each_side_of_the_gate(self, parent, newton):
        fits = self.check_fits(*forest_problem(parent, np.random.default_rng(30)))
        for name in ("ml-icf", "ml-icf-multi"):
            assert (fits[name].newton_steps > 0) == newton, name


def small_sample_problem(seed):
    """A random graph on 4 to 10 vertices with only 2 to 5 more rows than vertices."""
    rng = np.random.default_rng(seed)
    p = int(rng.integers(4, 11))
    n = p + int(rng.integers(2, 6))
    g = random_graph(p, rng, edge_prob=0.5)
    return g, sample_stats(rng.standard_normal((n, p)) @ np.linalg.cholesky(random_spd(p, 3 * p, rng)).T)


class TestNewtonSteps:
    def test_trace_is_monotone_through_newton_steps_and_sweeps(self, yeast_stats, yeast_gd):
        # in the small-sample problems some full Newton steps stay in the
        # cone but lower the log-likelihood, and are halved or refused
        g = lattice_graph(6)
        rng = np.random.default_rng(64)
        st_ = sample_stats(rng.standard_normal((100, g.p)) @ np.linalg.cholesky(random_patterned_cov(g, rng)).T)
        problems = [(yeast_stats, yeast_gd), (st_, g)]
        problems += [small_sample_problem(seed)[::-1] for seed in (15, 65, 70)]
        for stats, graph in problems:
            for fitter in (fit_icf, fit_icf_multi):
                res = fitter(stats, graph, cfg=FitConfig(record_trace=True))
                assert res.converged and 0 < res.newton_steps < res.iterations
                assert len(res.trace) == res.iterations
                assert np.all(np.diff(np.array(res.trace)) >= -1e-10)

    @pytest.mark.parametrize("seed", [0, 1, 2, 4])
    def test_fit_ends_on_a_sweep_that_keeps_a_component_block_exact(self, seed):
        # a complete component is a block without spouses, which a sweep
        # sets to its sample block exactly; a Newton step would leave it
        # off by rounding, so the fit must end on a sweep
        rng = np.random.default_rng(seed)
        k, q = int(rng.integers(2, 5)), int(rng.integers(3, 7))
        labels = [f"v{i}" for i in range(k + q)]
        edges = [(labels[i], labels[j]) for i in range(k) for j in range(i + 1, k)]
        edges += [(a, b) for i, a in enumerate(labels[k:], k) for b in labels[i + 1:] if rng.uniform() < 0.5]
        g = CovarianceGraph(labels, edges)
        p = k + q
        st_ = sample_stats(rng.standard_normal((3 * p, p)) @ np.linalg.cholesky(random_spd(p, 3 * p, rng)).T)
        for tol in (1e-8, 1e-12):
            res = fit_icf_multi(st_, g, cfg=FitConfig(tol=tol))
            assert res.converged and res.newton_steps > 0
            assert np.array_equal(res.sigma[:k, :k], st_.s[:k, :k])

    def test_scoring_step_where_the_negated_hessian_does_not_factorise(self, fig1):
        # at sigma = I with S = I / 100, -H is (n / 2) B(I, -0.98 I):
        # negative definite, so the step solves kron_form(K) d = K S K - K
        s = 0.01 * np.eye(4)
        fis = free_index_set(fig1)
        x = _point(np.eye(4), "iterate")
        k = x.inv.copy()
        assert _cholesky(_curvature(k, k @ s @ k, fis)) is None
        step, gained = _newton(s, fis, x)
        scoring = fis.expand(np.linalg.solve(kron_form(k, fis), fis.adjoint_vec(k @ s @ k - k)))
        assert np.abs(step.sigma - (x.sigma + scoring)).max() <= 1e-15
        assert gained and np.allclose(step.sigma, s, rtol=0.0, atol=1e-15)
        assert np.array_equal(x.inv, k)

    @pytest.mark.parametrize("graph", ["yeast_gd", "yeast_gs"])
    def test_a_step_at_the_optimum_is_kept_without_a_gain(self, graph, yeast_stats, request):
        # there the step is rounding alone, and so is any loss it makes
        # (on gd it lowers the kernel): kept, and marked as no gain, never
        # halved away and refused
        g = request.getfixturevalue(graph)
        res = fit_icf(yeast_stats, g, FitConfig(tol=1e-12))
        x = _point(np.array(res.sigma), "iterate")
        kept = _newton(yeast_stats.aligned_to(g.vertices).s, free_index_set(g), x)
        assert kept is not None
        step, gained = kept
        assert not gained and unit_free(step.sigma, x.sigma) < 1e-12

    def test_refused_step_falls_back_to_a_sweep(self):
        # after the first step of this small-sample problem -H factorises,
        # but neither Newton's step nor any of its halvings stays in the
        # cone without lowering the log-likelihood, so the second
        # iteration is a sweep
        g, st_ = small_sample_problem(27)
        fis = free_index_set(g)
        first = fit_icf(st_, g, FitConfig(max_iter=1))
        assert first.newton_steps == 1
        x = _point(np.array(first.sigma), "iterate")
        k = x.inv
        assert _cholesky(_curvature(k, k @ st_.s @ k, fis)) is not None
        assert _newton(st_.s, fis, x) is None
        res = fit_icf(st_, g, FitConfig(max_iter=2))
        assert res.iterations == 2 and res.newton_steps == 1
        assert fit_icf(st_, g).converged

    def test_always_refused_steps_give_the_plain_accelerated_ascent(self, yeast_stats, yeast_gd, monkeypatch):
        plain = {}
        with monkeypatch.context() as patch:
            patch.setattr(icf, "_NEWTON_GATE", 0.0)
            for fitter in (fit_icf, fit_icf_multi):
                plain[fitter] = fitter(yeast_stats, yeast_gd, cfg=FitConfig(record_trace=True))
                assert plain[fitter].newton_steps == 0
        # neither Newton's system nor the scoring one factorises
        monkeypatch.setattr(icf, "_curvature", lambda k, t, fis: -np.eye(len(fis)))
        monkeypatch.setattr(icf, "kron_form", lambda k, fis: -np.eye(len(fis)))
        for fitter in (fit_icf, fit_icf_multi):
            res = fitter(yeast_stats, yeast_gd, cfg=FitConfig(record_trace=True))
            assert res.newton_steps == 0 and res.converged
            assert res.iterations == plain[fitter].iterations and res.trace == plain[fitter].trace
            assert np.array_equal(res.sigma, plain[fitter].sigma)

    def test_dense_graph_above_the_gate_forms_no_free_pair_array(self):
        rng = np.random.default_rng(65)
        g = random_graph(40, rng, edge_prob=0.7)
        st_ = sample_stats(rng.standard_normal((120, g.p)) @ np.linalg.cholesky(random_patterned_cov(g, rng, 0.2)).T)
        m = len(free_index_set(g))
        singletons = [(v,) for v in g.vertices]
        for fit in (lambda: fit_icf(st_, g), lambda: fit_icf_multi(st_, g, singletons)):
            fit()  # the block plans are kept on the graph after the first fit
            tracemalloc.start()
            try:
                res = fit()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert res.converged and res.newton_steps == 0
            assert peak < 8 * m * m, peak


def lattice_copies(seed):
    """A 10 x 10 lattice problem with n = 300 and two copies of it.

    The first copy rescales the columns of the data by exp(U(-3, 3)); the
    second lists the graph's vertices in another order.
    """
    g = lattice_graph(10)
    rng = np.random.default_rng(seed)
    low = np.linalg.cholesky(random_patterned_cov(g, rng))
    x = rng.standard_normal((300, g.p)) @ low.T
    labels = list(g.vertices)
    scaled = sample_stats(x * np.exp(rng.uniform(-3.0, 3.0, g.p)), labels)
    order = rng.permutation(g.p)
    permuted = CovarianceGraph([labels[i] for i in order], g.edges)
    return [(sample_stats(x, labels), g), (scaled, g), (sample_stats(x, labels), permuted)]


class TestUnitFreePath:
    """From diag(S), a fit takes the same steps whatever the units and the vertex order."""

    @staticmethod
    def counts(res):
        return res.iterations, res.newton_steps, res.rejected_extrapolations, res.detail

    @pytest.mark.parametrize("fitter", [fit_icf, fit_icf_multi])
    def test_counts_below_the_gate(self, fitter):
        fits = [fitter(st_, g) for st_, g in lattice_copies(1)]
        assert fits[0].converged and fits[0].newton_steps > 0
        assert [self.counts(res) for res in fits[1:]] == [self.counts(fits[0])] * 2

    @pytest.mark.parametrize("fitter", [fit_icf, fit_icf_multi])
    def test_counts_above_the_gate(self, fitter, monkeypatch):
        # the sweeps visit the vertices in the graph's order, so only the units change here
        monkeypatch.setattr(icf, "_NEWTON_GATE", 0.0)
        fits = [fitter(st_, g) for st_, g in lattice_copies(1)[:2]]
        assert fits[0].converged and fits[0].newton_steps == 0
        assert self.counts(fits[1]) == self.counts(fits[0])

    @pytest.mark.parametrize("fitter", [fit_icf, fit_icf_multi])
    def test_a_converged_fit_ends_on_one_sweep(self, fitter):
        # the step that gains no more than rounding hands over to the
        # sweep that stops the fit; the first cycle's sweeps are gone
        st_, g = lattice_copies(1)[0]
        res = fitter(st_, g)
        assert res.converged and res.iterations - res.newton_steps == 1


def four_term_form(x, y, fis):
    """The whole-form reference that the upper triangle of ``_curvature`` must match bit for bit.

    d_e d_f / 4 times (X_ik Y_jl + Y_ik X_jl) + (X_il Y_kj + X_kj Y_il)
    at the pairs e = (i, j) and f = (k, l), over all free pairs, d the
    edge doubling.  On a row of a diagonal pair (i = j) the two halves
    are the same sum in exact arithmetic when X and Y are symmetric, and
    the first half is read twice.
    """
    r, c = fis.rows, fis.cols
    first = x[np.ix_(r, r)] * y[np.ix_(c, c)] + y[np.ix_(r, r)] * x[np.ix_(c, c)]
    last = x[np.ix_(r, c)] * y[np.ix_(r, c)].T
    last += last.T
    out = np.where((r != c)[:, None], last, first)
    out += first
    out *= np.multiply.outer(fis.mult, 0.25 * fis.mult)
    return out


class TestCurvatureBuild:
    @pytest.mark.parametrize("case", ["fig1", "gd", "gs", "lattice5"])
    def test_upper_triangle_bits_match_the_four_term_sum(self, case, request):
        # K symmetric and K S K unsymmetrised, as _newton passes them
        g = lattice_graph(5) if case == "lattice5" else request.getfixturevalue(
            {"fig1": "fig1", "gd": "yeast_gd", "gs": "yeast_gs"}[case]
        )
        fis = free_index_set(g)
        rng = np.random.default_rng(len(fis))
        k = _point(random_patterned_cov(g, rng), "iterate").inv
        s = random_spd(g.p, 3 * g.p, rng)
        t = k @ s @ k
        got = _curvature(k, t, fis)
        ref = four_term_form(k, 2.0 * t - k, fis)
        upper = np.triu_indices(len(fis))
        assert got[upper].tobytes() == ref[upper].tobytes()
        y = 2.0 * t - k
        exact = (pair_quadratic(k, y, fis.pairs) + pair_quadratic(y, k, fis.pairs)) / 2.0
        assert np.abs(got - exact).max() <= 1e-13 * np.abs(exact).max()
        if case == "lattice5":
            assert not np.array_equal(t, t.T)  # the rounding asymmetry the upper triangle ignores

    @pytest.mark.parametrize("case", ["fig1", "gd", "gs", "lattice5"])
    def test_equal_matrices_give_the_kron_form(self, case, request):
        g = lattice_graph(5) if case == "lattice5" else request.getfixturevalue(
            {"fig1": "fig1", "gd": "yeast_gd", "gs": "yeast_gs"}[case]
        )
        fis = free_index_set(g)
        rng = np.random.default_rng(len(fis))
        k = rng.standard_normal((g.p, g.p))
        k = k + k.T
        assert _curvature(k, k, fis).tobytes() == kron_form(k, fis).tobytes()
