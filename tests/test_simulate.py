import dataclasses
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

import covgraph as cg
from covgraph.model import ModelError, sample_stats
from covgraph.simulate import (
    SimSpec,
    _rep_rng,
    _run_one_rep,
    default_fitters,
    run_simulation,
    sample_gaussian,
    sample_t,
)

from conftest import SIGMA_CHAIN, lattice_graph, random_patterned_cov
from oracles import EntryRecord, aggregate_entry_loop, report_table_entry_loop


class TestSampling:
    def test_gaussian_identity_lln_band(self):
        rng = np.random.default_rng(0)
        n = 40000
        data = sample_gaussian(np.eye(3), n, rng)
        s = sample_stats(data).s
        assert np.abs(s - np.eye(3)).max() < 5.0 / np.sqrt(n)

    def test_gaussian_seed_determinism(self):
        a = sample_gaussian(SIGMA_CHAIN, 50, _rep_rng(11, 3))
        b = sample_gaussian(SIGMA_CHAIN, 50, _rep_rng(11, 3))
        assert np.array_equal(a, b)

    def test_gaussian_chain_sigma_large_sample(self):
        rng = np.random.default_rng(1)
        data = sample_gaussian(SIGMA_CHAIN, 100000, rng)
        s = sample_stats(data).s
        assert np.abs(s - SIGMA_CHAIN).max() < 0.02

    def test_gaussian_rejects_non_pd(self):
        with pytest.raises(ModelError):
            sample_gaussian(-np.eye(2), 5, np.random.default_rng(0))

    def test_t_large_df_close_to_gaussian(self):
        rng = np.random.default_rng(2)
        data = sample_t(np.eye(1), 10000, 20000, rng)
        stat, _ = scipy.stats.kstest(data[:, 0], "norm")
        assert stat < 0.02

    def test_t_df5_covariance_scaling(self):
        rng = np.random.default_rng(3)
        data = sample_t(SIGMA_CHAIN, 5, 100000, rng)
        s = sample_stats(data).s
        assert np.abs(s - (5.0 / 3.0) * SIGMA_CHAIN).max() < 0.05

    def test_t_seed_determinism(self):
        a = sample_t(SIGMA_CHAIN, 5, 30, _rep_rng(9, 1))
        b = sample_t(SIGMA_CHAIN, 5, 30, _rep_rng(9, 1))
        assert np.array_equal(a, b)

    def test_negative_seed_accepted(self):
        spec = SimSpec(
            sigma_true=SIGMA_CHAIN, sample_sizes=(20,), replications=2, seed=-3,
            methods=("dual",),
        )
        a = run_simulation(spec).to_table()
        b = run_simulation(spec).to_table()
        assert a == b


class TestSimSpec:
    def test_truth_scaling_for_t(self):
        spec = SimSpec(sigma_true=SIGMA_CHAIN, distribution="t", df=5, replications=1)
        assert np.allclose(spec.truth, SIGMA_CHAIN * 5.0 / 3.0)

    def test_gaussian_truth_unscaled(self):
        spec = SimSpec(sigma_true=SIGMA_CHAIN, replications=1)
        assert np.allclose(spec.truth, SIGMA_CHAIN)

    def test_rejects_low_df_for_t(self):
        with pytest.raises(ModelError, match="df"):
            SimSpec(sigma_true=SIGMA_CHAIN, distribution="t", df=4, replications=1)

    def test_rejects_unknown_method(self):
        with pytest.raises(ModelError, match="unknown methods"):
            SimSpec(sigma_true=SIGMA_CHAIN, methods=("nope",), replications=1)

    def test_rejects_repeated_methods(self):
        # a repeated method would fit each replication twice and print every row twice
        with pytest.raises(ModelError, match=r"repeated methods: \['ml-icf'\]"):
            SimSpec(sigma_true=SIGMA_CHAIN, methods=("ml-icf", "dual", "ml-icf"), replications=1)

    def test_rejects_repeated_sample_sizes(self):
        # two different rows for one (method, n, i, j), and the stored errors of one lost
        with pytest.raises(ModelError, match=r"repeated sample sizes: \[20\]"):
            SimSpec(sigma_true=SIGMA_CHAIN, sample_sizes=(20, 30, 20), replications=1)

    @pytest.mark.parametrize("field, what", [("methods", "methods"), ("sample_sizes", "sample sizes")])
    def test_rejects_an_empty_design(self, field, what):
        # an empty design would run nothing and report a header without rows
        with pytest.raises(ModelError, match=f"no {what} given"):
            SimSpec(sigma_true=SIGMA_CHAIN, replications=1, **{field: ()})

    def test_rejects_sample_sizes_below_two(self):
        # below two observations no covariance can be estimated; every bad size is named
        with pytest.raises(ModelError, match=r"sample sizes must be at least 2: \[-5, 0, 1\]"):
            SimSpec(sigma_true=SIGMA_CHAIN, sample_sizes=(1, 20, -5, 0), replications=1)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("replications", 2.5, "replications must be an integer, not 2.5"),
            ("replications", True, "replications must be an integer, not True"),
            ("seed", 1.5, "seed must be an integer, not 1.5"),
            ("sample_sizes", (10.5,), "sample sizes must be an integer, not 10.5"),
            ("sample_sizes", (20, True), "sample sizes must be an integer, not True"),
        ],
    )
    def test_rejects_non_integer_settings(self, field, value, message):
        # these used to raise TypeError inside run_simulation, or run with True as 1
        with pytest.raises(ModelError, match=f"^{message}$"):
            SimSpec(sigma_true=SIGMA_CHAIN, **{"replications": 1, field: value})

    def test_numpy_integer_settings_run_as_ints(self):
        # numpy integers used to overflow in the replication streams
        spec = SimSpec(
            sigma_true=SIGMA_CHAIN, sample_sizes=(np.int64(20),), replications=np.int64(2), seed=np.int64(3),
            methods=("dual",),
        )
        assert [type(v) for v in (spec.replications, spec.seed, *spec.sample_sizes)] == [int, int, int]
        want = SimSpec(sigma_true=SIGMA_CHAIN, sample_sizes=(20,), replications=2, seed=3, methods=("dual",))
        assert run_simulation(spec).to_table() == run_simulation(want).to_table()


class TestRunSimulation:
    def test_truth_fitter_plumbing_gives_zero_error(self):
        spec = SimSpec(
            sigma_true=SIGMA_CHAIN, sample_sizes=(25,), replications=5, seed=1,
            methods=("ml-icf",),
        )
        fitters = {"ml-icf": lambda data: SIGMA_CHAIN.copy()}
        rep = run_simulation(spec, fitters=fitters)
        bias, rmse, failures = rep.cells[("ml-icf", 25)]
        assert np.all(bias == 0.0)
        assert np.all(rmse == 0.0)
        assert failures == 0

    def test_determinism_byte_identical(self):
        spec = SimSpec(
            sigma_true=SIGMA_CHAIN, sample_sizes=(30,), replications=8, seed=5,
            methods=("ml-icf", "dual"),
        )
        a = run_simulation(spec).to_table()
        b = run_simulation(spec).to_table()
        assert a == b

    def test_aggregation_independent_of_execution_order(self):
        spec = SimSpec(
            sigma_true=SIGMA_CHAIN, sample_sizes=(30,), replications=6, seed=2,
            methods=("ml-icf",),
        )
        graph = cg.graph_from_matrix(spec.sigma_true)
        fitters = default_fitters(graph)
        forward = {
            rep: _run_one_rep(spec, graph, 30, rep + 1, fitters)
            for rep in range(spec.replications)
        }
        backward = {
            rep: _run_one_rep(spec, graph, 30, rep + 1, fitters)
            for rep in reversed(range(spec.replications))
        }
        for rep in forward:
            assert np.array_equal(forward[rep]["ml-icf"], backward[rep]["ml-icf"])

    def test_failures_counted_not_fatal(self):
        spec = SimSpec(
            sigma_true=SIGMA_CHAIN, sample_sizes=(20,), replications=6, seed=3,
            methods=("ml-icf",),
        )
        calls = {"k": 0}

        def flaky(data):
            calls["k"] += 1
            if calls["k"] % 2 == 0:
                raise ModelError("boom")
            return SIGMA_CHAIN.copy()

        rep = run_simulation(spec, fitters={"ml-icf": flaky})
        bias, rmse, failures = rep.cells[("ml-icf", 20)]
        assert failures == 3
        assert rmse[0] == 0.0

    def test_failure_reasons_name_the_cause(self):
        spec = SimSpec(
            sigma_true=SIGMA_CHAIN, sample_sizes=(20,), replications=4, seed=3,
            methods=("ml-icf", "dual"),
        )
        outcomes = iter([
            SIGMA_CHAIN.copy(), ModelError("boom"), -np.eye(4), np.linalg.LinAlgError("x"),
        ])

        def scripted(data):
            out = next(outcomes)
            if isinstance(out, Exception):
                raise out
            return out

        rep = run_simulation(spec, fitters={"ml-icf": scripted, "dual": lambda d: SIGMA_CHAIN})
        assert rep.failure_reasons[("ml-icf", 20)] == [None, "ModelError", "not-pd", "LinAlgError"]
        assert rep.failure_reasons[("dual", 20)] == [None] * 4
        ok = ~np.isnan(rep.raw_errors[("ml-icf", 20)][:, 0, 0])
        assert ok.tolist() == [True, False, False, False]

    def test_failure_reasons_carry_the_stop_reason(self):
        # at n = 6 some Anderson fits stop without converging; the report
        # names their stop reasons, not the exception type
        spec = SimSpec(
            sigma_true=SIGMA_CHAIN, sample_sizes=(6,), replications=40, seed=5,
            methods=("ml-anderson",),
        )
        reasons = run_simulation(spec).failure_reasons[("ml-anderson", 6)]
        assert Counter(r for r in reasons if r is not None) == {"max-iter": 6, "singular-system": 3}

    def test_fits_are_pattern_respecting(self):
        spec = SimSpec(
            sigma_true=SIGMA_CHAIN, sample_sizes=(40,), replications=4, seed=4,
            methods=("ml-icf", "dual"),
        )
        rep = run_simulation(spec)
        # errors at constrained entries must equal 0 - 0 exactly
        for m in ("ml-icf", "dual"):
            raw = rep.raw_errors[(m, 40)]
            ok = ~np.isnan(raw[:, 0, 0])
            assert np.all(raw[ok][:, 0, 1] == 0.0)
            assert np.all(raw[ok][:, 0, 3] == 0.0)
            assert np.all(raw[ok][:, 1, 2] == 0.0)

    def test_report_metadata_carries_scaled_truth(self):
        spec = SimSpec(
            sigma_true=SIGMA_CHAIN, distribution="t", df=5, sample_sizes=(20,),
            replications=2, seed=6, methods=("dual",),
        )
        text = run_simulation(spec).to_table()
        assert format(5.0 / 3.0, ".17g") in text  # the scaled (1,1) entry
        assert "df 5" in text

    def test_el_small_sample_failures_counted(self):
        spec = SimSpec(
            sigma_true=SIGMA_CHAIN, sample_sizes=(10,), replications=10, seed=3,
            methods=("el",),
        )
        rep = run_simulation(spec)
        fails = rep.cells[("el", 10)][2]
        assert 0 < fails <= 10  # feasible starting values are hard at n=10

    def test_el_fit_that_did_not_converge_counts_as_failure(self, monkeypatch):
        import covgraph.simulate as sim

        def stalled(data, graph):
            fit = cg.fit_el(data, graph)
            return dataclasses.replace(fit, detail="stalled")

        monkeypatch.setattr(sim, "fit_el", stalled)
        spec = SimSpec(sigma_true=SIGMA_CHAIN, sample_sizes=(100,), replications=1, seed=3, methods=("el",))
        rep = run_simulation(spec)
        assert rep.failure_reasons[("el", 100)] == ["stalled"]
        assert rep.cells[("el", 100)][2] == 1

    @pytest.mark.parametrize(
        "methods, calls",
        [(("ml-icf", "ml-anderson"), 0), (("ml-icf-multi", "dual"), 1), (("ml-icf", "dual"), 1)],
    )
    def test_cliques_found_once_and_only_for_blockwise_fits(self, monkeypatch, methods, calls):
        # the search runs once per graph, however many clique-based fits read it
        import covgraph.graphs as graphs

        found = []
        search = graphs._maximal_cliques
        monkeypatch.setattr(graphs, "_maximal_cliques", lambda g: found.append(g) or search(g))
        spec = SimSpec(sigma_true=SIGMA_CHAIN, sample_sizes=(20, 30), replications=3, seed=7, methods=methods)
        rep = run_simulation(spec)
        assert len(found) == calls
        assert all(failures == 0 for _, _, failures in rep.cells.values())

    def test_graph_plans_built_once_per_graph(self, monkeypatch):
        import covgraph.dual as dual
        import covgraph.icf as icf
        import covgraph.simulate as sim

        plans, orders, family_reads = Counter(), [], []
        plan, order = icf._plan, dual._clique_order
        monkeypatch.setattr(icf, "_plan", lambda g, idx: plans.update([tuple(idx)]) or plan(g, idx))
        monkeypatch.setattr(dual, "_clique_order", lambda g, fam: orders.append(g) or order(g, fam))
        monkeypatch.setattr(sim, "cliques", lambda g: family_reads.append(g) or cg.cliques(g))
        spec = SimSpec(
            sigma_true=SIGMA_CHAIN, sample_sizes=(20, 30), replications=3, seed=7,
            methods=("ml-icf", "ml-icf-multi", "dual"),
        )
        rep = run_simulation(spec)
        assert all(failures == 0 for _, _, failures in rep.cells.values())
        # each vertex for ml-icf, each clique of the chain 1-3, 3-4, 2-4 for ml-icf-multi
        blocks = [(0,), (1,), (2,), (3,), (0, 2), (1, 3), (2, 3)]
        assert plans == Counter(blocks)
        assert len(orders) == 1
        # every blockwise fit still reads the family through the module's name
        assert len(family_reads) == 6

    def test_given_graph_is_fitted_and_names_the_entries(self, fig1):
        # sigma is zero on the edge 2-4, which the given graph keeps free
        sigma = SIGMA_CHAIN.copy()
        sigma[1, 3] = sigma[3, 1] = 0.0
        spec = SimSpec(sigma_true=sigma, sample_sizes=(30,), replications=4, seed=5, methods=("dual",))
        rep = run_simulation(spec, graph=fig1)
        assert rep.labels == fig1.vertices
        ok = ~np.isnan(rep.raw_errors[("dual", 30)][:, 0, 0])
        assert np.all(rep.raw_errors[("dual", 30)][ok][:, 1, 3] != 0.0)
        assert np.all(rep.raw_errors[("dual", 30)][ok][:, 0, 1] == 0.0)
        pattern = run_simulation(spec)
        assert pattern.labels == ("X1", "X2", "X3", "X4")
        assert np.all(pattern.raw_errors[("dual", 30)][:, 1, 3] == 0.0)

    def test_given_graph_must_cover_the_truth(self):
        sparse = cg.CovarianceGraph(["1", "2", "3", "4"], [("1", "3"), ("3", "4")])
        spec = SimSpec(sigma_true=SIGMA_CHAIN, replications=1, methods=("dual",))
        with pytest.raises(ModelError, match=r"nonzeros outside the graph's edges: entry \(2, 4\) must be zero"):
            run_simulation(spec, graph=sparse)
        with pytest.raises(ModelError, match="does not match graph with 3 vertices"):
            run_simulation(spec, graph=cg.CovarianceGraph(["a", "b", "c"]))


def cell_entries(report):
    """The report's cells read out as one oracle record per method, n and upper-triangle entry."""
    labels = report.labels
    iu, ju = np.triu_indices(len(labels))
    return [
        EntryRecord(method=m, n=n, i=labels[i], j=labels[j], bias=b, rmse=r, failures=failures)
        for (m, n), (bias, rmse, failures) in report.cells.items()
        for i, j, b, r in zip(iu.tolist(), ju.tolist(), bias.tolist(), rmse.tolist())
    ]


def entry_loop_report(report):
    """The report's entries rebuilt by the per-entry loop oracle, with its table written entry by entry."""
    entries = [
        e
        for n in report.spec.sample_sizes
        for m in report.spec.methods
        for e in aggregate_entry_loop(m, n, report.raw_errors[(m, n)], report.labels)
    ]
    return SimpleNamespace(entries=entries, to_table=lambda: report_table_entry_loop(report.spec, entries))


def bits(entries):
    return [(e.method, e.n, e.i, e.j, e.bias.hex(), e.rmse.hex(), e.failures) for e in entries]


def sample_cov_failing_on_positive_first_cell(data):
    # fails on about half the replications, whatever the call order
    if data[0, 0] > 0.0:
        raise ModelError("scripted failure")
    return sample_stats(data).s


class TestOnePassAggregation:
    @pytest.mark.parametrize("reps", [1, 7, 8, 200])
    def test_matches_entry_loop_bit_for_bit(self, reps):
        spec = SimSpec(
            sigma_true=SIGMA_CHAIN, distribution="t", sample_sizes=(15, 40), replications=reps,
            seed=11, methods=("ml-icf", "dual"),
        )
        fitters = {
            "ml-icf": sample_cov_failing_on_positive_first_cell,
            "dual": lambda data: sample_stats(data).s,
        }
        rep = run_simulation(spec, fitters=fitters)
        failures = {cell: f for cell, (_, _, f) in rep.cells.items()}
        if reps > 1:
            assert all(0 < failures[("ml-icf", n)] < reps for n in spec.sample_sizes)
        assert bits(cell_entries(rep)) == bits(entry_loop_report(rep).entries)

    def test_cell_with_every_replication_failed_is_nan(self):
        spec = SimSpec(
            sigma_true=SIGMA_CHAIN, sample_sizes=(20,), replications=5, seed=2,
            methods=("ml-icf", "dual"),
        )

        def always_fails(data):
            raise ModelError("boom")

        rep = run_simulation(spec, fitters={"ml-icf": always_fails, "dual": lambda d: sample_stats(d).s})
        bias, rmse, failures = rep.cells[("ml-icf", 20)]
        assert len(bias) == len(rmse) == 10
        assert np.all(np.isnan(bias)) and np.all(np.isnan(rmse)) and failures == 5
        assert bits(cell_entries(rep)) == bits(entry_loop_report(rep).entries)

    def test_labels_with_percent_signs_match_entry_loop(self):
        g = cg.CovarianceGraph(["a%", "%s", "100%%", "d"], [("a%", "100%%"), ("100%%", "d"), ("%s", "d")])
        spec = SimSpec(sigma_true=SIGMA_CHAIN, sample_sizes=(20,), replications=3, seed=4, methods=("dual",))
        rep = run_simulation(spec, fitters={"dual": lambda data: sample_stats(data).s}, graph=g)
        assert "\ta%\t100%%\t" in rep.to_table()
        assert rep.to_table() == entry_loop_report(rep).to_table()

    def test_lattice_dual_report_matches_entry_loop(self):
        g = lattice_graph(10)
        sigma = random_patterned_cov(g, np.random.default_rng(3))
        spec = SimSpec(sigma_true=sigma, sample_sizes=(300,), replications=3, seed=1000, methods=("dual",))
        rep = run_simulation(spec, graph=g)
        assert len(cell_entries(rep)) == 5050
        assert rep.to_table() == entry_loop_report(rep).to_table()
