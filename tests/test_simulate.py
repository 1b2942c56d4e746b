from collections import Counter

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

from conftest import SIGMA_CHAIN


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


class TestRunSimulation:
    def test_truth_fitter_plumbing_gives_zero_error(self):
        spec = SimSpec(
            sigma_true=SIGMA_CHAIN, sample_sizes=(25,), replications=5, seed=1,
            methods=("ml-icf",),
        )
        fitters = {"ml-icf": lambda data: SIGMA_CHAIN.copy()}
        rep = run_simulation(spec, fitters=fitters)
        for e in rep.entries:
            assert e.bias == 0.0
            assert e.rmse == 0.0
            assert e.failures == 0

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
        assert rep.entries[0].failures == 3
        assert rep.entries[0].rmse == 0.0

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
        fails = rep.entries[0].failures
        assert 0 < fails <= 10  # feasible starting values are hard at n=10
