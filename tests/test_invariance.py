"""Estimates and stop reasons do not depend on units or on variable order.

Rescaling the variables by a positive diagonal D turns S into DSD; every
fitter must then return D sigma D with the same stop reason.  Relabelling
the variables must permute the estimate and keep the stop reason.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import covgraph as cg

from conftest import random_spd

FITTERS = {
    "ml-icf": cg.fit_icf,
    "ml-icf-multi": lambda stats, g: cg.fit_icf_multi(stats, g),
    "ml-anderson": cg.fit_anderson,
    "dual": cg.fit_dual,
}
# The ML stop leaves the estimate within about 1e-7 of the optimum on the
# correlation scale and the dual stop within about 1e-8.
GAP = 1e-6


def correlation_gap(a, b):
    """Max |a_ij - b_ij| / sqrt(b_ii b_jj)."""
    sd = np.sqrt(np.diag(b))
    return float((np.abs(a - b) / np.outer(sd, sd)).max())


@st.composite
def transformed_problems(draw):
    """A graph, a seed, a diagonal scale in 1e-4..1e8 and a vertex order."""
    p = draw(st.integers(min_value=2, max_value=6))
    labels = [f"v{k}" for k in range(p)]
    pairs = [(labels[i], labels[j]) for i in range(p) for j in range(i + 1, p)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    exponents = draw(st.lists(st.floats(min_value=-4.0, max_value=8.0), min_size=p, max_size=p))
    perm = draw(st.permutations(range(p)))
    return cg.CovarianceGraph(labels, edges), seed, 10.0 ** np.array(exponents), list(perm)


def permuted_graph(g, perm):
    return cg.CovarianceGraph([g.vertices[i] for i in perm], g.edges)


@pytest.mark.parametrize("method", sorted(FITTERS))
@given(transformed_problems())
def test_rescaled_and_permuted_sample_transforms_the_fit(method, problem):
    g, seed, d, perm = problem
    fit = FITTERS[method]
    n = 3 * g.p + 10
    s = random_spd(g.p, n, np.random.default_rng(seed))
    base = fit(cg.stats_from_moments(n, s), g)
    scaled = fit(cg.stats_from_moments(n, d[:, None] * s * d[None, :]), g)
    permuted = fit(cg.stats_from_moments(n, s[np.ix_(perm, perm)]), permuted_graph(g, perm))
    assert scaled.detail == base.detail
    assert permuted.detail == base.detail
    if base.sigma is not None:
        assert correlation_gap(scaled.sigma / np.outer(d, d), base.sigma) <= GAP
        assert correlation_gap(permuted.sigma, base.sigma[np.ix_(perm, perm)]) <= GAP


@given(transformed_problems())
def test_rescaled_and_permuted_columns_transform_the_el_fit(problem):
    g, seed, d, perm = problem
    data = np.random.default_rng(seed).standard_normal((40, g.p))
    outcomes = []
    for x, graph in ((data, g), (data * d, g), (data[:, perm], permuted_graph(g, perm))):
        try:
            outcomes.append(cg.fit_el(x, graph))
        except cg.ELInfeasibleError:
            outcomes.append(None)
    base, scaled, permuted = outcomes
    if base is None:
        assert scaled is None and permuted is None
        return
    assert scaled.detail == permuted.detail == base.detail
    assert correlation_gap(scaled.sigma / np.outer(d, d), base.sigma) <= GAP
    assert correlation_gap(permuted.sigma, base.sigma[np.ix_(perm, perm)]) <= GAP


@pytest.mark.parametrize("method", sorted(FITTERS))
@pytest.mark.parametrize("graph", ["gd", "gs"])
def test_yeast_in_units_scaled_by_1e8(method, graph, yeast_stats, request):
    # at the old absolute stop rules ml-icf ran out of sweeps here,
    # ml-anderson out of iterations, and dual stopped after one cycle
    g = request.getfixturevalue(f"yeast_{graph}")
    stats = yeast_stats.aligned_to(g.vertices)
    c = 1e8
    base = FITTERS[method](stats, g)
    big = FITTERS[method](cg.stats_from_moments(stats.n, c * stats.s), g)
    assert base.detail == big.detail == "converged"
    assert big.iterations <= 200
    if method == "dual":  # Newton steps, like the fitting pass, do not see units
        assert big.iterations == base.iterations
    assert np.abs(big.sigma / c - base.sigma).max() <= 1e-6 * np.abs(base.sigma).max()
