import pathlib

import numpy as np
import pytest
from hypothesis import settings

import covgraph as cg

settings.register_profile("ci", deadline=None, derandomize=True, max_examples=40)
settings.load_profile("ci")

DATA = pathlib.Path(__file__).parent / "data"

# Four-variable pattern with edges 1-3, 3-4, 2-4 and its dispersion matrix.
SIGMA_CHAIN = np.array(
    [
        [1.0, 0.0, 0.5, 0.0],
        [0.0, 1.0, 0.0, 0.25],
        [0.5, 0.0, 1.0, 0.75],
        [0.0, 0.25, 0.75, 1.0],
    ]
)


@pytest.fixture(scope="session")
def fig1():
    return cg.CovarianceGraph(["1", "2", "3", "4"], [("1", "3"), ("3", "4"), ("2", "4")])


@pytest.fixture(scope="session")
def sigma_chain():
    return SIGMA_CHAIN.copy()


@pytest.fixture(scope="session")
def yeast_stats():
    from covgraph.io import load_stats

    return load_stats(DATA / "table1.stats")


@pytest.fixture(scope="session")
def yeast_gd():
    from covgraph.io import load_graph

    return load_graph(DATA / "gd.graph")


@pytest.fixture(scope="session")
def yeast_gs():
    from covgraph.io import load_graph

    return load_graph(DATA / "gs.graph")


def random_spd(p, n, rng):
    """Wishart-style sample covariance, PD for n >= p."""
    x = rng.standard_normal((n, p))
    x = x - x.mean(axis=0)
    return x.T @ x / n


def random_stats(p, n, rng, sigma=None):
    if sigma is None:
        sigma = np.eye(p)
    low = np.linalg.cholesky(sigma)
    x = rng.standard_normal((n, p)) @ low.T
    return cg.sample_stats(x)


def random_patterned_cov(g, rng, scale=0.4):
    """Random PD matrix inside the graph's pattern: diagonal dominant."""
    p = g.p
    m = np.zeros((p, p))
    for i, j in zip(*np.nonzero(np.triu(g.adjacency, 1))):
        m[i, j] = m[j, i] = scale * rng.uniform(-1.0, 1.0)
    m += np.diag(rng.uniform(1.0, 2.0, p) + np.abs(m).sum(axis=1))
    return m


def random_graph(p, rng, edge_prob=0.4, labels=None):
    labels = labels or [f"v{k}" for k in range(p)]
    edges = [
        (labels[i], labels[j])
        for i in range(p)
        for j in range(i + 1, p)
        if rng.uniform() < edge_prob
    ]
    return cg.CovarianceGraph(labels, edges)


def lattice_graph(side):
    """side x side grid, vertices in row-major order, edges to the right and below."""
    labels = [f"L{r}_{c}" for r in range(side) for c in range(side)]
    edges = [(labels[k], labels[k + 1]) for k in range(len(labels)) if (k + 1) % side]
    edges += [(labels[k], labels[k + side]) for k in range(len(labels) - side)]
    return cg.CovarianceGraph(labels, edges)
