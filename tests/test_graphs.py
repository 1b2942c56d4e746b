import numpy as np
import pytest
from hypothesis import given, strategies as st

import covgraph as cg
from covgraph.graphs import (
    CompleteSetFamily,
    CovarianceGraph,
    GraphError,
    cliques,
    free_index_set,
    graph_from_matrix,
    parse_graph_text,
    singleton_family,
    spouses,
    validate_family,
)
from covgraph.icf import _plan

from conftest import random_graph
from oracles import brute_force_cliques, non_spouses, spouses_of_set


@st.composite
def small_graphs(draw):
    p = draw(st.integers(min_value=1, max_value=8))
    labels = [f"v{k}" for k in range(p)]
    all_pairs = [(labels[i], labels[j]) for i in range(p) for j in range(i + 1, p)]
    edges = draw(st.lists(st.sampled_from(all_pairs), unique=True, max_size=len(all_pairs))) if all_pairs else []
    return CovarianceGraph(labels, edges)


class TestConstruction:
    def test_vertex_order_is_declaration_order(self):
        g = CovarianceGraph(["b", "a", "c"])
        assert g.vertices == ("b", "a", "c")
        assert g.index("a") == 1

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            CovarianceGraph(["a", "b"], [("a", "a")])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(GraphError, match="unknown vertex label 'z'"):
            CovarianceGraph(["a", "b"], [("a", "z")])

    def test_rejects_duplicate_vertices(self):
        with pytest.raises(GraphError):
            CovarianceGraph(["a", "a"])

    def test_adjacency_readonly(self, fig1):
        with pytest.raises(ValueError):
            fig1.adjacency[0, 1] = True


class TestSpouses:
    def test_fig1_vertex3(self, fig1):
        assert set(spouses(fig1, "3")) == {"1", "4"}

    def test_edgeless(self):
        g = CovarianceGraph(["a", "b", "c"])
        assert spouses(g, "b") == ()

    def test_complete_graph(self):
        g = CovarianceGraph(["1", "2", "3"], [("1", "2"), ("1", "3"), ("2", "3")])
        assert set(spouses(g, "2")) == {"1", "3"}

    def test_unknown_vertex_names_label(self, fig1):
        with pytest.raises(GraphError, match="'9'"):
            spouses(fig1, "9")

    @given(small_graphs())
    def test_partition(self, g):
        for v in g.vertices:
            spo = set(spouses(g, v))
            nsp = set(non_spouses(g, v))
            assert spo.isdisjoint(nsp)
            assert v not in spo and v not in nsp
            assert spo | nsp | {v} == set(g.vertices)


class TestSpousesOfSet:
    def test_fig1_c34(self, fig1):
        assert set(spouses_of_set(fig1, {"3", "4"})) == {"1", "2"}

    def test_unknown_member_names_label(self, fig1):
        with pytest.raises(GraphError, match="'q'"):
            spouses_of_set(fig1, {"1", "q"})

    def test_fig1_c13(self, fig1):
        assert set(spouses_of_set(fig1, {"1", "3"})) == {"4"}

    def test_whole_vertex_set(self, fig1):
        assert spouses_of_set(fig1, fig1.vertices) == ()

    @given(small_graphs())
    def test_partition_of_set(self, g):
        c = set(g.vertices[: max(1, g.p // 2)])
        spo = set(spouses_of_set(g, c))
        assert spo == {g.vertices[j] for j in _plan(g, [g.index(v) for v in c]).spo}
        assert spo.isdisjoint(c)
        rest = set(g.vertices) - c - spo
        # no edges between c and rest
        for a in c:
            for b in rest:
                assert not g.has_edge(a, b)


class TestFreeIndexSet:
    def test_fig1_order_and_count(self, fig1):
        fis = free_index_set(fig1)
        assert fis.pairs == ((0, 0), (1, 1), (2, 2), (3, 3), (0, 2), (1, 3), (2, 3))
        assert len(fis) == fig1.p + fig1.n_edges == 7

    def test_edgeless(self):
        g = CovarianceGraph([f"x{i}" for i in range(5)])
        assert free_index_set(g).pairs == tuple((i, i) for i in range(5))

    def test_complete_three(self):
        g = CovarianceGraph(["1", "2", "3"], [("1", "2"), ("1", "3"), ("2", "3")])
        assert len(free_index_set(g)) == 6

    @given(small_graphs())
    def test_idempotent_and_sized(self, g):
        a = free_index_set(g)
        b = free_index_set(g)
        assert a == b
        assert len(a) == g.p + g.n_edges
        for i, j in a.pairs:
            assert i == j or g.adjacency[i, j]


class TestCliques:
    def test_fig1(self, fig1):
        got = {frozenset(c) for c in cliques(fig1)}
        assert got == {frozenset({"1", "3"}), frozenset({"3", "4"}), frozenset({"2", "4"})}

    def test_edgeless_gives_singletons(self):
        g = CovarianceGraph(["a", "b", "c"])
        assert cliques(g).sets == (("a",), ("b",), ("c",))

    def test_complete_gives_whole_set(self):
        g = CovarianceGraph(["1", "2", "3"], [("1", "2"), ("1", "3"), ("2", "3")])
        assert cliques(g).sets == (("1", "2", "3"),)

    def test_union_covers_vertices(self, fig1):
        assert validate_family(fig1, cliques(fig1)) is None

    def test_deterministic_order(self, fig1):
        assert cliques(fig1).sets == cliques(fig1).sets

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng.integers(2, 9), rng, edge_prob=0.5)
        got = sorted(tuple(g.index(v) for v in c) for c in cliques(g))
        assert got == brute_force_cliques(g)


class TestValidateFamily:
    def test_mixed_family_ok(self, fig1):
        fam = CompleteSetFamily((("1",), ("2",), ("3", "4")))
        assert validate_family(fig1, fam) is None

    def test_incomplete_set_reports_pair(self, fig1):
        bad = validate_family(fig1, [("1", "2")])
        assert bad is not None and bad.kind == "incomplete"
        assert set(bad.pair) == {"1", "2"}
        assert "not adjacent" in bad.message

    def test_missing_vertex_reports_coverage(self, fig1):
        bad = validate_family(fig1, [("1", "3"), ("2", "4")])
        assert bad is None  # covers everything
        bad = validate_family(fig1, [("1", "3"), ("2",)])
        assert bad is not None and bad.kind == "coverage"
        assert bad.missing == ("4",)

    def test_unknown_vertex(self, fig1):
        bad = validate_family(fig1, [("1", "z")])
        assert bad is not None and bad.kind == "unknown-vertex"

    def test_singleton_family_valid(self, fig1):
        assert validate_family(fig1, singleton_family(fig1)) is None


class TestParsing:
    def test_round_trip(self, fig1):
        text = "# demo\nvertex 1\nvertex 2\nvertex 3\nvertex 4\nedge 1 3\nedge 3 4\nedge 2 4\n"
        assert parse_graph_text(text) == fig1

    def test_duplicate_edge_rejected(self):
        text = "vertex a\nvertex b\nedge a b\nedge b a\n"
        with pytest.raises(GraphError, match="duplicate edge"):
            parse_graph_text(text)

    def test_vertex_after_edge_rejected(self):
        text = "vertex a\nvertex b\nedge a b\nvertex c\n"
        with pytest.raises(GraphError, match="after edges"):
            parse_graph_text(text)

    def test_unknown_declaration(self):
        with pytest.raises(GraphError, match="unknown declaration"):
            parse_graph_text("node a\n")

    def test_unknown_edge_label_cites_line(self):
        with pytest.raises(GraphError, match="'c'"):
            parse_graph_text("vertex a\nvertex b\nedge a c\n")


class TestFamilyParsing:
    def test_round_trip(self, fig1):
        from covgraph.graphs import parse_family_text

        fam = parse_family_text("1,3\n# comment\n2 , 4\n", fig1)
        assert fam.sets == (("1", "3"), ("2", "4"))

    def test_unknown_label_rejected(self, fig1):
        from covgraph.graphs import parse_family_text

        with pytest.raises(GraphError, match="'z'"):
            parse_family_text("1,z\n", fig1)

    def test_empty_label_rejected(self, fig1):
        from covgraph.graphs import parse_family_text

        with pytest.raises(GraphError, match="empty label"):
            parse_family_text("1,,3\n", fig1)


class TestGraphFromMatrix:
    def test_pattern_read_off(self, sigma_chain, fig1):
        g = graph_from_matrix(sigma_chain, labels=["1", "2", "3", "4"])
        assert g == fig1

    def test_default_labels(self):
        g = graph_from_matrix(np.eye(3))
        assert g.vertices == ("X1", "X2", "X3")
        assert g.n_edges == 0
