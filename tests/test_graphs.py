import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

import covgraph as cg
from covgraph.graphs import (
    CovarianceGraph,
    GraphError,
    cliques,
    free_index_set,
    graph_from_matrix,
    label_order,
    parse_graph_text,
    validate_family,
)
from covgraph.emplik import missing_pairs
from covgraph.icf import _plan, icf_update_vertex
from covgraph.model import ConstrainedCovariance, stats_from_moments

from conftest import random_graph
from oracles import brute_force_cliques, free_index_arrays, non_spouses, spouses_of_set


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

    def test_pickle_round_trip_keeps_arrays_read_only(self, fig1):
        back = pickle.loads(pickle.dumps(fig1))
        assert back == fig1 and back.edges == fig1.edges
        fis = free_index_set(back)
        assert fis.pairs == free_index_set(fig1).pairs
        for a in (back.adjacency, fis.rows, fis.cols, fis.mult):
            assert not a.flags.writeable
            with pytest.raises(ValueError):
                a[0] = a[0]

    @pytest.mark.parametrize("graph", ["gd", "gs"])
    def test_pickle_round_trip_leaves_the_store_behind(self, graph, yeast_stats, yeast_gd, yeast_gs):
        # the store holds only what the graph determines: a copy starts
        # empty, rebuilds the same keys and refits to the same bits
        base = yeast_gd if graph == "gd" else yeast_gs
        g = CovarianceGraph(base.vertices, base.edges)
        st = yeast_stats.aligned_to(g.vertices)
        fits = [cg.fit_icf, cg.fit_icf_multi, cg.fit_dual]
        sigmas = [fit(st, g).sigma for fit in fits]
        back = pickle.loads(pickle.dumps(g))
        assert back == g and hash(back) == hash(g) and back.edges == g.edges
        assert back._store == {} and g._store
        for fit, sigma in zip(fits, sigmas):
            assert np.array_equal(fit(st, back).sigma, sigma)
        assert back._store.keys() == g._store.keys()


class TestLabelOrder:
    def test_permutation_reads_the_input_in_vertex_order(self):
        perm = label_order(("a", "b", "c"), ("c", "a", "b"), 3, "input")
        assert perm.tolist() == [1, 2, 0]
        assert [("c", "a", "b")[k] for k in perm] == ["a", "b", "c"]

    def test_unlabelled_input_takes_vertex_order_at_matching_size(self):
        assert label_order(("a", "b"), None, 2, "input").tolist() == [0, 1]
        with pytest.raises(GraphError, match="f.txt has 3 unlabelled variables for 2 vertices"):
            label_order(("a", "b"), None, 3, "f.txt")

    @pytest.mark.parametrize(
        "labels, message",
        [
            (("a", "b"), "missing 'c'"),
            (("a", "b", "c", "d"), "extra 'd'"),
            (("a", "b", "b", "c"), "duplicate 'b'"),
            (("b", "b", "x"), "missing 'a', 'c'; extra 'x'; duplicate 'b'"),
        ],
    )
    def test_mismatch_names_the_labels(self, labels, message):
        with pytest.raises(GraphError, match=f"f.txt labels do not match the graph's vertices: .*{message}"):
            label_order(("a", "b", "c"), labels, len(labels), "f.txt")

    def test_duplicate_vertex_declaration_names_the_label(self):
        with pytest.raises(GraphError, match="duplicate vertex labels in declaration: 'a'"):
            CovarianceGraph(["a", "b", "a"])


def plan_spouses(g, v):
    """Labels of the spouses a refit of vertex ``v`` reads: its block plan's ``spo``."""
    return tuple(g.vertices[j] for j in _plan(g, [g.index(v)]).spo)


class TestSpouses:
    def test_fig1_vertex3(self, fig1):
        assert plan_spouses(fig1, "3") == ("1", "4")

    def test_edgeless(self):
        g = CovarianceGraph(["a", "b", "c"])
        assert plan_spouses(g, "b") == ()

    def test_complete_graph(self):
        g = CovarianceGraph(["1", "2", "3"], [("1", "2"), ("1", "3"), ("2", "3")])
        assert plan_spouses(g, "2") == ("1", "3")

    def test_unknown_vertex_names_label(self, fig1):
        sigma = ConstrainedCovariance.identity(fig1)
        with pytest.raises(GraphError, match="'9'"):
            icf_update_vertex(stats_from_moments(10, np.eye(4)), sigma, "9")

    @given(small_graphs())
    def test_partition(self, g):
        for v in g.vertices:
            spo = set(plan_spouses(g, v))
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
                assert not g.adjacency[g.index(a), g.index(b)]


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

    @given(small_graphs(), st.randoms(use_true_random=False))
    def test_idempotent_and_sized(self, g, rnd):
        a = free_index_set(g)
        assert free_index_set(g) is a  # built once, with the graph
        assert len(a) == g.p + g.n_edges
        for i, j in a.pairs:
            assert i == j or g.adjacency[i, j]
        # edge pairs are plain ints in lexicographic order, as are the edges
        edge_pairs = a.pairs[g.p:]
        assert list(edge_pairs) == sorted(edge_pairs)
        assert all(type(i) is int and type(j) is int for i, j in edge_pairs)
        assert g.edges == tuple((g.vertices[i], g.vertices[j]) for i, j in edge_pairs)
        # the index arrays are the pairs, read-only, and match a plain loop
        assert list(zip(a.rows.tolist(), a.cols.tolist())) == list(a.pairs)
        assert np.array_equal(np.stack([a.rows, a.cols]), free_index_arrays(g))
        assert not (a.rows.flags.writeable or a.cols.flags.writeable or a.mult.flags.writeable)
        assert a.mult.tolist() == [1.0 if i == j else 2.0 for i, j in a.pairs]
        # the missing pairs are exactly the complement of the edges
        upper = {(i, j) for i in range(g.p) for j in range(i + 1, g.p)}
        missing = missing_pairs(g)
        assert list(missing) == sorted(upper - set(edge_pairs))
        # expanding a gather gives back a patterned matrix
        m = np.array([[rnd.uniform(-1.0, 1.0) for _ in range(g.p)] for _ in range(g.p)])
        m = m + m.T
        for i, j in missing:
            m[i, j] = m[j, i] = 0.0
        assert np.array_equal(a.expand(m[a.rows, a.cols]), m)
        assert np.array_equal(a.adjoint_vec(m), a.mult * m[a.rows, a.cols])


class TestCliques:
    def test_fig1(self, fig1):
        got = {frozenset(c) for c in cliques(fig1)}
        assert got == {frozenset({"1", "3"}), frozenset({"3", "4"}), frozenset({"2", "4"})}

    def test_edgeless_gives_singletons(self):
        g = CovarianceGraph(["a", "b", "c"])
        assert cliques(g) == (("a",), ("b",), ("c",))

    def test_complete_gives_whole_set(self):
        g = CovarianceGraph(["1", "2", "3"], [("1", "2"), ("1", "3"), ("2", "3")])
        assert cliques(g) == (("1", "2", "3"),)

    def test_union_covers_vertices(self, fig1):
        assert validate_family(fig1, cliques(fig1)) is None

    def test_deterministic_order(self, fig1):
        assert cliques(fig1) == cliques(fig1)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        g = random_graph(rng.integers(2, 9), rng, edge_prob=0.5)
        got = sorted(tuple(g.index(v) for v in c) for c in cliques(g))
        assert got == brute_force_cliques(g)


class TestValidateFamily:
    def test_mixed_family_ok(self, fig1):
        assert validate_family(fig1, (("1",), ("2",), ("3", "4"))) is None

    def test_incomplete_set_reports_pair(self, fig1):
        bad = validate_family(fig1, [("1", "2")])
        assert bad == "set ('1', '2') is not complete: 1 and 2 are not adjacent"

    def test_missing_vertex_reports_coverage(self, fig1):
        bad = validate_family(fig1, [("1", "3"), ("2", "4")])
        assert bad is None  # covers everything
        bad = validate_family(fig1, [("1", "3"), ("2",)])
        assert bad == "family does not cover vertices ('4',)"

    def test_unknown_vertex(self, fig1):
        bad = validate_family(fig1, [("1", "z")])
        assert bad == "set ('1', 'z') names an unknown vertex"

    def test_singleton_family_valid(self, fig1):
        assert validate_family(fig1, [(v,) for v in fig1.vertices]) is None

    @pytest.mark.parametrize("repeated", [("1", "1"), ("3", "1", "3")])
    def test_repeated_vertex_named(self, fig1, repeated):
        # a repeat is not a missing edge: name the vertex, not a non-adjacent pair
        bad = validate_family(fig1, [repeated, ("1", "3"), ("3", "4"), ("2", "4")])
        assert bad == f"set {repeated} names vertex {repeated[0]} more than once"


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

    @pytest.mark.parametrize("edge", ["edge a ZZ", "edge ZZ a", "edge ZZ ZZ"])
    def test_unknown_edge_label_cites_source_and_line(self, edge):
        with pytest.raises(GraphError, match=r"^g\.graph:4: unknown vertex label 'ZZ'$"):
            parse_graph_text(f"vertex a\nvertex b\n# edges\n{edge}\nedge a b\n", source="g.graph")


    def test_duplicate_vertex_cites_source_and_line(self):
        with pytest.raises(GraphError, match=r"^g\.graph:2: duplicate vertex 'a'$"):
            parse_graph_text("vertex a\nvertex a\n", source="g.graph")


class TestFamilyParsing:
    def test_round_trip(self, fig1):
        from covgraph.graphs import parse_family_text

        fam = parse_family_text("1,3\n# comment\n2 , 4\n", fig1)
        assert fam == (("1", "3"), ("2", "4"))

    def test_unknown_label_rejected(self, fig1):
        from covgraph.graphs import parse_family_text

        with pytest.raises(GraphError, match="'z'"):
            parse_family_text("1,z\n", fig1)

    def test_unknown_label_cites_source_and_line(self, fig1):
        from covgraph.graphs import parse_family_text

        with pytest.raises(GraphError, match=r"^fam\.txt:3: unknown vertex label 'ZZ'$"):
            parse_family_text("1,3\n# comment\n2, ZZ\n", fig1, source="fam.txt")

    def test_empty_label_rejected(self, fig1):
        from covgraph.graphs import parse_family_text

        with pytest.raises(GraphError, match="empty label"):
            parse_family_text("1,,3\n", fig1)


class TestGraphFromMatrix:
    def test_pattern_read_off(self, sigma_chain, fig1):
        g = graph_from_matrix(sigma_chain, labels=["1", "2", "3", "4"])
        assert g == fig1

    def test_either_triangle_above_tol_is_an_edge(self):
        m = np.eye(4)
        m[0, 2] = 0.5  # upper triangle only
        m[3, 1] = -0.2  # lower triangle only
        m[1, 2] = m[2, 1] = 0.0  # exact zeros, of either sign, are no edge
        m[0, 3] = -0.0
        m[0, 1] = 5e-324  # the smallest nonzero is an edge
        g = graph_from_matrix(m)
        assert g.edges == (("X1", "X2"), ("X1", "X3"), ("X2", "X4"))

    @pytest.mark.parametrize("count", [2, 4])
    def test_label_count_must_match(self, count):
        with pytest.raises(GraphError, match=f"{count} labels for a 3 x 3 matrix"):
            graph_from_matrix(np.eye(3), labels=[f"v{k}" for k in range(count)])

    def test_default_labels(self):
        g = graph_from_matrix(np.eye(3))
        assert g.vertices == ("X1", "X2", "X3")
        assert g.n_edges == 0
