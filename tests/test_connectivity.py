import copy
import itertools
import pickle

import pytest

import wordgraphs.connectivity
from wordgraphs.connectivity import (
    EmptyGraphError,
    bridges,
    condensation,
    edge_connectivity,
    scc_decomposition,
    strongly_connected,
    weakly_connected,
)
from wordgraphs.graphs import Digraph, build_graph
from wordgraphs.words import Word, iter_canonical_words, parse_word

from brute import all_digraphs, reachable, undirected_connected


# ---- oracles: small and dumb on purpose ----

def strong_oracle(g):
    return all(reachable(g.edges, v) == g.vertices for v in g.vertices)


def weak_component_count(vertices, edges):
    count = 0
    seen = set()
    for v in vertices:
        if v not in seen:
            count += 1
            seen |= reachable(list(edges) + [(b, a) for a, b in edges], v)
    return count


def bridge_oracle(g):
    """Edges whose deletion alone increases the number of weak components."""
    base = weak_component_count(g.vertices, g.edges)
    return sorted(
        e for e in g.edges
        if weak_component_count(g.vertices, g.edges - {e}) > base
    )


def cut_oracle(g):
    """Minimum number of directed edges whose deletion disconnects the
    underlying multigraph, by trying every deletion subset."""
    if len(g.vertices) == 1:
        return None
    edges = sorted(g.edges)
    for size in range(len(edges) + 1):
        for removed in itertools.combinations(edges, size):
            remaining = [e for e in edges if e not in removed]
            if not undirected_connected(g.vertices, remaining):
                return size
    return len(edges)


def bidirected_clique(vertices):
    return {(u, v) for u in vertices for v in vertices if u != v}


def word_graphs(max_length, min_alphabet=1):
    for length in range(1, max_length + 1):
        for n in range(min_alphabet, length + 1):
            for w in iter_canonical_words(length, n):
                yield build_graph(w)


class TestScc:
    def test_cycle_is_one_component(self):
        d = scc_decomposition(build_graph(parse_word("abca")))
        assert d.components == (frozenset({0, 1, 2}),)

    def test_path_is_singletons(self):
        d = scc_decomposition(build_graph(parse_word("abc")))
        assert d.count == 3
        assert all(len(c) == 1 for c in d.components)

    def test_source_then_cycle(self):
        d = scc_decomposition(build_graph(parse_word("abcb")))
        assert d.components == (frozenset({0}), frozenset({1, 2}))
        assert d.component_index[0] == 0
        assert d.component_index[2] == 1

    def test_components_partition_vertices(self):
        for g in word_graphs(6):
            d = scc_decomposition(g)
            assert frozenset().union(*d.components) == g.vertices
            assert sum(len(c) for c in d.components) == len(g.vertices)

    def test_topological_component_order(self):
        # Every cross-component edge must point at a later component.
        for g in word_graphs(6):
            d = scc_decomposition(g)
            for u, v in g.edges:
                assert d.component_index[u] <= d.component_index[v]

    def test_empty_graph(self):
        with pytest.raises(EmptyGraphError):
            scc_decomposition(Digraph(frozenset(), frozenset()))


class TestPredicates:
    def test_two_cycle_strong(self):
        assert strongly_connected(build_graph(parse_word("aba")))

    def test_single_edge_not_strong(self):
        assert not strongly_connected(build_graph(parse_word("ab")))

    def test_single_vertex_strong(self):
        assert strongly_connected(build_graph(parse_word("aa")))

    def test_strong_matches_oracle(self):
        for g in word_graphs(6):
            assert strongly_connected(g) == strong_oracle(g)
        for g in all_digraphs(3, Digraph):
            assert strongly_connected(g) == strong_oracle(g)

    def test_word_graphs_weakly_connected(self):
        for g in word_graphs(6):
            assert weakly_connected(g)

    def test_isolated_vertices_not_weak(self):
        assert not weakly_connected(Digraph({0, 1}, frozenset()))

    def test_path_weak(self):
        assert weakly_connected(build_graph(parse_word("abc")))

    def test_empty_graph(self):
        empty = Digraph(frozenset(), frozenset())
        for op in (strongly_connected, weakly_connected, bridges, edge_connectivity):
            with pytest.raises(EmptyGraphError):
                op(empty)


class TestBridges:
    def test_path_edges_all_bridges(self):
        assert bridges(build_graph(parse_word("abc"))) == [(0, 1), (1, 2)]

    def test_cycle_has_none(self):
        assert bridges(build_graph(parse_word("abca"))) == []

    def test_source_edge(self):
        assert bridges(build_graph(parse_word("abcb"))) == [(0, 1)]

    def test_antiparallel_pair_excluded(self):
        assert bridges(build_graph(parse_word("abab"))) == []

    def test_bridge_iff_unit_cut(self):
        for g in word_graphs(6, min_alphabet=2):
            assert bool(bridges(g)) == (edge_connectivity(g) == 1)

    def test_disconnected_graph_keeps_only_true_bridges(self):
        # A triangle with a pendant edge, plus an isolated vertex.
        g = Digraph({0, 1, 2, 3, 4}, {(0, 1), (1, 2), (2, 0), (2, 3)})
        assert bridges(g) == [(2, 3)]

    def test_matches_deletion_oracle_on_digraphs(self):
        for count in range(1, 5):
            for g in all_digraphs(count, Digraph):
                assert bridges(g) == bridge_oracle(g), sorted(g.edges)


class TestEdgeConnectivity:
    def test_single_edge(self):
        assert edge_connectivity(build_graph(parse_word("ab"))) == 1

    def test_antiparallel_counts_twice(self):
        assert edge_connectivity(build_graph(parse_word("abab"))) == 2

    def test_triangle(self):
        assert edge_connectivity(build_graph(parse_word("abca"))) == 2

    def test_single_vertex_not_applicable(self):
        assert edge_connectivity(build_graph(parse_word("aa"))) is None

    def test_disconnected_is_zero(self):
        assert edge_connectivity(Digraph({0, 1}, frozenset())) == 0

    def test_matches_deletion_oracle_on_words(self):
        for g in word_graphs(6, min_alphabet=2):
            assert edge_connectivity(g) == cut_oracle(g)

    def test_matches_deletion_oracle_on_digraphs(self):
        # Four vertices reach the disconnected graphs with no isolated vertex.
        for count in range(1, 5):
            for g in all_digraphs(count, Digraph):
                assert edge_connectivity(g) == cut_oracle(g), sorted(g.edges)

    def test_does_not_consult_bridges(self, monkeypatch):
        def refuse(graph):
            raise AssertionError("edge_connectivity called bridges")

        monkeypatch.setattr("wordgraphs.connectivity.bridges", refuse)
        for g in word_graphs(6, min_alphabet=2):
            assert edge_connectivity(g) == cut_oracle(g)

    def test_complete_bidirected_graph(self):
        g = Digraph(range(4), bidirected_clique(range(4)))
        assert edge_connectivity(g) == cut_oracle(g) == 6

    def test_minimum_cut_below_minimum_degree(self):
        # Two bidirected K4s, each vertex of multidegree 6, joined by two
        # one-way edges: the minimum cut separates the halves, not a vertex.
        halves = bidirected_clique(range(4)) | bidirected_clique(range(4, 8))
        g = Digraph(range(8), halves | {(0, 4), (5, 1)})
        assert min(sum(1 for e in g.edges if v in e) for v in g.vertices) == 6
        assert edge_connectivity(g) == cut_oracle(g) == 2

    def test_contraction_sums_weights_above_two(self):
        # Two bidirected K5s (multidegree 8) joined by three one-way edges
        # with distinct endpoints.  Only once each K5 is contracted do the
        # three meet in one quotient edge of weight 3; any cut splitting a K5
        # costs at least 2 * 1 * 4 = 8.
        halves = bidirected_clique(range(5)) | bidirected_clique(range(5, 10))
        g = Digraph(range(10), halves | {(0, 5), (1, 6), (7, 2)})
        assert edge_connectivity(g) == 3

    def test_cycle_word_collapses_before_the_phases(self, monkeypatch):
        # Each maximum-adjacency order of a cycle is a path, so a phase
        # merges only its last vertex, 20,000 phases in all.  Every pair of
        # a cycle passes the Padberg–Rinaldi test instead.
        real = wordgraphs.connectivity._contraction_phase
        calls = []

        def at_most_one(adj, best):
            # Fails at once rather than after a quadratic run.
            calls.append(len(adj))
            assert len(calls) == 1, f"phase {len(calls)} on {len(adj)} vertices"
            return real(adj, best)

        monkeypatch.setattr("wordgraphs.connectivity._contraction_phase", at_most_one)
        g = build_graph(Word(tuple(range(20_000)) + (0,)))
        assert edge_connectivity(g) == 2

    def test_chain_word(self):
        # Three strong factors joined by two bridges; every vertex has
        # multidegree at least 2.
        g = build_graph(parse_word("abcadefdghig"))
        assert edge_connectivity(g) == cut_oracle(g) == 1

    def test_bridge_between_blocks_of_multidegree_two(self):
        # The shortest words whose bridge a merge threshold one below the
        # least cut found would contract away.
        for text in ("abacdbefe", "abcdeafgf"):
            g = build_graph(parse_word(text))
            assert edge_connectivity(g) == cut_oracle(g) == 1


def multiplicity(c):
    """Original edges behind each quotient edge."""
    return {pair: len(edges) for pair, edges in c.crossing.items()}


class TestCondensation:
    def test_source_then_cycle(self):
        c = condensation(build_graph(parse_word("abcb")))
        assert len(c.components) == 2
        assert c.crossing.keys() == {(0, 1)}
        assert multiplicity(c) == {(0, 1): 1}
        assert c.internal == (frozenset(), frozenset({(1, 2), (2, 1)}))
        assert c.crossing == {(0, 1): frozenset({(0, 1)})}

    def test_single_component(self):
        c = condensation(build_graph(parse_word("abca")))
        assert len(c.components) == 1
        assert c.crossing.keys() == set()
        assert c.internal == (frozenset({(0, 1), (1, 2), (2, 0)}),)
        assert c.crossing == {}

    def test_hand_built_dag(self):
        g = Digraph({"a", "b", "c"}, {("a", "b"), ("a", "c"), ("c", "b")})
        c = condensation(g)
        assert len(c.components) == 3
        assert len(c.crossing) == 3
        assert set(multiplicity(c).values()) == {1}

    def test_multiplicity_counts_parallel_originals(self):
        g = Digraph({"a", "b", "c"}, {("a", "b"), ("a", "c"), ("b", "c"), ("c", "b")})
        c = condensation(g)
        assert len(c.components) == 2
        assert multiplicity(c) == {(0, 1): 2}
        assert c.components == (frozenset({"a"}), frozenset({"b", "c"}))
        assert c.crossing == {(0, 1): frozenset({("a", "b"), ("a", "c")})}
        assert c.internal == (frozenset(), frozenset({("b", "c"), ("c", "b")}))

    def test_every_edge_filed_exactly_once(self):
        for g in word_graphs(6):
            c = condensation(g)
            filed = [e for edges in c.internal for e in edges]
            filed += [e for edges in c.crossing.values() for e in edges]
            assert sorted(filed) == sorted(g.edges)
            for i, edges in enumerate(c.internal):
                assert all(u in c.components[i] and v in c.components[i] for u, v in edges)
            for (i, j), edges in c.crossing.items():
                assert all(u in c.components[i] and v in c.components[j] for u, v in edges)

    def test_quotient_is_acyclic(self):
        for g in word_graphs(6):
            c = condensation(g)
            for i, j in c.crossing:
                assert i < j


# ---- value semantics of the decomposition and the condensation ----

ABCB = build_graph(parse_word("abcb"))
CLONES = {
    "pickle": lambda value: pickle.loads(pickle.dumps(value)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


class TestValueClasses:
    """Both are values of their fields: equal, copied and pickled by them,
    shown as `Class(field=value, ...)`, immutable, and built positionally."""

    @pytest.fixture(params=[scc_decomposition, condensation])
    def value(self, request):
        return request.param(ABCB)

    @pytest.mark.parametrize("clone", CLONES.values(), ids=CLONES.keys())
    def test_clones_are_equal(self, value, clone):
        twin = clone(value)
        assert type(twin) is type(value) and twin == value

    def test_equals_its_rebuild_from_fields(self, value):
        fields = tuple(getattr(value, name) for name in type(value).__slots__)
        assert type(value)(*fields) == value
        assert value != fields and value.__eq__(fields) is NotImplemented
        with pytest.raises(TypeError):
            hash(value)  # a dict field leaves it unhashable

    def test_repr_is_the_field_form(self):
        assert repr(scc_decomposition(ABCB)) == (
            "SccDecomposition(components=(frozenset({0}), frozenset({1, 2})), "
            "component_index={0: 0, 1: 1, 2: 1})"
        )
        assert repr(condensation(ABCB)) == (
            "Condensation(components=(frozenset({0}), frozenset({1, 2})), "
            "internal=(frozenset(), frozenset({(1, 2), (2, 1)})), "
            "crossing={(0, 1): frozenset({(0, 1)})})"
        )

    def test_fields_cannot_be_assigned_or_deleted(self, value):
        for name in [*type(value).__slots__, "other"]:
            with pytest.raises(AttributeError):
                setattr(value, name, None)
            with pytest.raises(AttributeError):
                delattr(value, name)

    def test_wrong_number_of_values_names_the_fields(self, value):
        names = type(value).__slots__
        fields = tuple(getattr(value, name) for name in names)
        for values in [fields[:-1], fields + (None,)]:
            with pytest.raises(TypeError, match=", ".join(names)):
                type(value)(*values)
