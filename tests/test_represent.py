from collections import Counter

import pytest

import wordgraphs.connectivity
import wordgraphs.graphs
import wordgraphs.represent
from wordgraphs.connectivity import weakly_connected
from wordgraphs.graphs import Digraph, InvalidGraphError, build_graph
from wordgraphs.represent import (
    NotRepresentableError,
    NotStronglyConnectedError,
    covering_walk,
    representational_walk,
    synthesize_word,
)
from wordgraphs.words import Word, iter_canonical_words, parse_word

from brute import all_digraphs, covering_walk_exists, walk_edges


class CountingEdges(frozenset):
    """A frozenset that counts the Python-level iterations over it."""

    passes = 0

    def __iter__(self):
        self.passes += 1
        return super().__iter__()


def chain_graph(components):
    """Graph of a word whose strong components are 2-cycles joined in a path."""
    letters = []
    for i in range(components):
        letters += [2 * i, 2 * i + 1, 2 * i]
    return build_graph(Word(tuple(letters)))


def representable(g):
    try:
        representational_walk(g)
    except NotRepresentableError:
        return False
    return True


class TestIsRepresentable:
    def test_path(self):
        assert representable(build_graph(parse_word("abc")))

    def test_fork_with_shortcut_is_not(self):
        g = Digraph({"a", "b", "c"}, {("a", "b"), ("a", "c"), ("c", "b")})
        assert not representable(g)

    def test_strongly_connected_always_is(self):
        assert representable(build_graph(parse_word("abca")))
        assert representable(build_graph(parse_word("aba")))

    def test_matches_walk_oracle(self):
        for count in range(1, 4):
            for g in all_digraphs(count, Digraph):
                assert representable(g) == covering_walk_exists(g), sorted(g.edges)

    def test_representable_implies_weakly_connected(self):
        for count in range(1, 4):
            for g in all_digraphs(count, Digraph):
                if representable(g):
                    assert weakly_connected(g)


class TestCoveringWalk:
    def test_single_vertex(self):
        g = Digraph({0}, frozenset())
        assert covering_walk(g, 0, 0) == [0]

    def test_two_cycle(self):
        g = build_graph(parse_word("aba"))
        walk = covering_walk(g, 0, 0)
        assert walk[0] == 0 and walk[-1] == 0
        assert walk_edges(walk) == g.edges

    def test_triangle_between_endpoints(self):
        g = build_graph(parse_word("abca"))
        walk = covering_walk(g, 0, 2)
        assert walk[0] == 0 and walk[-1] == 2
        assert walk_edges(walk) == g.edges
        for a, b in zip(walk, walk[1:]):
            assert (a, b) in g.edges

    def test_requires_strong(self):
        with pytest.raises(NotStronglyConnectedError):
            covering_walk(build_graph(parse_word("ab")), 0, 1)

    def test_requires_vertices(self):
        g = build_graph(parse_word("aba"))
        with pytest.raises(ValueError):
            covering_walk(g, 0, 7)


class TestSynthesis:
    def test_triangle_round_trip(self):
        g = build_graph(parse_word("abca"))
        assert build_graph(synthesize_word(g)) == g

    def test_path_word(self):
        g = Digraph({"a", "b", "c"}, {("a", "b"), ("b", "c")})
        assert synthesize_word(g) == Word((0, 1, 2))
        assert representational_walk(g) == ["a", "b", "c"]

    def test_not_representable_raises(self):
        g = Digraph({"a", "b", "c"}, {("a", "b"), ("a", "c"), ("c", "b")})
        with pytest.raises(NotRepresentableError):
            synthesize_word(g)

    def test_walk_realizes_exactly_the_edges(self):
        for count in range(1, 4):
            for g in all_digraphs(count, Digraph):
                if not representable(g):
                    continue
                walk = representational_walk(g)
                assert walk_edges(walk) == g.edges
                assert set(walk) == g.vertices

    def test_edge_passes_do_not_grow_with_components(self):
        passes = []
        for components in (50, 500):
            g = chain_graph(components)
            # Digraph copies its edges into a plain frozenset, so swap afterwards.
            edges = CountingEdges(g.edges)
            object.__setattr__(g, "edges", edges)
            walk = representational_walk(g)
            passes.append(edges.passes)
            assert walk_edges(walk) == g.edges
        assert passes[0] == passes[1]

    def test_subgraphs_do_not_grow_with_components(self, monkeypatch):
        # One walk covers the whole graph: no component gets its own
        # `Digraph` or its own successor lists.
        calls = []
        real_init, real_out_lists = Digraph.__init__, wordgraphs.graphs._out_lists

        def counting_init(graph, vertices, edges):
            calls.append("Digraph")
            real_init(graph, vertices, edges)

        def counting_out_lists(graph):
            calls.append("_out_lists")
            return real_out_lists(graph)

        monkeypatch.setattr(Digraph, "__init__", counting_init)
        for module in (wordgraphs.graphs, wordgraphs.connectivity, wordgraphs.represent):
            monkeypatch.setattr(module, "_out_lists", counting_out_lists)
        counts = []
        for components in (50, 500):
            g = chain_graph(components)
            calls.clear()
            walk = representational_walk(g)
            counts.append(Counter(calls))
            assert walk_edges(walk) == g.edges
        assert counts[0] == counts[1]

    def test_one_scc_decomposition_in_total(self, monkeypatch):
        # The condensation already shows every component strong, so the walk
        # must not decompose the graph or any component again.
        real = wordgraphs.connectivity.scc_decomposition
        calls = []

        def counting(graph):
            calls.append(graph)
            return real(graph)

        monkeypatch.setattr("wordgraphs.connectivity.scc_decomposition", counting)
        g = chain_graph(50)
        assert walk_edges(representational_walk(g)) == g.edges
        assert len(calls) == 1

    def test_mixed_labels_rejected(self):
        # Every traversal sorts the labels, so they must be mutually orderable.
        with pytest.raises(InvalidGraphError):
            Digraph({0, 1, "a"}, {(0, 1), (1, "a"), ("a", 0)})
        # Tuples compare element-wise, and 2 < "a" does not compare.
        with pytest.raises(InvalidGraphError):
            Digraph({(1, 2), (1, "a")}, {((1, 2), (1, "a"))})

    def test_round_trip_over_words(self):
        for length in range(1, 6):
            for n in range(1, length + 1):
                for w in iter_canonical_words(length, n):
                    g = build_graph(w)
                    assert representable(g)
                    assert build_graph(synthesize_word(g)) == g
