import random
from collections import Counter

import pytest

import wordgraphs.connectivity
import wordgraphs.graphs
import wordgraphs.represent
from wordgraphs.connectivity import weakly_connected
from wordgraphs.graphs import Digraph, InvalidGraphError, build_graph, letter_labeled
from wordgraphs.represent import (
    NotRepresentableError,
    NotStronglyConnectedError,
    covering_walk,
    representational_walk,
    synthesize_word,
)
from wordgraphs.words import Word, iter_canonical_words, parse_word

from brute import (
    all_digraphs,
    covering_walk_exists,
    reference_covering_walk,
    reference_representational_walk,
    walk_edges,
)


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

    def test_takes_the_first_uncovered_successor(self):
        # Each return to the hub 0 steps along its next uncovered edge, in
        # sorted order, with no search.
        g = Digraph({0, 1, 2, 3}, {(0, 1), (0, 2), (0, 3), (1, 0), (2, 0), (3, 0)})
        walk = covering_walk(g, 0, 0)
        assert walk == [0, 1, 0, 2, 0, 3, 0]
        assert walk == reference_covering_walk(g.vertices, g.edges, 0, 0)

    def test_searches_only_when_stuck(self):
        # At 2 the walk takes its first uncovered edge, back to 0, though
        # (1, 0) comes before it in sorted edge order.  At 0 it is stuck and
        # searches: 2, the first vertex it discovers, still has (2, 1).
        g = Digraph({0, 1, 2}, {(0, 2), (1, 0), (2, 0), (2, 1)})
        walk = covering_walk(g, 0, 0)
        assert walk == [0, 2, 0, 2, 1, 0]
        assert walk == reference_covering_walk(g.vertices, g.edges, 0, 0)

    def test_nearest_in_discovery_order_on_string_labels(self):
        # Stuck at 5, with both its successors still holding an edge to 7,
        # the search goes to the first one it discovers: 10 before 2 as
        # text, 2 before 10 as ints.
        pairs = [(5, 10), (5, 2), (10, 5), (10, 7), (2, 5), (2, 7), (7, 5)]
        g = Digraph({5, 10, 2, 7}, pairs)
        assert covering_walk(g, 5, 5) == [5, 2, 5, 10, 5, 2, 7, 5, 10, 7, 5]
        g = Digraph({"5", "10", "2", "7"}, {(str(u), str(v)) for u, v in pairs})
        walk = covering_walk(g, "5", "5")
        assert walk == ["5", "10", "5", "2", "5", "10", "7", "5", "2", "7", "5"]
        assert walk == reference_covering_walk(g.vertices, g.edges, "5", "5")

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

    def test_routes_to_the_exit(self):
        # With its component covered at 0, the walk searches for the seam's
        # tail 2, past 1, which it discovers first, and crosses to 3.
        g = Digraph(frozenset(range(5)), {(0, 1), (0, 2), (1, 0), (2, 0), (2, 3), (3, 4), (4, 3)})
        walk = representational_walk(g)
        assert walk == [0, 1, 0, 2, 0, 2, 3, 4, 3]
        assert walk == reference_representational_walk(g.vertices, g.edges)

    @pytest.mark.parametrize("shape", ["n=2000", "n=8000", "7000 letters"])
    def test_walk_has_at_most_edges_plus_vertices_letters(self, shape):
        # Known defect 6: a walk that searched once per uncovered edge, in
        # sorted edge order, gave 20,503, 86,114 and 13,678 letters here.
        if shape == "7000 letters":
            draw = random.Random(5).randrange
            g = build_graph(parse_word(",".join(str(draw(400)) for _ in range(7000))))
        else:
            n = int(shape[2:])
            draw = random.Random(1).randrange
            letters = [*range(n), *(draw(n) for _ in range(4 * n)), 0]
            g = letter_labeled(build_graph(Word(tuple(letters))))
        walk = representational_walk(g)
        assert walk_edges(walk) == g.edges
        assert len(walk) <= len(g.edges) + len(g.vertices)

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
        # `represent` builds its own rank lists and imports no `_out_lists`.
        for module in (wordgraphs.graphs, wordgraphs.connectivity):
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
        # One Kosaraju pass already shows every component strong, so the walk
        # must not decompose the graph or any component again, by any route.
        real = wordgraphs.connectivity._kosaraju
        calls = []

        def counting(adj, edges):
            calls.append(adj)
            return real(adj, edges)

        for module in (wordgraphs.connectivity, wordgraphs.represent):
            monkeypatch.setattr(module, "_kosaraju", counting)
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
