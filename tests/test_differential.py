"""Differential tests against networkx, on hypothesis-generated digraphs.

networkx shares no code with wordgraphs: its bridges come from a chain
decomposition and its minimum cut from Stoer-Wagner.  Both libraries are
test-only and optional; without them this module is skipped.
"""

import itertools
import random

import pytest

nx = pytest.importorskip("networkx")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from wordgraphs.connectivity import (  # noqa: E402
    bridges,
    edge_connectivity,
    scc_decomposition,
    weakly_connected,
)
from wordgraphs.graphs import Digraph, build_graph  # noqa: E402
from wordgraphs.words import Word  # noqa: E402

from brute import canonical_letters, walk_edges  # noqa: E402

MAX_VERTICES = 30


@st.composite
def random_digraphs(draw):
    """Any simple digraph: often disconnected, bridges common when sparse."""
    n = draw(st.integers(1, MAX_VERTICES))
    edges = set()
    if n > 1:
        # (u, step) with step in 1..n-1 never names a self-loop.
        pairs = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1))
        for u, step in draw(st.lists(pairs, max_size=3 * n)):
            edges.add((u, (u + step) % n))
    return Digraph(frozenset(range(n)), frozenset(edges))


@st.composite
def walk_digraphs(draw):
    """The graph of a random symbol sequence: weakly connected, like a word graph."""
    n = draw(st.integers(1, MAX_VERTICES))
    walk = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=4 * n))
    return Digraph(frozenset(walk), frozenset(walk_edges(walk)))


digraphs = st.one_of(random_digraphs(), walk_digraphs())


@st.composite
def word_graphs(draw):
    """Graphs of words of up to about 300 letters over up to 40 symbols.

    Adjacent symbols differ by at most a drawn reach (mod the symbol count),
    so small reaches give the sparse, long graphs of low edge connectivity
    where contraction needs many phases; `digraphs` rarely yields them.
    """
    n = draw(st.integers(2, 40))
    reach = draw(st.integers(1, n))
    size = draw(st.integers(1, 300))
    steps = draw(st.lists(st.integers(-reach, reach), min_size=size, max_size=size))
    letters = itertools.accumulate(steps, lambda c, step: (c + step) % n, initial=0)
    return build_graph(Word(canonical_letters(letters)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 5), min_size=1, max_size=30))
def test_a_walk_is_strong_exactly_when_its_end_reaches_its_start(walk):
    # The brute-force counter's leaf test: the start reaches every vertex of
    # a walk and every vertex reaches its end.
    g = nx.DiGraph()
    nx.add_path(g, walk)
    assert nx.has_path(g, walk[-1], walk[0]) == nx.is_strongly_connected(g)


def multigraph(g):
    m = nx.MultiGraph()
    m.add_nodes_from(g.vertices)
    m.add_edges_from(g.edges)
    return m


def weighted_graph(g):
    w = nx.Graph()
    w.add_nodes_from(g.vertices)
    for u, v in g.edges:
        if w.has_edge(u, v):
            w[u][v]["weight"] += 1
        else:
            w.add_edge(u, v, weight=1)
    return w


@settings(max_examples=200, deadline=None)
@given(digraphs)
def test_bridges_match_networkx(g):
    found = bridges(g)
    assert found == sorted(found)
    assert set(found) <= g.edges
    expected = {frozenset(e) for e in nx.bridges(multigraph(g))}
    assert {frozenset(e) for e in found} == expected


def expected_cut(g):
    w = weighted_graph(g)
    if len(g.vertices) == 1:
        return None
    if not nx.is_connected(w):
        return 0
    return nx.stoer_wagner(w, heap=nx.utils.heaps.PairingHeap)[0]


def string_labels(g):
    """The same digraph with every vertex renamed to a string, as JSON graphs are."""
    name = {v: f"v{v}" for v in g.vertices}
    return Digraph(
        frozenset(name.values()), frozenset((name[u], name[v]) for u, v in g.edges)
    )


@settings(max_examples=200, deadline=None)
@given(digraphs)
def test_edge_connectivity_matches_stoer_wagner(g):
    assert edge_connectivity(g) == expected_cut(g)


@settings(max_examples=200, deadline=None)
@given(word_graphs())
def test_edge_connectivity_matches_stoer_wagner_on_word_graphs(g):
    assert edge_connectivity(g) == expected_cut(g)


def test_edge_connectivity_of_a_long_random_word():
    # 7,000 letters over 400 symbols: 6,836 edges and lambda well above 2,
    # so contraction runs on large summed weights.
    rng = random.Random(5)
    g = build_graph(Word(canonical_letters(rng.randrange(400) for _ in range(7000))))
    assert len(g.vertices) == 400
    assert edge_connectivity(g) == expected_cut(g)


@settings(max_examples=200, deadline=None)
@given(digraphs)
def test_string_labels_match_networkx(g):
    # String order differs from integer order ("v10" < "v2"), so every
    # traversal meets its vertices in a new order.
    m = string_labels(g)
    d = nx.DiGraph()
    d.add_nodes_from(m.vertices)
    d.add_edges_from(m.edges)
    decomp = scc_decomposition(m)
    assert set(decomp.components) == set(map(frozenset, nx.strongly_connected_components(d)))
    # Topological order: no edge runs from a later component to an earlier one.
    assert all(decomp.component_index[u] <= decomp.component_index[v] for u, v in m.edges)
    assert weakly_connected(m) == nx.is_weakly_connected(d)
    expected = {frozenset(e) for e in nx.bridges(multigraph(m))}
    assert {frozenset(e) for e in bridges(m)} == expected
    assert edge_connectivity(m) == expected_cut(m)
