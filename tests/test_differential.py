"""Differential tests against networkx, on hypothesis-generated digraphs.

networkx shares no code with wordgraphs: its bridges come from a chain
decomposition and its minimum cut from Stoer-Wagner.  Both libraries are
test-only and optional; without them this module is skipped.
"""

import pytest

nx = pytest.importorskip("networkx")
pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from wordgraphs.connectivity import bridges, edge_connectivity  # noqa: E402
from wordgraphs.graphs import Digraph  # noqa: E402

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
    edges = {(a, b) for a, b in zip(walk, walk[1:]) if a != b}
    return Digraph(frozenset(walk), frozenset(edges))


digraphs = st.one_of(random_digraphs(), walk_digraphs())


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


@settings(max_examples=200, deadline=None)
@given(digraphs)
def test_edge_connectivity_matches_stoer_wagner(g):
    w = weighted_graph(g)
    if len(g.vertices) == 1:
        expected = None
    elif not nx.is_connected(w):
        expected = 0
    else:
        expected, _ = nx.stoer_wagner(w)
    assert edge_connectivity(g) == expected
