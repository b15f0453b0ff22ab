"""The representational walk on graphs of several strong components, by hypothesis.

Each graph is a path of strong components, each the graph of a closed walk
over its own vertices, joined by one seam edge apiece; some lose a seam or
gain extra forward edges, so not every graph is representable.  Labels are
decimal strings of mixed width, which sort as text ("10" before "2"), or
ints, so rank order must follow the labels' own order.

Every walk must also equal, exactly, the one the label-based reference
walk in `brute` gives: the same greedy rule kept with a set of covered
label pairs, and a fresh breadth-first search, with a dict of parents and
a deque, whenever the walk is stuck.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from wordgraphs.graphs import Digraph  # noqa: E402
from wordgraphs.represent import (  # noqa: E402
    NotRepresentableError,
    covering_walk,
    representational_walk,
)

from brute import (  # noqa: E402
    covering_walk_exists,
    reference_covering_walk,
    reference_representational_walk,
    walk_edges,
)


@st.composite
def labels(draw, total):
    """`total` distinct labels: mixed-width decimal strings or ints."""
    if draw(st.booleans()):
        numbers = draw(st.lists(st.integers(0, 150), min_size=total, max_size=total, unique=True))
        return [str(x) for x in numbers]
    return draw(st.lists(st.integers(-50, 50), min_size=total, max_size=total, unique=True))


@st.composite
def component_paths(draw):
    """(graph, member labels of each component in path order, intact),
    where an intact graph kept every seam and gained no edge."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=2, max_size=4))
    total = sum(sizes)
    ids = draw(st.permutations(range(total)))
    parts, at = [], 0
    for size in sizes:
        parts.append(ids[at : at + size])
        at += size
    edges = set()
    for part in parts:
        extra = draw(st.lists(st.sampled_from(part), max_size=2 * len(part)))
        edges |= walk_edges([*part, *extra, part[0]])
    seams = [(draw(st.sampled_from(a)), draw(st.sampled_from(b))) for a, b in zip(parts, parts[1:])]
    dropped = draw(st.sets(st.integers(0, len(seams) - 1), max_size=1))
    edges |= {seam for i, seam in enumerate(seams) if i not in dropped}
    # Edges from a component to a later one keep the components as they are.
    extras = 0
    for _ in range(draw(st.integers(0, 2))):
        i = draw(st.integers(0, len(parts) - 2))
        j = draw(st.integers(i + 1, len(parts) - 1))
        edge = (draw(st.sampled_from(parts[i])), draw(st.sampled_from(parts[j])))
        extras += edge not in edges
        edges.add(edge)
    label = draw(labels(total))
    graph = Digraph(frozenset(label), frozenset((label[u], label[v]) for u, v in edges))
    members = [{label[v] for v in part} for part in parts]
    return graph, members, not dropped and not extras


@settings(max_examples=300, deadline=None)
@given(component_paths())
def test_walk_on_a_path_of_components(case):
    graph, members, intact = case
    try:
        walk = representational_walk(graph)
    except NotRepresentableError:
        walk = None
    assert walk == reference_representational_walk(graph.vertices, graph.edges)
    if len(graph.vertices) <= 4:
        assert (walk is not None) == covering_walk_exists(graph)
    if intact:
        assert walk is not None
    if walk is not None:
        assert walk_edges(walk) == graph.edges
        assert set(walk) == graph.vertices
        assert walk[0] == min(members[0])
        (seam,) = [(u, v) for u, v in graph.edges if u in members[-2] and v in members[-1]]
        assert walk[-1] == seam[1]


@st.composite
def dense_or_sparse_paths(draw, components=None):
    """A representable graph: a path of 2-4 strong components, or of
    `components`, joined by one seam apiece.  Each is a closed walk through
    its 1-12 members plus each other internal pair with a drawn density,
    from none (a bare cycle) to all (complete)."""
    count = components or draw(st.integers(2, 4))
    sizes = draw(st.lists(st.integers(1, 12), min_size=count, max_size=count))
    density = draw(st.sampled_from([0.0, 0.1, 0.3, 0.7, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    total = sum(sizes)
    ids = draw(st.permutations(range(total)))
    edges, parts, at = set(), [], 0
    for size in sizes:
        part = ids[at : at + size]
        at += size
        edges |= walk_edges([*part, part[0]])
        edges |= {(u, v) for u in part for v in part if u != v and rng.random() < density}
        parts.append(part)
    edges |= {(draw(st.sampled_from(a)), draw(st.sampled_from(b))) for a, b in zip(parts, parts[1:])}
    label = draw(labels(total))
    return Digraph(frozenset(label), frozenset((label[u], label[v]) for u, v in edges))


@settings(max_examples=300, deadline=None)
@given(dense_or_sparse_paths())
def test_walk_equals_the_reference_walk(graph):
    walk = representational_walk(graph)
    assert walk == reference_representational_walk(graph.vertices, graph.edges)
    assert walk_edges(walk) == graph.edges


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_covering_walk_equals_the_reference_walk(data):
    graph = data.draw(dense_or_sparse_paths(components=1))
    vertices = sorted(graph.vertices)
    start, end = data.draw(st.sampled_from(vertices)), data.draw(st.sampled_from(vertices))
    walk = covering_walk(graph, start, end)
    assert walk == reference_covering_walk(graph.vertices, graph.edges, start, end)
    assert (walk[0], walk[-1]) == (start, end)
    assert walk_edges(walk) == graph.edges
