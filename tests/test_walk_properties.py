"""The representational walk on graphs of several strong components, by hypothesis.

Each graph is a path of strong components, each the graph of a closed walk
over its own vertices, joined by one seam edge apiece; some lose a seam or
gain extra forward edges, so not every graph is representable.  Labels are
decimal strings of mixed width, which sort as text ("10" before "2"), or
ints, so rank order must follow the labels' own order.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from wordgraphs.graphs import Digraph  # noqa: E402
from wordgraphs.represent import NotRepresentableError, representational_walk  # noqa: E402

from brute import covering_walk_exists, walk_edges  # noqa: E402


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
    if draw(st.booleans()):
        numbers = draw(st.lists(st.integers(0, 150), min_size=total, max_size=total, unique=True))
        label = [str(x) for x in numbers]
    else:
        label = draw(st.lists(st.integers(-50, 50), min_size=total, max_size=total, unique=True))
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
