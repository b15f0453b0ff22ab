"""Deciding which digraphs are graphs of words, and synthesizing witnesses.

A digraph is a word graph exactly when some walk traverses every edge at
least once; the visited vertex sequence is then a representational word.
Such a walk can never re-enter a strong component it has left, so it
crosses each component boundary exactly once: the condensation must be a
simple path whose consecutive components are joined by exactly one
original edge, and the witness is one walk in condensation order.
Strongly connected digraphs are the one-component case.
"""

from __future__ import annotations

from collections import deque

from .connectivity import condensation, strongly_connected
from .graphs import Digraph, _out_lists
from .words import Word


class NotRepresentableError(ValueError):
    """No edge-covering walk exists."""


class NotStronglyConnectedError(ValueError):
    """A covering walk of a whole graph needs a strongly connected graph."""


def covering_walk(graph: Digraph, start, end) -> list:
    """A walk from start to end traversing every edge of a strongly connected graph.

    Greedy: route by shortest paths to each uncovered edge in sorted order,
    then to the requested end.  No minimality is promised.
    """
    if start not in graph.vertices or end not in graph.vertices:
        raise ValueError("start and end must be vertices")
    if not strongly_connected(graph):
        raise NotStronglyConnectedError("covering walk requires one strong component")
    return _covering_walk(_out_lists(graph), sorted(graph.edges), start, end)


def _covering_walk(adj: dict, edges: list, start, end) -> list:
    """Walk start..end over `edges` in order, routing by shortest paths in `adj`."""

    def shortest_path(a, b) -> list:
        parent = {a: a}
        queue = deque([a])
        while b not in parent:
            u = queue.popleft()
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    queue.append(w)
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        return path[::-1]

    walk = [start]
    covered: set = set()

    def extend(path: list) -> None:
        covered.update(zip(path, path[1:]))
        walk.extend(path[1:])

    for edge in edges:
        if edge in covered:
            continue
        extend(shortest_path(walk[-1], edge[0]))
        covered.add(edge)
        walk.append(edge[1])
    extend(shortest_path(walk[-1], end))
    return walk


def representational_walk(graph: Digraph) -> list:
    """A vertex walk whose adjacent distinct pairs are exactly the graph's edges.

    Covers each component's internal edges in sorted order, then its one
    boundary edge.  Routes use internal edges only, so they stay inside the
    component, and the walk ends at the last component's entry.
    """
    cond = condensation(graph)
    k = len(cond.components)
    seams = [cond.crossing.get((i, i + 1), ()) for i in range(k - 1)]
    if len(cond.crossing) != k - 1 or any(len(seam) != 1 for seam in seams):
        raise NotRepresentableError("condensation is not a single-edge path")
    adj: dict = {v: [] for v in graph.vertices}
    edges: list = []
    for part, seam in zip(cond.internal, [*seams, ()]):
        inside = sorted(part)
        for u, v in inside:
            adj[u].append(v)
        edges += [*inside, *seam]
    start = min(cond.components[0])
    end = next(iter(seams[-1]))[1] if seams else start
    return _covering_walk(adj, edges, start, end)


def synthesize_word(graph: Digraph) -> Word:
    """A word whose graph equals the input, letters indexing the sorted vertices.

    When the vertices already are dense 0-based ids (every graph built from
    a word), the rebuilt graph reproduces the input exactly.
    """
    walk = representational_walk(graph)
    index = {v: i for i, v in enumerate(sorted(graph.vertices))}
    return Word(tuple(index[v] for v in walk))
