"""Deciding which digraphs are graphs of words, and synthesizing witnesses.

A digraph is a word graph exactly when some walk traverses every edge at
least once; the visited vertex sequence is then a representational word.
Structurally, such a walk can never re-enter a strong component it has
left, so it crosses each component boundary exactly once: the condensation
must be a simple path whose consecutive components are joined by exactly
one original edge.  Strongly connected digraphs are the one-component case
and are always representable.
"""

from __future__ import annotations

from collections import deque

from .connectivity import Condensation, condensation, strongly_connected
from .graphs import Digraph, _out_lists
from .words import Word


class NotRepresentableError(ValueError):
    """No edge-covering walk exists."""


class NotStronglyConnectedError(ValueError):
    """A covering walk inside a component needs a strongly connected graph."""


def _path_condensation(cond: Condensation) -> bool:
    k = len(cond.components)
    return cond.crossing.keys() == {(i, i + 1) for i in range(k - 1)} and all(
        len(edges) == 1 for edges in cond.crossing.values()
    )


def covering_walk(graph: Digraph, start, end) -> list:
    """A walk from start to end traversing every edge of a strongly connected graph.

    Greedy: repeatedly route along shortest paths to the smallest uncovered
    edge and traverse it, then route to the requested end.  The edges are
    sorted once and a cursor walks past the ones already covered, since
    coverage only grows.  No minimality is promised.
    """
    if start not in graph.vertices or end not in graph.vertices:
        raise ValueError("start and end must be vertices")
    if not strongly_connected(graph):
        raise NotStronglyConnectedError("covering walk requires one strong component")
    return _covering_walk(graph, start, end)


def _covering_walk(graph: Digraph, start, end) -> list:
    """`covering_walk` without its input checks, for a component known to be strong."""
    adj = _out_lists(graph)
    ordered = [(u, v) for u, successors in adj.items() for v in successors]

    def shortest_path(a, b) -> list:
        if a == b:
            return [a]
        parent = {a: a}
        queue = deque([a])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if w not in parent:
                    parent[w] = u
                    if w == b:
                        path = [b]
                        while path[-1] != a:
                            path.append(parent[path[-1]])
                        return path[::-1]
                    queue.append(w)
        raise NotStronglyConnectedError(f"no path from {a!r} to {b!r}")

    walk = [start]
    covered: set = set()

    def extend(path: list) -> None:
        covered.update(zip(path, path[1:]))
        walk.extend(path[1:])

    for edge in ordered:
        if edge in covered:
            continue
        extend(shortest_path(walk[-1], edge[0]))
        covered.add(edge)
        walk.append(edge[1])
    extend(shortest_path(walk[-1], end))
    return walk


def representational_walk(graph: Digraph) -> list:
    """A vertex walk whose adjacent distinct pairs are exactly the graph's edges.

    Walks each strong component from the head of its incoming boundary edge
    to the tail of its outgoing one; concatenating the component walks lets
    the seams realize the boundary edges themselves.
    """
    cond = condensation(graph)
    if not _path_condensation(cond):
        raise NotRepresentableError("condensation is not a single-edge path")
    walk: list = []
    k = len(cond.components)
    entry = None
    for i, members in enumerate(cond.components):
        start = entry if entry is not None else min(members)
        if i < k - 1:
            # The unique original edge into the next component.
            [(exit_vertex, entry)] = cond.crossing[(i, i + 1)]
        else:
            exit_vertex = start
        sub = Digraph(members, cond.internal[i])
        walk.extend(_covering_walk(sub, start, exit_vertex))
    return walk


def synthesize_word(graph: Digraph) -> Word:
    """A word whose graph equals the input, letters indexing the sorted vertices.

    When the vertices already are dense 0-based ids (every graph built from
    a word), the rebuilt graph reproduces the input exactly.
    """
    walk = representational_walk(graph)
    index = {v: i for i, v in enumerate(sorted(graph.vertices))}
    return Word(tuple(index[v] for v in walk))
