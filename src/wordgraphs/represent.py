"""Deciding which digraphs are graphs of words, and synthesizing witnesses.

A digraph is a word graph exactly when some walk traverses every edge at
least once; the visited vertex sequence is then a representational word.
Such a walk can never re-enter a strong component it has left, so it
crosses each component boundary exactly once: the condensation must be a
simple path whose consecutive components are joined by exactly one
original edge, and the witness is one walk in condensation order.
Strongly connected digraphs are the one-component case.

The walk runs on the ranks of the sorted labels, each edge read once and
sorted once as an integer, with the strong components from
`connectivity._kosaraju`, the core of `scc_decomposition`.
"""

from __future__ import annotations

from collections import deque

from .connectivity import _kosaraju, _require_vertices, strongly_connected
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
    walk = [start]
    covered: set = set()

    def reach(b) -> None:
        # No search when the walk stands on b, and none when b is one hop
        # away: that hop is the path a breadth-first search would return.
        a = walk[-1]
        if a == b:
            return
        if b in adj[a]:
            path = [a, b]
        else:
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
            path.reverse()
        covered.update(zip(path, path[1:]))
        walk.extend(path[1:])

    for edge in edges:
        if edge in covered:
            continue
        reach(edge[0])
        covered.add(edge)
        walk.append(edge[1])
    reach(end)
    return walk


def representational_walk(graph: Digraph) -> list:
    """A vertex walk whose adjacent distinct pairs are exactly the graph's edges.

    Covers each component's internal edges in sorted order, then its one
    seam, the edge into the next component.  Routes use internal edges
    only, so they stay inside the component, and the walk ends at the last
    component's entry.
    """
    labels, walk = _rank_walk(graph)
    return [labels[i] for i in walk]


def _rank_walk(graph: Digraph) -> tuple[list, list[int]]:
    """The sorted vertices, and `representational_walk` over their ranks.

    Rank order is label order, so one sort of the integer codes
    rank(u) * V + rank(v) orders the edges as their labels would.  One pass
    over the codes builds the successor lists that `_kosaraju` reads, and
    one more files each edge as internal to its component or as the seam
    of two consecutive ones; any other crossing edge, or a missing seam,
    means the condensation is not a single-edge path.
    """
    _require_vertices(graph)
    labels = sorted(graph.vertices)
    n = len(labels)
    rank = {v: i for i, v in enumerate(labels)}
    edges = [divmod(code, n) for code in sorted([rank[u] * n + rank[v] for u, v in graph.edges])]
    adj: dict = {i: [] for i in range(n)}
    for u, v in edges:
        adj[u].append(v)
    components, index = _kosaraju(adj, edges)
    k = len(components)
    inside: list[list] = [[] for _ in range(k)]
    seams: list = [None] * (k - 1)
    for edge in edges:
        i, j = index[edge[0]], index[edge[1]]
        if i == j:
            inside[i].append(edge)
        elif j == i + 1 and seams[i] is None:
            seams[i] = edge
        else:
            raise NotRepresentableError("condensation is not a single-edge path")
    if None in seams:
        raise NotRepresentableError("condensation is not a single-edge path")
    order: list = []
    for part, (u, v) in zip(inside, seams):
        adj[u].remove(v)  # routes stay inside their component
        order += part
        order.append((u, v))
    order += inside[-1]
    start = min(components[0])
    end = seams[-1][1] if seams else start
    return labels, _covering_walk(adj, order, start, end)


def synthesize_word(graph: Digraph) -> Word:
    """A word whose graph equals the input, letters indexing the sorted vertices.

    When the vertices already are dense 0-based ids (every graph built from
    a word), the rebuilt graph reproduces the input exactly.
    """
    return Word(tuple(_rank_walk(graph)[1]))
