"""Deciding which digraphs are graphs of words, and synthesizing witnesses.

A digraph is a word graph exactly when some walk traverses every edge at
least once; the visited vertex sequence is then a representational word.
Such a walk can never re-enter a strong component it has left, so it
crosses each component boundary exactly once: the condensation must be a
simple path whose consecutive components are joined by exactly one
original edge, and the witness is one walk in condensation order.
Strongly connected digraphs are the one-component case.

Both walks here run on the ranks of the sorted labels, each edge read once
and sorted once as an integer, with the strong components from
`connectivity._kosaraju`, the core of `scc_decomposition`, and one covering
core, `_covering_walk`, whose routes are breadth-first searches over rank
lists allocated once per walk.
"""

from __future__ import annotations

from .connectivity import _kosaraju, _require_vertices
from .graphs import Digraph
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
    labels, adj, edges = _ranked(graph)
    if len(_kosaraju(adj, edges)[0]) != 1:
        raise NotStronglyConnectedError("covering walk requires one strong component")
    walk = _covering_walk(list(adj.values()), edges, labels.index(start), labels.index(end))
    return [labels[i] for i in walk]


def _ranked(graph: Digraph) -> tuple[list, dict, list]:
    """The sorted vertices, the sorted successor lists of their ranks, and
    the edges as rank pairs in sorted order.

    Rank order is label order, so one sort of the integer codes
    rank(u) * V + rank(v) orders the edges as their labels would.
    """
    labels = sorted(graph.vertices)
    n = len(labels)
    rank = {v: i for i, v in enumerate(labels)}
    edges = [divmod(code, n) for code in sorted([rank[u] * n + rank[v] for u, v in graph.edges])]
    adj: dict = {i: [] for i in range(n)}
    for u, v in edges:
        adj[u].append(v)
    return labels, adj, edges


def _covering_walk(succ: list, edges: list, start: int, end: int) -> list[int]:
    """Walk start..end over the ranks 0..V-1, covering `edges` in order,
    routing by shortest paths in `succ`; a covered edge (u, v) is held as
    the integer u * V + v.

    A route to b is the path a breadth-first search from the walk's end a
    over `succ` gives.  None is needed when a is b, or when b is a
    successor of a.  When b is two hops out, the search's parent of b is
    the first successor of a, in list order, that has b as a successor, so
    that probe answers before any search.  Otherwise the search stamps the
    vertices it marks with a generation number, in mark and parent lists
    allocated once per walk, and stops as soon as b is discovered.
    """
    n = len(succ)
    walk = [start]
    covered: set = set()
    mark = [0] * n
    parent = [0] * n
    stamp = 0

    def reach(b: int) -> None:
        nonlocal stamp
        a = walk[-1]
        if a == b:
            return
        if b in succ[a]:
            covered.add(a * n + b)
            walk.append(b)
            return
        for u in succ[a]:
            if b in succ[u]:
                covered.add(a * n + u)
                covered.add(u * n + b)
                walk.append(u)
                walk.append(b)
                return
        stamp += 1
        mark[a] = stamp
        queue = [a]
        i = 0
        while mark[b] != stamp:
            u = queue[i]
            i += 1
            for w in succ[u]:
                if mark[w] != stamp:
                    mark[w] = stamp
                    parent[w] = u
                    if w == b:
                        break
                    queue.append(w)
        path = [b]
        while path[-1] != a:
            path.append(parent[path[-1]])
        path.reverse()
        covered.update([u * n + v for u, v in zip(path, path[1:])])
        walk.extend(path[1:])

    for u, v in edges:
        code = u * n + v
        if code in covered:
            continue
        reach(u)
        covered.add(code)
        walk.append(v)
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

    One pass over the sorted edges builds the successor lists that
    `_kosaraju` reads, and one more files each edge as internal to its
    component or as the seam of two consecutive ones; any other crossing
    edge, or a missing seam, means the condensation is not a single-edge
    path.
    """
    _require_vertices(graph)
    labels, adj, edges = _ranked(graph)
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
    return labels, _covering_walk(list(adj.values()), order, start, end)


def synthesize_word(graph: Digraph) -> Word:
    """A word whose graph equals the input, letters indexing the sorted vertices.

    When the vertices already are dense 0-based ids (every graph built from
    a word), the rebuilt graph reproduces the input exactly.
    """
    return Word(tuple(_rank_walk(graph)[1]))
