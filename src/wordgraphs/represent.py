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
core, `_covering_walk`.  It steps along the first uncovered out-edge of the
vertex it stands on, and searches breadth-first, over rank lists allocated
once per walk, only when that vertex has none left.  Each search ends
where the next step covers a new edge, or at the component's exit.  No
minimality is promised.
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

    The greedy walk of `_covering_walk`, with the whole graph as its one
    part.  No minimality is promised.
    """
    if start not in graph.vertices or end not in graph.vertices:
        raise ValueError("start and end must be vertices")
    labels, adj, edges = _ranked(graph)
    if len(_kosaraju(adj, edges)[0]) != 1:
        raise NotStronglyConnectedError("covering walk requires one strong component")
    walk = _covering_walk(
        list(adj.values()), [len(edges)], [], labels.index(start), labels.index(end)
    )
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


def _covering_walk(succ: list, counts: list, seams: list, start: int, end: int) -> list[int]:
    """Walk from start over the ranks 0..V-1 through a path of strong parts:
    part i has counts[i] edges in `succ`, its successor lists, and the walk
    leaves it by the edge seams[i], or ends at `end` after the last part.

    Greedy.  While its part has an uncovered edge, the walk takes the first
    uncovered out-edge, in list order, of the vertex it stands on.  When
    that vertex has none, one breadth-first search over `succ` routes it to
    the first vertex the search discovers that has one; once the part is
    covered, to the part's exit.  So every search ends where the next step
    covers an edge, or at an exit: at most E + k searches for k parts.
    A route leaves a vertex with no uncovered out-edge and passes only
    through such vertices, so it covers no new edge: each vertex's
    out-edges are covered in list order, and `taken[u]` counts them.  The
    searches stamp the vertices they mark with a generation number, in mark
    and parent lists allocated once per walk.
    """
    n = len(succ)
    walk = [start]
    taken = [0] * n
    mark = [0] * n
    parent = [0] * n
    stamp = 0
    a = start
    for left, (tail, head) in zip(counts, [*seams, (end, None)]):
        while left or a != tail:
            out = succ[a]
            t = taken[a]
            if left and t < len(out):
                taken[a] = t + 1
                left -= 1
                a = out[t]
                walk.append(a)
                continue
            stamp += 1
            mark[a] = stamp
            queue = [a]
            i = 0
            goal = -1
            while goal < 0:
                u = queue[i]
                i += 1
                for w in succ[u]:
                    if mark[w] != stamp:
                        mark[w] = stamp
                        parent[w] = u
                        if (taken[w] < len(succ[w])) if left else w == tail:
                            goal = w
                            break
                        queue.append(w)
            path = [goal]
            while (u := parent[path[-1]]) != a:
                path.append(u)
            path.reverse()
            walk += path
            a = goal
        if head is not None:
            walk.append(head)
            a = head
    return walk


def representational_walk(graph: Digraph) -> list:
    """A vertex walk whose adjacent distinct pairs are exactly the graph's edges.

    Covers each component's internal edges by `_covering_walk`'s greedy
    rule, then its one seam, the edge into the next component.  Routes use
    internal edges only, so they stay inside the component, and the walk
    ends at the last component's entry.
    """
    labels, walk = _rank_walk(graph)
    return [labels[i] for i in walk]


def _rank_walk(graph: Digraph) -> tuple[list, list[int]]:
    """The sorted vertices, and `representational_walk` over their ranks.

    One pass over the sorted edges builds the successor lists that
    `_kosaraju` reads, and one more counts each component's internal edges
    and files each crossing edge as the seam of two consecutive components;
    any other crossing edge, or a missing seam, means the condensation is
    not a single-edge path.
    """
    _require_vertices(graph)
    labels, adj, edges = _ranked(graph)
    components, index = _kosaraju(adj, edges)
    k = len(components)
    counts = [0] * k
    seams: list = [None] * (k - 1)
    for edge in edges:
        i, j = index[edge[0]], index[edge[1]]
        if i == j:
            counts[i] += 1
        elif j == i + 1 and seams[i] is None:
            seams[i] = edge
        else:
            raise NotRepresentableError("condensation is not a single-edge path")
    if None in seams:
        raise NotRepresentableError("condensation is not a single-edge path")
    for u, v in seams:
        adj[u].remove(v)  # routes stay inside their component
    start = min(components[0])
    end = seams[-1][1] if seams else start
    return labels, _covering_walk(list(adj.values()), counts, seams, start, end)


def synthesize_word(graph: Digraph) -> Word:
    """A word whose graph equals the input, letters indexing the sorted vertices.

    When the vertices already are dense 0-based ids (every graph built from
    a word), the rebuilt graph reproduces the input exactly.
    """
    return Word(tuple(_rank_walk(graph)[1]))
