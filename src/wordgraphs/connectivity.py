"""Strong and weak connectivity, components, bridges, and edge connectivity.

Edge connectivity is taken on the underlying undirected multigraph: every
directed edge contributes one undirected edge, so an antiparallel pair
contributes two parallel edges and can never be severed by a single
deletion.  It is held as neighbour multiplicities (`graphs._multigraph`),
the one map that `weakly_connected`, `bridges` and `edge_connectivity` read.
Under that reading a bridge is an edge whose deletion increases the number
of weak components, and word graphs are strongly connected precisely when
they have none.

`bridges` is one low-link depth-first search, O(V + E).  `edge_connectivity`
is a separate derivation by s-t max flows and never consults `bridges`, so
each can check the other.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Mapping

from .graphs import Digraph, _multigraph, _out_lists


class EmptyGraphError(ValueError):
    """Connectivity is undefined on an empty vertex set."""


def _require_vertices(graph: Digraph) -> None:
    if not graph.vertices:
        raise EmptyGraphError("graph has no vertices")


@dataclass(frozen=True)
class SccDecomposition:
    """Maximal strongly connected components, listed in topological order."""

    components: tuple[frozenset, ...]
    component_index: Mapping

    @property
    def count(self) -> int:
        return len(self.components)


def scc_decomposition(graph: Digraph) -> SccDecomposition:
    """Kosaraju's two passes, iterative, with components topologically sorted.

    A depth-first search over successor lists, roots in sorted order,
    records the order in which vertices finish.  A walk over predecessor lists
    from the latest finisher not yet placed reaches exactly its component, a
    source of what remains, so components come out in topological order.
    """
    _require_vertices(graph)
    adj = _out_lists(graph)
    seen: set = set()
    finished: list = []
    for root in adj:
        if root in seen:
            continue
        seen.add(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, successors = work[-1]
            for w in successors:
                if w not in seen:
                    seen.add(w)
                    work.append((w, iter(adj[w])))
                    break
            else:
                work.pop()
                finished.append(v)

    predecessors: dict = {v: [] for v in adj}
    for u, v in graph.edges:
        predecessors[v].append(u)
    component_index: dict = {}
    components: list[frozenset] = []
    for root in reversed(finished):
        if root in component_index:
            continue
        i = len(components)
        component_index[root] = i
        members = [root]
        for v in members:
            for u in predecessors[v]:
                if u not in component_index:
                    component_index[u] = i
                    members.append(u)
        components.append(frozenset(members))
    return SccDecomposition(tuple(components), component_index)


def strongly_connected(graph: Digraph) -> bool:
    """True when a directed path joins every ordered vertex pair."""
    return scc_decomposition(graph).count == 1


def weakly_connected(graph: Digraph) -> bool:
    """True when the underlying undirected graph is connected."""
    _require_vertices(graph)
    return _connected(_multigraph(graph))


def _connected(adj: dict) -> bool:
    """True when a search from any one vertex of the non-empty `adj` reaches all."""
    start = next(iter(adj))
    seen = {start}
    frontier = [start]
    while frontier:
        u = frontier.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen) == len(adj)


def bridges(graph: Digraph) -> list[tuple]:
    """Edges whose deletion increases the number of weak components, sorted.

    One iterative low-link DFS over the undirected multigraph, held as
    multiplicities, O(V + E).  Each frame carries its parent (the root is its
    own, which no neighbour equals) and skips the edge back to it only at
    multiplicity 1; an antiparallel pair has multiplicity 2, so its second
    edge is a back edge and the pair is never a bridge.
    """
    _require_vertices(graph)
    adj = _multigraph(graph)
    disc: dict = {}
    low: dict = {}
    out = []
    for root in adj:
        if root in disc:
            continue
        disc[root] = low[root] = len(disc)
        work = [(root, root, iter(adj[root].items()))]
        while work:
            v, parent, neighbours = work[-1]
            for w, multiplicity in neighbours:
                if w not in disc:
                    disc[w] = low[w] = len(disc)
                    work.append((w, v, iter(adj[w].items())))
                    break
                if disc[w] < low[v] and (w != parent or multiplicity > 1):
                    low[v] = disc[w]
            else:
                work.pop()
                if work:
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                    if low[v] > disc[parent]:
                        out.append((parent, v) if (parent, v) in graph.edges else (v, parent))
    return sorted(out)


def edge_connectivity(graph: Digraph) -> int | None:
    """Minimum deletions disconnecting the underlying multigraph; None for one vertex.

    Zero for a weakly disconnected graph.  Otherwise the minimum, over every
    other vertex t, of the max flow from a fixed source to t, on sparse
    residual capacities where an antiparallel pair has capacity 2.  Each flow
    stops at the best cut found so far, which starts at the minimum
    multidegree, and the search ends at 1, the least a weakly connected graph
    can reach.  So the cost is O(V * lambda * (V + E)).
    """
    _require_vertices(graph)
    if len(graph.vertices) == 1:
        return None
    capacity = _multigraph(graph)
    if not _connected(capacity):
        return 0
    best = min(sum(row.values()) for row in capacity.values())
    source, *sinks = sorted(capacity)
    for sink in sinks:
        if best == 1:
            break
        best = min(best, _max_flow(capacity, source, sink, best))
    return best


def _max_flow(capacity: dict, source, sink, limit: int) -> int:
    """Edmonds-Karp on a copy of symmetric capacities, stopped once the flow reaches limit."""
    residual = {u: dict(row) for u, row in capacity.items()}
    flow = 0
    while flow < limit:
        parent = {source: source}
        queue = deque([source])
        while queue and sink not in parent:
            u = queue.popleft()
            for v, cap in residual[u].items():
                if cap > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if sink not in parent:
            break
        path = []
        v = sink
        while v != source:
            path.append((parent[v], v))
            v = parent[v]
        bottleneck = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= bottleneck
            residual[v][u] += bottleneck
        flow += bottleneck
    return flow


@dataclass(frozen=True)
class Condensation:
    """Quotient of a digraph by its strong components.

    Component indices follow the topological order of the decomposition.
    `internal[i]` holds the original edges inside component i, and
    `crossing` maps each quotient edge (i, j) to the original edges behind
    it, so its keys are the quotient's edges, each with i < j, and the size
    of each entry is that edge's multiplicity.
    """

    components: tuple[frozenset, ...]
    internal: tuple[frozenset, ...]
    crossing: Mapping[tuple[int, int], frozenset]


def condensation(graph: Digraph) -> Condensation:
    decomp = scc_decomposition(graph)
    internal: list[set] = [set() for _ in decomp.components]
    crossing: dict[tuple[int, int], set] = {}
    for u, v in graph.edges:
        cu, cv = decomp.component_index[u], decomp.component_index[v]
        if cu == cv:
            internal[cu].add((u, v))
        else:
            crossing.setdefault((cu, cv), set()).add((u, v))
    return Condensation(
        decomp.components,
        tuple(map(frozenset, internal)),
        {pair: frozenset(edges) for pair, edges in crossing.items()},
    )
