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
is a separate derivation by contraction and never consults `bridges`, so
each can check the other.  Strong components come from one Kosaraju core,
`_kosaraju`, which `scc_decomposition` runs on labels and both walks in
`represent` on the ranks of the sorted labels.
"""

from __future__ import annotations

from .graphs import Digraph, _multigraph, _out_lists
from .words import _Frozen


class EmptyGraphError(ValueError):
    """Connectivity is undefined on an empty vertex set."""


def _require_vertices(graph: Digraph) -> None:
    if not graph.vertices:
        raise EmptyGraphError("graph has no vertices")


class SccDecomposition(_Frozen):
    """Maximal strongly connected components, listed in topological order;
    value methods from `_Frozen`, unhashable for its `component_index` dict."""

    __slots__ = ("components", "component_index")

    @property
    def count(self) -> int:
        return len(self.components)


def scc_decomposition(graph: Digraph) -> SccDecomposition:
    """Kosaraju's two passes, by `_kosaraju`, with components topologically sorted."""
    _require_vertices(graph)
    return SccDecomposition(*_kosaraju(_out_lists(graph), graph.edges))


def _kosaraju(adj: dict, edges) -> tuple[tuple[frozenset, ...], dict]:
    """Strong components of the digraph with successor lists `adj` and edge
    pairs `edges`, as frozensets in topological order, and a map from each
    vertex to its component's index.  Iterative, O(V + E).

    A depth-first search over `adj`, roots in its key order, records the
    order in which vertices finish.  A walk over predecessor lists, built
    from `edges`, from the latest finisher not yet placed reaches exactly
    its component, a source of what remains, so components come out in
    topological order.  With `adj` ordered, the result is deterministic.
    """
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
    for u, v in edges:
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
    return tuple(components), component_index


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


def edge_connectivity(graph: Digraph, *, at_least: int = 1) -> int | None:
    """Minimum deletions disconnecting the underlying multigraph; None for one vertex.

    Zero for a weakly disconnected graph.  Otherwise `best`, the least cut
    found so far, starts at the minimum multidegree and stays at most every
    degree.  First pairs that pass the Padberg–Rinaldi test are merged, which
    collapses every cycle; then maximum-adjacency contraction (Nagamochi &
    Ibaraki 1992) merges, in each phase, at least one pair that no cut below
    `best` separates, until one vertex is left or `best` reaches `at_least`.
    So the cost is O(phases * E log V) with phases <= V - 1.

    `at_least` is a lower bound on the cut that the caller has proved for a
    weakly connected graph of two or more vertices; 1 holds for all of them.
    A strongly connected graph has no bridge, so 2 holds for it, and a
    minimum multidegree of 2 is then the answer without any phase.
    """
    _require_vertices(graph)
    if len(graph.vertices) == 1:
        return None
    adj = _multigraph(graph)
    if not _connected(adj):
        return 0
    best = _contract_tight_pairs(adj)
    while best > at_least and len(adj) > 1:
        best = _contraction_phase(adj, best)
    return best


def _contract_tight_pairs(adj: dict) -> int:
    """Merge in place pairs u, v of the connected `adj` with 2c(u, v) >=
    min(d(u), d(v)); return the least degree seen while two vertices remain.

    The Padberg–Rinaldi test (Padberg & Rinaldi 1990): moving u across a
    cut that holds u but not v, and is not {u} itself, loses c(u, v) and
    gains at most d(u) - c(u, v), so a minimum cut survives the merge or is
    a degree, which the returned value counts.  A pair passes from u's side
    only if u's heaviest pair does, so each vertex tests that one, and again
    while it survives its merges; the vertex with fewer neighbours is the
    one merged away.
    """
    degree = {v: sum(row.values()) for v, row in adj.items()}
    best = min(degree.values())
    # Unmerged pairs have multiplicity 1 or 2, so only degrees <= 4 pass.
    for u in [u for u, d in degree.items() if d <= 4]:
        while best > 1 and (row := adj.get(u)) and 2 * max(row.values()) >= degree[u]:
            v = max(row, key=row.get)
            keep, lose = (u, v) if len(row) >= len(adj[v]) else (v, u)
            degree[keep] += degree.pop(lose) - 2 * row[v]
            _absorb(adj, lose, keep)
            # Zero only for the lone vertex left, which is no cut.
            best = min(best, degree[keep] or best)
    return best


def _contraction_phase(adj: dict, best: int) -> int:
    """Contract the connected `adj` in place after one maximum-adjacency order;
    return `best` lowered to the cuts seen on the way.

    Ordering u lifts each unordered neighbour w's attachment (its weight to
    the ordered vertices) to some q <= lambda(u, w), and w merges with u when
    q >= best.  `best` stays at most every degree, so the last vertex, attached
    by its whole degree (the cut of the phase, Stoer & Wagner 1997), merges too.
    """
    attach = dict.fromkeys(adj, 0)
    parent = dict(zip(adj, adj))
    buckets = [[next(iter(adj))]]  # by attachment; stale once moved up or ordered
    top = pending = 0
    while top >= 0:
        if not buckets[top]:
            top -= 1
        elif attach[u := buckets[top].pop()] == top:
            pending -= top
            attach[u] = None
            for w, c in adj[u].items():
                a = attach[w]
                if a is not None:
                    attach[w] = a = a + c
                    pending += c
                    if a >= best:
                        parent[_find(parent, w)] = _find(parent, u)
                    if a > top:
                        buckets += [[] for _ in range(a + 1 - len(buckets))]
                        top = a
                    buckets[a].append(w)
            # The attachments pending are the cut around the ordered vertices,
            # zero once all are ordered, as `adj` is connected.
            if 0 < pending < best:
                best = pending
                if best == 1:
                    return 1
    merged = {v: _find(parent, v) for v in adj if parent[v] != v}
    for v, r in merged.items():
        _absorb(adj, v, r)
    # A merged vertex's degree is a cut unless it is the lone vertex left.
    return min(best, min(sum(adj[r].values()) for r in merged.values()) or best)


def _absorb(adj: dict, v, r) -> None:
    """Merge vertex v into r in place, summing parallel weights."""
    for x, c in adj.pop(v).items():
        del adj[x][v]
        if x != r:
            adj[r][x] = adj[x][r] = adj[r].get(x, 0) + c


def _find(parent: dict, v):
    """Union-find root of v, halving the path on the way."""
    while parent[v] != v:
        parent[v] = v = parent[parent[v]]
    return v


class Condensation(_Frozen):
    """Quotient of a digraph by its strong components.

    Component indices follow the topological order of the decomposition.
    `internal[i]` holds the original edges inside component i, and `crossing`
    maps each quotient edge (i, j) to the original edges behind it, so its
    keys are the quotient's edges, each with i < j, and the size of each entry
    is that edge's multiplicity.  Value methods come from `_Frozen`; the
    `crossing` dict leaves it unhashable."""

    __slots__ = ("components", "internal", "crossing")


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
