"""Brute-force enumerations and oracles shared by the tests.

Nothing here imports wordgraphs: the enumerations build their items with
the constructor they are given, and the oracles read plain letters, edge
pairs, or only a graph's `vertices` and `edges`.  `_covering_walk` is the
label-based greedy walk `represent` ran before it moved to integer ranks,
kept unchanged as the reference its walks must equal exactly.
"""

import itertools
from collections import deque


def all_digraphs(vertex_count, make):
    """make(vertices, edges) for every simple digraph on range(vertex_count)."""
    vertices = frozenset(range(vertex_count))
    pairs = [(u, v) for u in vertices for v in vertices if u != v]
    for bits in range(1 << len(pairs)):
        yield make(vertices, frozenset(p for i, p in enumerate(pairs) if bits >> i & 1))


def all_words(length, max_alphabet, make):
    """make(letters) for every valid word of the given length, by filtering
    raw id tuples."""
    for letters in itertools.product(range(max_alphabet), repeat=length):
        ids = set(letters)
        if ids == set(range(len(ids))):
            yield make(letters)


def canonical_letters(letters):
    """The letters renumbered by first occurrence, as a tuple."""
    ids = {}
    return tuple(ids.setdefault(c, len(ids)) for c in letters)


def walk_edges(letters):
    """The edges a letter sequence walks: its distinct adjacent pairs of
    different letters."""
    return {(a, b) for a, b in zip(letters, letters[1:]) if a != b}


def reachable(edges, start):
    """Every vertex reachable from `start` along the directed `edges`."""
    successors = {}
    for a, b in edges:
        successors.setdefault(a, []).append(b)
    seen = {start}
    frontier = [start]
    while frontier:
        for b in successors.get(frontier.pop(), []):
            if b not in seen:
                seen.add(b)
                frontier.append(b)
    return seen


def undirected_connected(vertices, edges):
    """Whether the `edges`, each read in both directions, connect all of
    `vertices`."""
    both = [*edges, *((b, a) for a, b in edges)]
    return reachable(both, min(vertices)) == set(vertices)


def covering_walk_exists(g):
    """Breadth-first search over (position, covered-edge-set) states.

    The walk must realize the whole graph: covering every edge is not
    enough when a vertex lies on no edge at all, because a walk can never
    visit it and the resulting word would miss it from its alphabet.
    """
    edges = sorted(g.edges)
    if not edges:
        return len(g.vertices) == 1
    if {v for e in edges for v in e} != set(g.vertices):
        return False
    adjacency = {v: [] for v in g.vertices}
    for i, (a, b) in enumerate(edges):
        adjacency[a].append((b, 1 << i))
    full = (1 << len(edges)) - 1
    seen = {(v, 0) for v in g.vertices}
    frontier = list(seen)
    while frontier:
        nxt = []
        for v, mask in frontier:
            if mask == full:
                return True
            for w, bit in adjacency[v]:
                state = (w, mask | bit)
                if state not in seen:
                    seen.add(state)
                    nxt.append(state)
        frontier = nxt
    return False


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


def reference_covering_walk(vertices, edges, start, end):
    """The greedy covering walk on labels: every edge in sorted order, routed
    by a fresh breadth-first search (a dict of parents and a deque) over
    sorted successor lists, as `_covering_walk` above does."""
    adj = {v: [] for v in sorted(vertices)}
    for u, v in sorted(edges):
        adj[u].append(v)
    return _covering_walk(adj, sorted(edges), start, end)


def reference_representational_walk(vertices, edges):
    """The greedy walk of a graph whose condensation is a path of
    components joined by one seam each: each component's internal edges in
    sorted order, then its seam, routed inside the component; None when the
    condensation is not such a path."""
    reach = {v: reachable(edges, v) for v in vertices}
    components = {frozenset(w for w in reach[v] if v in reach[w]) for v in vertices}
    # On a path of components the first reaches all, the last only itself.
    path = sorted(components, key=lambda c: -len(reach[min(c)]))
    index = {v: i for i, c in enumerate(path) for v in c}
    seams = {}
    for u, v in edges:
        i, j = index[u], index[v]
        if i != j:
            if j != i + 1 or i in seams:
                return None
            seams[i] = (u, v)
    if len(seams) != len(path) - 1:
        return None
    routes = {v: [] for v in sorted(vertices)}
    order = []
    for i, part in enumerate(path):
        inside = sorted((u, v) for u, v in edges if index[u] == index[v] == i)
        for u, v in inside:
            routes[u].append(v)
        order += inside
        if i in seams:
            order.append(seams[i])
    start = min(path[0])
    end = seams[len(path) - 2][1] if seams else start
    return _covering_walk(routes, order, start, end)
