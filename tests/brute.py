"""Brute-force enumerations and oracles shared by the tests.

Nothing here imports wordgraphs: the enumerations build their items with
the constructor they are given, and the oracles read plain letters, edge
pairs, or only a graph's `vertices` and `edges`.  `_covering_walk` is
`represent`'s greedy walk written again on labels, with a set of covered
label pairs in place of per-vertex counts: the reference its walks must
equal exactly.
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


def _covering_walk(adj: dict, parts: list, start) -> list:
    """The greedy walk from start through `parts`, each (the set of its
    internal edges, the vertex the walk leaves it from, the vertex it steps
    to next or None), routing in `adj`, which holds internal edges only.

    While the part has an uncovered edge, step along the first uncovered
    out-edge, in list order, of the vertex the walk stands on; if there is
    none, route by a fresh breadth-first search (a dict of parents and a
    deque) to the first vertex it discovers with an uncovered out-edge.
    Once the part is covered, route the same way to its exit.
    """
    walk = [start]
    covered: set = set()
    for inside, exit, head in parts:
        while True:
            a = walk[-1]
            todo = inside - covered
            fresh = [w for w in adj[a] if (a, w) not in covered]
            if todo and fresh:
                covered.add((a, fresh[0]))
                walk.append(fresh[0])
                continue
            if not todo and a == exit:
                break

            def goal(w):
                if todo:
                    return any((w, x) not in covered for x in adj[w])
                return w == exit

            parent = {a: a}
            queue = deque([a])
            found = None
            while found is None:
                u = queue.popleft()
                for w in adj[u]:
                    if w not in parent:
                        parent[w] = u
                        if goal(w):
                            found = w
                            break
                        queue.append(w)
            path = [found]
            while path[-1] != a:
                path.append(parent[path[-1]])
            path.reverse()
            covered.update(zip(path, path[1:]))
            walk.extend(path[1:])
        if head is not None:
            walk.append(head)
    return walk


def reference_covering_walk(vertices, edges, start, end):
    """The greedy covering walk on labels, as `_covering_walk` above gives
    it, with the whole graph as one part and sorted successor lists."""
    adj = {v: [] for v in sorted(vertices)}
    for u, v in sorted(edges):
        adj[u].append(v)
    return _covering_walk(adj, [(set(edges), end, None)], start)


def reference_representational_walk(vertices, edges):
    """The greedy walk of a graph whose condensation is a path of
    components joined by one seam each: `_covering_walk` above through the
    components in path order, routed inside each over its sorted internal
    edges, leaving each by its seam; None when the condensation is not such
    a path."""
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
    start = min(path[0])
    routes = {v: [] for v in sorted(vertices)}
    parts = []
    for i in range(len(path)):
        inside = {(u, v) for u, v in edges if index[u] == index[v] == i}
        for u, v in sorted(inside):
            routes[u].append(v)
        # The last part ends at its entry: the last seam's head, or the start.
        exit, head = seams[i] if i in seams else (seams[i - 1][1] if i else start, None)
        parts.append((inside, exit, head))
    return _covering_walk(routes, parts, start)
