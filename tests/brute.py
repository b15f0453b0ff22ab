"""Brute-force enumerations and oracles shared by the tests.

Nothing here imports wordgraphs: the enumerations build their items with
the constructor they are given, and the oracles read plain letters, edge
pairs, or only a graph's `vertices` and `edges`.
"""

import itertools


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
