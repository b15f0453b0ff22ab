"""Independent reference computations for checking wordgraphs' outputs.

Nothing here imports wordgraphs or copies its algorithms.  Where the
program uses one method, the oracle uses another: Stirling numbers by
inclusion-exclusion (the program uses the triangle recurrence), strong
counts by first-block inversion (the program uses the paper's recurrence),
strong components by Kosaraju (the program uses Tarjan), bridges by a
low-link DFS (the program deletes each edge and retests), edge
connectivity by Stoer-Wagner (the program runs max flows), and strong
words by exhaustive enumeration with a plain reachability test.
"""

from __future__ import annotations

import math
from collections import Counter


# --- counting -------------------------------------------------------------


def stirling2(length: int, blocks: int) -> int:
    """S(length, blocks) by inclusion-exclusion over the surjections."""
    if length < 0 or blocks < 0:
        raise ValueError("arguments must be non-negative")
    total = sum(
        (-1) ** k * math.comb(blocks, k) * (blocks - k) ** length
        for k in range(blocks + 1)
    )
    return total // math.factorial(blocks)


def stirling_table(max_length: int, max_blocks: int) -> list[list[int]]:
    """table[l][n] = S(l, n) for l <= max_length, n <= max_blocks."""
    return [
        [stirling2(l, n) for n in range(max_blocks + 1)]
        for l in range(max_length + 1)
    ]


def bell(length: int) -> int:
    return sum(stirling2(length, n) for n in range(length + 1))


def strong_table(max_length: int, max_alphabet: int) -> list[list[int]]:
    """table[l][n] = T(l, n), the strongly connected canonical words.

    A canonical word factors uniquely into its shortest alphabet-closed
    prefix (a strong word of length j over m symbols) followed by any
    canonical word over the n - m fresh symbols, so
    S(l, n) = sum over j <= l, m <= n of T(j, m) * S(l - j, n - m),
    which is solved for T(l, n) row by row.
    """
    s = stirling_table(max_length, max_alphabet)
    t = [[0] * (max_alphabet + 1) for _ in range(max_length + 1)]
    for l in range(1, max_length + 1):
        for n in range(1, max_alphabet + 1):
            rest = 0
            for j in range(1, l):
                row = t[j]
                tail = s[l - j]
                for m in range(1, n):
                    if row[m]:
                        rest += row[m] * tail[n - m]
            t[l][n] = s[l][n] - rest
    return t


def canonical_words(length: int, alphabet_size: int):
    """Every restricted growth string of `length` with exactly `alphabet_size` ids."""
    word = [0] * length

    def fill(pos: int, used: int):
        if used + (length - pos) < alphabet_size:
            return
        if pos == length:
            if used == alphabet_size:
                yield tuple(word)
            return
        for c in range(min(used + 1, alphabet_size)):
            word[pos] = c
            yield from fill(pos + 1, max(used, c + 1))

    if length >= 1:
        yield from fill(1, 1)


def component_histogram(length: int, alphabet_size: int) -> Counter:
    """Canonical words of the cell bucketed by strong component count."""
    hist: Counter = Counter()
    for word in canonical_words(length, alphabet_size):
        hist[len(strong_components(alphabet_size, word_edges(word)))] += 1
    return hist


def brute_force_strong(length: int, alphabet_size: int) -> int:
    """T(length, alphabet_size) by enumerating canonical words."""
    count = 0
    for word in canonical_words(length, alphabet_size):
        if reaches_all(alphabet_size, word_edges(word)):
            count += 1
    return count


# --- graphs ---------------------------------------------------------------


def word_edges(word) -> set:
    return {(a, b) for a, b in zip(word, word[1:]) if a != b}


def reaches_all(n: int, edges) -> bool:
    """Strong connectivity: vertex 0 reaches everything, forwards and backwards."""
    fwd = [[] for _ in range(n)]
    bwd = [[] for _ in range(n)]
    for u, v in edges:
        fwd[u].append(v)
        bwd[v].append(u)
    for adj in (fwd, bwd):
        seen = {0}
        todo = [0]
        while todo:
            for w in adj[todo.pop()]:
                if w not in seen:
                    seen.add(w)
                    todo.append(w)
        if len(seen) != n:
            return False
    return True


def strong_components(n: int, edges) -> list[set]:
    """Kosaraju's two passes, iterative; vertices are 0..n-1."""
    fwd = [[] for _ in range(n)]
    bwd = [[] for _ in range(n)]
    for u, v in edges:
        fwd[u].append(v)
        bwd[v].append(u)
    order = []
    seen = [False] * n
    for root in range(n):
        if seen[root]:
            continue
        seen[root] = True
        stack = [(root, 0)]
        while stack:
            v, i = stack[-1]
            if i < len(fwd[v]):
                stack[-1] = (v, i + 1)
                w = fwd[v][i]
                if not seen[w]:
                    seen[w] = True
                    stack.append((w, 0))
            else:
                stack.pop()
                order.append(v)
    comp = [-1] * n
    components = []
    for root in reversed(order):
        if comp[root] != -1:
            continue
        members = {root}
        comp[root] = len(components)
        todo = [root]
        while todo:
            for w in bwd[todo.pop()]:
                if comp[w] == -1:
                    comp[w] = len(components)
                    members.add(w)
                    todo.append(w)
        components.append(members)
    return components


def multigraph_bridges(n: int, edges) -> set:
    """Directed edges that are bridges of the underlying undirected multigraph.

    Each directed edge is one undirected edge with its own id, so an
    antiparallel pair forms two parallel edges and is never a bridge.
    Low-link DFS that skips only the edge id it arrived by.
    """
    edge_list = list(edges)
    adj = [[] for _ in range(n)]
    for i, (u, v) in enumerate(edge_list):
        adj[u].append((v, i))
        adj[v].append((u, i))
    disc = [-1] * n
    low = [0] * n
    found = set()
    clock = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = clock
        clock += 1
        stack = [(root, -1, 0)]
        while stack:
            v, via, i = stack[-1]
            if i < len(adj[v]):
                stack[-1] = (v, via, i + 1)
                w, eid = adj[v][i]
                if eid == via:
                    continue
                if disc[w] == -1:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, eid, 0))
                else:
                    low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if stack:
                    parent = stack[-1][0]
                    low[parent] = min(low[parent], low[v])
                    if low[v] > disc[parent]:
                        found.add(edge_list[via])
    return found


def min_multidegree(n: int, edges) -> int:
    degree = [0] * n
    for u, v in edges:
        degree[u] += 1
        degree[v] += 1
    return min(degree)


def stoer_wagner(n: int, edges) -> int:
    """Global minimum cut of the underlying multigraph (n >= 2), O(n^3)."""
    weight = [[0] * n for _ in range(n)]
    for u, v in edges:
        weight[u][v] += 1
        weight[v][u] += 1
    alive = list(range(n))
    best = None
    while len(alive) > 1:
        added = [alive[0]]
        key = {v: weight[alive[0]][v] for v in alive[1:]}
        while key:
            nxt = max(key, key=key.__getitem__)
            cut = key.pop(nxt)
            added.append(nxt)
            row = weight[nxt]
            for v in key:
                key[v] += row[v]
        s, t = added[-2], added[-1]
        best = cut if best is None else min(best, cut)
        for v in alive:
            weight[s][v] += weight[t][v]
            weight[v][s] = weight[s][v]
        weight[s][s] = 0
        alive.remove(t)
    return best
