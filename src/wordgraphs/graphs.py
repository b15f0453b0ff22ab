"""Simple digraphs built from words, with deterministic DOT and JSON forms.

The graph of a word has the word's alphabet as vertices and one directed
edge for every non-identical adjacent symbol pair; repeated pairs collapse
because the graph is simple, and identical pairs ("aa") contribute nothing.
"""

from __future__ import annotations

import re
import sys

from .words import Word, _Frozen, symbol_name


class InvalidGraphError(ValueError):
    """Self-loop, unknown endpoint, or malformed serialized form."""


class Digraph(_Frozen):
    """An immutable simple digraph without self-loops.

    `vertices` and `edges` are frozensets, and equality, hashing and repr
    read both.  Vertices carry mutually orderable hashable labels (symbol ids
    for word graphs, strings read from JSON), so traversals order them by
    `sorted`; the underlying undirected multigraph is held as multiplicities.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges) -> None:
        vertices = frozenset(vertices)
        try:
            sorted(vertices)
        except TypeError as exc:
            raise InvalidGraphError(f"labels are not mutually orderable: {exc}") from exc
        edges = frozenset(tuple(e) for e in edges)
        for e in edges:
            if len(e) != 2:
                raise InvalidGraphError(f"edge {e!r} is not a pair")
            u, v = e
            if u == v:
                raise InvalidGraphError(f"self-loop at {u!r}")
            if u not in vertices or v not in vertices:
                raise InvalidGraphError(f"edge {e!r} uses an unknown vertex")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", edges)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.edges) == (other.vertices, other.edges)

    def __hash__(self) -> int:
        return hash((self.vertices, self.edges))

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(vertices={self.vertices!r}, edges={self.edges!r})"

    def __reduce__(self):
        return self.__class__, (self.vertices, self.edges)


def build_graph(word: Word) -> Digraph:
    """Graph of a word: vertices are its symbols, edges its adjacent distinct pairs."""
    letters = word._bytes
    if letters is None:
        letters = word.letters
        # Collapse repeats in C first, so self-loops are dropped once per distinct pair.
        pairs = set(zip(letters, letters[1:]))
    else:
        pairs = _byte_pairs(letters)
    edges = frozenset(pair for pair in pairs if pair[0] != pair[1])
    return Digraph(frozenset(range(word.alphabet_size)), edges)


def _byte_pairs(letters: bytes):
    """The distinct adjacent pairs of a byte word, collapsed in C.

    Each pair is one 16-bit lane of two interleaved copies, its first letter
    in the lane's high byte, so one set of lanes collapses the repeats and
    each lane reads 256 * first + second in either native byte order.
    """
    high = 1 if sys.byteorder == "little" else 0
    lanes = bytearray(2 * len(letters) - 2)
    lanes[high::2] = letters[:-1]
    lanes[1 - high :: 2] = letters[1:]
    return (divmod(lane, 256) for lane in set(memoryview(lanes).cast("H")))


def letter_labeled(graph: Digraph) -> Digraph:
    """Relabel a word graph's symbol ids with their presentation text."""
    n = len(graph.vertices)
    if graph.vertices != frozenset(range(n)):
        raise InvalidGraphError("expected dense integer symbol ids")
    name = {v: symbol_name(v, n) for v in graph.vertices}
    return Digraph(
        frozenset(name.values()),
        frozenset((name[u], name[v]) for u, v in graph.edges),
    )


def _out_lists(graph: Digraph) -> dict:
    """Sorted successor lists keyed by the sorted vertices, so traversals are
    deterministic; `_multigraph` holds the undirected form as multiplicities."""
    out = {v: [] for v in sorted(graph.vertices)}
    for u, v in sorted(graph.edges):
        out[u].append(v)
    return out


def _multigraph(graph: Digraph) -> dict:
    """The underlying undirected multigraph: vertex -> {neighbour: multiplicity},
    where an antiparallel pair has multiplicity 2."""
    adj: dict = {v: {} for v in graph.vertices}
    for u, v in graph.edges:
        # The graph is simple, so v already neighbours u only through (v, u).
        adj[u][v] = adj[v][u] = 2 if v in adj[u] else 1
    return adj


_DOT_BARE_ID = r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+"
_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def _dot_id(label) -> str:
    text = str(label)
    if re.fullmatch(_DOT_BARE_ID, text) and text.lower() not in _DOT_KEYWORDS:
        return text
    return '"' + text.replace('"', '\\"') + '"'


def to_dot(graph: Digraph) -> str:
    """Render as a DOT digraph block, one statement per line, sorted."""
    lines = ["digraph {"]
    for v in sorted(graph.vertices):
        lines.append(f"  {_dot_id(v)};")
    for u, v in sorted(graph.edges):
        lines.append(f"  {_dot_id(u)} -> {_dot_id(v)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(graph: Digraph) -> str:
    """Render as the compact JSON interchange form with sorted string labels.

    Round-trips exactly through from_json when the labels are strings.
    """
    import json  # here, not at the top: most commands never serialize

    vertices = sorted(str(v) for v in graph.vertices)
    if len(set(vertices)) != len(vertices):
        raise InvalidGraphError("labels collide when rendered as strings")
    edges = sorted([str(u), str(v)] for u, v in graph.edges)
    return json.dumps({"vertices": vertices, "edges": edges}, separators=(",", ":"))


def from_json(text: str) -> Digraph:
    """Parse the JSON interchange form, rejecting malformed documents.

    Labels must be non-empty, printable and free of ',' so that a walk
    prints on one line and a comma-joined walk reads back unambiguously.
    """
    import json

    try:
        # No label is a number: float() reads any digit count, int() stops at 4,300.
        doc = json.loads(text, parse_int=float)
    except (ValueError, RecursionError) as exc:
        raise InvalidGraphError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"vertices", "edges"}:
        raise InvalidGraphError('expected an object with "vertices" and "edges"')
    vertices = doc["vertices"]
    edges = doc["edges"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise InvalidGraphError("vertices must be an array of strings")
    if any(v == "" or "," in v or not v.isprintable() for v in vertices):
        raise InvalidGraphError("vertex labels must be non-empty, printable and contain no ','")
    if len(set(vertices)) != len(vertices):
        raise InvalidGraphError("duplicate vertex")
    if not isinstance(edges, list):
        raise InvalidGraphError("edges must be an array")
    seen: set[tuple[str, str]] = set()
    for e in edges:
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not all(isinstance(x, str) for x in e)
        ):
            raise InvalidGraphError(f"edge {e!r} is not a pair of strings")
        pair = (e[0], e[1])
        if pair in seen:
            raise InvalidGraphError(f"duplicate edge {e!r}")
        seen.add(pair)
    return Digraph(frozenset(vertices), frozenset(seen))
