"""Simple digraphs built from words, with deterministic DOT and JSON forms.

The graph of a word has the word's alphabet as vertices and one directed
edge for every non-identical adjacent symbol pair; repeated pairs collapse
because the graph is simple, and identical pairs ("aa") contribute nothing.
"""

from __future__ import annotations

from .words import _BYTE_IDS, Word, _Frozen, letters_text


class InvalidGraphError(ValueError):
    """Self-loop, unknown endpoint, or malformed serialized form."""


class Digraph(_Frozen):
    """An immutable simple digraph without self-loops.

    `vertices` and `edges` are frozensets, the fields whose value methods
    come from `_Frozen`.  Vertices carry mutually orderable hashable labels
    (symbol ids for word graphs, strings read from JSON), so traversals order
    them by `sorted`; the undirected multigraph is held as multiplicities.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices, edges) -> None:
        vertices = frozenset(vertices)
        try:
            sorted(vertices)
        except TypeError as exc:
            raise InvalidGraphError(f"labels are not mutually orderable: {exc}") from exc
        # Checked in input order before freezing, so an error names the first bad edge.
        edges = [tuple(e) for e in edges]
        for e in edges:
            if len(e) != 2:
                raise InvalidGraphError(f"edge {e!r} is not a pair")
            u, v = e
            if u == v:
                raise InvalidGraphError(f"self-loop at {u!r}")
            if u not in vertices or v not in vertices:
                raise InvalidGraphError(f"edge {e!r} uses an unknown vertex")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", frozenset(edges))


def build_graph(word: Word) -> Digraph:
    """Graph of a word: vertices are its symbols, edges its adjacent distinct pairs.

    The vertices are range(alphabet_size), every pair joins two of them, and
    the self-loops are dropped here, so the graph is built by
    `Digraph._trusted`, without `Digraph(...)`'s checks.
    """
    letters = word._bytes or word.letters
    if type(letters) is bytes and word.alphabet_size <= 2 * _GROUP:
        pairs = _byte_pairs(letters, word.alphabet_size)
    else:
        # Collapse repeats in C first, so self-loops are dropped once per distinct pair.
        pairs = set(zip(letters, letters[1:]))
    edges = frozenset(pair for pair in pairs if pair[0] != pair[1])
    return Digraph._trusted(frozenset(range(word.alphabet_size)), edges)


# Symbols per group of `_byte_pairs`' passes: a member's index plus one fits a nibble.
_GROUP = 15


def _byte_pairs(letters: bytes, alphabet_size: int):
    """The distinct adjacent pairs of a byte word of at most 30 symbols, found in C.

    In groups of 15: for each pair of groups, `_group_codes` writes each
    first letter from one group as its index plus one in a high nibble, each
    second letter from the other in a low nibble, and 0 for the rest, so
    OR-ing the two integers gives one byte per adjacent pair.  Two
    `translate` calls list the bytes present, and those with both nibbles set
    are pairs: at most 4 passes, each in C.  The passes grow as the square
    of the groups, so larger alphabets take `build_graph`'s `zip`.
    """
    starts = range(0, alphabet_size, _GROUP)
    firsts, seconds = letters[:-1], letters[1:]
    heads = {g: _group_codes(firsts, g, alphabet_size, 16) for g in starts}
    tails = {h: _group_codes(seconds, h, alphabet_size, 1) for h in starts}
    for g, head in heads.items():
        for h, tail in tails.items():
            codes = (head | tail).to_bytes(len(letters) - 1, "big")
            for code in _BYTE_IDS.translate(None, _BYTE_IDS.translate(None, codes)):
                if code > 15 and code & 15:
                    yield g + (code >> 4) - 1, h + (code & 15) - 1


def _group_codes(letters: bytes, first: int, alphabet_size: int, scale: int) -> int:
    """`letters` read as a big-endian integer after each symbol `first + i` of
    the group of up to 15 at `first` becomes the byte (i + 1) * scale, and
    every other symbol 0."""
    count = min(_GROUP, alphabet_size - first)
    table = bytes(first) + bytes(range(scale, scale * (count + 1), scale))
    return int.from_bytes(letters.translate(table.ljust(256, b"\0")), "big")


def letter_labeled(graph: Digraph) -> Digraph:
    """Relabel a word graph's symbol ids with their presentation text.

    The relabelling is one-to-one on a valid graph, so the result is valid
    too and is built by `Digraph._trusted`, without `Digraph(...)`'s checks.
    """
    n = len(graph.vertices)
    if graph.vertices != frozenset(range(n)):
        raise InvalidGraphError("expected dense integer symbol ids")
    name = {v: letters_text((v,), n) for v in graph.vertices}
    return Digraph._trusted(
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


_DOT_KEYWORDS = {"node", "edge", "graph", "digraph", "subgraph", "strict"}


def _dot_id(label) -> str:
    text = str(label)
    ascii_id = text.isascii() and (text.isidentifier() or text.isdecimal())
    if ascii_id and text.lower() not in _DOT_KEYWORDS:
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


def _check_labels(labels: list[str]) -> None:
    """Non-empty, printable and comma-free: a walk prints on one line and reads back."""
    if any(v == "" or "," in v or not v.isprintable() for v in labels):
        raise InvalidGraphError("vertex labels must be non-empty, printable and contain no ','")


def to_json(graph: Digraph) -> str:
    """Render as the compact JSON interchange form with sorted string labels.

    Labels that from_json would reject raise InvalidGraphError, so the output
    always reads back, and round-trips exactly when the labels are strings.
    """
    import json  # here, not at the top: most commands never serialize

    vertices = sorted(str(v) for v in graph.vertices)
    if len(set(vertices)) != len(vertices):
        raise InvalidGraphError("labels collide when rendered as strings")
    _check_labels(vertices)
    edges = sorted([str(u), str(v)] for u, v in graph.edges)
    return json.dumps({"vertices": vertices, "edges": edges}, separators=(",", ":"))


def _unique_keys(pairs: list) -> dict:
    """A JSON object as a dict, refusing a repeated key rather than keeping its last value."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise InvalidGraphError(f"repeated key {key!r}")
        doc[key] = value
    return doc


def from_json(text: str) -> Digraph:
    """Parse the JSON interchange form, rejecting malformed documents.

    Each edge is checked once, in document order, for the checks of
    `Digraph(...)` and for duplicates, so an error names the first bad edge
    and the graph is built by `Digraph._trusted`.
    """
    import json

    try:
        # No label is a number: float() reads any digit count, int() stops at 4,300.
        doc = json.loads(text, parse_int=float, object_pairs_hook=_unique_keys)
    except InvalidGraphError:
        raise
    except (ValueError, RecursionError) as exc:
        raise InvalidGraphError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"vertices", "edges"}:
        raise InvalidGraphError('expected an object with "vertices" and "edges"')
    vertices = doc["vertices"]
    edges = doc["edges"]
    if not isinstance(vertices, list) or not all(isinstance(v, str) for v in vertices):
        raise InvalidGraphError("vertices must be an array of strings")
    _check_labels(vertices)
    known = frozenset(vertices)
    if len(known) != len(vertices):
        raise InvalidGraphError("duplicate vertex")
    if not isinstance(edges, list):
        raise InvalidGraphError("edges must be an array")
    seen: set[tuple[str, str]] = set()
    for e in edges:
        if (
            not isinstance(e, list)
            or len(e) != 2
            or not isinstance(e[0], str)
            or not isinstance(e[1], str)
        ):
            raise InvalidGraphError(f"edge {e!r} is not a pair of strings")
        u, v = e
        pair = (u, v)
        if pair in seen:
            raise InvalidGraphError(f"duplicate edge {e!r}")
        if u == v:
            raise InvalidGraphError(f"self-loop at {u!r}")
        if u not in known or v not in known:
            raise InvalidGraphError(f"edge {pair!r} uses an unknown vertex")
        seen.add(pair)
    return Digraph._trusted(known, frozenset(seen))
