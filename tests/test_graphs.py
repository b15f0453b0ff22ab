import pickle

import pytest

from wordgraphs.graphs import (
    Digraph,
    InvalidGraphError,
    build_graph,
    from_json,
    letter_labeled,
    to_dot,
    to_json,
)
from wordgraphs.words import Word, iter_canonical_words, parse_word

from brute import all_words


class TestBuildGraph:
    def test_cycle(self):
        g = build_graph(parse_word("abca"))
        assert g.vertices == frozenset({0, 1, 2})
        assert g.edges == frozenset({(0, 1), (1, 2), (2, 0)})

    def test_identical_pairs_dropped(self):
        g = build_graph(parse_word("aabb"))
        assert g.edges == frozenset({(0, 1)})

    def test_duplicates_collapse(self):
        g = build_graph(parse_word("abab"))
        assert g.edges == frozenset({(0, 1), (1, 0)})

    def test_edge_count_bound(self):
        for w in all_words(6, 4, Word):
            assert len(build_graph(w).edges) <= w.length - 1

    def test_canonicalization_relabels_graph(self):
        for w in all_words(5, 4, Word):
            mapping = {}
            for c in w.letters:
                mapping.setdefault(c, len(mapping))
            g = build_graph(w)
            relabeled = Digraph(
                frozenset(mapping[v] for v in g.vertices),
                frozenset((mapping[u], mapping[v]) for u, v in g.edges),
            )
            assert build_graph(parse_word(w.text())) == relabeled


class TestDigraph:
    def test_self_loop_rejected(self):
        with pytest.raises(InvalidGraphError):
            Digraph(frozenset({"a"}), frozenset({("a", "a")}))

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(InvalidGraphError):
            Digraph(frozenset({"a"}), frozenset({("a", "b")}))

    def test_non_pair_rejected(self):
        with pytest.raises(InvalidGraphError):
            Digraph(frozenset({"a", "b", "c"}), frozenset({("a", "b", "c")}))

    def test_inputs_coerced(self):
        g = Digraph({"a", "b"}, [("a", "b")])
        assert isinstance(g.vertices, frozenset)
        assert isinstance(g.edges, frozenset)

    def test_letter_labeled(self):
        g = letter_labeled(build_graph(parse_word("abca")))
        assert g.vertices == frozenset({"a", "b", "c"})
        assert ("c", "a") in g.edges

    def test_letter_labeled_needs_symbol_ids(self):
        with pytest.raises(InvalidGraphError):
            letter_labeled(Digraph({"a"}, frozenset()))

    def test_attributes_cannot_change(self):
        g = Digraph({0, 1}, {(0, 1)})
        for name in ("vertices", "edges", "unknown"):
            with pytest.raises(AttributeError):
                setattr(g, name, frozenset())
            with pytest.raises(AttributeError):
                delattr(g, name)
        assert g.vertices == frozenset({0, 1}) and g.edges == frozenset({(0, 1)})

    def test_value_semantics(self):
        g = Digraph({0, 1}, {(0, 1)})
        assert g == Digraph([0, 1], [[0, 1]]) and g != Digraph({0, 1}, {(1, 0)})
        assert g != (g.vertices, g.edges) and g.__eq__(g.vertices) is NotImplemented
        assert hash(g) == hash((frozenset({0, 1}), frozenset({(0, 1)})))
        assert pickle.loads(pickle.dumps(g)) == g

    def test_repr(self):
        g = build_graph(parse_word("abca"))
        assert repr(g) == (
            "Digraph(vertices=frozenset({0, 1, 2}), edges=frozenset({(0, 1), (1, 2), (2, 0)}))"
        )


class TestDot:
    def test_single_edge(self):
        text = to_dot(Digraph({"a", "b"}, {("a", "b")}))
        assert "a -> b;" in text
        assert text == "digraph {\n  a;\n  b;\n  a -> b;\n}\n"

    def test_lone_vertex(self):
        text = to_dot(Digraph({"a"}, frozenset()))
        assert "  a;" in text

    def test_edges_sorted(self):
        text = to_dot(Digraph({"a", "b"}, {("b", "a"), ("a", "b")}))
        assert text.index("a -> b;") < text.index("b -> a;")

    def test_odd_labels_quoted(self):
        text = to_dot(Digraph({"x y"}, frozenset()))
        assert '"x y";' in text
        # DOT keywords (in any case) and digit-led non-numerals are not bare IDs.
        odd = ["node", "Edge", "GRAPH", "digraph", "subgraph", "strict", "1a", "é", "-1", "1.5"]
        text = to_dot(Digraph(odd, frozenset()))
        for label in odd:
            assert f'  "{label}";' in text
        bare = ["a", "_x", "node_1", "strictly", "x9", "0", "27", "007"]
        text = to_dot(Digraph(bare, frozenset()))
        for label in bare:
            assert f"  {label};" in text


class TestJson:
    def test_exact_form(self):
        g = Digraph({"a", "b"}, {("a", "b")})
        assert to_json(g) == '{"vertices":["a","b"],"edges":[["a","b"]]}'

    def test_round_trip_hand_graphs(self):
        graphs = [
            Digraph({"a"}, frozenset()),
            Digraph({"a", "b"}, {("a", "b"), ("b", "a")}),
            Digraph({"a", "b", "c"}, {("a", "b"), ("c", "b")}),
        ]
        for g in graphs:
            assert from_json(to_json(g)) == g

    def test_round_trip_word_graphs(self):
        for length in range(1, 7):
            for n in range(1, length + 1):
                for w in iter_canonical_words(length, n):
                    g = letter_labeled(build_graph(w))
                    assert from_json(to_json(g)) == g

    @pytest.mark.parametrize(
        "text",
        [
            "not json",
            "[]",
            '{"vertices":["a"]}',
            '{"vertices":["a"],"edges":[],"extra":1}',
            '{"vertices":"a","edges":[]}',
            '{"vertices":[1],"edges":[]}',
            '{"vertices":["a","a"],"edges":[]}',
            '{"vertices":["a"],"edges":[["a","a"]]}',
            '{"vertices":["a"],"edges":[["a","b"]]}',
            '{"vertices":["a","b"],"edges":[["a","b"],["a","b"]]}',
            '{"vertices":["a","b"],"edges":[["a"]]}',
            '{"vertices":["a","b"],"edges":[["a",2]]}',
            '{"vertices":["a",""],"edges":[]}',
            '{"vertices":["a,b","c"],"edges":[["a,b","c"]]}',
            '{"vertices":["a\\nb","c"],"edges":[["a\\nb","c"],["c","a\\nb"]]}',
            '{"vertices":["a\\tb","c"],"edges":[["a\\tb","c"]]}',
            '{"vertices":["a\\u2028b","c"],"edges":[]}',
            pytest.param("[" * 200_000, id="nested-200000"),
            # Past CPython's 4,300-digit limit int() refuses a JSON integer literal.
            pytest.param('{"vertices":[' + "1" * 5000 + '],"edges":[]}', id="digits-5000"),
        ],
    )
    def test_malformed_documents(self, text):
        with pytest.raises(InvalidGraphError):
            from_json(text)
