"""DOT ids against the grammar's regular expression, on hypothesis labels.

`to_dot` writes a label bare when it is an ASCII identifier or a digit
string other than a DOT keyword, and quotes it otherwise.  The oracle here
is the DOT grammar's own pattern for those two id forms.  Labels mix ASCII
letters, digits, `_`, quotes and spaces with non-ASCII letters and digits,
which `str.isidentifier` and `str.isdecimal` accept but DOT does not, and
the keywords in mixed case.
"""

import re
import string

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st  # noqa: E402

from wordgraphs.graphs import Digraph, to_dot  # noqa: E402

BARE_ID = r"[A-Za-z_][A-Za-z0-9_]*|[0-9]+"
KEYWORDS = ["node", "edge", "graph", "digraph", "subgraph", "strict"]


def oracle(label) -> str:
    text = str(label)
    if re.fullmatch(BARE_ID, text) and text.lower() not in KEYWORDS:
        return text
    return '"' + text.replace('"', '\\"') + '"'


def mixed_case(word):
    return st.tuples(*(st.sampled_from([c.lower(), c.upper()]) for c in word)).map("".join)


labels = st.one_of(
    st.text(string.ascii_letters + string.digits + "_\"' éß٣", max_size=8),
    st.sampled_from(KEYWORDS).flatmap(mixed_case),
    st.integers(),
)


@settings(max_examples=500, deadline=None)
@given(labels)
@example("٣")
@example("é")
@example("Strict")
@example("")
def test_a_label_is_bare_exactly_when_the_grammar_says(label):
    assert to_dot(Digraph({label}, frozenset())) == f"digraph {{\n  {oracle(label)};\n}}\n"
