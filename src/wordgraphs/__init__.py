"""Digraphs encoded by words: construction, connectivity, synthesis, counting."""

from .connectivity import (
    EmptyGraphError,
    SccDecomposition,
    bridges,
    condensation,
    edge_connectivity,
    scc_decomposition,
    strongly_connected,
    weakly_connected,
)
from .counting import (
    CapExceededError,
    CountTable,
    brute_force_strong_count,
    csv_lines,
    scc_histogram,
    stirling2,
    strong_partition_count,
    strong_word_count,
)
from .factorization import (
    finest_disjoint_factorization,
    split_points,
)
from .graphs import (
    Digraph,
    InvalidGraphError,
    build_graph,
    from_json,
    letter_labeled,
    to_dot,
    to_json,
)
from .represent import (
    NotRepresentableError,
    NotStronglyConnectedError,
    covering_walk,
    representational_walk,
    synthesize_word,
)
from .verify import VerificationReport, run_verification
from .words import (
    EmptyWordError,
    InvalidWordError,
    Word,
    iter_canonical_words,
    parse_word,
)

__version__ = "0.1.0"

__all__ = [
    "EmptyGraphError",
    "SccDecomposition",
    "bridges",
    "condensation",
    "edge_connectivity",
    "scc_decomposition",
    "strongly_connected",
    "weakly_connected",
    "CapExceededError",
    "CountTable",
    "brute_force_strong_count",
    "csv_lines",
    "scc_histogram",
    "stirling2",
    "strong_partition_count",
    "strong_word_count",
    "finest_disjoint_factorization",
    "split_points",
    "Digraph",
    "InvalidGraphError",
    "build_graph",
    "from_json",
    "letter_labeled",
    "to_dot",
    "to_json",
    "NotRepresentableError",
    "NotStronglyConnectedError",
    "covering_walk",
    "representational_walk",
    "synthesize_word",
    "VerificationReport",
    "run_verification",
    "EmptyWordError",
    "InvalidWordError",
    "Word",
    "iter_canonical_words",
    "parse_word",
]
