"""Per-layer spans recorded from outside the program.

`Tracer.install` replaces each traced public function of wordgraphs with a
wrapper in every wordgraphs module namespace that holds it, so a call is
caught whichever module makes it: `connectivity.bridges` is seen both when
`cli` calls it and when `edge_connectivity` calls it.  Each wrapped call is
a span with a parent (the innermost open span).  Spans are folded into
totals as they close: inclusive time, self time (inclusive minus the time
covered by child spans) and calls, per layer and per (parent, layer) pair.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, attribute) of every traced layer; "CountTable.x" is a method.
TARGETS = [
    ("cli", "main"),
    ("words", "parse_word"),
    ("words", "iter_canonical_words"),
    ("graphs", "build_graph"),
    ("graphs", "from_json"),
    ("connectivity", "scc_decomposition"),
    ("connectivity", "strongly_connected"),
    ("connectivity", "weakly_connected"),
    ("connectivity", "bridges"),
    ("connectivity", "edge_connectivity"),
    ("connectivity", "condensation"),
    ("factorization", "split_points"),
    ("factorization", "finest_disjoint_factorization"),
    ("represent", "representational_walk"),
    ("represent", "covering_walk"),
    ("counting", "CountTable.strong_partition_count"),
    ("counting", "csv_lines"),
    ("counting", "brute_force_strong_count"),
    ("counting", "scc_histogram"),
    ("verify", "run_verification"),
]

GENERATORS = {"words.iter_canonical_words"}
BRUTE_FORCE = "counting.brute_force_strong_count"


class Tracer:
    def __init__(self) -> None:
        self._open: list[list] = []  # [name, start, time covered by children]
        self._restore: list[tuple] = []
        self.reset()

    def reset(self) -> None:
        self.totals: dict[str, list] = {}  # name -> [inclusive s, self s, calls]
        self.edges: dict[str, int] = {}  # "parent>child" -> calls
        self.brute_force_lengths: set[int] = set()

    def snapshot(self) -> dict:
        return {
            "totals": {k: list(v) for k, v in self.totals.items()},
            "edges": dict(self.edges),
            "brute_force_lengths": sorted(self.brute_force_lengths),
        }

    def _enter(self, name: str) -> None:
        self._open.append([name, time.perf_counter(), 0.0])

    def _leave(self) -> None:
        end = time.perf_counter()
        name, start, covered = self._open.pop()
        took = end - start
        row = self.totals.setdefault(name, [0.0, 0.0, 0])
        row[0] += took
        row[1] += took - covered
        row[2] += 1
        parent = self._open[-1][0] if self._open else "-"
        key = f"{parent}>{name}"
        self.edges[key] = self.edges.get(key, 0) + 1
        if self._open:
            self._open[-1][2] += took

    def _wrap(self, name: str, func):
        tracer = self
        if name in GENERATORS:

            def traced_gen(*args, **kwargs):
                items = func(*args, **kwargs)
                while True:
                    tracer._enter(name)
                    try:
                        item = next(items)
                    except StopIteration:
                        return
                    finally:
                        tracer._leave()
                    yield item

            return traced_gen

        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                result = func(*args, **kwargs)
            finally:
                tracer._leave()
            if name == BRUTE_FORCE:
                tracer.brute_force_lengths.add(args[0] if args else kwargs["length"])
            return result

        return traced

    def install(self) -> None:
        """Wrap every target in every loaded wordgraphs module that holds it."""
        package = importlib.import_module("wordgraphs")
        modules = [package] + [
            sys.modules[key]
            for key in sorted(sys.modules)
            if key.startswith("wordgraphs.")
        ]
        for module_name, attr in TARGETS:
            module = importlib.import_module(f"wordgraphs.{module_name}")
            name = f"{module_name}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._restore.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()
