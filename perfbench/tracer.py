"""Spans around the public functions of the chordcycles modules.

The tracer lives in the benchmark, not in the program: `install` rebinds each
traced function in every module namespace that holds it, which covers names
imported with `from .module import name` (the CLI imports
`find_dense_cycle`, `pipeline`, `active_closure` and `verify_closure_lemmas`
that way, and `contraction` imports `contract_edges`).  `uninstall` puts the
originals back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

PACKAGE = "chordcycles"

# (span name, module, function): the layer boundaries the workloads cross.
# Each span name's prefix is its layer.
TARGETS = (
    ("graph.parse", "graph", "parse_edge_list"),
    ("graph.contract_edges", "graph", "contract_edges"),
    ("graph.generate", "graph", "generate"),
    ("lollipop.find", "lollipop", "find_dense_cycle"),
    ("lollipop.closure", "lollipop", "active_closure"),
    ("lollipop.audit", "lollipop", "verify_closure_lemmas"),
    ("contraction.pipeline", "contraction", "pipeline"),
    ("contraction.passive", "contraction", "passive_contraction"),
    ("contraction.half", "contraction", "half_contraction"),
    ("contraction.choose", "contraction", "choose_average_plan"),
    ("minors.k4", "minors", "k4_model"),
    ("minors.k5", "minors", "k5_model"),
    ("minors.k6", "minors", "k6_from_bipartite"),
    ("minors.kll", "minors", "kll_prime_model"),
    ("minors.grid", "minors", "grid_block_partition"),
    ("minors.verify", "minors", "verify_model"),
    ("oracle.minor_search", "oracle", "cyclic_minor_exists"),
    ("oracle.ham_enum", "oracle", "enumerate_hamiltonian_cycles"),
    ("oracle.first_ham", "oracle", "first_hamiltonian_cycle"),
    ("oracle.max_chords", "oracle", "max_chords_over_cycles"),
    ("cli.main", "cli", "main"),
)

LAYERS = ("graph", "lollipop", "contraction", "minors", "oracle", "cli")


def outcome_of(result) -> str:
    """Short label for a traced call's result, used by the counters."""
    if result is None:
        return "none"
    if getattr(result, "exact", True) is False:
        return "inexact"
    return type(result).__name__


@dataclass
class Span:
    name: str
    request: int
    parent: int  # index of the enclosing span, -1 for a request's root span
    start: float
    end: float = 0.0
    outcome: str = ""


@dataclass
class Aggregate:
    calls: int = 0
    inclusive: float = 0.0
    self_time: float = 0.0
    outcomes: Counter = field(default_factory=Counter)


class Tracer:
    """Records one span per call of a traced function, kept in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, self.request, stack[-1] if stack else -1, 0.0)
            spans.append(span)
            stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.outcome = "raised:" + type(exc).__name__
                raise
            else:
                span.outcome = outcome_of(result)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def install(self):
        modules = [
            m for key, m in sys.modules.items()
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for name, module, attr in TARGETS:
            original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._patched.append((mod, key, original))

    def uninstall(self):
        for mod, key, original in reversed(self._patched):
            setattr(mod, key, original)
        self._patched.clear()

    def aggregate(self) -> dict[str, Aggregate]:
        """Calls, inclusive time, self time and outcomes per span name.

        Self time is a span's duration minus the durations of its direct
        children; children never overlap because calls nest.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        out: dict[str, Aggregate] = defaultdict(Aggregate)
        for span, inner in zip(self.spans, child_time):
            agg = out[span.name]
            agg.calls += 1
            agg.inclusive += span.end - span.start
            agg.self_time += span.end - span.start - inner
            agg.outcomes[span.outcome] += 1
        return out
