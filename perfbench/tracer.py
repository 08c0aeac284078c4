"""Spans around the calls the CLI chain makes into trailnet's modules.

The tracer wraps, from outside the package, the public names that
``trailnet.cli``, ``trailnet.alpha`` and the benchmark's own replay loop
look up at call time. Each call records a span (name, start, end,
parent); spans stay in memory until the traced repetition ends. Counts
are taken at the same boundaries, after the span closes, inside a
``trace.count`` span so that their cost is charged to the tracer and not
to the layer or to the command around it.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter
from contextlib import contextmanager

Span = list  # [name, start, end, parent index or -1]


def _log_counts(log, counts):
    if "eventlog.traces" in counts:
        return
    sequences = [t.activities for t in log.traces]
    counts["eventlog.events"] = sum(map(len, sequences))
    counts["eventlog.traces"] = len(sequences)
    counts["eventlog.variants"] = len(set(sequences))


def _records(records, counts):
    counts.setdefault("reviews.records", len(records))


def _cases(trace_log, counts):
    counts.setdefault("reviews.cases", len(trace_log.log.traces))


def _alphabet(matrix, counts):
    counts.setdefault("relations.alphabet", len(matrix.alphabet))


def _x_w(pairs, counts):
    counts.setdefault("alpha.x_w", len(pairs))


def _y_w(pairs, counts):
    counts.setdefault("alpha.y_w", len(pairs))


def _generated(result, counts):
    counts.setdefault("petri.generated_traces", len(result.traces))
    counts.setdefault("petri.generation_complete", int(result.complete))


def _replayed(result, counts):
    counts["petri.replayed_traces"] = counts.get("petri.replayed_traces", 0) + 1
    counts["petri.fitting_traces"] = counts.get("petri.fitting_traces", 0) + result.fits


def _graph(graph, counts):
    # Summed over every graph built in the repetition.
    counts["social.nodes"] = counts.get("social.nodes", 0) + len(graph.nodes)
    counts["social.edges"] = counts.get("social.edges", 0) + len(graph.edges)


# Module namespace -> names looked up there at call time. Count
# functions take the call's result; the first call that sets a count
# wins, except for the ones that accumulate.
TARGETS = {
    "trailnet.cli": {
        "parse_records_jsonl": _records,
        "build_log": _cases,
        "parse_csv_log": _log_counts,
        "serialize_csv_log": None,
        "footprint": _alphabet,
        "footprint_to_csv": None,
        "alpha": None,
        "intermediates_to_json": None,
        "to_json": None,
        "to_dot": None,
        "net_from_json": None,
        "generate_traces": _generated,
        "handover_of_work": _graph,
        "review_relation": _graph,
        "graph_to_json": None,
        "graph_to_dot": None,
    },
    "trailnet.alpha": {
        "footprint": _alphabet,
        "candidate_pairs": _x_w,
        "maximal_pairs": _y_w,
    },
    "trailnet.eventlog": {"parse_csv_log": _log_counts},
    "trailnet.petri": {"net_from_json": None, "replay": _replayed},
}

COUNT_SPAN = "trace.count"


class Tracer:
    """Collects spans and counts for one traced repetition at a time."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def reset(self) -> None:
        self.spans = []
        self.counts = {}
        self._stack = []

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self.spans[index][2] = time.perf_counter()
            self._stack.pop()

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def wrap(self, fn, count):
        name = "%s.%s" % (fn.__module__.rsplit(".", 1)[-1], fn.__name__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                with self.span(COUNT_SPAN):
                    count(result, self.counts)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap every target name for its traced wrapper; restore on exit."""
        saved = []
        try:
            for module_name, names in TARGETS.items():
                module = importlib.import_module(module_name)
                for name, count in names.items():
                    original = getattr(module, name)
                    saved.append((module, name, original))
                    setattr(module, name, self.wrap(original, count))
            yield self
        finally:
            for module, name, original in reversed(saved):
                setattr(module, name, original)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_time_by_name(spans: list[Span]) -> Counter:
    totals: Counter = Counter()
    for span, own in zip(spans, self_times(spans)):
        totals[span[0]] += own
    return totals


def subtree_self_time(spans: list[Span], root: int, own: list[float]) -> float:
    """Sum of the self times of ``root`` and every span below it."""
    inside = {root}
    total = own[root]
    for index in range(root + 1, len(spans)):
        if spans[index][3] in inside:
            inside.add(index)
            total += own[index]
    return total
