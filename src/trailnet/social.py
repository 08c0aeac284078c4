"""Social graphs over the people behind a log.

Two views: handover of work (who passes work to whom, counted over
consecutive events within a case) and the review relation (who reviewed
whose submissions, counted over raw records).
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .eventlog import EventLog, LogError
from .petri import _is_string_list, _quote
from .reviews import ReviewRecord


@dataclass(frozen=True)
class SocialGraph:
    """Weighted directed graph over person names."""

    nodes: frozenset[str]
    edges: Mapping[tuple[str, str], int]

    def __post_init__(self):
        object.__setattr__(self, "nodes", frozenset(self.nodes))
        object.__setattr__(self, "edges", dict(self.edges))
        for (tail, head), weight in self.edges.items():
            if weight <= 0:
                raise ValueError(f"edge {tail!r}->{head!r} has non-positive weight {weight}")
            if tail not in self.nodes or head not in self.nodes:
                raise ValueError(f"edge {tail!r}->{head!r} has endpoint outside nodes")


def handover_of_work(log: EventLog) -> SocialGraph:
    """Count consecutive distinct-originator pairs within each trace."""
    nodes: set[str] = set()
    edges: Counter[tuple[str, str]] = Counter()
    for trace in log.traces:
        for event in trace.events:
            if event.originator is None:
                raise LogError(
                    f"case {trace.case_id!r} has an event without originator"
                )
            nodes.add(event.originator)
        people = [e.originator for e in trace.events]
        for tail, head in zip(people, people[1:]):
            if tail != head:
                edges[(tail, head)] += 1
    return SocialGraph(frozenset(nodes), dict(edges))


def review_relation(records: Iterable[ReviewRecord]) -> SocialGraph:
    """Count reviewer -> submitter edges; self-reviews add nodes only."""
    nodes: set[str] = set()
    edges: Counter[tuple[str, str]] = Counter()
    for record in records:
        nodes.add(record.reviewer)
        if record.submitter:
            nodes.add(record.submitter)
            if record.reviewer != record.submitter:
                edges[(record.reviewer, record.submitter)] += 1
    return SocialGraph(frozenset(nodes), dict(edges))


def graph_to_dot(graph: SocialGraph) -> str:
    """Graphviz digraph with weight-labelled edges, deterministic order."""
    lines = ["digraph social {"]
    for node in sorted(graph.nodes):
        lines.append(f"  {_quote(node)};")
    for tail, head in sorted(graph.edges):
        lines.append(f"  {_quote(tail)} -> {_quote(head)} [label={graph.edges[(tail, head)]}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_json(graph: SocialGraph) -> str:
    """Canonical JSON: sorted node array, sorted [from, to, weight] edges."""
    payload = {
        "nodes": sorted(graph.nodes),
        "edges": [[tail, head, graph.edges[(tail, head)]] for tail, head in sorted(graph.edges)],
    }
    return json.dumps(payload, indent=2) + "\n"


def graph_from_json(text: str) -> SocialGraph:
    """Parse the JSON rendering produced by :func:`graph_to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"invalid social graph JSON: {exc}") from None
    if not isinstance(payload, dict) or not {"nodes", "edges"} <= set(payload):
        raise ValueError("social graph JSON must carry keys nodes and edges")
    nodes = payload["nodes"]
    if not _is_string_list(nodes):
        raise ValueError("social graph JSON nodes must be a list of strings")
    edges = payload["edges"]
    if not isinstance(edges, list) or not all(_is_edge(edge) for edge in edges):
        raise ValueError(
            "social graph JSON edges must be [from, to, weight] triples"
            " of two strings and an integer"
        )
    return SocialGraph(frozenset(nodes), {(tail, head): weight for tail, head, weight in edges})


def _is_edge(edge: object) -> bool:
    # type() rather than isinstance(): JSON true/false load as bool, an int subclass.
    return (
        isinstance(edge, list)
        and len(edge) == 3
        and _is_string_list(edge[:2])
        and type(edge[2]) is int
    )
