"""Social graphs over the people behind a log.

Two views: handover of work (who passes work to whom, counted over
consecutive events within a case) and the review relation (who reviewed
whose submissions, counted over raw records).
"""

from __future__ import annotations

import json
from collections import Counter
from itertools import chain, islice, repeat
from operator import attrgetter
from types import MappingProxyType
from typing import Iterable, Mapping

from .eventlog import EventLog, LogError, _Value
from .petri import _is_string_list, _json_value, _quote
from .reviews import ReviewRecord


class SocialGraph(_Value):
    """Weighted directed graph over person names; ``edges`` is read-only."""

    __match_args__ = ("nodes", "edges")

    def __init__(self, nodes: frozenset[str], edges: Mapping[tuple[str, str], int]):
        self._set(frozenset(nodes), MappingProxyType(dict(edges)))
        for (tail, head), weight in self.edges.items():
            if weight <= 0:
                raise ValueError(f"edge {tail!r}->{head!r} has non-positive weight {weight}")
            if tail not in self.nodes or head not in self.nodes:
                raise ValueError(f"edge {tail!r}->{head!r} has endpoint outside nodes")

    def _values(self) -> tuple:
        # The edges as a plain dict: one that pickle and deepcopy take, and that repr shows.
        return self.nodes, dict(self.edges)


def handover_of_work(log: EventLog) -> SocialGraph:
    """Count consecutive distinct-originator pairs within each trace."""
    people = list(map(attrgetter("originators"), log.traces))
    nodes = set(chain.from_iterable(people))
    if None in nodes:
        case_id = next(t.case_id for t in log.traces if None in t.originators)
        raise LogError(f"case {case_id!r} has an event without originator")
    successors = map(islice, people, repeat(1), repeat(None))
    pairs = Counter(chain.from_iterable(map(zip, people, successors)))
    edges = {pair: n for pair, n in pairs.items() if pair[0] != pair[1]}
    return SocialGraph(frozenset(nodes), edges)


def review_relation(records: Iterable[ReviewRecord]) -> SocialGraph:
    """Count reviewer -> submitter edges; self-reviews add nodes only."""
    pairs = Counter(map(attrgetter("reviewer", "submitter"), records))
    nodes = {reviewer for reviewer, _ in pairs}
    nodes.update(submitter for _, submitter in pairs if submitter)
    edges = {pair: n for pair, n in pairs.items() if pair[1] and pair[0] != pair[1]}
    return SocialGraph(frozenset(nodes), edges)


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
    return _graph_from_payload(_json_value(text, ValueError, "social graph JSON"))


def _graph_from_payload(payload: object) -> SocialGraph:
    """Check the shape of a parsed social graph JSON value and build the graph."""
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
    weights: dict[tuple[str, str], int] = {}
    for tail, head, weight in edges:
        if (tail, head) in weights:
            raise ValueError(f"social graph JSON repeats edge {tail!r}->{head!r}")
        weights[(tail, head)] = weight
    return SocialGraph(frozenset(nodes), weights)


def _is_edge(edge: object) -> bool:
    # type() rather than isinstance(): JSON true/false load as bool, an int subclass.
    return (
        isinstance(edge, list)
        and len(edge) == 3
        and _is_string_list(edge[:2])
        and type(edge[2]) is int
    )
