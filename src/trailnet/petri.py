"""Workflow nets with token-game semantics.

A workflow net is a Petri net with one source place and one sink place.
This module plays the token game on such nets: enabling, firing, replaying
recorded traces with missing/remaining token accounting, exhaustively
generating the net's trace language, checking structural isomorphism, and
serializing to DOT and JSON.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Mapping, Sequence

Marking = Mapping[str, int]


class NetStructureError(ValueError):
    """The net violates the workflow-net shape constraints."""


class NotEnabledError(ValueError):
    """A transition was fired without the tokens to back it."""


@dataclass(frozen=True)
class WorkflowNet:
    """Immutable workflow net: bipartite arcs between places and transitions."""

    places: frozenset[str]
    transitions: frozenset[str]
    arcs: frozenset[tuple[str, str]]
    source: str
    sink: str

    def __post_init__(self):
        object.__setattr__(self, "places", frozenset(self.places))
        object.__setattr__(self, "transitions", frozenset(self.transitions))
        object.__setattr__(self, "arcs", frozenset(tuple(a) for a in self.arcs))
        overlap = self.places & self.transitions
        if overlap:
            raise NetStructureError(f"names used as both place and transition: {sorted(overlap)}")
        if self.source == self.sink:
            raise NetStructureError("source and sink must be distinct places")
        for endpoint in (self.source, self.sink):
            if endpoint not in self.places:
                raise NetStructureError(f"source/sink {endpoint!r} is not a place")
        for tail, head in self.arcs:
            tail_is_place = tail in self.places
            head_is_place = head in self.places
            if tail not in self.places | self.transitions or head not in self.places | self.transitions:
                raise NetStructureError(f"arc ({tail!r}, {head!r}) references unknown node")
            if tail_is_place == head_is_place:
                raise NetStructureError(f"arc ({tail!r}, {head!r}) is not place<->transition")
            if head == self.source:
                raise NetStructureError("source place has an incoming arc")
            if tail == self.sink:
                raise NetStructureError("sink place has an outgoing arc")

    @cached_property
    def _inputs(self) -> dict[str, frozenset[str]]:
        ins: dict[str, set[str]] = {n: set() for n in self.places | self.transitions}
        for tail, head in self.arcs:
            ins[head].add(tail)
        return {n: frozenset(v) for n, v in ins.items()}

    @cached_property
    def _outputs(self) -> dict[str, frozenset[str]]:
        outs: dict[str, set[str]] = {n: set() for n in self.places | self.transitions}
        for tail, head in self.arcs:
            outs[tail].add(head)
        return {n: frozenset(v) for n, v in outs.items()}

    def inputs(self, node: str) -> frozenset[str]:
        """Nodes with an arc into ``node``."""
        return self._inputs[node]

    def outputs(self, node: str) -> frozenset[str]:
        """Nodes ``node`` has an arc to."""
        return self._outputs[node]


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one trace from the initial marking."""

    fits: bool
    consumed_missing: int
    produced_remaining: int
    firing_sequence: tuple[str, ...]


@dataclass(frozen=True)
class TraceGenerationResult:
    """Trace language up to bounds; ``complete`` means the search was exhaustive."""

    traces: frozenset[tuple[str, ...]]
    complete: bool


def initial_marking(net: WorkflowNet) -> dict[str, int]:
    return {net.source: 1}


def enabled(net: WorkflowNet, marking: Marking) -> frozenset[str]:
    """Transitions whose every input place holds at least one token."""
    for place in marking:
        if place not in net.places:
            raise KeyError(f"marking references unknown place {place!r}")
    return frozenset(
        t for t in net.transitions if all(marking.get(p, 0) >= 1 for p in net.inputs(t))
    )


def fire(net: WorkflowNet, marking: Marking, transition: str) -> dict[str, int]:
    """One token off each input place, one onto each output place."""
    if transition not in net.transitions:
        raise KeyError(f"unknown transition {transition!r}")
    missing = [p for p in net.inputs(transition) if marking.get(p, 0) < 1]
    if missing:
        raise NotEnabledError(f"transition {transition!r} lacks tokens in {sorted(missing)}")
    result = {p: n for p, n in marking.items() if n}
    for place in net.inputs(transition):
        result[place] -= 1
        if not result[place]:
            del result[place]
    for place in net.outputs(transition):
        result[place] = result.get(place, 0) + 1
    return result


def replay(net: WorkflowNet, trace: Sequence[str]) -> ReplayResult:
    """Fire the trace from {source: 1}, force-creating tokens instead of aborting.

    ``consumed_missing`` counts tokens created out of thin air to let a
    transition fire; ``produced_remaining`` counts tokens left afterwards
    outside the sink, plus every sink token beyond the first. The trace
    fits only when neither happened and the final marking is exactly one
    token on the sink.
    """
    for activity in trace:
        if activity not in net.transitions:
            raise KeyError(f"trace activity {activity!r} is not a transition of the net")
    marking = initial_marking(net)
    missing = 0
    for activity in trace:
        for place in net.inputs(activity):
            if marking.get(place, 0) >= 1:
                marking[place] -= 1
                if not marking[place]:
                    del marking[place]
            else:
                missing += 1
        for place in net.outputs(activity):
            marking[place] = marking.get(place, 0) + 1
    # Every token is left over except one on the sink.
    remaining = sum(marking.values()) - min(marking.get(net.sink, 0), 1)
    fits = missing == 0 and remaining == 0 and marking == {net.sink: 1}
    return ReplayResult(fits, missing, remaining, tuple(trace))


def generate_traces(net: WorkflowNet, max_length: int, max_traces: int) -> TraceGenerationResult:
    """All complete firing sequences (ending at exactly {sink: 1}) within bounds.

    Depth-first, cutting each branch at ``max_length`` firings and the
    whole search at ``max_traces`` collected sequences; either cut marks
    the result incomplete. An empty but complete result means the net
    truly has no complete firing sequence.
    """
    if max_length < 0 or max_traces < 0:
        raise ValueError("bounds must be non-negative")
    final = {net.sink: 1}
    found: set[tuple[str, ...]] = set()
    complete = True
    # Each stack entry is (marking, sequence); children pushed in reverse
    # sorted order so sequences are explored lexicographically.
    stack: list[tuple[dict[str, int], tuple[str, ...]]] = [(initial_marking(net), ())]
    while stack:
        marking, sequence = stack.pop()
        if marking == final:
            if len(found) >= max_traces:
                complete = False
                break
            found.add(sequence)
            continue
        fireable = enabled(net, marking)
        if not fireable:
            continue
        if len(sequence) >= max_length:
            complete = False
            continue
        for transition in sorted(fireable, reverse=True):
            stack.append((fire(net, marking, transition), sequence + (transition,)))
    return TraceGenerationResult(frozenset(found), complete)


def _place_signatures(net: WorkflowNet) -> Counter:
    return Counter((net.inputs(p), net.outputs(p)) for p in net.places)


def isomorphic(a: WorkflowNet, b: WorkflowNet) -> bool:
    """Same transitions and an arc-preserving place bijection.

    Places are canonicalized to their (input transitions, output
    transitions) signature; signature multisets then decide isomorphism.
    """
    return a.transitions == b.transitions and _place_signatures(a) == _place_signatures(b)


def _quote(name: str) -> str:
    """A double-quoted Graphviz ID."""
    return '"%s"' % name.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(net: WorkflowNet) -> str:
    """Graphviz digraph: circles for places (source/sink doubled), boxes for transitions."""
    lines = ["digraph workflow {", "  rankdir=LR;"]
    for place in sorted(net.places):
        shape = "doublecircle" if place in (net.source, net.sink) else "circle"
        lines.append(f"  {_quote(place)} [shape={shape}];")
    for transition in sorted(net.transitions):
        lines.append(f"  {_quote(transition)} [shape=box];")
    for tail, head in sorted(net.arcs):
        lines.append(f"  {_quote(tail)} -> {_quote(head)};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def to_json(net: WorkflowNet) -> str:
    """Canonical JSON rendering with lexicographically sorted arrays."""
    payload = {
        "places": sorted(net.places),
        "transitions": sorted(net.transitions),
        "arcs": [list(arc) for arc in sorted(net.arcs)],
        "source": net.source,
        "sink": net.sink,
    }
    return json.dumps(payload, indent=2) + "\n"


def net_from_json(text: str) -> WorkflowNet:
    """Parse the JSON rendering produced by :func:`to_json`."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise NetStructureError(f"invalid net JSON: {exc}") from None
    required = {"places", "transitions", "arcs", "source", "sink"}
    if not isinstance(payload, dict) or not required.issubset(payload):
        raise NetStructureError(f"net JSON must carry keys {sorted(required)}")
    for key in ("places", "transitions"):
        if not _is_string_list(payload[key]):
            raise NetStructureError(f"net JSON {key} must be a list of strings")
    for key in ("source", "sink"):
        if not isinstance(payload[key], str):
            raise NetStructureError(f"net JSON {key} must be a string")
    arcs = payload["arcs"]
    if not isinstance(arcs, list) or not all(
        _is_string_list(arc) and len(arc) == 2 for arc in arcs
    ):
        raise NetStructureError("net JSON arcs must be [from, to] pairs of strings")
    return WorkflowNet(
        places=frozenset(payload["places"]),
        transitions=frozenset(payload["transitions"]),
        arcs=frozenset(tuple(arc) for arc in arcs),
        source=payload["source"],
        sink=payload["sink"],
    )


def _is_string_list(value: object) -> bool:
    return isinstance(value, list) and all(isinstance(item, str) for item in value)
