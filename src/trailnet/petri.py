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
        nodes = self.places | self.transitions
        for tail, head in self.arcs:
            if tail not in nodes or head not in nodes:
                raise NetStructureError(f"arc ({tail!r}, {head!r}) references unknown node")
            tail_is_place = tail in self.places
            head_is_place = head in self.places
            if tail_is_place == head_is_place:
                raise NetStructureError(f"arc ({tail!r}, {head!r}) is not place<->transition")
            if head == self.source:
                raise NetStructureError("source place has an incoming arc")
            if tail == self.sink:
                raise NetStructureError("sink place has an outgoing arc")

    @cached_property
    def _neighbours(self) -> tuple[dict[str, frozenset[str]], dict[str, frozenset[str]]]:
        ins: dict[str, set[str]] = {n: set() for n in self.places | self.transitions}
        outs: dict[str, set[str]] = {n: set() for n in ins}
        for tail, head in self.arcs:
            ins[head].add(tail)
            outs[tail].add(head)
        return tuple({n: frozenset(v) for n, v in side.items()} for side in (ins, outs))

    def inputs(self, node: str) -> frozenset[str]:
        """Nodes with an arc into ``node``."""
        return self._neighbours[0][node]

    def outputs(self, node: str) -> frozenset[str]:
        """Nodes ``node`` has an arc to."""
        return self._neighbours[1][node]


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of replaying one trace from the initial marking."""

    fits: bool
    consumed_missing: int
    produced_remaining: int


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

    After the last firing one token is taken off the sink, the final
    token. ``consumed_missing`` counts tokens created out of thin air to
    let a transition, or that last consumption, go ahead;
    ``produced_remaining`` counts the tokens left over at the end. The
    trace fits exactly when both are zero, so every misfit has a count.
    """
    for activity in trace:
        if activity not in net.transitions:
            raise KeyError(f"trace activity {activity!r} is not a transition of the net")
    marking = initial_marking(net)
    missing = 0
    for activity in trace:
        for place in net.inputs(activity):
            if marking.get(place, 0):
                marking[place] -= 1
            else:
                missing += 1
        for place in net.outputs(activity):
            marking[place] = marking.get(place, 0) + 1
    if marking.get(net.sink, 0):
        marking[net.sink] -= 1
    else:
        missing += 1
    remaining = sum(marking.values())
    return ReplayResult(missing == 0 and remaining == 0, missing, remaining)


def generate_traces(net: WorkflowNet, max_length: int, max_traces: int) -> TraceGenerationResult:
    """All complete firing sequences (ending at exactly {sink: 1}) within bounds.

    Depth-first in lexicographic order, cutting each branch at
    ``max_length`` firings and the whole search at ``max_traces`` collected
    sequences; either cut marks the result incomplete. Under the
    ``max_traces`` cut the kept sequences are the lexicographically
    smallest complete ones. An empty but complete result means the net
    truly has no complete firing sequence. A final marking is never
    expanded, and the length cut counts only where a transition is enabled.

    Markings are tuples of token counts over the sorted places, and each
    distinct marking computes its successors once. The cost therefore
    scales with the distinct reachable markings plus the size of the
    output: what is left per explored prefix is a table lookup and a push,
    and without dead ends every prefix is part of some output sequence.
    """
    if max_length < 0 or max_traces < 0:
        raise ValueError("bounds must be non-negative")
    places = sorted(net.places)
    index = {place: i for i, place in enumerate(places)}
    # Reverse-sorted, so that pushing children in this order pops the
    # lexicographically smallest sequence first.
    moves = [
        (t, [index[p] for p in net.inputs(t)], [index[p] for p in net.outputs(t)])
        for t in sorted(net.transitions, reverse=True)
    ]
    start = tuple(int(p == net.source) for p in places)
    final = tuple(int(p == net.sink) for p in places)
    successors: dict[tuple[int, ...], list[tuple[str, tuple[int, ...]]]] = {}
    found: list[tuple[str, ...]] = []
    complete = True
    stack: list[tuple[tuple[int, ...], tuple[str, ...]]] = [(start, ())]
    while stack:
        marking, sequence = stack.pop()
        if marking == final:
            if len(found) >= max_traces:
                complete = False
                break
            found.append(sequence)
            continue
        children = successors.get(marking)
        if children is None:
            children = successors[marking] = _successors(marking, moves)
        if not children:
            continue
        if len(sequence) >= max_length:
            complete = False
            continue
        stack.extend([(child, sequence + (t,)) for t, child in children])
    return TraceGenerationResult(frozenset(found), complete)


def _successors(
    marking: tuple[int, ...], moves: list[tuple[str, list[int], list[int]]]
) -> list[tuple[str, tuple[int, ...]]]:
    """``(transition, marking after firing it)`` for each enabled move, in order."""
    children = []
    for transition, consumed, produced in moves:
        if all(marking[p] for p in consumed):
            child = list(marking)
            for p in consumed:
                child[p] -= 1
            for p in produced:
                child[p] += 1
            children.append((transition, tuple(child)))
    return children


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
    except RecursionError:
        raise NetStructureError("invalid net JSON: nested too deeply") from None
    return _net_from_payload(payload)


def _net_from_payload(payload: object) -> WorkflowNet:
    """Check the shape of a parsed net JSON value and build the net."""
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
