"""Workflow nets with token-game semantics.

A workflow net is a Petri net with one source place and one sink place.
This module plays the token game on such nets: replaying recorded traces
with missing/remaining token accounting and exhaustively generating the
net's trace language. It also checks structural isomorphism and
serializes to DOT and JSON.
"""

from __future__ import annotations

import json
from collections import Counter
from functools import cached_property
from typing import NamedTuple, Sequence

from .eventlog import _Value


class NetStructureError(ValueError):
    """The net violates the workflow-net shape constraints."""


class _IndexedNet(NamedTuple):
    """A net's arcs as indices into its sorted places, for the token games: replay
    looks each transition up in ``arcs_of`` and the search walks it in reverse."""

    places: tuple[str, ...]
    # transition -> (input place indices, output place indices), in sorted transition order
    arcs_of: dict[str, tuple[tuple[int, ...], tuple[int, ...]]]
    source: int
    sink: int


class WorkflowNet(_Value):
    """Immutable workflow net: bipartite arcs between places and transitions."""

    __match_args__ = ("places", "transitions", "arcs", "source", "sink")

    def __init__(
        self,
        places: frozenset[str],
        transitions: frozenset[str],
        arcs: frozenset[tuple[str, str]],
        source: str,
        sink: str,
    ):
        arcs = frozenset(tuple(a) for a in arcs)
        self._set(frozenset(places), frozenset(transitions), arcs, source, sink)
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

    @cached_property
    def _indexed(self) -> _IndexedNet:
        places = tuple(sorted(self.places))
        index = {place: i for i, place in enumerate(places)}
        arcs_of = {
            t: (tuple(index[p] for p in self.inputs(t)), tuple(index[p] for p in self.outputs(t)))
            for t in sorted(self.transitions)
        }
        return _IndexedNet(places, arcs_of, index[self.source], index[self.sink])

    @cached_property
    def _replays(self) -> dict[tuple[str, ...], ReplayResult]:
        """This net's replay memo: each trace replayed on it, as a tuple, to its result."""
        return {}

    @cached_property
    def _outcomes(self) -> dict[tuple[bool, int, int], ReplayResult]:
        """The one result per field tuple that every trace with those counts shares."""
        return {}

    def inputs(self, node: str) -> frozenset[str]:
        """Nodes with an arc into ``node``."""
        return self._neighbours[0][node]

    def outputs(self, node: str) -> frozenset[str]:
        """Nodes ``node`` has an arc to."""
        return self._neighbours[1][node]


class ReplayResult(_Value):
    """Outcome of replaying one trace from the initial marking."""

    __match_args__ = ("fits", "consumed_missing", "produced_remaining")

    def __init__(self, fits: bool, consumed_missing: int, produced_remaining: int):
        self._set(fits, consumed_missing, produced_remaining)


class TraceGenerationResult(_Value):
    """Trace language up to bounds; ``complete`` means the search was exhaustive.

    ``traces`` holds each complete firing sequence once, in increasing
    lexicographic order.
    """

    __match_args__ = ("traces", "complete")

    def __init__(self, traces: tuple[tuple[str, ...], ...], complete: bool):
        self._set(traces, complete)


def replay(net: WorkflowNet, trace: Sequence[str]) -> ReplayResult:
    """Fire the trace from {source: 1}, force-creating tokens instead of aborting.

    After the last firing one token is taken off the sink, the final
    token. ``consumed_missing`` counts tokens created out of thin air to
    let a transition, or that last consumption, go ahead;
    ``produced_remaining`` counts the tokens left over at the end. The
    trace fits exactly when both are zero, so every misfit has a count.

    Each distinct trace is replayed once per net object: the net keeps a
    memo from ``tuple(trace)`` to its result, which starts empty, grows
    with the distinct traces replayed on that net and goes with the net,
    so a newly built net, even an equal one, starts again. Traces with
    the same counts get the same frozen ``ReplayResult`` object. The net
    is compiled to place indices once, so each event of a replayed trace
    costs one dict lookup plus its token arithmetic on a list of counts.
    A ``KeyError`` names the first activity, in trace order, that is not
    a transition of the net, and leaves the memo as it was.
    """
    trace = tuple(trace)
    result = net._replays.get(trace)
    if result is None:
        missing, remaining = _token_game(net._indexed, trace)
        outcome = (missing == 0 and remaining == 0, missing, remaining)
        result = net._outcomes.get(outcome)
        if result is None:
            result = net._outcomes[outcome] = ReplayResult(*outcome)
        net._replays[trace] = result
    return result


def _token_game(indexed: _IndexedNet, trace: tuple[str, ...]) -> tuple[int, int]:
    """``(missing, remaining)`` of one replay of ``trace`` on the compiled net."""
    arcs_of = indexed.arcs_of
    marking = [0] * len(indexed.places)
    marking[indexed.source] = 1
    missing = 0
    for activity in trace:
        try:
            consumed, produced = arcs_of[activity]
        except KeyError:
            raise KeyError(f"trace activity {activity!r} is not a transition of the net") from None
        for place in consumed:
            if marking[place]:
                marking[place] -= 1
            else:
                missing += 1
        for place in produced:
            marking[place] += 1
    if marking[indexed.sink]:
        marking[indexed.sink] -= 1
    else:
        missing += 1
    return missing, sum(marking)


_SPAN = None  # the marking of a stack entry that closes a subtree in generate_traces


def generate_traces(net: WorkflowNet, max_length: int, max_traces: int) -> TraceGenerationResult:
    """All complete firing sequences (ending at exactly {sink: 1}) within bounds.

    Depth-first in lexicographic order, cutting each branch at
    ``max_length`` firings and the whole search at ``max_traces`` collected
    sequences; either cut marks the result incomplete. An empty but
    complete result means the net truly has no complete firing sequence.
    A final marking is never expanded, and the length cut counts only
    where a transition is enabled.

    The sequences come back in the order the search finds them, which is
    increasing lexicographic order with no repeats: the smallest child is
    expanded first, firing is deterministic, and a complete sequence is
    never the prefix of another because its final marking is not
    expanded. Under the ``max_traces`` cut the kept sequences are
    therefore the lexicographically smallest complete ones.

    The net is compiled to place indices once per net object. Markings
    are tuples of token counts over the sorted places, and the search
    computes each distinct marking's successors, as ``(transition, child
    marking)`` pairs, once, in a table keyed by the marking.
    The complete suffixes below a marking depend only on that marking and
    on the length left, so each (marking, depth) pair is expanded once:
    the first visit records the slice of the found sequences its subtree
    produced, and a later visit copies that slice under its own prefix
    instead of searching again, keeping only what fits under the
    ``max_traces`` cut. The cost therefore scales with the distinct
    (marking, depth) pairs times their fan-out, plus the size of the
    output.
    """
    if max_length < 0 or max_traces < 0:
        raise ValueError("bounds must be non-negative")
    indexed = net._indexed
    places = range(len(indexed.places))
    start = tuple(int(p == indexed.source) for p in places)
    final = tuple(int(p == indexed.sink) for p in places)
    found: list[tuple[str, ...]] = []
    complete = True
    # marking -> (children, spans): its successors, and depth -> (first, last),
    # the slice of found below its first visit at that depth, recorded by an
    # entry (_SPAN, (spans, depth, first)) pushed under its children.
    nodes: dict[tuple[int, ...], tuple[list, dict]] = {}
    stack: list[tuple] = [(start, ())]
    push = stack.append
    while stack:
        marking, sequence = stack.pop()
        if marking is _SPAN:
            spans, depth, first = sequence
            spans[depth] = (first, len(found))
            continue
        if marking == final:
            if len(found) >= max_traces:
                complete = False
                break
            found.append(sequence)
            continue
        node = nodes.get(marking)
        if node is None:
            node = nodes[marking] = (_successors(marking, indexed.arcs_of), {})
        children, spans = node
        if not children:
            continue
        depth = len(sequence)
        if depth >= max_length:
            complete = False
            continue
        span = spans.get(depth)
        if span is not None:
            first, last = span
            room = max_traces - len(found)
            found += [sequence + t[depth:] for t in found[first : min(last, first + room)]]
            if last - first > room:
                complete = False
                break
            continue
        push((_SPAN, (spans, depth, len(found))))
        for t, child in children:
            push((child, sequence + (t,)))
    return TraceGenerationResult(tuple(found), complete)


def _successors(
    marking: tuple[int, ...], arcs_of: dict[str, tuple[tuple[int, ...], tuple[int, ...]]]
) -> list[tuple[str, tuple[int, ...]]]:
    """``(transition, marking after firing it)`` for each enabled transition, in
    reverse-sorted transition order, since ``arcs_of`` is sorted: pushing the
    children in this order pops the lexicographically smallest one first."""
    children = []
    for transition, (consumed, produced) in reversed(arcs_of.items()):
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
    return _net_from_payload(_json_value(text, NetStructureError, "net JSON"))


def _json_value(text: str, error: type[ValueError], what: str) -> object:
    """The JSON value of ``text``, for every JSON artifact reader: a decode error
    raises ``error("invalid <what>: <its message>")``, and nesting too deep for
    the decoder ``error("invalid <what>: nested too deeply")``."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise error(f"invalid {what}: {exc}") from None
    except RecursionError:
        raise error(f"invalid {what}: nested too deeply") from None


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
