"""Workflow-net discovery from event logs via the classic alpha miner.

The eight steps: collect the task alphabet, the initial and final tasks,
find the maximal place pairs (A, B), where every A-member causally
precedes every B-member and each side is internally unrelated, by a
clique search; the candidate pairs X_W are their downward closure. Then
wire one place per maximal pair between a fresh source and sink.
"""

from __future__ import annotations

import itertools
import json
import warnings
from dataclasses import dataclass

from .eventlog import EventLog
from .relations import FootprintMatrix, Relation, footprint
from .petri import WorkflowNet

SOURCE_PLACE = "i_W"
SINK_PLACE = "o_W"
DEFAULT_ALPHABET_LIMIT = 16

CandidatePair = tuple[frozenset[str], frozenset[str]]


class AlphabetLimitError(ValueError):
    """Alphabet too large for the exponential candidate-pair set X_W."""

    def __init__(self, size: int, limit: int):
        super().__init__(f"alphabet has {size} activities, limit is {limit}")
        self.size = size
        self.limit = limit


class DanglingActivityWarning(UserWarning):
    """An activity ended up with no arcs in the mined net."""


@dataclass(frozen=True)
class AlphaIntermediates:
    """Every intermediate set of the miner, exposed for inspection."""

    t_w: frozenset[str]
    t_i: frozenset[str]
    t_o: frozenset[str]
    x_w: frozenset[CandidatePair]
    y_w: frozenset[CandidatePair]


def initial_tasks(log: EventLog) -> frozenset[str]:
    """First activity of each trace."""
    if not log.traces:
        raise ValueError("empty log has no initial tasks")
    return frozenset(t.events[0].activity for t in log.traces)


def final_tasks(log: EventLog) -> frozenset[str]:
    """Last activity of each trace."""
    if not log.traces:
        raise ValueError("empty log has no final tasks")
    return frozenset(t.events[-1].activity for t in log.traces)


def _direct_maximal_pairs(matrix: FootprintMatrix) -> frozenset[CandidatePair]:
    """Y_W straight from the matrix, as maximal cliques of the pair graph.

    The graph has a left copy ``(a, 0)`` and a right copy ``(b, 1)`` of
    every self-unrelated activity; copies on one side are joined when
    their activities are unrelated, and ``(a, 0)`` meets ``(b, 1)`` when a
    causally precedes b. Its cliques with both sides non-empty are exactly
    the candidate pairs, so the maximal ones among them are Y_W. A vertex
    without a cross edge lies only in one-sided cliques and is left out.
    """
    names = [a for a in matrix.alphabet if matrix.cells[(a, a)] is Relation.UNRELATED]
    causal = {
        (a, b) for a in names for b in names if matrix.cells[(a, b)] is Relation.CAUSAL_FORWARD
    }
    # The search runs on vertex indices, so its path (not only its result)
    # is the same in every run, whatever the string hash seed.
    vertices = sorted({(a, 0) for a, _ in causal} | {(b, 1) for _, b in causal})

    def joined(u: tuple[str, int], v: tuple[str, int]) -> bool:
        (x, x_side), (y, y_side) = u, v
        if x_side == y_side:
            return x != y and matrix.cells[(x, y)] is Relation.UNRELATED
        return ((x, y) if x_side == 0 else (y, x)) in causal

    adjacent = [{j for j, v in enumerate(vertices) if joined(u, v)} for u in vertices]
    found: set[CandidatePair] = set()

    def expand(clique: list[int], pool: set[int], excluded: set[int]) -> None:
        # Bron-Kerbosch with pivoting: clique grows, pool can still join it,
        # excluded could join but its maximal cliques were already reported.
        if not pool and not excluded:
            a_side = frozenset(vertices[i][0] for i in clique if vertices[i][1] == 0)
            b_side = frozenset(vertices[i][0] for i in clique if vertices[i][1] == 1)
            if a_side and b_side:
                found.add((a_side, b_side))
            return
        pivot = max(pool | excluded, key=lambda u: len(pool & adjacent[u]))
        for v in list(pool - adjacent[pivot]):
            expand(clique + [v], pool & adjacent[v], excluded & adjacent[v])
            pool.discard(v)
            excluded.add(v)

    expand([], set(range(len(vertices))), set())
    return frozenset(found)


def _downward_closure(y_w: frozenset[CandidatePair]) -> frozenset[CandidatePair]:
    """Every pair of non-empty subsets of the two sides of some member.

    X_W is componentwise downward closed, so this rebuilds it from Y_W.
    Equal sides share one frozenset across all the pairs they occur in.
    """
    subsets: dict[frozenset[str], list[frozenset[str]]] = {}
    shared: dict[frozenset[str], frozenset[str]] = {}

    def nonempty_subsets(side: frozenset[str]) -> list[frozenset[str]]:
        if side not in subsets:
            members = sorted(side)
            subsets[side] = [
                shared.setdefault(subset, subset)
                for size in range(1, len(members) + 1)
                for subset in map(frozenset, itertools.combinations(members, size))
            ]
        return subsets[side]

    pairs: set[CandidatePair] = set()
    for a_side, b_side in y_w:
        pairs.update(itertools.product(nonempty_subsets(a_side), nonempty_subsets(b_side)))
    return frozenset(pairs)


def candidate_pairs(
    matrix: FootprintMatrix, alphabet_limit: int = DEFAULT_ALPHABET_LIMIT
) -> frozenset[CandidatePair]:
    """All pairs (A, B) of non-empty activity sets where every a in A causally
    precedes every b in B and both sides are pairwise unrelated.

    The pairwise-unrelated condition ranges over equal members too, so an
    activity in a parallel self-relation (a length-2 repetition) cannot
    appear on either side. The set is the downward closure of the maximal
    pairs, which are found first; its size stays exponential in the worst
    case, and ``alphabet_limit`` guards it.
    """
    if len(matrix.alphabet) > alphabet_limit:
        raise AlphabetLimitError(len(matrix.alphabet), alphabet_limit)
    return _downward_closure(_direct_maximal_pairs(matrix))


def maximal_pairs(pairs: frozenset[CandidatePair] | set[CandidatePair]) -> frozenset[CandidatePair]:
    """Pairs not componentwise contained in any other pair of the set.

    The candidate set is componentwise downward closed (every non-empty
    componentwise subset of a member is itself a member), so a pair is
    dominated exactly when some single-activity extension of one side is
    still in the set. That keeps the filter near-linear instead of
    quadratic in the candidate count.
    """
    pairs = set(pairs)
    universe = {x for a, b in pairs for x in a | b}

    def dominated(a: frozenset[str], b: frozenset[str]) -> bool:
        return any(
            (x not in a and (a | {x}, b) in pairs) or (x not in b and (a, b | {x}) in pairs)
            for x in universe
        )

    return frozenset((a, b) for a, b in pairs if not dominated(a, b))


def place_name(a_side: frozenset[str], b_side: frozenset[str]) -> str:
    """Canonical place name, stable across runs: ``p({A,...},{B,...})``."""
    return "p({%s},{%s})" % (",".join(sorted(a_side)), ",".join(sorted(b_side)))


def alpha(
    log: EventLog, alphabet_limit: int = DEFAULT_ALPHABET_LIMIT
) -> tuple[WorkflowNet, AlphaIntermediates]:
    """Mine a workflow net from the log; also returns every intermediate set."""
    if not log.traces:
        raise ValueError("cannot mine an empty log")
    t_w = log.alphabet
    if len(t_w) > alphabet_limit:
        raise AlphabetLimitError(len(t_w), alphabet_limit)
    t_i = initial_tasks(log)
    t_o = final_tasks(log)
    y_w = _direct_maximal_pairs(footprint(log))
    x_w = _downward_closure(y_w)

    places = {SOURCE_PLACE, SINK_PLACE}
    arcs: set[tuple[str, str]] = set()
    for a_side, b_side in y_w:
        place = place_name(a_side, b_side)
        places.add(place)
        arcs.update((a, place) for a in a_side)
        arcs.update((place, b) for b in b_side)
    arcs.update((SOURCE_PLACE, t) for t in t_i)
    arcs.update((t, SINK_PLACE) for t in t_o)

    connected = {node for arc in arcs for node in arc}
    for task in sorted(t_w - connected):
        warnings.warn(
            f"activity {task!r} has no causal partners and is neither initial nor final; "
            "its transition dangles",
            DanglingActivityWarning,
            stacklevel=2,
        )

    net = WorkflowNet(
        places=frozenset(places),
        transitions=frozenset(t_w),
        arcs=frozenset(arcs),
        source=SOURCE_PLACE,
        sink=SINK_PLACE,
    )
    return net, AlphaIntermediates(t_w, t_i, t_o, x_w, y_w)


def _json_list(items: list[str], indent: str) -> str:
    """A JSON array of pre-rendered items, laid out as ``json.dumps(indent=2)``
    lays it out when the array's own line starts with ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _json_pairs(pairs: frozenset[CandidatePair]) -> str:
    """Sorted ``[[A...], [B...]]`` pairs, as they sit under a top-level key.

    Each distinct side is sorted and encoded once. A pair's position comes
    from the ranks of its two sides, folded into one int, so ordering the
    pairs compares ints rather than nested tuples of names.
    """
    keys = {side: tuple(sorted(side)) for side in {side for pair in pairs for side in pair}}
    rank = {side: i for i, side in enumerate(sorted(keys, key=keys.__getitem__))}
    text = {side: _json_list([json.dumps(m) for m in key], "      ") for side, key in keys.items()}
    # Each value is _json_list([text[a], text[b]], "    "), written inline.
    rows = {
        rank[a] * len(rank) + rank[b]: f"[\n      {text[a]},\n      {text[b]}\n    ]"
        for a, b in pairs
    }
    return _json_list([rows[k] for k in sorted(rows)], "  ")


def intermediates_to_json(intermediates: AlphaIntermediates) -> str:
    """JSON rendering with lexicographically sorted members, stable byte-for-byte.

    The text is what ``json.dumps(payload, indent=2)`` gives for the payload
    of sorted lists, plus a newline. It is assembled from per-item pieces
    because the indenting encoder is pure Python and X_W can be large.
    """
    fields = {
        "T_W": _json_list([json.dumps(t) for t in sorted(intermediates.t_w)], "  "),
        "T_I": _json_list([json.dumps(t) for t in sorted(intermediates.t_i)], "  "),
        "T_O": _json_list([json.dumps(t) for t in sorted(intermediates.t_o)], "  "),
        "X_W": _json_pairs(intermediates.x_w),
        "Y_W": _json_pairs(intermediates.y_w),
    }
    return "{\n" + ",\n".join(f"  {json.dumps(k)}: {v}" for k, v in fields.items()) + "\n}\n"
