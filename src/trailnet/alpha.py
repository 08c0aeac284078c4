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
from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

from .eventlog import EventLog
from .relations import FootprintMatrix, footprint
from .petri import WorkflowNet

SOURCE_PLACE = "i_W"
SINK_PLACE = "o_W"
DEFAULT_ALPHABET_LIMIT = 16
# The characters that delimit a place name's members.
_PLACE_SYNTAX = frozenset(',{}"')

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
    y_w: frozenset[CandidatePair]

    @cached_property
    def x_w(self) -> frozenset[CandidatePair]:
        """The candidate pairs, the downward closure of Y_W, built on first access.

        Neither the miner nor ``alpha.json`` needs the set itself, and it
        is exponential in the alphabet."""
        return _downward_closure(self.y_w)


def _direct_maximal_pairs(matrix: FootprintMatrix) -> frozenset[CandidatePair]:
    """Y_W straight from the matrix, as maximal cliques of the pair graph.

    The graph has a left copy ``(a, 0)`` and a right copy ``(b, 1)`` of
    every self-unrelated activity; copies on one side are joined when
    their activities are unrelated, and ``(a, 0)`` meets ``(b, 1)`` when a
    causally precedes b. Its cliques with both sides non-empty are exactly
    the candidate pairs, so the maximal ones among them are Y_W. A vertex
    without a cross edge lies only in one-sided cliques and is left out.
    Over the succession set: a is self-unrelated when (a, a) is absent,
    a -> b when (a, b) is present and (b, a) absent, unrelated when both are.
    """
    succ = matrix.succession
    free = {a for a in matrix.alphabet if (a, a) not in succ}
    causal = {(a, b) for a, b in succ if (b, a) not in succ and a in free and b in free}
    # The search runs on vertex indices, so its path (not only its result)
    # is the same in every run, whatever the string hash seed.
    vertices = sorted({(a, 0) for a, _ in causal} | {(b, 1) for _, b in causal})

    def joined(u: tuple[str, int], v: tuple[str, int]) -> bool:
        (x, x_side), (y, y_side) = u, v
        if x_side == y_side:
            return x != y and (x, y) not in succ and (y, x) not in succ
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


def _nonempty_subsets(side: frozenset[str]) -> list[frozenset[str]]:
    members = sorted(side)
    return [
        frozenset(subset)
        for size in range(1, len(members) + 1)
        for subset in itertools.combinations(members, size)
    ]


def _downward_closure(y_w: frozenset[CandidatePair]) -> frozenset[CandidatePair]:
    """Every pair of non-empty subsets of the two sides of some member.

    X_W is componentwise downward closed, so this rebuilds it from Y_W.
    """
    pairs = (itertools.product(_nonempty_subsets(a), _nonempty_subsets(b)) for a, b in y_w)
    return frozenset(itertools.chain.from_iterable(pairs))


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
    """Canonical place name, stable across runs: ``p({A,...},{B,...})``.

    A member that holds ``,``, ``{``, ``}`` or ``"`` is written as a JSON
    string, so that no two pairs share a name."""
    return "p({%s},{%s})" % (_place_side(a_side), _place_side(b_side))


def _place_side(side: frozenset[str]) -> str:
    return ",".join(name if _PLACE_SYNTAX.isdisjoint(name) else json.dumps(name) for name in sorted(side))


def _place_names(places: list[str], activities: frozenset[str]) -> dict[str, str]:
    """Each place's name in the net: its own, or, when an activity has that
    name, the first of ``name~1``, ``name~2``, ... that no activity or place
    has. A renamed place ends in ``~`` and digits, after its own name, and
    no place's own name does, so no two places get one name."""
    names = dict(zip(places, places))
    taken = activities.union(places)
    for place in activities.intersection(places):
        names[place] = next(n for n in (f"{place}~{k}" for k in itertools.count(1)) if n not in taken)
    return names


def alpha(
    log: EventLog, alphabet_limit: int = DEFAULT_ALPHABET_LIMIT
) -> tuple[WorkflowNet, AlphaIntermediates]:
    """Mine a workflow net from the log; also returns every intermediate set."""
    if not log.traces:
        raise ValueError("cannot mine an empty log")
    t_w = log.alphabet
    if len(t_w) > alphabet_limit:
        raise AlphabetLimitError(len(t_w), alphabet_limit)
    t_i = frozenset(seq[0] for seq in log.variants)
    t_o = frozenset(seq[-1] for seq in log.variants)
    y_w = _direct_maximal_pairs(footprint(log))

    pairs = {place_name(a_side, b_side): (a_side, b_side) for a_side, b_side in y_w}
    names = _place_names([SOURCE_PLACE, SINK_PLACE, *pairs], t_w)
    source, sink = names[SOURCE_PLACE], names[SINK_PLACE]
    arcs: set[tuple[str, str]] = set()
    for place, (a_side, b_side) in pairs.items():
        place = names[place]
        arcs.update((a, place) for a in a_side)
        arcs.update((place, b) for b in b_side)
    arcs.update((source, t) for t in t_i)
    arcs.update((t, sink) for t in t_o)

    connected = {node for arc in arcs for node in arc}
    for task in sorted(t_w - connected):
        warnings.warn(
            f"activity {task!r} has no causal partners and is neither initial nor final; "
            "its transition dangles",
            DanglingActivityWarning,
            stacklevel=2,
        )

    net = WorkflowNet(
        places=frozenset(names.values()),
        transitions=frozenset(t_w),
        arcs=frozenset(arcs),
        source=source,
        sink=sink,
    )
    return net, AlphaIntermediates(t_w, t_i, t_o, y_w)


def _json_list(items: list[str], indent: str) -> str:
    """A JSON array of pre-rendered items, laid out as ``json.dumps(indent=2)``
    lays it out when the array's own line starts with ``indent``."""
    if not items:
        return "[]"
    inner = "\n" + indent + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + indent + "]"


def _add_pairs(
    pieces: list[str],
    y_w: frozenset[CandidatePair],
    expand: Callable[[frozenset[str]], Sequence[frozenset[str]]],
) -> None:
    """Append the sorted ``[[A'...], [B'...]]`` pairs, as they sit under a
    top-level key, where A' is in ``expand(A)`` and B' in ``expand(B)`` for
    some member (A, B) of Y_W, in pieces whose concatenation is the text.

    With :func:`_nonempty_subsets` as ``expand`` the pairs are X_W, which is
    written from Y_W's members without being built. Each distinct side is
    sorted, ranked and encoded once, and each member's B sides are sorted
    by rank once. An A side takes the B ranks of the one member that gives
    it, or their sorted union when several do.
    """
    if not y_w:
        pieces.append("[]")
        return
    members = [(expand(a), expand(b)) for a, b in y_w]
    sides = {side for a_sides, b_sides in members for side in itertools.chain(a_sides, b_sides)}
    keys = {side: tuple(sorted(side)) for side in sides}
    ranked = sorted(sides, key=keys.__getitem__)
    rank = {side: i for i, side in enumerate(ranked)}
    text = [_json_list([json.dumps(m) for m in keys[side]], "      ") for side in ranked]
    givers: defaultdict[int, list[list[int]]] = defaultdict(list)
    for a_sides, b_sides in members:
        b_ranks = sorted(map(rank.__getitem__, b_sides))
        for a in a_sides:
            givers[rank[a]].append(b_ranks)
    # A pair is _json_list([text[a], text[b]], "    "), written inline, so
    # every pair after the first is (between + head of its A side, its B text).
    # The pieces go straight into the one flat list: a string per A side
    # would be made only to be copied again.
    between = "\n    ],\n    [\n      "  # from the end of one pair to the next
    first = len(pieces)
    for a in sorted(givers):
        given = givers[a]
        b_ranks = given[0] if len(given) == 1 else sorted(set().union(*given))
        block = [between + text[a] + ",\n      "] * (2 * len(b_ranks))
        block[1::2] = map(text.__getitem__, b_ranks)
        pieces += block
    # The first pair opens the list instead of following a pair.
    pieces[first] = "[\n    [\n      " + pieces[first][len(between) :]
    pieces.append("\n    ]\n  ]")


def intermediates_to_json(intermediates: AlphaIntermediates) -> str:
    """JSON rendering with lexicographically sorted members, stable byte-for-byte.

    The text is what ``json.dumps(payload, indent=2)`` gives for the payload
    of sorted lists, plus a newline. It is assembled from per-item pieces
    because the indenting encoder is pure Python and X_W can be large. X_W
    is written from Y_W, so the set is never built, and all the pieces are
    joined once so that X_W's text is made only once.
    """
    pieces = ["{\n"]
    for key, names in (("T_W", intermediates.t_w), ("T_I", intermediates.t_i), ("T_O", intermediates.t_o)):
        pieces += ['  "%s": ' % key, _json_list([json.dumps(t) for t in sorted(names)], "  "), ",\n"]
    pieces.append('  "X_W": ')
    _add_pairs(pieces, intermediates.y_w, _nonempty_subsets)
    pieces.append(',\n  "Y_W": ')
    _add_pairs(pieces, intermediates.y_w, lambda side: (side,))
    pieces.append("\n}\n")
    return "".join(pieces)
