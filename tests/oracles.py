"""Independent brute-force re-computations used as oracles.

Everything here evaluates definitions literally and exhaustively; none of
it shares code paths with the library implementations it checks.
"""

from __future__ import annotations

import itertools

from trailnet.petri import TraceGenerationResult, enabled, fire, initial_marking
from trailnet.relations import FootprintMatrix, Relation


def naive_relation(sequences, a, b) -> Relation:
    """Window-of-2 scan, applying the relation definitions verbatim."""

    def follows(x, y):
        return any(
            seq[i] == x and seq[i + 1] == y for seq in sequences for i in range(len(seq) - 1)
        )

    forward, backward = follows(a, b), follows(b, a)
    if forward and backward:
        return Relation.PARALLEL
    if forward:
        return Relation.CAUSAL_FORWARD
    if backward:
        return Relation.CAUSAL_BACKWARD
    return Relation.UNRELATED


def naive_footprint_cells(sequences, alphabet) -> dict:
    return {(a, b): naive_relation(sequences, a, b) for a in alphabet for b in alphabet}


def brute_force_candidate_pairs(matrix: FootprintMatrix):
    """Exhaustive check of every non-empty subset pair of the alphabet.

    Only feasible for small alphabets (2^n * 2^n pair checks).
    """
    names = matrix.alphabet
    subsets = [
        frozenset(combo)
        for size in range(1, len(names) + 1)
        for combo in itertools.combinations(names, size)
    ]
    result = set()
    for a_side in subsets:
        for b_side in subsets:
            causal = all(
                matrix.relation(a, b) is Relation.CAUSAL_FORWARD
                for a in a_side
                for b in b_side
            )
            a_unrelated = all(
                matrix.relation(x, y) is Relation.UNRELATED for x in a_side for y in a_side
            )
            b_unrelated = all(
                matrix.relation(x, y) is Relation.UNRELATED for x in b_side for y in b_side
            )
            if causal and a_unrelated and b_unrelated:
                result.add((a_side, b_side))
    return frozenset(result)


def brute_force_maximal(pairs):
    """Quadratic componentwise-domination filter."""
    return frozenset(
        (a, b)
        for (a, b) in pairs
        if not any((a, b) != (a2, b2) and a <= a2 and b <= b2 for (a2, b2) in pairs)
    )


def reference_generate_traces(net, max_length: int, max_traces: int) -> TraceGenerationResult:
    """The token-game search over dict markings, replaying every marking
    from its parent with the public ``enabled``/``fire``; same bounds and
    cut rules as ``generate_traces``."""
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
