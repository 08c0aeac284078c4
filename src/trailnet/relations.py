"""Log-based ordering relations and the footprint matrix.

Four relations partition every ordered activity pair (a, b) of a log:
causal forward (b directly follows a, never the reverse), its mirror,
parallel (direct succession observed in both orders), and unrelated
(never adjacent in either order). The matrix stores only the direct
succession pairs and reads every relation off them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, Sequence

from .eventlog import EventLog, _csv_text


class Relation(enum.Enum):
    """Ordering relation between two activities, with its cell symbol."""

    CAUSAL_FORWARD = "->"
    CAUSAL_BACKWARD = "<-"
    PARALLEL = "||"
    UNRELATED = "#"


# (a > b, b > a) -> relation of (a, b), where > is direct succession.
_RELATION = {
    (True, True): Relation.PARALLEL,
    (True, False): Relation.CAUSAL_FORWARD,
    (False, True): Relation.CAUSAL_BACKWARD,
    (False, False): Relation.UNRELATED,
}


@dataclass(frozen=True)
class FootprintMatrix:
    """An alphabet and its direct-succession pairs; relations are read off the pairs."""

    alphabet: tuple[str, ...]
    succession: frozenset[tuple[str, str]]

    def __post_init__(self):
        object.__setattr__(self, "succession", frozenset(self.succession))
        names = set(self.alphabet)
        for a, b in self.succession:
            if a not in names or b not in names:
                raise ValueError(f"succession pair ({a!r}, {b!r}) lies outside the alphabet")

    @cached_property
    def cells(self) -> Mapping[tuple[str, str], Relation]:
        """The relation of every pair of alphabet x alphabet, built on first use."""
        succ, names = self.succession, self.alphabet
        return MappingProxyType(
            {(a, b): _RELATION[(a, b) in succ, (b, a) in succ] for a in names for b in names}
        )

    def relation(self, a: str, b: str) -> Relation:
        try:
            return self.cells[(a, b)]
        except KeyError:
            unknown = a if (a, a) not in self.cells else b
            raise KeyError(f"unknown activity {unknown!r}") from None


def footprint(log: EventLog) -> FootprintMatrix:
    """The footprint of the log: its sorted alphabet and every pair (a, b) where
    b directly follows a in some trace."""
    pairs = set()
    for seq in log.variants:
        pairs.update(zip(seq, seq[1:]))
    return FootprintMatrix(tuple(sorted(log.alphabet)), frozenset(pairs))


def footprint_to_csv(matrix: FootprintMatrix) -> str:
    """CSV grid with activity headers and cell symbols, lexicographic order."""

    def rows() -> Iterator[Sequence[str]]:
        yield ("",) + matrix.alphabet
        for a in matrix.alphabet:
            yield [a] + [matrix.cells[(a, b)].value for b in matrix.alphabet]

    return _csv_text(rows())
