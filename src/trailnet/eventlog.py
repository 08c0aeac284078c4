"""Event-log data model and its CSV interchange format.

A log is a sequence of cases; each case holds its case id, once, and an
ordered sequence of activity executions, optionally attributed to an
originator and stamped with a UTC instant. Activity names are compared
byte-exact, never folded.
Miners read a log through one sequence view, its variant table: each
distinct activity sequence with the number of cases that follow it.
"""

from __future__ import annotations

import csv
import io
import re
from collections import Counter
from dataclasses import KW_ONLY, dataclass
from datetime import datetime, timezone
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

CSV_HEADER = ("case_id", "activity", "originator", "timestamp")

# The one timestamp shape: fixed-width fields of ASCII digits, UTC only.
_TIMESTAMP = re.compile(r"(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)Z", re.ASCII)


class LogError(ValueError):
    """A value violates the event-log contract."""


class LogParseError(LogError):
    """Input text cannot be turned into a valid event log."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 ``YYYY-MM-DDThh:mm:ssZ`` instant (UTC, second precision).

    Only that exact shape is accepted: every field zero-padded to its
    width and written in ASCII digits.
    """
    match = _TIMESTAMP.fullmatch(text)
    if match is not None:
        year, month, day, hour, minute, second = match.groups()
        try:
            return datetime(
                int(year), int(month), int(day), int(hour), int(minute), int(second),
                tzinfo=timezone.utc,
            )
        except ValueError:  # a field out of range, e.g. month 13 or February 30
            pass
    raise LogError(f"bad timestamp {text!r}, expected YYYY-MM-DDThh:mm:ssZ")


def format_timestamp(instant: datetime) -> str:
    """Render a timestamp in the interchange format, converting to UTC."""
    t = _normalize_timestamp(instant)
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % (t.year, t.month, t.day, t.hour, t.minute, t.second)


def _normalize_timestamp(instant: datetime) -> datetime:
    if instant.tzinfo is not timezone.utc:
        # Naive datetimes are taken to already be UTC.
        if instant.tzinfo is None:
            instant = instant.replace(tzinfo=timezone.utc)
        else:
            instant = instant.astimezone(timezone.utc)
    if instant.microsecond != 0:
        raise LogError(f"timestamp {instant.isoformat()} has sub-second precision")
    return instant


@dataclass(frozen=True)
class Event:
    """One activity execution; the case it belongs to is its :class:`Trace`."""

    activity: str
    _: KW_ONLY
    originator: str | None = None
    timestamp: datetime | None = None

    def __post_init__(self):
        if not self.activity:
            raise LogError("event has empty activity")
        if not self.originator:
            object.__setattr__(self, "originator", None)
        if self.timestamp is not None:
            object.__setattr__(self, "timestamp", _normalize_timestamp(self.timestamp))


@dataclass(frozen=True)
class Trace:
    """The event sequence of one case.

    Either every event carries a timestamp (non-decreasing along the
    sequence) or none does; ordering then comes from the input.
    """

    case_id: str
    events: tuple[Event, ...]

    def __post_init__(self):
        case_id = self.case_id
        if not case_id:
            raise LogError("trace has empty case_id")
        events = tuple(self.events)
        object.__setattr__(self, "events", events)
        if not events:
            raise LogError(f"case {case_id!r} has no events")
        # One pass over the events; the first violation along the sequence is reported.
        previous = events[0].timestamp
        stamped = previous is not None
        for event in events:
            stamp = event.timestamp
            if (stamp is not None) is not stamped:
                raise LogError(f"case {case_id!r} mixes timestamped and untimestamped events")
            if stamped and stamp < previous:
                raise LogError(f"case {case_id!r} events are not in timestamp order")
            previous = stamp

    @property
    def activities(self) -> tuple[str, ...]:
        return tuple(e.activity for e in self.events)


@dataclass(frozen=True)
class EventLog:
    """An ordered collection of traces with unique case ids."""

    traces: tuple[Trace, ...]

    def __post_init__(self):
        object.__setattr__(self, "traces", tuple(self.traces))
        seen: set[str] = set()
        for trace in self.traces:
            if trace.case_id in seen:
                raise LogError(f"duplicate case_id {trace.case_id!r}")
            seen.add(trace.case_id)

    @cached_property
    def variants(self) -> Mapping[tuple[str, ...], int]:
        """Each distinct activity sequence, with the number of traces that follow it.

        Read-only, because every miner reads the same cached table; an
        absent sequence reads 0.
        """
        return MappingProxyType(Counter(t.activities for t in self.traces))

    @cached_property
    def alphabet(self) -> frozenset[str]:
        """The set of activity names occurring in at least one trace."""
        return frozenset(a for seq in self.variants for a in seq)

    def __len__(self) -> int:
        return len(self.traces)


def log_from_sequences(
    sequences: Iterable[Sequence[str]],
    case_ids: Iterable[str] | None = None,
) -> EventLog:
    """Build a bare log from activity sequences (cases ``c1``, ``c2``, ... by default)."""
    sequences = list(sequences)
    if case_ids is None:
        case_ids = [f"c{i}" for i in range(1, len(sequences) + 1)]
    traces = []
    for case_id, seq in zip(case_ids, sequences, strict=True):
        traces.append(Trace(case_id, tuple(Event(a) for a in seq)))
    return EventLog(tuple(traces))


def _rows(reader) -> Iterator[list[str]]:
    # Malformed CSV (an over-long field, say) is a parse error like any other.
    try:
        yield from reader
    except csv.Error as exc:
        raise LogParseError(str(exc), reader.line_num) from None


def parse_csv_log(source: str | TextIO) -> EventLog:
    """Parse the CSV interchange format into an :class:`EventLog`.

    Rows are grouped by ``case_id`` preserving file order within a case;
    cases whose events carry timestamps are then stably re-sorted by
    timestamp. Raises :class:`LogParseError` with the offending line
    number for malformed rows.
    """
    text = source.read() if hasattr(source, "read") else source
    reader = csv.reader(io.StringIO(text.lstrip("﻿"), newline=""))
    rows = _rows(reader)
    header = next(rows, None)
    if header is None:
        raise LogParseError("missing header row")
    if tuple(header) != CSV_HEADER:
        raise LogParseError(f"bad header {header!r}, expected {','.join(CSV_HEADER)}", 1)

    cases: dict[str, list[tuple[Event, int]]] = {}
    for row in rows:
        line = reader.line_num
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise LogParseError(f"expected {len(CSV_HEADER)} fields, got {len(row)}", line)
        case_id, activity, originator, stamp = row
        if not case_id:
            raise LogParseError("empty case_id", line)
        if not activity:
            raise LogParseError("empty activity", line)
        try:
            timestamp = parse_timestamp(stamp) if stamp else None
        except LogError as exc:
            raise LogParseError(str(exc), line) from None
        event = Event(activity, originator=originator or None, timestamp=timestamp)
        cases.setdefault(case_id, []).append((event, line))

    traces = []
    for case_id, rows in cases.items():
        stamped = [line for event, line in rows if event.timestamp is not None]
        if stamped and len(stamped) != len(rows):
            missing = next(line for event, line in rows if event.timestamp is None)
            raise LogParseError(f"case {case_id!r} mixes timestamped and untimestamped rows", missing)
        events = [event for event, _ in rows]
        if stamped:
            events.sort(key=lambda e: e.timestamp)  # stable: ties keep file order
        traces.append(Trace(case_id, tuple(events)))
    return EventLog(tuple(traces))


def serialize_csv_log(log: EventLog) -> str:
    """Canonical CSV rendering: exact header, ``\\n`` line endings."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for trace in log.traces:
        for event in trace.events:
            writer.writerow(
                [
                    trace.case_id,
                    event.activity,
                    event.originator or "",
                    format_timestamp(event.timestamp) if event.timestamp else "",
                ]
            )
    return out.getvalue()
