"""Event-log data model and its CSV interchange format.

A log is a sequence of cases. A case, a :class:`Trace`, holds its case
id once and its ordered activity executions as three equal-length
columns: the activity names, their originators (a name or None) and their
UTC instants (all None when the case is unstamped). Activity names are
compared byte-exact, never folded.
Miners read a log through one sequence view, its variant table: each
distinct activity sequence with the number of cases that follow it.
"""

from __future__ import annotations

import csv
import io
import re
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass
from datetime import datetime, timezone
from functools import cached_property
from itertools import accumulate, chain, compress, islice, repeat
from operator import gt, itemgetter, ne
from types import MappingProxyType, SimpleNamespace
from typing import Iterable, Iterator, Mapping, Sequence, TextIO

CSV_HEADER = ("case_id", "activity", "originator", "timestamp")

# The one timestamp shape: fixed-width fields of ASCII digits, UTC only.
_TIMESTAMP = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\dZ", re.ASCII)
# A whole column of such stamps, joined by "\n".
_STAMP_COLUMN = re.compile(f"{_TIMESTAMP.pattern}(?:\n{_TIMESTAMP.pattern})*", re.ASCII)


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
    if _TIMESTAMP.fullmatch(text) is not None:
        # The regex is the only shape check: fromisoformat alone also takes
        # other shapes. The "+00:00" offset (Python 3.10 rejects "Z") gives
        # the timezone.utc singleton as tzinfo.
        try:
            return datetime.fromisoformat(text[:-1] + "+00:00")
        except ValueError:  # a field out of range, e.g. month 13 or February 30
            pass
    raise LogError(f"bad timestamp {text!r}, expected YYYY-MM-DDThh:mm:ssZ")


def format_timestamp(instant: datetime) -> str:
    """Render a timestamp in the interchange format, converting to UTC."""
    return _stamp_text(_normalize_timestamp(instant))


def _stamp_text(t: datetime) -> str:
    """:func:`format_timestamp` of a datetime that is already whole-second UTC."""
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


@dataclass(frozen=True, slots=True)
class Trace:
    """One case: its id and its events as three equal-length columns.

    An activity is non-empty; an originator is a non-empty name or None.
    Either every event carries a timestamp (non-decreasing along the
    sequence) or none does; ordering then comes from the input.
    """

    case_id: str
    activities: tuple[str, ...]
    originators: tuple[str | None, ...]
    timestamps: tuple[datetime | None, ...]

    def __post_init__(self):
        case_id = self.case_id
        if not case_id:
            raise LogError("trace has empty case_id")
        activities = tuple(self.activities)
        originators = tuple(o or None for o in self.originators)
        timestamps = list(self.timestamps)
        if not len(activities) == len(originators) == len(timestamps):
            raise LogError(f"case {case_id!r} has columns of unequal length")
        if not activities:
            raise LogError(f"case {case_id!r} has no events")
        # One pass along the events; the first violation is reported.
        stamped = timestamps[0] is not None
        for i, (activity, stamp) in enumerate(zip(activities, timestamps)):
            if not activity:
                raise LogError("event has empty activity")
            if (stamp is not None) is not stamped:
                raise LogError(f"case {case_id!r} mixes timestamped and untimestamped events")
            if stamped:
                stamp = timestamps[i] = _normalize_timestamp(stamp)
                if i and stamp < timestamps[i - 1]:
                    raise LogError(f"case {case_id!r} events are not in timestamp order")
        object.__setattr__(self, "activities", activities)
        object.__setattr__(self, "originators", originators)
        object.__setattr__(self, "timestamps", tuple(timestamps))


def _trace(
    case_id: str,
    activities: tuple[str, ...],
    originators: tuple[str | None, ...],
    timestamps: tuple[datetime | None, ...],
) -> Trace:
    """A :class:`Trace` whose fields :func:`parse_csv_log` or ``build_log``
    has checked, with whole-second ``timezone.utc`` timestamps. Every
    other caller goes through the public class."""
    trace = object.__new__(Trace)
    _set_case_id(trace, case_id)
    _set_activities(trace, activities)
    _set_originators(trace, originators)
    _set_timestamps(trace, timestamps)
    return trace


# Each slot's own setter, which a frozen class's __setattr__ does not guard.
_set_case_id = Trace.case_id.__set__
_set_activities = Trace.activities.__set__
_set_originators = Trace.originators.__set__
_set_timestamps = Trace.timestamps.__set__


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
        return frozenset(chain.from_iterable(self.variants))

    def __len__(self) -> int:
        return len(self.traces)


def log_from_sequences(sequences: Iterable[Sequence[str]]) -> EventLog:
    """Build a bare log from activity sequences, in cases ``c1``, ``c2``, ..."""
    traces = []
    for i, seq in enumerate(sequences, start=1):
        none = (None,) * len(seq)
        traces.append(Trace(f"c{i}", tuple(seq), none, none))
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
    log = _columns(text)
    if log is not None:
        return log
    reader = csv.reader(io.StringIO(text.lstrip("\ufeff"), newline=""))
    rows = _rows(reader)
    header = next(rows, None)
    if header is None:
        raise LogParseError("missing header row")
    if tuple(header) != CSV_HEADER:
        raise LogParseError(f"bad header {header!r}, expected {','.join(CSV_HEADER)}", 1)

    # case id -> its events as (activity, originator, timestamp), in file order
    cases: dict[str, list[tuple[str, str | None, datetime | None]]] = {}
    unstamped: dict[str, int] = {}  # case id -> line of its first row without a timestamp
    for row in rows:
        if not row:
            continue
        if len(row) != len(CSV_HEADER):
            raise LogParseError(f"expected {len(CSV_HEADER)} fields, got {len(row)}", reader.line_num)
        case_id, activity, originator, stamp = row
        if not case_id:
            raise LogParseError("empty case_id", reader.line_num)
        if not activity:
            raise LogParseError("empty activity", reader.line_num)
        if stamp:
            try:
                timestamp = parse_timestamp(stamp)
            except LogError as exc:
                raise LogParseError(str(exc), reader.line_num) from None
        else:
            timestamp = None
            unstamped.setdefault(case_id, reader.line_num)
        events = cases.get(case_id)
        if events is None:
            events = cases[case_id] = []
        events.append((activity, originator or None, timestamp))

    traces = []
    for case_id, events in cases.items():
        line = unstamped.get(case_id)
        if line is None:
            events.sort(key=itemgetter(2))  # stable: ties keep file order
        activities, originators, timestamps = zip(*events)
        events.clear()  # the rows' tuples go now, not when the whole log is built
        if line is not None and any(timestamps):
            raise LogParseError(f"case {case_id!r} mixes timestamped and untimestamped rows", line)
        traces.append(_trace(case_id, activities, originators, timestamps))
    return EventLog(tuple(traces))


def _columns(text: str) -> EventLog | None:
    """:func:`parse_csv_log` of a quote-free log, read column by column, or None.

    In text without a quote, ``\\r`` or NUL, the csv module reads exactly
    the fields that splitting at ``\\n`` and ``,`` gives. So the text is
    split once, each check runs over a whole column, and each case is one
    slice of the columns. None leaves the text to the row parser, which
    gives the same log or raises the error with its line number. That
    happens for text that holds one of those characters or breaks a rule,
    and for a blank line, a log without rows, a log in which some case's
    rows are apart or a log that mixes stamped and unstamped rows.
    """
    # A NUL is a csv.Error before Python 3.11 and a character after.
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.lstrip("\ufeff").split("\n")
    if not lines[-1]:
        lines.pop()  # the final line end
    if (
        len(lines) < 2
        or lines[0] != ",".join(CSV_HEADER)
        or set(map(str.count, lines, repeat(","))) != {3}
    ):
        return None
    fields = ",".join(lines).split(",")
    del lines
    limit = csv.field_size_limit()
    if len(text) > limit and max(map(len, fields)) > limit:
        return None
    # The header's four fields come first.
    case_ids = fields[4::4]
    cases = Counter(case_ids)  # rows per case, cases in the order of their first rows
    # A case whose rows are apart, as in a log ordered by time, or an empty
    # case id; checked before the other columns are built.
    if sum(map(ne, case_ids, islice(case_ids, 1, None))) + 1 != len(cases) or "" in cases:
        return None
    n = len(case_ids)
    del case_ids
    activities = tuple(fields[5::4])
    if "" in activities:
        return None
    originators = tuple([o or None for o in fields[6::4]])
    stamps = fields[7::4]
    del fields
    starts = list(accumulate(cases.values(), initial=0))  # and n, where the last case ends
    if stamps[0]:
        joined = "\n".join(stamps)
        if _STAMP_COLUMN.fullmatch(joined) is None:
            return None
        try:  # as parse_timestamp does, which gives timezone.utc
            timestamps = tuple(map(datetime.fromisoformat, joined.replace("Z", "+00:00").split("\n")))
        except ValueError:
            return None
        del joined
        # Rows stamped before the row above them; those that start a case
        # do not count, and the cases of the others are sorted.
        late = set(compress(range(1, n), map(gt, timestamps, islice(timestamps, 1, None))))
        unsorted = set(map(bisect_right, repeat(starts), late.difference(starts)))
    elif any(stamps):
        return None
    else:
        timestamps = (None,) * n
        unsorted = set()
    del stamps

    traces = []
    for k, (case_id, start, end) in enumerate(zip(cases, starts, islice(starts, 1, None)), 1):
        acts, origs, times = activities[start:end], originators[start:end], timestamps[start:end]
        if k in unsorted:  # stable: ties keep file order
            order = sorted(range(end - start), key=times.__getitem__)
            acts, origs, times = (tuple(map(column.__getitem__, order)) for column in (acts, origs, times))
        traces.append(_trace(case_id, acts, origs, times))
    # Free the columns before making the tuple that outlives this call:
    # made past them, it would split the memory they free, which a later
    # large allocation (such as mine's 10 MB X_W text) could then not reuse.
    del activities, originators, timestamps, starts, cases
    return EventLog(tuple(traces))


def _csv_text(rows: Iterable[Sequence[str | None]]) -> str:
    """The rows as CSV with ``\\n`` line ends, quoting a field that holds a
    comma, a quote, ``\\n`` or ``\\r``.

    Before Python 3.13 the writer quotes only the characters of its line
    terminator, so rows are written with ``\\r\\n`` ends, which quote both,
    and each row's end is cut back to ``\\n``.
    """
    out = io.StringIO()
    # The writer hands each row to write() in one call, ending in "\r\n".
    cut = SimpleNamespace(write=lambda row: out.write(row[:-2] + "\n"))
    try:
        csv.writer(cut, lineterminator="\r\n").writerows(rows)
    except csv.Error as exc:  # Python 3.10 cannot write a field holding NUL
        raise LogError(f"cannot write CSV: {exc}") from None
    return out.getvalue()


def serialize_csv_log(log: EventLog) -> str:
    """Canonical CSV rendering: exact header, ``\\n`` line endings."""

    def rows() -> Iterator[Sequence[str | None]]:
        yield CSV_HEADER
        for trace in log.traces:
            case_id, originators, stamps = trace.case_id, trace.originators, trace.timestamps
            # A running index rather than zip(): a trace is often one or two
            # events, and zip's three iterators then cost more than its rows.
            i = 0
            for activity in trace.activities:
                stamp = stamps[i]
                # The writer writes None as an empty field.
                yield (case_id, activity, originators[i], stamp and _stamp_text(stamp))
                i += 1

    return _csv_text(rows())
