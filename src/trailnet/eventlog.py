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
from datetime import datetime, timezone
from functools import cached_property
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import attrgetter, gt, itemgetter, ne
from types import MappingProxyType, SimpleNamespace
from typing import Iterable, Mapping, Sequence, TextIO

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
        try:
            return _instants(text)[0]
        except ValueError:  # a field out of range, e.g. month 13 or February 30
            pass
    raise LogError(f"bad timestamp {text!r}, expected YYYY-MM-DDThh:mm:ssZ")


def _instants(stamps: str) -> tuple[datetime, ...]:
    """The instants of ``"\\n"``-joined stamps, each of which the caller has
    matched to :data:`_TIMESTAMP`: fromisoformat alone also takes other
    shapes. ValueError for a field out of range. The "+00:00" offset (Python
    3.10 rejects "Z") gives the timezone.utc singleton as tzinfo."""
    return tuple(map(datetime.fromisoformat, stamps.replace("Z", "+00:00").split("\n")))


def format_timestamp(instant: datetime) -> str:
    """Render a timestamp in the interchange format, converting to UTC."""
    return _STAMP_FORMAT % _stamp_fields(_normalize_timestamp(instant))


_STAMP_FORMAT = "%04d-%02d-%02dT%02d:%02d:%02dZ"
_stamp_fields = attrgetter("year", "month", "day", "hour", "minute", "second")


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


class _Value:
    """The base of the immutable value types. Their fields are the names in
    ``__match_args__``, which ``__init__`` sets once through :meth:`_set`.
    Equality, hashing, repr, copying and pickling follow the field values,
    as for a frozen dataclass; assigning or deleting raises AttributeError."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    def _set(self, *values) -> None:
        for name, value in zip(self.__match_args__, values, strict=True):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        """The field values, in order: what equality, hashing, repr and pickling read."""
        return tuple([getattr(self, name) for name in self.__match_args__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = map("{}={!r}".format, self.__match_args__, self._values())
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Trace(_Value):
    """One case: its id and its events as three equal-length columns.

    An activity is non-empty; an originator is a non-empty name or None.
    Either every event carries a timestamp (non-decreasing along the
    sequence) or none does; ordering then comes from the input.
    """

    __slots__ = __match_args__ = ("case_id", "activities", "originators", "timestamps")

    def __init__(
        self,
        case_id: str,
        activities: tuple[str, ...],
        originators: tuple[str | None, ...],
        timestamps: tuple[datetime | None, ...],
    ):
        if not case_id:
            raise LogError("trace has empty case_id")
        activities = tuple(activities)
        originators = tuple(o or None for o in originators)
        timestamps = list(timestamps)
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
        self._set(case_id, activities, originators, tuple(timestamps))


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


class EventLog(_Value):
    """An ordered collection of traces with unique case ids."""

    __match_args__ = ("traces",)

    def __init__(self, traces: tuple[Trace, ...]):
        self._set(tuple(traces))
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


def _event_log(traces: tuple[Trace, ...]) -> EventLog:
    """An :class:`EventLog` of traces whose case ids :func:`parse_csv_log` or
    ``build_log`` has made unique. Every other caller goes through the
    public class."""
    log = object.__new__(EventLog)
    object.__setattr__(log, "traces", traces)
    return log


def log_from_sequences(sequences: Iterable[Sequence[str]]) -> EventLog:
    """Build a bare log from activity sequences, in cases ``c1``, ``c2``, ..."""
    traces = []
    for i, seq in enumerate(sequences, start=1):
        none = (None,) * len(seq)
        traces.append(Trace(f"c{i}", tuple(seq), none, none))
    return EventLog(tuple(traces))


def parse_csv_log(source: str | TextIO) -> EventLog:
    """Parse the CSV interchange format into an :class:`EventLog`.

    Rows are grouped by ``case_id`` preserving file order within a case;
    cases whose events carry timestamps are then stably re-sorted by
    timestamp. Raises :class:`LogParseError` with the offending line
    number for malformed rows. Leading byte-order marks are skipped.
    """
    text = (source.read() if hasattr(source, "read") else source).lstrip("\ufeff")
    return _log(_columns(text) or _rows(text))


def _columns(text: str) -> list | None:
    """The columns that :func:`_rows` gives for a quote-free log, split in bulk, or None.

    In text without a quote, ``\\r`` or NUL, the csv module reads the fields
    that splitting at ``\\n`` and ``,`` gives, so each check runs over a
    whole column. None, for a broken rule, a blank line, no rows or stamped
    and unstamped rows together, leaves the text to :func:`_rows`."""
    # A NUL is a csv.Error before Python 3.11 and a character after.
    if '"' in text or "\r" in text or "\0" in text:
        return None
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()  # the final line end
    if len(lines) < 2 or lines[0] != ",".join(CSV_HEADER) or set(map(str.count, lines, repeat(","))) != {3}:
        return None
    limit = csv.field_size_limit()
    # A field is no longer than its line: the fields are measured only when a line is too long.
    long_line = len(text) > limit and max(map(len, lines)) > limit
    fields = ",".join(lines).split(",")
    del lines
    if long_line and max(map(len, fields)) > limit:
        return None
    # The header's four fields come first.
    case_ids = fields[4::4]
    activities = tuple(fields[5::4])
    if not all(case_ids) or not all(activities):  # an empty case id or activity
        return None
    originators = fields[6::4]
    originators = tuple(originators if all(originators) else [o or None for o in originators])
    stamps = fields[7::4]
    del fields
    timestamps = None
    if stamps[0]:
        joined = "\n".join(stamps)
        if _STAMP_COLUMN.fullmatch(joined) is None:
            return None
        try:
            timestamps = _instants(joined)
        except ValueError:
            return None
    elif any(stamps):
        return None
    return [case_ids, activities, originators, timestamps, range(2, len(case_ids) + 2)]


def _rows(text: str) -> list:
    """The columns of a log read row by row with the csv module: case ids, activities, originators,
    timestamps (None when no row has one) and each row's line. Raises the first bad row's error."""
    reader = csv.reader(io.StringIO(text, newline=""))
    case_ids, activities, originators, timestamps, lines = [], [], [], [], []
    try:
        header = next(reader, None)
        if header is None:
            raise LogParseError("missing header row")
        if tuple(header) != CSV_HEADER:
            raise LogParseError(f"bad header {header!r}, expected {','.join(CSV_HEADER)}", 1)
        for row in reader:
            if not row:
                continue
            line = reader.line_num
            if len(row) != len(CSV_HEADER):
                raise LogParseError(f"expected {len(CSV_HEADER)} fields, got {len(row)}", line)
            case_id, activity, originator, stamp = row
            if not case_id:
                raise LogParseError("empty case_id", line)
            if not activity:
                raise LogParseError("empty activity", line)
            try:
                timestamps.append(parse_timestamp(stamp) if stamp else None)
            except LogError as exc:
                raise LogParseError(str(exc), line) from None
            case_ids.append(case_id)
            activities.append(activity)
            originators.append(originator or None)
            lines.append(line)
    except csv.Error as exc:  # malformed CSV, such as an over-long field
        raise LogParseError(str(exc), reader.line_num) from None
    timestamps = tuple(timestamps) if any(timestamps) else None
    return [case_ids, tuple(activities), tuple(originators), timestamps, lines]


def _log(columns: list) -> EventLog:
    """The log of the columns that :func:`_columns` or :func:`_rows` gives."""
    case_ids, activities, originators, timestamps, lines = columns
    columns.clear()  # so that each column is freed once it is used
    n = len(case_ids)
    cases = Counter(case_ids)  # rows per case, cases in the order of their first rows
    stamped = timestamps is not None
    timestamps = timestamps or (None,) * n
    if n and sum(map(ne, case_ids, islice(case_ids, 1, None))) >= len(cases):
        # A case's rows are apart, as in a log ordered by time: regroup the rows stably.
        case_ids = list(map(dict(zip(cases, count())).__getitem__, case_ids))  # as ranks, in first-row order
        get = itemgetter(*sorted(range(n), key=case_ids.__getitem__))
        activities, originators, timestamps, lines = map(get, (activities, originators, timestamps, lines))
        del get
    del case_ids
    starts = list(accumulate(cases.values(), initial=0))
    ends = starts[1:]
    unsorted = set()  # the indices of the cases to sort by stamp
    if stamped:
        try:  # rows stamped before the row above them
            late = set(compress(range(1, n), map(gt, timestamps, islice(timestamps, 1, None))))
        except TypeError:  # a row without a stamp, which only _rows gives
            for k, (case_id, start, end) in enumerate(zip(cases, starts, ends)):
                times = timestamps[start:end]
                if None not in times:
                    unsorted.add(k)
                elif any(times):
                    line = lines[start + times.index(None)]
                    raise LogParseError(f"case {case_id!r} mixes timestamped and untimestamped rows", line)
        else:  # the cases of those that do not start a case
            unsorted = set(map(bisect_right, repeat(ends), late.difference(starts)))
    traces = [
        _trace(case_id, activities[start:end], originators[start:end], timestamps[start:end])
        for case_id, start, end in zip(cases, starts, ends)
    ]
    for k in unsorted:  # stable: ties keep file order
        t = traces[k]
        order = sorted(range(len(t.timestamps)), key=t.timestamps.__getitem__)
        events = (t.activities, t.originators, t.timestamps)
        traces[k] = _trace(t.case_id, *(tuple(map(column.__getitem__, order)) for column in events))
    # Free the columns before making the tuple that outlives this call:
    # made past them, it would split the memory they free, which a later
    # large allocation (such as mine's 10 MB X_W text) could then not reuse.
    del activities, originators, timestamps, lines, starts, ends, cases
    return _event_log(tuple(traces))


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
    """Canonical CSV rendering: exact header, ``\\n`` line endings.

    The log is written by columns. Unless a case id, activity or
    originator holds a character that :func:`_csv_text` quotes or, before
    Python 3.11, rejects (a comma, a quote, ``\\n``, ``\\r`` or NUL), the
    csv module would write every field as it is, so the text is then one
    join per row and one over the rows. Otherwise :func:`_csv_text` writes
    the rows.
    """
    traces = log.traces
    case_ids = list(map(attrgetter("case_id"), traces))
    activities = list(chain.from_iterable(map(attrgetter("activities"), traces)))
    originators = list(chain.from_iterable(map(attrgetter("originators"), traces)))
    if None in originators:
        originators = ["" if o is None else o for o in originators]
    fields = "".join(chain(case_ids, activities, originators))
    plain = not any(map(fields.__contains__, ',"\n\r\0'))
    del fields
    stamps = list(chain.from_iterable(map(attrgetter("timestamps"), traces)))
    texts = map(_STAMP_FORMAT.__mod__, map(_stamp_fields, filter(None, stamps)))
    if None in stamps:  # an unstamped trace's events get empty stamps
        texts = [next(texts) if stamp else "" for stamp in stamps]
    lengths = map(len, map(attrgetter("activities"), traces))
    rows = zip(chain.from_iterable(map(repeat, case_ids, lengths)), activities, originators, texts)
    if plain:
        return "\n".join(chain((",".join(CSV_HEADER),), map(",".join, rows), ("",)))
    return _csv_text(chain((CSV_HEADER,), rows))
