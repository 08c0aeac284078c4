"""Turn raw code-review comment records into role-tagged event logs.

Each review comment becomes one event. Records are grouped into cases by
a configurable strategy (per artifact, discussion thread, topic, or
per-submitter commit sessions), and within a case the reviewer who opened
the discussion is the initiator; everyone reacting later is a responder.
"""

from __future__ import annotations

import json
import re
from datetime import datetime, timedelta
from itertools import count, repeat
from operator import attrgetter, itemgetter
from typing import Iterable, Mapping, Sequence

from .eventlog import (
    EventLog,
    LogError,
    _TIMESTAMP,
    _Value,
    format_timestamp,
    parse_timestamp,
    _event_log,
    _instants,
    _normalize_timestamp,
    _trace,
)


class RecordError(ValueError):
    """A review record (or a set of them) violates the input contract."""


class RecordParseError(RecordError):
    """JSON-lines input cannot be turned into review records."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


DEFAULT_VERB = "review"


class ReviewRecord(_Value):
    """One review comment on a submitted artifact."""

    __slots__ = __match_args__ = (
        "artifact_id", "submitter", "reviewer", "comment", "timestamp", "thread_id", "topic"
    )

    def __init__(
        self,
        artifact_id: str,
        submitter: str,
        reviewer: str,
        comment: str,
        timestamp: datetime,
        thread_id: str | None = None,
        topic: str | None = None,
    ):
        if not artifact_id:
            raise RecordError("record has empty artifact_id")
        if not reviewer:
            raise RecordError("record has empty reviewer")
        try:
            timestamp = _normalize_timestamp(timestamp)
        except LogError as exc:
            raise RecordError(str(exc)) from None
        self._set(artifact_id, submitter, reviewer, comment, timestamp, thread_id, topic)


def _record(
    artifact_id: str,
    submitter: str,
    reviewer: str,
    comment: str,
    timestamp: datetime,
    thread_id: str | None,
    topic: str | None,
) -> ReviewRecord:
    """A :class:`ReviewRecord` from fields :func:`parse_records_jsonl` has
    checked in bulk: non-empty ``artifact_id`` and ``reviewer``, and a
    timestamp that :func:`_instants` built."""
    record = object.__new__(ReviewRecord)
    _set_artifact_id(record, artifact_id)
    _set_submitter(record, submitter)
    _set_reviewer(record, reviewer)
    _set_comment(record, comment)
    _set_timestamp(record, timestamp)
    _set_thread_id(record, thread_id)
    _set_topic(record, topic)
    return record


# Each slot's own setter, which a frozen class's __setattr__ does not guard.
_set_artifact_id = ReviewRecord.artifact_id.__set__
_set_submitter = ReviewRecord.submitter.__set__
_set_reviewer = ReviewRecord.reviewer.__set__
_set_comment = ReviewRecord.comment.__set__
_set_timestamp = ReviewRecord.timestamp.__set__
_set_thread_id = ReviewRecord.thread_id.__set__
_set_topic = ReviewRecord.topic.__set__


class ByArtifact(_Value):
    """One case per reviewed artifact."""

    label = "artifact"
    key = "artifact_id"


class ByThread(_Value):
    """One case per discussion thread."""

    label = "thread"
    key = "thread_id"


class ByTopic(_Value):
    """One case per topic / subject line."""

    label = "topic"
    key = "topic"


class ByCommit(_Value):
    """One case per submitter activity session.

    A submitter's records sorted by time form a new case whenever the gap
    to the previous record exceeds ``window``.
    """

    __match_args__ = ("window",)

    def __init__(self, window: timedelta):
        self._set(window)
        if self.window < timedelta(0):
            raise ValueError("commit session window must be non-negative")

    @property
    def label(self) -> str:
        return f"commit:{int(self.window.total_seconds())}s"


CaseStrategy = ByArtifact | ByThread | ByTopic | ByCommit


class TraceLog(_Value):
    """A role-tagged event log plus the provenance that produced it."""

    __match_args__ = ("log", "strategy", "record_count", "window")

    def __init__(
        self,
        log: EventLog,
        strategy: str,
        record_count: int,
        window: tuple[datetime, datetime] | None = None,
    ):
        self._set(log, strategy, record_count, window)


def time_window_filter(
    records: Iterable[ReviewRecord], start: datetime, end: datetime
) -> list[ReviewRecord]:
    """Records with start <= timestamp <= end, original order kept."""
    start = _normalize_timestamp(start)
    end = _normalize_timestamp(end)
    if start > end:
        raise ValueError(f"inverted window: {start.isoformat()} > {end.isoformat()}")
    return [r for r in records if start <= r.timestamp <= end]


_timestamp = attrgetter("timestamp")


def _group_records(
    records: Sequence[ReviewRecord], strategy: CaseStrategy
) -> dict[str, list[ReviewRecord]]:
    cases: dict[str, list[ReviewRecord]] = {}
    if isinstance(strategy, ByCommit):
        by_submitter: dict[str, list[ReviewRecord]] = {}
        for record in records:
            if not record.submitter:
                raise RecordError(
                    f"record on {record.artifact_id!r} has no submitter; "
                    "commit grouping needs one"
                )
            by_submitter.setdefault(record.submitter, []).append(record)
        for submitter in sorted(by_submitter):
            sessions: list[list[ReviewRecord]] = []
            for record in sorted(by_submitter[submitter], key=_timestamp):
                if not sessions or record.timestamp - sessions[-1][-1].timestamp > strategy.window:
                    sessions.append([])
                sessions[-1].append(record)
            for session in sessions:
                cases[f"{submitter}@{format_timestamp(session[0].timestamp)}"] = session
        return cases

    key_of = attrgetter(strategy.key)
    for record in records:
        key = key_of(record)
        if not key:
            raise RecordError(
                f"record on {record.artifact_id!r} lacks the {strategy.label} grouping key"
            )
        cases.setdefault(key, []).append(record)
    return cases


def _verb_for(comment: str, keywords: Sequence[tuple[str, str]]) -> str:
    """The verb of the first keyword, in ``keywords``' order, that ``comment``
    holds, ignoring case; ``keywords`` are (lower-cased keyword, verb) pairs."""
    lowered = comment.lower()
    for keyword, verb in keywords:
        if keyword in lowered:
            return verb
    return DEFAULT_VERB


def build_log(
    records: Sequence[ReviewRecord],
    strategy: CaseStrategy,
    verb_map: Mapping[str, str] | None = None,
    window: tuple[datetime, datetime] | None = None,
) -> TraceLog:
    """Group records into cases and emit one role-tagged event per record.

    Within a case, the reviewer of the earliest record (ties broken by
    input order) is the initiator for all their comments there; every
    other reviewer is a responder. Activity names read ``verb:role``
    where the verb is ``review`` unless a ``verb_map`` keyword matches
    the comment text (the first match in sorted keyword order, ignoring
    case). Output traces are ordered by case id, so identical inputs
    serialize byte-identically. A ``window`` keeps only the records that
    :func:`time_window_filter` keeps, and is recorded with the count of
    those records; an inverted window raises ``ValueError``.
    """
    records = list(records) if window is None else time_window_filter(records, *window)
    if not records:
        raise RecordError("no records to build a log from")
    cases = _group_records(records, strategy)
    keywords = [(keyword.lower(), verb_map[keyword]) for keyword in sorted(verb_map or ())]
    # Each verb's two activity names, made once: (initiator, responder).
    verbs = {DEFAULT_VERB, *(verb for _, verb in keywords)}
    names = {verb: (verb + ":initiator", verb + ":responder") for verb in verbs}
    traces = []
    # A record's reviewer is non-empty and its timestamp whole-second UTC, and
    # every case is non-empty with a non-empty key of its own: the traces and
    # the log below need no further checks.
    for case_id in sorted(cases):
        ordered = sorted(cases[case_id], key=_timestamp)  # stable
        opener = ordered[0].reviewer
        if keywords:
            pairs = [names[_verb_for(r.comment, keywords)] for r in ordered]
        else:
            pairs = repeat(names[DEFAULT_VERB])
        activities, reviewers, timestamps = zip(*[
            (pair[r.reviewer != opener], r.reviewer, r.timestamp) for pair, r in zip(pairs, ordered)
        ])
        traces.append(_trace(case_id, activities, reviewers, timestamps))
    return TraceLog(_event_log(tuple(traces)), strategy.label, len(records), window)


_REQUIRED_FIELDS = ("artifact_id", "submitter", "reviewer", "comment", "timestamp")
_required_values = itemgetter(*_REQUIRED_FIELDS)

# One line as json.dumps writes a record with its default separators and the
# documented key order: the seven fields, then an eighth group that is the
# whole of any other line. A string body here holds no escape and no control
# character, so its text is its value; an optional key's null and "" both
# give "", as an absent key does.
_BODY = r'[^"\\\x00-\x1f]'
_RECORD_LINE = re.compile(
    rf'^(?:\{{"artifact_id": "({_BODY}+)", "submitter": "({_BODY}*)", "reviewer": "({_BODY}+)", '
    rf'"comment": "({_BODY}*)", "timestamp": "({_TIMESTAMP.pattern})"'
    rf'(?:, "thread_id": (?:null|"({_BODY}*)"))?(?:, "topic": (?:null|"({_BODY}*)"))?\}}|(.*))$',
    re.M | re.ASCII,
)
# Lines are tokenized in blocks of about this many characters, each ending at a
# line end, so that only one block's match tuples are alive next to the records.
_BLOCK = 1 << 16


def parse_records_jsonl(text: str) -> list[ReviewRecord]:
    """Parse JSON-lines review records; blank lines are skipped.

    Each line is an object with ``artifact_id``, ``submitter``,
    ``reviewer``, ``comment``, ``timestamp`` (ISO-8601 as in the log CSV)
    and optional ``thread_id`` / ``topic``. Unknown keys are ignored.

    A line written as ``json.dumps`` writes a record, with its default
    separators, the keys in that order and no escape in any string, is read
    in bulk by one regex. Any other line is read by :func:`json.loads` and
    checked by the :class:`ReviewRecord` constructor. Both give the same
    records, and the same errors with the same line numbers.
    """
    records = []
    # Lines end at \r\n, \r or \n only; str.splitlines would also split at
    # U+2028 and the other separators that a JSON string may hold unescaped.
    text = text.replace("\r\n", "\n").replace("\r", "\n")
    line_no = 1
    start = 0
    while start <= len(text):
        end = text.find("\n", start + _BLOCK)
        if end < 0:
            end = len(text)
        rows = _RECORD_LINE.findall(text, start, end)
        stamps = [row[4] for row in rows if row[0]]
        try:
            instants = iter(_instants("\n".join(stamps)) if stamps else ())
        except ValueError:  # a stamp field out of range, such as February 30: json reads the block
            records += filter(None, map(_parse_line, text[start:end].split("\n"), count(line_no)))
        else:
            records += filter(None, [
                _record(artifact, submitter, reviewer, comment, next(instants), thread or None, topic or None)
                if artifact
                else _parse_line(line, n)
                for n, (artifact, submitter, reviewer, comment, _, thread, topic, line) in enumerate(rows, line_no)
            ])
        line_no += len(rows)
        start = end + 1
    return records


def _parse_line(line: str, line_no: int) -> ReviewRecord | None:
    """The record of one line read with :func:`json.loads` and checked by the
    :class:`ReviewRecord` constructor, None for a blank line; a flaw is a
    :class:`RecordParseError` at ``line_no``."""
    if not line.strip():
        return None
    try:
        payload = json.loads(line)
    except json.JSONDecodeError as exc:
        raise RecordParseError(f"invalid JSON: {exc.msg}", line_no) from None
    except RecursionError:
        raise RecordParseError("invalid JSON: nested too deeply", line_no) from None
    if not isinstance(payload, dict):
        raise RecordParseError("record is not a JSON object", line_no)
    try:
        artifact_id, submitter, reviewer, comment, stamp = _required_values(payload)
    except KeyError:
        missing = [f for f in _REQUIRED_FIELDS if f not in payload]
        raise RecordParseError(f"missing fields: {', '.join(missing)}", line_no) from None
    if not (
        isinstance(artifact_id, str)
        and isinstance(submitter, str)
        and isinstance(reviewer, str)
        and isinstance(comment, str)
        and isinstance(stamp, str)
    ):
        raise RecordParseError("record fields must be strings", line_no)
    thread_id, topic = payload.get("thread_id"), payload.get("topic")
    for name, value in ("thread_id", thread_id), ("topic", topic):
        if value is not None and not isinstance(value, str):
            raise RecordParseError(f"{name} must be a string when present", line_no)
    try:
        return ReviewRecord(
            artifact_id, submitter, reviewer, comment, parse_timestamp(stamp), thread_id or None, topic or None
        )
    except (LogError, RecordError) as exc:
        raise RecordParseError(str(exc), line_no) from None


def metadata_json(trace_log: TraceLog) -> str:
    """Sidecar metadata: strategy, window, record count. Stable bytes."""
    window = trace_log.window
    payload = {
        "strategy": trace_log.strategy,
        "window": [format_timestamp(window[0]), format_timestamp(window[1])] if window else None,
        "record_count": trace_log.record_count,
    }
    return json.dumps(payload, indent=2) + "\n"
