"""Turn raw code-review comment records into role-tagged event logs.

Each review comment becomes one event. Records are grouped into cases by
a configurable strategy (per artifact, discussion thread, topic, or
per-submitter commit sessions), and within a case the reviewer who opened
the discussion is the initiator; everyone reacting later is a responder.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass
from datetime import datetime, timedelta
from typing import Iterable, Mapping, Sequence

from .eventlog import (
    Event,
    EventLog,
    LogError,
    Trace,
    format_timestamp,
    parse_timestamp,
    _normalize_timestamp,
)


class RecordError(ValueError):
    """A review record (or a set of them) violates the input contract."""


class RecordParseError(RecordError):
    """JSON-lines input cannot be turned into review records."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class Role(enum.Enum):
    INITIATOR = "initiator"
    RESPONDER = "responder"


DEFAULT_VERB = "review"


@dataclass(frozen=True)
class ReviewRecord:
    """One review comment on a submitted artifact."""

    artifact_id: str
    submitter: str
    reviewer: str
    comment: str
    timestamp: datetime
    thread_id: str | None = None
    topic: str | None = None

    def __post_init__(self):
        if not self.artifact_id:
            raise RecordError("record has empty artifact_id")
        if not self.reviewer:
            raise RecordError("record has empty reviewer")
        try:
            object.__setattr__(self, "timestamp", _normalize_timestamp(self.timestamp))
        except LogError as exc:
            raise RecordError(str(exc)) from None


@dataclass(frozen=True)
class ByArtifact:
    """One case per reviewed artifact."""

    label = "artifact"


@dataclass(frozen=True)
class ByThread:
    """One case per discussion thread."""

    label = "thread"


@dataclass(frozen=True)
class ByTopic:
    """One case per topic / subject line."""

    label = "topic"


@dataclass(frozen=True)
class ByCommit:
    """One case per submitter activity session.

    A submitter's records sorted by time form a new case whenever the gap
    to the previous record exceeds ``window``.
    """

    window: timedelta

    def __post_init__(self):
        if self.window < timedelta(0):
            raise ValueError("commit session window must be non-negative")

    @property
    def label(self) -> str:
        return f"commit:{int(self.window.total_seconds())}s"


CaseStrategy = ByArtifact | ByThread | ByTopic | ByCommit


@dataclass(frozen=True)
class TraceLog:
    """A role-tagged event log plus the provenance that produced it."""

    log: EventLog
    strategy: str
    record_count: int
    window: tuple[datetime, datetime] | None = None


def time_window_filter(
    records: Iterable[ReviewRecord], start: datetime, end: datetime
) -> list[ReviewRecord]:
    """Records with start <= timestamp <= end, original order kept."""
    start = _normalize_timestamp(start)
    end = _normalize_timestamp(end)
    if start > end:
        raise ValueError(f"inverted window: {start.isoformat()} > {end.isoformat()}")
    return [r for r in records if start <= r.timestamp <= end]


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
            session: list[ReviewRecord] = []
            for record in sorted(by_submitter[submitter], key=lambda r: r.timestamp):
                if session and record.timestamp - session[-1].timestamp > strategy.window:
                    cases[f"{submitter}@{format_timestamp(session[0].timestamp)}"] = session
                    session = []
                session.append(record)
            if session:
                cases[f"{submitter}@{format_timestamp(session[0].timestamp)}"] = session
        return cases

    for record in records:
        if isinstance(strategy, ByArtifact):
            key = record.artifact_id
        elif isinstance(strategy, ByThread):
            key = record.thread_id
        else:
            key = record.topic
        if not key:
            raise RecordError(
                f"record on {record.artifact_id!r} lacks the {strategy.label} grouping key"
            )
        cases.setdefault(key, []).append(record)
    return cases


def _verb_for(comment: str, verb_map: Mapping[str, str] | None) -> str:
    if verb_map:
        lowered = comment.lower()
        for keyword in sorted(verb_map):
            if keyword.lower() in lowered:
                return verb_map[keyword]
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
    the comment text. Output traces are ordered by case id, so identical
    inputs serialize byte-identically.
    """
    records = list(records)
    if not records:
        raise RecordError("no records to build a log from")
    cases = _group_records(records, strategy)
    traces = []
    for case_id in sorted(cases):
        ordered = sorted(cases[case_id], key=lambda r: r.timestamp)  # stable
        opener = ordered[0].reviewer
        events = tuple(
            Event(
                activity="%s:%s" % (
                    _verb_for(record.comment, verb_map),
                    (Role.INITIATOR if record.reviewer == opener else Role.RESPONDER).value,
                ),
                originator=record.reviewer,
                timestamp=record.timestamp,
            )
            for record in ordered
        )
        traces.append(Trace(case_id, events))
    log = EventLog(tuple(traces))
    return TraceLog(log, strategy.label, len(records), window)


def durations(log: TraceLog | EventLog) -> dict[str, list[timedelta]]:
    """Per case, the gaps between consecutive events.

    Single timestamps per event are all the input offers, so execution
    duration is approximated by inter-event gaps.
    """
    event_log = log.log if isinstance(log, TraceLog) else log
    gaps: dict[str, list[timedelta]] = {}
    for trace in event_log.traces:
        for event in trace.events:
            if event.timestamp is None:
                raise LogError(f"case {trace.case_id!r} has an untimestamped event")
        stamps = [e.timestamp for e in trace.events]
        gaps[trace.case_id] = [b - a for a, b in zip(stamps, stamps[1:])]
    return gaps


_REQUIRED_FIELDS = ("artifact_id", "submitter", "reviewer", "comment", "timestamp")


def parse_records_jsonl(text: str) -> list[ReviewRecord]:
    """Parse JSON-lines review records; blank lines are skipped.

    Each line is an object with ``artifact_id``, ``submitter``,
    ``reviewer``, ``comment``, ``timestamp`` (ISO-8601 as in the log CSV)
    and optional ``thread_id`` / ``topic``. Unknown keys are ignored.
    """
    records = []
    for line_no, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise RecordParseError(f"invalid JSON: {exc.msg}", line_no) from None
        except RecursionError:
            raise RecordParseError("invalid JSON: nested too deeply", line_no) from None
        if not isinstance(payload, dict):
            raise RecordParseError("record is not a JSON object", line_no)
        missing = [f for f in _REQUIRED_FIELDS if f not in payload]
        if missing:
            raise RecordParseError(f"missing fields: {', '.join(missing)}", line_no)
        values = {f: payload[f] for f in _REQUIRED_FIELDS}
        if not all(isinstance(v, str) for v in values.values()):
            raise RecordParseError("record fields must be strings", line_no)
        for optional in ("thread_id", "topic"):
            value = payload.get(optional)
            if value is not None and not isinstance(value, str):
                raise RecordParseError(f"{optional} must be a string when present", line_no)
            values[optional] = value or None
        try:
            values["timestamp"] = parse_timestamp(values["timestamp"])
            records.append(ReviewRecord(**values))
        except (LogError, RecordError) as exc:
            raise RecordParseError(str(exc), line_no) from None
    return records


def metadata_json(trace_log: TraceLog) -> str:
    """Sidecar metadata: strategy, window, record count. Stable bytes."""
    window = trace_log.window
    payload = {
        "strategy": trace_log.strategy,
        "window": [format_timestamp(window[0]), format_timestamp(window[1])] if window else None,
        "record_count": trace_log.record_count,
    }
    return json.dumps(payload, indent=2) + "\n"
