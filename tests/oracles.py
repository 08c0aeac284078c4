"""Independent re-computations used as oracles.

The brute-force ones evaluate definitions literally and exhaustively;
none of them shares code paths with the library implementations they
check. The ``reference_*`` ones keep the plainer implementation that an
optimised function replaced; they share with it only the public
constructors, whose checks they rely on, and helpers it did not change.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import re
from collections import Counter
from datetime import datetime, timezone
from typing import Mapping

from trailnet.eventlog import CSV_HEADER, EventLog, LogError, LogParseError, Trace
from trailnet.petri import ReplayResult, TraceGenerationResult, WorkflowNet
from trailnet.relations import FootprintMatrix, Relation
from trailnet.reviews import (
    DEFAULT_VERB,
    ByArtifact,
    ByCommit,
    ByThread,
    ByTopic,
    RecordError,
    RecordParseError,
    ReviewRecord,
    TraceLog,
)
from trailnet.social import SocialGraph


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


def reference_closure(y_w):
    """Every pair (A', B') of non-empty subsets A' of A and B' of B, over the members (A, B)."""
    result = set()
    for a_side, b_side in y_w:
        for a_size, b_size in itertools.product(range(1, len(a_side) + 1), range(1, len(b_side) + 1)):
            for a_sub in itertools.combinations(a_side, a_size):
                for b_sub in itertools.combinations(b_side, b_size):
                    result.add((frozenset(a_sub), frozenset(b_sub)))
    return frozenset(result)


def brute_force_maximal(pairs):
    """Quadratic componentwise-domination filter."""
    return frozenset(
        (a, b)
        for (a, b) in pairs
        if not any((a, b) != (a2, b2) and a <= a2 and b <= b2 for (a2, b2) in pairs)
    )


# The token game over dict markings keyed by place name, as the library
# played it before it compiled nets to place indices.

Marking = Mapping[str, int]


class NotEnabledError(ValueError):
    """A transition was fired without the tokens to back it."""


def initial_marking(net: WorkflowNet) -> dict[str, int]:
    return {net.source: 1}


def enabled(net: WorkflowNet, marking: Marking) -> frozenset[str]:
    """Transitions whose every input place holds at least one token."""
    for place in marking:
        if place not in net.places:
            raise KeyError(f"marking references unknown place {place!r}")
    return frozenset(
        t for t in net.transitions if all(marking.get(p, 0) >= 1 for p in net.inputs(t))
    )


def fire(net: WorkflowNet, marking: Marking, transition: str) -> dict[str, int]:
    """One token off each input place, one onto each output place."""
    if transition not in net.transitions:
        raise KeyError(f"unknown transition {transition!r}")
    missing = [p for p in net.inputs(transition) if marking.get(p, 0) < 1]
    if missing:
        raise NotEnabledError(f"transition {transition!r} lacks tokens in {sorted(missing)}")
    result = {p: n for p, n in marking.items() if n}
    for place in net.inputs(transition):
        result[place] -= 1
        if not result[place]:
            del result[place]
    for place in net.outputs(transition):
        result[place] = result.get(place, 0) + 1
    return result


def reference_generate_traces(net, max_length: int, max_traces: int) -> TraceGenerationResult:
    """The token-game search over dict markings, replaying every marking
    from its parent with ``enabled``/``fire`` above; same bounds and cut
    rules as ``generate_traces``. The traces it keeps are collected in a
    set and sorted at the end, so the order ``generate_traces`` returns is
    checked against an independent sort."""
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
    return TraceGenerationResult(tuple(sorted(found)), complete)


def reference_replay(net, trace) -> ReplayResult:
    """Token replay over dict markings keyed by place name, every activity
    checked before any firing; same accounting as ``replay``."""
    for activity in trace:
        if activity not in net.transitions:
            raise KeyError(f"trace activity {activity!r} is not a transition of the net")
    marking = initial_marking(net)
    missing = 0
    for activity in trace:
        for place in net.inputs(activity):
            if marking.get(place, 0):
                marking[place] -= 1
            else:
                missing += 1
        for place in net.outputs(activity):
            marking[place] = marking.get(place, 0) + 1
    if marking.get(net.sink, 0):
        marking[net.sink] -= 1
    else:
        missing += 1
    remaining = sum(marking.values())
    return ReplayResult(missing == 0 and remaining == 0, missing, remaining)


def reference_handover_of_work(log: EventLog) -> SocialGraph:
    """Handover of work counted trace by trace, pair by pair, as before
    the bulk count: the first case with an event without originator raises."""
    nodes: set[str] = set()
    edges: Counter[tuple[str, str]] = Counter()
    for trace in log.traces:
        people = trace.originators
        if None in people:
            raise LogError(f"case {trace.case_id!r} has an event without originator")
        nodes.update(people)
        for tail, head in zip(people, people[1:]):
            if tail != head:
                edges[(tail, head)] += 1
    return SocialGraph(frozenset(nodes), dict(edges))


# Ingest as it was before it built traces and records through trusted
# constructors: every value goes through the public constructors and
# their checks, and timestamps through datetime(...). build_log's verb
# lookup is the one that lowered and sorted the keywords for every record.

_TIMESTAMP_FIELDS = re.compile(r"(\d{4})-(\d\d)-(\d\d)T(\d\d):(\d\d):(\d\d)Z", re.ASCII)


def reference_parse_timestamp(text: str) -> datetime:
    match = _TIMESTAMP_FIELDS.fullmatch(text)
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


def _reference_rows(reader):
    # Malformed CSV (an over-long field, say) is a parse error like any other.
    try:
        yield from reader
    except csv.Error as exc:
        raise LogParseError(str(exc), reader.line_num) from None


def reference_parse_csv_log(source) -> EventLog:
    text = source.read() if hasattr(source, "read") else source
    reader = csv.reader(io.StringIO(text.lstrip("\ufeff"), newline=""))
    rows = _reference_rows(reader)
    header = next(rows, None)
    if header is None:
        raise LogParseError("missing header row")
    if tuple(header) != CSV_HEADER:
        raise LogParseError(f"bad header {header!r}, expected {','.join(CSV_HEADER)}", 1)

    # case id -> its events as (activity, originator, timestamp, line)
    cases: dict[str, list[tuple[str, str | None, datetime | None, int]]] = {}
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
            timestamp = reference_parse_timestamp(stamp) if stamp else None
        except LogError as exc:
            raise LogParseError(str(exc), line) from None
        cases.setdefault(case_id, []).append((activity, originator, timestamp, line))

    traces = []
    for case_id, rows in cases.items():
        stamped = [line for _, _, timestamp, line in rows if timestamp is not None]
        if stamped and len(stamped) != len(rows):
            missing = next(line for _, _, timestamp, line in rows if timestamp is None)
            raise LogParseError(f"case {case_id!r} mixes timestamped and untimestamped rows", missing)
        if stamped:
            rows = sorted(rows, key=lambda r: r[2])  # stable: ties keep file order
        traces.append(
            Trace(
                case_id,
                tuple(activity for activity, _, _, _ in rows),
                tuple(originator for _, originator, _, _ in rows),
                tuple(timestamp for _, _, timestamp, _ in rows),
            )
        )
    return EventLog(tuple(traces))


def _stamp_text(stamp: datetime) -> str:
    """A UTC instant in the interchange format."""
    return "%04d-%02d-%02dT%02d:%02d:%02dZ" % (
        stamp.year, stamp.month, stamp.day, stamp.hour, stamp.minute, stamp.second
    )


def reference_serialize_csv_log(log: EventLog) -> str:
    """The writer with one csv-writer row per event. Each row is written with
    a ``\r\n`` end, which makes the writer quote a field holding ``\n`` or
    ``\r`` on every Python version, and that end is then cut back to ``\n``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\r\n")
    lines = []

    def write(row):
        buffer.seek(0)
        buffer.truncate()
        writer.writerow(row)
        lines.append(buffer.getvalue()[:-2] + "\n")

    try:
        write(CSV_HEADER)
        for trace in log.traces:
            for activity, originator, stamp in zip(trace.activities, trace.originators, trace.timestamps):
                # The writer writes None as an empty field.
                write((trace.case_id, activity, originator, stamp and _stamp_text(stamp)))
    except csv.Error as exc:  # Python 3.10 cannot write a field holding NUL
        raise LogError(f"cannot write CSV: {exc}") from None
    return "".join(lines)


_REQUIRED_FIELDS = ("artifact_id", "submitter", "reviewer", "comment", "timestamp")


def reference_parse_records_jsonl(text: str) -> list[ReviewRecord]:
    records = []
    # Lines end at \r\n, \r or \n only; str.splitlines would also split at
    # U+2028 and the other separators that a JSON string may hold unescaped.
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    for line_no, line in enumerate(lines, start=1):
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
            values["timestamp"] = reference_parse_timestamp(values["timestamp"])
            records.append(ReviewRecord(**values))
        except (LogError, RecordError) as exc:
            raise RecordParseError(str(exc), line_no) from None
    return records


def _verb_for(comment: str, verb_map: Mapping[str, str] | None) -> str:
    if verb_map:
        lowered = comment.lower()
        for keyword in sorted(verb_map):
            if keyword.lower() in lowered:
                return verb_map[keyword]
    return DEFAULT_VERB


_CASE_FIELDS = {ByArtifact: "artifact_id", ByThread: "thread_id", ByTopic: "topic"}


def _reference_cases(records, strategy) -> dict[str, list[ReviewRecord]]:
    """Case id -> its records: one case per value of the strategy's record
    field, or, by commit, one pass over all records in time order that opens
    a submitter's new session whenever the gap to their previous record
    exceeds the window."""
    if not isinstance(strategy, ByCommit):
        cases = {}
        for record in records:
            key = getattr(record, _CASE_FIELDS[type(strategy)])
            if not key:
                raise RecordError(f"record on {record.artifact_id!r} lacks the {strategy.label} grouping key")
            cases.setdefault(key, []).append(record)
        return cases
    for record in records:
        if not record.submitter:
            raise RecordError(f"record on {record.artifact_id!r} has no submitter; commit grouping needs one")
    cases = {}
    last = {}  # submitter -> their current case id and the instant of their previous record
    for record in sorted(records, key=lambda r: r.timestamp):  # stable
        case_id, previous = last.get(record.submitter, (None, None))
        if case_id is None or record.timestamp - previous > strategy.window:
            case_id = f"{record.submitter}@{_stamp_text(record.timestamp)}"
            cases[case_id] = []
        cases[case_id].append(record)
        last[record.submitter] = case_id, record.timestamp
    return cases


def reference_build_log(records, strategy, verb_map=None, window=None) -> TraceLog:
    records = list(records)
    if window is not None:
        records = [r for r in records if window[0] <= r.timestamp <= window[1]]
    if not records:
        raise RecordError("no records to build a log from")
    cases = _reference_cases(records, strategy)
    traces = []
    for case_id in sorted(cases):
        ordered = sorted(cases[case_id], key=lambda r: r.timestamp)  # stable
        opener = ordered[0].reviewer
        activities = tuple(
            "%s:%s" % (
                _verb_for(record.comment, verb_map),
                "initiator" if record.reviewer == opener else "responder",
            )
            for record in ordered
        )
        originators = tuple(record.reviewer for record in ordered)
        timestamps = tuple(record.timestamp for record in ordered)
        traces.append(Trace(case_id, activities, originators, timestamps))
    log = EventLog(tuple(traces))
    return TraceLog(log, strategy.label, len(records), window)
