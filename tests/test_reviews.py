from __future__ import annotations

import json
import random
from datetime import datetime, timedelta, timezone

import pytest

from trailnet.alpha import alpha
from trailnet.eventlog import parse_csv_log, serialize_csv_log
from trailnet.relations import footprint
from trailnet.reviews import (
    ByArtifact,
    ByCommit,
    ByThread,
    ByTopic,
    RecordError,
    RecordParseError,
    ReviewRecord,
    TraceLog,
    build_log,
    metadata_json,
    parse_records_jsonl,
    time_window_filter,
)

from .reviewgen import random_records

UTC = timezone.utc
T0 = datetime(2012, 5, 3, 12, 0, 0, tzinfo=UTC)


def record(artifact="X", submitter="sam", reviewer="r1", comment="fine", at=0, **kw):
    return ReviewRecord(artifact, submitter, reviewer, comment, T0 + timedelta(seconds=at), **kw)


def expected_initiators(records, case_of):
    """Independent pass: earliest-timestamped reviewer per case, stable ties."""
    openers = {}
    for rec in sorted(records, key=lambda r: r.timestamp):
        openers.setdefault(case_of(rec), rec.reviewer)
    return openers


class TestRecordValidation:
    def test_required_fields(self):
        with pytest.raises(RecordError):
            record(artifact="")
        with pytest.raises(RecordError):
            record(reviewer="")
        # Artifact before reviewer: a JSONL line with both empty reports the artifact.
        with pytest.raises(RecordError, match="^record has empty artifact_id$"):
            record(artifact="", reviewer="")

    def test_subsecond_timestamp_rejected(self):
        with pytest.raises(RecordError):
            ReviewRecord("X", "s", "r", "c", T0.replace(microsecond=3))


class TestBuildLog:
    def test_two_reviewers_one_case(self):
        records = [record(reviewer="R1", at=0), record(reviewer="R2", at=60)]
        trace_log = build_log(records, ByArtifact())
        [trace] = trace_log.log.traces
        assert trace.case_id == "X"
        assert list(zip(trace.activities, trace.originators)) == [
            ("review:initiator", "R1"),
            ("review:responder", "R2"),
        ]

    def test_cases_grouped_per_artifact(self):
        records = [
            record(artifact="X", reviewer="R1", at=0),
            record(artifact="Y", reviewer="R2", at=10),
            record(artifact="X", reviewer="R2", at=20),
            record(artifact="Y", reviewer="R1", at=30),
        ]
        trace_log = build_log(records, ByArtifact())
        by_case = {t.case_id: t for t in trace_log.log.traces}
        assert set(by_case) == {"X", "Y"}
        # roles assigned independently per case
        assert by_case["X"].originators[0] == "R1"
        assert by_case["Y"].originators[0] == "R2"

    def test_opener_stays_initiator_for_later_comments(self):
        records = [
            record(reviewer="R1", at=1),
            record(reviewer="R1", at=5),
            record(reviewer="R2", at=9),
        ]
        trace_log = build_log(records, ByArtifact())
        [trace] = trace_log.log.traces
        assert trace.activities == (
            "review:initiator",
            "review:initiator",
            "review:responder",
        )
        oracle = expected_initiators(records, lambda r: r.artifact_id)
        for activity, originator in zip(trace.activities, trace.originators):
            is_opener = originator == oracle["X"]
            assert activity.endswith("initiator" if is_opener else "responder")

    def test_tie_on_timestamp_breaks_by_input_order(self):
        records = [record(reviewer="R2", at=0), record(reviewer="R1", at=0)]
        trace_log = build_log(records, ByArtifact())
        assert trace_log.log.traces[0].originators[0] == "R2"

    def test_events_sorted_by_timestamp(self):
        records = [record(reviewer="R2", at=60), record(reviewer="R1", at=0)]
        trace_log = build_log(records, ByArtifact())
        [trace] = trace_log.log.traces
        assert trace.originators == ("R1", "R2")
        assert trace.timestamps == (T0, T0 + timedelta(seconds=60))

    def test_thread_and_topic_strategies(self):
        records = [
            record(reviewer="R1", at=0, thread_id="t1", topic="perf"),
            record(reviewer="R2", at=1, thread_id="t2", topic="perf"),
        ]
        assert {t.case_id for t in build_log(records, ByThread()).log.traces} == {"t1", "t2"}
        assert {t.case_id for t in build_log(records, ByTopic()).log.traces} == {"perf"}

    def test_missing_grouping_key_rejected(self):
        with pytest.raises(RecordError):
            build_log([record()], ByThread())
        with pytest.raises(RecordError):
            build_log([record()], ByTopic())
        with pytest.raises(RecordError):
            build_log([record(submitter="")], ByCommit(timedelta(hours=1)))

    def test_empty_input_rejected(self):
        with pytest.raises(RecordError):
            build_log([], ByArtifact())

    def test_commit_strategy_sessionizes_per_submitter(self):
        records = [
            record(artifact="X", submitter="sam", reviewer="R1", at=0),
            record(artifact="Y", submitter="sam", reviewer="R2", at=1800),
            record(artifact="Z", submitter="sam", reviewer="R1", at=10_000),
            record(artifact="W", submitter="kim", reviewer="R2", at=100),
        ]
        trace_log = build_log(records, ByCommit(timedelta(hours=1)))
        case_ids = sorted(t.case_id for t in trace_log.log.traces)
        assert case_ids == [
            "kim@2012-05-03T12:01:40Z",
            "sam@2012-05-03T12:00:00Z",
            "sam@2012-05-03T14:46:40Z",
        ]
        sizes = {t.case_id: len(t.activities) for t in trace_log.log.traces}
        assert sizes["sam@2012-05-03T12:00:00Z"] == 2

    def test_commit_gap_equal_to_window_stays_in_session(self):
        records = [record(at=0), record(at=3600, reviewer="R2")]
        trace_log = build_log(records, ByCommit(timedelta(hours=1)))
        assert len(trace_log.log.traces) == 1

    def test_verb_map_extends_vocabulary(self):
        records = [
            record(reviewer="R1", comment="please revert this", at=0),
            record(reviewer="R2", comment="all good", at=60),
        ]
        trace_log = build_log(records, ByArtifact(), verb_map={"revert": "revert"})
        assert trace_log.log.traces[0].activities == (
            "revert:initiator",
            "review:responder",
        )

    def test_verb_map_first_sorted_keyword_wins(self):
        records = [record(comment="ab", at=0)]
        trace_log = build_log(records, ByArtifact(), verb_map={"b": "post", "a": "read"})
        assert trace_log.log.traces[0].activities[0] == "read:initiator"

    def test_metadata_carried(self):
        trace_log = build_log([record()], ByArtifact())
        assert trace_log.strategy == "artifact"
        assert trace_log.record_count == 1
        assert trace_log.window is None

    def test_strategy_labels(self):
        assert ByArtifact().label == "artifact"
        assert ByThread().label == "thread"
        assert ByTopic().label == "topic"
        assert ByCommit(timedelta(minutes=30)).label == "commit:1800s"
        with pytest.raises(ValueError, match="^commit session window must be non-negative$"):
            ByCommit(timedelta(seconds=-1))

    def test_every_record_becomes_one_event(self):
        rng = random.Random(11)
        records = random_records(rng, n_cases=30)
        trace_log = build_log(records, ByArtifact())
        assert sum(len(t.activities) for t in trace_log.log.traces) == len(records)

    def test_one_initiator_reviewer_per_case(self):
        rng = random.Random(12)
        records = random_records(rng, n_cases=40)
        trace_log = build_log(records, ByArtifact())
        oracle = expected_initiators(records, lambda r: r.artifact_id)
        for trace in trace_log.log.traces:
            initiators = {
                o for a, o in zip(trace.activities, trace.originators) if a.endswith(":initiator")
            }
            assert initiators == {oracle[trace.case_id]}

    def test_deterministic_output(self):
        rng = random.Random(13)
        records = random_records(rng, n_cases=20)
        first = serialize_csv_log(build_log(records, ByArtifact()).log)
        second = serialize_csv_log(build_log(list(records), ByArtifact()).log)
        assert first == second

    def test_output_feeds_the_miners(self):
        records = [record(reviewer="R1", at=0), record(reviewer="R2", at=60)]
        log = build_log(records, ByArtifact()).log
        assert parse_csv_log(serialize_csv_log(log)) == log
        footprint(log)  # accepted unchanged
        net, _ = alpha(log)
        assert net.transitions == {"review:initiator", "review:responder"}
        assert len(net.places) == 3


class TestTimeWindowFilter:
    def test_identity_window(self):
        records = [record(at=i) for i in range(5)]
        assert time_window_filter(records, T0, T0 + timedelta(seconds=10)) == records

    def test_empty_window(self):
        records = [record(at=i) for i in range(5)]
        assert time_window_filter(records, T0 + timedelta(days=1), T0 + timedelta(days=2)) == []

    def test_half_window_matches_linear_scan(self):
        rng = random.Random(14)
        records = random_records(rng, n_cases=20)
        start = T0 + timedelta(days=3)
        end = T0 + timedelta(days=40)
        got = time_window_filter(records, start, end)
        assert got == [r for r in records if start <= r.timestamp <= end]
        assert got != records  # window really bites for this seed

    def test_bounds_inclusive(self):
        records = [record(at=0), record(at=10)]
        assert time_window_filter(records, T0, T0 + timedelta(seconds=10)) == records

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ValueError):
            time_window_filter([], T0 + timedelta(seconds=1), T0)


class TestJsonl:
    def test_parse_round(self):
        lines = [
            json.dumps(
                {
                    "artifact_id": "X",
                    "submitter": "sam",
                    "reviewer": "r1",
                    "comment": "ok",
                    "timestamp": "2012-05-03T12:00:00Z",
                    "thread_id": "t1",
                }
            ),
            "",
            json.dumps(
                {
                    "artifact_id": "Y",
                    "submitter": "",
                    "reviewer": "r2",
                    "comment": "",
                    "timestamp": "2012-05-03T12:01:00Z",
                    "extra": "ignored",
                }
            ),
        ]
        records = parse_records_jsonl("\n".join(lines))
        assert len(records) == 2
        assert records[0].thread_id == "t1"
        assert records[1].topic is None
        assert records[1].submitter == ""

    @pytest.mark.parametrize(
        "line,lineno",
        [
            ("{broken", 1),
            ('["not", "an", "object"]', 1),
            ('{"artifact_id": "X"}', 1),
            ('{"artifact_id": "X", "submitter": "s", "reviewer": "r", "comment": 5, "timestamp": "2012-05-03T12:00:00Z"}', 1),
            ('{"artifact_id": "X", "submitter": "s", "reviewer": "r", "comment": "c", "timestamp": "yesterday"}', 1),
            ('{"artifact_id": "X", "submitter": "s", "reviewer": "", "comment": "c", "timestamp": "2012-05-03T12:00:00Z"}', 1),
            ('{"artifact_id": "X", "submitter": "s", "reviewer": "r", "comment": "c", "timestamp": "2012-5-3T12:0:0Z"}', 1),
            pytest.param("[" * 100_000, 1, id="deeply-nested"),
        ],
    )
    def test_errors_carry_line_numbers(self, line, lineno):
        with pytest.raises(RecordParseError) as err:
            parse_records_jsonl(line)
        assert err.value.line == lineno

    @pytest.mark.parametrize("separator", ["\u2028", "\u0085", "\u2029"])
    def test_unicode_line_separator_in_a_string_stays_in_its_record(self, separator):
        payload = {
            "artifact_id": "X",
            "submitter": "s",
            "reviewer": "r",
            "comment": f"one{separator}two",
            "timestamp": "2012-05-03T12:00:00Z",
        }
        good = json.dumps(payload)
        text = json.dumps(payload, ensure_ascii=False) + "\r\n" + good + "\r" + good + "\n{broken"
        with pytest.raises(RecordParseError) as err:
            parse_records_jsonl(text)
        assert err.value.line == 4
        records = parse_records_jsonl(text.rsplit("\n", 1)[0])
        assert [r.comment for r in records] == [f"one{separator}two"] * 3

    def test_error_on_later_line(self):
        good = '{"artifact_id": "X", "submitter": "s", "reviewer": "r", "comment": "c", "timestamp": "2012-05-03T12:00:00Z"}'
        with pytest.raises(RecordParseError) as err:
            parse_records_jsonl(good + "\n{broken\n")
        assert err.value.line == 2


class TestMetadataJson:
    def test_without_window(self):
        trace_log = build_log([record()], ByArtifact())
        assert json.loads(metadata_json(trace_log)) == {
            "strategy": "artifact",
            "window": None,
            "record_count": 1,
        }

    def test_with_window(self):
        window = (T0, T0 + timedelta(days=1))
        trace_log = build_log([record()], ByCommit(timedelta(hours=2)), window=window)
        assert json.loads(metadata_json(trace_log)) == {
            "strategy": "commit:7200s",
            "window": ["2012-05-03T12:00:00Z", "2012-05-04T12:00:00Z"],
            "record_count": 1,
        }

    def test_byte_stable(self):
        trace_log = build_log([record()], ByArtifact())
        assert metadata_json(trace_log) == metadata_json(trace_log)
