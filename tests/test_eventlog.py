from __future__ import annotations

from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, strategies as st

from trailnet.eventlog import (
    Event,
    EventLog,
    LogError,
    LogParseError,
    Trace,
    format_timestamp,
    log_from_sequences,
    parse_csv_log,
    parse_timestamp,
    serialize_csv_log,
)
from trailnet.relations import footprint

from .conftest import SAMPLE_CSV, SAMPLE_SEQUENCES

UTC = timezone.utc

# Text that survives the CSV round trip: anything printable, including
# separators and quotes, but no newlines or NULs.
_name = st.text(
    st.characters(blacklist_characters="\r\n\x00", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=8,
)
_instant = st.integers(0, 2**31).map(lambda s: datetime.fromtimestamp(s, tz=UTC))


@st.composite
def event_logs(draw):
    traces = []
    for i in range(draw(st.integers(0, 5))):
        case_id = f"case{i}"
        length = draw(st.integers(1, 6))
        activities = draw(st.lists(_name, min_size=length, max_size=length))
        originators = draw(
            st.lists(st.one_of(st.none(), _name), min_size=length, max_size=length)
        )
        if draw(st.booleans()):
            stamps = sorted(draw(st.lists(_instant, min_size=length, max_size=length)))
        else:
            stamps = [None] * length
        traces.append(
            Trace(
                case_id,
                tuple(
                    Event(a, originator=o, timestamp=ts)
                    for a, o, ts in zip(activities, originators, stamps)
                ),
            )
        )
    return EventLog(tuple(traces))


# Fixed-width timestamp text: every field zero-padded ASCII digits, drawn
# either within one past its valid range or anywhere in its width.
def _stamps(*highs):
    fields = [
        st.integers(0, high).map(lambda n, width=width: str(n).zfill(width))
        for high, width in zip(highs, (4, 2, 2, 2, 2, 2))
    ]
    return st.tuples(*fields).map(lambda f: "%s-%s-%sT%s:%s:%sZ" % f)


_fixed_width_stamps = st.one_of(_stamps(9999, 13, 32, 24, 60, 60), _stamps(9999, 99, 99, 99, 99, 99))
_utc_seconds = st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59, 59)).map(
    lambda d: d.replace(microsecond=0, tzinfo=UTC)
)


class TestTimestamps:
    def test_parse_and_format_round_trip(self):
        assert format_timestamp(parse_timestamp("2012-05-03T10:20:30Z")) == "2012-05-03T10:20:30Z"

    def test_parse_rejects_other_shapes(self):
        for bad in [
            "2012-05-03 10:20:30",
            "2012-05-03T10:20:30",
            "2012-05-03T10:20:30+02:00",
            "nope",
            "2012-5-3T8:0:0Z",  # fields not zero-padded
            "999-01-01T00:00:00Z",  # three-digit year
            "2012-05- 3T10:20:30Z",  # space-padded day
            "2012-05-03t10:20:30z",  # lower-case separators
            "٢٠١٢-٠٥-٠٣T١٠:٢٠:٣٠Z",  # Arabic-Indic digits
            "２０１２-05-03T10:20:30Z",  # full-width digits
            "2012-05-03T10:20:30Z\n",
            "2012-13-03T10:20:30Z",  # month out of range
            "2011-02-29T10:20:30Z",  # not a leap year
            "2012-05-03T10:20:60Z",  # leap second
        ]:
            with pytest.raises(LogError):
                parse_timestamp(bad)

    def test_aware_datetimes_convert_to_utc(self):
        plus_two = timezone(timedelta(hours=2))
        event = Event("a", timestamp=datetime(2020, 1, 1, 12, 0, 0, tzinfo=plus_two))
        assert event.timestamp == datetime(2020, 1, 1, 10, 0, 0, tzinfo=UTC)
        assert event.timestamp.tzinfo is UTC
        assert format_timestamp(datetime(2020, 1, 1, 1, 0, 0, tzinfo=plus_two)) == "2019-12-31T23:00:00Z"

    @given(_utc_seconds)
    def test_format_then_parse_is_identity(self, instant):
        text = format_timestamp(instant)
        assert len(text) == 20
        assert parse_timestamp(text) == instant
        assert parse_timestamp(text).tzinfo is UTC

    @given(_fixed_width_stamps)
    @example("2012-02-29T23:59:59Z")
    @example("2011-02-29T00:00:00Z")
    @example("2012-04-31T00:00:00Z")
    @example("2012-05-03T24:00:00Z")
    @example("0000-01-01T00:00:00Z")
    def test_parse_agrees_with_strptime(self, text):
        try:
            expected = datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=UTC)
        except ValueError:
            with pytest.raises(LogError):
                parse_timestamp(text)
        else:
            assert parse_timestamp(text) == expected

    def test_naive_datetimes_count_as_utc(self):
        event = Event("a", timestamp=datetime(2020, 1, 1, 12, 0, 0))
        assert event.timestamp == datetime(2020, 1, 1, 12, 0, 0, tzinfo=UTC)

    def test_subsecond_precision_rejected(self):
        with pytest.raises(LogError):
            Event("a", timestamp=datetime(2020, 1, 1, 12, 0, 0, 500, tzinfo=UTC))


class TestInvariants:
    def test_event_requires_case_and_activity(self):
        with pytest.raises(LogError):
            Trace("", (Event("a"),))
        with pytest.raises(LogError):
            Event("")

    def test_event_takes_only_its_activity_positionally(self):
        with pytest.raises(TypeError):
            Event("c", "a")

    def test_empty_originator_normalizes_to_none(self):
        assert Event("a", originator="").originator is None

    def test_trace_must_be_non_empty(self):
        with pytest.raises(LogError):
            Trace("c", ())

    def test_trace_rejects_unsorted_timestamps(self):
        t0 = datetime(2020, 1, 1, tzinfo=UTC)
        events = (Event("a", timestamp=t0 + timedelta(60)), Event("b", timestamp=t0))
        with pytest.raises(LogError):
            Trace("c", events)

    def test_trace_rejects_mixed_timestamp_presence(self):
        events = (Event("a", timestamp=datetime(2020, 1, 1, tzinfo=UTC)), Event("b"))
        with pytest.raises(LogError):
            Trace("c", events)

    def test_trace_reports_first_violation_along_the_sequence(self):
        t0 = datetime(2020, 1, 1, tzinfo=UTC)
        events = (Event("a", timestamp=t0), Event("b"), Event("x", timestamp=t0 - timedelta(60)))
        with pytest.raises(LogError, match="mixes"):
            Trace("c", events)

    def test_log_rejects_duplicate_case_ids(self):
        trace = Trace("c", (Event("a"),))
        with pytest.raises(LogError):
            EventLog((trace, trace))

    def test_empty_sequence_rejected(self):
        with pytest.raises(LogError):
            log_from_sequences([""])


class TestParse:
    def test_grouping_is_forced(self):
        log = parse_csv_log("case_id,activity,originator,timestamp\n1,A,,\n1,B,,\n2,A,,\n")
        assert [t.activities for t in log.traces] == [("A", "B"), ("A",)]

    def test_sample_csv_parses_to_sample_sequences(self):
        log = parse_csv_log(SAMPLE_CSV)
        assert [t.activities for t in log.traces] == [tuple(s) for s in SAMPLE_SEQUENCES]

    def test_non_contiguous_cases_group_by_id(self):
        text = "case_id,activity,originator,timestamp\n1,A,,\n2,X,,\n1,B,,\n"
        assert [t.activities for t in parse_csv_log(text).traces] == [("A", "B"), ("X",)]

    def test_timestamps_reorder_events(self):
        text = (
            "case_id,activity,originator,timestamp\n"
            "1,B,,2020-01-01T00:01:00Z\n"
            "1,A,,2020-01-01T00:00:00Z\n"
        )
        assert [t.activities for t in parse_csv_log(text).traces] == [("A", "B")]

    def test_timestamp_ties_keep_file_order(self):
        text = (
            "case_id,activity,originator,timestamp\n"
            "1,X,,2020-01-01T00:00:00Z\n"
            "1,Y,,2020-01-01T00:00:00Z\n"
        )
        assert [t.activities for t in parse_csv_log(text).traces] == [("X", "Y")]

    def test_crlf_line_endings_accepted(self):
        text = "case_id,activity,originator,timestamp\r\n1,A,,\r\n"
        assert [t.activities for t in parse_csv_log(text).traces] == [("A",)]

    def test_file_like_source_accepted(self, tmp_path):
        path = tmp_path / "log.csv"
        path.write_text(SAMPLE_CSV, encoding="utf-8")
        with path.open(encoding="utf-8") as handle:
            assert len(parse_csv_log(handle).traces) == 3

    def test_header_required(self):
        with pytest.raises(LogParseError):
            parse_csv_log("")
        with pytest.raises(LogParseError):
            parse_csv_log("case,act\n1,A\n")

    def test_no_event_loss(self):
        log = parse_csv_log(SAMPLE_CSV)
        assert sum(len(t.events) for t in log.traces) == 11

    @pytest.mark.parametrize(
        "row,line",
        [
            ("1,A,extra,field,oops", 2),
            (",A,,", 2),
            ("1,,,", 2),
            ("1,A,,not-a-time", 2),
            ("1,A,,2012-5-3T8:0:0Z", 2),
            pytest.param("1,A,,\n1," + "x" * 131_073 + ",,", 3, id="overlong-field"),
        ],
    )
    def test_bad_rows_report_line_numbers(self, row, line):
        with pytest.raises(LogParseError) as err:
            parse_csv_log(f"case_id,activity,originator,timestamp\n{row}\n")
        assert err.value.line == line

    def test_mixed_timestamp_presence_in_case_rejected(self):
        text = (
            "case_id,activity,originator,timestamp\n"
            "1,A,,2020-01-01T00:00:00Z\n"
            "1,B,,\n"
        )
        with pytest.raises(LogParseError) as err:
            parse_csv_log(text)
        assert err.value.line == 3


class TestSerialize:
    def test_header_and_newlines(self):
        log = log_from_sequences(["AB"])
        text = serialize_csv_log(log)
        assert text.startswith("case_id,activity,originator,timestamp\n")
        assert "\r" not in text

    def test_fields_with_separators_round_trip(self):
        event = Event('say "hi", then', originator="a b", timestamp=None)
        log = EventLog((Trace("c,1", (event,)),))
        assert parse_csv_log(serialize_csv_log(log)) == log

    @pytest.mark.parametrize("year", [1, 999])
    def test_early_years_round_trip(self, year):
        event = Event("a", timestamp=datetime(year, 6, 7, 8, 9, 10, tzinfo=UTC))
        log = EventLog((Trace("c", (event,)),))
        text = serialize_csv_log(log)
        assert f"{year:04d}-06-07T08:09:10Z" in text
        assert parse_csv_log(text) == log

    @given(event_logs())
    def test_round_trip_identity(self, log):
        text = serialize_csv_log(log)
        assert parse_csv_log(text) == log
        assert serialize_csv_log(parse_csv_log(text)) == text


class TestViews:
    def test_variants_sample(self, sample_log):
        assert sample_log.variants == {
            ("A", "B", "C", "D"): 1,
            ("A", "C", "B", "D"): 1,
            ("A", "E", "D"): 1,
        }

    def test_variants_empty_log(self):
        assert EventLog(()).variants == {}

    def test_variants_count_duplicates(self):
        log = log_from_sequences(["AB", "AB"])
        assert log.variants == {("A", "B"): 2}

    def test_variants_computed_once_per_log(self, sample_log):
        assert sample_log.variants is sample_log.variants

    def test_variants_are_read_only(self):
        log = log_from_sequences(["AB"])
        with pytest.raises(TypeError):
            log.variants[("Z", "Q")] += 1
        assert log.variants[("Z", "Q")] == 0
        assert log.alphabet == frozenset("AB")
        assert footprint(log).succession == {("A", "B")}

    @given(event_logs())
    def test_variants_cover_every_trace(self, log):
        assert sum(log.variants.values()) == len(log)
        assert set(log.variants) == {t.activities for t in log.traces}

    def test_alphabet_sample(self, sample_log):
        assert sample_log.alphabet == frozenset("ABCDE")

    def test_alphabet_empty_log(self):
        assert EventLog(()).alphabet == frozenset()

    def test_alphabet_computed_once_per_log(self, sample_log):
        assert sample_log.alphabet is sample_log.alphabet

    def test_alphabet_collapses_duplicates(self):
        assert log_from_sequences(["AA"]).alphabet == frozenset("A")

    @given(event_logs())
    def test_alphabet_matches_trace_union(self, log):
        assert log.alphabet == frozenset(e.activity for t in log.traces for e in t.events)
