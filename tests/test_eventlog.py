from __future__ import annotations

import csv
import json
import sys
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import example, given, strategies as st

from trailnet.eventlog import (
    EventLog,
    LogError,
    LogParseError,
    Trace,
    _columns,
    format_timestamp,
    log_from_sequences,
    parse_csv_log,
    parse_timestamp,
    serialize_csv_log,
)
from trailnet.relations import footprint
from trailnet.reviews import RecordParseError, parse_records_jsonl

from .conftest import SAMPLE_CSV, SAMPLE_SEQUENCES

UTC = timezone.utc

# Text that survives the CSV round trip: anything printable, including
# separators and quotes, but no newlines or NULs.
_name = st.text(
    st.characters(blacklist_characters="\r\n\x00", blacklist_categories=("Cs",)),
    min_size=1,
    max_size=8,
)
# Names made of the characters that CSV has to quote, line breaks included.
_breaking_name = st.lists(
    st.sampled_from(["\r", "\n", "\r\n", '"', ",", "a", "b"]), min_size=1, max_size=5
).map("".join)
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
        traces.append(Trace(case_id, tuple(activities), tuple(originators), tuple(stamps)))
    return EventLog(tuple(traces))


def one_event(activity="a", originator=None, timestamp=None, case_id="c") -> Trace:
    return Trace(case_id, (activity,), (originator,), (timestamp,))


def unstamped(case_id, activities, originators=None) -> Trace:
    none = (None,) * len(activities)
    return Trace(case_id, tuple(activities), none if originators is None else tuple(originators), none)


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
        (stamp,) = one_event(timestamp=datetime(2020, 1, 1, 12, 0, 0, tzinfo=plus_two)).timestamps
        assert stamp == datetime(2020, 1, 1, 10, 0, 0, tzinfo=UTC)
        assert stamp.tzinfo is UTC
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

    @given(_fixed_width_stamps)
    @example("2012-02-29T23:59:59Z")
    @example("2011-02-29T00:00:00Z")
    @example("2012-05-03T24:00:00Z")
    def test_log_and_record_readers_decode_stamps_as_strptime_does(self, text):
        # The CSV reader's columns, the JSONL bulk regex (documented key order)
        # and the JSONL line reader (sorted keys) each decode a stamp.
        csv_text = f"case_id,activity,originator,timestamp\nc,A,,{text}\nc,B,,{text}\n"
        fields = {"artifact_id": "X", "submitter": "s", "reviewer": "r", "comment": "", "timestamp": text}
        documented = json.dumps(fields) + "\n"
        sorted_keys = json.dumps(fields, sort_keys=True, separators=(",", ":")) + "\n"
        try:
            expected = datetime.strptime(text, "%Y-%m-%dT%H:%M:%SZ").replace(tzinfo=UTC)
        except ValueError:
            with pytest.raises(LogParseError, match="^line 2: bad timestamp"):
                parse_csv_log(csv_text)
            for jsonl in (documented, sorted_keys):
                with pytest.raises(RecordParseError, match="^line 1: bad timestamp"):
                    parse_records_jsonl(jsonl)
        else:
            stamps = parse_csv_log(csv_text).traces[0].timestamps
            for jsonl in (documented, sorted_keys):
                stamps += tuple(record.timestamp for record in parse_records_jsonl(jsonl))
            assert stamps == (expected,) * 4
            assert all(stamp.tzinfo is UTC for stamp in stamps)

    def test_naive_datetimes_count_as_utc(self):
        trace = one_event(timestamp=datetime(2020, 1, 1, 12, 0, 0))
        assert trace.timestamps == (datetime(2020, 1, 1, 12, 0, 0, tzinfo=UTC),)

    def test_subsecond_precision_rejected(self):
        with pytest.raises(LogError, match="sub-second"):
            one_event(timestamp=datetime(2020, 1, 1, 12, 0, 0, 500, tzinfo=UTC))
        t0 = datetime(2020, 1, 1, tzinfo=UTC)
        with pytest.raises(LogError, match="sub-second"):
            Trace("c", ("a", "b"), (None, None), (t0, t0.replace(microsecond=1)))


class TestInvariants:
    def test_event_requires_case_and_activity(self):
        with pytest.raises(LogError, match="empty case_id"):
            one_event(case_id="")
        with pytest.raises(LogError, match="empty activity"):
            one_event("")
        with pytest.raises(LogError, match="empty activity"):
            unstamped("c", ("a", ""))

    def test_trace_requires_every_column(self):
        with pytest.raises(TypeError):
            Trace("c", ("a",))

    def test_columns_must_have_equal_lengths(self):
        t0 = datetime(2020, 1, 1, tzinfo=UTC)
        for activities, originators, stamps in [
            (("a", "b"), (None,), (None, None)),
            (("a",), (None,), (t0, t0)),
            ((), (), (None,)),
        ]:
            with pytest.raises(LogError, match="columns of unequal length"):
                Trace("c", activities, originators, stamps)

    def test_columns_are_stored_as_tuples(self):
        trace = Trace("c", ["a", "b"], iter(["x", ""]), [None, None])
        assert trace == unstamped("c", ("a", "b"), ("x", None))
        assert type(trace.activities) is type(trace.originators) is type(trace.timestamps) is tuple

    def test_empty_originator_normalizes_to_none(self):
        assert one_event(originator="").originators == (None,)

    def test_trace_must_be_non_empty(self):
        with pytest.raises(LogError, match="no events"):
            Trace("c", (), (), ())

    def test_trace_rejects_unsorted_timestamps(self):
        t0 = datetime(2020, 1, 1, tzinfo=UTC)
        with pytest.raises(LogError, match="not in timestamp order"):
            Trace("c", ("a", "b"), (None, None), (t0 + timedelta(60), t0))

    def test_trace_rejects_mixed_timestamp_presence(self):
        t0 = datetime(2020, 1, 1, tzinfo=UTC)
        with pytest.raises(LogError, match="mixes"):
            Trace("c", ("a", "b"), (None, None), (t0, None))
        with pytest.raises(LogError, match="mixes"):
            Trace("c", ("a", "b"), (None, None), (None, t0))

    def test_trace_reports_first_violation_along_the_sequence(self):
        t0 = datetime(2020, 1, 1, tzinfo=UTC)
        stamps = (t0, None, t0 - timedelta(60))
        with pytest.raises(LogError, match="mixes"):
            Trace("c", ("a", "b", "x"), (None,) * 3, stamps)
        stamps = (t0, t0 - timedelta(60), None)
        with pytest.raises(LogError, match="not in timestamp order"):
            Trace("c", ("a", "b", "x"), (None,) * 3, stamps)
        with pytest.raises(LogError, match="empty activity"):
            Trace("c", ("a", "", "x"), (None,) * 3, stamps)

    def test_log_rejects_duplicate_case_ids(self):
        trace = one_event()
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
        assert sum(len(t.activities) for t in log.traces) == 11

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

    @pytest.mark.parametrize("first", ["A", '"A"'], ids=["quote-free", "quoted"])
    def test_field_of_the_size_limit_parses(self, first):
        text = f"case_id,activity,originator,timestamp\n1,{first},,\n1,{'x' * 131_072},,\n"
        assert parse_csv_log(text).traces[0].activities == ("A", "x" * 131_072)
        with pytest.raises(LogParseError, match="field larger than field limit") as err:
            parse_csv_log(text.replace("x,", "xx,"))
        assert err.value.line == 3

    @pytest.fixture
    def field_size_limit(self):
        default = csv.field_size_limit()
        yield csv.field_size_limit
        csv.field_size_limit(default)

    @pytest.mark.parametrize("first", ["A", '"A"'], ids=["quote-free", "quoted"])
    def test_lowered_field_size_limit_is_honoured(self, field_size_limit, first):
        """The limit is read at each call; "originator" is 10 characters."""
        field_size_limit(10)
        text = f"case_id,activity,originator,timestamp\n1,{first},,\n1,abcdefghij,,\n"
        assert parse_csv_log(text).traces[0].activities == ("A", "abcdefghij")
        with pytest.raises(LogParseError, match=r"field larger than field limit \(10\)") as err:
            parse_csv_log(text.replace("j,", "jk,"))
        assert err.value.line == 3
        field_size_limit(9)
        with pytest.raises(LogParseError) as err:
            parse_csv_log(text)
        assert err.value.line == 1

    def test_a_line_over_a_lowered_limit_is_read_in_bulk(self, field_size_limit):
        """Every line is longer than the limit, but no field is, so the bulk
        tokenizer still reads the text."""
        field_size_limit(10)
        text = "case_id,activity,originator,timestamp\n1,abcdefghij,,\n"
        assert _columns(text) is not None
        assert parse_csv_log(text).traces[0].activities == ("abcdefghij",)

    @pytest.mark.parametrize("first", ["A", '"A"'], ids=["quote-free", "quoted"])
    def test_nul_is_read_as_the_csv_module_reads_it(self, first):
        """A NUL is a parse error before Python 3.11 and a character after."""
        text = f"case_id,activity,originator,timestamp\n1,{first},,\n1,A\0B,,\n"
        if sys.version_info < (3, 11):
            with pytest.raises(LogParseError, match="line contains NUL") as err:
                parse_csv_log(text)
            assert err.value.line == 3
        else:
            assert parse_csv_log(text).traces[0].activities == ("A", "A\0B")

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
        log = EventLog((one_event('say "hi", then', originator="a b", case_id="c,1"),))
        assert parse_csv_log(serialize_csv_log(log)) == log

    @pytest.mark.parametrize("year", [1, 999])
    def test_early_years_round_trip(self, year):
        log = EventLog((one_event(timestamp=datetime(year, 6, 7, 8, 9, 10, tzinfo=UTC)),))
        text = serialize_csv_log(log)
        assert f"{year:04d}-06-07T08:09:10Z" in text
        assert parse_csv_log(text) == log

    @given(_utc_seconds)
    def test_stamps_are_written_as_format_timestamp_writes_them(self, instant):
        text = serialize_csv_log(EventLog((one_event(timestamp=instant),)))
        assert text == f"case_id,activity,originator,timestamp\nc,a,,{format_timestamp(instant)}\n"

    @given(event_logs())
    def test_round_trip_identity(self, log):
        text = serialize_csv_log(log)
        assert parse_csv_log(text) == log
        assert serialize_csv_log(parse_csv_log(text)) == text

    @given(
        st.lists(_breaking_name, min_size=1, max_size=4, unique=True),
        st.lists(st.tuples(_breaking_name, st.none() | _breaking_name), min_size=1, max_size=4),
    )
    @example(["c"], [("a", "x\ry")])
    def test_line_breaks_and_quotes_round_trip(self, case_ids, events):
        activities, originators = zip(*events)
        log = EventLog(tuple(unstamped(c, activities, originators) for c in case_ids))
        text = serialize_csv_log(log)
        assert parse_csv_log(text) == log
        assert serialize_csv_log(parse_csv_log(text)) == text

    def test_carriage_return_is_quoted(self):
        log = EventLog((one_event("a\rb"),))
        assert serialize_csv_log(log) == 'case_id,activity,originator,timestamp\nc,"a\rb",,\n'


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
        assert log.alphabet == frozenset(a for t in log.traces for a in t.activities)
