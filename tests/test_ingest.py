"""Ingest against its reference: the CSV and JSONL parsers and ``build_log``
return what the plainer implementations in ``tests/oracles.py`` return, or
fail with the same error, and every object they build equals the one the
public constructor builds from the same fields."""

from __future__ import annotations

import json
import random
from datetime import datetime, timedelta, timezone
from itertools import groupby
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from trailnet import eventlog, reviews
from trailnet.eventlog import (
    EventLog,
    Trace,
    _columns,
    _log,
    _rows,
    format_timestamp,
    log_from_sequences,
    parse_csv_log,
    serialize_csv_log,
)
from trailnet.reviews import (
    ByArtifact,
    ByCommit,
    ByThread,
    ByTopic,
    RecordError,
    RecordParseError,
    ReviewRecord,
    build_log,
    metadata_json,
    parse_records_jsonl,
)

from .oracles import (
    reference_build_log,
    reference_parse_csv_log,
    reference_parse_records_jsonl,
    reference_serialize_csv_log,
)
from .reviewgen import random_records
from .test_cli import _CSV_TEXT, _JSON, _RECORDS_TEXT, _lines

UTC = timezone.utc
HEADER = "case_id,activity,originator,timestamp"

_GOOD_STAMPS = ["2012-05-03T12:00:00Z", "2012-05-03T11:00:00Z", "2012-02-29T23:59:59Z"]
# Stamps of the wrong shape, then stamps of the right shape with a field
# out of range.
_BAD_STAMPS = [
    "2012-5-3T8:0:0Z",
    " 2012-05-03T12:00:00Z",
    "2012-05-03T12:00:00+00:00",
    "2012-13-03T12:00:00Z",
    "2011-02-29T00:00:00Z",
    "2012-05-03T24:00:00Z",
    "0000-01-01T00:00:00Z",
]


def _csv_cell(cell: str) -> str:
    return '"%s"' % cell.replace('"', '""') if '"' in cell or "," in cell else cell


@st.composite
def _row(draw, case_id, stamps):
    """A log CSV row of case ``case_id`` stamped from ``stamps``; one row in
    twenty-four has a flaw: an empty key, a stamp that is bad or breaks the
    case's stamping, an extra field, a field that must be quoted, or a NUL."""
    row = [
        case_id,
        draw(st.sampled_from(["A", "B", "C"])),
        draw(st.sampled_from(["", "u", "v"])),
        draw(st.sampled_from(stamps)),
    ]
    if draw(st.integers(0, 23)) == 0:
        flaw = draw(st.sampled_from(["case_id", "activity", "stamp", "stamp", "stamp", "extra", "quote", "quote", "nul"]))
        if flaw == "extra":
            row.append("extra")
        elif flaw == "stamp":
            row[3] = draw(st.sampled_from(["", _GOOD_STAMPS[0]] * 3 + _BAD_STAMPS))
        elif flaw == "quote":
            row[1] = draw(st.sampled_from(['q"', "x,y"]))
        elif flaw == "nul":
            row[1] += "\0"
        else:
            row[0 if flaw == "case_id" else 1] = ""
    return ",".join(_csv_cell(c) for c in row)


@st.composite
def _csv_texts(draw, shuffled=False):
    """Log CSV, most of it valid and quote-free: a header (sometimes after a
    BOM, or wrong), then stamped or unstamped cases whose rows are adjacent
    or, now and then or when ``shuffled``, shuffled across cases. Stamps are
    drawn per row, so they come unsorted and with ties. Rows sometimes have
    a flaw, and the text sometimes holds an arbitrary line, ends in
    ``\\r\\n`` or has no final line end."""
    header = draw(st.sampled_from([HEADER] * 20 + ["\ufeff" + HEADER, " " + HEADER, "case_id,activity"]))
    stamps = draw(st.sampled_from([[""], _GOOD_STAMPS]))
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
    rows = [draw(_row(str(case), stamps)) for case, size in enumerate(sizes, 1) for _ in range(size)]
    if shuffled or draw(st.integers(0, 5)) == 0:
        rows = draw(st.permutations(rows))
    if draw(st.integers(0, 11)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(st.text(max_size=8)))
    text = "\n".join([header, *rows])
    if draw(st.integers(0, 11)) == 0:
        text = text.replace("\n", "\r\n")
    return text + draw(st.sampled_from(["\n", "\n", "\n", ""]))


# String values that json.dumps writes with an escape (a quote, a backslash,
# a control character, or any non-ASCII character by default), raw under
# ensure_ascii=False (non-ASCII, U+2028), or, for \x7f, as they are.
_SPECIAL = ['say "hi"', "a\nb", "back\\slash", "tab\t", "caf\u00e9", "x\u2028y", "del\x7f"]


def _value(*plain):
    """A field value: one of ``plain`` about nine times in ten, else one of :data:`_SPECIAL`."""
    return st.sampled_from([*plain] * (len(_SPECIAL) * 9 // len(plain)) + _SPECIAL)


@st.composite
def _jsonl_line(draw):
    """One record line. Most are written as json.dumps writes a record with
    the documented key order, the layout read in bulk; the rest have the keys
    sorted, compact separators, raw non-ASCII text, an extra key or a
    duplicate key. One line in six has a flaw: an empty or bad field, a field
    of another JSON type, a missing field, text before or after the object,
    a raw control character in a string, or no text at all."""
    record = {
        "artifact_id": draw(_value("X", "Y")),
        "submitter": draw(_value("sam", "kim", "")),
        "reviewer": draw(_value("r1", "r2")),
        "comment": draw(_value("ok", "revert this", "")),
        "timestamp": draw(st.sampled_from(_GOOD_STAMPS)),
    }
    optional = {"thread_id": _value("t1", "", None), "topic": _value("x", "", None)}
    for key in draw(st.permutations(sorted(optional))):  # absent, or in either order
        if draw(st.booleans()):
            record[key] = draw(optional[key])
    flaw = draw(st.integers(0, 47))
    if flaw == 0:
        record[draw(st.sampled_from(["artifact_id", "reviewer"]))] = ""
    elif flaw == 1:
        record["timestamp"] = draw(st.sampled_from(_BAD_STAMPS))
    elif flaw == 2:
        record[draw(st.sampled_from(sorted(record)))] = draw(_JSON)
    elif flaw == 3:
        del record[draw(st.sampled_from(sorted(record)))]
    elif flaw == 6:
        record["extra"] = draw(st.sampled_from([1, "x", None]))
    layout = draw(st.sampled_from(["dumps"] * 9 + ["raw", "sorted", "compact"]))
    line = json.dumps(
        record,
        ensure_ascii=layout != "raw",
        sort_keys=layout == "sorted",
        separators=(",", ":") if layout == "compact" else None,
    )
    if flaw == 4:
        line = draw(st.sampled_from([" ", "\t", "\ufeff", "\x0c"])) + line
    elif flaw == 5:
        line += draw(st.sampled_from([" ", "\t ", " x", "}", ",{}", "{}", "\x0c", "\u2028"]))
    elif flaw == 7:  # json.loads keeps a duplicate key's last value
        key = draw(st.sampled_from(sorted(record)))
        value = draw(st.sampled_from(["", "2012-02-29T23:59:59Z", "Z", None]))
        line = "%s, %s: %s}" % (line[:-1], json.dumps(key), json.dumps(value))
    elif flaw == 8:
        line = draw(st.sampled_from(["", " ", "\t"]))
    elif flaw == 9:  # json.loads rejects a raw control character in a string
        line = line.replace('"X"', '"X\x1f"').replace('"Y"', '"\tY"')
    return line


@st.composite
def _jsonl_text(draw):
    """Record lines ending at ``\\n``, ``\\r\\n`` or ``\\r``, the last one sometimes with no line end."""
    text = draw(_lines(_jsonl_line())) + draw(st.sampled_from(["\n", "\n", ""]))
    return text.replace("\n", draw(st.sampled_from(["\n"] * 4 + ["\r\n", "\r"])))


_JSONL_TEXT = _jsonl_text()
# A record line as json.dumps writes it in the documented layout.
_DOCUMENTED = json.dumps(
    {"artifact_id": "X", "submitter": "sam", "reviewer": "r1", "comment": "ok", "timestamp": "2012-05-03T12:00:00Z"}
)
# The same record with its keys sorted, a layout the regex leaves to the json module.
_SORTED = json.dumps(json.loads(_DOCUMENTED), sort_keys=True)


def _outcome(parse, *args):
    """What a call returns, or the type, message and line of the error it raises."""
    try:
        return parse(*args)
    except ValueError as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


def _bulk(text):
    """The log that the bulk tokenizer and the builder make of ``text``, past its
    leading BOMs as ``parse_csv_log`` skips them, or None."""
    columns = _columns(text.lstrip("\ufeff"))
    return None if columns is None else _log(columns)


class _CsvModuleCalled(Exception):
    pass


def _refuse(rows):
    raise _CsvModuleCalled


def _bulk_text(log):
    """The text ``serialize_csv_log`` writes for ``log`` by columns alone,
    or None when it would hand the rows to the csv module."""
    with mock.patch.object(eventlog, "_csv_text", _refuse):
        try:
            return serialize_csv_log(log)
        except _CsvModuleCalled:
            return None


def _assert_same_log(log, text):
    """``log`` is the reference's log of ``text``, down to each value's type."""
    expected = reference_parse_csv_log(text)
    assert log == expected
    assert repr(log) == repr(expected)


def _assert_built_as_public(log):
    assert type(log.traces) is tuple and EventLog(log.traces) == log
    for trace in log.traces:
        assert Trace(trace.case_id, trace.activities, trace.originators, trace.timestamps) == trace
        columns = (trace.activities, trace.originators, trace.timestamps)
        assert all(type(column) is tuple for column in columns)
        assert all(t is None or t.tzinfo is UTC for t in trace.timestamps)


class TestParseCsvLog:
    @settings(max_examples=300)
    @given(st.one_of(_CSV_TEXT, _csv_texts(), _csv_texts(shuffled=True), st.text(max_size=40)))
    @example(HEADER + "\n1,A,,2012-05-03T12:00:00Z\n1,B,,\n1,C,,2012-13-03T12:00:00Z\n")
    @example(HEADER + "\n1,A,,\n2,B,,2012-05-03T12:00:00Z\n1,C,,2012-05-03T12:00:00Z\n")
    @example("\ufeff" + HEADER + "\n1,B,,2012-05-03T12:00:01Z\n1,A,,2012-05-03T12:00:00Z\n")
    def test_matches_reference(self, text):
        assert _outcome(parse_csv_log, text) == _outcome(reference_parse_csv_log, text)

    @given(st.one_of(_CSV_TEXT, _csv_texts(), st.text(max_size=40)))
    def test_builds_what_the_public_constructors_build(self, text):
        result = _outcome(parse_csv_log, text)
        if not isinstance(result, tuple):
            _assert_built_as_public(result)

    @settings(max_examples=300)
    @given(_csv_texts())
    @example(HEADER + "\n1,A,u,")
    @example("\ufeff" + HEADER + "\n1,B,,\n1,A,,\n2,A,v,\n")
    @example(HEADER + "\n1,B,,2012-05-03T12:00:01Z\n1,A,,2012-05-03T12:00:00Z\n1,C,u,2012-05-03T12:00:00Z\n")
    @example(HEADER + "\n1,A,,2012-05-03T12:00:01Z\n2,B,,2012-05-03T12:00:00Z\n2,C,,2012-05-03T12:00:00Z\n")
    @example(HEADER + "\n1,A,,\n2,B,u,\n1,C,,\n3,D,,\n2,E,,\n")
    def test_columnar_path_matches_reference_or_declines(self, text):
        log = _bulk(text)
        if log is not None:
            _assert_same_log(log, text)

    @settings(max_examples=300)
    @given(st.one_of(_csv_texts(), _csv_texts(shuffled=True)))
    @example(HEADER + "\n1,A,u,\n2,B,,\n1,C,v,\n")
    @example(HEADER + "\n1,B,,2012-05-03T12:00:01Z\n2,A,,2012-05-03T12:00:00Z\n1,A,,2012-05-03T12:00:00Z\n")
    def test_tokenizers_agree(self, text):
        """Whenever the bulk tokenizer accepts a text, it gives the columns
        that the csv module's row tokenizer gives. Both read the text past
        its leading BOMs, as ``parse_csv_log`` hands it to them."""
        text = text.lstrip("\ufeff")
        columns = _columns(text)
        if columns is not None:
            rows = _rows(text)
            assert [c if c is None else list(c) for c in columns] == [c if c is None else list(c) for c in rows]

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(HEADER + '\n1,"A",,\n', id="quote"),
            pytest.param(HEADER + "\r\n1,A,,\r\n", id="carriage-return"),
            pytest.param(HEADER + "\n1,A\0B,,\n", id="nul"),
            pytest.param(" " + HEADER + "\n1,A,,\n", id="bad-header"),
            pytest.param("", id="empty"),
            pytest.param(HEADER + "\n", id="no-rows"),
            pytest.param(HEADER + "\n1,A,,\n\n1,B,,\n", id="blank-line"),
            pytest.param(HEADER + "\n1,A,,,\n", id="extra-field"),
            pytest.param(HEADER + "\n1,A,\n", id="missing-field"),
            pytest.param(HEADER + "\n1,A,x\n1,B,y,,\n", id="misaligned-rows"),
            pytest.param(HEADER + "\n1,A,,\n1," + "x" * 131_073 + ",,\n", id="overlong-field"),
            pytest.param(HEADER + "\n1,A,,\n" + "x" * 131_073 + ",B,,\n", id="overlong-case-id"),
            pytest.param(HEADER + "\n1,A,,\n1,B," + "x" * 131_073 + ",\n", id="overlong-originator"),
            pytest.param(HEADER + "\n,A,,\n", id="empty-case-id"),
            pytest.param(HEADER + "\n1,,,\n", id="empty-activity"),
            pytest.param(HEADER + "\n1,A,,2012-05-03T12:00:00Z\n2,B,,\n", id="mixed-stamps"),
            pytest.param(HEADER + "\n1,A,,\n2,B,,2012-05-03T12:00:00Z\n", id="mixed-stamps-unstamped-first"),
            pytest.param(HEADER + "\n1,A,,2012-5-3T8:0:0Z\n", id="stamp-shape"),
            pytest.param(HEADER + "\n1,A,,2012-02-30T12:00:00Z\n", id="stamp-out-of-range"),
        ],
    )
    def test_columnar_path_declines(self, text):
        """Text outside the columnar path's domain goes to the row tokenizer,
        which gives the reference's result or error."""
        assert _columns(text) is None
        assert _outcome(parse_csv_log, text) == _outcome(reference_parse_csv_log, text)

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param(HEADER + "\n1,A,,\n2,B,,\n1,C,,\n", id="case-rows-apart"),
            pytest.param(
                HEADER + "\n1,B,,2012-05-03T12:00:01Z\n2,C,,2012-05-03T11:00:00Z\n1,A,u,2012-05-03T12:00:00Z\n",
                id="case-rows-apart-and-unsorted",
            ),
            pytest.param(HEADER + "\n1,A,,\n2,B,u,\n1,C,v,", id="case-rows-apart-no-final-line-end"),
        ],
    )
    def test_columnar_path_accepts(self, text):
        """A log whose cases' rows are apart is read in bulk and regrouped."""
        log = _bulk(text)
        assert log is not None
        _assert_same_log(log, text)

    @pytest.mark.parametrize(
        "built, bom",
        [
            (build_log(random_records(random.Random(1)), ByArtifact()).log, ""),
            (log_from_sequences(["AB", "BA", "ABC"] * 20), ""),
            (build_log(random_records(random.Random(1)), ByArtifact()).log, "\ufeff"),
        ],
        ids=["review-log", "unstamped", "bom-review-log"],
    )
    def test_a_written_log_takes_the_columnar_path(self, built, bom):
        """A log as ``build-log`` and ``export`` write it, after a BOM or not,
        is written and read in bulk, so a silent fall back to the csv module
        cannot pass. The log read holds one string per distinct activity or
        originator name, however many events carry it."""
        text = _bulk_text(built)
        assert text == reference_serialize_csv_log(built)
        text = bom + text
        log = _bulk(text)
        assert log is not None
        _assert_same_log(log, text)
        activities = [a for trace in log.traces for a in trace.activities]
        originators = [o for trace in log.traces for o in trace.originators if o is not None]
        assert len(set(map(id, activities))) == len(log.alphabet)
        assert len(set(map(id, originators))) == len(set(originators))
        with mock.patch.object(eventlog, "_rows", _refuse):
            assert parse_csv_log(text) == log

    @pytest.mark.parametrize(
        "text",
        [HEADER + "\n1,B,u,2012-05-03T12:00:01Z\n1,A,,2012-05-03T12:00:00Z\n", HEADER + '\n1,"B",u,\n'],
        ids=["bulk", "rows"],
    )
    def test_any_number_of_leading_boms_is_skipped(self, text):
        log = parse_csv_log(text)
        assert parse_csv_log("\ufeff" + text) == log
        assert parse_csv_log("\ufeff\ufeff\ufeff" + text) == log

    def test_columnar_path_sorts_cases_stably(self):
        """Cases come in file order, and a case's rows are sorted by stamp,
        ties in file order."""
        text = (
            HEADER + "\n"
            "1,B,u,2012-05-03T12:00:01Z\n"
            "1,A,,2012-05-03T12:00:00Z\n"
            "1,C,v,2012-05-03T12:00:00Z\n"
            "2,D,,2012-05-03T11:00:00Z\n"
            "2,F,,2012-05-03T11:00:00Z\n"
            "3,E,,2012-05-03T10:00:00Z\n"
        )
        log = _bulk(text)
        assert log is not None
        assert [(t.case_id, t.activities, t.originators) for t in log.traces] == [
            ("1", ("A", "C", "B"), (None, "v", "u")),
            ("2", ("D", "F"), (None, None)),
            ("3", ("E",), (None,)),
        ]
        _assert_same_log(log, text)

    def test_a_log_ordered_by_time_is_read_in_bulk(self):
        """A log whose rows are ordered by time across cases, so that a
        case's rows are apart, is read in bulk and regrouped."""
        built = build_log(random_records(random.Random(1)), ByArtifact()).log
        rows = serialize_csv_log(built).splitlines()[1:]
        text = "\n".join([HEADER, *sorted(rows, key=lambda row: row.rsplit(",", 1)[1])]) + "\n"
        case_ids = [row.split(",", 1)[0] for row in text.splitlines()[1:]]
        assert len(list(groupby(case_ids))) > len(set(case_ids))  # some case's rows are apart
        log = _bulk(text)
        assert log is not None
        _assert_same_log(log, text)
        assert sorted(log.traces, key=repr) == sorted(built.traces, key=repr)


# Names with every character the csv module quotes or, before Python 3.11,
# rejects, and a line separator that it writes as it is; and names with none.
_ANY_NAME = st.text(st.sampled_from(["a", ",", '"', "\n", "\r", "\0", "\u2028"]), min_size=1, max_size=3)
_PLAIN_NAME = st.text(st.sampled_from(["a", "b", " ", "\u2028", "\u00e9"]), min_size=1, max_size=3)
_STAMP = st.datetimes(
    min_value=datetime(1, 1, 1), max_value=datetime(9999, 12, 31, 23, 59, 59), timezones=st.just(UTC)
).map(lambda t: t.replace(microsecond=0))


@st.composite
def _logs(draw):
    """Logs of up to four cases, each stamped or not, whose names are all
    plain or may hold any character; an originator may also be empty or None."""
    name = draw(st.sampled_from([_PLAIN_NAME, _ANY_NAME]))
    traces = []
    for case_id in draw(st.lists(name, unique=True, max_size=4)):
        size = draw(st.integers(1, 3))
        activities = draw(st.lists(name, min_size=size, max_size=size))
        originators = draw(st.lists(st.sampled_from([None, ""]) | name, min_size=size, max_size=size))
        stamps = sorted(draw(st.lists(_STAMP, min_size=size, max_size=size))) if draw(st.booleans()) else [None] * size
        traces.append(Trace(case_id, tuple(activities), tuple(originators), tuple(stamps)))
    return EventLog(tuple(traces))


def _stamped(case_id, year):
    return Trace(case_id, ("a",), ("",), (datetime(year, 1, 2, 3, 4, 5, tzinfo=UTC),))


def _unstamped(case_id, activity="a", originator=None):
    return Trace(case_id, (activity,), (originator,), (None,))


class TestSerializeCsvLog:
    @settings(max_examples=300)
    @given(_logs())
    @example(EventLog(()))
    @example(EventLog((_stamped("1", 999), _unstamped("2"), _stamped("3", 1))))
    @example(EventLog((_unstamped("1", "a\0b"),)))
    @example(EventLog((_unstamped("1", "a\rb", "o,p"), _stamped("2\u2028", 2012))))
    def test_matches_reference(self, log):
        """The bytes, or the error, of the writer with one csv-writer row per
        event; a log with no field to quote is written in bulk."""
        assert _outcome(serialize_csv_log, log) == _outcome(reference_serialize_csv_log, log)
        fields = [t.case_id for t in log.traces]
        for t in log.traces:
            fields += [*t.activities, *filter(None, t.originators)]
        if not any(c in field for field in fields for c in ',"\n\r\0'):
            assert _bulk_text(log) is not None


class TestParseRecordsJsonl:
    @settings(max_examples=300)
    @given(st.one_of(_RECORDS_TEXT, _JSONL_TEXT, st.text(max_size=40)))
    @example('  {"artifact_id": "X", "submitter": "s", "reviewer": "r", "comment": "", "timestamp": "2012-05-03T12:00:00Z"}')
    @example('\ufeff{"artifact_id": "X"}')
    @example('{"artifact_id": "X", "submitter": "s", "reviewer": "r", "comment": "", "timestamp": "2012-05-03T12:00:00Z"} x')
    @example('{"artifact_id": "X", "submitter": 1, "reviewer": "r", "comment": "", "timestamp": "2012-05-03T12:00:00Z"}')
    @example('{"artifact_id": "", "submitter": "s", "reviewer": "", "comment": "", "timestamp": "2012-02-30T12:00:00Z"}')
    @example('{"artifact_id": "", "submitter": "s", "reviewer": "", "comment": "", "timestamp": "2012-02-28T12:00:00Z"}')
    @example('{"artifact_id": "X", "submitter": "s", "reviewer": "r", "comment": "", "timestamp": "2012-05-03T12:00:00Z", '
             '"thread_id": "t1", "thread_id": null}')
    @example('[1] ]')
    @example('{"p": [{}')
    def test_matches_reference(self, text):
        assert _outcome(parse_records_jsonl, text) == _outcome(reference_parse_records_jsonl, text)

    @given(_JSONL_TEXT, st.integers(0, 400))
    @example(f"{_SORTED}\n{_SORTED}\n{_DOCUMENTED}\n{_DOCUMENTED}\n", len(_SORTED) + 1)
    @example(f"{_DOCUMENTED}\n\n\n\n{_DOCUMENTED}", 1)
    def test_matches_reference_in_blocks_of_any_size(self, text, block):
        """Texts are tokenized in blocks of lines; any block size gives the same
        outcome, also for a block with no line in the documented layout."""
        with mock.patch.object(reviews, "_BLOCK", block):
            result = _outcome(parse_records_jsonl, text)
        assert result == _outcome(reference_parse_records_jsonl, text)

    @pytest.mark.parametrize("optional", ["thread-and-topic", "null-thread", "none"])
    def test_a_text_written_like_the_benchmarks_is_read_in_bulk(self, optional):
        """Records written by json.dumps as the benchmark writes them, with or
        without the optional keys, are read without the json module."""
        records = random_records(random.Random(7), n_cases=400, with_threads=optional != "null-thread")
        rows = [
            {
                "artifact_id": r.artifact_id,
                "submitter": r.submitter,
                "reviewer": r.reviewer,
                "comment": r.comment,
                "timestamp": format_timestamp(r.timestamp),
                **({} if optional == "none" else {"thread_id": r.thread_id, "topic": r.topic}),
            }
            for r in records
        ]
        text = "".join(json.dumps(row) + "\n" for row in rows)
        assert len(text) > 2 * reviews._BLOCK
        expected = reference_parse_records_jsonl(text)
        refuse = mock.Mock(side_effect=AssertionError("the json module was called"))
        with mock.patch.object(json, "loads", refuse):
            assert parse_records_jsonl(text) == expected

    @pytest.mark.parametrize(
        "flawed, error",
        [
            ('{"artifact_id": "X", }', "invalid JSON: "),  # the rest is the json module's own text
            (
                _DOCUMENTED.replace("2012-05-03", "2012-02-30"),
                "bad timestamp '2012-02-30T12:00:00Z', expected YYYY-MM-DDThh:mm:ssZ",
            ),
            (_DOCUMENTED.replace("2012-05-03", "2012-5-3"), "bad timestamp '2012-5-3T12:00:00Z', expected YYYY-MM-DDThh:mm:ssZ"),
            (_DOCUMENTED.replace('"r1"', '""'), "record has empty reviewer"),
            (_DOCUMENTED.replace('"X"', '""'), "record has empty artifact_id"),
            ('["X"]', "record is not a JSON object"),
            (_DOCUMENTED[:-1] + ', "topic": 5}', "topic must be a string when present"),
        ],
        ids=[
            "invalid-json", "stamp-out-of-range", "stamp-shape", "empty-reviewer", "empty-artifact", "not-an-object",
            "topic-not-a-string",
        ],
    )
    @pytest.mark.parametrize("block", ["first", "second"])
    def test_a_flaw_among_documented_lines_is_reported_at_its_line(self, flawed, error, block):
        before = 2 if block == "first" else reviews._BLOCK // len(_DOCUMENTED) + 2
        text = "\n".join([_DOCUMENTED] * before + [flawed, _DOCUMENTED]) + "\n"
        assert (text.index(flawed) > reviews._BLOCK) is (block == "second")
        result = _outcome(parse_records_jsonl, text)
        assert result[0] is RecordParseError and result[2] == before + 1
        assert result[1].startswith(f"line {before + 1}: {error}")
        assert result == _outcome(reference_parse_records_jsonl, text)

    @given(_JSONL_TEXT)
    def test_builds_what_the_public_constructor_builds(self, text):
        result = _outcome(parse_records_jsonl, text)
        if isinstance(result, tuple):
            return
        for r in result:
            assert ReviewRecord(r.artifact_id, r.submitter, r.reviewer, r.comment, r.timestamp, r.thread_id, r.topic) == r
            assert r.timestamp.tzinfo is UTC


_T0 = datetime(2012, 5, 3, 12, 0, 0, tzinfo=UTC)
_REVIEW_RECORD = st.builds(
    ReviewRecord,
    artifact_id=st.sampled_from(["X", "Y"]),
    submitter=st.sampled_from(["sam", "kim", ""]),
    reviewer=st.sampled_from(["r1", "r2", "r3"]),
    comment=st.sampled_from(["ok", "Revert this", "nit: fix"]),
    # Few distinct instants, so that cases hold timestamp ties, and a second
    # commit session that a third record joins.
    timestamp=st.sampled_from([0, 30, 60, 7200, 7230]).map(lambda s: _T0 + timedelta(seconds=s)),
    # An empty key is no key.
    thread_id=st.sampled_from([None, "", "t1", "t2"]),
    topic=st.sampled_from([None, "", "perf"]),
)
_STRATEGY = st.one_of(
    st.builds(ByArtifact),
    st.builds(ByThread),
    st.builds(ByTopic),
    st.sampled_from([0, 30, 3600]).map(lambda s: ByCommit(timedelta(seconds=s))),
)
_SECOND = timedelta(seconds=1)
# Window ends are record stamps, instants between and around them, or
# arbitrary instants; each pair is sorted, so no drawn window is inverted.
_INSTANT = st.sampled_from([-30, 0, 30, 45, 60, 7200]).map(lambda s: _T0 + timedelta(seconds=s)) | _STAMP
_WINDOW = st.none() | st.tuples(_INSTANT, _INSTANT).map(lambda ends: tuple(sorted(ends)))
_VERB_MAP = st.none() | st.dictionaries(st.sampled_from(["revert", "NIT", "ok"]), st.sampled_from(["undo", "style"]))
# Keywords and comments over a few letters of both cases, so that keywords
# differ only in case, overlap, or hold one another, and comments hold
# several of them.
_LETTERS = "reERvVtT :"
_KEYWORD = st.sampled_from(["re", "RE", "Re", "revert", "REVERT", "vert", "ever", "t", "", " "]) | st.text(
    _LETTERS, max_size=5
)
_VERB_MAPS = st.dictionaries(_KEYWORD, st.sampled_from(["undo", "style", "fix"]), max_size=6)
_COMMENTED_RECORD = st.builds(
    ReviewRecord,
    artifact_id=st.sampled_from(["X", "Y"]),
    submitter=st.just("sam"),
    reviewer=st.sampled_from(["r1", "r2"]),
    comment=st.sampled_from(["Revert this", "re: revert", "REVERT", "ok"]) | st.text(_LETTERS, max_size=12),
    timestamp=st.sampled_from([0, 60]).map(lambda s: _T0 + timedelta(seconds=s)),
)


class TestBuildLog:
    @given(st.lists(_REVIEW_RECORD, max_size=8), _STRATEGY, _VERB_MAP)
    @example([ReviewRecord("X", "sam", "r1", "ok", _T0, thread_id="")], ByThread(), None)
    @example([ReviewRecord("X", "sam", "r1", "ok", _T0, topic="")], ByTopic(), None)
    @example(
        [ReviewRecord("X", "sam", "r1", "ok", _T0 + timedelta(seconds=s)) for s in (0, 7200, 7230)],
        ByCommit(timedelta(seconds=30)),
        None,
    )
    def test_matches_reference(self, records, strategy, verb_map):
        assert _outcome(build_log, records, strategy, verb_map) == _outcome(
            reference_build_log, records, strategy, verb_map
        )

    @given(st.lists(_REVIEW_RECORD, max_size=8), _STRATEGY, _VERB_MAP, _WINDOW)
    @example([ReviewRecord("X", "sam", "r1", "ok", _T0)], ByArtifact(), None, (_T0, _T0))
    @example([ReviewRecord("X", "sam", "r1", "ok", _T0)], ByArtifact(), None, (_T0 + _SECOND, _T0 + _SECOND))
    def test_window_matches_reference(self, records, strategy, verb_map, window):
        """``build_log`` keeps the records in the window it records: log,
        metadata and error are the reference's, which filters on its own."""
        result = _outcome(build_log, records, strategy, verb_map, window)
        expected = _outcome(reference_build_log, records, strategy, verb_map, window)
        assert result == expected
        if not isinstance(result, tuple):
            assert metadata_json(result) == metadata_json(expected)

    def test_window_counts_only_the_records_inside_it(self):
        records = [
            ReviewRecord("X", "sam", "r1", "ok", _T0),
            ReviewRecord("X", "sam", "r2", "ok", _T0 + timedelta(days=5)),
        ]
        trace_log = build_log(records, ByArtifact(), window=(_T0, _T0 + timedelta(days=1)))
        assert trace_log.record_count == 1
        assert json.loads(metadata_json(trace_log))["record_count"] == 1
        assert [t.activities for t in trace_log.log.traces] == [("review:initiator",)]

    def test_window_without_records_is_an_error(self):
        records = [ReviewRecord("X", "sam", "r1", "ok", _T0)]
        window = (_T0 + _SECOND, _T0 + timedelta(days=1))
        with pytest.raises(RecordError) as caught:
            build_log(records, ByArtifact(), window=window)
        assert str(caught.value) == "no records to build a log from"

    def test_inverted_window_is_an_error(self):
        records = [ReviewRecord("X", "sam", "r1", "ok", _T0)]
        with pytest.raises(ValueError) as caught:
            build_log(records, ByArtifact(), window=(_T0 + _SECOND, _T0))
        assert str(caught.value) == "inverted window: 2012-05-03T12:00:01+00:00 > 2012-05-03T12:00:00+00:00"

    @given(st.lists(_COMMENTED_RECORD, min_size=1, max_size=6), _VERB_MAPS)
    @example([ReviewRecord("X", "sam", "r1", "Revert it", _T0)], {})
    @example([ReviewRecord("X", "sam", "r1", "Revert it", _T0)], {"revert": "undo", "RE": "fix"})
    @example([ReviewRecord("X", "sam", "r1", "Revert it", _T0)], {"Vert": "undo", "revert": "fix"})
    def test_verb_maps_match_reference(self, records, verb_map):
        """Keywords match ignoring case, the first in sorted order wins, and
        an empty map gives the default verb."""
        built = build_log(records, ByArtifact(), verb_map)
        assert built == reference_build_log(records, ByArtifact(), verb_map)
        if not verb_map:
            assert {a for t in built.log.traces for a in t.activities} <= {"review:initiator", "review:responder"}

    @given(st.lists(_REVIEW_RECORD, min_size=1, max_size=8), _STRATEGY, _VERB_MAP)
    def test_builds_what_the_public_constructors_build(self, records, strategy, verb_map):
        result = _outcome(build_log, records, strategy, verb_map)
        if not isinstance(result, tuple):
            _assert_built_as_public(result.log)


@pytest.mark.parametrize(
    "value",
    [
        Trace("c", ("a",), ("o",), (datetime(2012, 5, 3, tzinfo=UTC),)),
        ReviewRecord("X", "s", "r", "ok", datetime(2012, 5, 3, tzinfo=UTC)),
    ],
    ids=lambda value: type(value).__name__,
)
def test_slotted_types_have_no_instance_dict(value):
    """Each instance holds its fields in slots, not in a per-instance dict."""
    assert not hasattr(value, "__dict__")
    with pytest.raises(TypeError):
        vars(value)
    with pytest.raises(AttributeError):
        object.__setattr__(value, "extra", 1)

