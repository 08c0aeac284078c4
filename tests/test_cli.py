from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from trailnet.alpha import alpha, intermediates_to_json
from trailnet.cli import main
from trailnet.eventlog import parse_csv_log
from trailnet.petri import WorkflowNet, to_json
from trailnet.relations import footprint, footprint_to_csv
from trailnet.reviews import ByArtifact, build_log, parse_records_jsonl

from .conftest import SAMPLE_CSV
from .netgen import random_structured_net
from .oracles import reference_generate_traces


def _record_line(artifact, reviewer, stamp, submitter="sam", thread=None):
    payload = {
        "artifact_id": artifact,
        "submitter": submitter,
        "reviewer": reviewer,
        "comment": "ok",
        "timestamp": stamp,
    }
    if thread:
        payload["thread_id"] = thread
    return json.dumps(payload)


RECORDS_JSONL = "\n".join(
    [
        _record_line("X", "r1", "2012-05-03T12:00:00Z"),
        _record_line("X", "r2", "2012-05-03T12:05:00Z"),
        _record_line("Y", "r2", "2012-05-10T09:00:00Z", submitter="kim"),
        _record_line("Y", "r1", "2012-08-01T09:00:00Z", submitter="kim"),
    ]
) + "\n"


@pytest.fixture
def sample_csv_path(tmp_path):
    path = tmp_path / "log.csv"
    path.write_text(SAMPLE_CSV, encoding="utf-8")
    return path


@pytest.fixture
def records_path(tmp_path):
    path = tmp_path / "records.jsonl"
    path.write_text(RECORDS_JSONL, encoding="utf-8")
    return path


def _stderr_payload(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1
    return json.loads(err[0])


class TestBuildLog:
    def test_writes_csv_and_sidecar(self, tmp_path, records_path):
        out = tmp_path / "out.csv"
        assert main(["build-log", "--input", str(records_path), "--output", str(out), "--strategy", "artifact"]) == 0
        log = parse_csv_log(out.read_text(encoding="utf-8"))
        assert {t.case_id for t in log.traces} == {"X", "Y"}
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text(encoding="utf-8"))
        assert meta == {"strategy": "artifact", "window": None, "record_count": 4}

    def test_window_filters_records(self, tmp_path, records_path):
        out = tmp_path / "out.csv"
        code = main(
            [
                "build-log",
                "--input", str(records_path),
                "--output", str(out),
                "--strategy", "artifact",
                "--from", "2012-05-03T00:00:00Z",
                "--to", "2012-07-19T23:59:59Z",
            ]
        )
        assert code == 0
        log = parse_csv_log(out.read_text(encoding="utf-8"))
        assert sum(len(t.events) for t in log.traces) == 3
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text(encoding="utf-8"))
        assert meta["window"] == ["2012-05-03T00:00:00Z", "2012-07-19T23:59:59Z"]
        assert meta["record_count"] == 3

    def test_commit_strategy_records_window_in_label(self, tmp_path, records_path):
        out = tmp_path / "out.csv"
        code = main(
            [
                "build-log",
                "--input", str(records_path),
                "--output", str(out),
                "--strategy", "commit",
                "--commit-window", "3600",
            ]
        )
        assert code == 0
        meta = json.loads((tmp_path / "out.csv.meta.json").read_text(encoding="utf-8"))
        assert meta["strategy"] == "commit:3600s"

    def test_rerun_is_byte_identical(self, tmp_path, records_path):
        out = tmp_path / "out.csv"
        argv = ["build-log", "--input", str(records_path), "--output", str(out), "--strategy", "artifact"]
        assert main(argv) == 0
        first = out.read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == first


class TestFootprint:
    def test_matches_library(self, tmp_path, sample_csv_path):
        out = tmp_path / "fp.csv"
        assert main(["footprint", "--input", str(sample_csv_path), "--output", str(out)]) == 0
        log = parse_csv_log(SAMPLE_CSV)
        assert out.read_text(encoding="utf-8") == footprint_to_csv(footprint(log))


class TestMine:
    def test_writes_three_artifacts(self, tmp_path, sample_csv_path):
        prefix = tmp_path / "mined"
        assert main(["mine", "--input", str(sample_csv_path), "--output", str(prefix)]) == 0
        net = json.loads((tmp_path / "mined.net.json").read_text(encoding="utf-8"))
        assert len(net["places"]) == 6
        assert len(net["transitions"]) == 5
        assert len(net["arcs"]) == 14
        inter = json.loads((tmp_path / "mined.alpha.json").read_text(encoding="utf-8"))
        assert len(inter["Y_W"]) == 4
        assert (tmp_path / "mined.net.dot").read_text(encoding="utf-8").startswith("digraph workflow")

    def test_alphabet_limit_env(self, tmp_path, sample_csv_path, monkeypatch, capsys):
        monkeypatch.setenv("TRAILNET_ALPHABET_LIMIT", "3")
        code = main(["mine", "--input", str(sample_csv_path), "--output", str(tmp_path / "m")])
        assert code == 3
        assert _stderr_payload(capsys)["code"] == 3

    def test_bad_limit_env_is_config_error(self, tmp_path, sample_csv_path, monkeypatch, capsys):
        monkeypatch.setenv("TRAILNET_ALPHABET_LIMIT", "three")
        code = main(["mine", "--input", str(sample_csv_path), "--output", str(tmp_path / "m")])
        assert code == 2
        assert _stderr_payload(capsys)["code"] == 2

    def test_dangling_activity_warning_as_json_line(self, tmp_path, capsys):
        # initiator || responder with responder mid-trace: no causal pairs
        log_path = tmp_path / "odd.csv"
        log_path.write_text(
            "case_id,activity,originator,timestamp\n"
            "1,a,,\n1,x,,\n1,b,,\n"
            "2,b,,\n2,x,,\n2,a,,\n",
            encoding="utf-8",
        )
        assert main(["mine", "--input", str(log_path), "--output", str(tmp_path / "m")]) == 0
        assert "dangles" in _stderr_payload(capsys)["warning"]


class TestSocial:
    def test_handover_from_log(self, tmp_path, records_path):
        log_path = tmp_path / "log.csv"
        main(["build-log", "--input", str(records_path), "--output", str(log_path), "--strategy", "artifact"])
        prefix = tmp_path / "net"
        assert main(["social", "--input", str(log_path), "--relation", "handover", "--output", str(prefix)]) == 0
        graph = json.loads((tmp_path / "net.graph.json").read_text(encoding="utf-8"))
        assert ["r1", "r2", 1] in graph["edges"]
        assert ["r2", "r1", 1] in graph["edges"]

    def test_review_from_records(self, tmp_path, records_path):
        prefix = tmp_path / "rev"
        assert main(["social", "--input", str(records_path), "--relation", "review", "--output", str(prefix)]) == 0
        graph = json.loads((tmp_path / "rev.graph.json").read_text(encoding="utf-8"))
        assert graph["edges"] == [["r1", "kim", 1], ["r1", "sam", 1], ["r2", "kim", 1], ["r2", "sam", 1]]
        assert (tmp_path / "rev.graph.dot").exists()


class TestSimulate:
    def test_sample_net_language(self, tmp_path, sample_csv_path):
        prefix = tmp_path / "mined"
        main(["mine", "--input", str(sample_csv_path), "--output", str(prefix)])
        out = tmp_path / "traces.json"
        code = main(
            [
                "simulate",
                "--input", str(tmp_path / "mined.net.json"),
                "--output", str(out),
                "--max-length", "10",
                "--max-traces", "100",
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text(encoding="utf-8"))
        assert payload == {
            "complete": True,
            "traces": [["A", "B", "C", "D"], ["A", "C", "B", "D"], ["A", "E", "D"]],
        }


def _renamed(net: WorkflowNet, names) -> WorkflowNet:
    rename = dict(zip(sorted(net.transitions), names))
    return WorkflowNet(
        places=net.places,
        transitions=frozenset(rename.values()),
        arcs=frozenset((rename.get(a, a), rename.get(b, b)) for a, b in net.arcs),
        source=net.source,
        sink=net.sink,
    )


@st.composite
def _named_nets(draw):
    net = random_structured_net(random.Random(draw(st.integers(0, 10_000))))
    names = draw(
        st.lists(
            st.text(min_size=1, max_size=6).filter(lambda name: name not in net.places),
            min_size=len(net.transitions),
            max_size=len(net.transitions),
            unique=True,
        )
    )
    return _renamed(net, names)


_ODD_NAMES = ['say "hi"', "back\\slash", "caf\u00e9", "\U0001d11e clef", "\x00\x1f\x7f", '["a", 1]']


class TestSimulateOutput:
    """simulate writes exactly json.dumps(payload, indent=2) + newline."""

    @staticmethod
    def _check(net, max_length, max_traces):
        result = reference_generate_traces(net, max_length, max_traces)
        payload = {"complete": result.complete, "traces": sorted(list(t) for t in result.traces)}
        with tempfile.TemporaryDirectory() as tmp:
            source, out = Path(tmp, "net.json"), Path(tmp, "traces.json")
            source.write_text(to_json(net), encoding="utf-8")
            argv = ["simulate", "--input", str(source), "--output", str(out),
                    "--max-length", str(max_length), "--max-traces", str(max_traces)]
            assert main(argv) == 0
            assert out.read_bytes() == (json.dumps(payload, indent=2) + "\n").encode("utf-8")
        return result

    @settings(deadline=None, max_examples=60)
    @given(_named_nets(), st.integers(0, 8), st.integers(0, 20))
    @example(_renamed(random_structured_net(random.Random(7)), _ODD_NAMES), 10, 100)
    def test_bytes_match_indenting_encoder(self, net, max_length, max_traces):
        self._check(net, max_length, max_traces)

    def test_odd_names_in_a_cut_language(self):
        net = _renamed(random_structured_net(random.Random(7)), _ODD_NAMES)
        result = self._check(net, 10, 1)
        assert not result.complete
        assert result.traces == {('say "hi"', "back\\slash", "caf\u00e9", "\x00\x1f\x7f", '["a", 1]')}

    def test_empty_complete_language(self):
        net = WorkflowNet(
            places=frozenset({"i", "p", "o"}),
            transitions=frozenset({"a"}),
            arcs=frozenset({("i", "a"), ("a", "p")}),
            source="i",
            sink="o",
        )
        result = self._check(net, 10, 10)
        assert result.complete and not result.traces

    def test_empty_incomplete_language(self):
        result = self._check(_renamed(random_structured_net(random.Random(7)), _ODD_NAMES), 10, 0)
        assert not result.complete and not result.traces


class TestExport:
    def test_net_json_to_dot(self, tmp_path, sample_csv_path):
        prefix = tmp_path / "mined"
        main(["mine", "--input", str(sample_csv_path), "--output", str(prefix)])
        out = tmp_path / "render.dot"
        code = main(
            ["export", "--input", str(tmp_path / "mined.net.json"), "--output", str(out), "--format", "dot"]
        )
        assert code == 0
        assert out.read_text(encoding="utf-8") == (tmp_path / "mined.net.dot").read_text(encoding="utf-8")

    def test_log_csv_recanonicalized(self, tmp_path):
        messy = tmp_path / "messy.csv"
        messy.write_text(SAMPLE_CSV.replace("\n", "\r\n"), encoding="utf-8")
        out = tmp_path / "clean.csv"
        assert main(["export", "--input", str(messy), "--output", str(out), "--format", "csv"]) == 0
        assert out.read_text(encoding="utf-8") == SAMPLE_CSV

    def test_graph_json_to_json_is_canonical(self, tmp_path, records_path):
        prefix = tmp_path / "rev"
        main(["social", "--input", str(records_path), "--relation", "review", "--output", str(prefix)])
        out = tmp_path / "again.json"
        source = tmp_path / "rev.graph.json"
        assert main(["export", "--input", str(source), "--output", str(out), "--format", "json"]) == 0
        assert out.read_text(encoding="utf-8") == source.read_text(encoding="utf-8")

    def test_net_as_csv_is_config_error(self, tmp_path, sample_csv_path, capsys):
        prefix = tmp_path / "mined"
        main(["mine", "--input", str(sample_csv_path), "--output", str(prefix)])
        capsys.readouterr()
        code = main(
            ["export", "--input", str(tmp_path / "mined.net.json"), "--output", str(tmp_path / "x"), "--format", "csv"]
        )
        assert code == 2
        assert _stderr_payload(capsys)["code"] == 2


class TestPipelineComposition:
    def test_cli_equals_library(self, tmp_path, records_path):
        log_path = tmp_path / "log.csv"
        prefix = tmp_path / "mined"
        assert main(["build-log", "--input", str(records_path), "--output", str(log_path), "--strategy", "artifact"]) == 0
        assert main(["mine", "--input", str(log_path), "--output", str(prefix)]) == 0

        records = parse_records_jsonl(RECORDS_JSONL)
        trace_log = build_log(records, ByArtifact())
        net, intermediates = alpha(trace_log.log)
        assert (tmp_path / "mined.net.json").read_text(encoding="utf-8") == to_json(net)
        assert (tmp_path / "mined.alpha.json").read_text(encoding="utf-8") == intermediates_to_json(intermediates)


class TestErrors:
    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code = main(["footprint", "--input", str(tmp_path / "absent.csv"), "--output", str(tmp_path / "o")])
        assert code == 1
        payload = _stderr_payload(capsys)
        assert payload["code"] == 1
        assert "absent.csv" in payload["error"]

    def test_bad_csv_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("case_id,activity,originator,timestamp\n1,,,\n", encoding="utf-8")
        code = main(["footprint", "--input", str(bad), "--output", str(tmp_path / "o")])
        assert code == 1
        assert "line 2" in _stderr_payload(capsys)["error"]

    def test_bad_records_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{broken\n", encoding="utf-8")
        code = main(["build-log", "--input", str(bad), "--output", str(tmp_path / "o"), "--strategy", "artifact"])
        assert code == 1
        assert _stderr_payload(capsys)["code"] == 1

    def test_unpadded_timestamp_is_io_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(
            _record_line("X", "r1", "2012-05-03T12:00:00Z") + "\n" + _record_line("X", "r2", "2012-5-3T8:0:0Z") + "\n",
            encoding="utf-8",
        )
        code = main(["build-log", "--input", str(bad), "--output", str(tmp_path / "o"), "--strategy", "artifact"])
        assert code == 1
        payload = _stderr_payload(capsys)
        assert payload["code"] == 1
        assert payload["error"].startswith("line 2: bad timestamp")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["build-log", "--strategy", "artifact"],
            ["social", "--relation", "review"],
        ],
    )
    def test_deeply_nested_record_is_io_error(self, tmp_path, capsys, argv):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(_record_line("X", "r1", "2012-05-03T12:00:00Z") + "\n" + "[" * 100_000 + "\n", encoding="utf-8")
        code = main(argv + ["--input", str(bad), "--output", str(tmp_path / "o")])
        assert code == 1
        payload = _stderr_payload(capsys)
        assert payload["code"] == 1
        assert payload["error"].startswith("line 2: ")

    @pytest.mark.parametrize("command", ["footprint", "mine"])
    def test_overlong_csv_field_is_io_error(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.csv"
        bad.write_text("case_id,activity,originator,timestamp\n1,A,,\n1," + "x" * 131_073 + ",,\n", encoding="utf-8")
        code = main([command, "--input", str(bad), "--output", str(tmp_path / "o")])
        assert code == 1
        payload = _stderr_payload(capsys)
        assert payload["code"] == 1
        assert payload["error"].startswith("line 3: field larger than field limit")

    def test_lone_from_is_config_error(self, records_path, tmp_path, capsys):
        code = main(
            [
                "build-log",
                "--input", str(records_path),
                "--output", str(tmp_path / "o"),
                "--strategy", "artifact",
                "--from", "2012-05-03T00:00:00Z",
            ]
        )
        assert code == 2
        assert _stderr_payload(capsys)["code"] == 2

    def test_inverted_window_is_config_error(self, records_path, tmp_path, capsys):
        code = main(
            [
                "build-log",
                "--input", str(records_path),
                "--output", str(tmp_path / "o"),
                "--strategy", "artifact",
                "--from", "2012-07-19T00:00:00Z",
                "--to", "2012-05-03T00:00:00Z",
            ]
        )
        assert code == 2
        assert _stderr_payload(capsys)["code"] == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["build-log", "--strategy", "artifact", "--from", "2012-05-03T00:00:00Z"],
            ["simulate", "--max-length", "-1"],
        ],
    )
    def test_config_error_comes_before_the_input_is_read(self, tmp_path, capsys, argv):
        code = main(argv + ["--input", str(tmp_path / "absent"), "--output", str(tmp_path / "o")])
        assert code == 2
        assert _stderr_payload(capsys)["code"] == 2

    def test_unknown_strategy_is_config_error(self, records_path, tmp_path, capsys):
        code = main(
            ["build-log", "--input", str(records_path), "--output", str(tmp_path / "o"), "--strategy", "nope"]
        )
        assert code == 2
        assert _stderr_payload(capsys)["code"] == 2

    def test_window_flag_rejected_outside_build_log(self, sample_csv_path, tmp_path, capsys):
        code = main(
            ["mine", "--input", str(sample_csv_path), "--output", str(tmp_path / "o"), "--from", "2012-05-03T00:00:00Z"]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["simulate", "export"])
    @pytest.mark.parametrize(
        "field, value",
        [
            ("places", [["i"], "o"]),
            ("places", "io"),
            ("transitions", "a"),
            ("arcs", ["ia", "ao"]),
            ("arcs", [["i", 1], ["a", "o"]]),
            ("source", ["i"]),
        ],
    )
    def test_mistyped_net_field_is_io_error(self, tmp_path, capsys, command, field, value):
        net = {
            "places": ["i", "o"],
            "transitions": ["a"],
            "arcs": [["i", "a"], ["a", "o"]],
            "source": "i",
            "sink": "o",
        }
        path = tmp_path / "net.json"
        path.write_text(json.dumps({**net, field: value}), encoding="utf-8")
        argv = [command, "--input", str(path), "--output", str(tmp_path / "out")]
        if command == "export":
            argv += ["--format", "dot"]
        assert main(argv) == 1
        assert _stderr_payload(capsys)["code"] == 1

    @pytest.mark.parametrize(
        "field, value",
        [
            ("nodes", "ab"),
            ("edges", [["a", "b", "x"]]),
            ("edges", [["a", "b", True]]),
            ("edges", [["a", "b", 1.5]]),
            ("edges", [["a", ["b"], 1]]),
        ],
    )
    def test_mistyped_graph_field_is_io_error(self, tmp_path, capsys, field, value):
        graph = {"nodes": ["a", "b"], "edges": [["a", "b", 1]]}
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({**graph, field: value}), encoding="utf-8")
        argv = ["export", "--input", str(path), "--output", str(tmp_path / "out"), "--format", "json"]
        assert main(argv) == 1
        assert _stderr_payload(capsys)["code"] == 1

    @pytest.mark.parametrize("command", ["simulate", "export"])
    @pytest.mark.parametrize("key", ["places", "nodes", "other"])
    def test_deeply_nested_json_is_io_error(self, tmp_path, capsys, command, key):
        path = tmp_path / "deep.json"
        path.write_text('{"%s": ' % key + "[" * 100_000, encoding="utf-8")
        argv = [command, "--input", str(path), "--output", str(tmp_path / "out")]
        if command == "export":
            argv += ["--format", "json"]
        assert main(argv) == 1
        payload = _stderr_payload(capsys)
        assert payload["code"] == 1
        assert "nested too deeply" in payload["error"]

    def test_repeated_graph_edge_is_io_error(self, tmp_path, capsys):
        path = tmp_path / "graph.json"
        path.write_text('{"nodes": ["a", "b"], "edges": [["a", "b", 1], ["a", "b", 2]]}', encoding="utf-8")
        argv = ["export", "--input", str(path), "--output", str(tmp_path / "out"), "--format", "json"]
        assert main(argv) == 1
        assert _stderr_payload(capsys) == {"code": 1, "error": "social graph JSON repeats edge 'a'->'b'"}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, text, outputs",
        [
            (
                ["export", "--format", "dot"],
                json.dumps(
                    {
                        "places": ["i", "o"],
                        "transitions": ["\ud800"],
                        "arcs": [["i", "\ud800"], ["\ud800", "o"]],
                        "source": "i",
                        "sink": "o",
                    }
                ),
                [""],
            ),
            (
                ["build-log", "--strategy", "artifact"],
                _record_line("X", "\ud800", "2012-05-03T12:00:00Z") + "\n",
                ["", ".meta.json"],
            ),
            (
                ["social", "--relation", "review"],
                _record_line("X", "r1", "2012-05-03T12:00:00Z", submitter="\ud800") + "\n",
                [".graph.json", ".graph.dot"],
            ),
        ],
        ids=["export-dot", "build-log", "social-review"],
    )
    def test_unencodable_output_leaves_no_file(self, tmp_path, capsys, command, text, outputs):
        # A lone surrogate is valid in JSON text but cannot be written as UTF-8.
        path = tmp_path / "input"
        path.write_text(text, encoding="utf-8")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        prefix = out_dir / "result"
        argv = [command[0], "--input", str(path), "--output", str(prefix), *command[1:]]
        assert main(argv) == 1
        assert _stderr_payload(capsys)["code"] == 1
        assert not any(Path(str(prefix) + suffix).exists() for suffix in outputs)
        assert list(out_dir.iterdir()) == []

    @pytest.mark.parametrize(
        "text",
        ['{"places": []}', '{"places": "io", "transitions": [], "arcs": [], "source": "i", "sink": "o"}'],
    )
    def test_export_reports_net_errors_as_simulate_does(self, tmp_path, capsys, text):
        path = tmp_path / "net.json"
        path.write_text(text, encoding="utf-8")
        out = str(tmp_path / "out")
        assert main(["simulate", "--input", str(path), "--output", out]) == 1
        simulated = _stderr_payload(capsys)
        assert main(["export", "--input", str(path), "--output", out, "--format", "dot"]) == 1
        assert _stderr_payload(capsys) == simulated

    def test_missing_subcommand_is_config_error(self, capsys):
        assert main([]) == 2


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _perturbed(draw, valid):
    """A well-formed JSON object, or one with a key dropped or set to any JSON value."""
    value = draw(valid)
    if draw(st.integers(0, 3)) == 0:
        key = draw(st.sampled_from(sorted(value)))
        if draw(st.booleans()):
            del value[key]
        else:
            value[key] = draw(_JSON)
    return json.dumps(value)


_PLACES = ["i", "o", "p", 'q"']
_TRANSITIONS = ["a", "b", "\u00e9", "p"]
_NET_TEXT = _perturbed(
    st.fixed_dictionaries(
        {
            "places": st.lists(st.sampled_from(_PLACES), max_size=4).map(lambda ps: ["i", "o", *ps]),
            "transitions": st.lists(st.sampled_from(_TRANSITIONS), max_size=4),
            "arcs": st.lists(
                st.sampled_from(
                    [[p, t] for p in _PLACES for t in _TRANSITIONS] + [[t, p] for p in _PLACES for t in _TRANSITIONS]
                ),
                max_size=8,
            ),
            "source": st.sampled_from(["i", "i", "o"]),
            "sink": st.sampled_from(["o", "o", "x"]),
        }
    )
)
_PEOPLE = st.sampled_from(["sam", "kim", "r1", 'r"2', ""])
_GRAPH_TEXT = _perturbed(
    st.fixed_dictionaries(
        {
            "nodes": st.lists(_PEOPLE, max_size=4),
            "edges": st.lists(st.tuples(_PEOPLE, _PEOPLE, st.integers(-1, 3)).map(list), max_size=4),
        }
    )
)
_STAMPS = st.sampled_from(["2012-05-03T12:00:00Z", "2012-05-03T11:00:00Z", "2012-05-04T00:00:00Z", "2012-5-3T8:0:0Z"])
_RECORD = st.fixed_dictionaries(
    {
        "artifact_id": st.sampled_from(["X", "Y"]),
        "submitter": _PEOPLE,
        "reviewer": _PEOPLE,
        "comment": st.sampled_from(["ok", "revert this", ""]),
        "timestamp": _STAMPS,
    },
    optional={"thread_id": st.sampled_from(["t1", "t2"]), "topic": st.sampled_from(["x", "y"])},
)


@st.composite
def _lines(draw, line, header=()):
    """Lines drawn from ``line``, sometimes with one arbitrary line among them."""
    lines = draw(st.lists(line, max_size=8))
    if draw(st.integers(0, 3)) == 0:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.text(max_size=8)))
    return "\n".join([*header, *lines])


_RECORDS_TEXT = _lines(_perturbed(_RECORD))
_CSV_ROW = st.tuples(
    st.sampled_from(["1", "2", "3"]),
    st.sampled_from(["A", "B", "C", 'q"', "x,y"]),
    st.sampled_from(["u", "v", ""]),
    st.sampled_from(["", "", "2012-05-03T12:00:00Z", "2012-05-03T11:00:00Z", "2012-5-3T8:0:0Z"]),
).map(lambda row: ",".join('"%s"' % cell.replace('"', '""') if '"' in cell or "," in cell else cell for cell in row))
_CSV_TEXT = _lines(_CSV_ROW, header=["case_id,activity,originator,timestamp"])
_INPUTS = st.one_of(
    st.binary(max_size=64),
    st.one_of(_NET_TEXT, _GRAPH_TEXT, _RECORDS_TEXT, _CSV_TEXT, st.text(max_size=32)).map(str.encode),
)


class TestContractFuzz:
    """Every subcommand exits 0 or prints one JSON error line whose code is the exit code."""

    @pytest.mark.parametrize(
        "argv",
        [
            *(["build-log", "--strategy", s] for s in ["artifact", "thread", "topic", "commit"]),
            ["footprint"],
            ["mine"],
            ["social", "--relation", "handover"],
            ["social", "--relation", "review"],
            ["simulate", "--max-length", "6", "--max-traces", "20"],
            *(["export", "--format", f] for f in ["dot", "json", "csv"]),
        ],
        ids=" ".join,
    )
    @settings(deadline=None, max_examples=80)
    @given(data=_INPUTS)
    @example(data=b'{"places": ' + b"[" * 100_000)
    @example(data=b'{"nodes": ["a", "b"], "edges": [["a", "b", 1], ["a", "b", 2]]}')
    def test_exit_code_or_one_json_error_line(self, argv, data):
        with tempfile.TemporaryDirectory() as tmp:
            source = Path(tmp, "input")
            source.write_bytes(data)
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(argv + ["--input", str(source), "--output", str(Path(tmp, "out"))])
        if code == 0:
            return
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, lines
        assert json.loads(lines[0])["code"] == code
        assert code in (1, 2, 3)


class TestConsoleScript:
    def test_module_entry_point(self, tmp_path, sample_csv_path):
        out = tmp_path / "fp.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "trailnet.cli", "footprint", "--input", str(sample_csv_path), "--output", str(out)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert out.exists()
        assert str(out) in proc.stdout
