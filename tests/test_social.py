from __future__ import annotations

import json
import random
from datetime import datetime, timedelta, timezone

import pytest
from hypothesis import given, strategies as st

from trailnet.eventlog import EventLog, LogError, Trace
from trailnet.reviews import ByArtifact, ReviewRecord, build_log
from trailnet.social import (
    SocialGraph,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    handover_of_work,
    review_relation,
)

from .oracles import reference_handover_of_work
from .reviewgen import random_records


def log_of_originators(*cases: list[str]) -> EventLog:
    traces = []
    for i, people in enumerate(cases):
        case_id = f"c{i}"
        none = (None,) * len(people)
        traces.append(Trace(case_id, ("review",) * len(people), tuple(people), none))
    return EventLog(tuple(traces))


_originator_logs = st.lists(
    st.lists(st.sampled_from(["R1", "R2", "R3", "R4"]), min_size=1, max_size=8),
    min_size=0,
    max_size=10,
).map(lambda cases: log_of_originators(*cases))


class TestHandover:
    def test_back_and_forth(self):
        graph = handover_of_work(log_of_originators(["R1", "R2", "R1"]))
        assert graph.nodes == {"R1", "R2"}
        assert graph.edges == {("R1", "R2"): 1, ("R2", "R1"): 1}

    def test_single_originator_trace(self):
        graph = handover_of_work(log_of_originators(["R1", "R1", "R1"]))
        assert graph.nodes == {"R1"}
        assert graph.edges == {}

    def test_weights_add_across_traces(self):
        graph = handover_of_work(log_of_originators(["R1", "R2"], ["R1", "R2"]))
        assert graph.edges == {("R1", "R2"): 2}

    def test_missing_originator_rejected(self):
        log = EventLog((Trace("c", ("a",), (None,), (None,)),))
        with pytest.raises(LogError, match="'c' has an event without originator"):
            handover_of_work(log)

    def test_missing_originator_mid_trace_rejected(self):
        log = EventLog((Trace("c", ("a", "b", "c"), ("R1", "", "R2"), (None,) * 3),))
        with pytest.raises(LogError, match="'c' has an event without originator"):
            handover_of_work(log)

    @given(_originator_logs)
    def test_conservation(self, log):
        graph = handover_of_work(log)
        expected = sum(
            1
            for trace in log.traces
            for a, b in zip(trace.originators, trace.originators[1:])
            if a != b
        )
        assert sum(graph.edges.values()) == expected

    @given(_originator_logs)
    def test_no_self_loops_and_invariant_under_reorder(self, log):
        graph = handover_of_work(log)
        assert all(tail != head for tail, head in graph.edges)
        reversed_log = EventLog(tuple(reversed(log.traces)))
        assert handover_of_work(reversed_log) == graph

    @given(
        st.lists(
            st.lists(st.sampled_from(["R1", "R2", "R3", None]), min_size=1, max_size=8),
            max_size=10,
        )
    )
    def test_matches_reference_with_missing_originators(self, cases):
        log = log_of_originators(*cases)
        try:
            expected = reference_handover_of_work(log)
        except LogError as exc:
            with pytest.raises(LogError) as raised:
                handover_of_work(log)
            assert str(raised.value) == str(exc)
        else:
            assert handover_of_work(log) == expected


class TestReviewRelation:
    def _record(self, reviewer, submitter, at=0):
        return ReviewRecord(
            "X",
            submitter,
            reviewer,
            "ok",
            datetime(2012, 5, 3, tzinfo=timezone.utc) + timedelta(seconds=at),
        )

    def test_single_record(self):
        graph = review_relation([self._record("R", "S")])
        assert graph.nodes == {"R", "S"}
        assert graph.edges == {("R", "S"): 1}

    def test_repeat_reviews_accumulate(self):
        graph = review_relation([self._record("R", "S", at=i) for i in range(3)])
        assert graph.edges == {("R", "S"): 3}

    def test_self_review_counts_node_only(self):
        graph = review_relation([self._record("R", "R")])
        assert graph.nodes == {"R"}
        assert graph.edges == {}

    def test_empty_submitter_skipped(self):
        graph = review_relation([self._record("R", "")])
        assert graph.nodes == {"R"}
        assert graph.edges == {}

    def test_matches_brute_force_tally(self):
        rng = random.Random(21)
        records = random_records(rng, n_cases=10)
        graph = review_relation(records)
        tally: dict[tuple[str, str], int] = {}
        for rec in records:
            if rec.submitter and rec.reviewer != rec.submitter:
                tally[(rec.reviewer, rec.submitter)] = tally.get((rec.reviewer, rec.submitter), 0) + 1
        assert dict(graph.edges) == tally

    def test_from_built_log_handover(self):
        rng = random.Random(22)
        records = random_records(rng, n_cases=10)
        log = build_log(records, ByArtifact()).log
        graph = handover_of_work(log)
        assert graph.nodes <= {r.reviewer for r in records}


class TestValidation:
    def test_positive_weights_required(self):
        with pytest.raises(ValueError):
            SocialGraph(frozenset({"a", "b"}), {("a", "b"): 0})

    def test_edge_endpoints_must_be_nodes(self):
        with pytest.raises(ValueError):
            SocialGraph(frozenset({"a"}), {("a", "b"): 1})

    def test_edges_are_read_only(self):
        edges = {("a", "b"): 2}
        graph = SocialGraph({"a", "b"}, edges)
        with pytest.raises(TypeError):
            graph.edges[("a", "zed")] = -7
        edges[("b", "a")] = 1  # the graph keeps its own copy
        assert graph.edges == {("a", "b"): 2}
        assert graph_from_json(graph_to_json(graph)) == graph


class TestSerialization:
    def test_dot_output(self):
        graph = SocialGraph(frozenset({"R1", "R2"}), {("R1", "R2"): 2})
        assert graph_to_dot(graph) == (
            "digraph social {\n"
            '  "R1";\n'
            '  "R2";\n'
            '  "R1" -> "R2" [label=2];\n'
            "}\n"
        )

    def test_empty_graph_dot(self):
        assert graph_to_dot(SocialGraph(frozenset(), {})) == "digraph social {\n}\n"

    def test_json_round_trip(self):
        graph = SocialGraph(frozenset({"R1", "R2", "R3"}), {("R2", "R1"): 4, ("R1", "R2"): 1})
        payload = json.loads(graph_to_json(graph))
        assert payload == {
            "nodes": ["R1", "R2", "R3"],
            "edges": [["R1", "R2", 1], ["R2", "R1", 4]],
        }
        assert graph_from_json(graph_to_json(graph)) == graph

    def test_deterministic(self):
        rng = random.Random(23)
        graph = review_relation(random_records(rng, n_cases=15))
        assert graph_to_json(graph) == graph_to_json(graph)
        assert graph_to_dot(graph) == graph_to_dot(graph)

    @pytest.mark.parametrize(
        "text",
        [
            "nope",
            "{}",
            '{"nodes": [], "edges": [["a", "b"]]}',
            '{"nodes": ["a", "b"], "edges": [["a", "b", "x"]]}',
            '{"nodes": ["a", "b"], "edges": [["a", "b", true]]}',
            '{"nodes": ["a", "b"], "edges": [["a", "b", 1.5]]}',
            '{"nodes": "ab", "edges": []}',
            '{"nodes": ["a", "b"], "edges": [["a", ["b"], 1]]}',
            '{"nodes": ["a", "b"], "edges": [["a", "b", 1], ["b", "a", 1], ["a", "b", 2]]}',
        ],
    )
    def test_bad_json_rejected(self, text):
        with pytest.raises(ValueError):
            graph_from_json(text)

    def test_deeply_nested_json_rejected(self):
        with pytest.raises(ValueError, match="nested too deeply"):
            graph_from_json('{"nodes": ' + "[" * 100_000)

    @pytest.mark.parametrize(
        "text, error",
        [
            (
                "{bad",
                "invalid social graph JSON: Expecting property name enclosed in double quotes: line 1 column 2 (char 1)",
            ),
            ("[" * 100_000, "invalid social graph JSON: nested too deeply"),
        ],
        ids=["bad", "deep"],
    )
    def test_undecodable_json_message(self, text, error):
        with pytest.raises(ValueError) as caught:
            graph_from_json(text)
        assert type(caught.value) is ValueError
        assert str(caught.value) == error
