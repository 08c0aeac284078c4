"""The package's public names: any change to them shows up as an edit here."""

from __future__ import annotations

import trailnet

PUBLIC_NAMES = [
    "AlphaIntermediates",
    "AlphabetLimitError",
    "ByArtifact",
    "ByCommit",
    "ByThread",
    "ByTopic",
    "CaseStrategy",
    "DanglingActivityWarning",
    "EventLog",
    "FootprintMatrix",
    "LogError",
    "LogParseError",
    "NetStructureError",
    "RecordError",
    "RecordParseError",
    "Relation",
    "ReplayResult",
    "ReviewRecord",
    "SocialGraph",
    "Trace",
    "TraceGenerationResult",
    "TraceLog",
    "WorkflowNet",
    "alpha",
    "build_log",
    "candidate_pairs",
    "footprint",
    "footprint_to_csv",
    "generate_traces",
    "graph_from_json",
    "graph_to_dot",
    "graph_to_json",
    "handover_of_work",
    "intermediates_to_json",
    "isomorphic",
    "log_from_sequences",
    "maximal_pairs",
    "net_from_json",
    "parse_csv_log",
    "parse_records_jsonl",
    "replay",
    "review_relation",
    "serialize_csv_log",
    "time_window_filter",
    "to_dot",
    "to_json",
]


def test_public_names():
    assert sorted(trailnet.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(trailnet, name) is not None
