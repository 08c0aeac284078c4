"""The package's public names: any change to them shows up as an edit here."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

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


def test_import_loads_no_class_building_machinery():
    """Every CLI call first imports the package: that import loads all of
    its modules, and neither dataclasses nor inspect, which cost more to
    import than the modules themselves."""
    probe = (
        "import sys, trailnet, trailnet.cli\n"
        "print(' '.join(sorted(m for m in sys.modules"
        " if m.startswith('trailnet') or m in ('dataclasses', 'inspect'))))"
    )
    src = Path(trailnet.__file__).resolve().parent.parent
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert done.stdout.split() == [
        "trailnet",
        *(f"trailnet.{m}" for m in ("alpha", "cli", "eventlog", "petri", "relations", "reviews", "social")),
    ]
