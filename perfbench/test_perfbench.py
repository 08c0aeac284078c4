"""Tests for the benchmark's own code: inputs, workload properties, counting."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from math import factorial
from pathlib import Path

import pytest

from trailnet import alpha, candidate_pairs, footprint, generate_traces, log_from_sequences
import trailnet.cli

import harness
import speed
import tracer as tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def generated(request):
    return workloads.generate(request.param, 7)


def test_same_seed_gives_identical_inputs(generated):
    again = workloads.generate(generated.name, 7)
    assert again.files == generated.files
    assert again.input_record() == generated.input_record()
    assert workloads.generate(generated.name, 8).files != generated.files


def test_review_ingest_is_few_variants_over_two_activities():
    sizes = workloads.generate("review-ingest", 7).sizes
    assert sizes["alphabet"] == 2
    assert sizes["variants"] / sizes["cases"] < 0.01


def test_wide_alphabet_enumerates_65025_candidate_pairs():
    w = workloads.generate("wide-alphabet", 7)
    log = log_from_sequences(w.sequences.values())
    assert w.sizes["alphabet"] == 16
    assert len(candidate_pairs(footprint(log))) == w.x_w == 65_025


def test_parallel_replay_has_the_complete_language_and_unique_variants():
    w = workloads.generate("parallel-replay", 7)
    net, _ = alpha(log_from_sequences(w.sequences.values()))
    language = generate_traces(net, max_length=10, max_traces=workloads.MAX_TRACES)
    assert language.complete and len(language.traces) == factorial(8) == w.language_size
    assert w.sizes["variants"] / w.sizes["cases"] > 0.5


def test_self_times_subtract_direct_children():
    spans = [["cmd", 0.0, 10.0, -1], ["a", 1.0, 4.0, 0], ["b", 2.0, 3.0, 1], ["c", 5.0, 6.0, 0]]
    assert tracing.self_times(spans) == [6.0, 2.0, 1.0, 1.0]
    assert tracing.subtree_self_time(spans, 0, tracing.self_times(spans)) == 10.0
    assert harness.accounting_ok(spans) == (True, "")


def test_meter_scales_each_stretch_by_the_loop_times_at_its_ends():
    meter = speed.Meter(None)
    r = speed.REFERENCE_S
    meter.marks = [(0.0, 1.0, r), (3.0, 4.0, 4 * r), (6.0, 7.0, r)]
    assert meter.between(0, 2) == (4.0, 2.0 / 2 + 2.0 / 2)
    assert meter.between(1, 2) == (2.0, 1.0)


def test_meter_marks_inside_a_step_and_leaves_the_loop_out():
    with speed.Meter(0.05) as meter:
        first = meter.mark()
        began = time.perf_counter()
        while time.perf_counter() - began < 0.3:
            pass
        last = meter.mark()
    wall, scaled = meter.between(first, last)
    step = meter.marks[last][0] - meter.marks[first][1]
    assert last - first >= 3  # timer marks between the two taken by hand
    assert step >= 0.3 and wall < step
    assert scaled > 0


def _small(seed: int = 3) -> workloads.Workload:
    return workloads.review_ingest(seed, n_cases=150)


def test_traced_run_passes_every_check_and_reports_every_layer_metric(tmp_path):
    result = harness.measure(_small(), tmp_path, 0, True, ROOT)
    assert result["failed"] == 0, result["report"]["failures"]
    assert set(result["metrics"]) == set(harness.PER_LAYER)
    assert result["metrics"]["relations.alphabet"] == 2


def test_truncated_csv_counts_as_failed_operation(tmp_path, monkeypatch):
    serialize = trailnet.cli.serialize_csv_log
    monkeypatch.setattr(trailnet.cli, "serialize_csv_log", lambda log: serialize(log)[:-5])
    result = harness.measure(_small(), tmp_path, 0, True, ROOT)
    assert not result["correct"] and result["failed"] > 0
    failures = result["report"]["failures"]
    assert any(f.startswith("check build_log_roundtrip") for f in failures)
    assert any(f.startswith("command footprint") for f in failures)
    assert result["metrics"]["failed_ops_ratio"] == result["failed"] / result["attempted"]


def test_exits_without_result_outside_a_checkout(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "review-ingest", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""


def test_benchmark_json_names_the_harness_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER
