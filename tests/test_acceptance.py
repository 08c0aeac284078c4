"""Acceptance suite: one test per shipping criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -rA`` to see one PASS line
per criterion.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

import trailnet
from trailnet.alpha import alpha
from trailnet.eventlog import log_from_sequences, serialize_csv_log
from trailnet.petri import generate_traces, isomorphic, replay
from trailnet.relations import Relation, footprint
from trailnet.reviews import ByArtifact, build_log
from trailnet.social import handover_of_work, review_relation

from .conftest import SAMPLE_SEQUENCES
from .netgen import random_structured_net
from .oracles import brute_force_candidate_pairs, brute_force_maximal, naive_footprint_cells
from .reviewgen import random_records

EXPECTED_SUCCESSIONS = {
    ("A", "B"), ("A", "C"), ("A", "E"), ("B", "C"),
    ("B", "D"), ("C", "B"), ("C", "D"), ("E", "D"),
}
EXPECTED_CAUSAL = {("A", "B"), ("A", "C"), ("A", "E"), ("B", "D"), ("C", "D"), ("E", "D")}
EXPECTED_Y = frozenset(
    (frozenset(a), frozenset(b))
    for a, b in [("A", "BE"), ("A", "CE"), ("BE", "D"), ("CE", "D")]
)


def _passed(number: int, detail: str) -> None:
    print(f"ACCEPTANCE criterion {number}: PASS ({detail})")


def test_criterion_1_worked_example_relations(sample_log):
    started = time.perf_counter()
    matrix = footprint(sample_log)
    succ = matrix.succession
    causal = {pair for pair, rel in matrix.cells.items() if rel is Relation.CAUSAL_FORWARD}
    elapsed = time.perf_counter() - started

    assert succ == EXPECTED_SUCCESSIONS
    assert causal == EXPECTED_CAUSAL
    assert matrix.relation("B", "C") is Relation.PARALLEL
    assert elapsed < 1.0
    _passed(1, f"8 successions, 6 causal pairs, B||C in {elapsed:.3f}s")


def test_criterion_2_alpha_end_to_end(sample_log):
    started = time.perf_counter()
    net, intermediates = alpha(sample_log)
    matrix = footprint(sample_log)
    oracle_x = brute_force_candidate_pairs(matrix)
    oracle_y = brute_force_maximal(oracle_x)
    elapsed = time.perf_counter() - started

    assert len(net.transitions) == 5
    assert len(net.places) == 6
    assert len(net.arcs) == 14
    assert intermediates.y_w == EXPECTED_Y
    assert intermediates.x_w == oracle_x
    assert intermediates.y_w == oracle_y
    assert elapsed < 1.0
    _passed(2, f"5 transitions / 6 places / 14 arcs, Y_W oracle-matched in {elapsed:.3f}s")


def test_criterion_3_language_equality(sample_log, sample_net):
    result = generate_traces(sample_net, max_length=10, max_traces=100)
    assert result.complete
    assert result.traces == tuple(sorted(tuple(s) for s in SAMPLE_SEQUENCES))
    for sequence in [t.activities for t in sample_log.traces]:
        outcome = replay(sample_net, sequence)
        assert outcome.fits
        assert outcome.consumed_missing == 0
        assert outcome.produced_remaining == 0
    _passed(3, "mined net generates exactly the three input traces; all replays fit")


def test_criterion_4_rediscovery_suite():
    rng = random.Random(2012)
    runs = 100
    started = time.perf_counter()
    for _ in range(runs):
        net = random_structured_net(rng, max_transitions=8)
        language = generate_traces(net, max_length=10, max_traces=50_000)
        assert language.complete, "structured nets are loop-free; search must finish"
        mined, _ = alpha(log_from_sequences(sorted(language.traces)))
        assert isomorphic(mined, net)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    _passed(4, f"{runs}/{runs} structured nets rediscovered in {elapsed:.1f}s")


def test_criterion_5_footprint_partition_property():
    rng = random.Random(404)
    runs = 1000
    for _ in range(runs):
        alphabet_size = rng.randint(1, 6)
        names = "ABCDEF"[:alphabet_size]
        sequences = [
            [rng.choice(names) for _ in range(rng.randint(1, 10))]
            for _ in range(rng.randint(1, 20))
        ]
        log = log_from_sequences(sequences)
        matrix = footprint(log)
        grid = {(a, b) for a in matrix.alphabet for b in matrix.alphabet}
        assert set(matrix.cells) == grid
        assert all(isinstance(rel, Relation) for rel in matrix.cells.values())
        assert dict(matrix.cells) == naive_footprint_cells(sequences, matrix.alphabet)
    _passed(5, f"{runs} random logs: one tag per pair, matches naive recomputation")


def test_criterion_6_review_log_contract():
    # The published study window (May-July 2012 OpenStack reviews) has no
    # public dataset, so no reproduction is attempted; this randomized
    # property suite substitutes for those figures.
    package_dir = Path(trailnet.__file__).parent
    bundled_data = [p for p in package_dir.rglob("*") if p.suffix in {".csv", ".jsonl", ".xes"}]
    assert bundled_data == [], "no review dataset ships with the package"

    rng = random.Random(777)
    cases = 60
    records = random_records(rng, n_cases=cases)
    trace_log = build_log(records, ByArtifact())

    assert len(trace_log.log.traces) == cases
    assert sum(len(t.activities) for t in trace_log.log.traces) == len(records)

    openers = {}
    for rec in sorted(records, key=lambda r: r.timestamp):
        openers.setdefault(rec.artifact_id, rec.reviewer)
    for trace in trace_log.log.traces:
        events = list(zip(trace.activities, trace.originators))
        initiators = {o for a, o in events if a.endswith(":initiator")}
        responders = {o for a, o in events if a.endswith(":responder")}
        assert initiators == {openers[trace.case_id]}
        assert openers[trace.case_id] not in responders

    again = build_log(list(records), ByArtifact())
    assert serialize_csv_log(again.log) == serialize_csv_log(trace_log.log)
    _passed(6, f"{cases} randomized cases: single initiator, counts conserved, byte-stable")


def test_criterion_7_social_graph_conservation():
    rng = random.Random(99)
    for _ in range(20):
        records = random_records(rng, n_cases=rng.randint(5, 40))
        log = build_log(records, ByArtifact()).log

        handover = handover_of_work(log)
        expected_handover = sum(
            1
            for trace in log.traces
            for a, b in zip(trace.originators, trace.originators[1:])
            if a != b
        )
        assert sum(handover.edges.values()) == expected_handover

        review = review_relation(records)
        tally: dict[tuple[str, str], int] = {}
        for rec in records:
            if rec.submitter and rec.reviewer != rec.submitter:
                key = (rec.reviewer, rec.submitter)
                tally[key] = tally.get(key, 0) + 1
        assert dict(review.edges) == tally
    _passed(7, "handover and review weights equal brute-force tallies on 20 corpora")
