from __future__ import annotations

import csv
import io

import pytest
from hypothesis import given, strategies as st

from trailnet.eventlog import EventLog, log_from_sequences
from trailnet.relations import (
    FootprintMatrix,
    Relation,
    footprint,
    footprint_to_csv,
)

from .oracles import naive_footprint_cells

SAMPLE_SUCCESSIONS = {
    ("A", "B"),
    ("A", "C"),
    ("A", "E"),
    ("B", "C"),
    ("B", "D"),
    ("C", "B"),
    ("C", "D"),
    ("E", "D"),
}

SAMPLE_CAUSAL = {("A", "B"), ("A", "C"), ("A", "E"), ("B", "D"), ("C", "D"), ("E", "D")}

SAMPLE_FOOTPRINT_CSV = (
    ",A,B,C,D,E\n"
    "A,#,->,->,#,->\n"
    "B,<-,#,||,->,#\n"
    "C,<-,||,#,->,#\n"
    "D,#,<-,<-,#,<-\n"
    "E,<-,#,#,->,#\n"
)

# Random activity sequences over a small alphabet; exercises every relation.
_small_logs = st.lists(
    st.lists(st.sampled_from("ABCDEF"), min_size=1, max_size=10), min_size=0, max_size=20
).map(log_from_sequences)


class TestDirectSuccession:
    def test_sample_log(self, sample_log):
        assert footprint(sample_log).succession == SAMPLE_SUCCESSIONS

    def test_single_event_trace_has_no_pairs(self):
        assert footprint(log_from_sequences(["A"])).succession == frozenset()

    def test_repetition_yields_self_pair(self):
        assert footprint(log_from_sequences(["AA"])).succession == {("A", "A")}


class TestFootprint:
    def test_sample_causal_pairs(self, sample_log):
        matrix = footprint(sample_log)
        causal = {p for p, rel in matrix.cells.items() if rel is Relation.CAUSAL_FORWARD}
        assert causal == SAMPLE_CAUSAL

    def test_sample_parallel_cell(self, sample_log):
        matrix = footprint(sample_log)
        assert matrix.relation("B", "C") is Relation.PARALLEL
        assert matrix.relation("C", "B") is Relation.PARALLEL

    def test_sample_full_matrix(self, sample_log):
        # Brute-force evaluation of the definitions over all 25 ordered pairs.
        matrix = footprint(sample_log)
        sequences = [t.activities for t in sample_log.traces]
        expected = naive_footprint_cells(sequences, matrix.alphabet)
        assert dict(matrix.cells) == expected

    def test_self_pair_from_repetition_is_parallel(self):
        matrix = footprint(log_from_sequences(["AA"]))
        assert matrix.relation("A", "A") is Relation.PARALLEL

    def test_relation_lookup(self, sample_log):
        matrix = footprint(sample_log)
        assert matrix.relation("A", "B") is Relation.CAUSAL_FORWARD
        assert matrix.relation("B", "A") is Relation.CAUSAL_BACKWARD
        assert matrix.relation("A", "A") is Relation.UNRELATED
        assert matrix.relation("A", "D") is Relation.UNRELATED

    def test_relation_unknown_activity(self, sample_log):
        matrix = footprint(sample_log)
        with pytest.raises(KeyError, match="Z"):
            matrix.relation("A", "Z")
        with pytest.raises(KeyError, match="Z"):
            matrix.relation("Z", "A")

    def test_empty_log(self):
        matrix = footprint(EventLog(()))
        assert matrix.alphabet == ()
        assert dict(matrix.cells) == {}

    @given(_small_logs)
    def test_matches_naive_recomputation(self, log):
        matrix = footprint(log)
        sequences = [t.activities for t in log.traces]
        assert dict(matrix.cells) == naive_footprint_cells(sequences, matrix.alphabet)

    @given(_small_logs)
    def test_partition_and_symmetry(self, log):
        matrix = footprint(log)
        for a in matrix.alphabet:
            for b in matrix.alphabet:
                rel = matrix.relation(a, b)
                mirror = matrix.relation(b, a)
                if rel is Relation.CAUSAL_FORWARD:
                    assert mirror is Relation.CAUSAL_BACKWARD
                elif rel is Relation.CAUSAL_BACKWARD:
                    assert mirror is Relation.CAUSAL_FORWARD
                else:
                    assert mirror is rel

    @given(_small_logs, st.randoms(use_true_random=False))
    def test_invariant_under_trace_reorder_and_duplication(self, log, rng):
        shuffled = [t.activities for t in log.traces]
        rng.shuffle(shuffled)
        doubled = shuffled + shuffled
        assert footprint(log_from_sequences(doubled)).cells == footprint(log).cells


class TestMatrixValidation:
    def test_cells_must_cover_grid(self):
        with pytest.raises(ValueError, match="outside the alphabet"):
            FootprintMatrix(("A", "B"), frozenset({("A", "C")}))

    def test_mirror_symmetry_enforced(self):
        matrix = FootprintMatrix(("A", "B"), {("A", "B")})
        assert matrix.relation("A", "B") is Relation.CAUSAL_FORWARD
        assert matrix.relation("B", "A") is Relation.CAUSAL_BACKWARD

    def test_cells_built_on_first_use(self, sample_log):
        matrix = footprint(sample_log)
        assert "cells" not in vars(matrix)
        assert matrix.cells is matrix.cells
        with pytest.raises(TypeError):
            matrix.cells[("A", "B")] = Relation.UNRELATED


class TestCsvExport:
    def test_sample_grid_bytes(self, sample_log):
        assert footprint_to_csv(footprint(sample_log)) == SAMPLE_FOOTPRINT_CSV

    def test_deterministic(self, sample_log):
        assert footprint_to_csv(footprint(sample_log)) == footprint_to_csv(footprint(sample_log))

    def test_line_breaks_in_names_round_trip(self):
        names = ["a\rb", "c\nd", "e\r\nf", 'g"h']
        matrix = footprint(log_from_sequences([names]))
        rows = list(csv.reader(io.StringIO(footprint_to_csv(matrix), newline="")))
        assert rows[0] == ["", *sorted(names)]
        assert [row[0] for row in rows[1:]] == sorted(names)

    def test_empty_log_grid(self):
        # lone corner cell: csv renders a single empty field as ""
        assert footprint_to_csv(footprint(EventLog(()))) == '""\n'
