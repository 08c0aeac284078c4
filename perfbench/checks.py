"""Correctness checks on the outputs of one run of the CLI chain.

Every check compares a program output with a fact the workload generator
derived on its own, or with an independent oracle from ``tests/oracles.py``.
Each check is one operation; a check that raises counts as failed.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from tests.oracles import naive_footprint_cells
from trailnet.eventlog import parse_csv_log, serialize_csv_log
from trailnet.petri import isomorphic, net_from_json
from trailnet.relations import Relation

import workloads


def _read(workdir: Path, name: str) -> str:
    return (workdir / name).read_text(encoding="utf-8")


def _graph_weight(workdir: Path, prefix: str) -> int:
    payload = json.loads(_read(workdir, prefix + ".graph.json"))
    return sum(weight for _, _, weight in payload["edges"])


def _footprint_cells(text: str) -> tuple[list[str], dict]:
    rows = list(csv.reader(io.StringIO(text)))
    names = rows[0][1:]
    cells = {}
    for row in rows[1:]:
        for b, symbol in zip(names, row[1:], strict=True):
            cells[(row[0], b)] = Relation(symbol)
    return names, cells


def _language(workdir: Path) -> tuple[bool, set[tuple[str, ...]]]:
    payload = json.loads(_read(workdir, "traces.json"))
    return payload["complete"], {tuple(t) for t in payload["traces"]}


def check_outputs(
    w: workloads.Workload, workdir: Path, fits: dict[str, bool]
) -> dict[str, tuple[bool, str]]:
    """Run every check that applies to ``w``: name -> (ok, detail)."""
    def build_log_roundtrip():
        text = _read(workdir, w.built_log)
        return serialize_csv_log(parse_csv_log(text)) == text, f"{len(text)} bytes"

    def build_log_record_count():
        meta = json.loads(_read(workdir, w.built_log + ".meta.json"))
        return meta["record_count"] == w.record_count, f"{meta['record_count']} vs {w.record_count}"

    def footprint_oracle():
        names, cells = _footprint_cells(_read(workdir, "footprint.csv"))
        alphabet = sorted({a for s in w.sequences.values() for a in s})
        expected = naive_footprint_cells(list(set(w.sequences.values())), alphabet)
        return names == alphabet and cells == expected, f"{len(alphabet)} activities"

    def handover_weight():
        got = _graph_weight(workdir, "handover")
        return got == w.handover_weight, f"{got} vs {w.handover_weight}"

    def review_weight():
        got = _graph_weight(workdir, "review")
        return got == w.review_weight, f"{got} vs {w.review_weight}"

    def mined_net_isomorphic():
        return isomorphic(net_from_json(_read(workdir, "mined.net.json")), w.net), "generating net"

    def alpha_sets():
        payload = json.loads(_read(workdir, "mined.alpha.json"))
        got = (len(payload["X_W"]), len(payload["Y_W"]))
        return got == (w.x_w, w.y_w), f"|X_W|, |Y_W| = {got} vs {(w.x_w, w.y_w)}"

    def simulate_language():
        complete, traces = _language(workdir)
        if w.language_size is None:
            # Only the length bound may cut the search, never the trace cap.
            return len(traces) < workloads.MAX_TRACES, f"{len(traces)} traces"
        ok = complete and len(traces) == w.language_size
        return ok, f"{len(traces)} traces, complete={complete}"

    def conform_matches_language():
        # simulate's length bound is the longest probe trace, so its
        # trace set is the whole language up to that length.
        _, language = _language(workdir)
        wrong = [c for c, seq in w.probe_sequences.items() if fits.get(c) != (seq in language)]
        fitting = sum(fits.values())
        return not wrong and len(fits) == len(w.probe_sequences), (
            f"{fitting} of {len(fits)} fit, {len(wrong)} disagree with the language"
        )

    def conform_fit_count():
        fitting = sum(fits.values())
        expected = len(w.probe_sequences) - w.dropped
        return fitting == expected, f"{fitting} vs {expected} undropped"

    checks = {
        "build_log_roundtrip": build_log_roundtrip,
        "build_log_record_count": build_log_record_count,
        "footprint_oracle": footprint_oracle,
        "handover_weight": handover_weight,
        "review_weight": review_weight,
        "simulate_language": simulate_language,
        "conform_matches_language": conform_matches_language,
    }
    if w.net is not None:
        checks["mined_net_isomorphic"] = mined_net_isomorphic
        checks["alpha_sets"] = alpha_sets
        checks["conform_fit_count"] = conform_fit_count
    results = {}
    for name, check in checks.items():
        try:
            results[name] = check()
        except Exception as exc:  # a malformed output fails its check, not the run
            results[name] = (False, f"{type(exc).__name__}: {exc}")
    return results
