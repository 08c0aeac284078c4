"""Seeded input generators for the benchmark workloads.

Each generator turns a seed into the files the CLI chain reads, plus the
facts the correctness checks compare the program's outputs against. The
facts come from the generator's own construction of the inputs, never
from trailnet output.

Why each workload exists:

* ``review-ingest`` is the paper's real traffic: review records shaped by
  ``tests/reviewgen.py``. It is ingest-bound (``reviews`` + ``eventlog``),
  its alphabet has only 2 activities, so it bypasses any ``alpha`` or
  ``petri`` optimisation, and it has at most 63 variants, so a
  variant-indexed log pays off most here.
* ``wide-alphabet`` is the K8,8 causal relation: ``s0..s7`` each directly
  followed by some ``t0..t7``. It is alpha's exponential corner at the
  16-activity default limit, |X_W| = 65 025 for |Y_W| = 1.
* ``parallel-replay`` is ``a -> AND(b0..b7) -> z`` with uniformly shuffled
  ``b``s. It is ``petri``-bound (the 8! = 40 320-trace language and
  ten-event replays), and almost every variant is unique, so a variant
  cache is bypassed.

The two synthetic workloads are event logs, not review records. So that
``build-log`` and ``social --relation review`` are measured on every
workload, each also gets a small review-record rendering of its cases:
one record per case.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import random
from dataclasses import dataclass, field
from datetime import datetime, timedelta, timezone
from math import factorial

from tests.reviewgen import PEOPLE, random_records
from trailnet.petri import WorkflowNet

WORKLOADS = ("review-ingest", "wide-alphabet", "parallel-replay")

# Sizes. review-ingest keeps at least 6 400 cases, so that its at most
# 63 variants stay below 1% of its traces for every seed.
REVIEW_CASES = 8_000
REVIEW_MAX_COMMENTS = 6
WIDE_CASES = 5_000
WIDE_SIDE = 8
PARALLEL_CASES = 5_000
PARALLEL_BRANCHES = 8
DROPPED_SHARE = 0.1  # share of synthetic probe traces with one event removed
MAX_TRACES = 100_000  # simulate's trace cap, far above every language here

INITIATOR = "review:initiator"
RESPONDER = "review:responder"
BASE_TIME = datetime(2012, 5, 3, 8, 0, 0, tzinfo=timezone.utc)


@dataclass
class Workload:
    """Generated input files and what the checks know about them."""

    name: str
    files: dict[str, bytes]
    stages: list[tuple[str, list[str]]]
    built_log: str
    probe: str
    record_count: int
    sequences: dict[str, tuple[str, ...]]
    probe_sequences: dict[str, tuple[str, ...]]
    handover_weight: int
    review_weight: int
    dropped: int = 0
    net: WorkflowNet | None = None
    x_w: int | None = None
    y_w: int | None = None
    language_size: int | None = None
    sizes: dict = field(default_factory=dict)

    def input_record(self) -> dict:
        """Input sizes and the sha256 of every generated file."""
        return {
            "sizes": self.sizes,
            "bytes": {name: len(data) for name, data in sorted(self.files.items())},
            "sha256": {
                name: hashlib.sha256(data).hexdigest() for name, data in sorted(self.files.items())
            },
        }


def generate(name: str, seed: int) -> Workload:
    if name == "review-ingest":
        return review_ingest(seed)
    if name == "wide-alphabet":
        return wide_alphabet(seed)
    if name == "parallel-replay":
        return parallel_replay(seed)
    raise ValueError(f"unknown workload {name!r}, expected one of {', '.join(WORKLOADS)}")


def _stamp(instant: datetime) -> str:
    return instant.strftime("%Y-%m-%dT%H:%M:%SZ")


def _jsonl(rows: list[dict]) -> bytes:
    return "".join(json.dumps(row) + "\n" for row in rows).encode()


def _log_csv(cases: list[tuple[str, list[tuple[str, str]]]]) -> bytes:
    """Untimestamped event-log CSV from (case id, [(activity, originator)])."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(("case_id", "activity", "originator", "timestamp"))
    for case_id, events in cases:
        for activity, originator in events:
            writer.writerow((case_id, activity, originator, ""))
    return out.getvalue().encode()


def _handovers(people: list[str]) -> int:
    return sum(1 for a, b in zip(people, people[1:]) if a != b)


def _stages(records_log: str, longest: int) -> list[tuple[str, list[str]]]:
    """The CLI chain as (metric stem, argv), paths relative to the work dir."""
    return [
        ("build_log", ["build-log", "--input", "reviews.jsonl", "--output", records_log,
                       "--strategy", "artifact"]),
        ("footprint", ["footprint", "--input", "log.csv", "--output", "footprint.csv"]),
        ("mine", ["mine", "--input", "log.csv", "--output", "mined"]),
        ("social_handover", ["social", "--input", "log.csv", "--output", "handover",
                             "--relation", "handover"]),
        ("social_review", ["social", "--input", "reviews.jsonl", "--output", "review",
                           "--relation", "review"]),
        ("simulate", ["simulate", "--input", "mined.net.json", "--output", "traces.json",
                      "--max-length", str(longest), "--max-traces", str(MAX_TRACES)]),
    ]


def _sizes(workload: Workload, records: int) -> dict:
    events = sum(len(s) for s in workload.sequences.values())
    return {
        "records": records,
        "cases": len(workload.sequences),
        "events": events,
        "variants": len(set(workload.sequences.values())),
        "alphabet": len({a for s in workload.sequences.values() for a in s}),
        "probe_traces": len(workload.probe_sequences),
        "probe_dropped": workload.dropped,
    }


def review_ingest(seed: int, n_cases: int = REVIEW_CASES) -> Workload:
    """``tests/reviewgen.py`` records as timestamped JSONL; the probe is the built log."""
    records = random_records(random.Random(seed), n_cases=n_cases,
                             max_comments=REVIEW_MAX_COMMENTS)
    rows = [
        {
            "artifact_id": r.artifact_id,
            "submitter": r.submitter,
            "reviewer": r.reviewer,
            "comment": r.comment,
            "timestamp": _stamp(r.timestamp),
            "thread_id": r.thread_id,
            "topic": r.topic,
        }
        for r in records
    ]
    # Independent re-derivation of the artifact grouping: cases in id
    # order, records by timestamp (ties keep input order), the first
    # reviewer of a case is its initiator.
    by_case: dict[str, list] = {}
    for r in records:
        by_case.setdefault(r.artifact_id, []).append(r)
    sequences = {}
    handover = 0
    for case_id in sorted(by_case):
        ordered = sorted(by_case[case_id], key=lambda r: r.timestamp)
        opener = ordered[0].reviewer
        sequences[case_id] = tuple(
            INITIATOR if r.reviewer == opener else RESPONDER for r in ordered
        )
        handover += _handovers([r.reviewer for r in ordered])
    workload = Workload(
        name="review-ingest",
        files={"reviews.jsonl": _jsonl(rows)},
        stages=_stages("log.csv", max(len(s) for s in sequences.values())),
        built_log="log.csv",
        probe="log.csv",
        record_count=len(records),
        sequences=sequences,
        probe_sequences=sequences,
        handover_weight=handover,
        review_weight=sum(1 for r in records if r.reviewer != r.submitter),
    )
    workload.sizes = _sizes(workload, len(records))
    return workload


def _synthetic(
    name: str,
    rng: random.Random,
    traces: list[list[str]],
    net: WorkflowNet,
    x_w: int,
    y_w: int,
    language_size: int,
) -> Workload:
    """Log CSV, probe CSV and one-record-per-case JSONL for a synthetic log."""
    rng.shuffle(traces)
    cases = []
    rows = []
    handover = 0
    review = 0
    for i, activities in enumerate(traces):
        case_id = f"case-{i:05d}"
        people = [rng.choice(PEOPLE) for _ in activities]
        cases.append((case_id, list(zip(activities, people))))
        handover += _handovers(people)
        submitter = rng.choice(PEOPLE)
        review += people[0] != submitter
        rows.append(
            {
                "artifact_id": case_id,
                "submitter": submitter,
                "reviewer": people[0],
                "comment": " ".join(activities),
                "timestamp": _stamp(BASE_TIME + timedelta(seconds=rng.randrange(7_000_000))),
            }
        )
    dropped = set(rng.sample(range(len(cases)), round(DROPPED_SHARE * len(cases))))
    probe_cases = []
    for i, (case_id, events) in enumerate(cases):
        if i in dropped:
            events = list(events)
            del events[rng.randrange(len(events))]
        probe_cases.append((case_id, events))
    workload = Workload(
        name=name,
        files={
            "log.csv": _log_csv(cases),
            "probe.csv": _log_csv(probe_cases),
            "reviews.jsonl": _jsonl(rows),
        },
        stages=_stages("records.csv", max(len(t) for t in traces)),
        built_log="records.csv",
        probe="probe.csv",
        record_count=len(rows),
        sequences={c: tuple(a for a, _ in events) for c, events in cases},
        probe_sequences={c: tuple(a for a, _ in events) for c, events in probe_cases},
        handover_weight=handover,
        review_weight=review,
        dropped=len(dropped),
        net=net,
        x_w=x_w,
        y_w=y_w,
        language_size=language_size,
    )
    workload.sizes = _sizes(workload, len(rows))
    return workload


def wide_alphabet(seed: int) -> Workload:
    """Two-event cases ``s_i t_j``; the first 64 cover every (i, j) pair."""
    rng = random.Random(seed)
    side = range(WIDE_SIDE)
    pairs = [(i, j) for i in side for j in side]
    pairs += [(rng.randrange(WIDE_SIDE), rng.randrange(WIDE_SIDE))
              for _ in range(WIDE_CASES - len(pairs))]
    sources = [f"s{i}" for i in side]
    targets = [f"t{j}" for j in side]
    arcs = {("i", s) for s in sources} | {(s, "p") for s in sources}
    arcs |= {("p", t) for t in targets} | {(t, "o") for t in targets}
    net = WorkflowNet(frozenset({"i", "p", "o"}), frozenset(sources + targets),
                      frozenset(arcs), "i", "o")
    return _synthetic(
        "wide-alphabet",
        rng,
        [[f"s{i}", f"t{j}"] for i, j in pairs],
        net,
        x_w=(2**WIDE_SIDE - 1) ** 2,
        y_w=1,
        language_size=WIDE_SIDE**2,
    )


def parallel_replay(seed: int) -> Workload:
    """``a``, then ``b0..b7`` in a uniformly shuffled order, then ``z``."""
    rng = random.Random(seed)
    branches = [f"b{k}" for k in range(PARALLEL_BRANCHES)]
    traces = []
    for _ in range(PARALLEL_CASES):
        order = list(branches)
        rng.shuffle(order)
        traces.append(["a", *order, "z"])
    places = {"i", "o"}
    arcs = {("i", "a"), ("z", "o")}
    for b in branches:
        places |= {f"p_{b}", f"q_{b}"}
        arcs |= {("a", f"p_{b}"), (f"p_{b}", b), (b, f"q_{b}"), (f"q_{b}", "z")}
    net = WorkflowNet(frozenset(places), frozenset(["a", "z", *branches]),
                      frozenset(arcs), "i", "o")
    return _synthetic(
        "parallel-replay",
        rng,
        traces,
        net,
        x_w=2 * PARALLEL_BRANCHES,
        y_w=2 * PARALLEL_BRANCHES,
        language_size=factorial(PARALLEL_BRANCHES),
    )
