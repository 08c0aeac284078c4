"""Measurement loop: the CLI chain on one workload, repeated for a fixed time.

The chain is seven steps: ``build-log``, ``footprint``, ``mine``, ``social
--relation handover``, ``social --relation review`` and ``simulate``, each
through ``trailnet.cli.main`` in this process, then ``conform``, which
replays the probe log against the mined net. A warm-up pass comes first;
the checks in ``checks.py`` run on its outputs, and every later pass must
reproduce them byte for byte.

Untraced repetitions give the end-to-end metrics; a repetition's
``pipeline`` sample is the whole chain, back to back. Every step is
timed by the speed meter in ``speed.py``, and the end-to-end metrics are
medians of the scaled times; the report keeps the wall-time medians next
to them. Without tracing, a step shorter than ``MIN_SAMPLE_S`` runs
several times in a row, and its sample is the mean. With tracing on,
traced and untraced repetitions alternate, each step runs once, and the
traced ones give the per-layer metrics.
"""

from __future__ import annotations

import gc
import hashlib
import io
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

from trailnet import cli, eventlog, petri

import checks
import speed
import tracer as tracing
import workloads

STAGES = ("build_log", "footprint", "mine", "social_handover", "social_review", "simulate")
STEPS = (*STAGES, "conform")

END_TO_END = {
    "setup_s": "s",
    **{f"{step}_s": "s" for step in STEPS},
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer time metric -> the span names whose self times it sums.
LAYER_SPANS = {
    "reviews.parse_records_jsonl_s": ("reviews.parse_records_jsonl",),
    "reviews.build_log_s": ("reviews.build_log",),
    "eventlog.parse_csv_log_s": ("eventlog.parse_csv_log",),
    "eventlog.serialize_csv_log_s": ("eventlog.serialize_csv_log",),
    "relations.footprint_s": ("relations.footprint",),
    "relations.footprint_to_csv_s": ("relations.footprint_to_csv",),
    "alpha.alpha_s": ("alpha.alpha",),
    "alpha.candidate_pairs_s": ("alpha.candidate_pairs",),
    "alpha.maximal_pairs_s": ("alpha.maximal_pairs",),
    "alpha.intermediates_to_json_s": ("alpha.intermediates_to_json",),
    "petri.generate_traces_s": ("petri.generate_traces",),
    "petri.replay_s": ("petri.replay",),
    "petri.net_io_s": ("petri.net_from_json", "petri.to_json", "petri.to_dot"),
    "social.handover_of_work_s": ("social.handover_of_work",),
    "social.review_relation_s": ("social.review_relation",),
    "social.graph_io_s": ("social.graph_to_json", "social.graph_to_dot"),
    **{f"cli.self_s.{stage}": (f"cli.{stage}",) for stage in STAGES},
}

COUNTS = (
    "reviews.records",
    "reviews.cases",
    "eventlog.events",
    "eventlog.traces",
    "eventlog.variants",
    "relations.alphabet",
    "alpha.x_w",
    "alpha.y_w",
    "petri.generated_traces",
    "petri.generation_complete",
    "petri.replayed_traces",
    "petri.fitting_traces",
    "social.nodes",
    "social.edges",
)

PER_LAYER = {
    **{name: "s" for name in LAYER_SPANS},
    **{name: "count" for name in COUNTS},
    "eventlog.variants_per_trace": "ratio",
    "alpha.y_w_per_x_w": "ratio",
    "petri.fit_ratio": "ratio",
    "cli.input_bytes": "bytes",
    "cli.output_bytes": "bytes",
    "trace_overhead_s": "s",
    "failed_ops_ratio": "ratio",
}

HERE = Path(__file__).resolve().parent
# In a pass that gives end-to-end samples, a step that took less than this
# runs again, back to back, until its runs together take this long; its
# sample is their mean.
MIN_SAMPLE_S = 0.25
SETUP_PER_REPETITION = 2
SETUP_CODE = (
    "import time, speed; speed.calibrate(); before = speed.calibrate(); "
    "t = time.perf_counter(); import trailnet, trailnet.cli; t = time.perf_counter() - t; "
    "print(t, speed.scale(t, before, speed.calibrate()))"
)
PERCENTILES = (99, 95, 90, 75, 50)


@dataclass
class Chain:
    """One repetition: seconds per step, replay verdicts, and its operations."""

    times: dict[str, float] = field(default_factory=dict)  # wall
    scaled: dict[str, float] = field(default_factory=dict)  # see speed.py
    pass_s: float = 0.0  # wall time of the whole pass, repeats and marks included
    fits: dict[str, bool] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)


def setup_time(root: Path) -> tuple[float, float]:
    """Import time of ``trailnet`` and ``trailnet.cli`` in a fresh process: wall, scaled."""
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        env=dict(os.environ, PYTHONPATH=os.pathsep.join((str(root / "src"), str(HERE)))),
        capture_output=True, text=True, check=True, timeout=60,
    )
    wall, scaled = map(float, done.stdout.split())
    return wall, scaled


def conform(probe: Path, net_json: Path) -> dict[str, bool]:
    """Replay every probe trace against the net: the verdict on the whole log.

    Looks the library functions up at call time so that the tracer sees them.
    """
    log = eventlog.parse_csv_log(probe.read_text(encoding="utf-8"))
    net = petri.net_from_json(net_json.read_text(encoding="utf-8"))
    return {t.case_id: petri.replay(net, t.activities).fits for t in log.traces}


def _steps(w: workloads.Workload, workdir: Path, chain: Chain) -> list:
    """(step, span name, callable returning (ok, detail)) in chain order."""

    def command(argv):
        argv = [
            str(workdir / arg) if flag in ("--input", "--output") else arg
            for flag, arg in zip([None, *argv], argv)
        ]

        def step():
            sink = io.StringIO()
            with redirect_stdout(sink), redirect_stderr(sink):
                code = cli.main(argv)
            return code == 0, f"exit {code}: {sink.getvalue().strip()}"

        return step

    def replay_probe():
        try:
            chain.fits = conform(workdir / w.probe, workdir / "mined.net.json")
        except (OSError, ValueError, KeyError) as exc:
            return False, f"{type(exc).__name__}: {exc}"
        return True, ""

    steps = [(stage, f"cli.{stage}", command(argv)) for stage, argv in w.stages]
    return steps + [("conform", "conform", replay_probe)]


def run_chain(
    w: workloads.Workload,
    workdir: Path,
    tracer: tracing.Tracer | None = None,
    repeat_below: float = 0.0,
) -> Chain:
    """One pass; a step whose runs took less than ``repeat_below`` seconds runs again."""
    span = tracer.span if tracer else lambda name: nullcontext()
    chain = Chain()
    start = time.perf_counter()
    # Traced passes take no timer marks, which would count as layer time.
    with speed.Meter(None if tracer else speed.INTERVAL_S) as meter:
        first = meter.mark()
        for step, span_name, invoke in _steps(w, workdir, chain):
            began = time.perf_counter()
            runs = 0
            while True:
                with span(span_name):
                    ok, detail = invoke()
                runs += 1
                chain.attempted += 1
                if not ok:
                    chain.failures.append(f"command {step}: {detail}")
                if not ok or time.perf_counter() - began >= repeat_below:
                    break
            last = meter.mark()
            wall, scaled = meter.between(first, last)
            chain.times[step], chain.scaled[step] = wall / runs, scaled / runs
            first = last
    chain.pass_s = time.perf_counter() - start
    chain.times["pipeline"] = sum(chain.times[step] for step in STEPS)
    chain.scaled["pipeline"] = sum(chain.scaled[step] for step in STEPS)
    return chain


def outputs_digest(w: workloads.Workload, workdir: Path, chain: Chain) -> str:
    """sha256 over every file the chain wrote and over the replay verdicts."""
    digest = hashlib.sha256()
    for path in sorted(workdir.iterdir()):
        if path.name not in w.files:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
    digest.update(repr(sorted(chain.fits.items())).encode())
    return digest.hexdigest()


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count."""
    out = {"median": statistics.median(values), "n": len(values)}
    for p in PERCENTILES:
        if len(values) * (100 - p) / 100 >= 10:
            out[f"p{p}"] = statistics.quantiles(values, n=100)[p - 1]
            break
    return out


def accounting_ok(spans: list) -> tuple[bool, str]:
    """Self times are non-negative and add up to each top-level span."""
    own = tracing.self_times(spans)
    if min(own, default=0.0) < -1e-9:
        return False, "a child span outlasts its parent"
    for root, (name, start, end, parent) in enumerate(spans):
        if parent < 0:
            total = tracing.subtree_self_time(spans, root, own)
            if abs(total - (end - start)) > 1e-6:
                return False, f"{name}: self times {total} vs span {end - start}"
    return True, ""


def measure(w: workloads.Workload, workdir: Path, seconds: float, trace: bool, root: Path) -> dict:
    """Run the workload for ``seconds`` and return metrics plus a detailed report."""
    attempted = 0
    failures: list[str] = []

    def record(name: str, ok: bool, detail: str = "") -> None:
        nonlocal attempted
        attempted += 1
        if not ok:
            failures.append(f"{name}: {detail}")

    setup_time(root)  # warms the bytecode cache; not a sample
    setup: list[tuple[float, float]] = []
    for name, data in w.files.items():
        (workdir / name).write_bytes(data)

    def run(tracer=None, repeat_below=0.0) -> Chain:
        nonlocal attempted
        gc.collect()
        chain = run_chain(w, workdir, tracer, repeat_below)
        attempted += chain.attempted
        failures.extend(chain.failures)
        return chain

    # The warm-up counts against the run's seconds; a repetition starts
    # only when one as long as the last still fits before the deadline.
    deadline = time.perf_counter() + seconds
    warm = chain = run()
    reference = outputs_digest(w, workdir, warm)
    plain: list[Chain] = []
    traced: list[tuple[Chain, list, dict]] = []
    tracer = tracing.Tracer()
    while time.perf_counter() + chain.pass_s < deadline or not plain or (trace and not traced):
        if trace and len(traced) < len(plain):
            tracer.reset()
            with tracer.installed():
                chain = run(tracer)
            traced.append((chain, tracer.spans, tracer.counts))
            record("trace accounting", *accounting_ok(tracer.spans))
        else:
            # With tracing on, untraced passes run each step once, like
            # the traced passes they are compared with.
            chain = run(repeat_below=0.0 if trace else MIN_SAMPLE_S)
            plain.append(chain)
            if not trace:  # spread over the run like the chain samples
                setup.extend(setup_time(root) for _ in range(SETUP_PER_REPETITION))
        record("outputs equal the warm-up's", outputs_digest(w, workdir, chain) == reference)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    for name, (ok, detail) in checks.check_outputs(w, workdir, warm.fits).items():
        record(f"check {name}", ok, detail)

    timings = {f"{key}_s": summary([c.scaled[key] for c in plain]) for key in (*STEPS, "pipeline")}
    wall = {
        f"{key}_s": statistics.median(c.times[key] for c in plain) for key in (*STEPS, "pipeline")
    }
    report = {
        "workload": w.name,
        "inputs": w.input_record(),
        "repetitions": len(plain),
    }
    if trace:
        metrics = _per_layer(w, workdir, plain, traced)
        metrics["failed_ops_ratio"] = len(failures) / attempted
        report["traced_repetitions"] = len(traced)
        report["command_accounting"] = _accounting_report(plain, traced)
    else:
        timings["setup_s"] = summary([scaled for _, scaled in setup])
        wall["setup_s"] = statistics.median(wall_s for wall_s, _ in setup)
        metrics = {name: timings[name]["median"] for name in END_TO_END if name != "peak_rss_mb"}
        metrics["peak_rss_mb"] = peak_rss_mb
    report["timings"] = timings
    report["wall_medians"] = wall
    report["failures"] = failures
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
        "report": report,
    }


def _per_layer(w: workloads.Workload, workdir: Path, plain: list[Chain], traced: list) -> dict:
    layers = []
    for _, spans, _ in traced:
        by_name = tracing.self_time_by_name(spans)
        layers.append({m: sum(by_name[n] for n in names) for m, names in LAYER_SPANS.items()})
    metrics = {name: statistics.median(layer[name] for layer in layers) for name in LAYER_SPANS}
    counts = traced[0][2]
    metrics.update({name: counts.get(name, 0) for name in COUNTS})
    metrics["eventlog.variants_per_trace"] = _ratio(counts, "eventlog.variants", "eventlog.traces")
    metrics["alpha.y_w_per_x_w"] = _ratio(counts, "alpha.y_w", "alpha.x_w")
    metrics["petri.fit_ratio"] = _ratio(counts, "petri.fitting_traces", "petri.replayed_traces")
    inputs = [workdir / argv[argv.index("--input") + 1] for _, argv in w.stages]
    metrics["cli.input_bytes"] = sum(p.stat().st_size for p in inputs if p.exists())
    metrics["cli.output_bytes"] = sum(
        p.stat().st_size for p in workdir.iterdir() if p.name not in w.files
    )
    metrics["trace_overhead_s"] = statistics.median(
        c.scaled["pipeline"] for c, _, _ in traced
    ) - statistics.median(c.scaled["pipeline"] for c in plain)
    return metrics


def _ratio(counts: dict, num: str, den: str) -> float:
    return counts.get(num, 0) / counts[den] if counts.get(den) else 0.0


def _accounting_report(plain: list[Chain], traced: list) -> dict:
    """Per step: untraced time, traced time, and the self times inside its span.

    ``self_times_s`` is the step's span minus the tracer's own counting
    spans, so ``traced_s - self_times_s`` is what the tracer added inside
    the step. ``traced_s - untraced_s`` mixes that cost with run-to-run noise.
    """
    accounted: dict[str, list[float]] = {step: [] for step in STEPS}
    for _, spans, _ in traced:
        own = tracing.self_times(spans)
        for root, (name, start, end, parent) in enumerate(spans):
            if parent < 0:
                tracer_time = sum(
                    own[i] for i in range(root + 1, len(spans))
                    if spans[i][0] == tracing.COUNT_SPAN and start <= spans[i][1] <= end
                )
                accounted[name.removeprefix("cli.")].append(end - start - tracer_time)
    return {
        step: {
            "untraced_s": statistics.median(c.times[step] for c in plain),
            "traced_s": statistics.median(c.times[step] for c, _, _ in traced),
            "self_times_s": statistics.median(accounted[step]),
        }
        for step in STEPS
    }
