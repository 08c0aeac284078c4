"""Command-line pipeline: review records -> event log -> nets, footprints, graphs.

One subcommand per pipeline stage so every artifact stays independently
inspectable. Errors land on stderr as a single JSON line; exit codes are
0 success, 1 I/O or parse failure, 2 invalid configuration, 3 alphabet
limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path
from typing import Sequence

from .alpha import (
    DEFAULT_ALPHABET_LIMIT,
    AlphabetLimitError,
    _json_list,
    alpha,
    intermediates_to_json,
)
from .eventlog import LogError, parse_csv_log, parse_timestamp, serialize_csv_log
from .petri import _net_from_payload, generate_traces, net_from_json, to_dot, to_json
from .relations import footprint, footprint_to_csv
from .reviews import (
    ByArtifact,
    ByCommit,
    ByThread,
    ByTopic,
    CaseStrategy,
    build_log,
    metadata_json,
    parse_records_jsonl,
    time_window_filter,
)
from .social import (
    _graph_from_payload,
    graph_from_json,
    graph_to_dot,
    graph_to_json,
    handover_of_work,
    review_relation,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_CONFIG = 2
EXIT_ALPHABET = 3

ALPHABET_LIMIT_ENV = "TRAILNET_ALPHABET_LIMIT"

_STRATEGIES = {
    "artifact": ByArtifact,
    "thread": ByThread,
    "topic": ByTopic,
    "commit": ByCommit,
}


class ConfigError(Exception):
    """The requested run configuration is invalid."""


@dataclass(frozen=True)
class RunConfig:
    """Validated invocation: command, paths, and command-specific knobs."""

    command: str
    input_path: Path
    output_path: Path
    strategy: CaseStrategy | None = None
    window: tuple[datetime, datetime] | None = None
    bounds: tuple[int, int] | None = None
    relation: str | None = None
    format: str | None = None


def _emit_error(code: int, message: str) -> None:
    print(json.dumps({"code": code, "error": message}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one machine-readable line instead of usage text
        _emit_error(EXIT_CONFIG, message)
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trailnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--input", required=True, help="input file")
        p.add_argument("--output", required=True, help="output file (or prefix)")

    p = sub.add_parser("build-log", help="review records (JSONL) -> event-log CSV + metadata")
    add_io(p)
    p.add_argument("--strategy", required=True, choices=sorted(_STRATEGIES))
    p.add_argument(
        "--commit-window",
        type=int,
        default=86400,
        metavar="SECONDS",
        help="session gap for --strategy commit (default 86400)",
    )
    p.add_argument("--from", dest="window_from", metavar="ISO8601", help="window start")
    p.add_argument("--to", dest="window_to", metavar="ISO8601", help="window end")

    p = sub.add_parser("footprint", help="event-log CSV -> footprint CSV")
    add_io(p)

    p = sub.add_parser("mine", help="event-log CSV -> net JSON + DOT + intermediates JSON")
    add_io(p)

    p = sub.add_parser("social", help="event log or records -> social graph JSON + DOT")
    add_io(p)
    p.add_argument(
        "--relation",
        required=True,
        choices=["handover", "review"],
        help="handover reads an event-log CSV, review reads records JSONL",
    )

    p = sub.add_parser("simulate", help="net JSON -> complete trace set JSON")
    add_io(p)
    p.add_argument("--max-length", type=int, default=10)
    p.add_argument("--max-traces", type=int, default=100)

    p = sub.add_parser("export", help="re-render an artifact (net/graph JSON, log CSV)")
    add_io(p)
    p.add_argument("--format", required=True, choices=["dot", "json", "csv"])

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    window = None
    if args.command == "build-log":
        if (args.window_from is None) != (args.window_to is None):
            raise ConfigError("--from and --to must be given together")
        if args.window_from is not None:
            try:
                window = (parse_timestamp(args.window_from), parse_timestamp(args.window_to))
            except LogError as exc:
                raise ConfigError(str(exc)) from None
            if window[0] > window[1]:
                raise ConfigError("--from is later than --to")
    strategy = None
    if getattr(args, "strategy", None):
        if args.strategy == "commit":
            if args.commit_window < 0:
                raise ConfigError("--commit-window must be non-negative")
            strategy = ByCommit(timedelta(seconds=args.commit_window))
        else:
            strategy = _STRATEGIES[args.strategy]()
    bounds = None
    if args.command == "simulate":
        if args.max_length < 0 or args.max_traces < 0:
            raise ConfigError("--max-length and --max-traces must be non-negative")
        bounds = (args.max_length, args.max_traces)
    return RunConfig(
        command=args.command,
        input_path=Path(args.input),
        output_path=Path(args.output),
        strategy=strategy,
        window=window,
        bounds=bounds,
        relation=getattr(args, "relation", None),
        format=getattr(args, "format", None),
    )


def _write(prefix: Path, texts: dict[str, str]) -> None:
    """Write each text to ``prefix`` plus its key, printing each path. Every text is
    encoded before any file is opened, so a failing command leaves no output behind."""
    encoded = [(Path(f"{prefix}{suffix}"), text.encode("utf-8")) for suffix, text in texts.items()]
    for path, data in encoded:
        path.write_bytes(data)
        print(path)


def _alphabet_limit() -> int:
    raw = os.environ.get(ALPHABET_LIMIT_ENV)
    if raw is None:
        return DEFAULT_ALPHABET_LIMIT
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"{ALPHABET_LIMIT_ENV} must be an integer, got {raw!r}") from None


def _cmd_build_log(cfg: RunConfig, text: str) -> dict[str, str]:
    records = parse_records_jsonl(text)
    if cfg.window is not None:
        records = time_window_filter(records, *cfg.window)
    trace_log = build_log(records, cfg.strategy, window=cfg.window)
    return {"": serialize_csv_log(trace_log.log), ".meta.json": metadata_json(trace_log)}


def _cmd_footprint(cfg: RunConfig, text: str) -> dict[str, str]:
    return {"": footprint_to_csv(footprint(parse_csv_log(text)))}


def _cmd_mine(cfg: RunConfig, text: str) -> dict[str, str]:
    log = parse_csv_log(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        net, intermediates = alpha(log, alphabet_limit=_alphabet_limit())
    for warning in caught:
        print(json.dumps({"warning": str(warning.message)}), file=sys.stderr)
    return {
        ".net.json": to_json(net),
        ".net.dot": to_dot(net),
        ".alpha.json": intermediates_to_json(intermediates),
    }


def _cmd_social(cfg: RunConfig, text: str) -> dict[str, str]:
    if cfg.relation == "handover":
        graph = handover_of_work(parse_csv_log(text))
    else:
        graph = review_relation(parse_records_jsonl(text))
    return {".graph.json": graph_to_json(graph), ".graph.dot": graph_to_dot(graph)}


def _cmd_simulate(cfg: RunConfig, text: str) -> dict[str, str]:
    net = net_from_json(text)
    result = generate_traces(net, *cfg.bounds)
    # The text of json.dumps(payload, indent=2) for the payload
    # {"complete": ..., "traces": sorted traces}, joined from per-activity
    # pieces: the indenting encoder is pure Python and a trace language can
    # run to tens of thousands of traces.
    names = {t: json.dumps(t) for t in net.transitions}
    traces = [_json_list([names[t] for t in trace], "    ") for trace in sorted(result.traces)]
    fields = f'  "complete": {json.dumps(result.complete)},\n  "traces": {_json_list(traces, "  ")}'
    return {"": "{\n" + fields + "\n}\n"}


def _cmd_export(cfg: RunConfig, text: str) -> dict[str, str]:
    if not text.lstrip().startswith("{"):
        if cfg.format != "csv":
            raise ConfigError(f"an event log can only be exported as csv, not {cfg.format}")
        return {"": serialize_csv_log(parse_csv_log(text))}
    try:
        payload = json.loads(text)
    except RecursionError:
        raise LogError("invalid JSON: nested too deeply") from None
    if isinstance(payload, dict) and "places" in payload:
        artifact, value = "net", _net_from_payload(payload)
        renderers = {"dot": to_dot, "json": to_json}
    elif isinstance(payload, dict) and "nodes" in payload:
        artifact, value = "graph", _graph_from_payload(payload)
        renderers = {"dot": graph_to_dot, "json": graph_to_json}
    else:
        raise LogError("unrecognized JSON artifact: expected a net or a social graph")
    if cfg.format not in renderers:
        raise ConfigError(f"a {artifact} cannot be exported as {cfg.format}")
    return {"": renderers[cfg.format](value)}


# Each command turns the input text into its outputs: output-path suffix -> text.
_HANDLERS = {
    "build-log": _cmd_build_log,
    "footprint": _cmd_footprint,
    "mine": _cmd_mine,
    "social": _cmd_social,
    "simulate": _cmd_simulate,
    "export": _cmd_export,
}


def run(cfg: RunConfig) -> int:
    """Execute a validated configuration, mapping failures to exit codes."""
    try:
        if not cfg.input_path.is_file():
            raise FileNotFoundError(f"input not found: {cfg.input_path}")
        text = cfg.input_path.read_text(encoding="utf-8")
        _write(cfg.output_path, _HANDLERS[cfg.command](cfg, text))
    except ConfigError as exc:
        _emit_error(EXIT_CONFIG, str(exc))
        return EXIT_CONFIG
    except AlphabetLimitError as exc:
        _emit_error(EXIT_ALPHABET, str(exc))
        return EXIT_ALPHABET
    except (OSError, ValueError) as exc:
        _emit_error(EXIT_IO, str(exc))
        return EXIT_IO
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _config_from_args(args)
    except ConfigError as exc:
        _emit_error(EXIT_CONFIG, str(exc))
        return EXIT_CONFIG
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
