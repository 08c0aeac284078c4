"""Command-line pipeline: review records -> event log -> nets, footprints, graphs.

One subcommand per pipeline stage so every artifact stays independently
inspectable. Each subcommand is declared once, in :func:`build_parser`,
which binds it to a handler; :func:`_check_args` then validates and
converts what argparse cannot, before any input is read, and the
handler turns the input text into its outputs. Errors land on stderr as
a single JSON line; exit codes are 0 success, 1 I/O or parse failure,
2 invalid configuration, 3 alphabet limit exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from datetime import timedelta
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
    build_log,
    metadata_json,
    parse_records_jsonl,
    time_window_filter,
)
from .social import (
    _graph_from_payload,
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


def _emit_error(code: int, message: str) -> None:
    print(json.dumps({"code": code, "error": message}), file=sys.stderr)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one machine-readable line instead of usage text
        _emit_error(EXIT_CONFIG, message)
        raise SystemExit(EXIT_CONFIG)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="trailnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, handler, summary: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--input", required=True, type=Path, help="input file")
        p.add_argument("--output", required=True, type=Path, help="output file (or prefix)")
        p.set_defaults(handler=handler)
        return p

    p = command("build-log", _cmd_build_log, "review records (JSONL) -> event-log CSV + metadata")
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

    command("footprint", _cmd_footprint, "event-log CSV -> footprint CSV")
    command("mine", _cmd_mine, "event-log CSV -> net JSON + DOT + intermediates JSON")

    p = command("social", _cmd_social, "event log or records -> social graph JSON + DOT")
    p.add_argument(
        "--relation",
        required=True,
        choices=["handover", "review"],
        help="handover reads an event-log CSV, review reads records JSONL",
    )

    p = command("simulate", _cmd_simulate, "net JSON -> complete trace set JSON")
    p.add_argument("--max-length", type=int, default=10)
    p.add_argument("--max-traces", type=int, default=100)

    p = command("export", _cmd_export, "re-render an artifact (net/graph JSON, log CSV)")
    p.add_argument("--format", required=True, choices=["dot", "json", "csv"])

    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Validate, and convert in place, what argparse cannot check by itself."""
    if args.command == "build-log":
        if (args.window_from is None) != (args.window_to is None):
            raise ConfigError("--from and --to must be given together")
        window = None
        if args.window_from is not None:
            try:
                window = (parse_timestamp(args.window_from), parse_timestamp(args.window_to))
            except LogError as exc:
                raise ConfigError(str(exc)) from None
            if window[0] > window[1]:
                raise ConfigError("--from is later than --to")
        args.window = window
        if args.strategy == "commit":
            if args.commit_window < 0:
                raise ConfigError("--commit-window must be non-negative")
            args.strategy = ByCommit(timedelta(seconds=args.commit_window))
        else:
            args.strategy = _STRATEGIES[args.strategy]()
    elif args.command == "simulate":
        if args.max_length < 0 or args.max_traces < 0:
            raise ConfigError("--max-length and --max-traces must be non-negative")


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


# Each handler turns the input text into its outputs: output-path suffix -> text.


def _cmd_build_log(args: argparse.Namespace, text: str) -> dict[str, str]:
    records = parse_records_jsonl(text)
    if args.window is not None:
        records = time_window_filter(records, *args.window)
    trace_log = build_log(records, args.strategy, window=args.window)
    return {"": serialize_csv_log(trace_log.log), ".meta.json": metadata_json(trace_log)}


def _cmd_footprint(args: argparse.Namespace, text: str) -> dict[str, str]:
    return {"": footprint_to_csv(footprint(parse_csv_log(text)))}


def _cmd_mine(args: argparse.Namespace, text: str) -> dict[str, str]:
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


def _cmd_social(args: argparse.Namespace, text: str) -> dict[str, str]:
    if args.relation == "handover":
        graph = handover_of_work(parse_csv_log(text))
    else:
        graph = review_relation(parse_records_jsonl(text))
    return {".graph.json": graph_to_json(graph), ".graph.dot": graph_to_dot(graph)}


def _cmd_simulate(args: argparse.Namespace, text: str) -> dict[str, str]:
    net = net_from_json(text)
    result = generate_traces(net, args.max_length, args.max_traces)
    # The text of json.dumps(payload, indent=2) for the payload
    # {"complete": ..., "traces": sorted traces}, joined from per-activity
    # pieces: the indenting encoder is pure Python and a trace language can
    # run to tens of thousands of traces.
    names = {t: json.dumps(t) for t in net.transitions}
    traces = [_json_list([names[t] for t in trace], "    ") for trace in sorted(result.traces)]
    fields = f'  "complete": {json.dumps(result.complete)},\n  "traces": {_json_list(traces, "  ")}'
    return {"": "{\n" + fields + "\n}\n"}


def _cmd_export(args: argparse.Namespace, text: str) -> dict[str, str]:
    if not text.lstrip().startswith("{"):
        if args.format != "csv":
            raise ConfigError(f"an event log can only be exported as csv, not {args.format}")
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
    if args.format not in renderers:
        raise ConfigError(f"a {artifact} cannot be exported as {args.format}")
    return {"": renderers[args.format](value)}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand, mapping each failure to one JSON line and an exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        _check_args(args)
        if not args.input.is_file():
            raise FileNotFoundError(f"input not found: {args.input}")
        _write(args.output, args.handler(args, args.input.read_text(encoding="utf-8")))
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


if __name__ == "__main__":
    sys.exit(main())
