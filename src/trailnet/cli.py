"""Command-line pipeline: review records -> event log -> nets, footprints, graphs.

One subcommand per pipeline stage so every artifact stays independently
inspectable. Each subcommand is declared once, in :func:`_commands`. A
call whose first argument names one builds only that subcommand's parser;
any other builds the whole parser, whose top level reports what is wrong.
:func:`_check_args` then validates and converts what argparse cannot,
before any input is read, and the handler turns the input text into its
outputs without printing. Only :func:`_run` writes to stderr: a failure,
one JSON error line; a success, its warnings as JSON lines. Exit codes are
0 success, 1 I/O or parse failure or ``out of memory``, 2 invalid
configuration, 3 alphabet limit exceeded. An input may start with a UTF-8
byte-order mark, which is dropped before it is read.
:func:`main` pauses Python's cyclic garbage collector while a subcommand
runs, since what it builds holds no cycles and the cyclic garbage it
leaves has a fixed size, and restores the caller's setting on every
exit; the library modules never touch ``gc``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import warnings
from datetime import timedelta
from pathlib import Path
from typing import Sequence

from .alpha import DEFAULT_ALPHABET_LIMIT, AlphabetLimitError, alpha, intermediates_to_json
from .eventlog import LogError, parse_csv_log, parse_timestamp, serialize_csv_log
from .petri import _json_value, _net_from_payload, generate_traces, net_from_json, to_dot, to_json
from .relations import footprint, footprint_to_csv
from .reviews import (
    ByArtifact,
    ByCommit,
    ByThread,
    ByTopic,
    build_log,
    metadata_json,
    parse_records_jsonl,
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

# ByCommit takes its window from --commit-window, so _check_args builds it apart.
_STRATEGIES = {strategy.label: strategy for strategy in (ByArtifact, ByThread, ByTopic)}


class ConfigError(Exception):
    """The requested run configuration is invalid."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # one machine-readable line instead of usage text
        raise ConfigError(message)


def _commands() -> dict:
    """Each subcommand's handler, summary and options besides --input and --output,
    read when a parser is built, so the handler is the one the module holds then."""
    return {
        "build-log": (_cmd_build_log, "review records (JSONL) -> event-log CSV + metadata", {
            "--strategy": dict(required=True, choices=sorted([*_STRATEGIES, "commit"])),
            "--commit-window": dict(
                type=int, default=86400, metavar="SECONDS",
                help="session gap for --strategy commit (default 86400)",
            ),
            "--from": dict(dest="window_from", metavar="ISO8601", help="window start"),
            "--to": dict(dest="window_to", metavar="ISO8601", help="window end"),
        }),
        "footprint": (_cmd_footprint, "event-log CSV -> footprint CSV", {}),
        "mine": (_cmd_mine, "event-log CSV -> net JSON + DOT + intermediates JSON", {}),
        "social": (_cmd_social, "event log or records -> social graph JSON + DOT", {
            "--relation": dict(
                required=True,
                choices=["handover", "review"],
                help="handover reads an event-log CSV, review reads records JSONL",
            ),
        }),
        "simulate": (_cmd_simulate, "net JSON -> complete trace set JSON", {
            "--max-length": dict(type=int, default=10),
            "--max-traces": dict(type=int, default=100),
        }),
        "export": (_cmd_export, "re-render an artifact (net/graph JSON, log CSV)", {
            "--format": dict(required=True, choices=["dot", "json", "csv"]),
        }),
    }


def _declare(parser: argparse.ArgumentParser, handler, options: dict) -> None:
    parser.add_argument("--input", required=True, type=Path, help="input file")
    parser.add_argument("--output", required=True, type=Path, help="output file (or prefix)")
    for flag, settings in options.items():
        parser.add_argument(flag, **settings)
    parser.set_defaults(handler=handler)


def build_parser() -> argparse.ArgumentParser:
    """The whole parser: the top level, with every subcommand's parser under it."""
    parser = _Parser(prog="trailnet", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, summary, options) in _commands().items():
        _declare(sub.add_parser(name, help=summary), handler, options)
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of subcommand ``name`` alone, as the whole parser holds it."""
    handler, _, options = _commands()[name]
    parser = _Parser(prog=f"trailnet {name}")
    parser.set_defaults(command=name)
    _declare(parser, handler, options)
    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """Only a call that names no subcommand first needs the top level's usage and errors."""
    if argv and argv[0] in _commands():
        return _command_parser(argv[0]).parse_args(argv[1:])
    return build_parser().parse_args(argv)


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
            try:
                args.strategy = ByCommit(timedelta(seconds=args.commit_window))
            except OverflowError:
                raise ConfigError(f"--commit-window {args.commit_window} is too large") from None
        else:
            args.strategy = _STRATEGIES[args.strategy]()
    elif args.command == "mine":
        raw = os.environ.get(ALPHABET_LIMIT_ENV, str(DEFAULT_ALPHABET_LIMIT))
        try:
            args.alphabet_limit = int(raw)
        except ValueError:
            raise ConfigError(f"{ALPHABET_LIMIT_ENV} must be an integer, got {raw!r}") from None
    elif args.command == "simulate":
        if args.max_length < 0 or args.max_traces < 0:
            raise ConfigError("--max-length and --max-traces must be non-negative")


def _write(prefix: Path, texts: dict[str, str]) -> None:
    """Write each text to ``prefix`` plus its key, then print each path. Every text is
    encoded before any file is opened, and a failed write removes the files written
    before it, so a failing command leaves no output behind."""
    encoded = [(Path(f"{prefix}{suffix}"), text.encode("utf-8")) for suffix, text in texts.items()]
    for i, (path, data) in enumerate(encoded):
        try:
            path.write_bytes(data)
        except OSError:
            for written, _ in encoded[:i]:
                written.unlink(missing_ok=True)
            raise
    for path, _ in encoded:
        print(path)


# Each handler turns the input text into its outputs: output-path suffix -> text.


def _cmd_build_log(args: argparse.Namespace, text: str) -> dict[str, str]:
    trace_log = build_log(parse_records_jsonl(text), args.strategy, window=args.window)
    return {"": serialize_csv_log(trace_log.log), ".meta.json": metadata_json(trace_log)}


def _cmd_footprint(args: argparse.Namespace, text: str) -> dict[str, str]:
    return {"": footprint_to_csv(footprint(parse_csv_log(text)))}


def _cmd_mine(args: argparse.Namespace, text: str) -> dict[str, str]:
    net, intermediates = alpha(parse_csv_log(text), alphabet_limit=args.alphabet_limit)
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
    # {"complete": ..., "traces": result.traces}; the search returns the
    # traces sorted. The indenting encoder is pure Python and a trace
    # language can run to tens of thousands of traces, so the text is built
    # from joins: one per trace over its activities' JSON bodies, with the
    # quotes around them carried by the separator, then one over the
    # traces, with the text around the list folded into the first and the
    # last trace, so that the whole output is never copied. Each name is
    # its own body unless it holds a character JSON escapes; only then are
    # the traces mapped to bodies. A complete firing sequence is never
    # empty, since the source and sink differ.
    head = '{\n  "complete": %s,\n  "traces": ' % json.dumps(result.complete)
    traces = result.traces
    if not traces:
        return {"": head + "[]\n}\n"}
    bodies = {t: json.dumps(t)[1:-1] for t in net.transitions}
    if any(body != name for name, body in bodies.items()):
        traces = (map(bodies.__getitem__, trace) for trace in traces)
    rows = list(map('",\n      "'.join, traces))
    rows[0] = head + '[\n    [\n      "' + rows[0]
    rows[-1] += '"\n    ]\n  ]\n}\n'
    return {"": '"\n    ],\n    [\n      "'.join(rows)}


def _cmd_export(args: argparse.Namespace, text: str) -> dict[str, str]:
    if not text.lstrip().startswith(("{", "[")):
        if args.format != "csv":
            raise ConfigError(f"an event log can only be exported as csv, not {args.format}")
        return {"": serialize_csv_log(parse_csv_log(text))}
    payload = _json_value(text, LogError, "JSON")
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
    """Run one subcommand with the cyclic collector paused, then restore its setting."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _run(argv)
    finally:
        if enabled:
            gc.enable()


def _run(argv: Sequence[str] | None) -> int:
    """Run one subcommand: a failure prints one JSON error line, a success the
    handler's warnings once its outputs are written."""
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        _check_args(args)
        if not args.input.is_file():
            raise FileNotFoundError(f"input not found: {args.input}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            texts = args.handler(args, args.input.read_bytes().decode("utf-8-sig"))
        _write(args.output, texts)
    except SystemExit:  # only --help leaves argparse this way, after printing the usage
        return EXIT_OK
    except (ConfigError, AlphabetLimitError, OSError, ValueError, MemoryError) as exc:
        # Without its traceback, and the exception it was raised while handling,
        # the failure keeps none of the failed frames alive once the clause ends:
        # after a MemoryError, that frees the room to print the error line.
        exc.__traceback__ = exc.__context__ = None
        failure = exc
    else:
        for warning in caught:
            print(json.dumps({"warning": str(warning.message)}), file=sys.stderr)
        return EXIT_OK
    code = {ConfigError: EXIT_CONFIG, AlphabetLimitError: EXIT_ALPHABET}.get(type(failure), EXIT_IO)
    message = "out of memory" if isinstance(failure, MemoryError) else str(failure)
    print(json.dumps({"code": code, "error": message}), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
