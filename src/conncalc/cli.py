"""Command-line interface.

Exit codes: 0 success, 1 parse or validation failure (including unreadable
files), 2 computation errors on otherwise valid input (undefined ratios,
unknown ids, bad state transitions), 64 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

from .ablation import RemovalOrder, run_removal, run_replacement
from .errors import (
    ComputationError,
    ConfigurationError,
    IntegrityError,
    StateError,
    ValidationError,
)
from .metrics import classify_quality, connectivity_score, detect_confusion, efficiency, quality
from .model import Connection, Scenario, ScoringMode, with_scoring_mode
from .paths import find_paths, silent_closure
from .scenario_io import (
    emit_report,
    export_dot,
    format_rational,
    json_text,
    parse_connection_doc,
    parse_number,
    parse_scenario,
    render_document,
    serialize_scenario,
    Severity,
)

USAGE_ERROR = 64


class _CliError(Exception):
    """Failure with a chosen exit code; the message goes to stderr."""

    def __init__(self, code: int, message: str | None = None):
        super().__init__(message or "")
        self.code = code
        self.message = message


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(USAGE_ERROR)


class ReplaceSpec(NamedTuple):
    blocked: str
    connection: Connection


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _replace_spec(text: str) -> ReplaceSpec:
    try:
        doc = json.loads(text, parse_float=parse_number)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"must be JSON: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        # A literal past a limit, or nesting too deep.
        raise argparse.ArgumentTypeError(f"must be JSON: {exc}") from None
    if not isinstance(doc, dict) or set(doc) != {"blocked", "connection"}:
        raise argparse.ArgumentTypeError("needs exactly the keys 'blocked' and 'connection'")
    blocked = doc["blocked"]
    if not isinstance(blocked, str) or not blocked:
        raise argparse.ArgumentTypeError("'blocked' must be a connection id string")
    connection, diagnostics = parse_connection_doc(doc["connection"], "connection")
    if connection is None or any(d.severity is Severity.ERROR for d in diagnostics):
        detail = "; ".join(str(d) for d in diagnostics) or "invalid connection object"
        raise argparse.ArgumentTypeError(detail)
    return ReplaceSpec(blocked=blocked, connection=connection)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise _CliError(1, f"cannot read {path}: {exc.strerror or exc}") from None


def _load_scenario(path: str) -> Scenario:
    result = parse_scenario(_read_text(path))
    for diag in result.warnings:
        print(str(diag), file=sys.stderr)
    if not result.ok:
        for diag in result.errors:
            print(str(diag), file=sys.stderr)
        raise _CliError(1, f"{path} failed validation")
    return result.scenario


# The CLI flag says "json"; the report renderer calls that format "machine".
_REPORT_FORMATS = {"table": "table", "json": "machine"}
_MODES = {"raw": ScoringMode.RAW, "impact": ScoringMode.IMPACT_WEIGHTED}


def _fmt(args: argparse.Namespace) -> str:
    return _REPORT_FORMATS[args.format or args.format_root or "table"]


def _write_output(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_validate(args: argparse.Namespace) -> int:
    result = parse_scenario(_read_text(args.file))
    if _fmt(args) == "machine":
        print(
            json_text(
                {
                    "type": "validation_report",
                    "valid": result.ok,
                    "diagnostics": [
                        {
                            "severity": d.severity.value,
                            "location": d.location,
                            "message": d.message,
                        }
                        for d in result.diagnostics
                    ],
                }
            )
        )
    else:
        for diag in result.diagnostics:
            print(str(diag))
        print("ok" if result.ok else "invalid")
    return 0 if result.ok else 1


def _cmd_score(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    if args.mode is not None:
        scenario = with_scoring_mode(scenario, _MODES[args.mode])
    print(emit_report(efficiency(scenario), _fmt(args)))
    return 0


def _cmd_quality(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    if scenario.desired_connectivity is None:
        raise ConfigurationError(
            "desired_connectivity is not set; the quality command needs one in the scenario file"
        )
    score = connectivity_score(scenario)
    percent = quality(score, scenario.desired_connectivity)
    doc = {
        "type": "quality_report",
        "score": format_rational(score),
        "desired": format_rational(scenario.desired_connectivity),
        "quality_percent": format_rational(percent),
        "band": classify_quality(percent).value,
    }
    print(render_document(doc, _fmt(args)))
    return 0


def _cmd_confusion(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    print(emit_report(detect_confusion(scenario), _fmt(args)))
    return 0


def _cmd_paths(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    paths = find_paths(
        scenario, args.src, args.dst, args.max_hops, include_silent=args.include_silent
    )
    if _fmt(args) == "machine":
        print(
            json_text(
                {
                    "type": "paths",
                    "src": args.src,
                    "dst": args.dst,
                    "max_hops": args.max_hops,
                    "paths": [
                        {"entities": list(p.entities), "hops": list(p.hops)} for p in paths
                    ],
                }
            )
        )
    elif not paths:
        print("(no paths)")
    else:
        for path in paths:
            print(f"{' -> '.join(path.entities)} via {','.join(path.hops)}")
    return 0


def _cmd_closure(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    _write_output(args, serialize_scenario(silent_closure(scenario)))
    return 0


def _cmd_ablate(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    if args.replace is not None:
        report = run_replacement(scenario, args.replace.blocked, args.replace.connection)
    else:
        report = run_removal(scenario, RemovalOrder(args.order))
    print(emit_report(report, _fmt(args)))
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    scenario = _load_scenario(args.file)
    _write_output(args, export_dot(scenario))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conncalc",
        description="Score, inspect, and transform connectivity scenarios.",
    )
    parser.add_argument(
        "--format",
        choices=("table", "json"),
        dest="format_root",
        default=None,
        help="output format for reports (default: table)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("file", help="scenario JSON file")
        p.add_argument(
            "--format",
            choices=("table", "json"),
            default=None,
            help="output format for this command",
        )
        p.set_defaults(handler=handler)
        return p

    command("validate", _cmd_validate, "parse a scenario file and report diagnostics")

    p = command("score", _cmd_score, "report score, ideal, efficiency, and band")
    p.add_argument(
        "--mode",
        choices=tuple(_MODES),
        default=None,
        help="override the scenario's scoring mode",
    )

    command("quality", _cmd_quality, "report quality against the desired connectivity")
    command("confusion", _cmd_confusion, "assess confusion and its causes")

    p = command("paths", _cmd_paths, "enumerate simple paths between two entities")
    p.add_argument("--from", dest="src", required=True, metavar="ENTITY", help="start entity id")
    p.add_argument("--to", dest="dst", required=True, metavar="ENTITY", help="goal entity id")
    p.add_argument(
        "--max-hops",
        type=_positive_int,
        default=3,
        help="maximum connections per path (default: 3)",
    )
    p.add_argument(
        "--include-silent",
        action="store_true",
        help="let silent connections carry hops",
    )

    p = command("closure", _cmd_closure, "add silent connections until the law holds")
    p.add_argument("-o", "--output", help="write the closed scenario here instead of stdout")

    p = command("ablate", _cmd_ablate, "run a removal or replacement experiment")
    p.add_argument(
        "--order",
        choices=tuple(o.value for o in RemovalOrder),
        required=True,
        help="removal order by importance",
    )
    p.add_argument(
        "--replace",
        type=_replace_spec,
        default=None,
        metavar="SPEC",
        help=(
            "run a replacement instead: JSON with 'blocked' (connection id) "
            "and 'connection' (the substitute connection object)"
        ),
    )

    p = command("export-dot", _cmd_export_dot, "render the scenario as a DOT graph")
    p.add_argument("-o", "--output", help="write the DOT text here instead of stdout")

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 0
    try:
        return args.handler(args)
    except _CliError as exc:
        if exc.message:
            print(f"error: {exc.message}", file=sys.stderr)
        return exc.code
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ComputationError, ConfigurationError, IntegrityError, StateError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())
