"""Command-line interface.

Exit codes: 0 success, 1 parse or validation failure (unreadable and non-UTF-8
files included), 2 a computation error on valid input (undefined ratio, unknown
id, bad state transition) or output that cannot be encoded, 64 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import NamedTuple

from .ablation import RemovalOrder, run_removal, run_replacement
from .errors import ConfigurationError, ConncalcError, ValidationError
from .metrics import connectivity_score, detect_confusion, efficiency, quality_report
from .model import Connection, Scenario, ScoringMode, to_rational, with_scoring_mode
from .paths import PathsReport, find_paths, silent_closure
from .scenario_io import (
    emit_report,
    export_dot,
    parse_connection_doc,
    parse_scenario,
    serialize_scenario,
    ValidationReport,
)

USAGE_ERROR = 64


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
        doc = json.loads(text, parse_float=to_rational)
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
    if connection is None:
        raise argparse.ArgumentTypeError("; ".join(str(d) for d in diagnostics))
    return ReplaceSpec(blocked=blocked, connection=connection)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"cannot read {path}: {reason}") from None


def _load_scenario(path: str) -> Scenario:
    result = parse_scenario(_read_text(path))
    for diag in result.warnings:
        print(str(diag), file=sys.stderr)
    if not result.ok:
        for diag in result.errors:
            print(str(diag), file=sys.stderr)
        raise ValidationError(f"{path} failed validation")
    return result.scenario


# The CLI flag says "json"; the report renderer calls that format "machine".
_REPORT_FORMATS = {"table": "table", "json": "machine"}
_MODES = {"raw": ScoringMode.RAW, "impact": ScoringMode.IMPACT_WEIGHTED}


def _write_output(args: argparse.Namespace, result) -> None:
    if not isinstance(result, str):
        result = emit_report(result, _REPORT_FORMATS[args.format]) + "\n"
    # Encoded first, so text with no UTF-8 form (a lone surrogate from a JSON
    # escape) writes nothing, neither to stdout nor to an ``-o`` file.
    data = result.encode("utf-8")
    if getattr(args, "output", None):
        Path(args.output).write_bytes(data)
    else:
        sys.stdout.write(result)


# Command handlers: each returns a report, or the text of the file it makes,
# and writes nothing; ``main`` hands the result to ``_write_output``.
def _cmd_validate(args: argparse.Namespace):
    result = parse_scenario(_read_text(args.file))
    return ValidationReport(valid=result.ok, diagnostics=result.diagnostics)


def _cmd_score(args: argparse.Namespace):
    scenario = _load_scenario(args.file)
    if args.mode is not None:
        scenario = with_scoring_mode(scenario, _MODES[args.mode])
    return efficiency(scenario)


def _cmd_quality(args: argparse.Namespace):
    scenario = _load_scenario(args.file)
    if scenario.desired_connectivity is None:
        raise ConfigurationError(
            "desired_connectivity is not set; the quality command needs one in the scenario file"
        )
    return quality_report(connectivity_score(scenario), scenario.desired_connectivity)


def _cmd_confusion(args: argparse.Namespace):
    return detect_confusion(_load_scenario(args.file))


def _cmd_paths(args: argparse.Namespace):
    scenario = _load_scenario(args.file)
    paths = find_paths(
        scenario, args.src, args.dst, args.max_hops, include_silent=args.include_silent
    )
    return PathsReport(args.src, args.dst, args.max_hops, tuple(paths))


def _cmd_closure(args: argparse.Namespace):
    return serialize_scenario(silent_closure(_load_scenario(args.file)))


def _cmd_ablate(args: argparse.Namespace):
    scenario = _load_scenario(args.file)
    if args.replace is not None:
        return run_replacement(scenario, args.replace.blocked, args.replace.connection)
    return run_removal(scenario, RemovalOrder(args.order))


def _cmd_export_dot(args: argparse.Namespace):
    return export_dot(_load_scenario(args.file))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conncalc",
        description="Score, inspect, and transform connectivity scenarios.",
    )
    parser.add_argument(
        "--format",
        choices=tuple(_REPORT_FORMATS),
        default="table",
        help="output format for reports (default: table)",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    def command(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("file", help="scenario JSON file")
        # No default, so a root ``--format`` stands unless this one is given.
        p.add_argument(
            "--format",
            choices=tuple(_REPORT_FORMATS),
            default=argparse.SUPPRESS,
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
        result = args.handler(args)
        _write_output(args, result)
    except (ValidationError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ConncalcError, UnicodeEncodeError) as exc:  # computation errors; unencodable output
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1 if isinstance(result, ValidationReport) and not result.valid else 0


def run() -> None:
    sys.exit(main())
