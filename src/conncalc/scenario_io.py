"""Reading, writing, and rendering scenarios.

The on-disk format is JSON with every number carried as an exact decimal
string (``"12.5"``) or integer; fractions that have no finite decimal form
are written ``"p/q"``. Serialization is canonical: a given scenario always
produces the same bytes, entities and connections sorted by id, keys in a
fixed order, defaults omitted. Parsing is lenient where it can be (unknown
keys warn) and exact where it must be (floats in the JSON source are decoded
to rationals before any float arithmetic can occur).

The field tables (``_ENTITY_FIELDS``, ``_ATTRIBUTE_FIELDS``,
``_CONNECTION_FIELDS``, ``_HYPOTHETICAL_FIELDS``) are the one list of each
record's on-disk fields: their keys, order, decoders, defaults and encoders.
``_fields`` reads any record by its table and ``_record_doc`` writes it.

Every report is one document, a dict with a ``type`` key and one key per
field, that ``emit_report`` prints as JSON or as table text filled in from
the same keys; ``_TABLE_LINES`` holds each report class's ``type`` and table
text. ``json_text`` is the one JSON writer for reports and scenario files.
"""

from __future__ import annotations

__all__ = [
    "ParseDiagnostic", "ParseResult", "Severity", "emit_report", "export_dot", "format_rational",
    "parse_connection_doc", "parse_scenario", "serialize_scenario",
]

import json
import sys
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from operator import attrgetter
from typing import NamedTuple

from .ablation import QualityTrajectory, ReplacementReport
from .errors import ComputationError, ValidationError
from .metrics import ConfusionReport, ConnectivityReport, QualityReport
from .model import (
    AttributeVector,
    Connection,
    ConnectionKind,
    Entity,
    EntityKind,
    RosterEntry,
    RosterHypothetical,
    RosterRef,
    Scenario,
    ScoringMode,
    _LiteralTooLarge,
    _number_text,
    ensure_valid,
    to_rational,
    validate_scenario,  # noqa: F401 - kept importable here; the benchmark tracer wraps it
)
from .paths import PathsReport

FORMAT_VERSION = 1

_TOP_KEYS = {
    "version",
    "host",
    "mode",
    "desired_connectivity",
    "entities",
    "connections",
    "ideal_roster",
}


class Severity(str, Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True, slots=True)
class ParseDiagnostic:
    severity: Severity
    location: str
    message: str

    def __str__(self) -> str:
        return f"{self.severity.value} {self.location}: {self.message}"


@dataclass(frozen=True, slots=True)
class ParseResult:
    """Outcome of parsing: a scenario (on success) plus all diagnostics."""

    scenario: Scenario | None
    diagnostics: tuple[ParseDiagnostic, ...]

    @property
    def ok(self) -> bool:
        return self.scenario is not None

    @property
    def errors(self) -> tuple[ParseDiagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[ParseDiagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.severity is Severity.WARNING)


def format_rational(value) -> str:
    """Shortest exact text form of a rational.

    Integers print bare, dyadic/decimal denominators print as terminating
    decimals with no trailing zeros, everything else prints ``p/q``. A value
    whose digits exceed Python's int-to-str limit raises
    :class:`ComputationError`: it has no exact text form to print.
    """
    value = to_rational(value)
    num, den = value.numerator, value.denominator
    try:
        if den == 1:
            return str(num)
        rest, twos, fives = den, 0, 0
        while rest % 2 == 0:
            rest //= 2
            twos += 1
        while rest % 5 == 0:
            rest //= 5
            fives += 1
        if rest != 1:
            return f"{num}/{den}"
        scale = max(twos, fives)
        digits = str(abs(num) * 10**scale // den).rjust(scale + 1, "0")
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ComputationError(f"number too long to print exactly (over {limit} digits)") from None
    whole, frac = digits[:-scale], digits[-scale:]
    frac = frac.rstrip("0")
    sign = "-" if num < 0 else ""
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def _at(location) -> str:
    """The text of a location: a string, or a (location, key) pair that is
    joined only when a diagnostic needs it. Under None, the top level, a key
    is its own location."""
    if not isinstance(location, tuple):
        return location
    parent, key = location
    return key if parent is None else f"{_at(parent)}.{key}"


def _err(location, message: str) -> ParseDiagnostic:
    return ParseDiagnostic(Severity.ERROR, _at(location), message)


def _warn(location, message: str) -> ParseDiagnostic:
    return ParseDiagnostic(Severity.WARNING, _at(location), message)


def _warn_unknown(item: dict, known, location, diags: list[ParseDiagnostic]) -> None:
    for key in sorted(item.keys() - known):
        diags.append(_warn((location, key), "unknown key ignored"))


# Decoders: each takes (value, location, key, diags), where ``value`` sits at
# ``key`` under ``location``; it appends a diagnostic at (location, key) when
# the value is bad, and returns the decoded value or None.


def _string(value, location, key: str, diags: list[ParseDiagnostic]) -> str | None:
    if isinstance(value, str):
        return value
    if value is None:
        diags.append(_err((location, key), "missing required key"))
    else:
        diags.append(_err((location, key), f"expected a string, got {type(value).__name__}"))
    return None


def _choice(enum: type[Enum], what: str, *, strings_only: bool):
    """Decoder for one of ``enum``'s values; with ``strings_only``, a value
    that is not a string is reported as :func:`_string` reports it."""
    members = {member.value: member for member in enum}

    def decode(value, location, key: str, diags: list[ParseDiagnostic]):
        if isinstance(value, str):
            member = members.get(value)
            if member is not None:
                return member
        elif strings_only:
            return _string(value, location, key, diags)
        diags.append(_err((location, key), f"unknown {what}: {_number_text(value, repr)}"))
        return None

    return decode


def _number(value, location, key: str, diags: list[ParseDiagnostic]) -> Fraction | None:
    """Decode a number written as a decimal string, integer, or fraction."""
    try:
        return to_rational(value)
    except _LiteralTooLarge as exc:
        message = str(exc)
    except ValueError:
        message = f"not a numeric string: {value!r}"
    except TypeError:
        shown = "a boolean" if isinstance(value, bool) else type(value).__name__
        message = f"expected a number as a decimal string, got {shown}"
    diags.append(_err((location, key), message))
    return None


def _polarity(value, location, key: str, diags: list[ParseDiagnostic]) -> int | None:
    if value is None:
        diags.append(_err((location, key), "missing required key"))
    elif isinstance(value, bool) or not isinstance(value, int) or value not in (1, -1):
        shown = _number_text(value, repr)
        diags.append(_err((location, key), f"polarity must be 1 or -1, got {shown}"))
    else:
        return value
    return None


def _time_index(value, location, key: str, diags: list[ParseDiagnostic]) -> int | None:
    if isinstance(value, bool) or not isinstance(value, int):
        diags.append(_err((location, key), "time_index must be an integer"))
        return None
    return value


def _flag(value, location, key: str, diags: list[ParseDiagnostic]) -> bool | None:
    if not isinstance(value, bool):
        diags.append(_err((location, key), f"{key} must be true or false"))
        return None
    return value


def _attributes(value, location, key: str, diags: list[ParseDiagnostic]) -> AttributeVector:
    decoded = _fields(value, _ATTRIBUTE_FIELDS, "attributes", (location, key), diags)
    if decoded is None:
        return AttributeVector()
    try:
        return AttributeVector(**{k: v for k, v in decoded.items() if v is not None})
    except ValidationError as exc:
        diags.append(_err((location, key), str(exc)))
        return AttributeVector()


_REQUIRED = object()  # default of a field whose absence is an error
_by_value = attrgetter("value")

# Field tables: record field -> (decoder, default when absent, encoder), in
# the order fields are decoded, reported and written. A decoder that treats
# null as absent (``_string``, ``_polarity``) says "missing required key" for it.
_ATTRIBUTE_FIELDS = {
    "existence": (_number, _REQUIRED, format_rational),
    "inner_state": (_number, _REQUIRED, format_rational),
    "external_state": (_number, _REQUIRED, format_rational),
    "communication_state": (_number, _REQUIRED, format_rational),
}
_ENTITY_FIELDS = {
    "id": (_string, _REQUIRED, str),
    "kind": (_choice(EntityKind, "entity kind", strings_only=True), _REQUIRED, _by_value),
    "attributes": (_attributes, AttributeVector(), lambda a: _record_doc(a, _ATTRIBUTE_FIELDS)),
}
_CONNECTION_FIELDS = {
    "id": (_string, _REQUIRED, str),
    "src": (_string, _REQUIRED, str),
    "dst": (_string, _REQUIRED, str),
    "kind": (_choice(ConnectionKind, "connection kind", strings_only=True), _REQUIRED, _by_value),
    "polarity": (_polarity, _REQUIRED, int),
    "magnitude": (_number, _REQUIRED, format_rational),
    "time_index": (_time_index, 0, int),
    "blocked": (_flag, False, bool),
    "confirmed": (_flag, False, bool),
}
_HYPOTHETICAL_FIELDS = {
    "src": (_string, _REQUIRED, str),
    "dst": (_string, _REQUIRED, str),
    "magnitude": (_number, _REQUIRED, format_rational),
}
_scoring_mode = _choice(ScoringMode, "scoring mode", strings_only=False)


def _fields(item, table: dict, what: str, location, diags: list[ParseDiagnostic]):
    """Decode ``item``'s fields by ``table``: a dict of key to decoded value
    (None where decoding failed), or None if ``item`` is not an object."""
    if not isinstance(item, dict):
        diags.append(_err(location, f"{what} must be an object, got {type(item).__name__}"))
        return None
    _warn_unknown(item, table, location, diags)
    values = {}
    for key, (decode, default, _) in table.items():
        if key in item:
            values[key] = decode(item[key], location, key, diags)
        elif default is _REQUIRED:
            diags.append(_err((location, key), "missing required key"))
            values[key] = None
        else:
            values[key] = default
    return values


def _build(cls, values: dict | None):
    """``cls(**values)``, or None when any field failed to decode."""
    if values is None:
        return None
    for value in values.values():
        if value is None:  # not ``None in``, which calls each Fraction's __eq__
            return None
    return cls(**values)


def _parse_entity(item, location: str, diags: list[ParseDiagnostic]) -> Entity | None:
    return _build(Entity, _fields(item, _ENTITY_FIELDS, "entity", location, diags))


def _parse_connection(item, location: str, diags: list[ParseDiagnostic]) -> Connection | None:
    return _build(Connection, _fields(item, _CONNECTION_FIELDS, "connection", location, diags))


def _parse_roster_entry(item, location: str, diags: list[ParseDiagnostic]) -> RosterEntry | None:
    if not isinstance(item, dict):
        diags.append(_err(location, f"roster entry must be an object, got {type(item).__name__}"))
        return None
    if ("ref" in item) == ("hypothetical" in item):
        diags.append(_err(location, "roster entry must have exactly one of 'ref' or 'hypothetical'"))
        return None
    _warn_unknown(item, {"ref", "hypothetical"}, location, diags)
    if "ref" in item:
        if isinstance(item["ref"], str):
            return RosterRef(ref=item["ref"])
        diags.append(_err((location, "ref"), "ref must be a connection id string"))
        return None
    location = (location, "hypothetical")
    if not isinstance(item["hypothetical"], dict):
        diags.append(_err(location, "hypothetical must be an object"))
        return None
    values = _fields(item["hypothetical"], _HYPOTHETICAL_FIELDS, "hypothetical", location, diags)
    return _build(RosterHypothetical, values)


def _item_list(raw, key: str, parse, diags: list[ParseDiagnostic]) -> list | None:
    """The items of the array ``raw`` that ``parse`` decodes, or None if it is
    not an array."""
    if not isinstance(raw, list):
        diags.append(_err(key, f"expected an array, got {type(raw).__name__}"))
        return None
    parsed = (parse(item, f"{key}[{i}]", diags) for i, item in enumerate(raw))
    return [item for item in parsed if item is not None]


def parse_connection_doc(
    doc, location: str = "connection"
) -> tuple[Connection | None, tuple[ParseDiagnostic, ...]]:
    """Decode one connection object; None plus diagnostics on failure."""
    diags: list[ParseDiagnostic] = []
    connection = _parse_connection(doc, location, diags)
    return connection, tuple(diags)


def parse_scenario(text: str) -> ParseResult:
    """Parse scenario JSON, collecting diagnostics instead of stopping early.

    Returns a result whose scenario is None when any error was found.
    Warnings (unknown keys) never prevent parsing. All numeric fields are
    decoded exactly; JSON floats become rationals without a float detour.
    """
    try:
        doc = json.loads(text, parse_float=to_rational)
    except json.JSONDecodeError as exc:
        message = f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})"
        return ParseResult(None, (_err("document", message),))
    except (ValueError, RecursionError) as exc:
        # A literal past a limit, or nesting too deep.
        return ParseResult(None, (_err("document", f"invalid JSON: {exc}"),))
    if not isinstance(doc, dict):
        return ParseResult(None, (_err("document", "top-level JSON value must be an object"),))

    diags: list[ParseDiagnostic] = []
    _warn_unknown(doc, _TOP_KEYS, "document", diags)

    version = doc.get("version")
    if version is None:
        diags.append(_err("version", "missing required key"))
    elif isinstance(version, bool) or not isinstance(version, int) or version != FORMAT_VERSION:
        shown = _number_text(version, repr)
        diags.append(_err("version", f"unsupported format version {shown}; expected 1"))

    host = _string(doc.get("host"), None, "host", diags)
    mode = _scoring_mode(doc.get("mode", ScoringMode.RAW.value), None, "mode", diags)
    desired = None
    if "desired_connectivity" in doc:
        desired = _number(doc["desired_connectivity"], None, "desired_connectivity", diags)

    # A null entities or connections array is missing; a null roster is not an array.
    arrays = {}
    for key, parse in (("entities", _parse_entity), ("connections", _parse_connection)):
        if doc.get(key) is None:
            diags.append(_err(key, "missing required key"))
        else:
            arrays[key] = _item_list(doc[key], key, parse, diags)
    roster = None
    if "ideal_roster" in doc:
        roster = _item_list(doc["ideal_roster"], "ideal_roster", _parse_roster_entry, diags)

    if any(d.severity is Severity.ERROR for d in diags):
        return ParseResult(None, tuple(diags))

    scenario = Scenario(
        entities=tuple(arrays["entities"]),
        connections=tuple(arrays["connections"]),
        host=host,
        ideal_roster=tuple(roster) if roster is not None else None,
        scoring_mode=mode,
        desired_connectivity=desired,
    )
    violations = scenario.violations
    for violation in violations:
        diags.append(_err(f"{violation.subject}.{violation.field}", violation.message))
    if violations:
        return ParseResult(None, tuple(diags))
    return ParseResult(scenario, tuple(diags))


def _record_doc(record, table: dict) -> dict:
    """The on-disk object of a record: its fields in table order, each written
    by its encoder, leaving out a field at its default."""
    doc = {}
    for key, (_, default, encode) in table.items():
        value = getattr(record, key)
        if default is _REQUIRED or value != default:
            doc[key] = encode(value)
    return doc


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON text for a scenario; identical scenarios yield
    identical bytes.

    Entities and connections are sorted by id (the scenario normalizes
    itself on construction), keys appear in a fixed order, optional fields
    at their defaults are omitted, and every rational is written in its
    shortest exact form. Output is ASCII with a trailing newline.
    """
    ensure_valid(scenario)
    doc: dict[str, object] = {
        "version": FORMAT_VERSION,
        "host": scenario.host,
        "mode": scenario.scoring_mode.value,
    }
    if scenario.desired_connectivity is not None:
        doc["desired_connectivity"] = format_rational(scenario.desired_connectivity)
    doc["entities"] = [_record_doc(e, _ENTITY_FIELDS) for e in scenario.entities]
    doc["connections"] = [_record_doc(c, _CONNECTION_FIELDS) for c in scenario.connections]
    if scenario.ideal_roster is not None:
        doc["ideal_roster"] = [
            {"ref": entry.ref} if isinstance(entry, RosterRef)
            else {"hypothetical": _record_doc(entry, _HYPOTHETICAL_FIELDS)}
            for entry in scenario.ideal_roster
        ]
    return json_text(doc) + "\n"


def json_text(doc: dict) -> str:
    """The one JSON writer for scenario files and report documents."""
    return json.dumps(doc, indent=2, ensure_ascii=True)


def _dot_quote(value: str) -> str:
    # Quoted DOT strings convert only the \" dyad; a backslash before any
    # other character stays verbatim. Plain backslashes therefore pass
    # through untouched, and only a backslash that would collide with a
    # quote (or the closing delimiter) gets doubled to keep the document
    # well-formed.
    value = value.replace('\\"', '\\\\"').replace('"', '\\"')
    if value.endswith("\\"):
        value += "\\"
    return f'"{value}"'


def export_dot(scenario: Scenario) -> str:
    """Render the scenario as an undirected graph in DOT form.

    Visual conventions: the host gets a double outline; hidden and unknown
    entities are drawn dashed. Real connections are solid edges, silent ones
    (and self-connections) dashed; blocked connections are grayed out. Edge
    labels carry the signed magnitude, e.g. ``+7``. Output is deterministic:
    nodes and edges appear in id order.
    """
    ensure_valid(scenario)
    lines = ["graph scenario {", "  node [shape=ellipse];"]
    for entity in scenario.entities:
        attrs = []
        if entity.id == scenario.host:
            attrs.append("peripheries=2")
        if entity.kind in (EntityKind.HIDDEN, EntityKind.UNKNOWN):
            attrs.append('style="dashed"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {_dot_quote(entity.id)}{suffix};")
    for conn in scenario.connections:
        sign = "+" if conn.polarity > 0 else "-"
        label = sign + format_rational(conn.magnitude)
        style = "solid" if conn.kind is ConnectionKind.REAL else "dashed"
        attrs = [f"label={_dot_quote(label)}", f'style="{style}"']
        if conn.blocked:
            attrs.append('color="gray"')
        attrs.append(f"id={_dot_quote(conn.id)}")
        lines.append(
            f"  {_dot_quote(conn.src)} -- {_dot_quote(conn.dst)} [{', '.join(attrs)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"


@dataclass(frozen=True, slots=True)
class ValidationReport:
    """Whether a scenario file is valid, with every diagnostic parsing found."""

    valid: bool
    diagnostics: tuple[ParseDiagnostic, ...]


class _DocList(list):
    """A list in a report document. JSON writes it as a list; a table template
    joins it with the field's format spec, or prints ``none`` when it is empty."""

    def __format__(self, separator: str) -> str:
        return separator.join(self) or "none"


class _Table(NamedTuple):
    """A report type's document ``type`` and table text, filled in from its
    document: the ``head`` line, one ``item`` line per element of the
    ``items`` list (or ``empty``), then ``tail``; an empty line is left out. A
    head or tail template prints the items' count and a boolean's ``words``."""

    type: str
    head: str = ""
    items: str = ""
    item: str = ""
    empty: str = ""
    tail: str = ""
    words: tuple[str, str] = ("false", "true")


# Report classes, each with its document ``type`` and table text; each field
# of a report becomes a key of its document.
_TABLE_LINES = {
    ConnectivityReport: _Table(
        "connectivity_report",
        "score={score} ideal={ideal} efficiency={efficiency_percent}% band={band} mode={mode}",
    ),
    ConfusionReport: _Table(
        "confusion_report", "z={z} quality={quality_percent}% confused={confused} causes={causes:,}"
    ),
    QualityReport: _Table(
        "quality_report", "score={score} desired={desired} quality={quality_percent}% band={band}"
    ),
    QualityTrajectory: _Table(
        "quality_trajectory",
        "order={order} ideal={ideal} steps={steps}",
        "steps",
        "step={step} blocked={blocked_connection} score={score} efficiency={efficiency_percent}%",
    ),
    ReplacementReport: _Table(
        "replacement_report",
        "blocked={blocked_id} replacement={replacement_id} quality_before={quality_before}%"
        " quality_blocked={quality_blocked}% quality_after={quality_after}%",
    ),
    PathsReport: _Table("paths", "", "paths", "{entities: -> } via {hops:,}", empty="(no paths)"),
    ValidationReport: _Table(
        "validation_report", "", "diagnostics", "{severity} {location}: {message}",
        tail="{valid}", words=("invalid", "ok"),
    ),
}


@cache
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _doc_value(value):
    """JSON form of a report value: rationals as exact strings, enums by value."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return _DocList(map(_doc_value, value))
    if is_dataclass(value):
        return {name: _doc_value(getattr(value, name)) for name in _field_names(type(value))}
    return value


def emit_report(report, fmt: str = "table") -> str:
    """Render a report for people (``table``) or machines (``machine``).

    A report is one document: a ``type`` key, then one key per field. The
    machine format is that document as JSON, every number an exact string;
    the table form fills the type's ``_TABLE_LINES`` from the same document.
    """
    if fmt not in ("table", "machine"):
        raise ValueError(f"unknown report format: {fmt!r}")
    table = _TABLE_LINES.get(type(report))
    if table is None:
        raise TypeError(f"cannot emit a report for {type(report).__name__}")
    doc = {"type": table.type, **_doc_value(report)}
    if fmt == "machine":
        return json_text(doc)
    items = doc.get(table.items, ())
    values = {k: table.words[v] if isinstance(v, bool) else v for k, v in doc.items()}
    values[table.items] = len(items)
    body = list(map(table.item.format_map, items)) or [table.empty]
    lines = [table.head.format_map(values), *body, table.tail.format_map(values)]
    return "\n".join(line for line in lines if line)
