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
``_fields`` reads any record by its table and is the one path that writes a
diagnostic. A well-formed connection record takes the plain step first
(``_plain_connection``), which builds the record that ``_fields`` would have
built, through ``model._new_connection``, with one magnitude decode per
distinct literal in the file; every other record goes through ``_fields``.
``_record_text`` writes a record: each encoder returns its field's JSON text
(strings through the C ``encode_basestring_ascii`` that ``json.dumps`` uses,
rationals through ``format_rational``), laid out as
``json.dumps(indent=2)`` would (the layout of ``_json_block``), without
building a document first.

Every report is one document, a dict with a ``type`` key and one key per
field, that ``emit_report`` prints as JSON or as table text filled in from
the same keys; ``_TABLE_LINES`` holds each report class's ``type`` and table
text. ``json_text`` is the one JSON writer for reports: the same string
encoder and ``_json_block``, never ``json.dumps``. Every rational, in a
scenario file, a DOT label or a report, is printed by ``model._shortest_text``
each time it is written (a DOT label once per signed magnitude object in one
export); no text outlives the call that wrote it.
"""

from __future__ import annotations

__all__ = [
    "ParseDiagnostic", "ParseResult", "Severity", "emit_report", "export_dot", "format_rational",
    "parse_connection_doc", "parse_scenario", "serialize_scenario",
]

import json
import re
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii as _json_string
from operator import itemgetter
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
    _new_connection,
    _number_text,
    _shortest_text,
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
    :class:`ComputationError`: it has no exact text form to print. The text
    is printed on every call and never kept.
    """
    value = to_rational(value)
    return _shortest_text(value.numerator, value.denominator)


def _at(location: str | None, key: str) -> str:
    """``location.key``, or ``key`` alone when ``location`` is None (the top level)."""
    return key if location is None else f"{location}.{key}"


def _err(location: str, message: str) -> ParseDiagnostic:
    return ParseDiagnostic(Severity.ERROR, location, message)


def _warn(location: str, message: str) -> ParseDiagnostic:
    return ParseDiagnostic(Severity.WARNING, location, message)


def _warn_unknown(item: dict, known, location: str, diags: list[ParseDiagnostic]) -> None:
    """Warn at each key of ``item`` that the set or keys view ``known`` lacks."""
    for key in sorted(item.keys() - known):
        diags.append(_warn(_at(location, key), "unknown key ignored"))


# Decoders: each takes (value, location, key, diags), where ``value`` sits at
# ``key`` under ``location``; it appends a diagnostic at ``_at(location, key)``
# when the value is bad, and returns the decoded value or None.


def _string(value, location, key: str, diags: list[ParseDiagnostic]) -> str | None:
    if isinstance(value, str):
        return value
    if value is None:
        diags.append(_err(_at(location, key), "missing required key"))
    else:
        diags.append(_err(_at(location, key), f"expected a string, got {type(value).__name__}"))
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
        diags.append(_err(_at(location, key), f"unknown {what}: {_number_text(value, repr)}"))
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
    diags.append(_err(_at(location, key), message))
    return None


def _polarity(value, location, key: str, diags: list[ParseDiagnostic]) -> int | None:
    if value is None:
        diags.append(_err(_at(location, key), "missing required key"))
    elif isinstance(value, bool) or not isinstance(value, int) or value not in (1, -1):
        shown = _number_text(value, repr)
        diags.append(_err(_at(location, key), f"polarity must be 1 or -1, got {shown}"))
    else:
        return value
    return None


def _time_index(value, location, key: str, diags: list[ParseDiagnostic]) -> int | None:
    if isinstance(value, bool) or not isinstance(value, int):
        diags.append(_err(_at(location, key), "time_index must be an integer"))
        return None
    return value


def _flag(value, location, key: str, diags: list[ParseDiagnostic]) -> bool | None:
    if not isinstance(value, bool):
        diags.append(_err(_at(location, key), f"{key} must be true or false"))
        return None
    return value


def _attributes(value, location, key: str, diags: list[ParseDiagnostic]) -> AttributeVector:
    location = _at(location, key)
    decoded = _fields(value, _ATTRIBUTE_FIELDS, "attributes", location, diags)
    if decoded is None:
        return AttributeVector()
    try:
        return AttributeVector(**{k: v for k, v in decoded.items() if v is not None})
    except ValidationError as exc:
        diags.append(_err(location, str(exc)))
        return AttributeVector()


_REQUIRED = object()  # default of a field whose absence is an error


def _json_rational(value: Fraction) -> str:
    return f'"{format_rational(value)}"'


def _json_flag(value: bool) -> str:
    return "true" if value else "false"


# Field tables: record field -> (decoder, default when absent, encoder), in
# the order fields are decoded, reported and written. An encoder returns the
# field's JSON text; a str enum member is a string, written as its value. A
# decoder that treats null as absent (``_string``, ``_polarity``) says
# "missing required key" for it.
_ATTRIBUTE_FIELDS = {
    "existence": (_number, _REQUIRED, _json_rational),
    "inner_state": (_number, _REQUIRED, _json_rational),
    "external_state": (_number, _REQUIRED, _json_rational),
    "communication_state": (_number, _REQUIRED, _json_rational),
}
_ENTITY_FIELDS = {
    "id": (_string, _REQUIRED, _json_string),
    "kind": (_choice(EntityKind, "entity kind", strings_only=True), _REQUIRED, _json_string),
    "attributes": (
        _attributes, AttributeVector(), lambda a: _record_text(a, _ATTRIBUTE_FIELDS, "      ")
    ),
}
_CONNECTION_FIELDS = {
    "id": (_string, _REQUIRED, _json_string),
    "src": (_string, _REQUIRED, _json_string),
    "dst": (_string, _REQUIRED, _json_string),
    "kind": (_choice(ConnectionKind, "connection kind", strings_only=True), _REQUIRED, _json_string),
    "polarity": (_polarity, _REQUIRED, int.__repr__),
    "magnitude": (_number, _REQUIRED, _json_rational),
    "time_index": (_time_index, 0, int.__repr__),
    "blocked": (_flag, False, _json_flag),
    "confirmed": (_flag, False, _json_flag),
}
_HYPOTHETICAL_FIELDS = {
    "src": (_string, _REQUIRED, _json_string),
    "dst": (_string, _REQUIRED, _json_string),
    "magnitude": (_number, _REQUIRED, _json_rational),
}
_scoring_mode = _choice(ScoringMode, "scoring mode", strings_only=False)


def _fields(item, table: dict, what: str, location: str, diags: list[ParseDiagnostic]):
    """Decode ``item``'s fields by ``table``: a dict of key to decoded value
    (None where decoding failed), or None if ``item`` is not an object."""
    if not isinstance(item, dict):
        diags.append(_err(location, f"{what} must be an object, got {type(item).__name__}"))
        return None
    _warn_unknown(item, table.keys(), location, diags)
    values = {}
    for key, (decode, default, _) in table.items():
        if key in item:
            values[key] = decode(item[key], location, key, diags)
        elif default is _REQUIRED:
            diags.append(_err(_at(location, key), "missing required key"))
            values[key] = None
        else:
            values[key] = default
    return values


def _build(cls, values: dict | None):
    """``cls(**values)``, or None when any field failed to decode."""
    if values is None:
        return None
    for value in values.values():
        if value is None:  # not ``None in``, which calls each value's __eq__
            return None
    return cls(**values)


def _parse_entity(item, location: str, diags: list[ParseDiagnostic]) -> Entity | None:
    return _build(Entity, _fields(item, _ENTITY_FIELDS, "entity", location, diags))


def _parse_connection(item, location: str, diags: list[ParseDiagnostic]) -> Connection | None:
    return _build(Connection, _fields(item, _CONNECTION_FIELDS, "connection", location, diags))


# The plain step: a connection record that holds only table keys, each of
# which its decoder accepts without a diagnostic, is built in one step; for
# any other, None comes back and the record goes through ``_fields``, which
# writes every diagnostic. A value of a type the decoders accept but these
# checks do not (an int magnitude, a str subclass) takes the table path too,
# which builds the same record.
_CONNECTION_KINDS = {kind.value: kind for kind in ConnectionKind}
_required_connection_keys = itemgetter("id", "src", "dst", "kind", "polarity", "magnitude")


def _plain_connection(item, literals: dict) -> Connection | None:
    """The connection of a well-formed record, or None. ``literals`` maps each
    magnitude literal already decoded in this file to its ``Fraction``."""
    if type(item) is not dict:
        return None
    try:
        conn_id, src, dst, kind, polarity, magnitude = _required_connection_keys(item)
    except KeyError:
        return None
    get = item.get
    time_index = get("time_index", 0)
    blocked, confirmed = get("blocked", False), get("confirmed", False)
    if not (
        len(item) == 6 + ("time_index" in item) + ("blocked" in item) + ("confirmed" in item)
        and type(conn_id) is str and type(src) is str and type(dst) is str
        and type(kind) is str and kind in _CONNECTION_KINDS
        and type(polarity) is int and (polarity == 1 or polarity == -1)
        and type(magnitude) is str and type(time_index) is int
        and type(blocked) is bool and type(confirmed) is bool
    ):
        return None
    value = literals.get(magnitude)
    if value is None:
        try:
            value = literals[magnitude] = to_rational(magnitude)
        except ValueError:  # _LiteralTooLarge too: the table path reports it
            return None
    return _new_connection(
        conn_id, src, dst, _CONNECTION_KINDS[kind], polarity, value, time_index, blocked, confirmed
    )


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
        diags.append(_err(_at(location, "ref"), "ref must be a connection id string"))
        return None
    location = _at(location, "hypothetical")
    if not isinstance(item["hypothetical"], dict):
        diags.append(_err(location, "hypothetical must be an object"))
        return None
    values = _fields(item["hypothetical"], _HYPOTHETICAL_FIELDS, "hypothetical", location, diags)
    return _build(RosterHypothetical, values)


def _item_list(raw, key: str, parse, diags: list[ParseDiagnostic], plain=None) -> list | None:
    """The items of the array ``raw`` that ``plain`` (when given) builds or,
    failing that, ``parse`` decodes, or None if it is not an array."""
    if not isinstance(raw, list):
        diags.append(_err(key, f"expected an array, got {type(raw).__name__}"))
        return None
    items, literals = [], {}  # the plain step's literal table, for this array only
    for i, item in enumerate(raw):
        record = None if plain is None else plain(item, literals)
        if record is None:
            record = parse(item, f"{key}[{i}]", diags)
            if record is None:
                continue
        items.append(record)
    return items


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
    for key, parse, plain in (
        ("entities", _parse_entity, None),
        ("connections", _parse_connection, _plain_connection),
    ):
        if doc.get(key) is None:
            diags.append(_err(key, "missing required key"))
        else:
            arrays[key] = _item_list(doc[key], key, parse, diags, plain)
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


# A high then a low surrogate, which JSON text escapes as two characters but
# reads back as one.
_SURROGATE_PAIR = re.compile("[\ud800-\udbff][\udc00-\udfff]")


def _json_block(ends: str, items: list[str], indent: str) -> str:
    """JSON text of an object or array (``ends`` is ``{}`` or ``[]``) whose
    opening bracket sits at ``indent``, laid out as ``json.dumps(indent=2)``
    lays it out: each of its items' texts on a line of its own, two spaces in."""
    if not items:
        return ends
    inner = indent + "  "
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{ends[1]}"


def _record_text(record, table: dict, indent: str) -> str:
    """JSON text of a record whose opening brace sits at ``indent``: its
    fields in table order, each written by its encoder, leaving out a field
    at its default. It runs once per record, so it lays the record out as
    :func:`_json_block` would, without the call."""
    inner = indent + "  "
    lines = []
    for key, (_, default, encode) in table.items():
        value = getattr(record, key)
        if default is _REQUIRED or value != default:
            lines.append(f'{inner}"{key}": {encode(value)}')
    return "{\n" + ",\n".join(lines) + "\n" + indent + "}"


def _roster_entry_text(entry: RosterEntry) -> str:
    if isinstance(entry, RosterRef):
        key, value = "ref", _json_string(entry.ref)
    else:
        key, value = "hypothetical", _record_text(entry, _HYPOTHETICAL_FIELDS, "      ")
    return _json_block("{}", [f'"{key}": {value}'], "    ")


def serialize_scenario(scenario: Scenario) -> str:
    """Canonical JSON text for a scenario; identical scenarios yield
    identical bytes.

    Entities and connections are sorted by id (the scenario normalizes
    itself on construction), keys appear in a fixed order, optional fields
    at their defaults are omitted, and every rational is written in its
    shortest exact form. Output is ASCII with a trailing newline, laid out as
    ``json.dumps(doc, indent=2, ensure_ascii=True)`` lays it out. A surrogate
    pair, which JSON reads back as one character, raises ComputationError.
    """
    ensure_valid(scenario)
    lines = [
        f'"version": {FORMAT_VERSION}',
        f'"host": {_json_string(scenario.host)}',
        f'"mode": {_json_string(scenario.scoring_mode)}',
    ]
    if scenario.desired_connectivity is not None:
        lines.append(f'"desired_connectivity": {_json_rational(scenario.desired_connectivity)}')
    entities = [_record_text(e, _ENTITY_FIELDS, "    ") for e in scenario.entities]
    connections = [_record_text(c, _CONNECTION_FIELDS, "    ") for c in scenario.connections]
    lines.append(f'"entities": {_json_block("[]", entities, "  ")}')
    lines.append(f'"connections": {_json_block("[]", connections, "  ")}')
    if scenario.ideal_roster is not None:
        roster = list(map(_roster_entry_text, scenario.ideal_roster))
        lines.append(f'"ideal_roster": {_json_block("[]", roster, "  ")}')
    text = _json_block("{}", lines, "") + "\n"
    # Every other string of a valid scenario names an entity or connection id.
    if "\\ud" in text and any(
        _SURROGATE_PAIR.search(item.id) for item in scenario.entities + scenario.connections
    ):
        raise ComputationError("a string holds a surrogate pair, which reads back as one character")
    return text


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
    # Each entity id is quoted once; every endpoint names an entity.
    quoted = {entity.id: _dot_quote(entity.id) for entity in scenario.entities}
    for entity in scenario.entities:
        attrs = []
        if entity.id == scenario.host:
            attrs.append("peripheries=2")
        if entity.kind in (EntityKind.HIDDEN, EntityKind.UNKNOWN):
            attrs.append('style="dashed"')
        suffix = f" [{', '.join(attrs)}]" if attrs else ""
        lines.append(f"  {quoted[entity.id]}{suffix};")
    # Each signed magnitude is quoted once; the scenario keeps every magnitude alive.
    labels: dict[tuple[bool, int], str] = {}
    real = ConnectionKind.REAL  # read once: an enum member read costs about 100 ns
    for conn in scenario.connections:
        key = (conn.polarity > 0, id(conn.magnitude))
        label = labels.get(key)
        if label is None:
            sign = "+" if conn.polarity > 0 else "-"
            label = labels[key] = _dot_quote(sign + format_rational(conn.magnitude))
        style = "solid" if conn.kind is real else "dashed"
        gray = ', color="gray"' if conn.blocked else ""
        lines.append(
            f"  {quoted[conn.src]} -- {quoted[conn.dst]}"
            f' [label={label}, style="{style}"{gray}, id={_dot_quote(conn.id)}];'
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


_PLAIN_TYPES = frozenset((str, int, bool, type(None)))


def _doc_value(value):
    """JSON form of a report value: rationals as exact strings, enums by value."""
    if type(value) in _PLAIN_TYPES:
        return value
    if isinstance(value, Fraction):
        return _shortest_text(value.numerator, value.denominator)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return _DocList(map(_doc_value, value))
    if is_dataclass(value):
        return {name: _doc_value(getattr(value, name)) for name in _field_names(type(value))}
    return value


def json_text(value, indent: str = "") -> str:
    """The one JSON writer for report documents: the text that
    ``json.dumps(value, indent=2, ensure_ascii=True)`` writes for a document
    of string-keyed dicts, lists, strings, ints, booleans and None, with
    strings through its C encoder. ``indent`` is that of the value's line."""
    if isinstance(value, str):
        return _json_string(value)
    if value is None:
        return "null"
    if value is True or value is False:
        return _json_flag(value)
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [f"{_json_string(k)}: {json_text(v, inner)}" for k, v in value.items()]
        return _json_block("{}", items, indent)
    if isinstance(value, list):
        return _json_block("[]", [json_text(v, inner) for v in value], indent)
    raise TypeError(f"a report document cannot hold {type(value).__name__}")


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
