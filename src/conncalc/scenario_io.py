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
object's on-disk fields: their keys, order, decoders and defaults.

Every report is one document, a dict with a ``type`` key, that
``render_document`` prints as JSON or as table text read from the same keys;
``json_text`` is the one JSON writer for reports and scenario files.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from fractions import Fraction

from .ablation import QualityTrajectory, ReplacementReport
from .errors import ComputationError, ValidationError
from .metrics import ConfusionReport, ConnectivityReport
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
    _number_text,
    ensure_valid,
    to_rational,
    validate_scenario,  # noqa: F401 - kept importable here; the benchmark tracer wraps it
)

FORMAT_VERSION = 1

# Literal limits, checked before ``Fraction()`` runs: ``Fraction("1e10000000")``
# takes seconds, and more digits than the int-to-str limit cannot be parsed.
LITERAL_MAX_DIGITS = 4300
LITERAL_MAX_EXPONENT = 10_000

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


def _err(location: str, message: str) -> ParseDiagnostic:
    return ParseDiagnostic(Severity.ERROR, location, message)


def _warn(location: str, message: str) -> ParseDiagnostic:
    return ParseDiagnostic(Severity.WARNING, location, message)


def _warn_unknown(item: dict, known, location: str, diags: list[ParseDiagnostic]) -> None:
    for key in sorted(item.keys() - known):
        diags.append(_warn(f"{location}.{key}", "unknown key ignored"))


# Decoders: each takes (value, location, diags), appends a diagnostic at the
# location when the value is bad, and returns the decoded value or None.
# The flag and time-index decoders fall back to their defaults instead, which
# is what ``parse_connection_doc`` returns alongside the diagnostic.


def _string(value, location: str, diags: list[ParseDiagnostic]) -> str | None:
    if isinstance(value, str):
        return value
    if value is None:
        diags.append(_err(location, "missing required key"))
    else:
        diags.append(_err(location, f"expected a string, got {type(value).__name__}"))
    return None


def _choice(enum: type[Enum], what: str, *, strings_only: bool):
    """Decoder for one of ``enum``'s values; with ``strings_only``, a value
    that is not a string is reported as :func:`_string` reports it."""
    members = {member.value: member for member in enum}

    def decode(value, location: str, diags: list[ParseDiagnostic]):
        if isinstance(value, str):
            member = members.get(value)
            if member is not None:
                return member
        elif strings_only:
            return _string(value, location, diags)
        diags.append(_err(location, f"unknown {what}: {_number_text(value, repr)}"))
        return None

    return decode


class _LiteralTooLarge(ValueError):
    """A numeric literal past the literal limits."""


def parse_number(text: str) -> Fraction:
    """``Fraction(text)`` for a numeric literal within the literal limits (also
    the ``parse_float`` hook, so JSON floats are exact)."""
    if len(text) > 6:  # a shorter literal is inside both limits
        mantissa, _, exponent = text.replace("E", "e").partition("e")
        if sum(map(str.isdecimal, mantissa)) > LITERAL_MAX_DIGITS:
            raise _LiteralTooLarge(f"numeric literal has more than {LITERAL_MAX_DIGITS} digits")
        exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        longer = len(exponent) > len(str(LITERAL_MAX_EXPONENT))
        if exponent.isdecimal() and (longer or int(exponent) > LITERAL_MAX_EXPONENT):
            raise _LiteralTooLarge(f"numeric literal has an exponent past {LITERAL_MAX_EXPONENT}")
    return Fraction(text)


def _number(value, location: str, diags: list[ParseDiagnostic]) -> Fraction | None:
    """Decode a number written as a decimal string, integer, or fraction."""
    if isinstance(value, str):
        try:
            return parse_number(value)
        except _LiteralTooLarge as exc:
            diags.append(_err(location, str(exc)))
            return None
        except (ValueError, ZeroDivisionError):
            diags.append(_err(location, f"not a numeric string: {value!r}"))
            return None
    if isinstance(value, bool):
        diags.append(_err(location, "expected a number as a decimal string, got a boolean"))
        return None
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    diags.append(
        _err(location, f"expected a number as a decimal string, got {type(value).__name__}")
    )
    return None


def _polarity(value, location: str, diags: list[ParseDiagnostic]) -> int | None:
    if value is None:
        diags.append(_err(location, "missing required key"))
    elif isinstance(value, bool) or not isinstance(value, int) or value not in (1, -1):
        diags.append(_err(location, f"polarity must be 1 or -1, got {_number_text(value, repr)}"))
    else:
        return value
    return None


def _time_index(value, location: str, diags: list[ParseDiagnostic]) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        diags.append(_err(location, "time_index must be an integer"))
        return 0
    return value


def _flag(value, location: str, diags: list[ParseDiagnostic]) -> bool:
    if not isinstance(value, bool):
        key = location.rpartition(".")[2]
        diags.append(_err(location, f"{key} must be true or false"))
        return False
    return value


def _attributes(value, location: str, diags: list[ParseDiagnostic]) -> AttributeVector:
    decoded = _fields(value, _ATTRIBUTE_FIELDS, "attributes", location, diags)
    if decoded is None:
        return AttributeVector()
    try:
        return AttributeVector(**{k: v for k, v in decoded.items() if v is not None})
    except ValidationError as exc:
        diags.append(_err(location, str(exc)))
        return AttributeVector()


_REQUIRED = object()  # default of a field whose absence is an error

# Field tables: on-disk key -> (decoder, default when the key is absent), in
# the order the fields are decoded and reported. A decoder that treats null
# as absent (``_string``, ``_polarity``) says "missing required key" for it.
_ATTRIBUTE_FIELDS = {
    "existence": (_number, _REQUIRED),
    "inner_state": (_number, _REQUIRED),
    "external_state": (_number, _REQUIRED),
    "communication_state": (_number, _REQUIRED),
}
_ENTITY_FIELDS = {
    "id": (_string, _REQUIRED),
    "kind": (_choice(EntityKind, "entity kind", strings_only=True), _REQUIRED),
    "attributes": (_attributes, AttributeVector()),
}
_CONNECTION_FIELDS = {
    "id": (_string, _REQUIRED),
    "src": (_string, _REQUIRED),
    "dst": (_string, _REQUIRED),
    "kind": (_choice(ConnectionKind, "connection kind", strings_only=True), _REQUIRED),
    "polarity": (_polarity, _REQUIRED),
    "magnitude": (_number, _REQUIRED),
    "time_index": (_time_index, 0),
    "blocked": (_flag, False),
    "confirmed": (_flag, False),
}
_HYPOTHETICAL_FIELDS = {
    "src": (_string, _REQUIRED),
    "dst": (_string, _REQUIRED),
    "magnitude": (_number, _REQUIRED),
}
_scoring_mode = _choice(ScoringMode, "scoring mode", strings_only=False)


def _fields(item, table: dict, what: str, location: str, diags: list[ParseDiagnostic]):
    """Decode ``item``'s fields by ``table``: a dict of key to decoded value
    (None where decoding failed), or None if ``item`` is not an object."""
    if not isinstance(item, dict):
        diags.append(_err(location, f"{what} must be an object, got {type(item).__name__}"))
        return None
    _warn_unknown(item, table, location, diags)
    values = {}
    for key, (decode, default) in table.items():
        if key in item:
            values[key] = decode(item[key], f"{location}.{key}", diags)
        elif default is _REQUIRED:
            diags.append(_err(f"{location}.{key}", "missing required key"))
            values[key] = None
        else:
            values[key] = default
    return values


def _build(cls, values: dict | None):
    """``cls(**values)``, or None when any field failed to decode."""
    if values is None or None in values.values():
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
        diags.append(_err(f"{location}.ref", "ref must be a connection id string"))
        return None
    location = f"{location}.hypothetical"
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
        doc = json.loads(text, parse_float=parse_number)
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

    host = _string(doc.get("host"), "host", diags)
    mode = _scoring_mode(doc.get("mode", ScoringMode.RAW.value), "mode", diags)
    desired = None
    if "desired_connectivity" in doc:
        desired = _number(doc["desired_connectivity"], "desired_connectivity", diags)

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


def _entity_doc(entity: Entity) -> dict:
    doc: dict[str, object] = {"id": entity.id, "kind": entity.kind.value}
    if entity.attributes != AttributeVector():
        doc["attributes"] = _doc_value(entity.attributes)
    return doc


def _connection_doc(conn: Connection) -> dict:
    doc: dict[str, object] = {
        "id": conn.id,
        "src": conn.src,
        "dst": conn.dst,
        "kind": conn.kind.value,
        "polarity": conn.polarity,
        "magnitude": format_rational(conn.magnitude),
    }
    if conn.time_index != 0:
        doc["time_index"] = conn.time_index
    if conn.blocked:
        doc["blocked"] = True
    if conn.confirmed:
        doc["confirmed"] = True
    return doc


def _roster_doc(entry: RosterEntry) -> dict:
    if isinstance(entry, RosterRef):
        return _doc_value(entry)
    return {"hypothetical": _doc_value(entry)}


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
    doc["entities"] = [_entity_doc(e) for e in scenario.entities]
    doc["connections"] = [_connection_doc(c) for c in scenario.connections]
    if scenario.ideal_roster is not None:
        doc["ideal_roster"] = [_roster_doc(r) for r in scenario.ideal_roster]
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
    out = []
    for i, ch in enumerate(value):
        if ch == '"':
            out.append('\\"')
        elif ch == "\\" and (i + 1 == len(value) or value[i + 1] == '"'):
            out.append("\\\\")
        else:
            out.append(ch)
    return '"' + "".join(out) + '"'


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


# The table form of each report document, filled in from the document itself.
_TABLE_LINES = {
    "connectivity_report": (
        "score={score} ideal={ideal} efficiency={efficiency_percent}% band={band} mode={mode}"
    ),
    "confusion_report": "z={z} quality={quality_percent}% confused={confused} causes={causes}",
    "quality_report": "score={score} desired={desired} quality={quality_percent}% band={band}",
    "quality_trajectory": "order={order} ideal={ideal} steps={steps}",
    "replacement_report": (
        "blocked={blocked_id} replacement={replacement_id} quality_before={quality_before}%"
        " quality_blocked={quality_blocked}% quality_after={quality_after}%"
    ),
}
_STEP_LINE = "step={step} blocked={blocked_connection} score={score} efficiency={efficiency_percent}%"


def _table_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return ",".join(value) or "none"
    return value


def render_document(doc: dict, fmt: str) -> str:
    """Render a report document as JSON (``machine``) or as table text; a
    trajectory's table is a header line with the step count, then one line per step."""
    if fmt == "machine":
        return json_text(doc)
    steps = doc.get("steps", [])
    values = {key: _table_text(value) for key, value in doc.items() if key != "steps"}
    lines = [_TABLE_LINES[doc["type"]].format(steps=len(steps), **values)]
    lines.extend(_STEP_LINE.format(**step) for step in steps)
    return "\n".join(lines)


# Report classes and their document ``type``; each field becomes a key.
_DOC_TYPES = {
    ConnectivityReport: "connectivity_report",
    ConfusionReport: "confusion_report",
    QualityTrajectory: "quality_trajectory",
    ReplacementReport: "replacement_report",
}


def _doc_value(value):
    """JSON form of a report value: rationals as exact strings, enums by value."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, tuple):
        return [_doc_value(item) for item in value]
    if is_dataclass(value):
        return {f.name: _doc_value(getattr(value, f.name)) for f in fields(value)}
    return value


def _report_doc(report) -> dict:
    for cls, doc_type in _DOC_TYPES.items():
        if isinstance(report, cls):
            return {"type": doc_type, **_doc_value(report)}
    raise TypeError(f"cannot emit a report for {type(report).__name__}")


def emit_report(report, fmt: str = "table") -> str:
    """Render a report for people (``table``) or machines (``machine``).

    The machine format is JSON with a ``type`` discriminator and every
    number as an exact string; the table form reads the same document.
    """
    if fmt not in ("table", "machine"):
        raise ValueError(f"unknown report format: {fmt!r}")
    return render_document(_report_doc(report), fmt)
