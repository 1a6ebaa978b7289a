"""Reading, writing, and rendering scenarios.

The on-disk format is JSON with every number carried as an exact decimal
string (``"12.5"``) or integer; fractions that have no finite decimal form
are written ``"p/q"``. Serialization is canonical: a given scenario always
produces the same bytes, entities and connections sorted by id, keys in a
fixed order, defaults omitted. Parsing is lenient where it can be (unknown
keys warn) and exact where it must be (floats in the JSON source are decoded
to rationals before any float arithmetic can occur).

Every report is one document, a dict with a ``type`` key, that
``render_document`` prints as JSON or as table text read from the same keys;
``json_text`` is the one JSON writer for reports and scenario files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from fractions import Fraction

from .ablation import QualityTrajectory, ReplacementReport
from .errors import ValidationError
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
    ensure_valid,
    to_rational,
    validate_scenario,
)

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
_ENTITY_KEYS = {"id", "kind", "attributes"}
_ATTRIBUTE_KEYS = ("existence", "inner_state", "external_state", "communication_state")
_CONNECTION_KEYS = {
    "id",
    "src",
    "dst",
    "kind",
    "polarity",
    "magnitude",
    "time_index",
    "blocked",
    "confirmed",
}
_HYPOTHETICAL_KEYS = {"src", "dst", "magnitude"}


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
    decimals with no trailing zeros, everything else prints ``p/q``.
    """
    value = to_rational(value)
    num, den = value.numerator, value.denominator
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
    whole, frac = digits[:-scale], digits[-scale:]
    frac = frac.rstrip("0")
    sign = "-" if num < 0 else ""
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def _err(location: str, message: str) -> ParseDiagnostic:
    return ParseDiagnostic(Severity.ERROR, location, message)


def _warn(location: str, message: str) -> ParseDiagnostic:
    return ParseDiagnostic(Severity.WARNING, location, message)


def _rational_field(value, location: str, diags: list[ParseDiagnostic]) -> Fraction | None:
    """Decode a number written as a decimal string, integer, or fraction."""
    if isinstance(value, bool):
        diags.append(_err(location, "expected a number as a decimal string, got a boolean"))
        return None
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError):
            diags.append(_err(location, f"not a numeric string: {value!r}"))
            return None
    diags.append(
        _err(location, f"expected a number as a decimal string, got {type(value).__name__}")
    )
    return None


def _string_field(item: dict, key: str, location: str, diags: list[ParseDiagnostic]) -> str | None:
    value = item.get(key)
    if value is None:
        diags.append(_err(f"{location}.{key}", "missing required key"))
        return None
    if not isinstance(value, str):
        diags.append(_err(f"{location}.{key}", f"expected a string, got {type(value).__name__}"))
        return None
    return value


def _warn_unknown(item: dict, known, location: str, diags: list[ParseDiagnostic]) -> None:
    for key in sorted(set(item) - set(known)):
        diags.append(_warn(f"{location}.{key}", "unknown key ignored"))


def _parse_attributes(raw, location: str, diags: list[ParseDiagnostic]) -> AttributeVector:
    if not isinstance(raw, dict):
        diags.append(_err(location, f"attributes must be an object, got {type(raw).__name__}"))
        return AttributeVector()
    _warn_unknown(raw, _ATTRIBUTE_KEYS, location, diags)
    values = {}
    for key in _ATTRIBUTE_KEYS:
        if key not in raw:
            diags.append(_err(f"{location}.{key}", "missing required key"))
            continue
        decoded = _rational_field(raw[key], f"{location}.{key}", diags)
        if decoded is not None:
            values[key] = decoded
    try:
        return AttributeVector(**values)
    except ValidationError as exc:
        diags.append(_err(location, str(exc)))
        return AttributeVector()


def _parse_entity(item, location: str, diags: list[ParseDiagnostic]) -> Entity | None:
    if not isinstance(item, dict):
        diags.append(_err(location, f"entity must be an object, got {type(item).__name__}"))
        return None
    _warn_unknown(item, _ENTITY_KEYS, location, diags)
    entity_id = _string_field(item, "id", location, diags)
    kind = _string_field(item, "kind", location, diags)
    if kind is not None and kind not in {k.value for k in EntityKind}:
        diags.append(_err(f"{location}.kind", f"unknown entity kind: {kind!r}"))
        kind = None
    attributes = AttributeVector()
    if "attributes" in item:
        attributes = _parse_attributes(item["attributes"], f"{location}.attributes", diags)
    if entity_id is None or kind is None:
        return None
    return Entity(id=entity_id, kind=EntityKind(kind), attributes=attributes)


def _parse_connection(item, location: str, diags: list[ParseDiagnostic]) -> Connection | None:
    if not isinstance(item, dict):
        diags.append(_err(location, f"connection must be an object, got {type(item).__name__}"))
        return None
    _warn_unknown(item, _CONNECTION_KEYS, location, diags)
    connection_id = _string_field(item, "id", location, diags)
    src = _string_field(item, "src", location, diags)
    dst = _string_field(item, "dst", location, diags)
    kind = _string_field(item, "kind", location, diags)
    if kind is not None and kind not in {k.value for k in ConnectionKind}:
        diags.append(_err(f"{location}.kind", f"unknown connection kind: {kind!r}"))
        kind = None

    polarity = item.get("polarity")
    if polarity is None:
        diags.append(_err(f"{location}.polarity", "missing required key"))
    elif isinstance(polarity, bool) or not isinstance(polarity, int) or polarity not in (1, -1):
        diags.append(_err(f"{location}.polarity", f"polarity must be 1 or -1, got {polarity!r}"))
        polarity = None

    magnitude = None
    if "magnitude" not in item:
        diags.append(_err(f"{location}.magnitude", "missing required key"))
    else:
        magnitude = _rational_field(item["magnitude"], f"{location}.magnitude", diags)

    time_index = item.get("time_index", 0)
    if isinstance(time_index, bool) or not isinstance(time_index, int):
        diags.append(_err(f"{location}.time_index", "time_index must be an integer"))
        time_index = 0

    flags = {}
    for key in ("blocked", "confirmed"):
        value = item.get(key, False)
        if not isinstance(value, bool):
            diags.append(_err(f"{location}.{key}", f"{key} must be true or false"))
            value = False
        flags[key] = value

    if None in (connection_id, src, dst, kind, polarity, magnitude):
        return None
    return Connection(
        id=connection_id,
        src=src,
        dst=dst,
        kind=ConnectionKind(kind),
        polarity=polarity,
        magnitude=magnitude,
        time_index=time_index,
        blocked=flags["blocked"],
        confirmed=flags["confirmed"],
    )


def _parse_roster_entry(item, location: str, diags: list[ParseDiagnostic]) -> RosterEntry | None:
    if not isinstance(item, dict):
        diags.append(_err(location, f"roster entry must be an object, got {type(item).__name__}"))
        return None
    has_ref = "ref" in item
    has_hyp = "hypothetical" in item
    if has_ref == has_hyp:
        diags.append(_err(location, "roster entry must have exactly one of 'ref' or 'hypothetical'"))
        return None
    _warn_unknown(item, {"ref", "hypothetical"}, location, diags)
    if has_ref:
        ref = item["ref"]
        if not isinstance(ref, str):
            diags.append(_err(f"{location}.ref", "ref must be a connection id string"))
            return None
        return RosterRef(ref=ref)
    raw = item["hypothetical"]
    if not isinstance(raw, dict):
        diags.append(_err(f"{location}.hypothetical", "hypothetical must be an object"))
        return None
    _warn_unknown(raw, _HYPOTHETICAL_KEYS, f"{location}.hypothetical", diags)
    src = _string_field(raw, "src", f"{location}.hypothetical", diags)
    dst = _string_field(raw, "dst", f"{location}.hypothetical", diags)
    magnitude = None
    if "magnitude" not in raw:
        diags.append(_err(f"{location}.hypothetical.magnitude", "missing required key"))
    else:
        magnitude = _rational_field(raw["magnitude"], f"{location}.hypothetical.magnitude", diags)
    if None in (src, dst, magnitude):
        return None
    return RosterHypothetical(src=src, dst=dst, magnitude=magnitude)


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
    diags: list[ParseDiagnostic] = []
    try:
        doc = json.loads(text, parse_float=Fraction)
    except json.JSONDecodeError as exc:
        diags.append(
            _err("document", f"invalid JSON: {exc.msg} (line {exc.lineno}, column {exc.colno})")
        )
        return ParseResult(None, tuple(diags))
    if not isinstance(doc, dict):
        return ParseResult(None, (_err("document", "top-level JSON value must be an object"),))

    _warn_unknown(doc, _TOP_KEYS, "document", diags)

    version = doc.get("version")
    if version is None:
        diags.append(_err("version", "missing required key"))
    elif isinstance(version, bool) or not isinstance(version, int) or version != FORMAT_VERSION:
        diags.append(_err("version", f"unsupported format version {version!r}; expected 1"))

    host = doc.get("host")
    if host is None:
        diags.append(_err("host", "missing required key"))
        host = ""
    elif not isinstance(host, str):
        diags.append(_err("host", f"expected a string, got {type(host).__name__}"))
        host = ""

    mode_raw = doc.get("mode", ScoringMode.RAW.value)
    if mode_raw not in {m.value for m in ScoringMode}:
        diags.append(_err("mode", f"unknown scoring mode: {mode_raw!r}"))
        mode_raw = ScoringMode.RAW.value

    desired = None
    if "desired_connectivity" in doc:
        desired = _rational_field(doc["desired_connectivity"], "desired_connectivity", diags)

    entities: list[Entity] = []
    raw_entities = doc.get("entities")
    if raw_entities is None:
        diags.append(_err("entities", "missing required key"))
    elif not isinstance(raw_entities, list):
        diags.append(_err("entities", f"expected an array, got {type(raw_entities).__name__}"))
    else:
        for i, item in enumerate(raw_entities):
            parsed = _parse_entity(item, f"entities[{i}]", diags)
            if parsed is not None:
                entities.append(parsed)

    connections: list[Connection] = []
    raw_connections = doc.get("connections")
    if raw_connections is None:
        diags.append(_err("connections", "missing required key"))
    elif not isinstance(raw_connections, list):
        diags.append(
            _err("connections", f"expected an array, got {type(raw_connections).__name__}")
        )
    else:
        for i, item in enumerate(raw_connections):
            parsed = _parse_connection(item, f"connections[{i}]", diags)
            if parsed is not None:
                connections.append(parsed)

    roster: list[RosterEntry] | None = None
    if "ideal_roster" in doc:
        raw_roster = doc["ideal_roster"]
        if not isinstance(raw_roster, list):
            diags.append(
                _err("ideal_roster", f"expected an array, got {type(raw_roster).__name__}")
            )
        else:
            roster = []
            for i, item in enumerate(raw_roster):
                parsed = _parse_roster_entry(item, f"ideal_roster[{i}]", diags)
                if parsed is not None:
                    roster.append(parsed)

    if any(d.severity is Severity.ERROR for d in diags):
        return ParseResult(None, tuple(diags))

    scenario = Scenario(
        entities=tuple(entities),
        connections=tuple(connections),
        host=host,
        ideal_roster=tuple(roster) if roster is not None else None,
        scoring_mode=ScoringMode(mode_raw),
        desired_connectivity=desired,
    )
    violations = validate_scenario(scenario)
    for violation in violations:
        diags.append(_err(f"{violation.subject}.{violation.field}", violation.message))
    if violations:
        return ParseResult(None, tuple(diags))
    return ParseResult(scenario, tuple(diags))


def _entity_doc(entity: Entity) -> dict:
    doc: dict[str, object] = {"id": entity.id, "kind": entity.kind.value}
    if entity.attributes != AttributeVector():
        attrs = entity.attributes
        doc["attributes"] = {
            "existence": format_rational(attrs.existence),
            "inner_state": format_rational(attrs.inner_state),
            "external_state": format_rational(attrs.external_state),
            "communication_state": format_rational(attrs.communication_state),
        }
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
        return {"ref": entry.ref}
    return {
        "hypothetical": {
            "src": entry.src,
            "dst": entry.dst,
            "magnitude": format_rational(entry.magnitude),
        }
    }


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
