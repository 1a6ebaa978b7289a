"""Reading, writing, and rendering scenarios.

The on-disk format is JSON with every number carried as an exact decimal
string (``"12.5"``) or integer; fractions that have no finite decimal form
are written ``"p/q"``. Serialization is canonical: a given scenario always
produces the same bytes, entities and connections sorted by id, keys in a
fixed order, defaults omitted. Parsing is lenient where it can be (unknown
keys warn) and exact where it must be (floats in the JSON source are decoded
to rationals before any float arithmetic can occur).

The field tables (``_ENTITY_FIELDS``, ``_ATTRIBUTE_FIELDS``, ``_CONNECTION_FIELDS``,
``_HYPOTHETICAL_FIELDS``) are the one list of each record's on-disk fields: their keys,
order, decoders and defaults. ``_fields`` reads any record by its table and is the one
path that writes a diagnostic. The entities and the connections are each read by one walk
over their array (``_entity_list``, ``_connection_list``), which builds each well-formed
record in one frame, through ``model._new_entity`` or ``_new_connection``, as ``_fields``
would build it, and leaves any other record to ``_fields``. Each parse has one literal
table (``_decode``), shared by the walks, ``_number`` and the JSON float hook: a distinct
literal decodes once per parse, and no decoded value outlives the parse.

A file without an ideal roster is proven valid as it is read, by the rules of
``model.validate_scenario``: each walk checks its records while their values are in
locals, and ``parse_scenario`` the host and the desired connectivity. A proven scenario
is built once, already sorted, with no violations (``model._proven_scenario``), which
saves validation's second walk over the connections and their sort. Any other goes to
``Scenario(...)`` and validation, which writes every diagnostic. The proof calls
``model._check_magnitude`` and ``model._check_printable`` through the module, where the
count guards see them.

JSON is written as ``json.dumps(indent=2, ensure_ascii=True)`` writes it (the layout of
``_json_block``), strings through its C ``encode_basestring_ascii``. A record writer
(``_entity_json``, ``_connection_json``, ``_hypothetical_json``) lays its record out in
one f-string read straight from its attributes, leaving out a field at its table's
default. A walk or a writer runs once per record, so it keeps its reads, tests and
lookups inline: a call would add a frame per record, and a walk of the table a call
per field. Each restates its table's keys, and the tests fail where the two differ. A
report is one document, a ``type`` key and one key per field, written as table text or
JSON lines by the functions ``_TABLE_LINES`` holds for its class. Every rational is
printed by ``model._shortest_text``: once per distinct object per ``serialize_scenario``
call, once per signed magnitude object per DOT export, and once per field in a report.
No text outlives the call that wrote it.
"""

from __future__ import annotations

__all__ = [
    "ParseDiagnostic", "ParseResult", "Severity", "emit_report", "export_dot", "format_rational",
    "parse_connection_doc", "parse_scenario", "serialize_scenario",
]

import json
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from json.encoder import encode_basestring_ascii as _json_string
from operator import itemgetter

from . import model
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
    _new_entity,
    _number_text,
    _proven_scenario,
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


def _decode(literals: dict, text: str) -> Fraction:
    """``to_rational(text)``, once per parse: ``literals`` keeps each literal that decodes."""
    value = literals.get(text)
    if value is None:
        value = literals[text] = to_rational(text)
    return value


# Decoders: each takes (value, location, key, diags, literals), ``value`` sitting
# at ``key`` under ``location``; it appends a diagnostic at ``_at(location, key)``
# when the value is bad, and returns the decoded value or None.


def _string(value, location, key: str, diags: list, literals: dict) -> str | None:
    if isinstance(value, str):
        return value
    if value is None:
        diags.append(_err(_at(location, key), "missing required key"))
    else:
        diags.append(_err(_at(location, key), f"expected a string, got {type(value).__name__}"))
    return None


def _choice(members: dict, what: str, *, strings_only: bool):
    """Decoder for a key of ``members``, an enum's value-to-member map; with ``strings_only``,
    a value that is not a string is reported as :func:`_string` reports it."""

    def decode(value, location, key: str, diags: list, literals: dict):
        if isinstance(value, str):
            member = members.get(value)
            if member is not None:
                return member
        elif strings_only:
            return _string(value, location, key, diags, literals)
        diags.append(_err(_at(location, key), f"unknown {what}: {_number_text(value, repr)}"))
        return None

    return decode


def _number(value, location, key: str, diags: list, literals: dict) -> Fraction | None:
    """Decode a number written as a decimal string, integer, or fraction."""
    try:
        return _decode(literals, value) if type(value) is str else to_rational(value)
    except _LiteralTooLarge as exc:
        message = str(exc)
    except ValueError:
        message = f"not a numeric string: {value!r}"
    except TypeError:
        shown = "a boolean" if isinstance(value, bool) else type(value).__name__
        message = f"expected a number as a decimal string, got {shown}"
    diags.append(_err(_at(location, key), message))
    return None


def _polarity(value, location, key: str, diags: list, literals: dict) -> int | None:
    if value is None:
        diags.append(_err(_at(location, key), "missing required key"))
    elif isinstance(value, bool) or not isinstance(value, int) or value not in (1, -1):
        shown = _number_text(value, repr)
        diags.append(_err(_at(location, key), f"polarity must be 1 or -1, got {shown}"))
    else:
        return value
    return None


def _time_index(value, location, key: str, diags: list, literals: dict) -> int | None:
    if isinstance(value, bool) or not isinstance(value, int):
        diags.append(_err(_at(location, key), "time_index must be an integer"))
        return None
    return value


def _flag(value, location, key: str, diags: list, literals: dict) -> bool | None:
    if not isinstance(value, bool):
        diags.append(_err(_at(location, key), f"{key} must be true or false"))
        return None
    return value


def _attributes(value, location, key: str, diags: list, literals: dict) -> AttributeVector:
    location = _at(location, key)
    decoded = _fields(value, _ATTRIBUTE_FIELDS, "attributes", location, diags, literals)
    if decoded is None:
        return AttributeVector()
    try:
        return AttributeVector(**{k: v for k, v in decoded.items() if v is not None})
    except ValidationError as exc:
        diags.append(_err(location, str(exc)))
        return AttributeVector()


_REQUIRED = object()  # default of a field whose absence is an error
_DEFAULT_ATTRIBUTES = AttributeVector()  # shared by every entity read without any
# Each enum's value-to-member map, read by its decoder and by a walk.
_ENTITY_KINDS = {kind.value: kind for kind in EntityKind}
_CONNECTION_KINDS = {kind.value: kind for kind in ConnectionKind}


# Field tables: record field -> (decoder, default when absent), in the order
# fields are decoded, reported and written (the record class's field order),
# required fields first. A decoder that treats null as absent (``_string``,
# ``_polarity``) says "missing required key" for it.
_ATTRIBUTE_FIELDS = {
    "existence": (_number, _REQUIRED),
    "inner_state": (_number, _REQUIRED),
    "external_state": (_number, _REQUIRED),
    "communication_state": (_number, _REQUIRED),
}
_ENTITY_FIELDS = {
    "id": (_string, _REQUIRED),
    "kind": (_choice(_ENTITY_KINDS, "entity kind", strings_only=True), _REQUIRED),
    "attributes": (_attributes, _DEFAULT_ATTRIBUTES),
}
_CONNECTION_FIELDS = {
    "id": (_string, _REQUIRED),
    "src": (_string, _REQUIRED),
    "dst": (_string, _REQUIRED),
    "kind": (_choice(_CONNECTION_KINDS, "connection kind", strings_only=True), _REQUIRED),
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
_scoring_mode = _choice({m.value: m for m in ScoringMode}, "scoring mode", strings_only=False)


def _fields(item, table: dict, what: str, location: str, diags: list, literals: dict):
    """Decode ``item``'s fields by ``table``, through the parse's ``literals``:
    a dict of key to decoded value (None where decoding failed), or None if
    ``item`` is not an object."""
    if not isinstance(item, dict):
        diags.append(_err(location, f"{what} must be an object, got {type(item).__name__}"))
        return None
    _warn_unknown(item, table.keys(), location, diags)
    values = {}
    for key, (decode, default) in table.items():
        if key in item:
            values[key] = decode(item[key], location, key, diags, literals)
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


def _parse_entity(item, location: str, diags: list, literals: dict) -> Entity | None:
    return _build(Entity, _fields(item, _ENTITY_FIELDS, "entity", location, diags, literals))


def _parse_connection(item, location: str, diags: list, literals: dict) -> Connection | None:
    values = _fields(item, _CONNECTION_FIELDS, "connection", location, diags, literals)
    return _build(Connection, values)


# The walks leave to ``_fields`` any record they would not build silently, and any str
# subclass or int magnitude, which it would.
_ENTITY_KEYS = itemgetter("id", "kind")
_ATTRIBUTE_KEYS = itemgetter("existence", "inner_state", "external_state", "communication_state")
_CONNECTION_KEYS = itemgetter("id", "src", "dst", "kind", "polarity", "magnitude")


class _Refused(Exception):
    """A record that a walk leaves to its field table."""


def _entity_list(raw, diags: list, literals: dict):
    """The entities of the array ``raw`` (None if it is not one), and their ids as a set
    when this walk proved them nonempty and strictly increasing (so unique and sorted),
    or None.

    A well-formed record is built through ``_new_entity``; any other goes to
    ``_parse_entity``, and the entity it builds counts toward the proof all the same."""
    if not isinstance(raw, list):
        diags.append(_err("entities", f"expected an array, got {type(raw).__name__}"))
        return None, None
    items, proven, previous = [], True, ""
    for index, item in enumerate(raw):
        try:
            if type(item) is not dict:
                raise _Refused
            entity_id, kind = _ENTITY_KEYS(item)
            attributes = _DEFAULT_ATTRIBUTES
            if len(item) != 2:  # read only when present
                attributes = item.get("attributes")
                if len(item) != 3 or type(attributes) is not dict or len(attributes) != 4:
                    raise _Refused
                e, i, x, c = _ATTRIBUTE_KEYS(attributes)
                if not (type(e) is str and type(i) is str and type(x) is str and type(c) is str):
                    raise _Refused
                attributes = AttributeVector(  # the public class checks every value
                    literals[e] if e in literals else _decode(literals, e),
                    literals[i] if i in literals else _decode(literals, i),
                    literals[x] if x in literals else _decode(literals, x),
                    literals[c] if c in literals else _decode(literals, c),
                )
            if not (type(entity_id) is str and type(kind) is str and kind in _ENTITY_KINDS):
                raise _Refused
            record = _new_entity(entity_id, _ENTITY_KINDS[kind], attributes)
        except (_Refused, KeyError, ValueError, ValidationError):  # _fields reports it
            record = _parse_entity(item, f"entities[{index}]", diags, literals)
            if record is None:
                continue
            entity_id = record.id
        if proven and not previous < entity_id:
            proven = False
        previous = entity_id
        items.append(record)
    return items, {entity.id for entity in items} if proven else None


def _parse_roster_entry(item, location: str, diags: list, literals: dict) -> RosterEntry | None:
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
    hypothetical = item["hypothetical"]
    if not isinstance(hypothetical, dict):
        diags.append(_err(location, "hypothetical must be an object"))
        return None
    values = _fields(hypothetical, _HYPOTHETICAL_FIELDS, "hypothetical", location, diags, literals)
    return _build(RosterHypothetical, values)


def _connection_list(raw, diags: list, literals: dict, entity_ids: set | None):
    """The connections of the array ``raw`` (None if it is not one), and whether this
    walk proved them valid against ``entity_ids`` (from :func:`_entity_list`; None
    proves nothing).

    A well-formed record is built through ``_new_connection``; any other goes to
    ``_parse_connection``, and the proof fails. The proof holds while each id is
    greater than the last (so nonempty, unique and sorted), both endpoints are entity
    ids, ``src == dst`` exactly when the kind is ``self``, ``time_index >= 0`` and each
    distinct magnitude literal passes ``model._check_magnitude``, checked once."""
    if not isinstance(raw, list):
        diags.append(_err("connections", f"expected an array, got {type(raw).__name__}"))
        return None, False
    items, proven, previous = [], entity_ids is not None, ""
    magnitudes = {}  # each magnitude literal read -> its value, checked while the proof held
    for i, item in enumerate(raw):
        try:
            if type(item) is not dict:
                raise _Refused
            conn_id, src, dst, kind, polarity, magnitude = _CONNECTION_KEYS(item)
            time_index, blocked, confirmed = 0, False, False
            if len(item) != 6:  # most records of a canonical file hold just the required keys
                time_index = item.get("time_index", 0)
                blocked = item.get("blocked", False)
                confirmed = item.get("confirmed", False)
                if len(item) != 6 + ("time_index" in item) + ("blocked" in item) + (
                    "confirmed" in item
                ):
                    raise _Refused
            if not (
                type(conn_id) is str and type(src) is str and type(dst) is str
                and type(kind) is str and kind in _CONNECTION_KINDS and type(polarity) is int
                and (polarity == 1 or polarity == -1) and type(magnitude) is str
                and type(time_index) is int and type(blocked) is bool and type(confirmed) is bool
            ):
                raise _Refused
            if magnitude in magnitudes:
                magnitude = magnitudes[magnitude]
            else:
                text = magnitude
                magnitude = _decode(literals, text)
                if proven and model._check_magnitude(magnitude) is not None:
                    proven = False
                magnitudes[text] = magnitude
        except (_Refused, KeyError, ValueError):  # _fields reports it
            proven = False
            record = _parse_connection(item, f"connections[{i}]", diags, literals)
            if record is not None:
                items.append(record)
            continue
        if proven and not (
            previous < conn_id and src in entity_ids and dst in entity_ids
            and (src == dst) == (kind == "self") and time_index >= 0
        ):
            proven = False
        previous = conn_id
        items.append(_new_connection(
            conn_id, src, dst, _CONNECTION_KINDS[kind], polarity, magnitude, time_index, blocked,
            confirmed,
        ))
    return items, proven


def parse_connection_doc(
    doc, location: str = "connection"
) -> tuple[Connection | None, tuple[ParseDiagnostic, ...]]:
    """Decode one connection object; None plus diagnostics on failure."""
    diags: list[ParseDiagnostic] = []
    connection = _parse_connection(doc, location, diags, {})
    return connection, tuple(diags)


def parse_scenario(text: str) -> ParseResult:
    """Parse scenario JSON, collecting diagnostics instead of stopping early.

    Returns a result whose scenario is None when any error was found.
    Warnings (unknown keys) never prevent parsing. All numeric fields are
    decoded exactly; JSON floats become rationals without a float detour.
    """
    literals: dict[str, Fraction] = {}  # the parse's literal table, see ``_decode``
    try:
        doc = json.loads(text, parse_float=partial(_decode, literals))
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

    host = _string(doc.get("host"), None, "host", diags, literals)
    mode = _scoring_mode(doc.get("mode", ScoringMode.RAW.value), None, "mode", diags, literals)
    desired = None
    if "desired_connectivity" in doc:
        desired = doc["desired_connectivity"]
        desired = _number(desired, None, "desired_connectivity", diags, literals)

    # A null entities or connections array is missing; a null roster is not an array.
    entities = entity_ids = connections = roster = None
    if doc.get("entities") is None:
        diags.append(_err("entities", "missing required key"))
    else:
        # ``raw`` keeps the entity dicts alive until the parse returns, so they are freed
        # after the connection dicts. Freed first, `analyze` and `transform` read 2-3%
        # fewer `jobs_per_s` in every benchmark pair, though the parse timed the same.
        raw = doc["entities"]
        entities, entity_ids = _entity_list(raw, diags, literals)
    # Without a roster the connection walk can prove the scenario valid, so it is not
    # validated: beyond the entity ids, the host must name an entity and ``desired`` print.
    if "ideal_roster" in doc or host not in (entity_ids or ()):
        entity_ids = None
    elif desired is not None:
        try:
            model._check_printable(desired.numerator, desired.denominator)
        except ComputationError:
            entity_ids = None
    proven = False
    if doc.get("connections") is None:
        diags.append(_err("connections", "missing required key"))
    else:
        connections, proven = _connection_list(doc["connections"], diags, literals, entity_ids)
    if "ideal_roster" in doc:
        raw = doc["ideal_roster"]
        if isinstance(raw, list):  # an entry read as None left an error: the roster is not built
            roster = [
                _parse_roster_entry(item, f"ideal_roster[{i}]", diags, literals)
                for i, item in enumerate(raw)
            ]
        else:
            diags.append(_err("ideal_roster", f"expected an array, got {type(raw).__name__}"))

    if any(d.severity is Severity.ERROR for d in diags):
        return ParseResult(None, tuple(diags))
    if proven:
        scenario = _proven_scenario(tuple(entities), tuple(connections), host, mode, desired)
        return ParseResult(scenario, tuple(diags))

    scenario = Scenario(
        entities=tuple(entities),
        connections=tuple(connections),
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


def _json_rational(value: Fraction) -> str:
    return f'"{format_rational(value)}"'


def _json_block(ends: str, items: list[str], indent: str) -> str:
    """JSON text of an object or array (``ends`` is ``{}`` or ``[]``) whose
    opening bracket sits at ``indent``, laid out as ``json.dumps(indent=2)``
    lays it out: each of its items' texts on a line of its own, two spaces in."""
    if not items:
        return ends
    inner = indent + "  "
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{ends[1]}"


# The record writers, ``(record, texts) -> str``; ``texts`` maps ``id(rational)`` to its text.
def _entity_json(r: Entity, texts: dict) -> str:
    a, attributes = r.attributes, ""
    if a != _DEFAULT_ATTRIBUTES:
        for value in (a.existence, a.inner_state, a.external_state, a.communication_state):
            if id(value) not in texts:
                texts[id(value)] = _json_rational(value)
        attributes = (
            f',\n      "attributes": {{\n        "existence": {texts[id(a.existence)]},'
            f'\n        "inner_state": {texts[id(a.inner_state)]},'
            f'\n        "external_state": {texts[id(a.external_state)]},'
            f'\n        "communication_state": {texts[id(a.communication_state)]}\n      }}'
        )
    return (
        f'{{\n      "id": {_json_string(r.id)},\n      "kind": {_json_string(r.kind)}'
        f"{attributes}\n    }}"
    )


def _connection_json(r: Connection, texts: dict) -> str:
    magnitude = texts.get(id(r.magnitude))
    if magnitude is None:
        magnitude = texts[id(r.magnitude)] = _json_rational(r.magnitude)
    time_index = blocked = confirmed = ""
    if r.time_index != 0:
        time_index = f',\n      "time_index": {int.__repr__(r.time_index)}'
    if r.blocked != False:  # noqa: E712 - a value test, as ``_fields`` fills the default in
        blocked = f',\n      "blocked": {"true" if r.blocked else "false"}'
    if r.confirmed != False:  # noqa: E712
        confirmed = f',\n      "confirmed": {"true" if r.confirmed else "false"}'
    return (
        f'{{\n      "id": {_json_string(r.id)},\n      "src": {_json_string(r.src)},'
        f'\n      "dst": {_json_string(r.dst)},\n      "kind": {_json_string(r.kind)},'
        f'\n      "polarity": {int.__repr__(r.polarity)},\n      "magnitude": {magnitude}'
        f"{time_index}{blocked}{confirmed}\n    }}"
    )


def _hypothetical_json(r: RosterHypothetical, texts: dict) -> str:
    magnitude = texts.get(id(r.magnitude))
    if magnitude is None:
        magnitude = texts[id(r.magnitude)] = _json_rational(r.magnitude)
    return (
        f'{{\n        "src": {_json_string(r.src)},\n        "dst": {_json_string(r.dst)},'
        f'\n        "magnitude": {magnitude}\n      }}'
    )


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
    texts: dict[int, str] = {}  # each rational's JSON text by object, for this call only
    lines = [
        f'"version": {FORMAT_VERSION}',
        f'"host": {_json_string(scenario.host)}',
        f'"mode": {_json_string(scenario.scoring_mode)}',
    ]
    desired = scenario.desired_connectivity
    if desired is not None:
        texts[id(desired)] = text = _json_rational(desired)
        lines.append(f'"desired_connectivity": {text}')
    entities = [_entity_json(e, texts) for e in scenario.entities]
    connections = [_connection_json(c, texts) for c in scenario.connections]
    lines.append(f'"entities": {_json_block("[]", entities, "  ")}')
    lines.append(f'"connections": {_json_block("[]", connections, "  ")}')
    if scenario.ideal_roster is not None:
        roster = [
            _json_block("{}", [f'"ref": {_json_string(entry.ref)}'], "    ")
            if isinstance(entry, RosterRef)
            else _json_block("{}", [f'"hypothetical": {_hypothetical_json(entry, texts)}'], "    ")
            for entry in scenario.ideal_roster
        ]
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


# Each report class has a table function, ``report -> str``, and a JSON one, ``report ->
# list[str]``, a line per field. A single rational prints through format_rational (in
# JSON, ``_json_rational``), but a trajectory's per-step rationals print inline: a call of
# format_rational per value made a 400-step table 16% slower, and the writers' memo made
# its JSON 78%.
def _connectivity_table(r: ConnectivityReport) -> str:
    return (
        f"score={format_rational(r.score)} ideal={format_rational(r.ideal)}"
        f" efficiency={format_rational(r.efficiency_percent)}% band={r.band.value}"
        f" mode={r.mode.value}"
    )


def _connectivity_json(r: ConnectivityReport) -> list[str]:
    return [
        f'"score": {_json_rational(r.score)}',
        f'"ideal": {_json_rational(r.ideal)}',
        f'"efficiency_percent": {_json_rational(r.efficiency_percent)}',
        f'"band": {_json_string(r.band)}', f'"mode": {_json_string(r.mode)}',
    ]


def _confusion_table(r: ConfusionReport) -> str:
    causes = ",".join([cause.value for cause in r.causes]) or "none"
    return (
        f"z={format_rational(r.z)} quality={format_rational(r.quality_percent)}%"
        f" confused={'true' if r.confused else 'false'} causes={causes}"
    )


def _confusion_json(r: ConfusionReport) -> list[str]:
    return [
        f'"z": {_json_rational(r.z)}',
        f'"quality_percent": {_json_rational(r.quality_percent)}',
        f'"confused": {"true" if r.confused else "false"}',
        f'"causes": {_json_block("[]", [*map(_json_string, r.causes)], "  ")}',
    ]


def _quality_table(r: QualityReport) -> str:
    return (
        f"score={format_rational(r.score)} desired={format_rational(r.desired)}"
        f" quality={format_rational(r.quality_percent)}% band={r.band.value}"
    )


def _quality_json(r: QualityReport) -> list[str]:
    return [
        f'"score": {_json_rational(r.score)}',
        f'"desired": {_json_rational(r.desired)}',
        f'"quality_percent": {_json_rational(r.quality_percent)}',
        f'"band": {_json_string(r.band)}',
    ]


def _trajectory_table(r: QualityTrajectory) -> str:
    return "\n".join([
        f"order={r.order.value} ideal={format_rational(r.ideal)} steps={len(r.steps)}",
        *[
            f"step={s.step} blocked={s.blocked_connection}"
            f" score={_shortest_text(s.score.numerator, s.score.denominator)} efficiency="
            f"{_shortest_text(s.efficiency_percent.numerator, s.efficiency_percent.denominator)}%"
            for s in r.steps
        ],
    ])


def _trajectory_json(r: QualityTrajectory) -> list[str]:
    steps = [
        f'{{\n      "step": {int.__repr__(s.step)},'
        f'\n      "blocked_connection": {_json_string(s.blocked_connection)},'
        f'\n      "score": "{_shortest_text(s.score.numerator, s.score.denominator)}",'
        '\n      "efficiency_percent": '
        f'"{_shortest_text(s.efficiency_percent.numerator, s.efficiency_percent.denominator)}"'
        "\n    }"
        for s in r.steps
    ]
    return [
        f'"order": {_json_string(r.order)}',
        f'"ideal": {_json_rational(r.ideal)}',
        f'"steps": {_json_block("[]", steps, "  ")}',
    ]


def _replacement_table(r: ReplacementReport) -> str:
    return (
        f"blocked={r.blocked_id} replacement={r.replacement_id}"
        f" quality_before={format_rational(r.quality_before)}%"
        f" quality_blocked={format_rational(r.quality_blocked)}%"
        f" quality_after={format_rational(r.quality_after)}%"
    )


def _replacement_json(r: ReplacementReport) -> list[str]:
    return [
        f'"blocked_id": {_json_string(r.blocked_id)}',
        f'"replacement_id": {_json_string(r.replacement_id)}',
        f'"ideal": {_json_rational(r.ideal)}',
        f'"quality_before": {_json_rational(r.quality_before)}',
        f'"quality_blocked": {_json_rational(r.quality_blocked)}',
        f'"quality_after": {_json_rational(r.quality_after)}',
    ]


def _paths_table(r: PathsReport) -> str:
    lines = [
        f"{' -> '.join(p.entities) or 'none'} via {','.join(p.hops) or 'none'}" for p in r.paths
    ]
    return "\n".join(lines or ["(no paths)"])


def _paths_json(r: PathsReport) -> list[str]:
    paths = [
        f'{{\n      "entities": {_json_block("[]", [*map(_json_string, p.entities)], "      ")},'
        f'\n      "hops": {_json_block("[]", [*map(_json_string, p.hops)], "      ")}\n    }}'
        for p in r.paths
    ]
    return [
        f'"src": {_json_string(r.src)}', f'"dst": {_json_string(r.dst)}',
        f'"max_hops": {int.__repr__(r.max_hops)}',
        f'"paths": {_json_block("[]", paths, "  ")}',
    ]


def _validation_table(r: ValidationReport) -> str:
    return "\n".join([*map(str, r.diagnostics), "ok" if r.valid else "invalid"])


def _validation_json(r: ValidationReport) -> list[str]:
    diagnostics = [
        f'{{\n      "severity": {_json_string(d.severity)},'
        f'\n      "location": {_json_string(d.location)},'
        f'\n      "message": {_json_string(d.message)}\n    }}'
        for d in r.diagnostics
    ]
    return [
        f'"valid": {"true" if r.valid else "false"}',
        f'"diagnostics": {_json_block("[]", diagnostics, "  ")}',
    ]


# Each report class with its document ``type``, its table function and its JSON function.
_TABLE_LINES = {
    ConnectivityReport: ("connectivity_report", _connectivity_table, _connectivity_json),
    ConfusionReport: ("confusion_report", _confusion_table, _confusion_json),
    QualityReport: ("quality_report", _quality_table, _quality_json),
    QualityTrajectory: ("quality_trajectory", _trajectory_table, _trajectory_json),
    ReplacementReport: ("replacement_report", _replacement_table, _replacement_json),
    PathsReport: ("paths", _paths_table, _paths_json),
    ValidationReport: ("validation_report", _validation_table, _validation_json),
}


def emit_report(report, fmt: str = "table") -> str:
    """Render a report for people (``table``) or machines (``machine``).

    A report is one document: a ``type`` key, then one key per field. The
    machine format is that document as JSON, every number an exact string:
    the ``type`` line, then the class's JSON lines. The table form is the
    class's table function. Both are in ``_TABLE_LINES``.
    """
    if fmt not in ("table", "machine"):
        raise ValueError(f"unknown report format: {fmt!r}")
    entry = _TABLE_LINES.get(type(report))
    if entry is None:
        raise TypeError(f"cannot emit a report for {type(report).__name__}")
    if fmt == "table":
        return entry[1](report)
    return _json_block("{}", [f'"type": {_json_string(entry[0])}', *entry[2](report)], "")
