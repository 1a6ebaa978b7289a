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
record's on-disk fields: their keys, order, decoders and defaults.
``_fields`` reads any record by its table and is the one path that writes a
diagnostic. A well-formed entity or connection takes its plain step first, a
function generated from its table on the first parse (``_plain_steps``) that
builds in one frame, through ``model._new_entity`` or ``_new_connection``, the
record ``_fields`` would build; every other record goes through ``_fields``.
Each parse has one literal table (``_decode``), shared by the plain steps,
``_number`` and the JSON float hook: a distinct literal decodes once per
parse, and no decoded value outlives the parse.
JSON is written by generated code, as ``dataclasses`` generates ``__init__``:
``_json_parts`` lays a class out from its dataclass fields in one f-string
read straight from the record's attributes, as ``json.dumps(indent=2,
ensure_ascii=True)`` would (the layout of ``_json_block``), with strings
through the C ``encode_basestring_ascii`` that ``json.dumps`` uses. A record
class leaves out a field at its field table's default (``_RECORD_TABLES``).
Each writer is built on its first use (``_scenario_writers``,
``_report_writer``). Every report is one document, a ``type`` key and one
key per field, written as JSON or as the table text of its plain function in
``_TABLE_LINES``. Every rational is printed by ``model._shortest_text``: once
per distinct object per ``serialize_scenario`` call, once per signed
magnitude object per DOT export, and once per field in a report. No text
outlives the call that wrote it.
"""

from __future__ import annotations

__all__ = [
    "ParseDiagnostic", "ParseResult", "Severity", "emit_report", "export_dot", "format_rational",
    "parse_connection_doc", "parse_scenario", "serialize_scenario",
]

import inspect
import json
import re
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from fractions import Fraction
from functools import cache, partial
from itertools import count
from json.encoder import encode_basestring_ascii as _json_string
from operator import itemgetter
from typing import get_args, get_origin

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
    _new_connection,  # noqa: F401 - the generated plain steps read it
    _new_entity,  # noqa: F401 - the generated plain steps read it
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


def _choice(enum: type[Enum], what: str, *, strings_only: bool):
    """Decoder for one of ``enum``'s values; with ``strings_only``, a value
    that is not a string is reported as :func:`_string` reports it."""
    members = {member.value: member for member in enum}

    def decode(value, location, key: str, diags: list, literals: dict):
        if isinstance(value, str):
            member = members.get(value)
            if member is not None:
                return member
        elif strings_only:
            return _string(value, location, key, diags, literals)
        diags.append(_err(_at(location, key), f"unknown {what}: {_number_text(value, repr)}"))
        return None

    decode.members = members  # the plain steps read it
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
# Each record class with its field table.
_RECORD_TABLES = {
    Entity: _ENTITY_FIELDS,
    AttributeVector: _ATTRIBUTE_FIELDS,
    Connection: _CONNECTION_FIELDS,
    RosterHypothetical: _HYPOTHETICAL_FIELDS,
}
_scoring_mode = _choice(ScoringMode, "scoring mode", strings_only=False)


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


# Each decoder's test of a raw value ``x`` that a plain step takes, and the
# source of the value it decodes to, a literal table hit inline. A step builds
# a record whose keys are all in its table and pass their tests, and returns
# None for any other, which ``_fields`` then reads: one with an int magnitude
# or a str subclass too, which the decoders take but the tests do not.
_PLAIN_READS = {
    _string: ("type({x}) is str", "{x}"),
    _number: ("type({x}) is str", "literals[{x}] if {x} in literals else _decode(literals, {x})"),
    _polarity: ("type({x}) is int and ({x} == 1 or {x} == -1)", "{x}"),
    _time_index: ("type({x}) is int", "{x}"),
    _flag: ("type({x}) is bool", "{x}"),
}


def _plain_record(code: _Code, table: dict, item: str, body: list[str]) -> list[str]:
    """The sources of the values of the record ``item`` read by ``table``, in
    table order, each of which may raise ``ValueError``; the statements that
    bind them, or return None where the step refuses ``item``, go to ``body``.
    A record holding just its required keys, as most in a canonical file do,
    skips the optional ones, such as an entity's attributes."""
    required = [key for key, (_, default) in table.items() if default is _REQUIRED]
    optional = [key for key in table if key not in required]
    raw = {key: next(code.locals) for key in table}
    tests, values, nested = [] if optional else [f"len({item}) == {len(required)}"], [], []
    for key, (decode, _) in table.items():
        x = raw[key]
        if decode is _attributes:  # built by the public class, which checks every value
            fields = ", ".join(_plain_record(code, _ATTRIBUTE_FIELDS, x, nested))
            nested.append(f"try: {x} = AttributeVector({fields})")
            nested += ["except (ValueError, ValidationError):", "    return None"]
            values.append(x)
        elif decode in _PLAIN_READS:
            tests.append(_PLAIN_READS[decode][0].format(x=x))
            values.append(_PLAIN_READS[decode][1].format(x=x))
        else:  # an enum choice
            members = code.name(decode.members)
            tests.append(f"type({x}) is str and {x} in {members}")
            values.append(f"{members}[{x}]")
    names = "".join(f"{raw[key]}, " for key in required)
    body += [
        f"if type({item}) is not dict: return None",
        f"try: {names}= {code.name(itemgetter(*required))}({item})",
        "except KeyError: return None",
    ]
    if optional:  # read only when present, as is a nested record among them
        count = " + ".join([str(len(required)), *(f"({key!r} in {item})" for key in optional)])
        default = {key: code.name(table[key][1]) for key in optional}
        body.append(f"if len({item}) == {len(required)}:")
        body += [f"    {raw[key]} = {default[key]}" for key in optional]
        body += ["else:", *(f"    {raw[k]} = {item}.get({k!r}, {default[k]})" for k in optional)]
        body += [f"    if len({item}) != {count}: return None", *(f"    {line}" for line in nested)]
    body.append(f"if not ({' and '.join(tests)}): return None")
    return values


@cache
def _plain_steps() -> tuple:
    """The plain steps of an entity and of a connection, each ``(item, literals)
    -> record or None``, ``literals`` being the parse's literal table (see
    :func:`_decode`); each names its record's builder as a module global."""
    code, names = _Code(), []
    for table, build in ((_ENTITY_FIELDS, "_new_entity"), (_CONNECTION_FIELDS, "_new_connection")):
        body: list[str] = []
        values = ", ".join(_plain_record(code, table, "item", body))
        body += [f"try: return {build}({values})", "except ValueError: pass  # _fields reports it"]
        names.append(code.function("item, literals", body, "None"))
    return code.build(*names)


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


def _item_list(raw, key: str, parse, diags: list, literals: dict, plain=None) -> list | None:
    """The items of the array ``raw`` that ``plain`` (when given) builds or,
    failing that, ``parse`` decodes, or None if it is not an array."""
    if not isinstance(raw, list):
        diags.append(_err(key, f"expected an array, got {type(raw).__name__}"))
        return None
    items = []
    for i, item in enumerate(raw):
        record = None if plain is None else plain(item, literals)
        if record is None:
            record = parse(item, f"{key}[{i}]", diags, literals)
            if record is None:
                continue
        items.append(record)
    return items


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
    arrays = {}
    entity_step, connection_step = _plain_steps()
    for key, parse, plain in (
        ("entities", _parse_entity, entity_step),
        ("connections", _parse_connection, connection_step),
    ):
        if doc.get(key) is None:
            diags.append(_err(key, "missing required key"))
        else:
            arrays[key] = _item_list(doc[key], key, parse, diags, literals, plain)
    roster = None
    if "ideal_roster" in doc:
        roster = doc["ideal_roster"]
        roster = _item_list(roster, "ideal_roster", _parse_roster_entry, diags, literals)

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


def _json_rational(value: Fraction) -> str:
    return f'"{format_rational(value)}"'


def _json_flag(value: bool) -> str:
    return "true" if value else "false"


def _json_block(ends: str, items: list[str], indent: str) -> str:
    """JSON text of an object or array (``ends`` is ``{}`` or ``[]``) whose
    opening bracket sits at ``indent``, laid out as ``json.dumps(indent=2)``
    lays it out: each of its items' texts on a line of its own, two spaces in."""
    if not items:
        return ends
    inner = indent + "  "
    return f"{ends[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{ends[1]}"


# The writers. Each record class and each report class is written as JSON by
# a function generated once per process, as ``dataclasses`` generates
# ``__init__``: one f-string, laid out from the class's fields, that reads the
# record's attributes straight into its text.


def _fstring(parts: list) -> str:
    """Source of an f-string whose text is ``parts`` joined: a str as it is, a
    1-tuple holding the source of an expression (no quote, no backslash) to
    format."""
    text = "".join(
        "{" + part[0] + "}" if type(part) is tuple else part.replace("{", "{{").replace("}", "}}")
        for part in parts
    )
    return "f" + repr(text)


class _Code:
    """Source of generated functions (writers and plain steps), and the values it names."""

    def __init__(self):
        self.lines: list[str] = []
        self.env: dict[str, object] = {}
        self.locals = map("t{}".format, count())  # names of locals, never reused

    def name(self, value) -> str:
        """The source's name for ``value``."""
        name = f"_v{len(self.env)}"
        self.env[name] = value
        return name

    def function(self, params: str, body: list[str], result: str) -> str:
        """Add a function that runs ``body`` and returns ``result``; its name."""
        name = f"_f{len(self.lines)}"
        self.lines += [f"def {name}({params}):", *(f"    {line}" for line in body)]
        self.lines.append(f"    return {result}")
        return name

    def each(self, items: str, body: list[str], parts: list) -> str:
        """Source of the list of texts that ``body`` and ``parts`` give for
        each ``x`` in ``items``: one f-string, or a function where statements
        are needed."""
        text = _fstring(parts) if not body else f"{self.function('x', body, _fstring(parts))}(x)"
        return f"[{text} for x in {items}]"

    def build(self, *names: str) -> tuple:
        """The named functions, compiled with this module's globals, so that
        they look a global such as ``_shortest_text`` up when they run."""
        source = "\n".join([
            f"def _make({', '.join(self.env)}):",
            *(f"    {line}" for line in self.lines),
            f"    return {', '.join(names)},",
        ])
        namespace: dict = {}
        exec(source, globals(), namespace)
        return namespace["_make"](**self.env)


@cache
def _field_types(cls: type) -> dict[str, object]:
    """Each field of the dataclass ``cls`` with its type, in field order. A
    class's own annotations are evaluated with ``eval``, in about half the
    time ``typing.get_type_hints`` takes."""
    types = inspect.get_annotations(cls, eval_str=True)
    return {f.name: types[f.name] for f in fields(cls)}


def _json_parts(code: _Code, hint, expr: str, indent: str, body: list[str]) -> list:
    """Parts (see :func:`_fstring`) of the JSON text of ``expr``, a value of
    type ``hint`` on a line at ``indent``: rationals as exact strings, ints
    as ``int.__repr__`` writes them (a bool polarity as 1), enums by value,
    tuples as lists and dataclasses as objects, laid out as
    ``json.dumps(indent=2, ensure_ascii=True)`` lays them out. Statements the
    parts need go to ``body``. A record (a class of ``_RECORD_TABLES``)
    leaves out a field at its table's default and prints each rational once
    per object per call, through the call's dict ``texts`` keyed by ``id``
    (the scenario being written keeps every value alive); a report prints
    each rational inline, which is faster for values that seldom repeat."""
    if get_origin(hint) is tuple:
        item_body: list[str] = []
        item_parts = _json_parts(code, get_args(hint)[0], "x", indent + "  ", item_body)
        local, items = next(code.locals), code.each(expr, item_body, item_parts)
        body.append(f"{local} = _json_block('[]', {items}, {indent!r})")
        return [(local,)]
    if is_dataclass(hint):
        table = _RECORD_TABLES.get(hint)
        inner, parts = indent + "  ", ["{"]
        for i, (name, field_type) in enumerate(_field_types(hint).items()):
            value, local, lines = f"{expr}.{name}", next(code.locals), []
            if table is not None and field_type is Fraction:
                lines += [
                    f"{local} = texts.get(id({value}))",
                    f"if {local} is None:",
                    f"    {local} = texts[id({value})] = _json_rational({value})",
                ]
                text = [(local,)]
            else:
                text = _json_parts(code, field_type, value, inner, lines)
            text.insert(0, f',\n{inner}"{name}": ' if i else f'\n{inner}"{name}": ')
            default = _REQUIRED if table is None else table[name][1]
            if default is _REQUIRED:
                body += lines
                parts += text
            else:
                body += [f"if {value} == {code.name(default)}:", f"    {local} = ''", "else:"]
                body += [f"    {line}" for line in [*lines, f"{local} = {_fstring(text)}"]]
                parts.append((local,))
        return parts + [f"\n{indent}}}"]
    if hint is Fraction:
        return ['"', (f"_shortest_text({expr}.numerator, {expr}.denominator)",), '"']
    if hint is bool:
        return [(f"{code.name(_json_flag)}({expr})",)]
    if hint is int:
        return [(f"int.__repr__({expr})",)]
    return [(f"_json_string({expr})",)]  # a str, or a str enum member


@cache
def _scenario_writers() -> tuple:
    """Writers of an entity, a connection and a hypothetical roster entry,
    each ``(record, texts) -> str`` and generated from its class's fields."""
    code, names = _Code(), []
    for cls, indent in ((Entity, "    "), (Connection, "    "), (RosterHypothetical, "      ")):
        body: list[str] = []
        parts = _json_parts(code, cls, "r", indent, body)
        names.append(code.function("r, texts", body, _fstring(parts)))
    return code.build(*names)


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
    entity, connection, hypothetical = _scenario_writers()
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
    entities = [entity(e, texts) for e in scenario.entities]
    connections = [connection(c, texts) for c in scenario.connections]
    lines.append(f'"entities": {_json_block("[]", entities, "  ")}')
    lines.append(f'"connections": {_json_block("[]", connections, "  ")}')
    if scenario.ideal_roster is not None:
        roster = [
            _json_block("{}", [f'"ref": {_json_string(entry.ref)}'], "    ")
            if isinstance(entry, RosterRef)
            else _json_block("{}", [f'"hypothetical": {hypothetical(entry, texts)}'], "    ")
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


# Table text: one function per report class, ``report -> str``.


def _connectivity_table(r: ConnectivityReport) -> str:
    return (
        f"score={format_rational(r.score)} ideal={format_rational(r.ideal)}"
        f" efficiency={format_rational(r.efficiency_percent)}% band={r.band.value}"
        f" mode={r.mode.value}"
    )


def _confusion_table(r: ConfusionReport) -> str:
    causes = ",".join([cause.value for cause in r.causes]) or "none"
    return (
        f"z={format_rational(r.z)} quality={format_rational(r.quality_percent)}%"
        f" confused={'true' if r.confused else 'false'} causes={causes}"
    )


def _quality_table(r: QualityReport) -> str:
    return (
        f"score={format_rational(r.score)} desired={format_rational(r.desired)}"
        f" quality={format_rational(r.quality_percent)}% band={r.band.value}"
    )


def _trajectory_table(r: QualityTrajectory) -> str:
    # A step's rationals print inline: a call of format_rational per value
    # made a 400-step table about 16% slower.
    return "\n".join([
        f"order={r.order.value} ideal={format_rational(r.ideal)} steps={len(r.steps)}",
        *[
            f"step={s.step} blocked={s.blocked_connection}"
            f" score={_shortest_text(s.score.numerator, s.score.denominator)} efficiency="
            f"{_shortest_text(s.efficiency_percent.numerator, s.efficiency_percent.denominator)}%"
            for s in r.steps
        ],
    ])


def _replacement_table(r: ReplacementReport) -> str:
    return (
        f"blocked={r.blocked_id} replacement={r.replacement_id}"
        f" quality_before={format_rational(r.quality_before)}%"
        f" quality_blocked={format_rational(r.quality_blocked)}%"
        f" quality_after={format_rational(r.quality_after)}%"
    )


def _paths_table(r: PathsReport) -> str:
    lines = [
        f"{' -> '.join(p.entities) or 'none'} via {','.join(p.hops) or 'none'}" for p in r.paths
    ]
    return "\n".join(lines or ["(no paths)"])


def _validation_table(r: ValidationReport) -> str:
    return "\n".join([*map(str, r.diagnostics), "ok" if r.valid else "invalid"])


# Report classes, each with its document ``type`` and its table text; each
# field of a report becomes a key of its document.
_TABLE_LINES = {
    ConnectivityReport: ("connectivity_report", _connectivity_table),
    ConfusionReport: ("confusion_report", _confusion_table),
    QualityReport: ("quality_report", _quality_table),
    QualityTrajectory: ("quality_trajectory", _trajectory_table),
    ReplacementReport: ("replacement_report", _replacement_table),
    PathsReport: ("paths", _paths_table),
    ValidationReport: ("validation_report", _validation_table),
}


@cache
def _report_writer(cls: type):
    """The JSON writer, ``report -> str``, of a report class, generated from
    the class's fields on its first use."""
    code, body = _Code(), []
    parts = _json_parts(code, cls, "r", "", body)
    # The document's first key is its ``type``, before the class's fields.
    parts[0] = f'{{\n  "type": {_json_string(_TABLE_LINES[cls][0])},'
    return code.build(code.function("r", body, _fstring(parts)))[0]


def emit_report(report, fmt: str = "table") -> str:
    """Render a report for people (``table``) or machines (``machine``).

    A report is one document: a ``type`` key, then one key per field. The
    machine format is that document as JSON, every number an exact string,
    written by a writer generated once per class; the table form is the
    class's table function in ``_TABLE_LINES``.
    """
    if fmt not in ("table", "machine"):
        raise ValueError(f"unknown report format: {fmt!r}")
    entry = _TABLE_LINES.get(type(report))
    if entry is None:
        raise TypeError(f"cannot emit a report for {type(report).__name__}")
    return entry[1](report) if fmt == "table" else _report_writer(type(report))(report)
