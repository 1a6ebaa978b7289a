"""Core domain types and elementary valuations.

A scenario is a host-scoped signed multigraph: a set of entities, each
carrying a four-attribute state vector, joined by typed, signed, weighted
connections. Everything is immutable after construction and all numbers are
exact rationals (``fractions.Fraction``); binary floats are rejected at the
boundary so serialized values reproduce byte for byte.

Each scenario keeps one lazily built index: its validation result, impact
factors, each entity pair's best unblocked connection (over all kinds and over
real ones only), and a ``Valuation``: connection values as integers over one
denominator, and every exact sum of them (score, ideal, removal ranking, steps).
A scenario that its file's read proved valid is built with its validation
result, ``()`` (``_proven_scenario``).

Records whose values are already typed (parsed entities and connections,
closed connections, removal steps) are built in one frame by a function that
``_builder`` generates, which skips the frozen ``__init__``'s setattr calls.
A plain decimal literal, and each removal step's score and efficiency, is reduced
by one ``gcd`` and built by ``_coprime_fraction``, which skips ``Fraction``'s
string parser and its constructor's checks.
Validation, ``impact_factors`` and the valuation's magnitude units work once
per distinct magnitude or attribute vector object, which records share.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_ATTRIBUTE", "MAGNITUDE_MAX", "MAGNITUDE_MIN", "AttributeVector", "Connection",
    "ConnectionKind", "Entity", "EntityKind", "RosterHypothetical", "RosterRef", "Scenario",
    "ScoringMode", "Violation", "connection_value", "ensure_valid", "impact_factor",
    "to_rational", "validate_scenario",
]

import decimal
import re
import sys
from dataclasses import dataclass, field, fields
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm
from operator import attrgetter

from .errors import ComputationError, IntegrityError, ValidationError

MAGNITUDE_MIN = Fraction(1)
MAGNITUDE_MAX = Fraction(10)

DEFAULT_ATTRIBUTE = Fraction(3, 4)


# Literal limits, checked before ``Fraction()`` runs: ``Fraction("1e10000000")``
# takes seconds, and more digits than the int-to-str limit cannot be parsed.
LITERAL_MAX_DIGITS = 4300
LITERAL_MAX_EXPONENT = 10_000


class _LiteralTooLarge(ValueError):
    """A numeric literal past the literal limits."""


def check_literal(text: str) -> None:
    """Raise a ``ValueError`` naming the limit if a numeric literal is past one."""
    mantissa, _, exponent = text.replace("E", "e").partition("e")
    if sum(map(str.isdecimal, mantissa)) > LITERAL_MAX_DIGITS:
        raise _LiteralTooLarge(f"numeric literal has more than {LITERAL_MAX_DIGITS} digits")
    exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
    longer = len(exponent) > len(str(LITERAL_MAX_EXPONENT))
    if exponent.isdecimal() and (longer or int(exponent) > LITERAL_MAX_EXPONENT):
        raise _LiteralTooLarge(f"numeric literal has an exponent past {LITERAL_MAX_EXPONENT}")


def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
    """``Fraction(numerator, denominator)`` of a coprime pair with a positive
    denominator, built as Python 3.12's ``Fraction._from_coprime_ints`` builds
    it: set ``Fraction``'s two slots, skipping the constructor's type tests and
    its ``gcd``."""
    value = object.__new__(Fraction)
    value._numerator = numerator
    value._denominator = denominator
    return value


def _decimal_plan(denominator: int) -> tuple[int, int] | None:
    """How a reduced fraction over ``denominator`` prints as a decimal: ``(scale,
    factor)``, with ``denominator * factor == 10**scale`` and ``scale`` least, when
    ``denominator`` has no prime factor but 2 and 5; None when it prints ``p/q``."""
    twos = (denominator & -denominator).bit_length() - 1
    rest, fives = denominator >> twos, 0
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return None
    scale = max(twos, fives)
    return scale, 10**scale // denominator


def _rational_texts(ratios) -> list[str]:
    """The shortest exact text of each reduced fraction of ``ratios``, pairs
    ``(numerator, denominator)``: an integer bare, a denominator of only 2s and 5s
    as a decimal without trailing zeros, any other ``p/q``. Each distinct
    denominator is planned once per call (:func:`_decimal_plan`). A value whose
    digits pass Python's int-to-str limit has no exact text form: it raises
    :class:`ComputationError`."""
    texts, plans = [], {}
    try:
        for numerator, denominator in ratios:
            if denominator == 1:
                texts.append(str(numerator))
                continue
            if denominator in plans:
                plan = plans[denominator]
            else:
                plan = plans[denominator] = _decimal_plan(denominator)
            if plan is None:
                texts.append(f"{numerator}/{denominator}")
                continue
            scale, factor = plan
            digits = str(abs(numerator) * factor).rjust(scale + 1, "0")
            # The last digit is never 0: the factor is a power of 2 or of 5 alone, and
            # the numerator, coprime to the denominator, lacks the other prime.
            sign = "-" if numerator < 0 else ""
            texts.append(f"{sign}{digits[:-scale]}.{digits[-scale:]}")
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ComputationError(f"number too long to print exactly (over {limit} digits)") from None
    return texts


def _shortest_text(numerator: int, denominator: int) -> str:
    """Shortest exact text of the reduced fraction ``numerator/denominator``, as
    :func:`_rational_texts` prints it."""
    return _rational_texts(((numerator, denominator),))[0]


# Below 2**400 a numerator prints in at most 121 digits, and a denominator has
# at most 399 factors of 2 or of 5, so each text form has under 640 digits, the
# lowest limit sys.set_int_max_str_digits accepts (other than 0, no limit).
_PRINTABLE_BITS = 400


def _check_printable(numerator: int, denominator: int) -> None:
    """Raise :class:`ComputationError` exactly when :func:`_shortest_text`
    does, printing only a number too large to be sure of. Validation checks
    every number, after any range check, so that what validates can be
    written."""
    if numerator.bit_length() > _PRINTABLE_BITS or denominator.bit_length() > _PRINTABLE_BITS:
        _shortest_text(numerator, denominator)


# A plain decimal literal: ASCII digits, an optional minus sign and point, at most
# 32 digits on each side, so ``int`` reads it at once and far below the lowest
# int-to-str limit. ``Fraction`` reads it to the same value.
_plain_decimal = re.compile(r"-?[0-9]{1,32}(?:\.[0-9]{1,32})?").fullmatch


def to_rational(value: Fraction | int | str | decimal.Decimal) -> Fraction:
    """Coerce a value to an exact :class:`Fraction`.

    An exact ``Fraction`` is returned as it is (Fractions are immutable).
    Accepts Fraction subclasses, ints, decimal/fraction strings ("0.75",
    "3/4") and ``decimal.Decimal``. Floats are rejected: they carry binary
    rounding error that would leak into canonical serialization. A string or
    Decimal past the literal limits (:func:`check_literal`), or that names no
    rational (``"1/0"``, ``Decimal("Infinity")``), is a ``ValueError``. A plain
    decimal ``str`` (``"-12.50"``) is read as an integer over a power of ten,
    reduced by one ``gcd``, without ``Fraction``'s slower string parser; it has
    the same value.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError(f"expected a rational number, got bool {value!r}")
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    if isinstance(value, (str, decimal.Decimal)):
        check_literal(str(value))
        if type(value) is str and _plain_decimal(value):
            whole, _, digits = value.partition(".")
            numerator, denominator = int(whole + digits), 10 ** len(digits)
            common = gcd(numerator, denominator)
            return _coprime_fraction(numerator // common, denominator // common)
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError, OverflowError) as exc:
            raise ValueError(f"not a rational literal: {value!r}") from exc
    if isinstance(value, float):
        raise TypeError(
            f"floats are inexact; pass a decimal string or Fraction instead of {value!r}"
        )
    raise TypeError(f"cannot interpret {type(value).__name__} as a rational")


def _number_text(value, text=str) -> str:
    """``text(value)`` (``str`` or ``repr``), or a placeholder past Python's
    int-to-str digit limit, so that a message naming an input such as
    ``"1e5000"`` never raises."""
    try:
        return text(value)
    except ValueError:
        return "<number too long to print>"


def _member(enum: type[Enum], value):
    """``value`` as a member of the ``str`` enum ``enum``: the member itself, or the one a
    ``str`` names (``ValueError`` if none does). Any other value is a ``TypeError``,
    raised before the enum hashes or compares it."""
    if type(value) is enum:
        return value
    if type(value) is not str:
        raise TypeError(f"{enum.__name__} takes a member or a str, not {type(value).__name__}")
    return enum(value)


class EntityKind(str, Enum):
    KNOWN = "known"
    HIDDEN = "hidden"
    UNKNOWN = "unknown"


class ConnectionKind(str, Enum):
    REAL = "real"
    SILENT = "silent"
    SELF = "self"


class ScoringMode(str, Enum):
    RAW = "raw"
    IMPACT_WEIGHTED = "impact_weighted"


@dataclass(frozen=True, slots=True)
class AttributeVector:
    """The four entity attributes, each strictly inside (0, 1).

    The open interval is a hard invariant: an entity can be neither entirely
    absent nor perfectly stable, so 0 and 1 exactly are rejected.
    """

    existence: Fraction = DEFAULT_ATTRIBUTE
    inner_state: Fraction = DEFAULT_ATTRIBUTE
    external_state: Fraction = DEFAULT_ATTRIBUTE
    communication_state: Fraction = DEFAULT_ATTRIBUTE

    def __post_init__(self):
        for name in _ATTRIBUTE_NAMES:
            value = to_rational(getattr(self, name))
            # A denominator is positive, so this is 0 < value < 1.
            if not 0 < value.numerator < value.denominator:
                raise ValidationError(
                    f"attribute out of open interval (0,1): {name}={_number_text(value)}"
                )
            try:
                _check_printable(value.numerator, value.denominator)
            except ComputationError as exc:
                raise ValidationError(f"attribute {name}: {exc}") from None
            object.__setattr__(self, name, value)

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return tuple(getattr(self, name) for name in _ATTRIBUTE_NAMES)


_ATTRIBUTE_NAMES = tuple(f.name for f in fields(AttributeVector))


@dataclass(frozen=True, slots=True)
class Entity:
    """A node: an identifier, a kind, and its attribute vector."""

    id: str
    kind: EntityKind
    attributes: AttributeVector = field(default_factory=AttributeVector)

    def __post_init__(self):
        if type(self.kind) is not EntityKind:
            object.__setattr__(self, "kind", _member(EntityKind, self.kind))


@dataclass(frozen=True, slots=True)
class Connection:
    """A typed, signed, weighted edge between two entities.

    Parallel connections between the same pair are allowed; each connection
    is distinguished by its id. ``kind`` must be ``self`` exactly when
    ``src == dst``. ``confirmed`` is meaningful only for silent connections.
    """

    id: str
    src: str
    dst: str
    kind: ConnectionKind
    polarity: int
    magnitude: Fraction
    time_index: int = 0
    blocked: bool = False
    confirmed: bool = False

    def __post_init__(self):
        if type(self.kind) is not ConnectionKind:
            object.__setattr__(self, "kind", _member(ConnectionKind, self.kind))
        if type(self.magnitude) is not Fraction:
            object.__setattr__(self, "magnitude", to_rational(self.magnitude))


def _builder(cls):
    """A function making ``cls(*values)`` in one frame, every field given with its
    type, without ``__post_init__`` or the frozen ``__init__``'s setattr calls:
    generated as ``dataclasses`` generates ``__init__``, it sets an unfrozen twin's
    slots and gives the twin ``cls`` as its class, which CPython allows only
    between identical slot layouts."""
    names = cls.__slots__  # the fields, in order
    twin = type(f"_{cls.__name__}Twin", (), {"__slots__": names})
    source = f"def build({', '.join(names)}):\n    _record = _new(_twin)\n"
    source += "".join(f"    _record.{name} = {name}\n" for name in names)
    namespace = {"_new": object.__new__, "_twin": twin, "_cls": cls}
    exec(source + "    _record.__class__ = _cls\n    return _record\n", namespace)
    build = namespace["build"]
    build.twin = twin
    return build


_new_entity, _new_connection = _builder(Entity), _builder(Connection)


@dataclass(frozen=True, slots=True)
class RosterRef:
    """Ideal-roster entry naming an existing connection by id."""

    ref: str


@dataclass(frozen=True, slots=True)
class RosterHypothetical:
    """Ideal-roster entry for a connection that does not exist in the scenario."""

    src: str
    dst: str
    magnitude: Fraction

    def __post_init__(self):
        if type(self.magnitude) is not Fraction:
            object.__setattr__(self, "magnitude", to_rational(self.magnitude))


RosterEntry = RosterRef | RosterHypothetical


@dataclass(frozen=True)
class Scenario:
    """A host-scoped multigraph.

    The connection multiset is, by definition, everything affecting the host
    entity, so scoring sums the whole multiset rather than filtering by
    incidence. Entities and connections are stored sorted by id, which makes
    equal scenarios compare (and serialize) identically.
    """

    entities: tuple[Entity, ...]
    connections: tuple[Connection, ...]
    host: str
    ideal_roster: tuple[RosterEntry, ...] | None = None
    scoring_mode: ScoringMode = ScoringMode.RAW
    desired_connectivity: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "entities", _by_id(self.entities, Entity))
        object.__setattr__(self, "connections", _by_id(self.connections, Connection))
        if self.ideal_roster is not None:
            object.__setattr__(self, "ideal_roster", tuple(self.ideal_roster))
        object.__setattr__(self, "scoring_mode", _member(ScoringMode, self.scoring_mode))
        if self.desired_connectivity is not None:
            object.__setattr__(
                self, "desired_connectivity", to_rational(self.desired_connectivity)
            )

    @cached_property
    def _entities_by_id(self) -> dict[str, Entity]:
        return {e.id: e for e in self.entities}

    @cached_property
    def _connections_by_id(self) -> dict[str, Connection]:
        return {c.id: c for c in self.connections}

    def entity(self, entity_id: str) -> Entity:
        try:
            return self._entities_by_id[entity_id]
        except KeyError:
            raise IntegrityError(f"unknown entity id: {entity_id!r}") from None

    def connection(self, conn_id: str) -> Connection:
        try:
            return self._connections_by_id[conn_id]
        except KeyError:
            raise IntegrityError(f"unknown connection id: {conn_id!r}") from None

    def has_connection(self, conn_id: str) -> bool:
        return conn_id in self._connections_by_id

    # The index: the cached properties below, each built on first read.

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """What :func:`validate_scenario` reports for this scenario."""
        return tuple(validate_scenario(self))

    @cached_property
    def impact_factors(self) -> dict[str, Fraction]:
        # One per distinct vector object; the entities keep each alive, so no id repeats.
        by_vector: dict[int, Fraction] = {}
        factors = {}
        for e in self.entities:
            factor = by_vector.get(id(e.attributes))
            if factor is None:
                factor = by_vector[id(e.attributes)] = impact_factor(e)
            factors[e.id] = factor
        return factors

    @cached_property
    def links(self) -> dict[str, dict[str, Connection]]:
        """``links[a][b]``: the best unblocked connection joining a and b."""
        return _best_links([c for c in self.connections if not c.blocked])

    @cached_property
    def real_links(self) -> dict[str, dict[str, Connection]]:
        """``real_links[a][b]``: the best unblocked real connection joining a and b."""
        real = ConnectionKind.REAL  # read once: an enum member read costs about 100 ns
        return _best_links([c for c in self.connections if not c.blocked and c.kind is real])

    @cached_property
    def valuation(self) -> Valuation:
        return Valuation(self)


def _by_id(records, record_type: type) -> tuple:
    """``records`` sorted by id, or in their given order when their ids cannot be
    compared (``"a"`` and ``7``, or an id whose ``__lt__`` raises): validation then
    reports each id that is not a string. A record that is not a ``record_type``
    is a ``TypeError``."""
    records = tuple(records)
    try:
        return tuple(sorted(records, key=attrgetter("id")))
    except Exception:
        for record in records:
            if type(record) is not record_type:
                name = record_type.__name__
                raise TypeError(f"expected {name} records, got {type(record).__name__}") from None
        return records


def _best_links(connections) -> dict[str, dict[str, Connection]]:
    """``links[a][b]``: the best of ``connections`` (in id order) joining a and b,
    by polarity x magnitude, smallest id on ties. A pair's connections share one
    positive pair weight, so this is the best in either scoring mode."""
    links: dict[str, dict[str, Connection]] = {}
    for conn in connections:
        held = links.setdefault(conn.src, {}).get(conn.dst)
        # A strict comparison keeps the smallest id.
        if held is None or conn.polarity * conn.magnitude > held.polarity * held.magnitude:
            links[conn.src][conn.dst] = links.setdefault(conn.dst, {})[conn.src] = conn
    return links


def with_scoring_mode(scenario: Scenario, mode: ScoringMode) -> Scenario:
    """The scenario under another scoring mode, keeping every part of its index
    but ``valuation``, the one part that depends on the mode, so it is not
    validated again. Its fields are already sorted and typed, so it is built
    without ``__post_init__``."""
    rescored = object.__new__(Scenario)
    rescored.__dict__.update(vars(scenario), scoring_mode=_member(ScoringMode, mode))
    rescored.__dict__.pop("valuation", None)
    return rescored


def _proven_scenario(entities, connections, host, scoring_mode, desired_connectivity) -> Scenario:
    """The roster-free scenario of fields that are already sorted by id and typed,
    which the walk that read them proved valid (see ``scenario_io``): built without
    ``__post_init__``, as :func:`with_scoring_mode` builds one, with its
    ``violations`` set to ``()``, so it is never validated."""
    scenario = object.__new__(Scenario)
    scenario.__dict__.update(
        entities=entities, connections=connections, host=host, ideal_roster=None,
        scoring_mode=scoring_mode, desired_connectivity=desired_connectivity, violations=(),
    )
    return scenario


class Valuation:
    """Connection values under one scoring mode, as integers over one denominator.
    Only this class sees them: score, ideal, removal ranking and steps are sums of them.

    Magnitude m between a and b is worth m (w_a + w_b) / 2, an entity weighing
    1 in raw mode and its impact factor otherwise. With M and L the LCMs of the
    magnitude and weight denominators, that is the integer m.numerator
    (M // m.denominator) (L w_a + L w_b) over 2 M L. A block lowers the score by
    exactly the blocked connection's value, so a removal experiment costs one
    pass over the connections plus the schedule sort.
    """

    def __init__(self, scenario: Scenario):
        if scenario.scoring_mode is ScoringMode.IMPACT_WEIGHTED:
            weights = scenario.impact_factors
        else:
            weights = dict.fromkeys(scenario._entities_by_id, 1)
        weight_lcm = lcm(*{w.denominator for w in weights.values()})
        self._weights = {k: w.numerator * (weight_lcm // w.denominator) for k, w in weights.items()}
        self._connections, self._roster = scenario.connections, scenario.ideal_roster
        # Each distinct magnitude object's units once; the scenario keeps each alive.
        hypotheticals = (e for e in self._roster or () if isinstance(e, RosterHypothetical))
        magnitudes = {id(x.magnitude): x.magnitude for x in chain(self._connections, hypotheticals)}
        scale = lcm(*{m.denominator for m in magnitudes.values()})
        self._denominator = 2 * scale * weight_lcm
        units = {key: m.numerator * (scale // m.denominator) for key, m in magnitudes.items()}
        self._units, w = units, self._weights
        try:  # each connection's value ignoring any block, in connection order
            self._values = {
                c.id: c.polarity * units[id(c.magnitude)] * (w[c.src] + w[c.dst])
                for c in self._connections
            }
        except KeyError as exc:
            raise IntegrityError(f"unknown entity id: {exc.args[0]!r}") from None

    @cached_property
    def _unblocked(self) -> dict[str, int]:
        """Each connection's value, or 0 if it is blocked."""
        return {**self._values, **dict.fromkeys([c.id for c in self._connections if c.blocked], 0)}

    @cached_property
    def score(self) -> Fraction:
        """Signed sum of the connection values; a blocked connection adds 0."""
        return Fraction(sum(self._unblocked.values()), self._denominator)

    @cached_property
    def ideal(self) -> Fraction:
        """Sum of the absolute values over the ideal roster (all connections without
        one), blocks ignored; an :class:`IntegrityError` names the first bad entry."""
        values, units, w = self._values, self._units, self._weights
        if self._roster is None:
            return Fraction(sum(map(abs, values.values())), self._denominator)
        total = 0
        for entry in self._roster:
            try:
                if isinstance(entry, RosterRef):
                    total += abs(values[entry.ref])
                else:
                    total += abs(units[id(entry.magnitude)] * (w[entry.src] + w[entry.dst]))
            except KeyError as exc:
                kind = "connection" if isinstance(entry, RosterRef) else "entity"
                raise IntegrityError(f"unknown {kind} id: {exc.args[0]!r}") from None
        return Fraction(total, self._denominator)

    def ranked(self, most_first: bool) -> list[str]:
        """Ids by rising absolute value (falling if ``most_first``), ties by id; blocks ignored."""
        sign = -1 if most_first else 1
        ranked = sorted([(sign * abs(v), conn_id) for conn_id, v in self._values.items()])
        return [conn_id for _, conn_id in ranked]

    def removal(self, schedule: list[str]) -> tuple[list[Fraction], list[Fraction]]:
        """The score, and the efficiency percentage over the nonzero ideal, after blocking
        each connection of ``schedule`` in turn. Each value is reduced by one ``gcd`` and
        built by :func:`_coprime_fraction`. A value with no exact text form raises
        :class:`ComputationError` when reached, the ideal's first; later ones are not built."""
        ideal, denominator, values = self.ideal, self._denominator, self._unblocked
        _check_printable(ideal.numerator, ideal.denominator)
        ideal_units = ideal.numerator * (denominator // ideal.denominator)
        most = sum(map(abs, values.values()))
        # Reduced, a step's two values have numerators within 100 * most over divisors of these.
        check = max(100 * most, denominator, ideal_units).bit_length() > _PRINTABLE_BITS
        total, scores, efficiencies = sum(values.values()), [], []
        for connection_id in schedule:
            total -= values[connection_id]
            common = gcd(total, denominator)
            score = _coprime_fraction(total // common, denominator // common)
            scaled = 100 * total
            common = gcd(scaled, ideal_units)
            efficiency = _coprime_fraction(scaled // common, ideal_units // common)
            if check:
                _check_printable(score.numerator, score.denominator)
                _check_printable(efficiency.numerator, efficiency.denominator)
            scores.append(score)
            efficiencies.append(efficiency)
        return scores, efficiencies


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant breach, naming the offending id and field."""

    subject: str
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.subject}.{self.field}: {self.message}"


def impact_factor(entity: Entity) -> Fraction:
    """Arithmetic mean of the four attribute values; strictly inside (0, 1)."""
    values = entity.attributes.as_tuple()
    common = lcm(*(v.denominator for v in values))
    return Fraction(sum(v.numerator * (common // v.denominator) for v in values), 4 * common)


def connection_value(
    conn: Connection, scenario: Scenario, *, ignore_blocked: bool = False
) -> Fraction:
    """Signed contribution of one connection to the scenario score.

    A blocked connection contributes exactly 0 (unless ``ignore_blocked``,
    used by ideal/importance computations that treat blocked connections as
    unblocked). In raw mode the value is polarity x magnitude; in
    impact-weighted mode it is additionally scaled by the mean of both
    endpoints' impact factors, which keeps the weighted magnitude strictly
    below the raw one.
    """
    scenario.entity(conn.src)
    scenario.entity(conn.dst)
    if conn.blocked and not ignore_blocked:
        return Fraction(0)
    value = conn.polarity * conn.magnitude
    if scenario.scoring_mode is ScoringMode.IMPACT_WEIGHTED:
        factors = scenario.impact_factors
        value *= (factors[conn.src] + factors[conn.dst]) / 2
    return value


# The magnitude range in integers: its bounds are whole numbers.
_MAGNITUDE_LOW, _MAGNITUDE_HIGH = MAGNITUDE_MIN.numerator, MAGNITUDE_MAX.numerator


def _check_magnitude(magnitude: Fraction) -> str | None:
    """The [1, 10] range rule for connections and hypothetical roster entries,
    then the printing rule (see :func:`_check_printable`): the message of the
    first one broken, or None."""
    numerator, denominator = magnitude.numerator, magnitude.denominator
    # A denominator is positive, so the range holds in integers.
    if not _MAGNITUDE_LOW * denominator <= numerator <= _MAGNITUDE_HIGH * denominator:
        return f"magnitude {_number_text(magnitude)} outside [{MAGNITUDE_MIN}, {MAGNITUDE_MAX}]"
    try:
        _check_printable(numerator, denominator)
    except ComputationError as exc:
        return str(exc)
    return None


def validate_scenario(scenario: Scenario) -> list[Violation]:
    """Report every invariant breach; an empty list means the scenario is valid."""
    violations: list[Violation] = []
    # id(magnitude) -> its _check_magnitude message: each distinct object is
    # checked once. The scenario keeps every magnitude alive, so no id repeats.
    checked: dict[int, str | None] = {}

    # Each value is tested by its exact type, as the read's walks test it, before it is
    # hashed, compared or printed: only a ``str`` is an id, and only ids are collected.
    entity_ids: set[str] = set()
    for entity in scenario.entities:
        if type(entity.id) is not str:
            violations.append(Violation("<entity>", "id", "entity id must be a string"))
        elif not entity.id:
            violations.append(Violation("<entity>", "id", "entity id must be nonempty"))
        elif entity.id in entity_ids:
            violations.append(Violation(entity.id, "id", "duplicate entity id"))
        else:
            entity_ids.add(entity.id)
        if not isinstance(entity.attributes, AttributeVector):
            subject = entity.id if type(entity.id) is str and entity.id else "<entity>"
            violations.append(
                Violation(subject, "attributes", "attributes must be an AttributeVector")
            )

    desired = scenario.desired_connectivity
    if desired is not None:
        try:
            _check_printable(desired.numerator, desired.denominator)
        except ComputationError as exc:
            violations.append(Violation("<scenario>", "desired_connectivity", str(exc)))

    host = scenario.host
    if type(host) is str and not host:
        violations.append(Violation("<scenario>", "host", "host id must be nonempty"))
    elif type(host) is not str or host not in entity_ids:
        violations.append(Violation(_number_text(host), "host", "host id does not name an entity"))

    conn_ids: set[str] = set()
    self_kind = ConnectionKind.SELF  # read once, as in ``real_links``
    for conn in scenario.connections:
        if type(conn.id) is not str:
            subject = "<connection>"
            violations.append(Violation(subject, "id", "connection id must be a string"))
        else:
            subject = conn.id or "<connection>"
            if not conn.id:
                violations.append(Violation(subject, "id", "connection id must be nonempty"))
            elif conn.id in conn_ids:
                violations.append(Violation(conn.id, "id", "duplicate connection id"))
            conn_ids.add(conn.id)

        src, dst = conn.src, conn.dst
        if type(src) is not str or src not in entity_ids:
            shown = _number_text(src, repr)
            violations.append(Violation(subject, "src", f"endpoint {shown} is not an entity"))
        if type(dst) is not str or dst not in entity_ids:
            shown = _number_text(dst, repr)
            violations.append(Violation(subject, "dst", f"endpoint {shown} is not an entity"))
        # Endpoints that are not strings are reported above and never compared.
        if type(src) is str and type(dst) is str and (src == dst) is not (conn.kind is self_kind):
            message = "connection with src = dst must have kind self"
            if src != dst:
                message = "kind self requires src = dst"
            violations.append(Violation(subject, "kind", message))
        p = conn.polarity
        if type(p) is not int or p not in (1, -1):
            message = f"polarity must be +1 or -1, got {_number_text(p)}"
            violations.append(Violation(subject, "polarity", message))
        key = id(conn.magnitude)
        if key not in checked:
            checked[key] = _check_magnitude(conn.magnitude)
        if checked[key] is not None:
            violations.append(Violation(subject, "magnitude", checked[key]))
        t = conn.time_index
        if type(t) is not int or t < 0:
            violations.append(
                Violation(subject, "time_index", "time_index must be a non-negative integer")
            )
        elif t.bit_length() > _PRINTABLE_BITS:
            try:
                _check_printable(t, 1)
            except ComputationError as exc:
                violations.append(Violation(subject, "time_index", str(exc)))
        if type(conn.blocked) is not bool:
            violations.append(Violation(subject, "blocked", "blocked must be true or false"))
        if type(conn.confirmed) is not bool:
            violations.append(Violation(subject, "confirmed", "confirmed must be true or false"))

    if scenario.ideal_roster is not None:
        for i, entry in enumerate(scenario.ideal_roster):
            subject = f"ideal_roster[{i}]"
            if isinstance(entry, RosterRef):
                if type(entry.ref) is not str or entry.ref not in conn_ids:
                    message = f"no connection with id {_number_text(entry.ref, repr)}"
                    violations.append(Violation(subject, "ref", message))
            elif not isinstance(entry, RosterHypothetical):
                message = "entry must be a RosterRef or a RosterHypothetical"
                violations.append(Violation(subject, "entry", message))
            else:
                for which, endpoint in (("src", entry.src), ("dst", entry.dst)):
                    if type(endpoint) is not str or endpoint not in entity_ids:
                        message = f"endpoint {_number_text(endpoint, repr)} is not an entity"
                        violations.append(Violation(subject, which, message))
                key = id(entry.magnitude)
                if key not in checked:
                    checked[key] = _check_magnitude(entry.magnitude)
                if checked[key] is not None:
                    violations.append(Violation(subject, "magnitude", checked[key]))

    return violations


def ensure_valid(scenario: Scenario) -> None:
    """Raise :class:`ValidationError` carrying all violations, if any."""
    violations = scenario.violations
    if violations:
        summary = "; ".join(str(v) for v in violations[:3])
        if len(violations) > 3:
            summary += f"; and {len(violations) - 3} more"
        raise ValidationError(f"invalid scenario: {summary}", violations)
