"""Core domain types and elementary valuations.

A scenario is a host-scoped signed multigraph: a set of entities, each
carrying a four-attribute state vector, joined by typed, signed, weighted
connections. Everything is immutable after construction and all numbers are
exact rationals (``fractions.Fraction``); binary floats are rejected at the
boundary so serialized values reproduce byte for byte.

Each scenario keeps one lazily built index: its validation result, impact
factors, best connection per pair and kind, and a ``Valuation`` holding each
connection's value as an integer over one denominator, so sums are exact.
"""

from __future__ import annotations

__all__ = [
    "DEFAULT_ATTRIBUTE", "MAGNITUDE_MAX", "MAGNITUDE_MIN", "AttributeVector", "Connection",
    "ConnectionKind", "Entity", "EntityKind", "RosterHypothetical", "RosterRef", "Scenario",
    "ScoringMode", "Violation", "connection_value", "ensure_valid", "impact_factor",
    "make_entity", "to_rational", "validate_scenario", "with_connection",
]

import decimal
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm

from .errors import IntegrityError, ValidationError

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
    if len(text) > 6:  # a shorter literal is inside both limits
        mantissa, _, exponent = text.replace("E", "e").partition("e")
        if sum(map(str.isdecimal, mantissa)) > LITERAL_MAX_DIGITS:
            raise _LiteralTooLarge(f"numeric literal has more than {LITERAL_MAX_DIGITS} digits")
        exponent = exponent.strip().lstrip("+-").replace("_", "").lstrip("0")
        longer = len(exponent) > len(str(LITERAL_MAX_EXPONENT))
        if exponent.isdecimal() and (longer or int(exponent) > LITERAL_MAX_EXPONENT):
            raise _LiteralTooLarge(f"numeric literal has an exponent past {LITERAL_MAX_EXPONENT}")


def _literal(value: str | decimal.Decimal) -> Fraction:
    check_literal(str(value))
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"not a rational literal: {value!r}") from exc


# Scenario numbers come from small fixed scales, so literals repeat. The
# _MEMO_SIZE most recent short strings with no exponent (so a small value) keep
# their Fraction; any other (" " * 10**5 + "2", "1e9999") is decoded every call.
_MEMO_SIZE = 4096
_MEMO_LITERAL_LENGTH = 32
_memo_literal = lru_cache(maxsize=_MEMO_SIZE)(_literal)


def to_rational(value: Fraction | int | str | decimal.Decimal) -> Fraction:
    """Coerce a value to an exact :class:`Fraction`.

    An exact ``Fraction`` is returned as it is (Fractions are immutable).
    Accepts Fraction subclasses, ints, decimal/fraction strings ("0.75",
    "3/4") and ``decimal.Decimal``. Floats are rejected: they carry binary
    rounding error that would leak into canonical serialization. A string or
    Decimal past the literal limits (:func:`check_literal`), or that names no
    rational (``"1/0"``, ``Decimal("Infinity")``), is a ``ValueError``.

    A repeated short string decodes once, to the same ``Fraction``. Errors
    are never cached: a bad literal is checked and raises on every call.
    """
    if type(value) is str and len(value) <= _MEMO_LITERAL_LENGTH:
        return _literal(value) if "e" in value or "E" in value else _memo_literal(value)
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise TypeError(f"expected a rational number, got bool {value!r}")
    if isinstance(value, (Fraction, int)):
        return Fraction(value)
    if isinstance(value, (str, decimal.Decimal)):
        return _literal(value)
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
        for name in ("existence", "inner_state", "external_state", "communication_state"):
            value = to_rational(getattr(self, name))
            if not 0 < value < 1:
                raise ValidationError(
                    f"attribute out of open interval (0,1): {name}={_number_text(value)}"
                )
            object.__setattr__(self, name, value)

    def as_tuple(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (self.existence, self.inner_state, self.external_state, self.communication_state)


@dataclass(frozen=True, slots=True)
class Entity:
    """A node: an identifier, a kind, and its attribute vector."""

    id: str
    kind: EntityKind
    attributes: AttributeVector = field(default_factory=AttributeVector)

    def __post_init__(self):
        if type(self.kind) is not EntityKind:
            object.__setattr__(self, "kind", EntityKind(self.kind))


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
            object.__setattr__(self, "kind", ConnectionKind(self.kind))
        object.__setattr__(self, "magnitude", to_rational(self.magnitude))

    def endpoints(self) -> frozenset[str]:
        return frozenset((self.src, self.dst))


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
        object.__setattr__(
            self, "entities", tuple(sorted(self.entities, key=lambda e: e.id))
        )
        object.__setattr__(
            self, "connections", tuple(sorted(self.connections, key=lambda c: c.id))
        )
        if self.ideal_roster is not None:
            object.__setattr__(self, "ideal_roster", tuple(self.ideal_roster))
        object.__setattr__(self, "scoring_mode", ScoringMode(self.scoring_mode))
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

    def has_entity(self, entity_id: str) -> bool:
        return entity_id in self._entities_by_id

    def has_connection(self, conn_id: str) -> bool:
        return conn_id in self._connections_by_id

    # The index: the cached properties below, each built on first read.

    @cached_property
    def violations(self) -> tuple[Violation, ...]:
        """What :func:`validate_scenario` reports for this scenario."""
        return tuple(validate_scenario(self))

    @cached_property
    def impact_factors(self) -> dict[str, Fraction]:
        return {e.id: impact_factor(e) for e in self.entities}

    @cached_property
    def links(self) -> dict[str, dict[str, dict[ConnectionKind, Connection]]]:
        """``links[a][b]``: the best unblocked connection of each kind joining
        a and b. All connections of a pair share one positive pair weight, so
        the best by polarity x magnitude is the best in either scoring mode."""
        links: dict[str, dict[str, dict[ConnectionKind, Connection]]] = {}
        for conn in self.connections:
            if conn.blocked:
                continue
            kinds = links.setdefault(conn.src, {}).get(conn.dst)
            if kinds is None:
                kinds = links[conn.src][conn.dst] = links.setdefault(conn.dst, {})[conn.src] = {}
            held = kinds.get(conn.kind)
            # Connections come in id order, so a strict comparison keeps the smallest id.
            if held is None or conn.polarity * conn.magnitude > held.polarity * held.magnitude:
                kinds[conn.kind] = conn
        return links

    @cached_property
    def valuation(self) -> Valuation:
        return Valuation(self)

    def hop(self, a: str, b: str, kinds=frozenset(ConnectionKind)) -> Connection | None:
        """The best unblocked connection of one of ``kinds`` joining a and b
        (highest value, smallest id on ties), or None."""
        joined = self.links.get(a, {}).get(b, {})
        candidates = [conn for kind, conn in joined.items() if kind in kinds]
        return min(candidates, key=lambda c: (-c.polarity * c.magnitude, c.id), default=None)


def with_scoring_mode(scenario: Scenario, mode: ScoringMode) -> Scenario:
    """The scenario under another scoring mode, keeping the parts of its index
    that do not depend on the mode, so it is not validated again."""
    rescored = replace(scenario, scoring_mode=mode)
    mode_free = ("_entities_by_id", "_connections_by_id", "violations", "impact_factors", "links")
    rescored.__dict__.update((k, v) for k, v in vars(scenario).items() if k in mode_free)
    return rescored


class Valuation:
    """Connection values under one scoring mode, as integers over one denominator.

    Magnitude m between a and b is worth m (w_a + w_b) / 2, an entity weighing
    1 in raw mode and its impact factor otherwise. With M and L the LCMs of the
    magnitude and weight denominators, that is the integer m.numerator
    (M // m.denominator) (L w_a + L w_b) over ``denominator`` = 2 M L.
    """

    def __init__(self, scenario: Scenario):
        if scenario.scoring_mode is ScoringMode.IMPACT_WEIGHTED:
            weights = scenario.impact_factors
        else:
            weights = dict.fromkeys(scenario._entities_by_id, 1)
        weight_lcm = lcm(*{w.denominator for w in weights.values()})
        self._weights = {k: w.numerator * (weight_lcm // w.denominator) for k, w in weights.items()}
        rated = scenario.connections + tuple(
            e for e in scenario.ideal_roster or () if isinstance(e, RosterHypothetical)
        )
        self._magnitude_lcm = lcm(*{item.magnitude.denominator for item in rated})
        self.denominator = 2 * self._magnitude_lcm * weight_lcm
        # Each connection's value ignoring any block, in connection order.
        self.values = {
            c.id: c.polarity * self.weigh(c.src, c.dst, c.magnitude) for c in scenario.connections
        }

    def weigh(self, src: str, dst: str, magnitude: Fraction) -> int:
        """One of the scenario's magnitudes times the pair weight, over ``denominator``."""
        try:
            pair = self._weights[src] + self._weights[dst]
        except KeyError as exc:
            raise IntegrityError(f"unknown entity id: {exc.args[0]!r}") from None
        return magnitude.numerator * (self._magnitude_lcm // magnitude.denominator) * pair


@dataclass(frozen=True, slots=True)
class Violation:
    """One invariant breach, naming the offending id and field."""

    subject: str
    field: str
    message: str

    def __str__(self) -> str:
        return f"{self.subject}.{self.field}: {self.message}"


def make_entity(
    entity_id: str,
    kind: EntityKind | str,
    attributes: AttributeVector | None = None,
) -> Entity:
    """Build an entity; omitted attributes default every field to 0.75."""
    if not entity_id:
        raise ValidationError("entity id must be nonempty")
    return Entity(
        id=entity_id,
        kind=EntityKind(kind),
        attributes=attributes if attributes is not None else AttributeVector(),
    )


def impact_factor(entity: Entity) -> Fraction:
    """Arithmetic mean of the four attribute values; strictly inside (0, 1)."""
    return sum(entity.attributes.as_tuple(), Fraction(0)) / 4


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


def _check_magnitude(subject: str, magnitude: Fraction, violations: list[Violation]) -> None:
    """The [1, 10] range rule for connections and hypothetical roster entries."""
    # In integers: the bounds are whole numbers and a denominator is positive.
    low, high = MAGNITUDE_MIN.numerator, MAGNITUDE_MAX.numerator
    if not low * magnitude.denominator <= magnitude.numerator <= high * magnitude.denominator:
        violations.append(
            Violation(
                subject,
                "magnitude",
                f"magnitude {_number_text(magnitude)} outside [{MAGNITUDE_MIN}, {MAGNITUDE_MAX}]",
            )
        )


def validate_scenario(scenario: Scenario) -> list[Violation]:
    """Report every invariant breach; an empty list means the scenario is valid."""
    violations: list[Violation] = []

    entity_ids: set[str] = set()
    for entity in scenario.entities:
        if not entity.id:
            violations.append(Violation("<entity>", "id", "entity id must be nonempty"))
            continue
        if entity.id in entity_ids:
            violations.append(
                Violation(entity.id, "id", "duplicate entity id")
            )
        entity_ids.add(entity.id)

    if not scenario.host:
        violations.append(Violation("<scenario>", "host", "host id must be nonempty"))
    elif scenario.host not in entity_ids:
        violations.append(
            Violation(scenario.host, "host", "host id does not name an entity")
        )

    conn_ids: set[str] = set()
    for conn in scenario.connections:
        subject = conn.id or "<connection>"
        if not conn.id:
            violations.append(Violation(subject, "id", "connection id must be nonempty"))
        elif conn.id in conn_ids:
            violations.append(Violation(conn.id, "id", "duplicate connection id"))
        conn_ids.add(conn.id)

        for which, endpoint in (("src", conn.src), ("dst", conn.dst)):
            if endpoint not in entity_ids:
                violations.append(
                    Violation(subject, which, f"endpoint {endpoint!r} is not an entity")
                )
        is_loop = conn.src == conn.dst
        if is_loop and conn.kind is not ConnectionKind.SELF:
            violations.append(
                Violation(subject, "kind", "connection with src = dst must have kind self")
            )
        if not is_loop and conn.kind is ConnectionKind.SELF:
            violations.append(
                Violation(subject, "kind", "kind self requires src = dst")
            )
        if conn.polarity not in (1, -1):
            violations.append(
                Violation(subject, "polarity", f"polarity must be +1 or -1, got {conn.polarity}")
            )
        _check_magnitude(subject, conn.magnitude, violations)
        if not isinstance(conn.time_index, int) or isinstance(conn.time_index, bool) or conn.time_index < 0:
            violations.append(
                Violation(subject, "time_index", "time_index must be a non-negative integer")
            )

    if scenario.ideal_roster is not None:
        for i, entry in enumerate(scenario.ideal_roster):
            subject = f"ideal_roster[{i}]"
            if isinstance(entry, RosterRef):
                if entry.ref not in conn_ids:
                    violations.append(
                        Violation(subject, "ref", f"no connection with id {entry.ref!r}")
                    )
            else:
                for which, endpoint in (("src", entry.src), ("dst", entry.dst)):
                    if endpoint not in entity_ids:
                        violations.append(
                            Violation(subject, which, f"endpoint {endpoint!r} is not an entity")
                        )
                _check_magnitude(subject, entry.magnitude, violations)

    return violations


def ensure_valid(scenario: Scenario) -> None:
    """Raise :class:`ValidationError` carrying all violations, if any."""
    violations = scenario.violations
    if violations:
        summary = "; ".join(str(v) for v in violations[:3])
        if len(violations) > 3:
            summary += f"; and {len(violations) - 3} more"
        raise ValidationError(f"invalid scenario: {summary}", violations)


def with_connection(scenario: Scenario, conn: Connection) -> Scenario:
    """Return a scenario with ``conn`` appended; its id must be fresh."""
    if scenario.has_connection(conn.id):
        raise IntegrityError(f"connection id already in use: {conn.id!r}")
    return replace(scenario, connections=scenario.connections + (conn,))
