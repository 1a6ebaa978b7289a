"""Shared test machinery: re-derivation oracles and scenario generators.

The oracles recompute quantities from raw dataclass fields without calling
the library's own valuation helpers, so a bug cannot hide on both sides of
an assertion. Generators come in two flavors: a seeded random.Random one for
the timed bulk checks and hypothesis strategies for property tests.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
from fractions import Fraction

from hypothesis import strategies as st

from conncalc import (
    AttributeVector,
    Connection,
    ConnectionKind,
    Entity,
    EntityKind,
    Path,
    QualityTrajectory,
    RemovalOrder,
    ReplacementReport,
    RosterHypothetical,
    RosterRef,
    Scenario,
    ScoringMode,
    TrajectoryStep,
)


def oracle_impact(entity: Entity) -> Fraction:
    attrs = entity.attributes
    return (
        attrs.existence + attrs.inner_state + attrs.external_state + attrs.communication_state
    ) / 4


def oracle_value(conn: Connection, scenario: Scenario, *, ignore_blocked: bool = False) -> Fraction:
    """Connection value recomputed from first principles."""
    if conn.blocked and not ignore_blocked:
        return Fraction(0)
    value = Fraction(conn.polarity) * conn.magnitude
    if scenario.scoring_mode is ScoringMode.IMPACT_WEIGHTED:
        by_id = {e.id: e for e in scenario.entities}
        weight = (oracle_impact(by_id[conn.src]) + oracle_impact(by_id[conn.dst])) / 2
        value *= weight
    return value


def oracle_score(scenario: Scenario) -> Fraction:
    return sum((oracle_value(c, scenario) for c in scenario.connections), Fraction(0))


def oracle_ideal(scenario: Scenario) -> Fraction:
    by_id = {e.id: e for e in scenario.entities}
    if scenario.ideal_roster is None:
        return sum(
            (abs(oracle_value(c, scenario, ignore_blocked=True)) for c in scenario.connections),
            Fraction(0),
        )
    conns = {c.id: c for c in scenario.connections}
    total = Fraction(0)
    for entry in scenario.ideal_roster:
        if isinstance(entry, RosterRef):
            total += abs(oracle_value(conns[entry.ref], scenario, ignore_blocked=True))
        else:
            value = entry.magnitude
            if scenario.scoring_mode is ScoringMode.IMPACT_WEIGHTED:
                value *= (oracle_impact(by_id[entry.src]) + oracle_impact(by_id[entry.dst])) / 2
            total += abs(value)
    return total


def _oracle_blocked(scenario: Scenario, connection_id: str) -> Scenario:
    """A fresh copy of the scenario with one more connection blocked."""
    connections = tuple(
        dataclasses.replace(c, blocked=True) if c.id == connection_id else c
        for c in scenario.connections
    )
    return dataclasses.replace(scenario, connections=connections)


def oracle_removal(
    scenario: Scenario, order: RemovalOrder, max_steps: int | None = None
) -> QualityTrajectory:
    """Removal trajectory with every step re-scored from scratch.

    Ranks by unblocked absolute value (ties by id), then blocks one more
    connection per step on a new copy and sums every value again; the
    denominator is the intact scenario's ideal.
    """
    order = RemovalOrder(order)
    sign = 1 if order is RemovalOrder.LEAST_FIRST else -1
    ranked = sorted(
        scenario.connections,
        key=lambda c: (sign * abs(oracle_value(c, scenario, ignore_blocked=True)), c.id),
    )
    ideal = oracle_ideal(scenario)
    steps = []
    working = scenario
    for number, conn in enumerate(ranked[:max_steps], start=1):
        working = _oracle_blocked(working, conn.id)
        score = oracle_score(working)
        steps.append(TrajectoryStep(number, conn.id, score, 100 * score / ideal))
    return QualityTrajectory(order=order, ideal=ideal, steps=tuple(steps))


def oracle_replacement(
    scenario: Scenario, blocked_id: str, replacement: Connection
) -> ReplacementReport:
    """Replacement report with all three scores summed from scratch."""
    ideal = oracle_ideal(scenario)
    blocked = _oracle_blocked(scenario, blocked_id)
    patched = dataclasses.replace(blocked, connections=blocked.connections + (replacement,))
    before, during, after = (oracle_score(s) for s in (scenario, blocked, patched))
    return ReplacementReport(
        blocked_id=blocked_id,
        replacement_id=replacement.id,
        ideal=ideal,
        quality_before=100 * before / ideal,
        quality_blocked=100 * during / ideal,
        quality_after=100 * after / ideal,
    )


def _joining(scenario: Scenario, a: str, b: str) -> list[Connection]:
    """Unblocked connections whose endpoints are exactly {a, b}."""
    return [c for c in scenario.connections if not c.blocked and {c.src, c.dst} == {a, b}]


def oracle_link(scenario: Scenario, a: str, b: str, kinds=frozenset(ConnectionKind)):
    """The strongest unblocked connection of one of ``kinds`` joining a and b
    (highest polarity x magnitude, smallest id on ties), or None."""
    candidates = [c for c in _joining(scenario, a, b) if c.kind in kinds]
    return min(candidates, key=lambda c: (-c.polarity * c.magnitude, c.id), default=None)


def oracle_real_components(scenario: Scenario) -> dict[str, str]:
    """Each entity id's union-find root over unblocked real connections."""
    parent = {e.id: e.id for e in scenario.entities}

    def find(eid: str) -> str:
        while parent[eid] != eid:
            parent[eid] = parent[parent[eid]]
            eid = parent[eid]
        return eid

    for conn in scenario.connections:
        if conn.kind is ConnectionKind.REAL and not conn.blocked:
            a, b = find(conn.src), find(conn.dst)
            if a != b:
                parent[a] = b
    return {eid: find(eid) for eid in parent}


def oracle_distance_sum(scenario: Scenario, path) -> Fraction | None:
    """Sum over the hops of the strongest joining connection's value; None
    when a hop has no unblocked connection."""
    total = Fraction(0)
    for a, b in zip(path, path[1:]):
        values = [oracle_value(c, scenario) for c in _joining(scenario, a, b)]
        if not values:
            return None
        total += max(values)
    return total


def oracle_path_viability(scenario: Scenario, path) -> Fraction:
    """Product of the impact factors after the first entity; 0 at the first
    hop without an unblocked connection."""
    by_id = {e.id: e for e in scenario.entities}
    product = Fraction(1)
    for a, b in zip(path, path[1:]):
        if not _joining(scenario, a, b):
            return Fraction(0)
        product *= oracle_impact(by_id[b])
    return product


def oracle_paths(
    scenario: Scenario, src: str, dst: str, max_hops: int, include_silent: bool = False
) -> list[Path]:
    """Every simple path by brute force over ordered choices of intermediate
    entities, each hop carried by its highest-valued eligible connection
    (smallest id on ties); shortest first, then by entity sequence."""

    def strongest(candidates: list[Connection]) -> Connection:
        return min(candidates, key=lambda c: (-oracle_value(c, scenario), c.id))

    if src == dst:
        loops = [c for c in _joining(scenario, src, src) if c.kind is ConnectionKind.SELF]
        return [Path(entities=(src,), hops=(strongest(loops).id,))] if loops else []
    kinds = {ConnectionKind.REAL} | ({ConnectionKind.SILENT} if include_silent else set())
    others = [e.id for e in scenario.entities if e.id not in (src, dst)]
    found = []
    for middle_count in range(min(max_hops, len(others) + 1)):
        for middle in itertools.permutations(others, middle_count):
            seq = (src, *middle, dst)
            hops = []
            for a, b in zip(seq, seq[1:]):
                eligible = [c for c in _joining(scenario, a, b) if c.kind in kinds]
                if not eligible:
                    break
                hops.append(strongest(eligible).id)
            else:
                found.append(Path(entities=seq, hops=tuple(hops)))
    return sorted(found, key=lambda p: (len(p.entities), p.entities))


def reference_number(value: Fraction) -> str:
    """Shortest exact text of a rational, found by search: an integer bare, a
    value that some power of ten clears by the smallest such power (so no
    trailing zero), anything else ``p/q``."""
    if value.denominator == 1:
        return str(value.numerator)
    for places in range(1, value.denominator.bit_length() + 1):
        if 10**places % value.denominator == 0:
            digits = str(abs(value.numerator) * 10**places // value.denominator)
            digits = digits.rjust(places + 1, "0")
            return f"{'-' if value < 0 else ''}{digits[:-places]}.{digits[-places:]}"
    return f"{value.numerator}/{value.denominator}"


def reference_doc(scenario: Scenario) -> dict:
    """The canonical document of a scenario, spelled out from its dataclass
    fields: keys in field order, enums by value, rationals as
    :func:`reference_number` text, and these defaults left out: an entity's
    default attribute vector, a connection's time index 0 and false flags,
    and an absent desired connectivity or roster. ``serialize_scenario``
    writes it as ``json.dumps(doc, indent=2, ensure_ascii=True)`` does."""

    def record(item, omitted=()) -> dict:
        doc = {}
        for f in dataclasses.fields(item):
            value = getattr(item, f.name)
            if f.name in omitted and value == f.default:
                continue
            if isinstance(value, Fraction):
                value = reference_number(value)
            elif isinstance(value, (EntityKind, ConnectionKind)):
                value = value.value
            elif isinstance(value, AttributeVector):
                if value == AttributeVector():
                    continue
                value = record(value)
            doc[f.name] = value
        return doc

    doc: dict = {"version": 1, "host": scenario.host, "mode": scenario.scoring_mode.value}
    if scenario.desired_connectivity is not None:
        doc["desired_connectivity"] = reference_number(scenario.desired_connectivity)
    doc["entities"] = [record(e) for e in scenario.entities]
    omitted = ("time_index", "blocked", "confirmed")
    doc["connections"] = [record(c, omitted) for c in scenario.connections]
    if scenario.ideal_roster is not None:
        doc["ideal_roster"] = [
            record(entry) if isinstance(entry, RosterRef) else {"hypothetical": record(entry)}
            for entry in scenario.ideal_roster
        ]
    return doc


def random_scenario(
    rng: random.Random,
    *,
    max_entities: int = 8,
    min_connections: int = 0,
    max_connections: int = 14,
    all_positive: bool = False,
    with_roster: bool = True,
) -> Scenario:
    """One pseudo-random valid scenario drawn from the given generator."""
    entity_count = rng.randint(1, max_entities)
    ids = [f"n{i:03d}" for i in range(entity_count)]
    entities = []
    for entity_id in ids:
        if rng.random() < 0.3:
            attrs = AttributeVector(
                existence=Fraction(rng.randint(1, 99), 100),
                inner_state=Fraction(rng.randint(1, 99), 100),
                external_state=Fraction(rng.randint(1, 99), 100),
                communication_state=Fraction(rng.randint(1, 99), 100),
            )
        else:
            attrs = AttributeVector()
        entities.append(
            Entity(id=entity_id, kind=rng.choice(list(EntityKind)), attributes=attrs)
        )

    connections = []
    for i in range(rng.randint(min_connections, max_connections)):
        src = rng.choice(ids)
        if entity_count == 1 or rng.random() < 0.15:
            dst, kind = src, ConnectionKind.SELF
        else:
            dst = rng.choice([x for x in ids if x != src])
            kind = rng.choice(
                (ConnectionKind.REAL, ConnectionKind.REAL, ConnectionKind.SILENT)
            )
        connections.append(
            Connection(
                id=f"c{i:03d}",
                src=src,
                dst=dst,
                kind=kind,
                polarity=1 if all_positive else rng.choice((1, -1)),
                magnitude=Fraction(rng.randint(10, 100), 10),
                time_index=rng.randint(0, 3) if rng.random() < 0.25 else 0,
                blocked=(not all_positive) and rng.random() < 0.15,
                confirmed=kind is ConnectionKind.SILENT and rng.random() < 0.25,
            )
        )

    roster = None
    if with_roster and rng.random() < 0.4:
        entries: list = [RosterRef(ref=c.id) for c in connections if rng.random() < 0.7]
        if entity_count >= 2 and rng.random() < 0.5:
            src, dst = rng.sample(ids, 2)
            entries.append(
                RosterHypothetical(src=src, dst=dst, magnitude=Fraction(rng.randint(10, 100), 10))
            )
        roster = tuple(entries)

    return Scenario(
        entities=tuple(entities),
        connections=tuple(connections),
        host=rng.choice(ids),
        ideal_roster=roster,
        scoring_mode=(
            ScoringMode.IMPACT_WEIGHTED if rng.random() < 0.3 else ScoringMode.RAW
        ),
        desired_connectivity=Fraction(rng.randint(1, 80)) if rng.random() < 0.5 else None,
    )


# hypothesis strategies ------------------------------------------------------

attribute_values = st.integers(min_value=1, max_value=99).map(lambda k: Fraction(k, 100))

attribute_vectors = st.builds(
    AttributeVector,
    existence=attribute_values,
    inner_state=attribute_values,
    external_state=attribute_values,
    communication_state=attribute_values,
)

magnitudes = st.integers(min_value=10, max_value=100).map(lambda k: Fraction(k, 10))

polarities = st.sampled_from((1, -1))

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=997)

# Denominators coprime to 10 and to each other, so a kernel that takes the
# wrong common denominator is off for some draw.
coprime_attribute_values = st.one_of(
    st.integers(min_value=1, max_value=6).map(lambda k: Fraction(k, 7)),
    st.integers(min_value=1, max_value=96).map(lambda k: Fraction(k, 97)),
    st.sampled_from((Fraction(1, 3), Fraction(2, 3))),
    attribute_values,
)
coprime_attribute_vectors = st.builds(
    AttributeVector,
    existence=coprime_attribute_values,
    inner_state=coprime_attribute_values,
    external_state=coprime_attribute_values,
    communication_state=coprime_attribute_values,
)
coprime_magnitudes = st.one_of(
    st.integers(min_value=3, max_value=30).map(lambda k: Fraction(k, 3)),
    st.integers(min_value=7, max_value=70).map(lambda k: Fraction(k, 7)),
    st.integers(min_value=11, max_value=110).map(lambda k: Fraction(k, 11)),
    magnitudes,
)


# Ids that a writer must quote or escape: quotes, backslashes, control and
# non-ASCII characters, and a lone surrogate, which JSON text escapes but
# UTF-8 cannot encode. ``st.characters()`` can draw a low surrogate after the
# high one, and JSON reads "\ud800\udfff" as one character, so
# serialize_scenario refuses an id that holds such a pair (see
# :func:`holds_surrogate_pair`).
hostile_ids = st.text(
    st.sampled_from('"\\\'/ a\x00\n\u00e9\u2192\U0001f600\ud800') | st.characters(),
    min_size=1,
    max_size=4,
)


def holds_surrogate_pair(scenario: Scenario) -> bool:
    """Whether any id of the scenario holds a high surrogate followed by a low one."""
    ids = [item.id for item in scenario.entities + scenario.connections]
    return any(
        "\ud800" <= high <= "\udbff" and "\udc00" <= low <= "\udfff"
        for text in ids
        for high, low in zip(text, text[1:])
    )


def _distinct_ids(draw, ids, prefix: str, count: int) -> list[str]:
    """``count`` distinct ids drawn from the strategy ``ids``, or, without
    one, ``prefix`` followed by each index."""
    if ids is None:
        return [f"{prefix}{i}" for i in range(count)]
    return draw(st.lists(ids, min_size=count, max_size=count, unique=True))


@st.composite
def scenarios(
    draw,
    min_entities: int = 1,
    max_entities: int = 6,
    max_connections: int = 8,
    all_positive: bool = False,
    require_connection: bool = False,
    with_desired: bool | None = None,
    with_roster: bool = True,
    attributes=attribute_vectors,
    magnitude_values=magnitudes,
    ids=None,
):
    """A valid scenario. ``ids``, a strategy for id strings, draws the entity
    and connection ids; without it they are ``n{i}`` and ``c{i}``."""
    entity_count = draw(st.integers(min_entities, max_entities))
    entity_ids = _distinct_ids(draw, ids, "n", entity_count)
    entities = []
    for entity_id in entity_ids:
        attrs = draw(st.one_of(st.just(AttributeVector()), attributes))
        entities.append(
            Entity(id=entity_id, kind=draw(st.sampled_from(EntityKind)), attributes=attrs)
        )

    connection_count = draw(
        st.integers(1 if require_connection else 0, max_connections)
    )
    connection_ids = _distinct_ids(draw, ids, "c", connection_count)
    connections = []
    for connection_id in connection_ids:
        src = draw(st.sampled_from(entity_ids))
        if entity_count == 1 or draw(st.booleans()):
            others = [x for x in entity_ids if x != src] or [src]
            dst = draw(st.sampled_from(others))
        else:
            dst = src
        if src == dst:
            kind = ConnectionKind.SELF
        else:
            kind = draw(st.sampled_from((ConnectionKind.REAL, ConnectionKind.SILENT)))
        connections.append(
            Connection(
                id=connection_id,
                src=src,
                dst=dst,
                kind=kind,
                polarity=1 if all_positive else draw(polarities),
                magnitude=draw(magnitude_values),
                time_index=draw(st.integers(0, 3)),
                blocked=False if all_positive else draw(st.booleans()),
                confirmed=kind is ConnectionKind.SILENT and draw(st.booleans()),
            )
        )

    roster = None
    if with_roster and draw(st.booleans()):
        entries: list = [
            RosterRef(ref=c.id) for c in connections if draw(st.booleans())
        ]
        if entity_count >= 2 and draw(st.booleans()):
            pair = draw(st.permutations(entity_ids))[:2]
            entries.append(
                RosterHypothetical(src=pair[0], dst=pair[1], magnitude=draw(magnitude_values))
            )
        roster = tuple(entries)

    if with_desired is None:
        desired = draw(st.one_of(st.none(), st.integers(1, 80).map(Fraction)))
    elif with_desired:
        desired = draw(st.integers(1, 80).map(Fraction))
    else:
        desired = None

    return Scenario(
        entities=tuple(entities),
        connections=tuple(connections),
        host=draw(st.sampled_from(entity_ids)),
        ideal_roster=roster,
        scoring_mode=draw(st.sampled_from(ScoringMode)),
        desired_connectivity=desired,
    )


def coprime_scenarios(**kwargs):
    """``scenarios`` with attribute and magnitude denominators such as 7, 97,
    3 and 11 next to the decimal ones."""
    return scenarios(
        attributes=coprime_attribute_vectors, magnitude_values=coprime_magnitudes, **kwargs
    )


# Hostile values for a field of a scenario built in code (README's library contract):
# values of the wrong type, numbers past every limit, and subclasses and objects whose
# own methods raise when hashed, compared or ordered.
def _raising(base: type, method: str) -> type:
    """A subclass of ``base`` whose ``method`` raises. One raising ``__eq__``
    keeps ``base``'s hash, so a set lookup reaches the comparison."""

    def fail(self, *args):
        raise RuntimeError(f"{method} of a hostile value")

    namespace = {method: fail, "__hash__": base.__hash__} if method == "__eq__" else {method: fail}
    return type(f"Raising{method.strip('_').title()}{base.__name__.title()}", (base,), namespace)


_HOSTILE_METHODS = ("__eq__", "__hash__", "__lt__")
_hostile_texts = st.text("nc01", max_size=3) | st.sampled_from(
    ["n0", "n1", "c0", "known", "self", "raw", "impact_weighted", "2"]
)
_hostile_ints = st.integers(-2, 12) | st.just(10**5000)

_other_types = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.decimals(),
    st.fractions(),
    _hostile_ints,
    _hostile_texts,
    st.sampled_from([*EntityKind, *ConnectionKind, *ScoringMode]),
    st.lists(_hostile_ints, max_size=2),
    st.dictionaries(_hostile_texts, _hostile_ints, max_size=1),
    st.binary(max_size=2),
)
_subclass_values = st.sampled_from(
    [type("Text", (str,), {}), type("Whole", (int,), {})]
    + [_raising(base, method) for base in (str, int) for method in _HOSTILE_METHODS]
).flatmap(lambda cls: (_hostile_texts if issubclass(cls, str) else _hostile_ints).map(cls))
_raising_objects = st.sampled_from([_raising(object, m) for m in _HOSTILE_METHODS]).map(
    lambda cls: cls()
)
# A third each: values of another type, subclasses of ``str`` and ``int``, and objects
# whose own methods raise.
hostile_values = st.sampled_from([_other_types, _subclass_values, _raising_objects]).flatmap(
    lambda values: values
)
