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
):
    entity_count = draw(st.integers(min_entities, max_entities))
    ids = [f"n{i}" for i in range(entity_count)]
    entities = []
    for entity_id in ids:
        attrs = draw(st.one_of(st.just(AttributeVector()), attributes))
        entities.append(
            Entity(id=entity_id, kind=draw(st.sampled_from(EntityKind)), attributes=attrs)
        )

    connection_count = draw(
        st.integers(1 if require_connection else 0, max_connections)
    )
    connections = []
    for i in range(connection_count):
        src = draw(st.sampled_from(ids))
        if entity_count == 1 or draw(st.booleans()):
            others = [x for x in ids if x != src] or [src]
            dst = draw(st.sampled_from(others))
        else:
            dst = src
        if src == dst:
            kind = ConnectionKind.SELF
        else:
            kind = draw(st.sampled_from((ConnectionKind.REAL, ConnectionKind.SILENT)))
        connections.append(
            Connection(
                id=f"c{i}",
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
            pair = draw(st.permutations(ids))[:2]
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
        host=draw(st.sampled_from(ids)),
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
