"""README's contract for a scenario built in code, under hostile values.

One field of a valid scenario, or of one of its records, takes a value from
``support.hostile_values``, or, for an entity's attributes and the ideal roster, a
record of a plain subclass (see :func:`hostile_values`). A record constructor then
either coerces the value or raises ``ValueError`` or ``TypeError`` (an
``AttributeVector`` also raises ``ValidationError`` for a value outside (0, 1));
``ensure_valid`` returns or raises ``ValidationError``; and a scenario that
validates can be scored in both modes, rendered, serialized and read back equal,
exported, closed and ablated, with no exception but ``ComputationError``.
"""

from __future__ import annotations

from contextlib import suppress
from dataclasses import fields, replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conncalc import (
    AttributeVector,
    ComputationError,
    Connection,
    Entity,
    RemovalOrder,
    RosterHypothetical,
    RosterRef,
    Scenario,
    ScoringMode,
    ValidationError,
    efficiency,
    emit_report,
    ensure_valid,
    export_dot,
    parse_scenario,
    run_removal,
    serialize_scenario,
    silent_closure,
    validate_scenario,
)

from . import support


# Each field a value can take, as (group, field): the scenario's own, and those of an
# entity, its attribute vector, a connection and each kind of roster entry.
FIELDS = [
    *(("scenario", f.name) for f in fields(Scenario)),
    *(("entities", f.name) for f in fields(Entity)),
    *(("attributes", f.name) for f in fields(AttributeVector)),
    *(("connections", f.name) for f in fields(Connection)),
    *(("ref", f.name) for f in fields(RosterRef)),
    *(("hypothetical", f.name) for f in fields(RosterHypothetical)),
]


# Plain subclasses of the record classes that an entity's attributes and a roster entry
# hold: each of their fields passes as its base's does, but the record is of another class.
PlainVector = type("PlainVector", (AttributeVector,), {})
PlainRef = type("PlainRef", (RosterRef,), {})
PlainHypothetical = type("PlainHypothetical", (RosterHypothetical,), {})


def hostile_values(scenario: Scenario, group: str, name: str):
    """``support.hostile_values`` for field ``name`` of ``group`` (see ``FIELDS``), with
    a ``PlainVector`` for an entity's attributes and a one-entry roster of a
    ``PlainRef`` or ``PlainHypothetical`` for the ideal roster, each valid but for
    its class."""
    if (group, name) == ("entities", "attributes"):
        return support.hostile_values | st.just(PlainVector())
    if (group, name) == ("scenario", "ideal_roster"):
        entries = [
            PlainRef(scenario.connections[0].id),
            PlainHypothetical(scenario.host, scenario.host, 2),
        ]
        return support.hostile_values | st.sampled_from(entries).map(lambda entry: (entry,))
    return support.hostile_values


def with_value(scenario: Scenario, group: str, index: int, name: str, value) -> Scenario:
    """``scenario`` with ``value`` in field ``name`` of ``group`` (see ``FIELDS``), of
    its ``index``-th entity or connection, or of a one-entry ideal roster, built by
    the public constructors."""
    if group == "scenario":
        return replace(scenario, **{name: value})
    if group in ("ref", "hypothetical"):
        entry = RosterRef(scenario.connections[0].id) if group == "ref" else (
            RosterHypothetical(scenario.host, scenario.host, 2)
        )
        return replace(scenario, ideal_roster=(replace(entry, **{name: value}),))
    records = list(getattr(scenario, "entities" if group == "attributes" else group))
    index %= len(records)
    if group == "attributes":
        entity = records[index]
        records[index] = replace(entity, attributes=replace(entity.attributes, **{name: value}))
        group = "entities"
    else:
        records[index] = replace(records[index], **{name: value})
    return replace(scenario, **{group: tuple(records)})


def use(scenario: Scenario) -> None:
    """Each use README promises of a scenario that validates; only
    ``ComputationError``, for a number too long to print or a zero ideal, may
    stop one."""
    for mode in ScoringMode:
        with suppress(ComputationError):
            report = efficiency(replace(scenario, scoring_mode=mode))
            for fmt in ("table", "machine"):
                emit_report(report, fmt)
    with suppress(ComputationError):
        assert parse_scenario(serialize_scenario(scenario)).scenario == scenario
    with suppress(ComputationError):
        export_dot(scenario)
    with suppress(ComputationError):
        # The closure keeps its validation result ``()``; the function checks it.
        assert validate_scenario(silent_closure(scenario)) == []
    for order in RemovalOrder:
        with suppress(ComputationError):
            emit_report(run_removal(scenario, order), "machine")


@pytest.mark.parametrize("group, name", FIELDS, ids=[f"{g}.{n}" for g, n in FIELDS])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(scenario=support.scenarios(require_connection=True), data=st.data())
def test_a_hostile_value_in_one_field_keeps_the_contract(group, name, scenario, data):
    index = data.draw(st.integers(0, 7), label="index")
    value = data.draw(hostile_values(scenario, group, name), label="value")
    refused = (ValueError, TypeError)
    if group == "attributes":
        refused += (ValidationError,)
    try:
        built = with_value(scenario, group, index, name, value)
    except refused:
        return
    try:
        ensure_valid(built)
    except ValidationError:
        return
    use(built)
