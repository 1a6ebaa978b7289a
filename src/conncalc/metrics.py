"""Aggregate scoring and quality metrics over scenarios.

The central quantity is the connectivity score: the signed sum of every
connection's value in the host's scope. Dividing the actual score by a
desired (or ideal) score and scaling by 100 yields a quality percentage,
which is banded: below 50% failing, 50-75% satisfactory, above 75% high.
All arithmetic is exact rational arithmetic; nothing is rounded.
Metrics read the scenario's index (:mod:`conncalc.model`): score and ideal
are read from its valuation, and hops are pair lookups.
"""

from __future__ import annotations

__all__ = [
    "Band", "ConfusionCause", "ConfusionReport", "ConnectivityReport", "classify_quality",
    "connectivity_score", "detect_confusion", "distance_sum", "efficiency", "ideal_connectivity",
    "path_viability", "quality", "resolve_self_conflict",
]

from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction

from .errors import ComputationError, ConfigurationError, StateError
from .model import (
    ConnectionKind,
    EntityKind,
    Scenario,
    ScoringMode,
    connection_value,
    ensure_valid,
    to_rational,
)


class Band(str, Enum):
    FAILING = "failing"
    SATISFACTORY = "satisfactory"
    HIGH = "high"


class ConfusionCause(str, Enum):
    MISSING_ENTITY_INFO = "missing_entity_info"
    MISSING_PATH_INFO = "missing_path_info"
    SELF_CONFLICT = "self_conflict"


@dataclass(frozen=True, slots=True)
class ConnectivityReport:
    """Score, ideal, their ratio as a percentage, and the quality band."""

    score: Fraction
    ideal: Fraction
    efficiency_percent: Fraction
    band: Band
    mode: ScoringMode


@dataclass(frozen=True, slots=True)
class QualityReport:
    """Score against the desired connectivity, as a percentage and a band."""

    score: Fraction
    desired: Fraction
    quality_percent: Fraction
    band: Band


@dataclass(frozen=True, slots=True)
class ConfusionReport:
    """Confusion assessment: the score z, quality vs. desired, and causes.

    ``confused`` is false exactly when z > 0 and quality > 50%.
    """

    z: Fraction
    quality_percent: Fraction
    confused: bool
    causes: tuple[ConfusionCause, ...]


def connectivity_score(scenario: Scenario) -> Fraction:
    """Signed sum of all connection values; blocked connections contribute 0."""
    ensure_valid(scenario)
    return scenario.valuation.score


def ideal_connectivity(scenario: Scenario) -> Fraction:
    """Score the scenario would reach if every roster connection helped fully.

    Sums the absolute connection value over the ideal roster, treating
    blocked connections as unblocked. Without an explicit roster, the
    scenario's own connection multiset is the roster. Validity is the
    caller's precondition; a roster entry naming a missing connection or
    entity surfaces as an integrity error.
    """
    return scenario.valuation.ideal


def quality(actual, desired) -> Fraction:
    """100 x actual / desired, exact; the sign is preserved."""
    actual = to_rational(actual)
    desired = to_rational(desired)
    if desired == 0:
        raise ComputationError("desired connectivity is zero; the quality ratio is undefined")
    return 100 * actual / desired


def classify_quality(percent) -> Band:
    """Band a quality percentage; both band boundaries count as satisfactory."""
    percent = to_rational(percent)
    if percent < 50:
        return Band.FAILING
    if percent <= 75:
        return Band.SATISFACTORY
    return Band.HIGH


def quality_report(score: Fraction, desired: Fraction) -> QualityReport:
    """Quality of score against the desired connectivity, with its band."""
    percent = quality(score, desired)
    return QualityReport(score, desired, percent, classify_quality(percent))


def efficiency(scenario: Scenario) -> ConnectivityReport:
    """Full report: score, ideal, efficiency percentage, and band."""
    score = connectivity_score(scenario)
    ideal = ideal_connectivity(scenario)
    if ideal == 0:
        raise ComputationError("ideal connectivity is zero; efficiency is undefined")
    percent = quality(score, ideal)
    return ConnectivityReport(
        score=score,
        ideal=ideal,
        efficiency_percent=percent,
        band=classify_quality(percent),
        mode=scenario.scoring_mode,
    )


def _real_component_index(scenario: Scenario) -> dict[str, str]:
    """Each entity id's component label over unblocked real connections."""
    links = scenario.real_links
    component: dict[str, str] = {}
    for e in scenario.entities:
        if e.id not in component:
            component[e.id] = e.id
            stack = [e.id]
            while stack:
                for nxt in links.get(stack.pop(), ()):
                    if nxt not in component:
                        component[nxt] = e.id
                        stack.append(nxt)
    return component


def detect_confusion(scenario: Scenario) -> ConfusionReport:
    """Assess whether the host's scope is in a state of confusion.

    z is the connectivity score and quality is measured against the
    scenario's configured desired connectivity. Causes collected:

    * ``missing_entity_info``: some connection touches a hidden or unknown
      entity.
    * ``missing_path_info``: some non-self connection joins entities with no
      unblocked real path between them.
    * ``self_conflict``: a self-connection's magnitude differs from the
      magnitude of some non-self connection.
    """
    # connectivity_score validates first, so an invalid scenario is reported
    # as invalid even when it also lacks desired_connectivity.
    z = connectivity_score(scenario)
    if scenario.desired_connectivity is None:
        raise ConfigurationError(
            "desired_connectivity is not set; confusion detection needs a quality denominator"
        )
    quality_percent = quality(z, scenario.desired_connectivity)

    causes: list[ConfusionCause] = []
    known, self_kind = EntityKind.KNOWN, ConnectionKind.SELF  # read once each
    unclear = {e.id for e in scenario.entities if e.kind is not known}
    if any(c.src in unclear or c.dst in unclear for c in scenario.connections):
        causes.append(ConfusionCause.MISSING_ENTITY_INFO)

    component = _real_component_index(scenario)
    if any(
        c.kind is not self_kind and component[c.src] != component[c.dst]
        for c in scenario.connections
    ):
        causes.append(ConfusionCause.MISSING_PATH_INFO)

    # Both kinds present and some magnitude unequal; ``is`` spares comparing shared objects.
    connections = scenario.connections
    first = connections[0].magnitude if connections else None
    if (
        any(c.kind is self_kind for c in connections)
        and any(c.kind is not self_kind for c in connections)
        and any(c.magnitude is not first and c.magnitude != first for c in connections)
    ):
        causes.append(ConfusionCause.SELF_CONFLICT)

    confused = not (z > 0 and quality_percent > 50)
    return ConfusionReport(
        z=z, quality_percent=quality_percent, confused=confused, causes=tuple(causes)
    )


def resolve_self_conflict(scenario: Scenario) -> Scenario:
    """Set the polarity of conflicted host self-connections to -1.

    A host self-connection conflicts when its magnitude differs from the
    mean magnitude of the scenario's non-self connections. Self-connections
    that do not conflict keep their authored polarity, so an explicitly
    negative self-connection stays negative. With no non-self connections
    there is no comparator and the scenario is returned unchanged.
    """
    host_selfs = [
        c
        for c in scenario.connections
        if c.kind is ConnectionKind.SELF and c.src == scenario.host
    ]
    if not host_selfs:
        raise StateError(
            "host has no self-connection; apply silent_closure to materialize one"
        )
    non_self = [c for c in scenario.connections if c.kind is not ConnectionKind.SELF]
    if not non_self:
        return scenario
    mean_magnitude = sum((c.magnitude for c in non_self), Fraction(0)) / len(non_self)
    adjusted = tuple(
        replace(c, polarity=-1)
        if c.kind is ConnectionKind.SELF and c.src == scenario.host and c.magnitude != mean_magnitude
        else c
        for c in scenario.connections
    )
    return replace(scenario, connections=adjusted)


def _check_path_args(scenario: Scenario, path) -> list[str]:
    path = list(path)
    if len(path) < 2:
        raise ValueError("path must contain at least two entities")
    for entity_id in path:
        scenario.entity(entity_id)
    return path


def distance_sum(scenario: Scenario, path) -> Fraction | None:
    """Hop-wise sum of the strongest connection value along an entity path.

    Each consecutive pair contributes the maximum connection value among the
    unblocked connections joining it in either direction (ties broken by
    connection id). A pair with no unblocked connection makes the whole path
    non-viable, reported as None. A numeric result that is not > 0 also
    marks the interaction non-viable, but is reported as computed.
    """
    path = _check_path_args(scenario, path)
    total = Fraction(0)
    for a, b in zip(path, path[1:]):
        best = scenario.links.get(a, {}).get(b)
        if best is None:
            return None
        total += connection_value(best, scenario)
    return total


def path_viability(scenario: Scenario, path) -> Fraction:
    """Impact-factor product along a path; 0 when an obstacle severs it.

    Multiplies the impact factor of every entity after the first. Any hop
    whose pair has only blocked or absent connections annihilates the result
    to 0. Because every impact factor is strictly below 1, the product is
    always in [0, 1) and strictly decreases as the path grows.
    """
    path = _check_path_args(scenario, path)
    product = Fraction(1)
    for a, b in zip(path, path[1:]):
        if b not in scenario.links.get(a, {}):
            return Fraction(0)
        product *= scenario.impact_factors[b]
    return product
