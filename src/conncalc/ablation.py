"""Ablation experiments: ranked removal and replacement of connections.

Importance of a connection is the absolute value it would contribute if it
were unblocked. Removal experiments block connections one at a time in
importance order and record the quality after each step, always measured
against the intact scenario's ideal connectivity so that steps are
comparable. Replacement experiments block one connection, add a substitute,
and report quality before, during, and after, again over the intact ideal.
Ranking and scoring read ``Scenario.valuation``.
"""

from __future__ import annotations

__all__ = [
    "QualityTrajectory", "RemovalOrder", "ReplacementReport", "TrajectoryStep",
    "importance", "run_removal", "run_replacement",
]

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import count

from .errors import ComputationError, IntegrityError
from .metrics import connectivity_score, ideal_connectivity, quality
from .model import Connection, Scenario, _builder, connection_value, ensure_valid


class RemovalOrder(str, Enum):
    LEAST_FIRST = "least-first"
    MOST_FIRST = "most-first"


@dataclass(frozen=True, slots=True)
class TrajectoryStep:
    """State after blocking one more connection."""

    step: int
    blocked_connection: str
    score: Fraction
    efficiency_percent: Fraction


_new_step = _builder(TrajectoryStep)


@dataclass(frozen=True, slots=True)
class QualityTrajectory:
    """Removal experiment record; every step shares the same denominator."""

    order: RemovalOrder
    ideal: Fraction
    steps: tuple[TrajectoryStep, ...]


@dataclass(frozen=True, slots=True)
class ReplacementReport:
    """Quality before the block, while blocked, and with the substitute.

    All three percentages divide by the intact scenario's ideal, so a
    substitute of equal strength restores quality_before exactly.
    """

    blocked_id: str
    replacement_id: str
    ideal: Fraction
    quality_before: Fraction
    quality_blocked: Fraction
    quality_after: Fraction


def importance(conn: Connection, scenario: Scenario) -> Fraction:
    """Magnitude of the connection's contribution, ignoring any block."""
    return abs(connection_value(conn, scenario, ignore_blocked=True))


def run_removal(scenario: Scenario, order: RemovalOrder) -> QualityTrajectory:
    """Block every connection in importance order, recording quality after each.

    least-first blocks by rising importance, most-first by falling; ties go by
    id, ascending. Every step's efficiency divides by the intact scenario's
    ideal connectivity, so the trajectory reflects only the removals. A value
    with no exact text form raises :class:`ComputationError` at once, before
    any step is built.
    """
    order = RemovalOrder(order)
    ensure_valid(scenario)
    schedule = scenario.valuation.ranked(order is RemovalOrder.MOST_FIRST)
    ideal = ideal_connectivity(scenario)
    if ideal == 0:
        raise ComputationError("ideal connectivity is zero; quality trajectory is undefined")
    scores, efficiencies = scenario.valuation.removal(schedule)
    steps = tuple(map(_new_step, count(1), schedule, scores, efficiencies))
    return QualityTrajectory(order=order, ideal=ideal, steps=steps)


def run_replacement(
    scenario: Scenario,
    blocked_id: str,
    replacement: Connection,
) -> ReplacementReport:
    """Block one connection, add a substitute, report the quality arc.

    The denominator stays the intact scenario's ideal connectivity for all
    three measurements: quality compares actual help against the original
    expectation, and the substitute is judged by how much of the lost help
    it restores, not by how it changes the expectation.
    """
    before = connectivity_score(scenario)
    blocked = before - connection_value(scenario.connection(blocked_id), scenario)
    if scenario.has_connection(replacement.id):
        raise IntegrityError(f"connection id already in use: {replacement.id!r}")
    ideal = ideal_connectivity(scenario)
    if ideal == 0:
        raise ComputationError("ideal connectivity is zero; replacement quality is undefined")
    # Scoring validated the intact scenario, so the replacement beside its entities breaks
    # what the patched scenario would, and the intact scenario's index values it.
    ensure_valid(Scenario(scenario.entities, (replacement,), scenario.host))
    after = blocked + connection_value(replacement, scenario)

    return ReplacementReport(
        blocked_id=blocked_id,
        replacement_id=replacement.id,
        ideal=ideal,
        quality_before=quality(before, ideal),
        quality_blocked=quality(blocked, ideal),
        quality_after=quality(after, ideal),
    )
