"""Ablation experiments: ranked removal and replacement of connections.

Importance of a connection is the absolute value it would contribute if it
were unblocked. Removal experiments block connections one at a time in
importance order and record the quality after each step, always measured
against the intact scenario's ideal connectivity so that steps are
comparable. Replacement experiments block one connection, add a substitute,
and report quality before, during, and after, again over the intact ideal.

One valuation pass per experiment: a block lowers the score by exactly the
blocked connection's value, so the cost is linear in the connections plus
the schedule sort. Ranking and scoring read ``Scenario.valuation``.
"""

from __future__ import annotations

__all__ = [
    "QualityTrajectory", "RemovalOrder", "ReplacementReport", "TrajectoryStep",
    "importance", "removal_schedule", "run_removal", "run_replacement",
]

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .errors import ComputationError
from .metrics import connectivity_score, ideal_connectivity, quality
from .model import Connection, Scenario, connection_value, ensure_valid, with_connection


class RemovalOrder(str, Enum):
    LEAST_FIRST = "least-first"
    MOST_FIRST = "most-first"

    @classmethod
    def _missing_(cls, value):
        # Accept the underscore spelling used in code alongside the
        # hyphenated one used on the command line.
        if isinstance(value, str):
            return cls.__members__.get(value.upper().replace("-", "_"))
        return None


@dataclass(frozen=True, slots=True)
class TrajectoryStep:
    """State after blocking one more connection."""

    step: int
    blocked_connection: str
    score: Fraction
    efficiency_percent: Fraction


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


def removal_schedule(scenario: Scenario, order: RemovalOrder) -> list[str]:
    """Connection ids in removal order; ties broken by id, ascending.

    least-first sorts by rising importance, most-first by falling. A
    scenario without connections yields an empty schedule.
    """
    ensure_valid(scenario)
    order = RemovalOrder(order)
    # Integer values over one positive denominator rank as the values do.
    ranked = [(abs(value), conn_id) for conn_id, value in scenario.valuation.values.items()]
    if order is RemovalOrder.LEAST_FIRST:
        ranked.sort(key=lambda pair: (pair[0], pair[1]))
    else:
        ranked.sort(key=lambda pair: (-pair[0], pair[1]))
    return [connection_id for _, connection_id in ranked]


def run_removal(
    scenario: Scenario,
    order: RemovalOrder,
    max_steps: int | None = None,
) -> QualityTrajectory:
    """Block connections in schedule order, recording quality after each.

    Every step's efficiency divides by the intact scenario's ideal
    connectivity, so the trajectory reflects only the removals. max_steps
    truncates the schedule; None runs it to the end.
    """
    order = RemovalOrder(order)
    schedule = removal_schedule(scenario, order)
    ideal = ideal_connectivity(scenario)
    if ideal == 0:
        raise ComputationError("ideal connectivity is zero; quality trajectory is undefined")
    if max_steps is not None:
        if not isinstance(max_steps, int) or isinstance(max_steps, bool) or max_steps < 0:
            raise ValueError(f"max_steps must be a non-negative integer, got {max_steps!r}")
        schedule = schedule[:max_steps]

    valuation = scenario.valuation
    values = {c.id: 0 if c.blocked else valuation.values[c.id] for c in scenario.connections}
    total = sum(values.values())
    steps: list[TrajectoryStep] = []
    for number, connection_id in enumerate(schedule, start=1):
        total -= values[connection_id]
        values[connection_id] = 0
        score = Fraction(total, valuation.denominator)
        steps.append(
            TrajectoryStep(
                step=number,
                blocked_connection=connection_id,
                score=score,
                efficiency_percent=quality(score, ideal),
            )
        )
    return QualityTrajectory(order=order, ideal=ideal, steps=tuple(steps))


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
    patched = with_connection(scenario, replacement)
    ideal = ideal_connectivity(scenario)
    if ideal == 0:
        raise ComputationError("ideal connectivity is zero; replacement quality is undefined")
    ensure_valid(patched)
    # Same entities and mode as ``patched``: the intact scenario's index values it.
    after = blocked + connection_value(replacement, scenario)

    return ReplacementReport(
        blocked_id=blocked_id,
        replacement_id=replacement.id,
        ideal=ideal,
        quality_before=quality(before, ideal),
        quality_blocked=quality(blocked, ideal),
        quality_after=quality(after, ideal),
    )
