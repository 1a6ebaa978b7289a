"""Removal schedules, quality trajectories, and replacement runs."""

from __future__ import annotations

from dataclasses import FrozenInstanceError, replace
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import conncalc.ablation
import conncalc.metrics
import conncalc.model
from conncalc import (
    AttributeVector,
    ScoringMode,
    ComputationError,
    Connection,
    ConnectionKind,
    Entity,
    EntityKind,
    IntegrityError,
    RemovalOrder,
    Scenario,
    TrajectoryStep,
    ValidationError,
    block,
    connectivity_score,
    efficiency,
    ideal_connectivity,
    importance,
    quality,
    run_removal,
    run_replacement,
    serialize_scenario,
)
from conncalc.cli import main

from . import support
from .test_model import conn, scenario_of


def entity_with(id: str, *attrs) -> Entity:
    names = ("existence", "inner_state", "external_state", "communication_state")
    return Entity(
        id=id,
        kind=EntityKind.KNOWN,
        attributes=AttributeVector(**dict(zip(names, map(Fraction, attrs)))),
    )


class TestRemovalOrder:
    def test_both_spellings_resolve(self):
        assert RemovalOrder("least-first") is RemovalOrder.LEAST_FIRST
        assert RemovalOrder("most-first") is RemovalOrder.MOST_FIRST

    def test_unknown_spelling_raises(self):
        for spelling in ("backwards", "most_first", 3):
            with pytest.raises(ValueError):
                RemovalOrder(spelling)


class TestImportance:
    def test_follows_the_scoring_mode(self):
        raw = Scenario(
            entities=(
                entity_with("a", "0.9", "0.9", "0.9", "0.9"),
                entity_with("b", "0.5", "0.5", "0.5", "0.5"),
            ),
            connections=(conn("ab", "a", "b", magnitude=10),),
            host="a",
        )
        assert importance(raw.connection("ab"), raw) == Fraction(10)
        weighted = Scenario(
            entities=raw.entities,
            connections=raw.connections,
            host="a",
            scoring_mode=ScoringMode.IMPACT_WEIGHTED,
        )
        # 10 * (0.9 + 0.5) / 2
        assert importance(weighted.connection("ab"), weighted) == Fraction(7)

    def test_polarity_and_blocking_are_ignored(self):
        s = scenario_of(
            conn("neg", "a", "b", polarity=-1, magnitude=4, blocked=True),
            conn("pos", "a", "b", polarity=1, magnitude=4),
        )
        assert importance(s.connection("neg"), s) == importance(s.connection("pos"), s)

    def test_office_examples(self, office):
        assert importance(office.connection("ea-eb"), office) == Fraction(7)
        assert importance(office.connection("eb-eb"), office) == Fraction(7)
        # Eu and Eb carry default attributes, so every office edge weighs 7; the
        # silent eu-eb link is no exception.
        assert importance(office.connection("eu-eb"), office) == Fraction(7)

    def test_closure_edges_have_unit_importance_in_raw_mode(self, office):
        from conncalc import silent_closure

        closed = silent_closure(office)
        pair = closed.connection("sc:Ea:Eh:0")
        assert importance(pair, closed) == Fraction(1)

    def test_default_attributes_give_a_quarter_discount_when_weighted(self):
        base = scenario_of(conn("ab", "a", "b", magnitude=4))
        s = Scenario(
            entities=base.entities,
            connections=base.connections,
            host=base.host,
            scoring_mode=ScoringMode.IMPACT_WEIGHTED,
        )
        # both endpoints at the 3/4 default: 4 * 3/4
        assert importance(s.connection("ab"), s) == Fraction(3)


class TestRemovalSchedule:
    def three_rung_scenario(self) -> Scenario:
        return Scenario(
            entities=(
                entity_with("a", "0.5", "0.5", "0.5", "0.5"),
                entity_with("b", "0.5", "0.5", "0.5", "0.5"),
            ),
            connections=(
                conn("mid", "a", "b", magnitude=6),
                conn("low", "a", "b", magnitude=2),
                conn("high", "a", "b", magnitude=10),
            ),
            host="a",
        )

    def test_least_first_ascends_importance(self):
        s = self.three_rung_scenario()
        assert s.valuation.ranked(most_first=False) == ["low", "mid", "high"]

    def test_most_first_descends_importance(self):
        s = self.three_rung_scenario()
        assert s.valuation.ranked(most_first=True) == ["high", "mid", "low"]

    def test_ties_fall_back_to_id_order(self):
        s = scenario_of(
            conn("zz", "a", "b", magnitude=5),
            conn("aa", "a", "b", magnitude=5),
        )
        assert s.valuation.ranked(most_first=False) == ["aa", "zz"]
        assert s.valuation.ranked(most_first=True) == ["aa", "zz"]

    def test_no_connections_empty_schedule(self):
        s = Scenario(
            entities=(entity_with("a", "0.5", "0.5", "0.5", "0.5"),),
            connections=(),
            host="a",
        )
        assert s.valuation.ranked(most_first=False) == []

    def test_already_blocked_connections_still_appear(self, office):
        schedule = office.valuation.ranked(most_first=False)
        assert sorted(schedule) == sorted(c.id for c in office.connections)


class TestRunRemoval:
    def test_each_step_drops_the_score_by_the_blocked_value(self, rng=None):
        rng = support.random.Random(7)
        s = support.random_scenario(rng, min_connections=2, all_positive=True, with_roster=False)
        trajectory = run_removal(s, RemovalOrder.LEAST_FIRST)
        working = s
        for step in trajectory.steps:
            value = working.connection(step.blocked_connection)
            expected = connectivity_score(working) - value.polarity * value.magnitude
            working = block(working, step.blocked_connection)
            assert connectivity_score(working) == expected
            assert step.score == expected

    def test_all_positive_efficiency_never_increases_and_ends_at_zero(self):
        rng = support.random.Random(11)
        s = support.random_scenario(rng, min_connections=2, all_positive=True, with_roster=False)
        trajectory = run_removal(s, RemovalOrder.LEAST_FIRST)
        percents = [efficiency(s).efficiency_percent] + [
            step.efficiency_percent for step in trajectory.steps
        ]
        assert all(a >= b for a, b in zip(percents, percents[1:]))
        assert trajectory.steps[-1].score == 0
        assert trajectory.steps[-1].efficiency_percent == 0

    def test_most_first_is_never_ahead_of_least_first(self):
        rng = support.random.Random(23)
        s = support.random_scenario(rng, min_connections=2, all_positive=True, with_roster=False)
        least = run_removal(s, RemovalOrder.LEAST_FIRST)
        most = run_removal(s, RemovalOrder.MOST_FIRST)
        for a, b in zip(least.steps, most.steps):
            assert b.efficiency_percent <= a.efficiency_percent

    def test_office_without_its_negative_connections(self, office):
        working = office
        for cid in ("eb-eb", "ec-ea", "ec-eb"):
            working = block(working, cid)
        assert connectivity_score(working) == Fraction(28)

    def test_denominator_is_frozen_at_the_intact_ideal(self, office):
        trajectory = run_removal(office, RemovalOrder.MOST_FIRST)
        assert trajectory.ideal == ideal_connectivity(office)
        for step in trajectory.steps:
            assert step.efficiency_percent == 100 * step.score / trajectory.ideal

    def test_zero_ideal_cannot_be_normalized(self):
        s = Scenario(
            entities=(entity_with("a", "0.5", "0.5", "0.5", "0.5"),),
            connections=(),
            host="a",
        )
        with pytest.raises(ComputationError):
            run_removal(s, RemovalOrder.LEAST_FIRST)

    @given(support.scenarios(require_connection=True, all_positive=True, with_roster=False))
    def test_trajectory_shape(self, s):
        trajectory = run_removal(s, RemovalOrder.LEAST_FIRST)
        assert len(trajectory.steps) == len(s.connections)
        assert [t.step for t in trajectory.steps] == list(
            range(1, len(s.connections) + 1)
        )
        blocked = [t.blocked_connection for t in trajectory.steps]
        assert sorted(blocked) == sorted(c.id for c in s.connections)


class TestRunReplacement:
    def equal_swap(self, office, magnitude):
        replacement = Connection(
            id="fresh",
            src="Ea",
            dst="Eb",
            kind=ConnectionKind.REAL,
            polarity=1,
            magnitude=Fraction(magnitude),
        )
        return run_replacement(office, "ea-eb", replacement)

    def test_equal_value_restores_quality_exactly(self, office):
        report = self.equal_swap(office, 7)
        assert report.quality_after == report.quality_before
        assert report.quality_blocked < report.quality_before

    def test_greater_value_strictly_exceeds(self, office):
        report = self.equal_swap(office, 9)
        assert report.quality_after > report.quality_before

    def test_lesser_value_strictly_undershoots(self, office):
        report = self.equal_swap(office, 5)
        assert report.quality_after < report.quality_before

    def test_reported_fields(self, office):
        report = self.equal_swap(office, 7)
        assert report.blocked_id == "ea-eb"
        assert report.replacement_id == "fresh"
        assert report.ideal == ideal_connectivity(office)
        assert report.quality_before == quality(
            connectivity_score(office), report.ideal
        )

    def test_unknown_blocked_id(self, office):
        replacement = Connection(
            id="fresh", src="Ea", dst="Eb", kind=ConnectionKind.REAL,
            polarity=1, magnitude=Fraction(7),
        )
        with pytest.raises(IntegrityError):
            run_replacement(office, "nope", replacement)

    def test_replacement_id_must_be_fresh(self, office):
        replacement = Connection(
            id="eb-eb", src="Ea", dst="Eb", kind=ConnectionKind.REAL,
            polarity=1, magnitude=Fraction(7),
        )
        with pytest.raises(IntegrityError):
            run_replacement(office, "ea-eb", replacement)

    def test_replacement_endpoints_must_exist(self, office):
        replacement = Connection(
            id="fresh", src="Ea", dst="ghost", kind=ConnectionKind.REAL,
            polarity=1, magnitude=Fraction(7),
        )
        with pytest.raises(ValidationError, match=r"fresh\.dst: endpoint 'ghost' is not an entity"):
            run_replacement(office, "ea-eb", replacement)

    def test_out_of_range_substitute_is_a_validation_error(self, office):
        with pytest.raises(ValidationError, match="magnitude 11 outside"):
            self.equal_swap(office, 11)

    def test_zero_ideal_cannot_be_normalized(self):
        base = scenario_of(conn("ab", "a", "b", magnitude=4))
        empty_roster = Scenario(
            entities=base.entities,
            connections=base.connections,
            host=base.host,
            ideal_roster=(),
        )
        assert ideal_connectivity(empty_roster) == 0
        replacement = Connection(
            id="fresh", src="a", dst="b", kind=ConnectionKind.REAL,
            polarity=1, magnitude=Fraction(2),
        )
        with pytest.raises(ComputationError):
            run_replacement(empty_roster, "ab", replacement)


def dangling_scenario() -> Scenario:
    """Connection a -> ghost, where ghost names no entity."""
    half = ("0.5", "0.5", "0.5", "0.5")
    return scenario_of(
        conn("ab", "a", "b", magnitude=4),
        conn("ag", "a", "ghost", magnitude=3),
        entities=(entity_with("a", *half), entity_with("b", *half)),
    )


class TestValidateFirst:
    def test_removal_reports_a_dangling_endpoint_as_invalid(self):
        with pytest.raises(ValidationError, match="endpoint 'ghost' is not an entity"):
            run_removal(dangling_scenario(), RemovalOrder.LEAST_FIRST)

    def test_replacement_reports_a_dangling_endpoint_as_invalid(self):
        with pytest.raises(ValidationError, match="endpoint 'ghost' is not an entity"):
            run_replacement(dangling_scenario(), "ab", conn("fresh", "a", "b", magnitude=4))


max_steps_draws = st.one_of(st.none(), st.integers(0, 10))


@st.composite
def replacement_draws(draw, scenario: Scenario) -> Connection:
    """A valid substitute with a fresh id between two of the scenario's entities."""
    ids = [e.id for e in scenario.entities]
    src = draw(st.sampled_from(ids))
    dst = draw(st.sampled_from(ids))
    if src == dst:
        kind = ConnectionKind.SELF
    else:
        kind = draw(st.sampled_from((ConnectionKind.REAL, ConnectionKind.SILENT)))
    return Connection(
        id="fresh",
        src=src,
        dst=dst,
        kind=kind,
        polarity=draw(support.polarities),
        magnitude=draw(support.magnitudes),
        blocked=draw(st.booleans()),
    )


class TestAgainstTheOracle:
    """Every field of every result equals a from-scratch re-derivation."""

    @given(support.scenarios(), st.sampled_from(RemovalOrder), max_steps_draws)
    def test_removal(self, s, order, max_steps):
        if support.oracle_ideal(s) == 0:
            with pytest.raises(ComputationError):
                run_removal(s, order)
            return
        expected = support.oracle_removal(s, order, max_steps)
        trajectory = run_removal(s, order)
        assert trajectory.order == expected.order
        assert trajectory.ideal == expected.ideal
        assert trajectory.steps[:max_steps] == expected.steps

    @given(support.scenarios(require_connection=True), st.data())
    def test_replacement(self, s, data):
        blocked_id = data.draw(st.sampled_from([c.id for c in s.connections]))
        replacement = data.draw(replacement_draws(s))
        if support.oracle_ideal(s) == 0:
            with pytest.raises(ComputationError):
                run_replacement(s, blocked_id, replacement)
            return
        report = run_replacement(s, blocked_id, replacement)
        assert report == support.oracle_replacement(s, blocked_id, replacement)


# A scenario whose score is negative from the start and at every step of a
# least-first removal cut off after two steps.
NEGATIVE_TOTAL = scenario_of(
    conn("big", "a", "b", polarity=-1, magnitude=7),
    conn("x", "a", "c", magnitude=Fraction(10, 3)),
    conn("y", "a", "d", magnitude=1),
)


class TestIntegerEfficiency:
    """Removal computes each step's efficiency in integers, never through
    ``metrics.quality``, and gets the value that ``quality`` gives."""

    @given(
        st.one_of(support.scenarios(), support.coprime_scenarios()),
        st.sampled_from(RemovalOrder),
        max_steps_draws,
    )
    @example(NEGATIVE_TOTAL, RemovalOrder.LEAST_FIRST, 2)
    @example(NEGATIVE_TOTAL, RemovalOrder.MOST_FIRST, None)
    def test_equals_quality_of_the_step_score(self, s, order, max_steps):
        if ideal_connectivity(s) == 0:
            return
        calls = []

        def counted(actual, desired):
            calls.append((actual, desired))
            return quality(actual, desired)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(conncalc.metrics, "quality", counted)
            patch.setattr(conncalc.ablation, "quality", counted)
            trajectory = run_removal(s, order)
        assert calls == []
        for step in trajectory.steps[:max_steps]:
            assert step.efficiency_percent == quality(step.score, trajectory.ideal)

    def test_the_negative_example_goes_below_zero_and_is_cut_off(self):
        steps = run_removal(NEGATIVE_TOTAL, RemovalOrder.LEAST_FIRST).steps[:2]
        assert [step.efficiency_percent < 0 for step in steps] == [True, True]


class TestValidationCount:
    """Each experiment validates a constant number of times, not once per step."""

    @pytest.fixture()
    def validate_calls(self, monkeypatch):
        calls = []
        original = conncalc.model.validate_scenario

        def counted(scenario):
            calls.append(scenario)
            return original(scenario)

        monkeypatch.setattr(conncalc.model, "validate_scenario", counted)
        return calls

    @pytest.fixture()
    def large(self):
        # A fresh scenario per test: a scenario keeps its validation result, so
        # a shared one would be validated by the first test only.
        s = support.random_scenario(
            support.random.Random(2024),
            max_entities=40,
            min_connections=2000,
            max_connections=2000,
        )
        assert len(s.connections) == 2000
        return s

    @pytest.mark.parametrize("order", list(RemovalOrder))
    def test_removal_validates_once(self, large, order, validate_calls):
        trajectory = run_removal(large, order)
        assert len(validate_calls) == 1
        assert len(trajectory.steps) == len(large.connections)

    def test_replacement_validates_at_most_twice(self, large, validate_calls):
        first = large.connections[0]
        replacement = Connection(
            id="fresh", src=first.src, dst=first.dst, kind=first.kind,
            polarity=1, magnitude=Fraction(5),
        )
        run_replacement(large, first.id, replacement)
        assert 1 <= len(validate_calls) <= 2


class TestImpactFactorCount:
    """Each entity is valued once per experiment, not once per scenario built."""

    def test_replacement_computes_each_impact_factor_at_most_once(self, office, monkeypatch):
        # A fresh scenario: a scenario keeps the impact factors it computed.
        s = replace(office, scoring_mode=ScoringMode.IMPACT_WEIGHTED)
        calls = []
        original = conncalc.model.impact_factor

        def counted(entity):
            calls.append(entity.id)
            return original(entity)

        monkeypatch.setattr(conncalc.model, "impact_factor", counted)
        replacement = Connection(
            id="fresh", src="Ea", dst="Eb", kind=ConnectionKind.REAL,
            polarity=1, magnitude=Fraction(7),
        )
        report = run_replacement(s, "ea-eb", replacement)
        assert report.quality_after == report.quality_before
        assert len(calls) <= len(s.entities)
        assert len(calls) == len(set(calls))


class TestStepInitCount:
    """Removal builds its steps through the typed builder, never through the
    frozen ``TrajectoryStep.__init__``."""

    def test_removal_calls_it_never(self, monkeypatch):
        s = support.random_scenario(
            support.random.Random(2024),
            max_entities=40,
            min_connections=400,
            max_connections=400,
            with_roster=False,
        )
        built = run_removal(s, RemovalOrder.MOST_FIRST)
        calls = []
        original = TrajectoryStep.__init__

        def counted(self, *args, **kwargs):
            calls.append(args or kwargs)
            original(self, *args, **kwargs)

        monkeypatch.setattr(TrajectoryStep, "__init__", counted)
        trajectory = run_removal(s, RemovalOrder.MOST_FIRST)
        assert len(trajectory.steps) == 400 and calls == []
        assert trajectory == built
        step = trajectory.steps[0]
        made = TrajectoryStep.__new__(TrajectoryStep)
        original(made, step.step, step.blocked_connection, step.score, step.efficiency_percent)
        assert type(step) is TrajectoryStep and step == made and hash(step) == hash(made)
        with pytest.raises(FrozenInstanceError):
            step.score = Fraction(0)


def _primes_from(low: int, count: int) -> list[int]:
    """The first ``count`` primes at or above ``low``."""
    primes, n = [], low
    while len(primes) < count:
        if all(n % d for d in range(2, int(n**0.5) + 1)):
            primes.append(n)
        n += 1
    return primes


class TestFailFast:
    """Removal raises at the first value it could not print, before building
    its step, and checks each step only when a value could be past the limit."""

    # Each magnitude prints, but c1 + c2 has a denominator of 3**8000 * 2**4000,
    # 5,021 digits; the ideal, over c3 alone, is 1.
    MAGNITUDES = (1 + Fraction(1, 3**8000), 1 + Fraction(1, 2**4000), Fraction(1))

    def _scenario(self) -> Scenario:
        connections = [
            conn(f"c{i}", "a", "b", magnitude=m) for i, m in enumerate(self.MAGNITUDES, start=1)
        ]
        return scenario_of(*connections, ideal_roster=(conncalc.model.RosterRef("c3"),))

    @pytest.fixture()
    def built(self, monkeypatch) -> list:
        """The steps ``run_removal`` builds."""
        calls = []
        original = conncalc.ablation._new_step

        def counted(*values):
            calls.append(values)
            return original(*values)

        monkeypatch.setattr(conncalc.ablation, "_new_step", counted)
        return calls

    def test_a_step_that_cannot_print_raises_before_it_is_built(self, built):
        # Least-first blocks c3 first, leaving c1 + c2.
        with pytest.raises(ComputationError, match="too long to print exactly"):
            run_removal(self._scenario(), RemovalOrder.LEAST_FIRST)
        assert built == []

    def test_no_value_after_one_that_cannot_print_is_computed(self, built, monkeypatch):
        # Twenty more steps follow the first; each would leave c1 + c2 unprintable.
        extra = [conn(f"d{i:02}", "a", "b", magnitude=Fraction(1)) for i in range(20)]
        s = replace(self._scenario(), connections=self._scenario().connections + tuple(extra))
        ideal_connectivity(s)  # validation and the ideal are cached before counting
        made = [0]
        original = conncalc.model._coprime_fraction

        def counted(*args):
            made[0] += 1
            return original(*args)

        monkeypatch.setattr(conncalc.model, "_coprime_fraction", counted)
        with pytest.raises(ComputationError, match="too long to print exactly"):
            run_removal(s, RemovalOrder.LEAST_FIRST)
        assert made == [2] and built == []  # the first step's score and efficiency

    def test_steps_that_print_are_checked_and_kept(self, built):
        trajectory = run_removal(self._scenario(), RemovalOrder.MOST_FIRST)
        assert [step.blocked_connection for step in trajectory.steps] == ["c2", "c1", "c3"]
        assert [step.score for step in trajectory.steps] == [self.MAGNITUDES[0] + 1, 1, 0]
        assert len(built) == 3
        for fmt in ("table", "machine"):
            assert conncalc.emit_report(trajectory, fmt)

    def test_ablate_on_coprime_denominators_exits_2_early(self, built, tmp_path, capsys):
        # 2,000 magnitudes over distinct primes: the valuation's denominator has
        # about 7,900 digits, so neither the ideal nor any score prints.
        rng = support.random.Random(11)
        ids = [f"e{i:02}" for i in range(40)]
        connections = [
            conn(f"c{i:04}", *rng.sample(ids, 2), magnitude=Fraction(q * rng.randint(1, 9) + 1, q))
            for i, q in enumerate(_primes_from(1009, 2000))
        ]
        path = tmp_path / "coprime.json"
        path.write_text(serialize_scenario(scenario_of(*connections, host="e00")), encoding="utf-8")
        assert main(["ablate", str(path), "--order", "least-first"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: number too long to print exactly")
        assert len(built) <= 1
