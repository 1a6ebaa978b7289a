"""Scoring, quality banding, confusion detection, and path measures."""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import conncalc.model
from conncalc import (
    Band,
    ComputationError,
    ConfigurationError,
    ConfusionCause,
    Connection,
    ConnectionKind,
    ConnectivityReport,
    Entity,
    EntityKind,
    IntegrityError,
    RosterHypothetical,
    RosterRef,
    Scenario,
    ScoringMode,
    StateError,
    ValidationError,
    block,
    classify_quality,
    connectivity_score,
    detect_confusion,
    distance_sum,
    efficiency,
    find_paths,
    ideal_connectivity,
    path_viability,
    quality,
    resolve_self_conflict,
    silent_closure,
)
from conncalc.metrics import _real_component_index
from conncalc.model import with_scoring_mode

from . import support
from .test_model import conn, scenario_of


class TestConnectivityScore:
    def test_office_sum(self, office):
        assert connectivity_score(office) == Fraction(7)

    def test_confusion_sum(self, confusion):
        assert connectivity_score(confusion) == Fraction(-1)

    def test_empty_connection_multiset(self):
        s = Scenario(entities=(Entity("a", "known"),), connections=(), host="a")
        assert connectivity_score(s) == 0

    def test_invalid_scenario_is_rejected(self):
        from conncalc import ValidationError

        bad = scenario_of(conn("c", "a", "b", magnitude=11))
        with pytest.raises(ValidationError):
            connectivity_score(bad)

    @given(support.scenarios())
    def test_matches_independent_resummation(self, s):
        assert connectivity_score(s) == support.oracle_score(s)

    @given(support.scenarios())
    def test_polarity_flip_antisymmetry(self, s):
        flipped = replace(
            s, connections=tuple(replace(c, polarity=-c.polarity) for c in s.connections)
        )
        assert connectivity_score(flipped) == -connectivity_score(s)


class TestIdealConnectivity:
    def test_office_explicit_roster(self, office):
        assert ideal_connectivity(office) == Fraction(56)

    def test_office_default_roster_counts_all_connections(self, office):
        assert ideal_connectivity(replace(office, ideal_roster=None)) == Fraction(49)

    def test_empty_scenario(self):
        s = Scenario(entities=(Entity("a", "known"),), connections=(), host="a")
        assert ideal_connectivity(s) == 0

    def test_blocked_treated_as_unblocked(self):
        s = scenario_of(conn("c", "a", "b", polarity=-1, magnitude=9, blocked=True))
        assert ideal_connectivity(s) == Fraction(9)

    def test_unknown_roster_ref_is_an_integrity_error(self):
        s = scenario_of(conn("c", "a", "b"))
        with pytest.raises(IntegrityError, match="unknown connection"):
            ideal_connectivity(replace(s, ideal_roster=(RosterRef(ref="nope"),)))
        assert ideal_connectivity(replace(s, ideal_roster=(RosterRef(ref="c"),))) == 2

    def test_connection_naming_a_missing_entity_is_an_integrity_error(self):
        s = scenario_of(conn("c", "a", "b"), entities=(Entity("a", "known"),))
        with pytest.raises(IntegrityError, match="unknown entity id: 'b'"):
            ideal_connectivity(s)
        s = scenario_of(conn("c", "a", "b"))
        hypothetical = RosterHypothetical(src="a", dst="x", magnitude=Fraction(2))
        with pytest.raises(IntegrityError, match="unknown entity id: 'x'"):
            ideal_connectivity(replace(s, ideal_roster=(hypothetical,)))
        # Roster entries are valued in order: a missing ref ahead is reported first.
        with pytest.raises(IntegrityError, match="unknown connection id: 'nope'"):
            ideal_connectivity(replace(s, ideal_roster=(RosterRef(ref="nope"), hypothetical)))

    @given(support.scenarios())
    def test_matches_oracle_and_is_non_negative(self, s):
        value = ideal_connectivity(s)
        assert value == support.oracle_ideal(s)
        assert value >= 0


class TestQuality:
    def test_fixture_ratios(self):
        assert quality(-1, 8) == Fraction(-25, 2)
        assert quality(7, 56) == Fraction(25, 2)

    def test_identity_ratio(self):
        assert quality(3, 3) == 100
        assert quality("-2.5", "-2.5") == 100

    def test_zero_desired_is_a_computation_error(self):
        with pytest.raises(ComputationError, match="zero"):
            quality(1, 0)

    @given(
        st.fractions(min_value=-50, max_value=50),
        st.fractions(min_value=-50, max_value=50).filter(lambda d: d != 0),
        st.fractions(min_value=-9, max_value=9).filter(lambda k: k != 0),
    )
    def test_scale_equivariance(self, actual, desired, k):
        assert quality(k * actual, k * desired) == quality(actual, desired)


class TestClassifyQuality:
    @pytest.mark.parametrize(
        "percent,band",
        [
            ("-12.5", Band.FAILING),
            ("12.5", Band.FAILING),
            ("49.999999999", Band.FAILING),
            (50, Band.SATISFACTORY),
            (60, Band.SATISFACTORY),
            (75, Band.SATISFACTORY),
            ("75.000000001", Band.HIGH),
            (80, Band.HIGH),
            (100, Band.HIGH),
        ],
    )
    def test_band_boundaries(self, percent, band):
        assert classify_quality(percent) is band

    @given(
        st.fractions(min_value=-200, max_value=200),
        st.fractions(min_value=-200, max_value=200),
    )
    def test_total_and_monotone(self, p1, p2):
        if p1 > p2:
            p1, p2 = p2, p1
        order = list(Band)  # failing < satisfactory < high
        assert order.index(classify_quality(p1)) <= order.index(classify_quality(p2))


class TestEfficiency:
    def test_office_report(self, office):
        report = efficiency(office)
        assert report.score == 7
        assert report.ideal == 56
        assert report.efficiency_percent == Fraction(25, 2)
        assert report.band is Band.FAILING
        assert report.mode is ScoringMode.RAW

    def test_single_positive_connection_is_its_own_ideal(self):
        s = scenario_of(conn("c", "a", "b", magnitude=7))
        report = efficiency(s)
        assert (report.score, report.ideal, report.efficiency_percent) == (7, 7, 100)
        assert report.band is Band.HIGH

    def test_office_all_positive_default_roster(self, office):
        flipped = replace(
            office,
            connections=tuple(replace(c, polarity=1) for c in office.connections),
            ideal_roster=None,
        )
        report = efficiency(flipped)
        assert (report.score, report.ideal, report.efficiency_percent) == (49, 49, 100)
        assert report.band is Band.HIGH

    def test_zero_ideal_is_a_computation_error(self):
        s = Scenario(entities=(Entity("a", "known"),), connections=(), host="a")
        with pytest.raises(ComputationError):
            efficiency(s)

    @given(support.scenarios(require_connection=True))
    def test_hundred_percent_iff_all_positive_and_unblocked(self, s):
        s = replace(s, ideal_roster=None)
        if ideal_connectivity(s) == 0:
            return
        report = efficiency(s)
        pristine = all(c.polarity == 1 and not c.blocked for c in s.connections)
        assert (report.efficiency_percent == 100) == pristine


# One of two shared magnitude objects, or a fresh object equal to one of them.
_SHARED = st.sampled_from((Fraction(2), Fraction(3)))
SHARED_OR_EQUAL_MAGNITUDES = _SHARED | _SHARED.map(lambda m: Fraction(m.numerator, m.denominator))


class TestDetectConfusion:
    def test_confusion_fixture(self, confusion):
        report = detect_confusion(confusion)
        assert report.z == -1
        assert report.quality_percent == Fraction(-25, 2)
        assert report.confused is True
        assert report.causes == (ConfusionCause.SELF_CONFLICT,)

    def test_office_confused_with_missing_entity_info(self, office):
        report = detect_confusion(office)
        assert report.confused is True
        assert report.quality_percent == Fraction(25, 2)
        assert report.causes == (ConfusionCause.MISSING_ENTITY_INFO,)

    def test_healthy_scenario_is_not_confused(self):
        s = scenario_of(
            conn("aa", "a", "a", magnitude=8),
            conn("ab", "a", "b", magnitude=8),
            desired_connectivity=8,
        )
        report = detect_confusion(s)
        assert report.z == 16
        assert report.quality_percent == 200
        assert report.confused is False
        assert report.causes == ()

    def test_missing_desired_is_a_configuration_error(self, office):
        with pytest.raises(ConfigurationError):
            detect_confusion(replace(office, desired_connectivity=None))

    def test_invalid_scenario_is_a_validation_error_before_missing_desired(self):
        # Validation comes first: the CLI maps this to exit 1, not exit 2.
        bad = scenario_of(conn("c", "a", "b", magnitude=11))
        assert bad.desired_connectivity is None
        with pytest.raises(ValidationError):
            detect_confusion(bad)

    @pytest.mark.parametrize(
        "connections",
        [
            pytest.param(
                (conn("aa", "a", "a", magnitude=3), conn("ab", "a", "b", magnitude=3),
                 conn("bc", "b", "c", magnitude=3)),
                id="self-magnitude-equals-every-other",
            ),
            pytest.param(
                (conn("ab", "a", "b", magnitude=3), conn("bc", "b", "c", magnitude=5)),
                id="no-self-connections",
            ),
            pytest.param(
                (conn("aa", "a", "a", magnitude=3), conn("bb", "b", "b", magnitude=5)),
                id="only-self-connections",
            ),
        ],
    )
    def test_no_self_conflict(self, connections):
        s = scenario_of(*connections, desired_connectivity=4)
        assert ConfusionCause.SELF_CONFLICT not in detect_confusion(s).causes

    def test_missing_path_info_from_an_unbridged_silent_connection(self):
        s = scenario_of(
            conn("ab", "a", "b", kind=ConnectionKind.SILENT),
            desired_connectivity=4,
        )
        report = detect_confusion(s)
        assert ConfusionCause.MISSING_PATH_INFO in report.causes

    def test_blocked_real_path_counts_as_missing(self):
        s = scenario_of(
            conn("ab", "a", "b", blocked=True),
            desired_connectivity=4,
        )
        assert ConfusionCause.MISSING_PATH_INFO in detect_confusion(s).causes

    def test_indirect_real_path_suffices(self):
        s = scenario_of(
            conn("ab", "a", "b"),
            conn("bc", "b", "c"),
            conn("ac", "a", "c", kind=ConnectionKind.SILENT),
            desired_connectivity=4,
        )
        assert ConfusionCause.MISSING_PATH_INFO not in detect_confusion(s).causes

    def test_hidden_endpoint_triggers_missing_entity_info(self):
        s = Scenario(
            entities=(Entity("a", "known"), Entity("b", "hidden")),
            connections=(conn("ab", "a", "b"),),
            host="a",
            desired_connectivity=4,
        )
        assert ConfusionCause.MISSING_ENTITY_INFO in detect_confusion(s).causes

    def test_unconnected_hidden_entity_does_not_trigger(self):
        s = Scenario(
            entities=(Entity("a", "known"), Entity("x", "unknown")),
            connections=(conn("aa", "a", "a"),),
            host="a",
            desired_connectivity=4,
        )
        assert ConfusionCause.MISSING_ENTITY_INFO not in detect_confusion(s).causes

    @pytest.mark.parametrize(
        "entities, connections",
        [
            pytest.param(
                (Entity("a", "known"), Entity("b", "known"), Entity("x", "hidden")),
                (conn("aa", "a", "a"), conn("ab", "a", "b")),
                id="isolated-hidden-entity",
            ),
            pytest.param(
                (Entity("a", "known"), Entity("b", "known"), Entity("c", "known")),
                (conn("aa", "a", "a"), conn("ab", "a", "b"), conn("cc", "c", "c")),
                id="entity-with-only-a-self-connection",
            ),
        ],
    )
    def test_no_cause_without_a_connection_that_shows_one(self, entities, connections):
        # A hidden entity no connection touches, or an entity that no real
        # path reaches but no non-self connection joins, is no cause.
        s = Scenario(entities=entities, connections=connections, host="a", desired_connectivity=4)
        assert detect_confusion(s).causes == ()

    @given(
        st.one_of(
            support.scenarios(with_desired=True, magnitude_values=SHARED_OR_EQUAL_MAGNITUDES),
            support.scenarios(with_desired=True),
            support.scenarios(with_desired=True, max_entities=1),  # self-connections only
            support.scenarios(with_desired=True, max_connections=0),
        )
    )
    def test_self_conflict_matches_the_set_formula(self, s):
        self_mags = {c.magnitude for c in s.connections if c.kind is ConnectionKind.SELF}
        other_mags = {c.magnitude for c in s.connections if c.kind is not ConnectionKind.SELF}
        expected = bool(self_mags and other_mags and len(self_mags | other_mags) > 1)
        causes = detect_confusion(s).causes
        assert (ConfusionCause.SELF_CONFLICT in causes) == expected
        assert ConfusionCause.SELF_CONFLICT not in causes[:-1]

    @given(support.scenarios(with_desired=True))
    def test_confusion_invariant(self, s):
        report = detect_confusion(s)
        assert report.confused == (not (report.z > 0 and report.quality_percent > 50))


class TestResolveSelfConflict:
    def test_conflicting_magnitude_turns_negative(self):
        s = scenario_of(
            conn("aa", "a", "a", polarity=1, magnitude=5),
            conn("ab", "a", "b", polarity=1, magnitude=4),
        )
        resolved = resolve_self_conflict(s)
        assert resolved.connection("aa").polarity == -1
        assert connectivity_score(resolved) == -1

    def test_matching_magnitude_keeps_authored_polarity(self):
        s = scenario_of(
            conn("aa", "a", "a", polarity=1, magnitude=4),
            conn("ab", "a", "b", polarity=1, magnitude=4),
        )
        resolved = resolve_self_conflict(s)
        assert resolved.connection("aa").polarity == 1
        assert connectivity_score(resolved) == 8

    def test_office_self_connection_stays_negative(self, office):
        resolved = resolve_self_conflict(office)
        assert resolved == office
        assert resolved.connection("eb-eb").polarity == -1

    def test_only_host_self_connections_are_touched(self):
        s = scenario_of(
            conn("aa", "a", "a", polarity=1, magnitude=5),
            conn("bb", "b", "b", polarity=1, magnitude=5),
            conn("ab", "a", "b", polarity=1, magnitude=4),
        )
        resolved = resolve_self_conflict(s)
        assert resolved.connection("aa").polarity == -1
        assert resolved.connection("bb").polarity == 1

    def test_without_host_self_connection_directs_to_closure(self):
        s = scenario_of(conn("ab", "a", "b"))
        with pytest.raises(StateError, match="silent_closure"):
            resolve_self_conflict(s)

    def test_no_comparator_means_no_change(self):
        s = scenario_of(conn("aa", "a", "a", polarity=1, magnitude=5))
        assert resolve_self_conflict(s) is s


class TestDistanceSum:
    def test_single_hop_picks_the_strongest(self, office):
        assert distance_sum(office, ["Ea", "Eb"]) == 7

    def test_two_hops_can_cancel(self, office):
        result = distance_sum(office, ["Ea", "Eb", "Ec"])
        assert result == 0
        assert not (result is not None and result > 0)

    def test_absent_pair_is_non_viable(self, office):
        assert distance_sum(office, ["Ea", "En"]) is None

    def test_blocked_only_pair_is_non_viable(self):
        s = scenario_of(conn("ab", "a", "b", blocked=True))
        assert distance_sum(s, ["a", "b"]) is None

    def test_parallel_edges_take_the_max(self):
        s = scenario_of(
            conn("c1", "a", "b", polarity=-1, magnitude=9),
            conn("c2", "a", "b", polarity=1, magnitude=2),
        )
        assert distance_sum(s, ["a", "b"]) == 2

    def test_direction_of_authoring_does_not_matter(self):
        s = scenario_of(conn("ab", "b", "a", magnitude=3))
        assert distance_sum(s, ["a", "b"]) == 3

    def test_unknown_entity_is_an_integrity_error(self, office):
        with pytest.raises(IntegrityError):
            distance_sum(office, ["Ea", "nope"])

    def test_short_path_is_rejected(self, office):
        with pytest.raises(ValueError):
            distance_sum(office, ["Ea"])


class TestPathViability:
    def test_single_hop_default_impact(self, office):
        assert path_viability(office, ["Ea", "Eb"]) == Fraction(3, 4)

    def test_two_hops_default_impact(self, office):
        assert path_viability(office, ["Ea", "Eb", "Ec"]) == Fraction(9, 16)

    def test_blocked_hop_annihilates(self):
        s = scenario_of(conn("ab", "a", "b"), conn("bc", "b", "c", blocked=True))
        assert path_viability(s, ["a", "b", "c"]) == 0

    @given(support.scenarios(min_entities=3, max_entities=5))
    def test_strictly_decreasing_with_length(self, s):
        ids = [e.id for e in s.entities[:3]]
        short = path_viability(s, ids[:2])
        longer = path_viability(s, ids)
        if short > 0 and longer > 0:
            assert longer < short
        assert 0 <= short < 1 and 0 <= longer < 1


def _expected_report(s: Scenario):
    """The efficiency report rebuilt from the oracles, or None for a zero ideal."""
    score, ideal = support.oracle_score(s), support.oracle_ideal(s)
    if ideal == 0:
        return None
    percent = 100 * score / ideal
    band = Band.FAILING if percent < 50 else Band.SATISFACTORY if percent <= 75 else Band.HIGH
    return ConnectivityReport(score, ideal, percent, band, s.scoring_mode)


def _paths_of(s: Scenario, data) -> list[list[str]]:
    ids = [e.id for e in s.entities]
    return [data.draw(st.lists(st.sampled_from(ids), min_size=2, max_size=4)) for _ in range(3)]


class TestIndexAgainstTheOracles:
    """The cached index and its integer kernel against from-scratch Fraction
    arithmetic, with attribute and magnitude denominators coprime to 10."""

    @given(support.coprime_scenarios())
    def test_score_ideal_and_efficiency(self, s):
        assert connectivity_score(s) == support.oracle_score(s)
        assert ideal_connectivity(s) == support.oracle_ideal(s)
        expected = _expected_report(s)
        if expected is None:
            with pytest.raises(ComputationError):
                efficiency(s)
        else:
            assert efficiency(s) == expected

    @given(support.coprime_scenarios(), st.data())
    def test_hop_measures(self, s, data):
        for path in _paths_of(s, data):
            assert distance_sum(s, path) == support.oracle_distance_sum(s, path)
            assert path_viability(s, path) == support.oracle_path_viability(s, path)

    # Two or three entities make parallel connections of both kinds common.
    @given(
        st.one_of(
            support.coprime_scenarios(), support.coprime_scenarios(min_entities=2, max_entities=3)
        ),
        st.data(),
    )
    def test_find_paths(self, s, data):
        ids = [e.id for e in s.entities]
        ends = {(c.src, c.dst) for c in s.connections}
        ends.add((data.draw(st.sampled_from(ids)), data.draw(st.sampled_from(ids))))
        max_hops = data.draw(st.integers(1, 4))
        for src, dst in sorted(ends):
            for include_silent in (False, True):
                assert find_paths(s, src, dst, max_hops, include_silent=include_silent) == (
                    support.oracle_paths(s, src, dst, max_hops, include_silent)
                )

    @given(support.coprime_scenarios(), st.data())
    def test_derived_scenarios_are_valued_afresh(self, s, data):
        # Read every part of the original's index first, so a derived scenario
        # that reused it would show the original's numbers.
        connectivity_score(s)
        ideal_connectivity(s)
        distance_sum(s, [s.entities[0].id, s.entities[-1].id])
        ids = [e.id for e in s.entities]
        other = data.draw(st.sampled_from([m for m in ScoringMode if m is not s.scoring_mode]))
        src, dst = ids[0], ids[-1]
        fresh = Connection(
            id="fresh", src=src, dst=dst,
            kind=ConnectionKind.SELF if src == dst else ConnectionKind.REAL,
            polarity=data.draw(st.sampled_from((1, -1))),
            magnitude=data.draw(support.coprime_magnitudes),
        )
        derived = [
            replace(s, scoring_mode=other),
            with_scoring_mode(s, other),
            replace(s, connections=s.connections + (fresh,)),
            silent_closure(s),
        ]
        unblocked = [c.id for c in s.connections if not c.blocked]
        if unblocked:
            derived.append(block(s, data.draw(st.sampled_from(unblocked))))
        for d in derived:
            assert connectivity_score(d) == support.oracle_score(d)
            assert ideal_connectivity(d) == support.oracle_ideal(d)
            for path in _paths_of(d, data):
                assert distance_sum(d, path) == support.oracle_distance_sum(d, path)
            assert find_paths(d, src, dst, 3, include_silent=True) == (
                support.oracle_paths(d, src, dst, 3, True)
            )


class TestIndexCounts:
    """Count guards for the index; they count calls and never time anything."""

    def test_impact_efficiency_computes_each_impact_factor_at_most_once(self, monkeypatch):
        s = replace(
            support.random_scenario(
                support.random.Random(7), max_entities=40, min_connections=2000, max_connections=2000
            ),
            scoring_mode=ScoringMode.IMPACT_WEIGHTED,
        )
        calls = []
        original = conncalc.model.impact_factor

        def counted(entity):
            calls.append(entity.id)
            return original(entity)

        monkeypatch.setattr(conncalc.model, "impact_factor", counted)
        assert efficiency(s) == _expected_report(s)
        assert len(calls) <= len(s.entities)
        assert len(calls) == len(set(calls))

    def test_distance_sum_reads_the_pair_index_not_the_connections(self):
        # A 100-hop chain plus 1,900 other connections: a scan per hop would
        # iterate the connections 100 times.
        rng = support.random.Random(11)
        ids = [f"n{i:03d}" for i in range(101)]
        chain = [
            conn(f"h{i:03d}", a, b, magnitude=rng.randint(1, 10))
            for i, (a, b) in enumerate(zip(ids, ids[1:]))
        ]
        extra = [
            conn(
                f"x{i:04d}", *rng.sample(ids, 2), polarity=rng.choice((1, -1)),
                magnitude=rng.randint(1, 10), blocked=rng.random() < 0.1,
            )
            for i in range(1900)
        ]
        s = scenario_of(*chain, *extra, host="n000")
        expected = support.oracle_distance_sum(s, ids)

        class CountingTuple(tuple):
            iterations = 0

            def __iter__(self):
                CountingTuple.iterations += 1
                return super().__iter__()

        object.__setattr__(s, "connections", CountingTuple(s.connections))
        assert len(s.connections) == 2000
        assert distance_sum(s, ids) == expected
        assert CountingTuple.iterations <= 1


def _partition(labels: dict[str, str]) -> set[frozenset[str]]:
    groups: dict[str, set[str]] = {}
    for eid, label in labels.items():
        groups.setdefault(label, set()).add(eid)
    return {frozenset(group) for group in groups.values()}


class TestPairIndexAgainstTheOracles:
    """The flat pair indexes and the component walk over them against
    from-scratch scans of the connections. Few shared magnitudes and two or
    three entities make parallel connections and ties common; the drawn
    scenarios hold blocked real and silent connections."""

    @given(
        st.one_of(
            support.coprime_scenarios(),
            support.scenarios(
                min_entities=2, max_entities=3, magnitude_values=SHARED_OR_EQUAL_MAGNITUDES
            ),
        )
    )
    def test_links_hold_the_strongest_joining_connection(self, s):
        ids = [e.id for e in s.entities]
        assert set(s.links) <= set(ids) and set(s.real_links) <= set(ids)
        for a in ids:
            for b in ids:
                assert s.links.get(a, {}).get(b) is support.oracle_link(s, a, b)
                assert s.real_links.get(a, {}).get(b) is (
                    support.oracle_link(s, a, b, {ConnectionKind.REAL})
                )

    def test_ties_keep_the_smallest_id(self):
        s = scenario_of(
            conn("c2", "a", "b", magnitude=5),
            conn("c1", "b", "a", magnitude=5),
            conn("c0", "a", "b", kind=ConnectionKind.SILENT, magnitude=5),
            conn("c3", "a", "b", magnitude=6, blocked=True),
        )
        assert s.links["a"]["b"].id == s.links["b"]["a"].id == "c0"
        assert s.real_links["a"]["b"].id == s.real_links["b"]["a"].id == "c1"

    @given(
        st.one_of(
            support.scenarios(),
            support.scenarios(min_entities=4, max_entities=8, max_connections=12),
        )
    )
    def test_real_components_match_the_union_find(self, s):
        labels = _real_component_index(s)
        assert labels.keys() == {e.id for e in s.entities}
        assert _partition(labels) == _partition(support.oracle_real_components(s))


def _fresh_scenario() -> Scenario:
    return scenario_of(
        conn("aa", "a", "a"),
        conn("ab", "a", "b"),
        conn("bc", "b", "c", kind=ConnectionKind.SILENT),
        conn("cd", "c", "d", blocked=True),
        desired_connectivity=4,
    )


class TestPairIndexCounts:
    """Each command builds only the pair index it reads."""

    @pytest.mark.parametrize(
        "call, unbuilt",
        [
            pytest.param(lambda s: find_paths(s, "a", "c", 3), "links", id="real-paths"),
            pytest.param(detect_confusion, "links", id="confusion"),
            pytest.param(
                lambda s: find_paths(s, "a", "c", 3, include_silent=True), "real_links",
                id="silent-paths",
            ),
        ],
    )
    def test_only_the_read_index_is_built(self, call, unbuilt):
        s = _fresh_scenario()
        call(s)
        assert unbuilt not in vars(s)
