"""Path enumeration, the connection law, closure, blocking, confirmation."""

from __future__ import annotations

import json
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conncalc import (
    Connection,
    ConnectionKind,
    Entity,
    IntegrityError,
    Path,
    Scenario,
    StateError,
    ValidationError,
    block,
    confirm_silent,
    connectivity_score,
    find_paths,
    law_holds,
    serialize_scenario,
    silent_closure,
    unblock,
)
from conncalc.paths import _closure_gaps

from . import support
from .test_model import conn, scenario_of


class TestPathType:
    def test_hop_count_must_match(self):
        with pytest.raises(ValidationError):
            Path(entities=("a", "b", "c"), hops=("x",))
        with pytest.raises(ValidationError):
            Path(entities=(), hops=())

    def test_self_path_has_one_hop(self):
        p = Path(entities=("a",), hops=("aa",))
        assert len(p.hops) == 1


class TestFindPaths:
    def test_office_real_only_single_route(self, office):
        paths = find_paths(office, "Ea", "Ec", 3)
        assert [p.entities for p in paths] == [("Ea", "Eb", "Ec")]
        assert paths[0].hops == ("ea-eb", "ec-eb")

    def test_office_with_silent_adds_the_direct_link(self, office):
        paths = find_paths(office, "Ea", "Ec", 3, include_silent=True)
        assert [p.entities for p in paths] == [("Ea", "Ec"), ("Ea", "Eb", "Ec")]
        assert paths[0].hops == ("ec-ea",)

    def test_self_path_when_a_self_connection_exists(self, office):
        paths = find_paths(office, "Eb", "Eb", 3)
        assert paths == [Path(entities=("Eb",), hops=("eb-eb",))]

    def test_no_self_path_without_a_self_connection(self, office):
        assert find_paths(office, "Ea", "Ea", 3) == []

    def test_blocked_self_connection_gives_no_self_path(self):
        s = scenario_of(conn("aa", "a", "a", blocked=True))
        assert find_paths(s, "a", "a", 1) == []

    def test_isolated_entities_have_no_path(self, office):
        assert find_paths(office, "Ea", "En", 5) == []

    def test_max_hops_bounds_the_search(self, office):
        assert find_paths(office, "Ea", "Ec", 1) == []
        assert len(find_paths(office, "Ea", "Ec", 2)) == 1

    def test_blocked_connections_never_carry_hops(self):
        s = scenario_of(conn("ab", "a", "b", blocked=True))
        assert find_paths(s, "a", "b", 2) == []

    def test_self_connections_never_extend_a_path(self):
        s = scenario_of(conn("aa", "a", "a"), conn("ab", "a", "b"))
        paths = find_paths(s, "a", "b", 3)
        assert [p.entities for p in paths] == [("a", "b")]

    def test_hop_picks_highest_value_then_smallest_id(self):
        s = scenario_of(
            conn("x2", "a", "b", polarity=1, magnitude=2),
            conn("x9", "a", "b", polarity=1, magnitude=9),
        )
        assert find_paths(s, "a", "b", 1)[0].hops == ("x9",)
        tied = scenario_of(
            conn("t2", "a", "b", polarity=1, magnitude=5),
            conn("t1", "a", "b", polarity=1, magnitude=5),
        )
        assert find_paths(tied, "a", "b", 1)[0].hops == ("t1",)

    def test_hop_picks_the_best_connection_of_an_eligible_kind(self):
        s = scenario_of(
            conn("real", "a", "b", magnitude=2),
            conn("silent", "a", "b", kind=ConnectionKind.SILENT, magnitude=9),
        )
        assert find_paths(s, "a", "b", 1)[0].hops == ("real",)
        assert find_paths(s, "a", "b", 1, include_silent=True)[0].hops == ("silent",)

    def test_a_path_longer_than_the_recursion_limit(self):
        ids = [f"n{i:04d}" for i in range(1500)]
        s = scenario_of(*(conn(f"c{i:04d}", a, b) for i, (a, b) in enumerate(zip(ids, ids[1:]))))
        paths = find_paths(s, ids[0], ids[-1], 2000)
        assert [p.entities for p in paths] == [tuple(ids)]

    def test_unknown_ids_are_integrity_errors(self, office):
        with pytest.raises(IntegrityError):
            find_paths(office, "nope", "Eb", 2)
        with pytest.raises(IntegrityError):
            find_paths(office, "Ea", "nope", 2)

    def test_max_hops_must_be_positive(self, office):
        # An int subclass is not an int: max_hops is tested by its exact type.
        for max_hops in (0, True, 2.0, type("Hops", (int,), {})(2)):
            with pytest.raises(ValueError, match="max_hops must be a positive integer"):
                find_paths(office, "Ea", "Eb", max_hops)

    @given(support.scenarios(min_entities=2, max_entities=5), st.data())
    def test_output_is_deterministic_simple_and_ordered(self, s, data):
        ids = [e.id for e in s.entities]
        src = data.draw(st.sampled_from(ids))
        dst = data.draw(st.sampled_from([i for i in ids if i != src]))
        include_silent = data.draw(st.booleans())
        first = find_paths(s, src, dst, 3, include_silent=include_silent)
        second = find_paths(s, src, dst, 3, include_silent=include_silent)
        assert first == second
        keys = [(len(p.entities), p.entities) for p in first]
        assert keys == sorted(keys)
        for p in first:
            assert len(set(p.entities)) == len(p.entities)
            assert p.entities[0] == src and p.entities[-1] == dst
            for hop_id, (a, b) in zip(p.hops, zip(p.entities, p.entities[1:])):
                c = s.connection(hop_id)
                assert not c.blocked
                assert {c.src, c.dst} == {a, b}
                assert c.kind is not ConnectionKind.SELF
                if not include_silent:
                    assert c.kind is not ConnectionKind.SILENT


class TestLaw:
    def test_office_as_authored_fails_the_law(self, office):
        assert law_holds(office) is False

    def test_single_entity_with_self_connection(self):
        s = scenario_of(conn("aa", "a", "a"))
        assert law_holds(s) is True

    def test_blocked_connections_still_count(self):
        s = scenario_of(
            conn("aa", "a", "a", blocked=True),
            conn("bb", "b", "b"),
            conn("ab", "a", "b", blocked=True),
        )
        assert law_holds(s) is True


class TestSilentClosure:
    def test_two_isolated_entities(self):
        s = Scenario(
            entities=(Entity("a", "known"), Entity("b", "known")),
            connections=(),
            host="a",
        )
        closed = silent_closure(s)
        assert law_holds(closed)
        added = {c.id: c for c in closed.connections}
        assert set(added) == {"sc:a:a:0", "sc:b:b:0", "sc:a:b:0"}
        loop = added["sc:a:a:0"]
        assert loop.kind is ConnectionKind.SELF
        assert (loop.polarity, loop.magnitude, loop.confirmed) == (1, Fraction(1), False)
        pair = added["sc:a:b:0"]
        assert pair.kind is ConnectionKind.SILENT
        assert (pair.polarity, pair.magnitude, pair.confirmed) == (-1, Fraction(1), False)
        assert (pair.src, pair.dst) == ("a", "b")

    def test_existing_connections_are_untouched(self, office):
        closed = silent_closure(office)
        for c in office.connections:
            assert closed.connection(c.id) == c

    def test_office_closure_score(self, office):
        # 5 new self-loops at +1, 10 new pair connections at -1
        closed = silent_closure(office)
        assert law_holds(closed)
        assert len(closed.connections) == len(office.connections) + 15
        assert connectivity_score(closed) == connectivity_score(office) + 5 - 10

    def test_idempotent(self, office):
        once = silent_closure(office)
        twice = silent_closure(once)
        assert serialize_scenario(twice) == serialize_scenario(once)

    def test_generated_ids_dodge_collisions(self):
        s = scenario_of(
            conn("sc:a:b:0", "a", "b", kind=ConnectionKind.SILENT, polarity=-1, magnitude=1),
            conn("sc:a:a:0", "c", "c"),
            entities=tuple(Entity(i, "known") for i in ("a", "b", "c")),
        )
        closed = silent_closure(s)
        assert law_holds(closed)
        ids = {c.id for c in closed.connections}
        # the real a-loop id "sc:a:a:0" is taken by an unrelated connection
        assert "sc:a:a:1" in ids
        assert len(ids) == len(closed.connections)

    @given(support.scenarios(max_connections=12))
    def test_gaps_match_the_pair_set_formula(self, s):
        # The oracle keeps the pair-set formula: one frozenset per joined pair
        # and per tested pair. Blocked connections join, self-connections do not.
        with_self = {c.src for c in s.connections if c.kind is ConnectionKind.SELF}
        expected = [(ConnectionKind.SELF, e.id, e.id) for e in s.entities if e.id not in with_self]
        joined = {frozenset((c.src, c.dst)) for c in s.connections if c.src != c.dst}
        ids = [e.id for e in s.entities]
        expected += [
            (ConnectionKind.SILENT, a, b)
            for i, a in enumerate(ids)
            for b in ids[i + 1 :]
            if frozenset((a, b)) not in joined
        ]
        assert list(_closure_gaps(s)) == expected

    @given(support.scenarios())
    def test_closure_establishes_the_law_and_validates(self, s):
        from conncalc import validate_scenario

        closed = silent_closure(s)
        assert law_holds(closed)
        assert validate_scenario(closed) == []
        assert silent_closure(closed) == closed


class TestBlocking:
    def test_block_then_score_drops_by_former_value(self, office):
        before = connectivity_score(office)
        after = connectivity_score(block(office, "ea-eb"))
        assert before - after == Fraction(7)

    def test_block_is_idempotent_and_unblock_inverts(self, office):
        blocked = block(office, "ec-eb")
        assert block(blocked, "ec-eb") == blocked
        assert unblock(blocked, "ec-eb") == office
        assert unblock(office, "ea-eb") == office

    def test_unknown_id(self, office):
        with pytest.raises(IntegrityError):
            block(office, "nope")

    def test_serialized_diff_is_one_field(self, office):
        before = json.loads(serialize_scenario(office))
        after = json.loads(serialize_scenario(block(office, "ea-eb")))
        assert {k: v for k, v in before.items() if k != "connections"} == {
            k: v for k, v in after.items() if k != "connections"
        }
        changed = [
            (b, a) for b, a in zip(before["connections"], after["connections"]) if b != a
        ]
        assert len(changed) == 1
        b, a = changed[0]
        assert a.pop("blocked") is True
        assert a == b


class TestConfirmSilent:
    def test_office_is_the_post_state_of_confirming_eu_eb(self, office):
        pre_connections = tuple(
            replace(c, confirmed=False) if c.id == "eu-eb" else c
            for c in office.connections
            if c.id != "rc:eu-eb"
        )
        pre = replace(office, connections=pre_connections)
        assert confirm_silent(pre, "eu-eb", 1) == office

    def test_score_increases_by_the_observed_value(self):
        s = scenario_of(
            conn("ab", "a", "b", kind=ConnectionKind.SILENT, polarity=1, magnitude=3)
        )
        confirmed = confirm_silent(s, "ab", 1)
        assert connectivity_score(confirmed) - connectivity_score(s) == Fraction(3)
        real = confirmed.connection("rc:ab")
        assert real.kind is ConnectionKind.REAL
        assert (real.src, real.dst, real.magnitude) == ("a", "b", Fraction(3))
        assert confirmed.connection("ab").confirmed is True

    def test_observed_polarity_may_contradict_the_silent_one(self):
        s = scenario_of(
            conn("ab", "a", "b", kind=ConnectionKind.SILENT, polarity=1, magnitude=3)
        )
        confirmed = confirm_silent(s, "ab", -1)
        assert confirmed.connection("rc:ab").polarity == -1

    def test_time_index_is_carried_over(self):
        s = scenario_of(
            conn("ab", "a", "b", kind=ConnectionKind.SILENT, magnitude=2, time_index=4)
        )
        assert confirm_silent(s, "ab", 1).connection("rc:ab").time_index == 4

    def test_double_confirm_is_a_state_error(self):
        s = scenario_of(
            conn("ab", "a", "b", kind=ConnectionKind.SILENT, magnitude=2)
        )
        once = confirm_silent(s, "ab", 1)
        with pytest.raises(StateError, match="already confirmed"):
            confirm_silent(once, "ab", 1)

    def test_non_silent_connections_cannot_be_confirmed(self, office):
        with pytest.raises(StateError, match="not silent"):
            confirm_silent(office, "ea-eb", 1)
        with pytest.raises(StateError, match="not silent"):
            confirm_silent(office, "eb-eb", 1)

    def test_polarity_must_be_unit(self):
        s = scenario_of(conn("ab", "a", "b", kind=ConnectionKind.SILENT, magnitude=2))
        with pytest.raises(ValidationError):
            confirm_silent(s, "ab", 2)

    # An int subclass is not an int, and an int past the int-to-str limit prints as a
    # placeholder in the message, where its repr once raised a bare ValueError.
    @pytest.mark.parametrize(
        "polarity",
        [
            1.0, -1.0, Fraction(1), True,
            pytest.param(type("Sign", (int,), {})(1), id="int-subclass"),
            pytest.param(10**5000, id="huge"),
        ],
    )
    def test_polarity_must_be_an_int(self, polarity):
        s = scenario_of(conn("ab", "a", "b", kind=ConnectionKind.SILENT, magnitude=2))
        with pytest.raises(ValidationError, match="observed polarity must be 1 or -1"):
            confirm_silent(s, "ab", polarity)

    def test_reserved_id_collision(self):
        s = scenario_of(
            conn("ab", "a", "b", kind=ConnectionKind.SILENT, magnitude=2),
            conn("rc:ab", "a", "b", kind=ConnectionKind.REAL, magnitude=2),
        )
        with pytest.raises(IntegrityError, match="already in use"):
            confirm_silent(s, "ab", 1)
