"""Domain types: construction, coercion, valuation, validation."""

from __future__ import annotations

import copy
import decimal
import pickle
import re
from dataclasses import FrozenInstanceError, fields, replace
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import conncalc.model
from conncalc import (
    AttributeVector,
    Connection,
    ConnectionKind,
    Entity,
    EntityKind,
    IntegrityError,
    RosterHypothetical,
    RosterRef,
    Scenario,
    ScoringMode,
    ValidationError,
    connection_value,
    connectivity_score,
    efficiency,
    ensure_valid,
    export_dot,
    impact_factor,
    parse_scenario,
    serialize_scenario,
    silent_closure,
    to_rational,
    validate_scenario,
)

from . import support


def scenario_of(*connections, entities=None, host="a", **kwargs) -> Scenario:
    if entities is None:
        ids = {host}
        for c in connections:
            ids.update((c.src, c.dst))
        entities = tuple(Entity(i, EntityKind.KNOWN) for i in sorted(ids))
    return Scenario(entities=entities, connections=tuple(connections), host=host, **kwargs)


def conn(id, src, dst, *, kind=None, polarity=1, magnitude=2, **kwargs) -> Connection:
    if kind is None:
        kind = ConnectionKind.SELF if src == dst else ConnectionKind.REAL
    return Connection(
        id=id, src=src, dst=dst, kind=kind, polarity=polarity, magnitude=magnitude, **kwargs
    )


class TestToRational:
    def test_accepts_exact_forms(self):
        assert to_rational("0.75") == Fraction(3, 4)
        assert to_rational("3/4") == Fraction(3, 4)
        assert to_rational(7) == Fraction(7)
        assert to_rational(Fraction(1, 3)) == Fraction(1, 3)
        assert to_rational(decimal.Decimal("12.5")) == Fraction(25, 2)

    @pytest.mark.parametrize(
        "literal, value",
        [(" " * 100_000 + "2", Fraction(2)), ("1e9999", Fraction(10**9999))],
        ids=["padded", "exponent"],
    )
    def test_long_and_exponent_literals_decode_on_every_call(self, literal, value):
        # Fraction() takes surrounding whitespace, and an exponent makes a short
        # literal a huge number: such literals decode on every call.
        for _ in range(2):
            assert to_rational(literal) == value

    def test_rejects_floats(self):
        with pytest.raises(TypeError, match="inexact"):
            to_rational(0.75)

    def test_rejects_bools(self):
        with pytest.raises(TypeError):
            to_rational(True)

    def test_rejects_garbage_strings(self):
        # Errors are never cached: the second call checks and raises again.
        for literal in ("seven", "1/0"):
            messages = []
            for _ in range(2):
                with pytest.raises(ValueError) as raised:
                    to_rational(literal)
                messages.append(str(raised.value))
            assert messages == [f"not a rational literal: {literal!r}"] * 2

    def test_exact_fractions_pass_through_unchanged(self):
        f = Fraction(1, 2)
        assert to_rational(f) is f
        assert conn("c", "a", "b", magnitude=f).magnitude is f
        assert AttributeVector(existence=f).existence is f

    def test_fraction_subclasses_become_fractions(self):
        class Exact(Fraction):
            pass

        half = Exact(1, 2)
        for value in (
            to_rational(half),
            conn("c", "a", "b", magnitude=half).magnitude,
            AttributeVector(existence=half).existence,
        ):
            assert type(value) is Fraction and value == Fraction(1, 2)

    @pytest.mark.parametrize(
        "build",
        [
            lambda x: conn("c", "a", "b", magnitude=x).magnitude,
            lambda x: RosterHypothetical(src="a", dst="b", magnitude=x).magnitude,
        ],
        ids=["connection", "hypothetical"],
    )
    def test_magnitudes_that_are_not_exact_fractions_are_coerced(self, build):
        class Exact(Fraction):
            pass

        for given, value in (("2.5", Fraction(5, 2)), (7, Fraction(7)), (Exact(5, 2), Fraction(5, 2))):
            magnitude = build(given)
            assert type(magnitude) is Fraction and magnitude == value, given

    @pytest.mark.parametrize(
        "build",
        [to_rational, lambda x: conn("c", "a", "b", magnitude=x)],
        ids=["to_rational", "connection"],
    )
    @pytest.mark.parametrize("literal", ["Infinity", "-Infinity", "NaN"])
    def test_decimal_infinities_and_nan_are_value_errors(self, build, literal):
        with pytest.raises(ValueError, match="not a rational literal"):
            build(decimal.Decimal(literal))

    @pytest.mark.parametrize(
        "literal, limit",
        [
            ("1e10000000", "exponent past 10000"),
            (decimal.Decimal("1e10000000"), "exponent past 10000"),
            ("5" + "0" * 4400 + "e-4400", "more than 4300 digits"),
            ("1e10001", "exponent past 10000"),
            ("1" * 4301, "more than 4300 digits"),
        ],
        ids=[
            "exponent-1e7", "decimal-exponent-1e7", "exact-4401-digits", "exponent-10001",
            "4301-digits",
        ],
    )
    @pytest.mark.parametrize(
        "build",
        [
            to_rational,
            lambda x: Connection(id="c", src="a", dst="b", kind="real", polarity=1, magnitude=x),
            lambda x: RosterHypothetical(src="a", dst="b", magnitude=x),
            lambda x: AttributeVector(existence=x),
        ],
        ids=["to_rational", "connection", "hypothetical", "attribute"],
    )
    def test_literal_past_the_size_limit_names_the_limit(self, build, literal, limit):
        # Checked before Fraction() runs, which would take seconds on 1e10000000,
        # and on every call: errors are never cached.
        messages = []
        for _ in range(2):
            with pytest.raises(ValueError, match=limit) as raised:
                build(literal)
            messages.append(str(raised.value))
        assert messages[0] == messages[1]


def literal_outcome(decode, text: str):
    """What ``decode(text)`` gives: the value with its type, hash and two integers,
    or the class of the ``ValueError`` it raises."""
    try:
        value = decode(text)
    except ValueError as exc:
        return type(exc)
    return value, type(value), hash(value), value.numerator, value.denominator


def reference_rational(text: str) -> Fraction:
    """``to_rational`` of a str as ``Fraction``'s string parser reads it: the literal
    limits, then ``Fraction(text)``, its errors as ``to_rational`` raises them."""
    conncalc.model.check_literal(text)
    try:
        return Fraction(text)
    except (ZeroDivisionError, OverflowError) as exc:
        raise ValueError(text) from exc


def _digits(low: int, high: int):
    return st.text("0123456789", min_size=low, max_size=high)


# Plain decimals with parts of up to 34 digits, two past the plain route's 32; then
# each form that leaves the plain route, and text near the literal grammar.
_plain_literals = st.builds(
    lambda sign, whole, digits: f"{sign}{whole}{digits and '.' + digits}",
    st.sampled_from(["", "-"]), _digits(1, 34), _digits(0, 34),
)
_fallback_literals = st.one_of(
    st.tuples(
        _plain_literals,
        st.sampled_from(
            ["+{}", " {}", "{}\n", "{}_0", "1_{}", "{}e5", "{}E-3", "{}/7", "{}.", ".{}"]
        ),
    ).map(lambda pair: pair[1].format(pair[0].lstrip("-"))),
    st.text(alphabet="0123456789.-+_eE/ \t\u0661\uff15", max_size=12),
)


class TestPlainLiterals:
    """``to_rational`` reads a plain decimal str without ``Fraction``'s parser, and
    every literal to what the parser reads after the literal limits."""

    @given(text=st.one_of(_plain_literals, _fallback_literals))
    def test_same_value_type_hash_and_error(self, text):
        assert literal_outcome(to_rational, text) == literal_outcome(reference_rational, text)

    @pytest.mark.parametrize(
        "text",
        [
            "0", "-0", "-0.0", "000.000", "0012.5000", "-7", "1" * 32 + "." + "5" * 32,
            "0." + "0" * 31 + "1", "1" * 33, "1." + "0" * 33, "+1", " 1", "1 ", "1_000",
            "\u0661", "\uff15.5", "1e3", "1E-3", "3/4", "1/0", "2.", ".5", "-.5", "", "-",
            "7" * 4300, "-" + "7" * 4297 + ".25", "7" * 4301, "-" + "7" * 4298 + ".25",
        ],
        ids=lambda text: text if len(text) < 80 else f"{len(text)}-chars",
    )
    def test_pinned_literals(self, text):
        assert literal_outcome(to_rational, text) == literal_outcome(reference_rational, text)


class TestCoprimeFraction:
    """``model._coprime_fraction`` builds the ``Fraction`` the constructor builds of
    a coprime pair. It sets ``Fraction``'s slots by name, and ``Fraction`` has no
    ``__dict__``, so a renamed slot raises here."""

    @given(
        numerator=st.integers(-(2**200), 2**200),
        denominator=st.integers(1, 2**200),
        other=st.fractions(),
    )
    @example(numerator=0, denominator=1, other=Fraction(0))
    def test_same_fraction_as_the_constructor(self, numerator, denominator, other):
        made = Fraction(numerator, denominator)
        built = conncalc.model._coprime_fraction(made.numerator, made.denominator)
        assert type(built) is Fraction and not hasattr(built, "__dict__")
        assert built == made and hash(built) == hash(made) and repr(built) == repr(made)
        assert (built.numerator, built.denominator) == (made.numerator, made.denominator)
        assert built.as_integer_ratio() == made.as_integer_ratio()
        assert pickle.loads(pickle.dumps(built)) == made and copy.deepcopy(built) == made
        assert built + other == made + other and built * other == made * other
        assert built - other == made - other and (built < other) == (made < other)
        if other:
            assert built / other == made / other
        assert str(built) == str(made) and abs(built) == abs(made) and -built == -made


TINY = Fraction(1, 10**100)


class TestAttributeVector:
    def test_defaults(self):
        vec = AttributeVector()
        assert vec.as_tuple() == (Fraction(3, 4),) * 4

    def test_coerces_strings(self):
        vec = AttributeVector(existence="0.5")
        assert vec.existence == Fraction(1, 2)

    @pytest.mark.parametrize("bad", [0, 1, "1.5", "-0.1"])
    def test_rejects_closed_endpoints_and_outside(self, bad):
        with pytest.raises(ValidationError, match="open interval"):
            AttributeVector(inner_state=bad)

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            AttributeVector(existence=0.5)

    @pytest.mark.parametrize(
        "value",
        [0, 1, -TINY, TINY, 1 - TINY, 1 + TINY],
        ids=["0", "1", "below-0", "above-0", "below-1", "above-1"],
    )
    def test_accepts_exactly_the_open_interval_at_its_bounds(self, value):
        for name in ("existence", "inner_state", "external_state", "communication_state"):
            if 0 < value < 1:
                assert getattr(AttributeVector(**{name: value}), name) == value
            else:
                with pytest.raises(ValidationError, match=f"open interval \\(0,1\\): {name}="):
                    AttributeVector(**{name: value})

    @given(st.one_of(support.attribute_vectors, support.coprime_attribute_vectors))
    def test_impact_factor_equals_the_oracle(self, vec):
        entity = Entity(id="x", kind=EntityKind.KNOWN, attributes=vec)
        assert impact_factor(entity) == support.oracle_impact(entity)

    @given(support.attribute_vectors)
    def test_impact_factor_is_the_mean_and_stays_inside_the_interval(self, vec):
        entity = Entity(id="x", kind=EntityKind.KNOWN, attributes=vec)
        value = impact_factor(entity)
        assert value == sum(vec.as_tuple(), Fraction(0)) / 4
        assert 0 < value < 1


class TestEntityAndConnection:
    def test_entity_coerces_kind_string(self):
        assert Entity(id="x", kind="hidden").kind is EntityKind.HIDDEN

    def test_entity_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            Entity(id="x", kind="ghost")

    def test_connection_coerces_kind_and_magnitude(self):
        c = Connection(id="c", src="a", dst="b", kind="real", polarity=1, magnitude="2.5")
        assert c.kind is ConnectionKind.REAL
        assert c.magnitude == Fraction(5, 2)

    # A kind or mode that was neither its enum's member nor a str went to the enum's
    # lookup, which hashed it: an error its ``__hash__`` raised escaped the constructor.
    @pytest.mark.parametrize(
        "build, enum",
        [
            (lambda value: Entity("a", value), "EntityKind"),
            (lambda value: Connection("c", "a", "b", value, 1, 2), "ConnectionKind"),
            (lambda value: scenario_of(scoring_mode=value), "ScoringMode"),
            (
                lambda value: conncalc.model.with_scoring_mode(scenario_of(), value),
                "ScoringMode",
            ),
        ],
        ids=["entity-kind", "connection-kind", "scoring-mode", "with-scoring-mode"],
    )
    def test_a_kind_that_is_not_a_str_is_a_type_error(self, build, enum):
        class Unhashable:
            def __hash__(self):
                raise RuntimeError("hashed")

        class Text(str):
            pass

        for value in (Unhashable(), 1, None, Text("raw")):
            with pytest.raises(TypeError, match=f"{enum} takes a member or a str, not "):
                build(value)
        with pytest.raises(ValueError):
            build("ghost")



def _builder_values(which: str) -> tuple:
    """The field values of a parsed sample record or of a closure addition."""
    if which == "plain-sample":
        from .test_io import PLAIN_SAMPLES  # a top-level import would be circular

        record = Connection(**PLAIN_SAMPLES["connections"])
    else:
        entities = (Entity("a", "known"), Entity("b", "known"))
        record = silent_closure(scenario_of(entities=entities)).connection("sc:a:b:0")
    return tuple(getattr(record, f.name) for f in fields(Connection))


class TestNewConnection:
    """``model._new_connection`` builds the same frozen ``Connection`` as the
    constructor from values that already have their field types."""

    @pytest.mark.parametrize("which", ["plain-sample", "closure"])
    def test_same_record_as_the_constructor(self, which):
        values = _builder_values(which)
        built, made = conncalc.model._new_connection(*values), Connection(*values)
        assert type(built) is Connection
        assert built == made and hash(built) == hash(made) and repr(built) == repr(made)
        assert replace(built, blocked=True) == replace(made, blocked=True)
        assert copy.deepcopy(built) == made
        assert pickle.loads(pickle.dumps(built)) == made
        with pytest.raises(FrozenInstanceError):
            built.magnitude = Fraction(3)

    def test_the_twin_has_the_same_slots(self):
        assert conncalc.model._new_connection.twin.__slots__ == Connection.__slots__


class TestScenarioContainer:
    def test_sorts_entities_and_connections_by_id(self):
        s = Scenario(
            entities=(Entity("b", "known"), Entity("a", "known")),
            connections=(conn("z", "a", "a"), conn("m", "a", "b")),
            host="a",
        )
        assert [e.id for e in s.entities] == ["a", "b"]
        assert [c.id for c in s.connections] == ["m", "z"]

    def test_lookup_and_missing_ids(self):
        s = scenario_of(conn("c", "a", "a"))
        assert s.entity("a").id == "a"
        assert s.connection("c").id == "c"
        assert s.has_connection("c") and not s.has_connection("zz")
        with pytest.raises(IntegrityError, match="unknown entity"):
            s.entity("zz")
        with pytest.raises(IntegrityError, match="unknown connection"):
            s.connection("zz")

    # A value that is not a record once raised a bare AttributeError from the id sort.
    @pytest.mark.parametrize(
        "field, record", [("entities", "Entity"), ("connections", "Connection")]
    )
    def test_a_value_that_is_not_a_record_is_a_type_error(self, field, record):
        records = {"entities": (Entity("a", "known"),), "connections": (), field: ("a",)}
        with pytest.raises(TypeError, match=f"expected {record} records, got str"):
            Scenario(host="a", **records)
        with pytest.raises(TypeError, match=f"expected {record} records, got str"):
            Scenario(host="a", **{**records, field: ("a", 7)})

    def test_ids_whose_comparison_raises_keep_their_order(self):
        class Touchy(str):
            def __lt__(self, other):
                raise RuntimeError("compared")

        s = Scenario(
            entities=(Entity("b", "known"), Entity(Touchy("a"), "known")),
            connections=(conn("d", "b", "b"), conn(Touchy("c"), "b", "b")),
            host="b",
        )
        assert [e.id for e in s.entities] == ["b", "a"]
        assert [c.id for c in s.connections] == ["d", "c"]
        assert [str(v) for v in validate_scenario(s)] == [
            "<entity>.id: entity id must be a string",
            "<connection>.id: connection id must be a string",
        ]

    def test_desired_connectivity_is_coerced(self):
        s = scenario_of(conn("c", "a", "a"), desired_connectivity="12.5")
        assert s.desired_connectivity == Fraction(25, 2)


class TestConnectionValue:
    def test_raw_value_is_signed_magnitude(self):
        s = scenario_of(conn("c", "a", "b", polarity=-1, magnitude=7))
        assert connection_value(s.connection("c"), s) == Fraction(-7)

    def test_blocked_contributes_zero_unless_ignored(self):
        s = scenario_of(conn("c", "a", "b", magnitude=7, blocked=True))
        c = s.connection("c")
        assert connection_value(c, s) == 0
        assert connection_value(c, s, ignore_blocked=True) == Fraction(7)

    def test_impact_weighting_scales_by_endpoint_means(self):
        quarter = AttributeVector(*(Fraction(1, 4),) * 4)
        entities = (
            Entity(id="a", kind=EntityKind.KNOWN, attributes=quarter),
            Entity(id="b", kind=EntityKind.KNOWN),
        )
        s = Scenario(
            entities=entities,
            connections=(conn("c", "a", "b", magnitude=8),),
            host="a",
            scoring_mode=ScoringMode.IMPACT_WEIGHTED,
        )
        # mean of impacts: (1/4 + 3/4) / 2 = 1/2
        assert connection_value(s.connection("c"), s) == Fraction(4)

    def test_unknown_endpoint_is_an_integrity_error_even_when_blocked(self):
        s = scenario_of(conn("k", "a", "a"))
        stray = conn("x", "a", "zz", blocked=True)
        with pytest.raises(IntegrityError):
            connection_value(stray, s)

    @given(support.scenarios())
    def test_matches_the_referee_summation_oracle(self, s):
        for c in s.connections:
            assert connection_value(c, s) == support.oracle_value(c, s)
            assert connection_value(c, s, ignore_blocked=True) == support.oracle_value(
                c, s, ignore_blocked=True
            )


class TestValidation:
    def test_generated_scenarios_are_valid(self):
        import random

        rng = random.Random(7)
        for _ in range(25):
            assert validate_scenario(support.random_scenario(rng)) == []

    def test_unknown_host(self):
        s = scenario_of(conn("c", "a", "a"))
        bad = Scenario(entities=s.entities, connections=s.connections, host="zz")
        assert any(v.field == "host" for v in validate_scenario(bad))

    def test_empty_host(self):
        s = scenario_of(conn("c", "a", "a"))
        bad = Scenario(entities=s.entities, connections=s.connections, host="")
        assert any(v.field == "host" for v in validate_scenario(bad))

    def test_duplicate_entity_ids(self):
        bad = Scenario(
            entities=(Entity("a", "known"), Entity("a", "hidden")),
            connections=(),
            host="a",
        )
        assert any(v.field == "id" and v.subject == "a" for v in validate_scenario(bad))

    def test_duplicate_connection_ids(self):
        bad = scenario_of(conn("c", "a", "b"), conn("c", "b", "a"))
        assert any(
            v.field == "id" and "duplicate connection" in v.message
            for v in validate_scenario(bad)
        )

    def test_unknown_endpoints(self):
        s = scenario_of(conn("k", "a", "a"))
        bad = Scenario(
            entities=s.entities,
            connections=s.connections + (conn("c", "a", "zz"),),
            host="a",
        )
        assert any(v.field == "dst" for v in validate_scenario(bad))

    def test_loop_kind_mismatch_both_directions(self):
        loop_not_self = scenario_of(conn("c", "a", "a", kind=ConnectionKind.REAL))
        assert any(v.field == "kind" for v in validate_scenario(loop_not_self))
        self_not_loop = scenario_of(conn("c", "a", "b", kind=ConnectionKind.SELF))
        assert any(v.field == "kind" for v in validate_scenario(self_not_loop))

    def test_polarity_must_be_unit(self):
        bad = scenario_of(conn("c", "a", "b", polarity=2))
        assert any(v.field == "polarity" for v in validate_scenario(bad))

    # A polarity equal to 1 or -1 but not an int once passed validation, and
    # then failed the score or the writer with a bare TypeError.
    @pytest.mark.parametrize(
        "value, shown", [(1.0, "1.0"), (-1.0, "-1.0"), (Fraction(1), "1"), (True, "True")]
    )
    def test_polarity_must_be_an_int(self, value, shown):
        bad = scenario_of(conn("c", "a", "b", polarity=value))
        message = f"c.polarity: polarity must be +1 or -1, got {shown}"
        assert [str(v) for v in validate_scenario(bad)] == [message]
        for use in (connectivity_score, serialize_scenario, export_dot):
            with pytest.raises(ValidationError, match=re.escape(message)):
                use(bad)

        # An int subclass is not an int: it is tested by its exact type, as a file's is.
        class Sign(int):
            pass

        subclassed = scenario_of(conn("c", "a", "b", polarity=Sign(-1)))
        assert [str(v) for v in validate_scenario(subclassed)] == [
            "c.polarity: polarity must be +1 or -1, got -1"
        ]

    # An id that is not a string once passed validation, and then failed the
    # writer with a bare TypeError and the DOT export with an AttributeError.
    def test_a_connection_id_must_be_a_string(self):
        bad = scenario_of(conn(7, "a", "b"))
        message = "<connection>.id: connection id must be a string"
        assert [str(v) for v in validate_scenario(bad)] == [message]
        for use in (serialize_scenario, export_dot):
            with pytest.raises(ValidationError, match=message):
                use(bad)

    def test_an_entity_id_must_be_a_string(self):
        bad = Scenario(entities=(Entity(7, "known"),), connections=(), host=7)
        message = "<entity>.id: entity id must be a string"
        assert [str(v) for v in validate_scenario(bad)] == [
            message, "7.host: host id does not name an entity",
        ]
        for use in (serialize_scenario, export_dot):
            with pytest.raises(ValidationError, match=message):
                use(bad)

    # Ids of mixed types cannot be sorted, and the sort once raised a bare TypeError
    # before validation could report the id that is not a string.
    ENTITY_ID_MESSAGE = "<entity>.id: entity id must be a string"
    CONNECTION_ID_MESSAGE = "<connection>.id: connection id must be a string"

    @staticmethod
    def _reports(bad: Scenario, message: str) -> None:
        assert message in [str(v) for v in validate_scenario(bad)]
        with pytest.raises(ValidationError, match=message):
            ensure_valid(bad)

    def test_entity_ids_of_mixed_types_are_reported(self):
        entities = (Entity("a", "known"), Entity(7, "known"))
        bad = Scenario(entities=entities, connections=(), host="a")
        assert [e.id for e in bad.entities] == ["a", 7]
        self._reports(bad, self.ENTITY_ID_MESSAGE)

    def test_connection_ids_of_mixed_types_are_reported(self):
        bad = scenario_of(conn("c", "a", "b"), conn(7, "a", "b"))
        assert [c.id for c in bad.connections] == ["c", 7]
        self._reports(bad, self.CONNECTION_ID_MESSAGE)

    def test_with_connection_of_another_id_type_is_reported(self):
        s = scenario_of(conn("c", "a", "b"))
        bad = replace(s, connections=s.connections + (conn(7, "a", "b"),))
        self._reports(bad, self.CONNECTION_ID_MESSAGE)

    def test_replace_with_ids_of_mixed_types_is_reported(self):
        s = scenario_of(conn("c", "a", "b"))
        bad = replace(s, entities=s.entities + (Entity(7, "known"),))
        self._reports(bad, self.ENTITY_ID_MESSAGE)

    @pytest.mark.parametrize("magnitude,ok", [(1, True), (10, True), ("0.5", False), (11, False)])
    def test_magnitude_bounds_are_inclusive(self, magnitude, ok):
        s = scenario_of(conn("c", "a", "b", magnitude=magnitude))
        violations = [v for v in validate_scenario(s) if v.field == "magnitude"]
        assert (violations == []) is ok
        if not ok:
            assert "[1, 10]" in violations[0].message
            assert violations[0].subject == "c"

    def test_time_index_must_be_a_non_negative_int(self):
        bad = scenario_of(conn("c", "a", "b", time_index=-1))
        assert any(v.field == "time_index" for v in validate_scenario(bad))
        disguised = scenario_of(conn("c", "a", "b", time_index=True))
        assert any(v.field == "time_index" for v in validate_scenario(disguised))

        class Tick(int):
            pass

        cases = ((3, False), (Tick(3), True), (Tick(-1), True), (Fraction(2), True), ("2", True))
        for value, flagged in cases:
            s = scenario_of(conn("c", "a", "b", time_index=value))
            assert any(v.field == "time_index" for v in validate_scenario(s)) is flagged, value

    # A flag that is not a bool once passed validation and was written as a
    # default the canonical form omits, or as ``true``: neither read back equal.
    @pytest.mark.parametrize(
        "flag, value", [("blocked", ""), ("blocked", None), ("blocked", "no"), ("confirmed", 1)]
    )
    def test_a_flag_must_be_a_bool(self, flag, value):
        bad = scenario_of(conn("c", "a", "b", **{flag: value}))
        message = f"{flag} must be true or false"
        assert [str(v) for v in validate_scenario(bad)] == [f"c.{flag}: {message}"]
        with pytest.raises(ValidationError, match=f"c.{flag}: {message}"):
            ensure_valid(bad)
        with pytest.raises(ValidationError):
            serialize_scenario(bad)
        for good in (False, True):
            assert validate_scenario(scenario_of(conn("c", "a", "b", **{flag: good}))) == []

    def test_roster_ref_must_exist(self):
        s = scenario_of(conn("c", "a", "b"), ideal_roster=(RosterRef(ref="nope"),))
        assert any(v.field == "ref" for v in validate_scenario(s))

    def test_roster_hypothetical_endpoints_and_magnitude(self):
        s = scenario_of(
            conn("c", "a", "b"),
            ideal_roster=(RosterHypothetical(src="a", dst="zz", magnitude=99),),
        )
        fields = {v.field for v in validate_scenario(s)}
        assert "dst" in fields and "magnitude" in fields

    @staticmethod
    def _reports_only(bad: Scenario, message: str) -> None:
        assert [str(v) for v in validate_scenario(bad)] == [message]
        with pytest.raises(ValidationError, match=re.escape(message)):
            ensure_valid(bad)

    # A list or dict in an id's place once raised a bare ``TypeError: unhashable type``
    # from the lookup that validation makes of it.
    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda ab: scenario_of(conn(["c"], "a", "b")),
                "<connection>.id: connection id must be a string",
            ),
            (
                lambda ab: scenario_of(conn("c", ["a"], "b"), entities=ab),
                "c.src: endpoint ['a'] is not an entity",
            ),
            (
                lambda ab: scenario_of(conn("c", "a", {"b": 1}), entities=ab),
                "c.dst: endpoint {'b': 1} is not an entity",
            ),
            (
                lambda ab: Scenario(entities=ab, connections=(), host=["a"]),
                "['a'].host: host id does not name an entity",
            ),
            (
                lambda ab: scenario_of(conn("c", "a", "b"), ideal_roster=(RosterRef(["c"]),)),
                "ideal_roster[0].ref: no connection with id ['c']",
            ),
            (
                lambda ab: scenario_of(
                    conn("c", "a", "b"), ideal_roster=(RosterHypothetical(["a"], "b", 2),)
                ),
                "ideal_roster[0].src: endpoint ['a'] is not an entity",
            ),
            (
                lambda ab: scenario_of(
                    conn("c", "a", "b"), ideal_roster=(RosterHypothetical("a", {"b": 1}, 2),)
                ),
                "ideal_roster[0].dst: endpoint {'b': 1} is not an entity",
            ),
        ],
        ids=["connection-id", "src", "dst", "host", "roster-ref", "roster-src", "roster-dst"],
    )
    def test_an_unhashable_id_is_reported(self, build, message):
        self._reports_only(build((Entity("a", "known"), Entity("b", "known"))), message)

    # A time index too long to print once validated, and then failed the writer with a
    # bare ValueError from ``int.__repr__``.
    def test_a_time_index_too_long_to_print_is_reported(self):
        bad = scenario_of(conn("c", "a", "a", time_index=10**5000))
        message = "c.time_index: number too long to print exactly (over 4300 digits)"
        self._reports_only(bad, message)
        with pytest.raises(ValidationError, match=re.escape(message)):
            serialize_scenario(bad)
        longest = scenario_of(conn("c", "a", "a", time_index=10**4299))
        assert f'"time_index": {10**4299}\n' in serialize_scenario(longest)

    # Values that are not strings were once hashed, compared or printed by validation,
    # and an error their own method raised escaped ``ensure_valid``.
    @pytest.mark.parametrize(
        "build, message",
        [
            (
                lambda odd: scenario_of(
                    conn("c", "a", odd, kind=ConnectionKind.REAL), entities=(Entity("a", "known"),)
                ),
                "c.dst: endpoint 'a' is not an entity",
            ),
            (
                lambda odd: scenario_of(entities=(Entity("a", "known"),), host=odd),
                "a.host: host id does not name an entity",
            ),
            (
                lambda odd: scenario_of(conn("a", "a", "a"), ideal_roster=(RosterRef(odd),)),
                "ideal_roster[0].ref: no connection with id 'a'",
            ),
            (
                lambda odd: scenario_of(
                    conn("c", odd, "a", kind=ConnectionKind.SELF), entities=(Entity("a", "known"),)
                ),
                "c.src: endpoint 'a' is not an entity",
            ),
        ],
        ids=["dst", "host", "roster-ref", "src-of-a-loop"],
    )
    def test_a_str_subclass_is_reported_without_calling_it(self, build, message):
        class Touchy(str):
            def __eq__(self, other):
                raise RuntimeError("compared")

            __hash__ = str.__hash__

        self._reports_only(build(Touchy("a")), message)

    def test_a_number_too_long_to_print_is_reported_as_a_placeholder(self):
        huge = 10**5000
        bad = scenario_of(conn("c", "a", huge, polarity=huge), entities=(Entity("a", "known"),))
        assert [str(v) for v in validate_scenario(bad)] == [
            "c.dst: endpoint <number too long to print> is not an entity",
            "c.polarity: polarity must be +1 or -1, got <number too long to print>",
        ]

    def test_a_roster_entry_of_another_type_is_reported(self):
        bad = scenario_of(conn("c", "a", "b"), ideal_roster=("c",))
        message = "ideal_roster[0].entry: entry must be a RosterRef or a RosterHypothetical"
        self._reports_only(bad, message)

    # Attributes that are not an AttributeVector once validated, and then failed the
    # writer and impact-weighted scoring with an AttributeError.
    ATTRIBUTES_MESSAGE = "a.attributes: attributes must be an AttributeVector"

    def test_missing_attributes_fail_serialization_as_invalid(self):
        bad = scenario_of(entities=(Entity("a", EntityKind.KNOWN, None),))
        self._reports_only(bad, self.ATTRIBUTES_MESSAGE)
        with pytest.raises(ValidationError, match=self.ATTRIBUTES_MESSAGE):
            serialize_scenario(bad)

    def test_missing_attributes_fail_impact_weighted_efficiency_as_invalid(self):
        bad = scenario_of(
            conn("c", "a", "b"),
            entities=(Entity("a", EntityKind.KNOWN, None), Entity("b", "known")),
            scoring_mode=ScoringMode.IMPACT_WEIGHTED,
        )
        self._reports_only(bad, self.ATTRIBUTES_MESSAGE)
        with pytest.raises(ValidationError, match=self.ATTRIBUTES_MESSAGE):
            efficiency(bad)

    def test_ensure_valid_summarizes_and_carries_all_violations(self):
        bad = scenario_of(
            conn("c1", "a", "b", polarity=3, magnitude=0),
            conn("c2", "a", "b", polarity=0, magnitude=11),
            conn("c3", "a", "a", kind=ConnectionKind.REAL),
        )
        with pytest.raises(ValidationError) as excinfo:
            ensure_valid(bad)
        err = excinfo.value
        assert "and" in str(err) and "more" in str(err)
        assert len(err.violations) >= 4

    def test_ensure_valid_passes_silently_on_valid_input(self):
        ensure_valid(scenario_of(conn("c", "a", "b")))

    def test_shared_magnitude_objects_give_one_violation_per_record(self):
        # Validation checks each distinct magnitude object once; every record
        # holding a bad one still gets its own violation, in record order.
        wide, equal_wide = Fraction(11), Fraction(11)
        unprintable = Fraction(2**15000 + 1, 2**15000)  # in [1, 10], 15,001 digits
        equal_unprintable = Fraction(2**15000 + 1, 2**15000)
        s = scenario_of(
            conn("c1", "a", "b", magnitude=wide),
            conn("c2", "a", "b", magnitude=equal_wide),
            conn("c3", "a", "b", magnitude=unprintable),
            conn("c4", "a", "b", magnitude=wide),
            conn("c5", "a", "b", magnitude=Fraction(2)),
            conn("c6", "a", "b", magnitude=unprintable),
            conn("c7", "a", "b", magnitude=equal_unprintable),
            conn("c8", "a", "b", polarity=2, magnitude=wide),
            ideal_roster=(
                RosterHypothetical(src="a", dst="b", magnitude=wide),
                RosterHypothetical(src="a", dst="b", magnitude=unprintable),
            ),
        )
        assert s.connection("c4").magnitude is wide and s.ideal_roster[1].magnitude is unprintable
        outside = "magnitude 11 outside [1, 10]"
        too_long = "number too long to print exactly (over 4300 digits)"
        assert [(v.subject, v.field, v.message) for v in validate_scenario(s)] == [
            ("c1", "magnitude", outside),
            ("c2", "magnitude", outside),
            ("c3", "magnitude", too_long),
            ("c4", "magnitude", outside),
            ("c6", "magnitude", too_long),
            ("c7", "magnitude", too_long),
            ("c8", "polarity", "polarity must be +1 or -1, got 2"),
            ("c8", "magnitude", outside),
            ("ideal_roster[0]", "magnitude", outside),
            ("ideal_roster[1]", "magnitude", too_long),
        ]


# The magnitude scale of the benchmark's generated files.
MAGNITUDE_SCALE = ("1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "1.5", "2.5", "7.25", "9.5")


class TestSharedValueCounts:
    """A parsed file shares one object per repeated literal, and validation
    and impact factors do their work once per distinct object. These count
    calls and never time anything."""

    def test_validation_checks_each_distinct_magnitude_once(self, monkeypatch):
        rng = support.random.Random(2024)
        s = support.random_scenario(
            rng, max_entities=40, min_connections=2000, max_connections=2000, with_roster=False
        )
        connections = tuple(
            replace(c, magnitude=Fraction(rng.choice(MAGNITUDE_SCALE))) for c in s.connections
        )
        text = serialize_scenario(replace(s, connections=connections))
        calls = []
        original = conncalc.model._check_magnitude

        def counted(magnitude):
            calls.append(magnitude)
            return original(magnitude)

        monkeypatch.setattr(conncalc.model, "_check_magnitude", counted)
        parsed = parse_scenario(text).scenario
        assert parsed is not None and len(parsed.connections) == 2000
        distinct = {id(c.magnitude) for c in parsed.connections}
        assert len(calls) == len(distinct) <= len(MAGNITUDE_SCALE)

    def test_impact_factors_value_each_distinct_vector_once(self, monkeypatch):
        rng = support.random.Random(2024)

        def drawn() -> AttributeVector:
            return AttributeVector(*(Fraction(rng.randint(1, 99), 100) for _ in range(4)))

        entities = [
            Entity(f"e{i:04d}", "known", drawn()) if i % 5 == 0 else Entity(f"e{i:04d}", "known")
            for i in range(1000)
        ]
        # Parsed, the 800 entities without attributes share the one default vector.
        text = serialize_scenario(scenario_of(entities=tuple(entities), host="e0000"))
        parsed = parse_scenario(text)
        calls = []
        original = conncalc.model.impact_factor

        def counted(entity):
            calls.append(entity.id)
            return original(entity)

        monkeypatch.setattr(conncalc.model, "impact_factor", counted)
        factors = parsed.scenario.impact_factors
        assert len(calls) <= 201
        assert factors == {e.id: support.oracle_impact(e) for e in parsed.scenario.entities}
