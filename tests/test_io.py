"""Parsing, canonical serialization, DOT export, and report rendering."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import decimal
import hashlib
import io
import json
import random
import re
import sys
from collections import Counter
from enum import Enum
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import conncalc.model
import conncalc.scenario_io
from conncalc import (
    AttributeVector,
    Band,
    ComputationError,
    ConfusionCause,
    ConfusionReport,
    Connection,
    ConnectionKind,
    ConnectivityReport,
    Entity,
    ParseDiagnostic,
    ParseResult,
    Path as ConnectionPath,
    QualityTrajectory,
    RemovalOrder,
    ReplacementReport,
    RosterHypothetical,
    RosterRef,
    Scenario,
    ScoringMode,
    Severity,
    TrajectoryStep,
    ValidationError,
    connectivity_score,
    detect_confusion,
    efficiency,
    emit_report,
    ensure_valid,
    export_dot,
    find_paths,
    format_rational,
    make_entity,
    parse_connection_doc,
    parse_scenario,
    run_removal,
    run_replacement,
    serialize_scenario,
    silent_closure,
    to_rational,
)
from conncalc.cli import main
from conncalc.metrics import QualityReport, quality_report
from conncalc.paths import PathsReport
from conncalc.scenario_io import (
    _ATTRIBUTE_FIELDS,
    _CONNECTION_FIELDS,
    _ENTITY_FIELDS,
    _HYPOTHETICAL_FIELDS,
    _REQUIRED,
    _TABLE_LINES,
    ValidationReport,
    _build,
    _connection_list,
    _entity_list,
    _fields,
)

from . import support, test_cli
from .conftest import FIXTURES, GOLDEN
from .dotparse import parse_dot
from .test_model import conn, scenario_of

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402 - the benchmark's input generator
import oracle  # noqa: E402 - the benchmark's independent output checks


def minimal_doc(**overrides) -> dict:
    doc = {
        "version": 1,
        "host": "a",
        "entities": [{"id": "a", "kind": "known"}, {"id": "b", "kind": "known"}],
        "connections": [
            {"id": "ab", "src": "a", "dst": "b", "kind": "real", "polarity": 1, "magnitude": "2"}
        ],
    }
    doc.update(overrides)
    return doc


def parse_doc(**overrides):
    return parse_scenario(json.dumps(minimal_doc(**overrides)))


def error_text(result) -> str:
    return "\n".join(str(d) for d in result.errors)


# Values whose denominators are 2**a * 5**b, so they print as decimals.
DECIMAL_FRACTIONS = st.builds(
    lambda num, twos, fives: Fraction(num, 2**twos * 5**fives),
    st.integers(min_value=-(10**9), max_value=10**9),
    st.integers(min_value=0, max_value=40),
    st.integers(min_value=0, max_value=40),
)


PRINTABLE_BITS = conncalc.model._PRINTABLE_BITS
TERMINATING_EXPONENTS = (1, 2, 3, 10, 64, PRINTABLE_BITS - 1, PRINTABLE_BITS)


class TestFormatRational:
    @pytest.mark.parametrize(
        ("value", "text"),
        [
            (Fraction(7), "7"),
            (Fraction(0), "0"),
            (Fraction(-3), "-3"),
            (Fraction(-25, 2), "-12.5"),
            (Fraction(3, 4), "0.75"),
            (Fraction(1, 8), "0.125"),
            (Fraction(7, 50), "0.14"),
            (Fraction(1000, 8), "125"),
            (Fraction(1, 3), "1/3"),
            (Fraction(-1, 3), "-1/3"),
            (Fraction(400, 9), "400/9"),
            (Fraction(1, 10**6), "0.000001"),
            (Fraction(1, 6), "1/6"),
            (Fraction(-7, 2**10 * 5**3 * 3), "-7/384000"),
        ],
    )
    def test_shortest_exact_form(self, value, text):
        assert format_rational(value) == text

    @pytest.mark.parametrize(
        ("twos", "fives"),
        [(k, 0) for k in TERMINATING_EXPONENTS]
        + [(0, k) for k in TERMINATING_EXPONENTS]
        + [(1, 1), (3, 1), (1, 3), (7, 64), (64, 7), (PRINTABLE_BITS, 1), (1, PRINTABLE_BITS),
           (PRINTABLE_BITS - 1, PRINTABLE_BITS), (PRINTABLE_BITS, PRINTABLE_BITS)],
    )
    def test_terminating_decimal_denominators(self, twos, fives):
        # The expected text is the exact quotient in decimal arithmetic.
        context = decimal.Context(prec=2 * PRINTABLE_BITS)
        for numerator in (1, -3, 77, 2**PRINTABLE_BITS + 1):
            value = Fraction(numerator, 2**twos * 5**fives)
            quotient = context.divide(*map(decimal.Decimal, value.as_integer_ratio()))
            assert not context.flags[decimal.Inexact]
            assert format_rational(value) == format(quotient, "f"), (numerator, twos, fives)

    @given(support.rationals | DECIMAL_FRACTIONS)
    def test_output_reads_back_exactly(self, value):
        assert Fraction(format_rational(value)) == value

    @given(support.rationals | DECIMAL_FRACTIONS)
    def test_shortest_form_property(self, value):
        text = format_rational(value)
        rest = value.denominator
        for prime in (2, 5):
            while rest % prime == 0:
                rest //= prime
        assert ("/" in text) == (rest != 1)
        assert ("." in text) == (rest == 1 and value.denominator != 1)
        assert not ("." in text and text.endswith(("0", ".")))

    def test_past_the_int_to_str_digit_limit_is_a_computation_error(self):
        for value in (Fraction(10**5000), Fraction(10**5000 + 1, 3)):
            with pytest.raises(ComputationError, match="too long to print exactly"):
                format_rational(value)
        # A long decimal whose digit runs stay under the limit still prints.
        assert format_rational(Fraction(1, 10**5000)) == "0." + "0" * 4999 + "1"


class TestParseScenario:
    def test_fixtures_parse_clean(self, office_path, confusion_path):
        for path in (office_path, confusion_path):
            result = parse_scenario(path.read_text())
            assert result.ok
            assert result.diagnostics == ()

    def test_minimal_document(self):
        result = parse_doc()
        assert result.ok and result.diagnostics == ()
        s = result.scenario
        assert s.host == "a"
        assert s.desired_connectivity is None
        assert s.ideal_roster is None
        assert s.connection("ab").magnitude == Fraction(2)

    def test_invalid_json_reports_position(self):
        result = parse_scenario('{"version": 1,}')
        assert not result.ok
        assert len(result.errors) == 1
        message = str(result.errors[0])
        assert "invalid JSON" in message and "line 1" in message

    def test_top_level_must_be_an_object(self):
        result = parse_scenario("[1, 2]")
        assert not result.ok
        assert "must be an object" in error_text(result)

    def test_missing_required_keys_are_each_reported(self):
        result = parse_scenario("{}")
        assert not result.ok
        locations = {d.location for d in result.errors}
        assert {"version", "host", "entities", "connections"} <= locations

    def test_wrong_version_is_rejected(self):
        result = parse_doc(version=2)
        assert not result.ok
        assert "unsupported format version 2" in error_text(result)

    def test_unknown_keys_warn_but_do_not_block(self):
        doc = minimal_doc(color="blue")
        doc["entities"][0]["nickname"] = "Al"
        doc["connections"][0]["weight"] = 3
        result = parse_scenario(json.dumps(doc))
        assert result.ok
        warned = {d.location for d in result.warnings}
        assert warned == {"document.color", "entities[0].nickname", "connections[0].weight"}
        assert all(d.severity is Severity.WARNING for d in result.warnings)

    def test_mode_defaults_to_raw_and_validates(self):
        assert parse_doc().scenario.scoring_mode.value == "raw"
        weighted = parse_doc(mode="impact_weighted")
        assert weighted.scenario.scoring_mode.value == "impact_weighted"
        bogus = parse_doc(mode="vibes")
        assert not bogus.ok
        assert "unknown scoring mode" in error_text(bogus)

    def test_out_of_range_magnitude_names_the_connection(self):
        doc = minimal_doc()
        doc["connections"][0]["magnitude"] = "11"
        result = parse_scenario(json.dumps(doc))
        assert not result.ok
        assert any(
            d.location == "ab.magnitude" and "[1, 10]" in d.message for d in result.errors
        )

    def test_bad_polarity_values(self):
        for bad in (2, 0, True, "1"):
            doc = minimal_doc()
            doc["connections"][0]["polarity"] = bad
            result = parse_scenario(json.dumps(doc))
            assert not result.ok, bad
            assert "polarity must be 1 or -1" in error_text(result)

    def test_flags_must_be_booleans(self):
        doc = minimal_doc()
        doc["connections"][0]["blocked"] = "yes"
        result = parse_scenario(json.dumps(doc))
        assert not result.ok
        assert "blocked must be true or false" in error_text(result)

    def test_time_index_must_be_an_integer(self):
        doc = minimal_doc()
        doc["connections"][0]["time_index"] = 1.5
        result = parse_scenario(json.dumps(doc))
        assert not result.ok
        assert "time_index must be an integer" in error_text(result)

    @pytest.mark.parametrize(
        "magnitude, message",
        [
            ("seven", "not a numeric string: 'seven'"),
            ("1/0", "not a numeric string: '1/0'"),
            (True, "expected a number as a decimal string, got a boolean"),
            (None, "expected a number as a decimal string, got NoneType"),
            ([], "expected a number as a decimal string, got list"),
            ({}, "expected a number as a decimal string, got dict"),
            ("1e10000000", "numeric literal has an exponent past 10000"),
            (float("inf"), "expected a number as a decimal string, got float"),  # bare Infinity
        ],
        ids=["word", "zero-denominator", "true", "null", "array", "object", "huge", "Infinity"],
    )
    def test_bad_number_diagnostic_text(self, magnitude, message):
        doc = minimal_doc()
        doc["connections"][0]["magnitude"] = magnitude
        result = parse_scenario(json.dumps(doc))
        location = "connections[0].magnitude"
        assert [d for d in result.diagnostics if d.location == location] == [
            ParseDiagnostic(Severity.ERROR, location, message)
        ]

    def test_json_floats_decode_exactly(self):
        doc = minimal_doc()
        doc["connections"][0]["magnitude"] = 2.5
        result = parse_scenario(json.dumps(doc))
        assert result.ok
        magnitude = result.scenario.connection("ab").magnitude
        assert isinstance(magnitude, Fraction) and magnitude == Fraction(5, 2)

    def test_whitespace_padded_literal_decodes(self):
        doc = minimal_doc()
        doc["connections"][0]["magnitude"] = " " * 100_000 + "2"
        result = parse_scenario(json.dumps(doc))
        assert result.ok
        assert result.scenario.connection("ab").magnitude == Fraction(2)

    def test_attributes_require_all_four_fields(self):
        doc = minimal_doc()
        doc["entities"][0]["attributes"] = {"existence": "0.5"}
        result = parse_scenario(json.dumps(doc))
        assert not result.ok
        locations = {d.location for d in result.errors}
        assert "entities[0].attributes.inner_state" in locations

    def test_attribute_bounds_are_enforced(self):
        doc = minimal_doc()
        doc["entities"][0]["attributes"] = {
            "existence": "1",
            "inner_state": "0.5",
            "external_state": "0.5",
            "communication_state": "0.5",
        }
        result = parse_scenario(json.dumps(doc))
        assert not result.ok
        assert "open interval" in error_text(result)

    def test_desired_connectivity_accepts_fraction_strings(self):
        result = parse_doc(desired_connectivity="1/3")
        assert result.ok
        assert result.scenario.desired_connectivity == Fraction(1, 3)

    def test_roster_entry_needs_exactly_one_shape(self):
        for entry in ({}, {"ref": "ab", "hypothetical": {}}):
            result = parse_doc(ideal_roster=[entry])
            assert not result.ok
            assert "exactly one of 'ref' or 'hypothetical'" in error_text(result)

    def test_dangling_roster_ref_is_a_validation_error(self):
        result = parse_doc(ideal_roster=[{"ref": "nope"}])
        assert not result.ok
        assert "nope" in error_text(result)

    def test_duplicate_connection_ids_are_rejected(self):
        doc = minimal_doc()
        doc["connections"].append(dict(doc["connections"][0]))
        result = parse_scenario(json.dumps(doc))
        assert not result.ok
        assert "duplicate" in error_text(result)

    def test_unknown_host_is_a_validation_error(self):
        result = parse_doc(host="ghost")
        assert not result.ok
        assert "ghost" in error_text(result)


    def test_every_seeded_mutation_that_parses_writes_back_through_closure(self):
        docs = mutation_sources()
        accepted = 0
        for seed in range(4000):
            result = parse_scenario(json.dumps(seeded_mutation(random.Random(seed), docs)))
            if result.ok:
                accepted += 1
                closed = serialize_scenario(silent_closure(result.scenario))
                assert parse_scenario(closed).ok, seed
        assert accepted > 400

    def test_seeded_mutations_match_the_golden_diagnostics(self):
        # Pins the text and order of every diagnostic, and the canonical bytes
        # of each mutation that still parses, across rewrites of the decoders.
        assert diagnostics_text(GOLDEN_SEEDS) == GOLDEN_DIAGNOSTICS.read_text()


class TestLiteralCheckCount:
    """Parsing checks and decodes each distinct short literal once, however
    often the file repeats it."""

    def test_each_distinct_literal_is_checked_once(self, monkeypatch):
        s = support.random_scenario(
            support.random.Random(2024),
            max_entities=40,
            min_connections=2000,
            max_connections=2000,
        )
        text = serialize_scenario(s)
        doc = json.loads(text)
        literals = [c["magnitude"] for c in doc["connections"]]
        literals += [v for e in doc["entities"] for v in e.get("attributes", {}).values()]
        literals += [
            r["hypothetical"]["magnitude"] for r in doc.get("ideal_roster") or () if "hypothetical" in r
        ]
        literals += [doc["desired_connectivity"]] if "desired_connectivity" in doc else []
        assert len(literals) >= 2000 and max(map(len, literals)) <= 6

        calls = []
        original = conncalc.model.check_literal

        def counted(literal):
            calls.append(literal)
            return original(literal)

        monkeypatch.setattr(conncalc.model, "check_literal", counted)
        result = parse_scenario(text)
        assert result.ok and result.scenario == s
        assert [literal for literal, count in Counter(calls).items() if count > 1] == []
        assert set(calls) <= set(literals)

    @staticmethod
    def _count_checks(monkeypatch) -> list:
        calls = []
        original = conncalc.model.check_literal

        def counted(literal):
            calls.append(literal)
            return original(literal)

        monkeypatch.setattr(conncalc.model, "check_literal", counted)
        return calls

    def test_each_parse_checks_each_distinct_literal_once(self, monkeypatch):
        # A decoded literal lives only as long as its parse: parsing the same
        # text again checks every distinct literal once more.
        s = _large_scenario()
        text = serialize_scenario(s)
        doc = json.loads(text)
        literals = {c["magnitude"] for c in doc["connections"]}
        literals.update(v for e in doc["entities"] for v in e.get("attributes", {}).values())
        literals.update(
            r["hypothetical"]["magnitude"] for r in doc.get("ideal_roster") or () if "hypothetical" in r
        )
        literals.update([doc["desired_connectivity"]] if "desired_connectivity" in doc else [])
        calls = self._count_checks(monkeypatch)
        for _ in range(2):
            calls.clear()
            assert parse_scenario(text).scenario == s
            assert sorted(calls) == sorted(literals)

    def test_a_literal_that_fails_to_decode_is_checked_at_each_use(self, monkeypatch):
        attributes = {
            "existence": "1/0", "inner_state": "1/2", "external_state": "1/2",
            "communication_state": "1/2",
        }
        calls = self._count_checks(monkeypatch)
        result = parse_doc(
            entities=[{"id": name, "kind": "known", "attributes": attributes} for name in "ab"]
        )
        assert [str(d) for d in result.diagnostics] == [
            f"error entities[{i}].attributes.existence: not a numeric string: '1/0'" for i in (0, 1)
        ]
        # "1/0" was never stored, so each entity checked it again: in the plain
        # step, which then refused the record, and in the field table.
        assert Counter(calls) == {"1/0": 4, "1/2": 1, "2": 1}


class TestMagnitudeDecodeCount:
    """The connection walk decodes each distinct magnitude literal once per
    file, from the parse's literal table, however often the file repeats it."""

    def test_each_distinct_magnitude_literal_is_decoded_once(self, monkeypatch):
        s = support.random_scenario(
            support.random.Random(2024),
            max_entities=40,
            min_connections=2000,
            max_connections=2000,
            with_roster=False,
        )
        text = serialize_scenario(s)
        magnitudes = {c["magnitude"] for c in json.loads(text)["connections"]}
        assert len(s.connections) == 2000 and 50 < len(magnitudes) < 100

        decoded = []
        original = conncalc.scenario_io.to_rational

        def counted(value):
            decoded.append(value)
            return original(value)

        monkeypatch.setattr(conncalc.scenario_io, "to_rational", counted)
        assert parse_scenario(text).scenario == s
        assert Counter(v for v in decoded if v in magnitudes) == Counter(magnitudes)

    def test_a_literal_that_fails_to_decode_is_never_stored(self):
        base = PLAIN_STEPS[0][4]
        literals = {}
        for magnitude in ("1/0", "1e99999", "x"):
            assert walked_connection({**base, "magnitude": magnitude}, literals) is None
        assert literals == {}
        first = walked_connection({**base, "magnitude": "5/2"}, literals)
        second = walked_connection({**base, "id": "d", "magnitude": "5/2"}, literals)
        assert literals == {"5/2": Fraction(5, 2)}
        assert first.magnitude is second.magnitude is literals["5/2"]


def _large_scenario():
    return support.random_scenario(
        support.random.Random(2024),
        max_entities=40,
        min_connections=2000,
        max_connections=2000,
    )


def _count_prints(monkeypatch) -> list[Fraction]:
    """Count ``_shortest_text`` calls under both names it is reachable by:
    the list of the values printed, in call order."""
    printed = []
    original = conncalc.model._shortest_text

    def counted(numerator, denominator):
        printed.append(Fraction(numerator, denominator))
        return original(numerator, denominator)

    monkeypatch.setattr(conncalc.model, "_shortest_text", counted)
    monkeypatch.setattr(conncalc.scenario_io, "_shortest_text", counted)
    return printed


class TestRationalTextCount:
    """Serializing prints each rational once per field it writes and writes
    its JSON text without json's pure-Python encoder, which ``indent``
    selects; parsing prints none."""

    def test_each_written_rational_is_printed_once(self, monkeypatch):
        s = _large_scenario()
        written = [c.magnitude for c in s.connections] + [
            value
            for e in s.entities
            if e.attributes != AttributeVector()
            for value in e.attributes.as_tuple()
        ]
        written += [r.magnitude for r in s.ideal_roster or () if isinstance(r, RosterHypothetical)]
        written += [s.desired_connectivity] if s.desired_connectivity is not None else []

        def refuse(*args, **kwargs):
            raise AssertionError("json.encoder._make_iterencode was entered")

        monkeypatch.setattr(json.encoder, "_make_iterencode", refuse)
        printed = _count_prints(monkeypatch)
        text = serialize_scenario(s)
        assert sorted(printed) == sorted(written)
        assert parse_scenario(text).scenario == s

    def test_each_shared_rational_object_is_printed_once_per_call(self, monkeypatch):
        # A parsed generated file: its magnitudes share one object per literal,
        # and its attribute values one per literal too.
        doc = gen.scenario_doc(
            random.Random(3), 200, 2000, silent_share=0.3, blocked_share=0.1, desired=True
        )
        s = parse_scenario(json.dumps(doc)).scenario
        written = [c.magnitude for c in s.connections] + [s.desired_connectivity] + [
            value
            for e in s.entities
            if e.attributes != AttributeVector()
            for value in e.attributes.as_tuple()
        ]
        distinct = list({id(value): value for value in written}.values())
        assert len(s.connections) == 2000 and len(distinct) < len(written) // 10
        printed = _count_prints(monkeypatch)
        text = serialize_scenario(s)
        assert sorted(printed) == sorted(distinct)
        # No text outlives the call: a second call prints every one again.
        printed.clear()
        assert serialize_scenario(s) == text
        assert sorted(printed) == sorted(distinct)

    def test_parsing_prints_no_rational(self, monkeypatch):
        s = _large_scenario()
        text = serialize_scenario(s)
        printed = _count_prints(monkeypatch)
        assert parse_scenario(text).scenario == s
        assert printed == []

    def test_a_long_text_is_printed_every_call_and_not_kept(self):
        for _ in range(2):
            assert format_rational(Fraction(1, 10**9999)) == "0." + "0" * 9998 + "1"

    def test_a_value_with_no_text_form_raises_on_every_call(self):
        for _ in range(2):
            with pytest.raises(ComputationError, match="too long to print exactly"):
                format_rational(Fraction(1, 2**6200))


def _count_connection_inits(monkeypatch) -> list[tuple]:
    """Count ``Connection.__init__`` calls: the list of their arguments."""
    calls = []
    original = Connection.__init__

    def counted(self, *args, **kwargs):
        calls.append((args, kwargs))
        original(self, *args, **kwargs)

    monkeypatch.setattr(Connection, "__init__", counted)
    return calls


class TestConnectionInitCount:
    """Parsing a well-formed file and closing a scenario build their
    connections without ``Connection.__init__``; a record only the field
    table accepts is built by it once."""

    def test_parsing_a_well_formed_file_calls_it_never(self, monkeypatch):
        s = _large_scenario()
        text = serialize_scenario(s)
        inits = _count_connection_inits(monkeypatch)
        assert parse_scenario(text).scenario == s
        assert len(s.connections) == 2000 and inits == []

    def test_closure_calls_it_never(self, monkeypatch):
        s = Scenario(
            entities=tuple(make_entity(f"e{i:02}", "known") for i in range(60)),
            connections=(conn("c", "e00", "e01"),),
            host="e00",
        )
        inits = _count_connection_inits(monkeypatch)
        closed = silent_closure(s)
        assert len(closed.connections) == 1 + 60 + 60 * 59 // 2 - 1
        assert inits == []

    def test_a_record_the_plain_step_refuses_calls_it_once(self, monkeypatch):
        item = {"id": "ab", "src": "a", "dst": "b", "kind": "real", "polarity": 1, "magnitude": 2}
        assert walked_connection(item, {}) is None
        inits = _count_connection_inits(monkeypatch)
        result = parse_doc(connections=[item])
        assert result.ok and result.scenario.connection("ab").magnitude == 2
        assert len(inits) == 1


@contextlib.contextmanager
def int_digit_limit(limit: int | None):
    """Python's int-to-str digit limit set to ``limit`` (None leaves it),
    restored afterwards."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(saved if limit is None else limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _print_outcome(check, value: Fraction) -> str | None:
    """The message of the ComputationError ``check`` raises on ``value``, or None."""
    try:
        check(value.numerator, value.denominator)
    except ComputationError as exc:
        return str(exc)
    return None


def _ints_up_to_bits(bits: int):
    return st.integers(0, bits).flatmap(lambda b: st.integers(-(2**b), 2**b))


# Numerators and denominators on both sides of 400 bits, and denominators
# whose decimal expansion is longer than either digit limit tested.
printable_check_values = st.builds(
    lambda numerator, twos, fives, odd: Fraction(numerator, 2**twos * 5**fives * odd),
    _ints_up_to_bits(2400),
    st.integers(0, 7000),
    st.integers(0, 700),
    st.integers(0, 500).flatmap(lambda b: st.integers(1, 2**b)),
)


class TestPrintableCheck:
    """Validation's printability check raises exactly when printing does,
    and prints no number that is sure to print."""

    @pytest.mark.parametrize("limit", [None, 640], ids=["default", "640"])
    @given(value=printable_check_values)
    def test_raises_exactly_when_printing_does(self, limit, value):
        with int_digit_limit(limit):
            expected = _print_outcome(conncalc.model._shortest_text, value)
            assert _print_outcome(conncalc.model._check_printable, value) == expected

    @pytest.mark.parametrize(
        "value, prints_at_4300, prints_at_640",
        [
            (Fraction(2**400 - 1, 2**399), True, True),
            (Fraction(2**400, 2**401 + 1), True, True),
            # The smallest numerator and denominator of this form past 640 digits.
            (Fraction(2**641 - 1, 2**640), True, False),
            (Fraction(1, 2**1000), True, False),
            (Fraction(2**6200, 3), True, False),
            (Fraction(1, 2**6200), False, False),
        ],
        ids=["400-bits", "p/q-past-400-bits", "641-bits", "1/2^1000", "2^6200/3", "1/2^6200"],
    )
    def test_pinned_values(self, value, prints_at_4300, prints_at_640):
        for limit, prints in ((4300, prints_at_4300), (640, prints_at_640)):
            with int_digit_limit(limit):
                message = f"number too long to print exactly (over {limit} digits)"
                assert _print_outcome(conncalc.model._shortest_text, value) == (
                    None if prints else message
                )
                assert _print_outcome(conncalc.model._check_printable, value) == (
                    None if prints else message
                )

    def test_a_400_bit_value_prints_401_characters_at_the_lowest_limit(self, monkeypatch):
        value = Fraction(2**400 - 1, 2**399)
        with int_digit_limit(640):
            assert len(format_rational(value)) == 401
            printed = _count_prints(monkeypatch)
            conncalc.model._check_printable(value.numerator, value.denominator)
            assert printed == []


def walked_connection(item, literals: dict) -> Connection | None:
    """What the connection walk builds of ``item``, the one record of an array,
    or None when it leaves ``item`` to ``_parse_connection`` (a stand-in here)."""
    refused = []
    original = conncalc.scenario_io._parse_connection
    conncalc.scenario_io._parse_connection = lambda item, *args: refused.append(item)
    try:
        records, _ = _connection_list([item], [], literals, None)
    finally:
        conncalc.scenario_io._parse_connection = original
    return None if refused else records[0]


def walked_entity(item, literals: dict) -> Entity | None:
    """What the entity walk builds of ``item``, the one record of an array, or
    None when it leaves ``item`` to ``_parse_entity`` (a stand-in here)."""
    refused = []
    original = conncalc.scenario_io._parse_entity
    conncalc.scenario_io._parse_entity = lambda item, *args: refused.append(item)
    try:
        records, _ = _entity_list([item], [], literals)
    finally:
        conncalc.scenario_io._parse_entity = original
    return None if refused else records[0]


# Each record type with a walk over its array, the walk taken over one record:
# its array's key, the walk, its field table and class, and a well-formed
# record with only the required fields.
PLAIN_STEPS = (
    ("connections", walked_connection, _CONNECTION_FIELDS, Connection,
     {"id": "c", "src": "a", "dst": "b", "kind": "real", "polarity": 1, "magnitude": "2"}),
    ("entities", walked_entity, _ENTITY_FIELDS, Entity, {"id": "e", "kind": "known"}),
)
# One valid value off its default for each field of those tables. A field
# added to a table needs one here, and the walk must decode it.
PLAIN_SAMPLES = {
    "connections": {
        "id": "c1", "src": "a", "dst": "b", "kind": "silent", "polarity": -1,
        "magnitude": "7/2", "time_index": 3, "blocked": True, "confirmed": True,
    },
    "entities": {
        "id": "e1", "kind": "hidden", "attributes": {
            "existence": "0.1", "inner_state": "1/3", "external_state": "0.95",
            "communication_state": "2/7",
        },
    },
}


def took_plain_step(plain, table: dict, cls, item) -> bool:
    """Whether ``plain`` built ``item``; when it did, the field tables build
    the same record, of the same class, hash and field types, with no
    diagnostic, and the record is frozen."""
    record = plain(item, {})
    if record is None:
        return False
    diags = []
    built = _build(cls, _fields(item, table, "record", "record", diags, {}))
    assert diags == [] and built == record and type(record) is cls, item
    assert hash(record) == hash(built), item
    assert [type(getattr(built, key)) for key in table] == [
        type(getattr(record, key)) for key in table
    ], item
    for key in table:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, key, getattr(built, key))
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, key)
    return True


class TestPlainStep:
    """A well-formed entity or connection record is built by the walk over its
    array as the field tables would build it; only a record the walk refuses
    reaches ``_fields``."""

    def test_seeded_mutation_records_match_the_field_tables(self):
        docs = mutation_sources()
        taken = total = 0
        for seed in range(7000):
            text = json.dumps(seeded_mutation(random.Random(seed), docs))
            doc = json.loads(text, parse_float=to_rational)
            for name, plain, table, cls, _ in PLAIN_STEPS:
                records = doc.get(name) if isinstance(doc, dict) else None
                for item in records if isinstance(records, list) else ():
                    total += 1
                    taken += took_plain_step(plain, table, cls, item)
        assert total > 30_000 and total / 2 < taken < total

    @settings(derandomize=True, max_examples=400, deadline=None)
    @given(data=st.data())
    def test_drawn_records_match_the_field_tables(self, data):
        _, plain, table, cls, base = data.draw(st.sampled_from(PLAIN_STEPS))
        values = json_values() | st.sampled_from(EDIT_VALUES).map(copy.deepcopy)
        keys = st.sampled_from(list(table)) | st.text(max_size=6)
        item = dict(base)
        for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
            key = data.draw(keys)
            if data.draw(st.booleans()):
                item.pop(key, None)
            else:
                item[key] = data.draw(values)
        took_plain_step(plain, table, cls, data.draw(st.just(item) | values))

    # A null optional field, with and without an unknown key, and an unknown
    # key beside the required ones: each takes the table path, which reports it.
    @pytest.mark.parametrize(
        "extra, diagnostics",
        [
            ({"time_index": None}, ["error c.time_index: time_index must be an integer"]),
            ({"blocked": None}, ["error c.blocked: blocked must be true or false"]),
            ({"confirmed": None}, ["error c.confirmed: confirmed must be true or false"]),
            ({"time_index": None, "note": 1}, [
                "warning c.note: unknown key ignored",
                "error c.time_index: time_index must be an integer",
            ]),
            ({"blocked": None, "note": 1}, [
                "warning c.note: unknown key ignored",
                "error c.blocked: blocked must be true or false",
            ]),
            ({"confirmed": None, "note": 1}, [
                "warning c.note: unknown key ignored",
                "error c.confirmed: confirmed must be true or false",
            ]),
            ({"note": "x"}, ["warning c.note: unknown key ignored"]),
            ({"blocked": True, "note": "x"}, ["warning c.note: unknown key ignored"]),
        ],
        ids=lambda value: "+".join(value) if isinstance(value, dict) else "",
    )
    def test_a_null_optional_or_an_unknown_key_takes_the_table_path(self, extra, diagnostics):
        _, plain, table, cls, base = PLAIN_STEPS[0]
        item = {**base, **extra}
        assert not took_plain_step(plain, table, cls, item)
        diags = []
        built = _build(cls, _fields(item, table, "connection", "c", diags, {}))
        assert [str(d) for d in diags] == diagnostics
        assert (built is None) == any(d.startswith("error") for d in diagnostics)
        result = parse_doc(connections=[item])
        assert [str(d).replace("connections[0]", "c") for d in result.diagnostics] == diagnostics

    def test_every_table_field_has_a_plain_sample(self):
        for name, plain, table, cls, _ in PLAIN_STEPS:
            samples = PLAIN_SAMPLES[name]
            for key, (_, default) in table.items():
                item = {k: samples[k] for k, field in table.items() if field[1] is _REQUIRED}
                item[key] = samples[key]
                diags = []
                built = _build(cls, _fields(item, table, name, name, diags, {}))
                assert diags == [] and getattr(built, key) != default, key
                assert took_plain_step(plain, table, cls, item), key

    def test_fields_decodes_no_record_of_a_valid_file(self, monkeypatch):
        s = support.random_scenario(
            support.random.Random(2024),
            max_entities=40,
            min_connections=2000,
            max_connections=2000,
            with_roster=False,
        )
        attributes = {e.attributes for e in s.entities}
        assert AttributeVector() in attributes and len(attributes) > 1
        tables = []
        original = conncalc.scenario_io._fields

        def counted(item, table, *args):
            tables.append(table)
            return original(item, table, *args)

        monkeypatch.setattr(conncalc.scenario_io, "_fields", counted)
        text = serialize_scenario(s)
        assert parse_scenario(text).scenario == s
        assert tables == []
        # A record the walk refuses still goes through the tables.
        doc = json.loads(text)
        doc["entities"][0].update(attributes=ATTRIBUTES, note=1)
        doc["connections"][0]["magnitude"] = 2
        assert parse_scenario(json.dumps(doc)).ok
        assert tables == [_ENTITY_FIELDS, _ATTRIBUTE_FIELDS, _CONNECTION_FIELDS]


def read_with_proof(text: str) -> tuple[ParseResult, bool]:
    """``parse_scenario(text)``, and whether the read proved the scenario valid:
    it parsed, and ``validate_scenario`` never ran."""
    calls = []
    original = conncalc.model.validate_scenario

    def counted(scenario):
        calls.append(scenario)
        return original(scenario)

    conncalc.model.validate_scenario = counted
    try:
        result = parse_scenario(text)
    finally:
        conncalc.model.validate_scenario = original
    return result, result.ok and not calls


def assert_proof_holds(scenario: Scenario) -> None:
    """A scenario whose read proved it valid is valid, and is what the public
    constructor builds of its records given in reverse order, with the same
    field types and the same written bytes."""
    assert conncalc.model.validate_scenario(scenario) == []
    built = Scenario(
        entities=scenario.entities[::-1],
        connections=scenario.connections[::-1],
        host=scenario.host,
        ideal_roster=scenario.ideal_roster,
        scoring_mode=scenario.scoring_mode,
        desired_connectivity=scenario.desired_connectivity,
    )
    assert built == scenario
    names = [f.name for f in dataclasses.fields(Scenario)]
    assert [type(getattr(built, n)) for n in names] == [type(getattr(scenario, n)) for n in names]
    assert serialize_scenario(built) == serialize_scenario(scenario)


_AB = PLAIN_STEPS[0][4] | {"id": "ab"}
_A, _B = {"id": "a", "kind": "known"}, {"id": "b", "kind": "known"}


class TestReadProof:
    """A roster-free file whose connection walk proves it valid is built with
    no validation. The proof is a second path beside ``validate_scenario``:
    whatever it proves, validation accepts, and whatever it cannot prove goes
    to validation, which writes every diagnostic."""

    def test_a_proven_mutation_is_valid(self):
        docs = mutation_sources()
        proven = 0
        for seed in range(4000):
            text = json.dumps(seeded_mutation(random.Random(seed), docs))
            result, holds = read_with_proof(text)
            if holds:
                proven += 1
                assert_proof_holds(result.scenario)
        assert proven > 250, proven

    @given(support.scenarios(ids=support.hostile_ids))
    def test_a_written_scenario_is_proven_without_a_roster(self, s):
        assume(not support.holds_surrogate_pair(s))
        result, holds = read_with_proof(serialize_scenario(s))
        assert result.scenario == s and holds == (s.ideal_roster is None)
        if holds:
            assert_proof_holds(result.scenario)

    def test_the_minimal_file_is_proven(self):
        result, holds = read_with_proof(json.dumps(minimal_doc()))
        assert holds and result.diagnostics == ()
        assert result.scenario.__dict__["violations"] == ()

    # One file per check of the proof, each breaking only that check: the read
    # falls back to validation, which reports what it always has.
    @pytest.mark.parametrize(
        "overrides, diagnostics",
        [
            ({"connections": [_AB, {**_AB, "id": "aa"}]}, []),
            ({"connections": [_AB, _AB]}, ["error ab.id: duplicate connection id"]),
            (
                {"connections": [{**_AB, "id": ""}]},
                ["error <connection>.id: connection id must be nonempty"],
            ),
            ({"entities": [_B, _A]}, []),
            ({"entities": [_A, _B, _B]}, ["error b.id: duplicate entity id"]),
            (
                {"entities": [{"id": "", "kind": "known"}, _A, _B]},
                ["error <entity>.id: entity id must be nonempty"],
            ),
            ({"host": "z"}, ["error z.host: host id does not name an entity"]),
            (
                {"connections": [{**_AB, "dst": "z"}]},
                ["error ab.dst: endpoint 'z' is not an entity"],
            ),
            (
                {"connections": [{**_AB, "dst": "a"}]},
                ["error ab.kind: connection with src = dst must have kind self"],
            ),
            (
                {"connections": [{**_AB, "kind": "self"}]},
                ["error ab.kind: kind self requires src = dst"],
            ),
            (
                {"connections": [{**_AB, "time_index": -1}]},
                ["error ab.time_index: time_index must be a non-negative integer"],
            ),
            (
                {"connections": [{**_AB, "magnitude": "11"}]},
                ["error ab.magnitude: magnitude 11 outside [1, 10]"],
            ),
            (
                {"desired_connectivity": "1e5000"},
                [
                    "error <scenario>.desired_connectivity: "
                    "number too long to print exactly (over 4300 digits)"
                ],
            ),
            ({"ideal_roster": [{"ref": "ab"}]}, []),
        ],
        ids=[
            "unsorted-connection-ids", "duplicate-connection-id", "empty-connection-id",
            "unsorted-entity-ids", "duplicate-entity-id", "empty-entity-id", "host-not-an-entity",
            "dangling-dst", "loop-kind-real", "self-between-two", "negative-time-index",
            "magnitude-11", "unprintable-desired", "roster",
        ],
    )
    def test_each_check_falls_back_to_validation(self, overrides, diagnostics):
        result, holds = read_with_proof(json.dumps(minimal_doc(**overrides)))
        assert not holds
        assert [str(d) for d in result.diagnostics] == diagnostics
        assert result.ok == (diagnostics == [])

    def test_an_entity_with_an_unknown_key_is_still_proven(self):
        # The field table builds it, with a warning, and its id still counts.
        entities = [_A, {**_B, "note": 1}]
        result, holds = read_with_proof(json.dumps(minimal_doc(entities=entities)))
        assert holds
        assert [str(d) for d in result.diagnostics] == [
            "warning entities[1].note: unknown key ignored"
        ]
        assert_proof_holds(result.scenario)

    def test_a_record_the_walk_refuses_falls_back_to_validation(self):
        # An int magnitude is read by the field table, not the walk.
        connections = [{**_AB, "magnitude": 2}]
        result, holds = read_with_proof(json.dumps(minimal_doc(connections=connections)))
        assert result.ok and not holds

    @pytest.mark.parametrize("workload", sorted(gen.TINY_SIZES))
    def test_every_generated_file_is_proven(self, workload, tmp_path):
        jobs = gen.generate(workload, 3, tmp_path, gen.TINY_SIZES[workload])
        for job in jobs:
            result, holds = read_with_proof(Path(job["file"]).read_text(encoding="ascii"))
            assert holds, job["file"]
            if workload == "transform":
                closed = serialize_scenario(silent_closure(result.scenario))
                assert read_with_proof(closed)[1], job["file"]
            if "defect" in job:
                bad = Path(job["defect"]["file"]).read_text(encoding="ascii")
                assert not read_with_proof(bad)[0].ok, job["defect"]


# An id that ``support.hostile_ids`` can draw: its high and low surrogates
# read back from JSON text as one character, so it cannot be written.
PAIRED_ID_SCENARIO = Scenario(
    entities=(make_entity("\ud800\udc00", "known"),), connections=(), host="\ud800\udc00"
)


class TestSerializeScenario:
    def test_fixtures_are_self_golden(self, office_path, confusion_path):
        for path in (office_path, confusion_path):
            text = path.read_text()
            result = parse_scenario(text)
            assert serialize_scenario(result.scenario) == text

    def test_minimal_scenario_exact_bytes(self):
        s = Scenario(entities=(make_entity("a", "known"),), connections=(), host="a")
        assert serialize_scenario(s) == (
            "{\n"
            '  "version": 1,\n'
            '  "host": "a",\n'
            '  "mode": "raw",\n'
            '  "entities": [\n'
            "    {\n"
            '      "id": "a",\n'
            '      "kind": "known"\n'
            "    }\n"
            "  ],\n"
            '  "connections": []\n'
            "}\n"
        )

    def test_default_fields_are_omitted(self):
        s = scenario_of(conn("ab", "a", "b", magnitude=2))
        doc = json.loads(serialize_scenario(s))
        (connection,) = doc["connections"]
        assert set(connection) == {"id", "src", "dst", "kind", "polarity", "magnitude"}
        assert all("attributes" not in e for e in doc["entities"])
        assert "desired_connectivity" not in doc
        assert "ideal_roster" not in doc

    def test_int_fields_print_as_ints(self):
        # Validation takes any int subclass as a time index; it prints as the
        # int it equals.
        time_index = Enum("TimeIndex", {"LATE": 3}, type=int).LATE
        doc = serialize_scenario(scenario_of(conn("ab", "a", "b", time_index=time_index)))
        assert '"time_index": 3\n' in doc

    @pytest.mark.parametrize("polarity", [True, False])
    def test_a_bool_polarity_is_invalid(self, polarity):
        # True == 1, but a file's polarity is never a bool, so none validates.
        s = scenario_of(conn("ab", "a", "b", polarity=polarity))
        message = f"ab.polarity: polarity must be \\+1 or -1, got {polarity}"
        with pytest.raises(ValidationError, match=message):
            ensure_valid(s)
        with pytest.raises(ValidationError, match=message):
            serialize_scenario(s)

    def test_construction_order_does_not_leak(self):
        a = scenario_of(conn("x", "a", "b", magnitude=2), conn("w", "a", "b", magnitude=3))
        b = scenario_of(conn("w", "a", "b", magnitude=3), conn("x", "a", "b", magnitude=2))
        assert serialize_scenario(a) == serialize_scenario(b)

    def test_invalid_scenarios_are_refused(self):
        s = Scenario(entities=(), connections=(), host="ghost")
        with pytest.raises(ValidationError):
            serialize_scenario(s)

    @given(support.scenarios(ids=support.hostile_ids))
    @example(Scenario(entities=(make_entity("a", "known"),), connections=(), host="a"))
    @example(
        Scenario(
            entities=(
                make_entity("a", "known", AttributeVector(existence="0.5", inner_state="1/3")),
                make_entity("b", "hidden"),
            ),
            connections=(
                conn("ab", "a", "b", magnitude="7.25", time_index=3, blocked=True),
                conn("ba", "b", "a", kind=ConnectionKind.SILENT, polarity=-1, magnitude="10/3",
                     confirmed=True),
            ),
            host="b",
            ideal_roster=(RosterRef("ba"), RosterHypothetical("a", "b", Fraction(5, 2))),
            scoring_mode="impact_weighted",
            desired_connectivity=Fraction(1, 3),
        )
    )
    @example(PAIRED_ID_SCENARIO)
    def test_writes_the_reference_document(self, s):
        if support.holds_surrogate_pair(s):
            with pytest.raises(ComputationError, match="surrogate pair"):
                serialize_scenario(s)
            return
        expected = json.dumps(support.reference_doc(s), indent=2, ensure_ascii=True) + "\n"
        assert serialize_scenario(s) == expected

    def test_closed_generated_scenario_matches_the_reference(self):
        doc = gen.scenario_doc(
            random.Random(3), 150, 600, silent_share=0.3, blocked_share=0.1, desired=True
        )
        closed = silent_closure(parse_scenario(json.dumps(doc)).scenario)
        assert len(closed.connections) > 11_000
        expected = json.dumps(support.reference_doc(closed), indent=2, ensure_ascii=True) + "\n"
        assert serialize_scenario(closed) == expected

    def test_field_tables_name_every_record_field_in_order(self):
        # The writer writes each field of the class; a field missing from its
        # table would be written, then read back as an unknown key.
        for record, table in (
            (Entity, _ENTITY_FIELDS),
            (AttributeVector, _ATTRIBUTE_FIELDS),
            (Connection, _CONNECTION_FIELDS),
            (RosterHypothetical, _HYPOTHETICAL_FIELDS),
        ):
            assert list(table) == [f.name for f in dataclasses.fields(record)], record


class TestRoundTrip:
    def test_fixture_value_identity(self, office, office_path):
        assert parse_scenario(serialize_scenario(office)).scenario == office

    @given(support.scenarios(ids=support.hostile_ids))
    @example(PAIRED_ID_SCENARIO)
    def test_serialize_parse_serialize_is_stable(self, s):
        if support.holds_surrogate_pair(s):
            with pytest.raises(ComputationError, match="surrogate pair"):
                serialize_scenario(s)
            return
        text = serialize_scenario(s)
        result = parse_scenario(text)
        assert result.ok, error_text(result)
        assert result.scenario == s
        assert serialize_scenario(result.scenario) == text

    def test_an_id_that_would_read_back_as_another_is_refused(self):
        def named(entity_id: str) -> Scenario:
            return Scenario((make_entity(entity_id, "known"),), (), host=entity_id)

        # JSON reads the escapes of a high then a low surrogate as one character.
        with pytest.raises(ComputationError, match="surrogate pair"):
            serialize_scenario(named("\ud800\udfff"))
        with pytest.raises(ComputationError, match="surrogate pair"):
            serialize_scenario(scenario_of(conn("x\ud800\udfff", "a", "b")))
        for entity_id in ("\ud800", "\U0001F600", "\udfff\ud800"):
            s = named(entity_id)
            assert parse_scenario(serialize_scenario(s)).scenario == s


class TestExportDot:
    def test_office_matches_the_golden_file(self, office):
        golden = (
            __import__("pathlib").Path(__file__).parent / "golden" / "office_v1.dot"
        )
        assert export_dot(office) == golden.read_text()

    def test_office_under_an_independent_parser(self, office):
        graph = parse_dot(export_dot(office))
        assert not graph.directed
        assert set(graph.nodes) == {"Ea", "Eb", "Ec", "Eh", "En", "Eu"}
        assert len(graph.edges) == 7
        styles = [e.attrs["style"] for e in graph.edges]
        assert styles.count("solid") == 4
        assert styles.count("dashed") == 3
        assert graph.nodes["Eb"]["peripheries"] == "2"
        assert graph.defaults["node"]["shape"] == "ellipse"

    def test_edges_carry_signed_labels_and_ids(self, office):
        graph = parse_dot(export_dot(office))
        by_id = {e.attrs["id"]: e for e in graph.edges}
        assert by_id["ea-eb"].attrs["label"] == "+7"
        assert by_id["eb-eb"].attrs["label"] == "-7"
        assert (by_id["eb-eb"].tail, by_id["eb-eb"].head) == ("Eb", "Eb")

    def test_blocked_connections_are_grayed(self):
        s = scenario_of(conn("ab", "a", "b", magnitude=2, blocked=True))
        graph = parse_dot(export_dot(s))
        assert graph.edges[0].attrs["color"] == "gray"

    def test_quoting_survives_hostile_ids(self):
        s = scenario_of(
            conn('a"b', 'he said "hi"', "b\\c", magnitude=2),
            conn('c\\"d', 'q\\"r', "t\\", magnitude=3),
            entities=(
                make_entity('he said "hi"', "known"),
                make_entity("b\\c", "known"),
                make_entity('q\\"r', "known"),
                make_entity("t\\", "known"),
            ),
            host='he said "hi"',
        )
        text = export_dot(s)
        # A backslash before a quote, or before the closing quote, is doubled.
        assert '  "q\\\\\\"r" -- "t\\\\" [label="+3", style="solid", id="c\\\\\\"d"];' in text
        graph = parse_dot(text)
        assert set(graph.nodes) == {'he said "hi"', "b\\c", 'q\\\\"r', "t\\\\"}
        assert [e.attrs["id"] for e in graph.edges] == ['a"b', 'c\\\\"d']

    def test_each_entity_id_is_quoted_once(self, monkeypatch):
        # Parsed from its file, as a command reads it: equal magnitude
        # literals then share one object.
        s = parse_scenario(serialize_scenario(support.random_scenario(
            support.random.Random(2024), max_entities=40, min_connections=2000, max_connections=2000
        ))).scenario
        labels = {(c.polarity > 0, id(c.magnitude)) for c in s.connections}
        assert len(labels) < len(s.connections)
        quoted = []
        original = conncalc.scenario_io._dot_quote

        def counted(value):
            quoted.append(value)
            return original(value)

        monkeypatch.setattr(conncalc.scenario_io, "_dot_quote", counted)
        text = export_dot(s)
        monkeypatch.undo()
        assert text == export_dot(s)
        # Once per entity, once per connection id, once per distinct label.
        assert len(quoted) <= len(s.entities) + len(s.connections) + len(labels)

    def test_labels_follow_sign_and_value_not_the_magnitude_object(self):
        shared = Fraction(5, 2)
        s = scenario_of(
            conn("ab", "a", "b", magnitude=shared),
            conn("ac", "a", "c", polarity=-1, magnitude=shared),
            conn("bc", "b", "c", magnitude=Fraction(5, 2)),
            conn("bd", "b", "d", polarity=-1, magnitude=Fraction(5, 2)),
        )
        ab, ac, bc, bd = s.connections
        assert ab.magnitude is ac.magnitude is shared
        assert bc.magnitude is not shared and bd.magnitude is not shared
        graph = parse_dot(export_dot(s))
        labels = {e.attrs["id"]: e.attrs["label"] for e in graph.edges}
        assert labels == {"ab": "+2.5", "ac": "-2.5", "bc": "+2.5", "bd": "-2.5"}

    def test_output_is_deterministic(self, office):
        assert export_dot(office) == export_dot(office)


class TestEmitReport:
    def test_connectivity_table_line(self, office):
        line = emit_report(efficiency(office))
        assert line == "score=7 ideal=56 efficiency=12.5% band=failing mode=raw"

    def test_confusion_table_line(self, confusion):
        line = emit_report(detect_confusion(confusion))
        assert line == "z=-1 quality=-12.5% confused=true causes=self_conflict"

    def test_trajectory_table_lines(self, confusion):
        text = emit_report(run_removal(confusion, RemovalOrder.MOST_FIRST))
        assert text.splitlines() == [
            "order=most-first ideal=9 steps=2",
            "step=1 blocked=aa score=4 efficiency=400/9%",
            "step=2 blocked=ab score=0 efficiency=0%",
        ]

    def test_replacement_table_line(self, office):
        replacement = Connection(
            id="fresh", src="Ea", dst="Eb", kind=ConnectionKind.REAL,
            polarity=1, magnitude=Fraction(7),
        )
        line = emit_report(run_replacement(office, "ea-eb", replacement))
        assert line == (
            "blocked=ea-eb replacement=fresh quality_before=12.5%"
            " quality_blocked=0% quality_after=12.5%"
        )

    def test_machine_output_is_json_with_exact_strings(self, office, confusion):
        doc = json.loads(emit_report(efficiency(office), "machine"))
        assert doc == {
            "type": "connectivity_report",
            "score": "7",
            "ideal": "56",
            "efficiency_percent": "12.5",
            "band": "failing",
            "mode": "raw",
        }
        confusion_doc = json.loads(emit_report(detect_confusion(confusion), "machine"))
        assert confusion_doc["type"] == "confusion_report"
        assert confusion_doc["confused"] is True
        assert confusion_doc["causes"] == ["self_conflict"]
        trajectory_doc = json.loads(
            emit_report(run_removal(confusion, RemovalOrder.MOST_FIRST), "machine")
        )
        assert trajectory_doc["type"] == "quality_trajectory"
        assert [s["score"] for s in trajectory_doc["steps"]] == ["4", "0"]

    def test_quality_report(self, confusion):
        report = quality_report(connectivity_score(confusion), confusion.desired_connectivity)
        assert emit_report(report) == "score=-1 desired=8 quality=-12.5% band=failing"
        assert emit_report(report, "machine") + "\n" == test_cli.JSON_DOCUMENTS["quality_report"][2]

    def test_paths_report(self, office):
        found = find_paths(office, "Ea", "Ec", 3, include_silent=True)
        report = PathsReport("Ea", "Ec", 3, tuple(found))
        assert emit_report(report) == "Ea -> Ec via ec-ea\nEa -> Eb -> Ec via ea-eb,ec-eb"
        assert emit_report(report, "machine") + "\n" == test_cli.JSON_DOCUMENTS["paths"][2]

    def test_empty_paths_report(self):
        report = PathsReport("Ea", "En", 3, ())
        assert emit_report(report) == "(no paths)"
        assert emit_report(report, "machine") == (
            '{\n  "type": "paths",\n  "src": "Ea",\n  "dst": "En",\n  "max_hops": 3,\n'
            '  "paths": []\n}'
        )

    def test_validation_report(self):
        report = ValidationReport(valid=True, diagnostics=())
        assert emit_report(report) == "ok"
        expected = test_cli.JSON_DOCUMENTS["validation_report"][2]
        assert emit_report(report, "machine") + "\n" == expected

    def test_validation_report_with_diagnostics(self):
        diagnostic = ParseDiagnostic(Severity.ERROR, "aa.magnitude", "magnitude 11 outside [1, 10]")
        report = ValidationReport(valid=False, diagnostics=(diagnostic,))
        assert emit_report(report) == "error aa.magnitude: magnitude 11 outside [1, 10]\ninvalid"
        expected = test_cli.JSON_DOCUMENTS["validation_report with diagnostics"][2]
        assert emit_report(report, "machine") + "\n" == expected

    def test_readme_lists_every_report_type(self):
        # The discriminator list in README's "--format json" paragraph.
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        start = readme.index("`--format json` emits one JSON document per report")
        paragraph = readme[start : readme.index("\n\n", start)]
        listed = re.findall(r"`(\w+)`", re.search(r"\(([^)]*)\)", paragraph).group(1))
        assert sorted(listed) == sorted(doc_type for doc_type, _, _ in _TABLE_LINES.values())

    def test_unknown_format_or_report_type(self, office):
        with pytest.raises(ValueError):
            emit_report(efficiency(office), "yaml")
        with pytest.raises(TypeError):
            emit_report({"score": 7})


# Report strings: ids a writer must escape, lone surrogates included, and any text.
report_strings = support.hostile_ids | st.text(max_size=6)


@st.composite
def report_paths(draw):
    entities = draw(st.lists(report_strings, min_size=1, max_size=4))
    # A one-entity path is a loop over one self-connection.
    count = max(len(entities) - 1, 1)
    hops = draw(st.lists(report_strings, min_size=count, max_size=count))
    return ConnectionPath(tuple(entities), tuple(hops))


def tuples(elements, max_size=4):
    """Tuples of ``elements``, the empty one included."""
    return st.lists(elements, max_size=max_size).map(tuple)


# One strategy per report class of ``_TABLE_LINES``, built from its fields.
REPORTS = {
    ConnectivityReport: st.builds(
        ConnectivityReport, support.rationals, support.rationals, support.rationals,
        st.sampled_from(Band), st.sampled_from(ScoringMode),
    ),
    ConfusionReport: st.builds(
        ConfusionReport, support.rationals, support.rationals, st.booleans(),
        tuples(st.sampled_from(ConfusionCause)),
    ),
    QualityReport: st.builds(
        QualityReport, support.rationals, support.rationals, support.rationals,
        st.sampled_from(Band),
    ),
    QualityTrajectory: st.builds(
        QualityTrajectory, st.sampled_from(RemovalOrder), support.rationals,
        tuples(st.builds(TrajectoryStep, st.integers(0, 10**6), report_strings,
                         support.rationals, support.rationals)),
    ),
    ReplacementReport: st.builds(
        ReplacementReport, report_strings, report_strings, support.rationals,
        support.rationals, support.rationals, support.rationals,
    ),
    PathsReport: st.builds(
        PathsReport, report_strings, report_strings, st.integers(0, 99), tuples(report_paths())
    ),
    ValidationReport: st.builds(
        ValidationReport, st.booleans(),
        tuples(st.builds(ParseDiagnostic, st.sampled_from(Severity), report_strings,
                         report_strings)),
    ),
}


def reference_report_doc(report) -> dict:
    """A report's document spelled out from its dataclass fields: a ``type``
    key, then each field, rationals as :func:`support.reference_number` text,
    enums by value and tuples as lists."""

    def value(item):
        if isinstance(item, Fraction):
            return support.reference_number(item)
        if isinstance(item, Enum):
            return item.value
        if isinstance(item, tuple):
            return [value(element) for element in item]
        if dataclasses.is_dataclass(item):
            return {f.name: value(getattr(item, f.name)) for f in dataclasses.fields(item)}
        return item

    return {"type": _TABLE_LINES[type(report)][0], **value(report)}


def _refuse(*args, **kwargs):
    raise AssertionError("a report went through json.dumps")


class TestReportJson:
    """Report JSON is ``json.dumps(doc, indent=2, ensure_ascii=True)``'s text,
    written without json's encoder."""

    def test_every_report_class_has_a_strategy(self):
        assert set(REPORTS) == set(_TABLE_LINES)

    @given(st.one_of(*REPORTS.values()))
    def test_equals_json_dumps_of_the_document(self, report):
        expected = json.dumps(reference_report_doc(report), indent=2, ensure_ascii=True)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(json.encoder, "_make_iterencode", _refuse)
            patch.setattr(json, "dumps", _refuse)
            assert emit_report(report, "machine") == expected


def reference_report_table(report) -> str:
    """A report's table text, spelled out for each class from its fields:
    rationals as :func:`support.reference_number` text, enums by value, a
    tuple joined or ``none`` when empty, one line per trajectory step, path
    or diagnostic."""
    number = support.reference_number

    def joined(items, separator: str) -> str:
        return separator.join(items) or "none"

    if isinstance(report, ConnectivityReport):
        lines = [
            f"score={number(report.score)} ideal={number(report.ideal)}"
            f" efficiency={number(report.efficiency_percent)}% band={report.band.value}"
            f" mode={report.mode.value}"
        ]
    elif isinstance(report, ConfusionReport):
        lines = [
            f"z={number(report.z)} quality={number(report.quality_percent)}%"
            f" confused={'true' if report.confused else 'false'}"
            f" causes={joined([cause.value for cause in report.causes], ',')}"
        ]
    elif isinstance(report, QualityReport):
        lines = [
            f"score={number(report.score)} desired={number(report.desired)}"
            f" quality={number(report.quality_percent)}% band={report.band.value}"
        ]
    elif isinstance(report, QualityTrajectory):
        lines = [
            f"order={report.order.value} ideal={number(report.ideal)} steps={len(report.steps)}",
            *(
                f"step={step.step} blocked={step.blocked_connection} score={number(step.score)}"
                f" efficiency={number(step.efficiency_percent)}%"
                for step in report.steps
            ),
        ]
    elif isinstance(report, ReplacementReport):
        lines = [
            f"blocked={report.blocked_id} replacement={report.replacement_id}"
            f" quality_before={number(report.quality_before)}%"
            f" quality_blocked={number(report.quality_blocked)}%"
            f" quality_after={number(report.quality_after)}%"
        ]
    elif isinstance(report, PathsReport):
        lines = [
            f"{joined(path.entities, ' -> ')} via {joined(path.hops, ',')}" for path in report.paths
        ] or ["(no paths)"]
    else:
        lines = [
            *(f"{d.severity.value} {d.location}: {d.message}" for d in report.diagnostics),
            "ok" if report.valid else "invalid",
        ]
    return "\n".join(lines)


class TestReportTable:
    """Each report class's table text, against one spelled out from its fields."""

    @given(st.one_of(*REPORTS.values()))
    @example(ConfusionReport(Fraction(-1), Fraction(1, 3), True, ()))
    @example(ConfusionReport(Fraction(7), Fraction(80), False, tuple(ConfusionCause)))
    @example(QualityTrajectory(RemovalOrder.MOST_FIRST, Fraction(5, 2), ()))
    @example(PathsReport("a", "b", 3, ()))
    @example(PathsReport("", "\n", 1, (ConnectionPath(("",), ("",)),)))
    @example(ValidationReport(True, ()))
    @example(ValidationReport(False, ()))
    def test_equals_the_reference_table(self, report):
        assert emit_report(report, "table") == reference_report_table(report)
        assert emit_report(report) == emit_report(report, "table")


class TestReportTexts:
    """A report rational with no exact text form is refused, in both formats."""

    @pytest.mark.parametrize("fmt", ["table", "machine"])
    def test_a_value_with_no_text_form_raises(self, fmt):
        report = quality_report(Fraction(1, 2**6200), Fraction(1))
        with pytest.raises(ComputationError, match="too long to print exactly"):
            emit_report(report, fmt)


class TestParseConnectionDoc:
    def test_well_formed(self):
        doc = {"id": "x", "src": "a", "dst": "b", "kind": "silent",
               "polarity": -1, "magnitude": "2.5"}
        connection, diags = parse_connection_doc(doc)
        assert diags == ()
        assert connection.kind is ConnectionKind.SILENT
        assert connection.magnitude == Fraction(5, 2)

    def test_failure_reports_under_the_given_location(self):
        connection, diags = parse_connection_doc({"id": "x"}, location="replace.connection")
        assert connection is None
        assert all(d.location.startswith("replace.connection") for d in diags)
        assert any(d.location == "replace.connection.polarity" for d in diags)

    def test_unknown_keys_warn_in_key_order_before_field_errors(self):
        doc = {"zz": 1, "id": "x", "src": "a", "dst": "b", "kind": "real", "polarity": 1, "aa": 2}
        connection, diags = parse_connection_doc(doc)
        assert connection is None
        assert [str(d) for d in diags] == [
            "warning connection.aa: unknown key ignored",
            "warning connection.zz: unknown key ignored",
            "error connection.magnitude: missing required key",
        ]

    def test_field_errors_leave_no_connection(self):
        doc = {"id": "x", "src": "a", "dst": "b", "kind": "real", "polarity": 1,
               "magnitude": "7", "blocked": "yes", "time_index": "soon"}
        connection, diags = parse_connection_doc(doc)
        assert connection is None
        assert [str(d) for d in diags] == [
            "error connection.time_index: time_index must be an integer",
            "error connection.blocked: blocked must be true or false",
        ]


class Numeral(str):
    """A JSON number written out verbatim, as ``json.dumps`` cannot write one
    past Python's int-to-str digit limit."""


def json_source(value) -> str:
    """JSON text for a value, with each Numeral written as it is."""
    if isinstance(value, Numeral):
        return str(value)
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {json_source(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(json_source(v) for v in value) + "]"
    return json.dumps(value)


def containers(value) -> list:
    """Every object and array in a JSON value, outermost first."""
    if isinstance(value, dict):
        children = list(value.values())
    elif isinstance(value, list):
        children = value
    else:
        return []
    found = [value]
    for child in children:
        found.extend(containers(child))
    return found


huge_numerals = st.sampled_from(
    ["1" * 4301, "-" + "9" * 5000, "1e5000", "-1e5000", "1e-5000", "25e4400"]
).map(Numeral)
# JSON text may escape a lone surrogate ("\ud800"); it decodes, but it has no
# UTF-8 form, so no output that contains it can be written.
SURROGATE = "\ud800"


def json_values(strings=st.text(max_size=6)):
    """Any JSON value, with its strings and keys drawn from ``strings``."""
    return st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | strings | huge_numerals,
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(strings, children, max_size=3),
        max_leaves=6,
    )


# Ids from both fixtures, for the options of the commands run on mutated ones.
FIXTURE_ENTITIES = ["A", "B", "Ea", "Eb", "Ec", "Eh", "En", "Eu"]
FIXTURE_CONNECTIONS = ["aa", "ab", "ea-eb", "eb-eb", "ec-ea", "eu-eb"]
# Office pairs joined by two paths under --include-silent, so that a wrong
# path order shows.
TWO_PATH_PAIRS = [("Ea", "Ec"), ("Eh", "Ea"), ("Eb", "Ec"), ("Eu", "Ec"), ("Ea", "Eh")]


def renamed(value, old: str, new: str):
    """``value`` with every string equal to ``old`` replaced by ``new``."""
    if isinstance(value, dict):
        return {k: renamed(v, old, new) for k, v in value.items()}
    if isinstance(value, list):
        return [renamed(v, old, new) for v in value]
    return new if value == old else value


EDITS = ("replace", "drop", "add", "rename")


def mutate(doc, edits: int, choose, value, key, new_id, actions=EDITS):
    """``doc`` after ``edits`` edits: a value replaced, a key or item dropped,
    one added, or an id renamed wherever it appears. ``choose(items)`` picks
    one of ``items``, and ``value()``, ``key()`` and ``new_id()`` give what an
    edit writes: the two fuzzers below differ only in these."""
    for _ in range(edits):
        target = choose(containers(doc))
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        action = choose(actions)
        if action == "rename":
            doc = renamed(doc, choose(FIXTURE_ENTITIES + FIXTURE_CONNECTIONS), new_id())
        elif action != "add" and keys:
            picked = choose(keys)
            if action == "replace":
                target[picked] = value()
            else:
                del target[picked]
        elif isinstance(target, dict):
            target[key()] = value()
        else:
            target.append(value())
    return doc


@st.composite
def mutated_fixture(draw, paths, min_edits=1, surrogates=False) -> str:
    """JSON text of one of the fixtures at ``paths`` after ``min_edits`` to four
    random edits (see :func:`mutate`) of values from :func:`json_values`. With
    ``surrogates``, added strings and keys may be a lone surrogate, and a fourth
    edit renames an id to one wherever the id appears."""
    strings, new_keys = st.text(max_size=6), st.text(min_size=1, max_size=6)
    if surrogates:
        strings, new_keys = strings | st.just(SURROGATE), new_keys | st.just(SURROGATE)
    values = json_values(strings)
    doc = json.loads(draw(st.sampled_from(paths)).read_text())
    edits = draw(st.integers(min_value=min_edits, max_value=4))
    doc = mutate(
        doc, edits, lambda items: draw(st.sampled_from(items)), lambda: draw(values),
        lambda: draw(new_keys), lambda: SURROGATE, EDITS if surrogates else EDITS[:3],
    )
    return json_source(doc)


# What the seeded edits draw from: every record's keys, values that each field
# decoder accepts or refuses, and ids that quoting must survive.
EDIT_KEYS = [
    "id", "src", "dst", "kind", "polarity", "magnitude", "time_index", "blocked",
    "confirmed", "attributes", "existence", "inner_state", "external_state",
    "communication_state", "ref", "hypothetical", "version", "host", "mode",
    "desired_connectivity", "entities", "connections", "ideal_roster", "extra",
]
ATTRIBUTES = {"existence": "0.5", "inner_state": "1/3", "external_state": "0.25",
              "communication_state": "0.9"}
EDIT_VALUES = [
    None, True, False, 0, 1, -1, 2, 3, 11, 0.5, 1.5, 7.0, -0.25, 1e300,
    "", "x", "7", "2.5", "0.5", "1/3", "1/0", "-3", "abc", " 4 ", "1e5000", "nan", "inf",
    [], ["x"], {}, {"x": 1}, "real", "silent", "self", "known", "hidden", "unknown",
    "raw", "impact_weighted", {"ref": "ab"}, {"ref": "ea-eb"}, {"ref": "ab", "hypothetical": {}},
    {"hypothetical": {"src": "A", "dst": "B", "magnitude": "3"}}, {"hypothetical": []},
    ATTRIBUTES, {**ATTRIBUTES, "existence": "1"}, {**ATTRIBUTES, "inner_state": True},
]
HOSTILE_IDS = ['say "hi"', "back\\slash", "tail\\", '\\"', "naïve", "π→∞",
               SURROGATE, "", "Ea", "ab"]


def seeded_mutation(rng: random.Random, docs: list) -> dict:
    """A copy of one of ``docs`` (parsed fixtures) after one to four edits
    (see :func:`mutate`) drawn from ``rng``. Stdlib only, so a seed names the
    same document on every run."""
    doc = copy.deepcopy(rng.choice(docs))
    return mutate(
        doc, rng.randint(1, 4), rng.choice, lambda: copy.deepcopy(rng.choice(EDIT_VALUES)),
        lambda: rng.choice(EDIT_KEYS), lambda: rng.choice(HOSTILE_IDS),
    )


def mutation_sources() -> list[dict]:
    """The documents seeded mutations start from: each fixture as it is, and
    with the optional fields it leaves out."""
    docs = []
    for name in FIXTURE_FILES:
        doc = json.loads((FIXTURES / name).read_text())
        rich = copy.deepcopy(doc)
        for entity in rich["entities"][::2]:
            entity["attributes"] = dict(ATTRIBUTES)
        rich["connections"][-1].update(time_index=2, blocked=True, confirmed=True)
        docs += [doc, rich]
    return docs


def diagnostics_text(seeds) -> str:
    """For each seed, its mutation of a fixture's outcome (when it parses,
    a digest of the canonical text), every diagnostic in order, then those of each of its connection objects
    parsed alone at the empty location; ASCII, with other characters
    backslash-escaped.

    ``GOLDEN_DIAGNOSTICS`` holds this text for ``GOLDEN_SEEDS``. A change that
    means to alter diagnostics writes it again, from the repository root:
    ``PYTHONPATH=src python -c "from tests.test_io import *;
    GOLDEN_DIAGNOSTICS.write_text(diagnostics_text(GOLDEN_SEEDS))"``."""
    docs = mutation_sources()
    lines = []
    for seed in seeds:
        doc = seeded_mutation(random.Random(seed), docs)
        result = parse_scenario(json.dumps(doc))
        outcome = "refused"
        if result.ok:
            text = serialize_scenario(result.scenario)
            outcome = "ok " + hashlib.sha256(text.encode()).hexdigest()[:16]
        lines.append(f"seed {seed}: {outcome}")
        lines += map(str, result.diagnostics)
        connections = doc.get("connections")
        for item in connections if isinstance(connections, list) else ():
            lines += (f"  {d}" for d in parse_connection_doc(item, location="")[1])
    return "".join(f"{line}\n" for line in lines).encode("ascii", "backslashreplace").decode()


FIXTURE_FILES = ("office_v1.json", "confusion_v1.json")
# Seed 3971 writes "1e5000" at desired_connectivity: a number with no exact
# text form, which validation refuses so that closure can write what it accepts.
GOLDEN_SEEDS = (*range(400), 3971)
GOLDEN_DIAGNOSTICS = GOLDEN / "diagnostics.txt"


def every_command(path: Path, src: str, dst: str, spec: str) -> list[list[str]]:
    """The 12 command lines of the all-command tests, as ``[command, *options]``."""
    return [
        ["validate"],
        ["score"],
        ["score", "--mode", "impact"],
        ["quality"],
        ["confusion"],
        ["paths", "--from", src, "--to", dst],
        ["paths", "--from", src, "--to", dst, "--include-silent"],
        ["closure", "-o", str(path.with_name("closed.json"))],
        ["ablate", "--order", "most-first"],
        ["ablate", "--order", "least-first"],
        ["ablate", "--order", "least-first", "--replace", spec],
        ["export-dot"],
    ]


class TestHostileContent:
    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(data=st.data())
    def test_mutated_fixtures_parse_and_validate_without_raising(
        self, data, office_path, confusion_path, tmp_path_factory
    ):
        text = data.draw(mutated_fixture([office_path, confusion_path]))
        assert isinstance(parse_scenario(text), ParseResult)
        path = tmp_path_factory.getbasetemp() / "mutated.json"
        path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["validate", str(path)]) in (0, 1)

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(data=st.data())
    def test_mutated_fixtures_run_every_command(
        self, data, office_path, confusion_path, tmp_path_factory
    ):
        # Every command ends in exit 0, 1, 2 or 64 and prints nothing on stdout
        # unless it succeeds (``validate`` prints its report on exit 1 too), and
        # a failed ``closure -o`` leaves no file. What exits 0 must agree with the
        # benchmark's oracle. Most edits make a fixture invalid, so some examples
        # keep it as it is and vary only the options, to reach exits 0 and 2.
        path = tmp_path_factory.getbasetemp() / "mutated-every-command.json"
        closed = path.with_name("closed.json")
        fixture = mutated_fixture([office_path, confusion_path], min_edits=0, surrogates=True)
        text = data.draw(fixture)
        path.write_text(text, encoding="utf-8")
        # Ids the drawn file names, half of the time, so that ``paths`` and
        # ``--replace`` often get past their unknown-id errors.
        entities, connections = (
            st.sampled_from([i for i in ids if json.dumps(i) in text] or ids)
            | st.sampled_from(ids)
            for ids in (FIXTURE_ENTITIES, FIXTURE_CONNECTIONS)
        )
        src, dst = data.draw(
            st.lists(entities, min_size=2, max_size=2) | st.sampled_from(TWO_PATH_PAIRS)
        )
        replace = {
            "blocked": data.draw(connections),
            "connection": {"id": "fresh", "src": src, "dst": dst, "kind": "real",
                           "polarity": 1, "magnitude": "7"},
        }
        job = {"file": str(path), "output": str(closed), "replace": replace}
        unedited = [json_source(json.loads(p.read_text())) for p in (office_path, confusion_path)]
        edited = text not in unedited
        docs = {}
        for fmt in ("table", "json"):
            for command, *options in every_command(path, src, dst, json.dumps(replace)):
                closed.unlink(missing_ok=True)
                argv = [command, str(path), *options]
                code, out, _ = test_cli.run_strict(["--format", fmt, *argv])
                assert code in (0, 1, 2, 64), (fmt, command, options)
                if code != 0 and not (command == "validate" and code == 1):
                    assert out == "", (fmt, command, options, code)
                if command == "closure":
                    assert closed.exists() == (code == 0), (fmt, code)
                if code == 0 and oracle_reads(fmt, command, options, text, edited):
                    if not docs:
                        docs[str(path)] = exact_doc(text)
                    if command == "closure":
                        docs[str(closed)] = exact_doc(closed.read_text(encoding="utf-8"))
                    if fmt == "json":
                        argv += ["--format", "json"]
                    reason = oracle.check_command(argv, out, docs, job)
                    assert reason is None, (fmt, command, options, reason)

    def test_file_that_is_not_utf8_is_unreadable_for_every_command(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        spec = json.dumps({"blocked": "ab", "connection": {
            "id": "fresh", "src": "A", "dst": "B", "kind": "real", "polarity": 1, "magnitude": "7",
        }})
        for fmt in ("table", "json"):
            for command, *options in every_command(path, "A", "B", spec):
                argv = ["--format", fmt, command, str(path), *options]
                code, out, err = test_cli.run_strict(argv)
                assert (code, out) == (1, ""), (fmt, command)
                assert err == (
                    f"error: cannot read {path}: 'utf-8' codec can't decode byte 0xff"
                    " in position 0: invalid start byte\n"
                ), (fmt, command)
        assert not path.with_name("closed.json").exists()


def exact_doc(text: str) -> oracle.Doc:
    """The oracle's view of a scenario file, its JSON floats kept as exact text."""
    return oracle.Doc(json.loads(text, parse_float=str))


def oracle_reads(fmt: str, command: str, options: list[str], text: str, edited: bool) -> bool:
    """Whether ``oracle.check_command`` can check this output. It parses the
    table form of every command but only the JSON form of ``score`` and of a
    removal ``ablate``. Exclusions, each a limit of the oracle:
    - its ``validate`` check expects a file without warnings;
    - its paths search does not model the one-hop loop over a self-connection
      that ``paths`` reports when ``--from`` and ``--to`` name the same entity;
    - its closure check compares each connection object as written with the
      one in the closed file, so it holds only for a file already in canonical
      form, as the fixtures are; an edit the canonical form undoes (an unknown
      key, a default written out, a number not in its shortest form) reads as
      a changed connection."""
    if command == "validate" and parse_scenario(text).warnings:
        return False
    if (command == "paths" and options[1] == options[3]) or (command == "closure" and edited):
        return False
    removal = command == "ablate" and "--replace" not in options
    return fmt == "table" or command == "score" or removal
