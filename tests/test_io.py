"""Parsing, canonical serialization, DOT export, and report rendering."""

from __future__ import annotations

import contextlib
import copy
import dataclasses
import hashlib
import io
import json
import random
import re
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import conncalc.model
from conncalc import (
    AttributeVector,
    ComputationError,
    Connection,
    ConnectionKind,
    Entity,
    ParseDiagnostic,
    ParseResult,
    RemovalOrder,
    RosterHypothetical,
    Scenario,
    Severity,
    ValidationError,
    connectivity_score,
    detect_confusion,
    efficiency,
    emit_report,
    export_dot,
    find_paths,
    format_rational,
    make_entity,
    parse_connection_doc,
    parse_scenario,
    run_removal,
    run_replacement,
    serialize_scenario,
)
from conncalc.cli import main
from conncalc.metrics import quality_report
from conncalc.paths import PathsReport
from conncalc.scenario_io import (
    _ATTRIBUTE_FIELDS,
    _CONNECTION_FIELDS,
    _ENTITY_FIELDS,
    _HYPOTHETICAL_FIELDS,
    _TABLE_LINES,
    ValidationReport,
)

from . import support, test_cli
from .conftest import FIXTURES, GOLDEN
from .dotparse import parse_dot
from .test_model import conn, scenario_of

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
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
        ],
    )
    def test_shortest_exact_form(self, value, text):
        assert format_rational(value) == text

    @given(support.rationals)
    def test_output_reads_back_exactly(self, value):
        assert Fraction(format_rational(value)) == value

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
        conncalc.model._memo_literal.cache_clear()
        result = parse_scenario(text)
        assert result.ok and result.scenario == s
        assert [literal for literal, count in Counter(calls).items() if count > 1] == []
        assert set(calls) <= set(literals)


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

    def test_construction_order_does_not_leak(self):
        a = scenario_of(conn("x", "a", "b", magnitude=2), conn("w", "a", "b", magnitude=3))
        b = scenario_of(conn("w", "a", "b", magnitude=3), conn("x", "a", "b", magnitude=2))
        assert serialize_scenario(a) == serialize_scenario(b)

    def test_invalid_scenarios_are_refused(self):
        s = Scenario(entities=(), connections=(), host="ghost")
        with pytest.raises(ValidationError):
            serialize_scenario(s)

    def test_field_tables_name_every_record_field_in_order(self):
        # A field missing from its table would silently drop out of the file.
        tables = [
            (Entity, _ENTITY_FIELDS),
            (AttributeVector, _ATTRIBUTE_FIELDS),
            (Connection, _CONNECTION_FIELDS),
            (RosterHypothetical, _HYPOTHETICAL_FIELDS),
        ]
        for record, table in tables:
            assert list(table) == [f.name for f in dataclasses.fields(record)], record


class TestRoundTrip:
    def test_fixture_value_identity(self, office, office_path):
        assert parse_scenario(serialize_scenario(office)).scenario == office

    @given(support.scenarios(ids=support.hostile_ids))
    def test_serialize_parse_serialize_is_stable(self, s):
        text = serialize_scenario(s)
        result = parse_scenario(text)
        assert result.ok, error_text(result)
        assert result.scenario == s
        assert serialize_scenario(result.scenario) == text


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
        assert sorted(listed) == sorted(table.type for table in _TABLE_LINES.values())

    def test_unknown_format_or_report_type(self, office):
        with pytest.raises(ValueError):
            emit_report(efficiency(office), "yaml")
        with pytest.raises(TypeError):
            emit_report({"score": 7})


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


@st.composite
def mutated_fixture(draw, paths, min_edits=1, surrogates=False) -> str:
    """JSON text of one of the fixtures at ``paths`` after ``min_edits`` to four
    random edits: a value replaced, a key or item dropped, or one added. With
    ``surrogates``, added strings and keys may be a lone surrogate, and a fourth
    edit renames an id to one wherever the id appears."""
    strings, new_keys = st.text(max_size=6), st.text(min_size=1, max_size=6)
    actions = ["replace", "drop", "add"]
    if surrogates:
        strings, new_keys = strings | st.just(SURROGATE), new_keys | st.just(SURROGATE)
        actions.append("rename")
    values = json_values(strings)
    doc = json.loads(draw(st.sampled_from(paths)).read_text())
    for _ in range(draw(st.integers(min_value=min_edits, max_value=4))):
        target = draw(st.sampled_from(containers(doc)))
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        action = draw(st.sampled_from(actions))
        if action == "rename":
            old = draw(st.sampled_from(FIXTURE_ENTITIES + FIXTURE_CONNECTIONS))
            doc = renamed(doc, old, SURROGATE)
        elif action != "add" and keys:
            key = draw(st.sampled_from(keys))
            if action == "replace":
                target[key] = draw(values)
            else:
                del target[key]
        elif isinstance(target, dict):
            target[draw(new_keys)] = draw(values)
        else:
            target.append(draw(values))
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
    drawn from ``rng``: a value replaced, a key or item dropped, one added, or
    an id renamed wherever it appears. Stdlib only, so a seed names the same
    document on every run."""
    doc = copy.deepcopy(rng.choice(docs))
    for _ in range(rng.randint(1, 4)):
        target = rng.choice(containers(doc))
        keys = list(target) if isinstance(target, dict) else list(range(len(target)))
        action = rng.choice(("replace", "drop", "add", "rename"))
        if action == "rename":
            old = rng.choice(FIXTURE_ENTITIES + FIXTURE_CONNECTIONS)
            doc = renamed(doc, old, rng.choice(HOSTILE_IDS))
        elif action != "add" and keys:
            key = rng.choice(keys)
            if action == "replace":
                target[key] = copy.deepcopy(rng.choice(EDIT_VALUES))
            else:
                del target[key]
        elif isinstance(target, dict):
            target[rng.choice(EDIT_KEYS)] = copy.deepcopy(rng.choice(EDIT_VALUES))
        else:
            target.append(copy.deepcopy(rng.choice(EDIT_VALUES)))
    return doc


def diagnostics_text(seeds) -> str:
    """For each seed, its mutation of a fixture's outcome (when it parses,
    a digest of the canonical text or the error that refuses to write it),
    every diagnostic in order, then those of each of its connection objects
    parsed alone at the empty location; ASCII, with other characters
    backslash-escaped.

    ``GOLDEN_DIAGNOSTICS`` holds this text for ``GOLDEN_SEEDS``. A change that
    means to alter diagnostics writes it again, from the repository root:
    ``PYTHONPATH=src python -c "from tests.test_io import *;
    GOLDEN_DIAGNOSTICS.write_text(diagnostics_text(GOLDEN_SEEDS))"``."""
    docs = []
    for name in FIXTURE_FILES:
        doc = json.loads((FIXTURES / name).read_text())
        # Each fixture as it is, and with the optional fields it leaves out.
        rich = copy.deepcopy(doc)
        for entity in rich["entities"][::2]:
            entity["attributes"] = dict(ATTRIBUTES)
        rich["connections"][-1].update(time_index=2, blocked=True, confirmed=True)
        docs += [doc, rich]
    lines = []
    for seed in seeds:
        doc = seeded_mutation(random.Random(seed), docs)
        result = parse_scenario(json.dumps(doc))
        outcome = "refused"
        if result.ok:
            try:
                text = serialize_scenario(result.scenario)
            except ComputationError as exc:  # a number past the int-to-str limit
                outcome = f"ok, unprintable: {exc}"
            else:
                outcome = "ok " + hashlib.sha256(text.encode()).hexdigest()[:16]
        lines.append(f"seed {seed}: {outcome}")
        lines += map(str, result.diagnostics)
        connections = doc.get("connections")
        for item in connections if isinstance(connections, list) else ():
            lines += (f"  {d}" for d in parse_connection_doc(item, location="")[1])
    return "".join(f"{line}\n" for line in lines).encode("ascii", "backslashreplace").decode()


FIXTURE_FILES = ("office_v1.json", "confusion_v1.json")
GOLDEN_SEEDS = range(400)
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
