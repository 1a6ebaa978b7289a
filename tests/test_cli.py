"""End-to-end command-line behavior: output text and exit codes."""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import conncalc
from conncalc import law_holds, parse_scenario, serialize_scenario, silent_closure
from conncalc.cli import main

from .conftest import GOLDEN


@pytest.fixture()
def bad_file(tmp_path):
    doc = {
        "version": 1,
        "host": "a",
        "entities": [{"id": "a", "kind": "known"}],
        "connections": [
            {"id": "aa", "src": "a", "dst": "a", "kind": "self",
             "polarity": 1, "magnitude": "11"}
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture()
def lonely_file(tmp_path):
    doc = {
        "version": 1,
        "host": "a",
        "entities": [{"id": "a", "kind": "known"}],
        "connections": [],
    }
    path = tmp_path / "lonely.json"
    path.write_text(json.dumps(doc))
    return str(path)


def run_strict(argv: list[str]) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``main(argv)``. Stdout is a strict UTF-8
    stream, as a pipe or terminal is; ``io.StringIO`` would take text that has
    no UTF-8 form."""
    out = io.TextIOWrapper(io.BytesIO(), encoding="utf-8", newline="")
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()) as err:
        code = main(argv)
    out.flush()
    return code, out.buffer.getvalue().decode("utf-8"), err.getvalue()


# A valid scenario's JSON text with raw fragments spliced in by name.
SMALL_DOC = (
    '{"version": %(version)s, "host": "a", "mode": %(mode)s,'
    ' "entities": [{"id": "a", "kind": "known"}, {"id": "b", "kind": "known"}],'
    ' "connections": [{"id": "ab", "src": "a", "dst": "b", "kind": "real",'
    ' "polarity": %(polarity)s, "magnitude": "2"}]}'
)


class TestValidate:
    def test_good_file(self, office_path, capsys):
        assert main(["validate", str(office_path)]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_bad_file(self, bad_file, capsys):
        assert main(["validate", bad_file]) == 1
        out = capsys.readouterr().out
        assert out.endswith("invalid\n")
        assert "[1, 10]" in out

    def test_machine_format(self, office_path, capsys):
        assert main(["validate", str(office_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {"type": "validation_report", "valid": True, "diagnostics": []}

    def test_machine_format_collects_diagnostics(self, bad_file, capsys):
        assert main(["validate", bad_file, "--format", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["valid"] is False
        assert any("[1, 10]" in d["message"] for d in doc["diagnostics"])

    @pytest.mark.parametrize(
        "site, location",
        [
            ("connection", "ab.magnitude"),
            ("roster", "ideal_roster[0].magnitude"),
            ("attribute", "entities[1].attributes"),
        ],
    )
    def test_value_too_long_to_print_is_a_diagnostic(self, site, location, tmp_path, capsys):
        # 10**5000 has more digits than Python converts to text by default,
        # so naming it in a range message must not raise.
        huge = "1e5000"
        doc = {
            "version": 1,
            "host": "a",
            "entities": [{"id": "a", "kind": "known"}, {"id": "b", "kind": "known"}],
            "connections": [
                {"id": "ab", "src": "a", "dst": "b", "kind": "real",
                 "polarity": 1, "magnitude": huge if site == "connection" else "2"}
            ],
        }
        if site == "roster":
            doc["ideal_roster"] = [{"hypothetical": {"src": "a", "dst": "b", "magnitude": huge}}]
        if site == "attribute":
            doc["entities"][1]["attributes"] = {
                "existence": huge, "inner_state": "0.5",
                "external_state": "0.5", "communication_state": "0.5",
            }
        text = json.dumps(doc)
        result = parse_scenario(text)
        assert not result.ok
        assert [d.location for d in result.errors] == [location]
        assert "<number too long to print>" in result.errors[0].message
        path = tmp_path / "huge.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"error {location}: " in out
        assert out.endswith("invalid\n")

    @pytest.mark.parametrize(
        "fragments, location, message",
        [
            ({"mode": "[]"}, "mode", "unknown scoring mode: []"),
            ({"mode": "{}"}, "mode", "unknown scoring mode: {}"),
            ({"mode": '["raw"]'}, "mode", "unknown scoring mode: ['raw']"),
            ({"mode": "1e5000"}, "mode", "unknown scoring mode: <number too long to print>"),
            (
                {"version": "1e5000"},
                "version",
                "unsupported format version <number too long to print>; expected 1",
            ),
            ({"version": "1.5"}, "version", "unsupported format version Fraction(3, 2); expected 1"),
            (
                {"polarity": "1e5000"},
                "connections[0].polarity",
                "polarity must be 1 or -1, got <number too long to print>",
            ),
            ({"version": "1" * 4301}, "document", "invalid JSON: "),
            ({"mode": "[" * 5000 + "]" * 5000}, "document", "invalid JSON: "),
        ],
        ids=[
            "mode-array", "mode-object", "mode-array-of-name", "mode-huge", "version-huge",
            "version-fraction", "polarity-huge", "integer-past-digit-limit", "nested-5000-deep",
        ],
    )
    def test_hostile_content_is_a_diagnostic(self, fragments, location, message, tmp_path, capsys):
        text = SMALL_DOC % {"version": "1", "mode": '"raw"', "polarity": "1", **fragments}
        result = parse_scenario(text)
        assert not result.ok
        assert [d.location for d in result.errors] == [location]
        assert result.errors[0].message.startswith(message)
        path = tmp_path / "hostile.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        out = capsys.readouterr().out
        assert f"error {location}: {message}" in out
        assert out.endswith("invalid\n")


    @pytest.mark.parametrize("quoted", [True, False], ids=["string", "json-number"])
    @pytest.mark.parametrize(
        "literal, limit",
        [
            ("1e1000000", "numeric literal has an exponent past 10000"),
            ("1e10000000", "numeric literal has an exponent past 10000"),
            ("5" + "0" * 4400 + "e-4400", "numeric literal has more than 4300 digits"),
        ],
        ids=["exponent-1e6", "exponent-1e7", "exact-4401-digits"],
    )
    def test_literal_past_the_size_limit_is_a_diagnostic(
        self, literal, limit, quoted, tmp_path, capsys
    ):
        # Each is rejected before Fraction() runs: "1e10000000" would take
        # seconds to build, and 4,401 digits cannot be built at all.
        text = (SMALL_DOC % {"version": "1", "mode": '"raw"', "polarity": "1"}).replace(
            '"magnitude": "2"', f'"magnitude": {json.dumps(literal) if quoted else literal}'
        )
        location, message = (
            ("connections[0].magnitude", limit) if quoted else ("document", f"invalid JSON: {limit}")
        )
        result = parse_scenario(text)
        assert [(d.location, d.message) for d in result.errors] == [(location, message)]
        path = tmp_path / "literal.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        assert f"error {location}: {message}\n" in capsys.readouterr().out


class TestValidationCount:
    """A command validates its scenario once: parsing does, and every metric
    reads the result the scenario keeps."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["score", "{file}"],
            ["score", "{file}", "--mode", "impact"],
            ["quality", "{file}"],
            ["confusion", "{file}"],
            ["--format", "json", "score", "{file}"],
            ["validate", "{file}"],
            ["--format", "json", "validate", "{file}"],
            ["paths", "{file}", "--from", "Ea", "--to", "Ec"],
            ["--format", "json", "paths", "{file}", "--from", "Ea", "--to", "Ec"],
            ["--format", "json", "quality", "{file}"],
            ["ablate", "{file}", "--order", "least-first"],
        ],
        ids=[
            "score", "score-impact", "quality", "confusion", "json-score", "validate",
            "json-validate", "paths", "json-paths", "json-quality", "ablate-least-first",
        ],
    )
    def test_one_validation_per_command(self, argv, office_path, monkeypatch):
        calls = []
        original = conncalc.model.validate_scenario

        def counted(scenario):
            calls.append(scenario)
            return original(scenario)

        # Both names the function is reachable by, so a validation through
        # either one counts.
        monkeypatch.setattr(conncalc.model, "validate_scenario", counted)
        monkeypatch.setattr(conncalc.scenario_io, "validate_scenario", counted)
        assert main([arg.format(file=office_path) for arg in argv]) == 0
        assert len(calls) == 1


class TestRenderCount:
    """Every command that prints a report renders it through one
    ``emit_report`` call; a command that writes a file renders none."""

    @pytest.mark.parametrize("fmt", ["table", "json"])
    @pytest.mark.parametrize(
        "argv, renders",
        [
            (["validate", "{file}"], 1),
            (["score", "{file}"], 1),
            (["quality", "{file}"], 1),
            (["confusion", "{file}"], 1),
            (["paths", "{file}", "--from", "Ea", "--to", "Ec"], 1),
            (["ablate", "{file}", "--order", "most-first"], 1),
            (["ablate", "{file}", "--order", "least-first", "--replace", "{spec}"], 1),
            (["closure", "{file}"], 0),
            (["export-dot", "{file}"], 0),
        ],
        ids=[
            "validate", "score", "quality", "confusion", "paths", "ablate",
            "ablate-replace", "closure", "export-dot",
        ],
    )
    def test_one_emit_report_call(self, argv, renders, fmt, office_path, monkeypatch, capsys):
        calls = []
        original = conncalc.cli.emit_report

        def counted(report, fmt="table"):
            calls.append(fmt)
            return original(report, fmt)

        monkeypatch.setattr(conncalc.cli, "emit_report", counted)
        args = [arg.format(file=office_path, spec=_REPLACE_SPEC) for arg in argv]
        assert main(["--format", fmt, *args]) == 0
        assert len(calls) == renders
        assert capsys.readouterr().out


class TestUnprintableResult:
    @pytest.mark.parametrize(
        "args, site",
        [
            (["quality"], "desired"),
            (["closure"], "desired"),
            (["score", "--mode", "impact"], "attribute"),
        ],
        ids=["quality", "closure", "impact-score"],
    )
    def test_exits_2_with_an_error_line(self, args, site, tmp_path, capsys):
        # Each result is valid but has more digits than Python converts to text.
        doc = json.loads(SMALL_DOC % {"version": "1", "mode": '"raw"', "polarity": "1"})
        if site == "desired":
            doc["desired_connectivity"] = "1e5000"
        else:
            doc["entities"][1]["attributes"] = {
                "existence": "1e-5000", "inner_state": "0.5",
                "external_state": "0.5", "communication_state": "0.5",
            }
        path = tmp_path / "valid.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        capsys.readouterr()
        assert main([args[0], str(path), *args[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: number too long to print exactly")


class TestUnencodableOutput:
    """A JSON escape can decode to a lone surrogate, which has no UTF-8 form.
    A command whose output would hold one exits 2 and writes nothing; JSON
    output escapes it and succeeds."""

    ENCODE_ERROR = "error: 'utf-8' codec can't encode character '\\ud800'"

    @pytest.fixture()
    def surrogate_file(self, tmp_path):
        doc = json.loads(SMALL_DOC % {"version": "1", "mode": '"raw"', "polarity": "1"})
        doc["entities"][1]["id"] = doc["connections"][0]["dst"] = "\ud800"
        doc["connections"][0]["id"] = "\ud800"
        doc["\ud800"] = None
        path = tmp_path / "surrogate.json"
        path.write_text(json.dumps(doc), encoding="ascii")
        return str(path)

    @pytest.mark.parametrize(
        "argv, json_code",
        [
            (["export-dot", "{file}"], 2),  # DOT has no JSON form
            (["paths", "{file}", "--from", "a", "--to", "\ud800"], 0),
            (["ablate", "{file}", "--order", "most-first"], 0),
            (["validate", "{file}"], 0),
        ],
        ids=["export-dot", "paths", "ablate", "validate"],
    )
    def test_exits_2_and_writes_nothing(self, argv, json_code, surrogate_file):
        args = [arg.format(file=surrogate_file) for arg in argv]
        code, out, err = run_strict(args)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith(self.ENCODE_ERROR)
        assert run_strict(["--format", "json", *args])[0] == json_code

    def test_output_file_is_not_created(self, surrogate_file, tmp_path):
        target = tmp_path / "graph.dot"
        code, out, err = run_strict(["export-dot", surrogate_file, "-o", str(target)])
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith(self.ENCODE_ERROR)
        assert not target.exists()


class TestScore:
    def test_table(self, office_path, capsys):
        assert main(["score", str(office_path)]) == 0
        assert capsys.readouterr().out == (
            "score=7 ideal=56 efficiency=12.5% band=failing mode=raw\n"
        )

    def test_mode_override(self, office_path, capsys):
        assert main(["score", str(office_path), "--mode", "impact"]) == 0
        out = capsys.readouterr().out
        assert "mode=impact_weighted" in out
        assert "efficiency=12.5%" in out

    def test_root_level_format_flag(self, office_path, capsys):
        assert main(["--format", "json", "score", str(office_path)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["type"], doc["score"], doc["ideal"]) == (
            "connectivity_report", "7", "56",
        )

    def test_command_format_beats_root_format(self, office_path, capsys):
        code = main(["--format", "table", "score", str(office_path), "--format", "json"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["type"] == "connectivity_report"

    def test_invalid_file(self, bad_file, capsys):
        assert main(["score", bad_file]) == 1
        assert "failed validation" in capsys.readouterr().err

    def test_zero_ideal(self, lonely_file, capsys):
        assert main(["score", lonely_file]) == 2
        assert "error:" in capsys.readouterr().err


class TestQuality:
    def test_table(self, confusion_path, capsys):
        assert main(["quality", str(confusion_path)]) == 0
        assert capsys.readouterr().out == (
            "score=-1 desired=8 quality=-12.5% band=failing\n"
        )

    def test_machine(self, confusion_path, capsys):
        assert main(["quality", str(confusion_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "type": "quality_report",
            "score": "-1",
            "desired": "8",
            "quality_percent": "-12.5",
            "band": "failing",
        }

    def test_missing_desired_connectivity(self, lonely_file, capsys):
        assert main(["quality", lonely_file]) == 2
        assert "desired_connectivity" in capsys.readouterr().err


class TestConfusion:
    def test_table(self, confusion_path, capsys):
        assert main(["confusion", str(confusion_path)]) == 0
        assert capsys.readouterr().out == (
            "z=-1 quality=-12.5% confused=true causes=self_conflict\n"
        )

    def test_machine(self, office_path, capsys):
        assert main(["confusion", str(office_path), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["causes"] == ["missing_entity_info"]


class TestPaths:
    def test_real_only(self, office_path, capsys):
        assert main(["paths", str(office_path), "--from", "Ea", "--to", "Ec"]) == 0
        assert capsys.readouterr().out == "Ea -> Eb -> Ec via ea-eb,ec-eb\n"

    def test_include_silent(self, office_path, capsys):
        code = main(
            ["paths", str(office_path), "--from", "Ea", "--to", "Ec", "--include-silent"]
        )
        assert code == 0
        assert capsys.readouterr().out == (
            "Ea -> Ec via ec-ea\nEa -> Eb -> Ec via ea-eb,ec-eb\n"
        )

    def test_no_paths(self, office_path, capsys):
        assert main(["paths", str(office_path), "--from", "Ea", "--to", "En"]) == 0
        assert capsys.readouterr().out == "(no paths)\n"

    def test_machine(self, office_path, capsys):
        code = main(
            ["--format", "json", "paths", str(office_path), "--from", "Ea", "--to", "Ec"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "type": "paths",
            "src": "Ea",
            "dst": "Ec",
            "max_hops": 3,
            "paths": [{"entities": ["Ea", "Eb", "Ec"], "hops": ["ea-eb", "ec-eb"]}],
        }

    def test_unknown_entity(self, office_path, capsys):
        assert main(["paths", str(office_path), "--from", "Zz", "--to", "Ec"]) == 2
        assert "unknown entity" in capsys.readouterr().err

    def test_max_hops_must_be_positive(self, office_path, capsys):
        code = main(
            ["paths", str(office_path), "--from", "Ea", "--to", "Ec", "--max-hops", "0"]
        )
        assert code == 64


class TestClosure:
    def test_stdout(self, office_path, office, capsys):
        assert main(["closure", str(office_path)]) == 0
        out = capsys.readouterr().out
        assert out == serialize_scenario(silent_closure(office))

    def test_output_file(self, office_path, tmp_path, capsys):
        target = tmp_path / "closed.json"
        assert main(["closure", str(office_path), "-o", str(target)]) == 0
        assert capsys.readouterr().out == ""
        result = parse_scenario(target.read_text())
        assert result.ok
        assert law_holds(result.scenario)


class TestAblate:
    def test_removal_table(self, confusion_path, capsys):
        assert main(["ablate", str(confusion_path), "--order", "most-first"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "order=most-first ideal=9 steps=2",
            "step=1 blocked=aa score=4 efficiency=400/9%",
            "step=2 blocked=ab score=0 efficiency=0%",
        ]

    def test_removal_machine(self, confusion_path, capsys):
        code = main(
            ["ablate", str(confusion_path), "--order", "least-first", "--format", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["type"] == "quality_trajectory"
        assert doc["order"] == "least-first"
        assert [s["blocked_connection"] for s in doc["steps"]] == ["ab", "aa"]

    def test_replacement(self, office_path, capsys):
        spec = json.dumps(
            {
                "blocked": "ea-eb",
                "connection": {
                    "id": "fresh", "src": "Ea", "dst": "Eb", "kind": "real",
                    "polarity": 1, "magnitude": "7",
                },
            }
        )
        code = main(["ablate", str(office_path), "--order", "least-first", "--replace", spec])
        assert code == 0
        assert capsys.readouterr().out == (
            "blocked=ea-eb replacement=fresh quality_before=12.5%"
            " quality_blocked=0% quality_after=12.5%\n"
        )

    def test_replace_spec_must_be_json(self, office_path, capsys):
        code = main(
            ["ablate", str(office_path), "--order", "least-first", "--replace", "{oops"]
        )
        assert code == 64
        assert "must be JSON" in capsys.readouterr().err

    def test_replace_spec_needs_both_keys(self, office_path, capsys):
        code = main(
            ["ablate", str(office_path), "--order", "least-first", "--replace", "{}"]
        )
        assert code == 64
        assert "'blocked' and 'connection'" in capsys.readouterr().err

    def test_replace_spec_nested_too_deep_is_a_usage_error(self, office_path, capsys):
        spec = "[" * 5000 + "]" * 5000
        code = main(
            ["ablate", str(office_path), "--order", "least-first", "--replace", spec]
        )
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("usage:")
        assert "must be JSON" in err

    def test_replace_spec_rejects_a_connection_with_field_errors(self, office_path, capsys):
        # The connection still decodes (bad fields fall back to defaults), but
        # each error diagnostic must reject the spec, not run the experiment.
        spec = json.dumps(
            {
                "blocked": "ea-eb",
                "connection": {
                    "id": "fresh", "src": "Ea", "dst": "Eb", "kind": "real",
                    "polarity": 1, "magnitude": "7", "blocked": "yes",
                    "time_index": "soon",
                },
            }
        )
        code = main(["ablate", str(office_path), "--order", "least-first", "--replace", spec])
        assert code == 64
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error connection.blocked:" in captured.err
        assert "error connection.time_index:" in captured.err

    @pytest.mark.parametrize("quoted", [True, False], ids=["string", "json-number"])
    def test_replace_spec_literal_past_the_size_limit_is_a_usage_error(
        self, quoted, office_path, capsys
    ):
        magnitude = '"1e10000000"' if quoted else "1e10000000"
        spec = (
            '{"blocked": "ea-eb", "connection": {"id": "fresh", "src": "Ea", "dst": "Eb",'
            f' "kind": "real", "polarity": 1, "magnitude": {magnitude}}}}}'
        )
        code = main(["ablate", str(office_path), "--order", "least-first", "--replace", spec])
        assert code == 64
        assert "numeric literal has an exponent past 10000" in capsys.readouterr().err

    def test_replace_spec_validates_the_connection(self, office_path, capsys):
        spec = json.dumps({"blocked": "ea-eb", "connection": {"id": "fresh"}})
        code = main(
            ["ablate", str(office_path), "--order", "least-first", "--replace", spec]
        )
        assert code == 64

    def test_replacement_id_collision(self, office_path, capsys):
        spec = json.dumps(
            {
                "blocked": "ea-eb",
                "connection": {
                    "id": "eb-eb", "src": "Ea", "dst": "Eb", "kind": "real",
                    "polarity": 1, "magnitude": "7",
                },
            }
        )
        code = main(["ablate", str(office_path), "--order", "least-first", "--replace", spec])
        assert code == 2
        assert "already in use" in capsys.readouterr().err

    def test_order_is_required(self, office_path, capsys):
        assert main(["ablate", str(office_path)]) == 64

    def test_zero_ideal(self, lonely_file, capsys):
        assert main(["ablate", lonely_file, "--order", "least-first"]) == 2


class TestExportDot:
    def test_stdout_matches_the_golden_file(self, office_path, capsys):
        golden = (
            __import__("pathlib").Path(__file__).parent / "golden" / "office_v1.dot"
        )
        assert main(["export-dot", str(office_path)]) == 0
        assert capsys.readouterr().out == golden.read_text()

    def test_output_file(self, office_path, tmp_path, capsys):
        target = tmp_path / "graph.dot"
        assert main(["export-dot", str(office_path), "-o", str(target)]) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().startswith("graph scenario {")


_REPLACE_SPEC = json.dumps(
    {
        "blocked": "ea-eb",
        "connection": {
            "id": "fresh", "src": "Ea", "dst": "Eb", "kind": "real",
            "polarity": 1, "magnitude": "7",
        },
    }
)

# Every --format json document, byte for byte: the key order, indentation,
# ASCII escaping and trailing newline are part of the output contract.
JSON_DOCUMENTS = {
    "connectivity_report": (
        ["score", "office_path"],
        0,
        """{
  "type": "connectivity_report",
  "score": "7",
  "ideal": "56",
  "efficiency_percent": "12.5",
  "band": "failing",
  "mode": "raw"
}
""",
    ),
    "confusion_report": (
        ["confusion", "confusion_path"],
        0,
        """{
  "type": "confusion_report",
  "z": "-1",
  "quality_percent": "-12.5",
  "confused": true,
  "causes": [
    "self_conflict"
  ]
}
""",
    ),
    "quality_trajectory": (
        ["ablate", "confusion_path", "--order", "most-first"],
        0,
        """{
  "type": "quality_trajectory",
  "order": "most-first",
  "ideal": "9",
  "steps": [
    {
      "step": 1,
      "blocked_connection": "aa",
      "score": "4",
      "efficiency_percent": "400/9"
    },
    {
      "step": 2,
      "blocked_connection": "ab",
      "score": "0",
      "efficiency_percent": "0"
    }
  ]
}
""",
    ),
    "replacement_report": (
        ["ablate", "office_path", "--order", "least-first", "--replace", _REPLACE_SPEC],
        0,
        """{
  "type": "replacement_report",
  "blocked_id": "ea-eb",
  "replacement_id": "fresh",
  "ideal": "56",
  "quality_before": "12.5",
  "quality_blocked": "0",
  "quality_after": "12.5"
}
""",
    ),
    "quality_report": (
        ["quality", "confusion_path"],
        0,
        """{
  "type": "quality_report",
  "score": "-1",
  "desired": "8",
  "quality_percent": "-12.5",
  "band": "failing"
}
""",
    ),
    "validation_report": (
        ["validate", "office_path"],
        0,
        """{
  "type": "validation_report",
  "valid": true,
  "diagnostics": []
}
""",
    ),
    "validation_report with diagnostics": (
        ["validate", "bad_file"],
        1,
        """{
  "type": "validation_report",
  "valid": false,
  "diagnostics": [
    {
      "severity": "error",
      "location": "aa.magnitude",
      "message": "magnitude 11 outside [1, 10]"
    }
  ]
}
""",
    ),
    "paths": (
        ["paths", "office_path", "--from", "Ea", "--to", "Ec", "--include-silent"],
        0,
        """{
  "type": "paths",
  "src": "Ea",
  "dst": "Ec",
  "max_hops": 3,
  "paths": [
    {
      "entities": [
        "Ea",
        "Ec"
      ],
      "hops": [
        "ec-ea"
      ]
    },
    {
      "entities": [
        "Ea",
        "Eb",
        "Ec"
      ],
      "hops": [
        "ea-eb",
        "ec-eb"
      ]
    }
  ]
}
""",
    ),
}


class TestJsonDocuments:
    @pytest.mark.parametrize("name", sorted(JSON_DOCUMENTS))
    def test_exact_bytes(self, name, request, capsys):
        argv, code, expected = JSON_DOCUMENTS[name]
        command, file_fixture, *rest = argv
        path = str(request.getfixturevalue(file_fixture))
        assert main(["--format", "json", command, path, *rest]) == code
        assert capsys.readouterr().out == expected


class TestUsageAndErrors:
    def test_no_arguments(self, capsys):
        assert main([]) == 64

    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 64
        assert "error:" in capsys.readouterr().err

    def test_unknown_flag(self, office_path, capsys):
        assert main(["score", str(office_path), "--loud"]) == 64

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        assert "command" in capsys.readouterr().out

    def test_help_and_usage_text_match_the_golden_file(self):
        assert help_text() == GOLDEN_HELP.read_text()

    def test_unreadable_file(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert main(["score", str(missing)]) == 1
        assert "cannot read" in capsys.readouterr().err

    def test_warnings_go_to_stderr(self, tmp_path, capsys):
        doc = {
            "version": 1,
            "host": "a",
            "entities": [{"id": "a", "kind": "known"}],
            "connections": [],
            "garnish": True,
        }
        path = tmp_path / "warn.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        # validate prints diagnostics on stdout as part of its report
        assert "unknown key ignored" in capsys.readouterr().out
        assert main(["export-dot", str(path)]) == 0
        captured = capsys.readouterr()
        assert "unknown key ignored" in captured.err


HELP_COMMANDS = (
    "validate", "score", "quality", "confusion", "paths", "closure", "ablate", "export-dot"
)
GOLDEN_HELP = GOLDEN / "cli_help.txt"


def help_text() -> str:
    """``--help`` of the root and of each command, then a bad ``--format``
    before and after the command: each command line with its exit code,
    stdout and stderr, at a fixed width of 80 columns.

    ``GOLDEN_HELP`` holds this text. A change that means to alter the help
    writes it again, from the repository root: ``PYTHONPATH=src python -c
    "from tests.test_cli import *; GOLDEN_HELP.write_text(help_text())"``."""
    lines = []
    argvs = [["--help"], *([command, "--help"] for command in HELP_COMMANDS)]
    argvs += [["--format", "xml", "score", "scenario.json"]]
    argvs += [["score", "scenario.json", "--format", "xml"]]
    for argv in argvs:
        with (
            mock.patch.dict(os.environ, COLUMNS="80"),
            contextlib.redirect_stdout(io.StringIO()) as out,
            contextlib.redirect_stderr(io.StringIO()) as err,
        ):
            code = main(argv)
        lines.append(f"$ conncalc {' '.join(argv)}\nexit {code}\n")
        lines.append(f"--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}")
    return "".join(lines)


OFFICE_SCORE_LINE = "score=7 ideal=56 efficiency=12.5% band=failing mode=raw\n"

# What an installer's generated console script does with an entry point.
CONSOLE_SCRIPT = """\
import sys
from importlib.metadata import EntryPoint

func = EntryPoint({name!r}, {value!r}, "console_scripts").load()
sys.argv[0] = {name!r}
sys.exit(func())
"""


class TestInstalledScript:
    def test_console_entry_point(self, office_path):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"].get("scripts", {})
        assert list(scripts) == ["conncalc"]
        script = CONSOLE_SCRIPT.format(name="conncalc", value=scripts["conncalc"])
        src = Path(conncalc.__file__).resolve().parent.parent
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(src), env.get("PYTHONPATH")])
        )

        def start(*args):
            return subprocess.run(
                [sys.executable, "-c", script, *args],
                capture_output=True, text=True, env=env,
            )

        proc = start("score", str(office_path))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == OFFICE_SCORE_LINE
        # main()'s code must reach the process: no arguments is a usage error
        assert start().returncode == 64

    @pytest.mark.skipif(
        shutil.which("conncalc") is None,
        reason="conncalc console script not on PATH (package not installed)",
    )
    def test_installed_script_on_path(self, office_path):
        proc = subprocess.run(
            [shutil.which("conncalc"), "score", str(office_path)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == OFFICE_SCORE_LINE
