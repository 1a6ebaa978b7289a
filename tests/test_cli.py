"""End-to-end command-line behavior: output text and exit codes."""

from __future__ import annotations

import contextlib
import errno
import gc
import io
import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest

import conncalc
from conncalc import Connection, cli, law_holds, parse_scenario, serialize_scenario, silent_closure
from conncalc.cli import ReplaceSpec, build_parser, main

from .conftest import GOLDEN

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402 - the benchmark's input generator


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
        "site, location, message",
        [
            ("desired", "<scenario>.desired_connectivity", ""),
            ("attribute", "entities[1].attributes", "attribute existence: "),
            ("magnitude", "ab.magnitude", ""),
            ("hypothetical", "ideal_roster[0].magnitude", ""),
        ],
        ids=["desired", "attribute", "magnitude", "hypothetical"],
    )
    def test_number_with_no_exact_text_is_refused(
        self, site, location, message, tmp_path, capsys
    ):
        # 10**5000 has 5,001 digits. 1/2**6200 and (2**6200 + 1)/2**6200 are
        # in range and written with fewer than 4,300 digits, but their decimal
        # forms have 6,200 places. What validate accepts, closure must write.
        doc = json.loads(SMALL_DOC % {"version": "1", "mode": '"raw"', "polarity": "1"})
        in_range = f"{2**6200 + 1}/{2**6200}"
        if site == "desired":
            doc["desired_connectivity"] = "1e5000"
        elif site == "attribute":
            doc["entities"][1]["attributes"] = {
                "existence": f"1/{2**6200}", "inner_state": "0.5",
                "external_state": "0.5", "communication_state": "0.5",
            }
        elif site == "magnitude":
            doc["connections"][0]["magnitude"] = in_range
        else:
            doc["ideal_roster"] = [{"hypothetical": {"src": "a", "dst": "b", "magnitude": in_range}}]
        message += "number too long to print exactly (over 4300 digits)"
        text = json.dumps(doc)
        assert [(d.location, d.message) for d in parse_scenario(text).errors] == [(location, message)]
        path, closed = tmp_path / "unprintable.json", tmp_path / "closed.json"
        path.write_text(text)
        assert main(["validate", str(path)]) == 1
        assert f"error {location}: {message}\n" in capsys.readouterr().out
        assert main(["closure", str(path), "-o", str(closed)]) == 1
        assert not closed.exists()

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
    """A command validates each scenario it reads or builds once: parsing
    validates the input, every metric reads the result the scenario keeps,
    and a scenario the command builds is validated before it is used."""

    @staticmethod
    def _count(monkeypatch) -> list:
        """The scenarios validated, counted under both names the function is
        reachable by, so a validation through either one counts."""
        calls = []
        original = conncalc.model.validate_scenario

        def counted(scenario):
            calls.append(scenario)
            return original(scenario)

        monkeypatch.setattr(conncalc.model, "validate_scenario", counted)
        monkeypatch.setattr(conncalc.scenario_io, "validate_scenario", counted)
        return calls

    # Each command that only reads its file; ``paths`` runs from ``{src}`` to ``{dst}``.
    READ_COMMANDS = [
        ["score", "{file}"],
        ["score", "{file}", "--mode", "impact"],
        ["quality", "{file}"],
        ["confusion", "{file}"],
        ["--format", "json", "score", "{file}"],
        ["validate", "{file}"],
        ["--format", "json", "validate", "{file}"],
        ["paths", "{file}", "--from", "{src}", "--to", "{dst}"],
        ["--format", "json", "paths", "{file}", "--from", "{src}", "--to", "{dst}"],
        ["--format", "json", "quality", "{file}"],
        ["ablate", "{file}", "--order", "least-first"],
        ["export-dot", "{file}"],
    ]
    READ_IDS = [
        "score", "score-impact", "quality", "confusion", "json-score", "validate",
        "json-validate", "paths", "json-paths", "json-quality", "ablate-least-first",
        "export-dot",
    ]

    @pytest.mark.parametrize("argv", READ_COMMANDS, ids=READ_IDS)
    def test_one_validation_per_command(self, argv, office_path, monkeypatch):
        calls = self._count(monkeypatch)
        assert main([arg.format(file=office_path, src="Ea", dst="Ec") for arg in argv]) == 0
        assert len(calls) == 1

    @staticmethod
    def _roster_free(which: str, office_path, tmp_path) -> tuple[str, str, str]:
        """A file without an ideal roster, the office fixture's or a generated
        ``analyze`` one, and two of its entities."""
        if which == "office":
            doc = json.loads(office_path.read_text(encoding="utf-8"))
            del doc["ideal_roster"]
            path = tmp_path / "office.json"
            path.write_text(json.dumps(doc), encoding="utf-8")
            return str(path), "Ea", "Ec"
        (job,) = gen.generate("analyze", 3, tmp_path, gen.TINY_SIZES["analyze"][:1])
        doc = json.loads(Path(job["file"]).read_text(encoding="ascii"))
        return job["file"], doc["host"], doc["entities"][-1]["id"]

    @staticmethod
    def _count_proofs(monkeypatch) -> list:
        """The scenarios the parse built as proven valid, with their violations set."""
        built = []
        original = conncalc.scenario_io._proven_scenario

        def counted(*fields):
            built.append(original(*fields))
            return built[-1]

        monkeypatch.setattr(conncalc.scenario_io, "_proven_scenario", counted)
        return built

    @pytest.mark.parametrize("which", ["office", "generated"])
    @pytest.mark.parametrize("argv", READ_COMMANDS, ids=READ_IDS)
    def test_a_roster_free_file_is_not_validated(
        self, argv, which, office_path, tmp_path, monkeypatch
    ):
        # The read proves the file valid, and the command reads the violations it set.
        path, src, dst = self._roster_free(which, office_path, tmp_path)
        calls, built = self._count(monkeypatch), self._count_proofs(monkeypatch)
        assert main([arg.format(file=path, src=src, dst=dst) for arg in argv]) == 0
        assert calls == [] and len(built) == 1
        assert built[0].__dict__["violations"] == ()

    @pytest.mark.parametrize(
        "argv, sizes",
        [
            (["closure", "{file}"], [22]),
            (["ablate", "{file}", "--order", "least-first", "--replace", "{spec}"], [1]),
        ],
        ids=["closure", "ablate-replace"],
    )
    def test_a_roster_free_file_validates_only_what_is_built(
        self, argv, sizes, office_path, tmp_path, monkeypatch
    ):
        path, _, _ = self._roster_free("office", office_path, tmp_path)
        calls = self._count(monkeypatch)
        assert main([arg.format(file=path, spec=_REPLACE_SPEC) for arg in argv]) == 0
        assert [len(s.connections) for s in calls] == sizes

    @pytest.mark.parametrize(
        "argv, sizes",
        [
            (["closure", "{file}"], [7, 22]),
            (["ablate", "{file}", "--order", "least-first", "--replace", "{spec}"], [7, 1]),
        ],
        ids=["closure", "ablate-replace"],
    )
    def test_a_built_scenario_is_validated_once_more(self, argv, sizes, office_path, monkeypatch):
        # The input, then the scenario the command builds from it; ``sizes``
        # are their connection counts.
        calls = self._count(monkeypatch)
        assert main([arg.format(file=office_path, spec=_REPLACE_SPEC) for arg in argv]) == 0
        assert [len(s.connections) for s in calls] == sizes

    def test_closure_of_a_closed_scenario_validates_once(self, office_path, tmp_path, monkeypatch):
        closed = tmp_path / "closed.json"
        assert main(["closure", str(office_path), "-o", str(closed)]) == 0
        calls = self._count(monkeypatch)
        assert main(["closure", str(closed), "-o", str(tmp_path / "again.json")]) == 0
        assert [len(s.connections) for s in calls] == [22]


class TestScenarioInitCount:
    """``score --mode`` rescores the parsed scenario without sorting and
    coercing its fields again: ``Scenario.__post_init__`` runs for the parse
    only."""

    @pytest.mark.parametrize("mode", ["raw", "impact"])
    def test_once_per_command(self, mode, office_path, monkeypatch, capsys):
        calls = []
        original = conncalc.Scenario.__post_init__

        def counted(self):
            calls.append(len(self.connections))
            original(self)

        monkeypatch.setattr(conncalc.Scenario, "__post_init__", counted)
        assert main(["score", str(office_path), "--mode", mode]) == 0
        assert calls == [7]
        assert capsys.readouterr().out


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


class TestParserCount:
    """The first run in a process builds the root parser and every command's
    parser, in ``_COMMANDS`` order, whatever it runs; a later run builds
    none."""

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["validate", "{file}"], 0),
            (["score", "{file}"], 0),
            (["quality", "{file}"], 0),
            (["--format", "json", "confusion", "{file}"], 0),
            (["paths", "{file}", "--from", "Ea", "--to", "Ec"], 0),
            (["closure", "{file}"], 0),
            (["ablate", "{file}", "--order", "least-first"], 0),
            (["export-dot", "{file}", "--format", "json"], 0),
            (["score", "--help"], 0),
            (["ablate", "{file}"], 64),
            (["--help"], 0),
            (["frobnicate"], 64),
            ([], 64),
        ],
        ids=[
            "validate", "score", "quality", "confusion", "paths", "closure", "ablate",
            "export-dot", "score-help", "ablate-usage-error", "help", "unknown-command",
            "no-arguments",
        ],
    )
    def test_one_command_parser_per_run(
        self, argv, code, office_path, monkeypatch, capsys
    ):
        progs = []
        original = conncalc.cli._Parser.__init__

        def counted(self, *args, **kwargs):
            progs.append(kwargs["prog"])
            original(self, *args, **kwargs)

        monkeypatch.setattr(conncalc.cli._Parser, "__init__", counted)
        argv = [arg.format(file=office_path) for arg in argv]
        build_parser.cache_clear()
        assert main(argv) == code
        assert progs == ["conncalc", *(f"conncalc {command[0]}" for command in cli._COMMANDS)]
        progs.clear()
        assert main(argv) == code
        assert progs == []


class TestRepeatedRun:
    """A second run of one command line in one process prints the same bytes
    as the first."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["ablate", "{file}", "--order", "least-first"],
            ["--format", "json", "ablate", "{file}", "--order", "least-first"],
            ["closure", "{file}"],
        ],
        ids=["ablate", "json-ablate", "closure"],
    )
    def test_a_second_run_prints_the_same_bytes(self, argv, office_path, capsys):
        argv = [arg.format(file=office_path) for arg in argv]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


class TestUnprintableResult:
    @pytest.mark.parametrize(
        "args, site",
        [
            (["quality"], "desired"),
            (["score", "--mode", "impact"], "attribute"),
        ],
        ids=["quality", "impact-score"],
    )
    def test_exits_2_with_an_error_line(self, args, site, tmp_path, capsys):
        # Each file is valid and each of its numbers prints, but the result has
        # more digits than Python converts to text: 100 * 2 / (2**6200 / 3) is
        # 75 / 2**6197, whose decimal form has 4,333 digits.
        doc = json.loads(SMALL_DOC % {"version": "1", "mode": '"raw"', "polarity": "1"})
        if site == "desired":
            doc["desired_connectivity"] = f"{2**6200}/3"
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

    def test_max_hops_must_be_an_integer(self, office_path, capsys):
        code = main(
            ["paths", str(office_path), "--from", "Ea", "--to", "Ec", "--max-hops", "abc"]
        )
        assert code == 64
        assert "argument --max-hops: not an integer: 'abc'" in capsys.readouterr().err


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

    def test_replace_spec_blocked_must_be_a_string(self, office_path, capsys):
        spec = json.dumps({"blocked": 5, "connection": {}})
        code = main(
            ["ablate", str(office_path), "--order", "least-first", "--replace", spec]
        )
        assert code == 64
        assert "'blocked' must be a connection id string" in capsys.readouterr().err

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

    def test_replacement_violations_are_reported(self, office_path, capsys):
        spec = json.dumps(
            {
                "blocked": "ea-eb",
                "connection": {
                    "id": "fresh", "src": "Ea", "dst": "ghost", "kind": "real",
                    "polarity": 1, "magnitude": "11",
                },
            }
        )
        code = main(["ablate", str(office_path), "--order", "least-first", "--replace", spec])
        assert code == 1
        assert capsys.readouterr() == (
            "",
            "error: invalid scenario: fresh.dst: endpoint 'ghost' is not an entity;"
            " fresh.magnitude: magnitude 11 outside [1, 10]\n",
        )

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


F = "scenario.json"

# Each command line and every attribute of the namespace it parses to, so a
# lost default, ``dest`` or ``set_defaults`` shows even where help would not.
PARSED = {
    "validate": (
        ["validate", F],
        dict(command="validate", format="table", file=F, handler=cli._cmd_validate),
    ),
    "root-format": (
        ["--format", "json", "validate", F],
        dict(command="validate", format="json", file=F, handler=cli._cmd_validate),
    ),
    "command-format": (
        ["validate", F, "--format", "json"],
        dict(command="validate", format="json", file=F, handler=cli._cmd_validate),
    ),
    "command-format-wins": (
        ["--format", "json", "validate", F, "--format", "table"],
        dict(command="validate", format="table", file=F, handler=cli._cmd_validate),
    ),
    "score": (
        ["score", F],
        dict(command="score", format="table", file=F, handler=cli._cmd_score, mode=None),
    ),
    "score-mode": (
        ["--format", "json", "score", F, "--mode", "impact"],
        dict(command="score", format="json", file=F, handler=cli._cmd_score, mode="impact"),
    ),
    "quality": (
        ["quality", F],
        dict(command="quality", format="table", file=F, handler=cli._cmd_quality),
    ),
    "confusion": (
        ["confusion", F, "--format", "json"],
        dict(command="confusion", format="json", file=F, handler=cli._cmd_confusion),
    ),
    "paths": (
        ["paths", F, "--from", "a", "--to", "b"],
        dict(
            command="paths", format="table", file=F, handler=cli._cmd_paths,
            src="a", dst="b", max_hops=3, include_silent=False,
        ),
    ),
    "paths-options": (
        ["paths", F, "--to", "b", "--from", "a", "--max-hops", "2", "--include-silent"],
        dict(
            command="paths", format="table", file=F, handler=cli._cmd_paths,
            src="a", dst="b", max_hops=2, include_silent=True,
        ),
    ),
    "closure": (
        ["closure", F],
        dict(command="closure", format="table", file=F, handler=cli._cmd_closure, output=None),
    ),
    "closure-output": (
        ["closure", F, "-o", "out.json"],
        dict(
            command="closure", format="table", file=F, handler=cli._cmd_closure,
            output="out.json",
        ),
    ),
    "ablate": (
        ["ablate", F, "--order", "most-first"],
        dict(
            command="ablate", format="table", file=F, handler=cli._cmd_ablate,
            order="most-first", replace=None,
        ),
    ),
    "ablate-replace": (
        ["ablate", F, "--order", "least-first", "--replace", _REPLACE_SPEC],
        dict(
            command="ablate", format="table", file=F, handler=cli._cmd_ablate,
            order="least-first",
            replace=ReplaceSpec(
                "ea-eb",
                Connection(
                    id="fresh", src="Ea", dst="Eb", kind="real", polarity=1,
                    magnitude=Fraction(7),
                ),
            ),
        ),
    ),
    "export-dot": (
        ["export-dot", F],
        dict(
            command="export-dot", format="table", file=F, handler=cli._cmd_export_dot,
            output=None,
        ),
    ),
    "export-dot-output": (
        ["--format", "json", "export-dot", F, "--output", "g.dot"],
        dict(
            command="export-dot", format="json", file=F, handler=cli._cmd_export_dot,
            output="g.dot",
        ),
    ),
}


class TestParsedNamespace:
    @pytest.mark.parametrize("name", PARSED)
    def test_every_attribute(self, name):
        argv, expected = PARSED[name]
        parsed = vars(build_parser().parse_args(argv))
        assert parsed["handler"] is expected["handler"]
        assert parsed == expected

    def test_the_shared_parser_carries_nothing_between_runs(self):
        # Each case twice, forward and then reverse, so every case follows
        # others that set a root ``--format``, ``--mode``, ``-o`` or ``--replace``.
        parser = build_parser()
        for name in [*PARSED, *reversed(PARSED)]:
            argv, expected = PARSED[name]
            assert build_parser() is parser
            assert vars(parser.parse_args(argv)) == expected, name


class TestCollectorPause:
    """``main`` pauses the cyclic collector while a command runs and leaves it
    as it found it, on every exit."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        """The collector's state on entry to ``main``; restored afterwards."""
        enabled = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["score", "{office}"], 0),
            (["--help"], 0),
            (["score", "{bad}"], 1),
            (["score", "{lonely}"], 2),
            (["frobnicate"], 64),
        ],
        ids=["exit-0", "help", "exit-1", "exit-2", "exit-64"],
    )
    def test_main_leaves_the_collector_as_it_found_it(
        self, collector, argv, expected, office_path, bad_file, lonely_file, capsys
    ):
        files = {"office": office_path, "bad": bad_file, "lonely": lonely_file}
        paused = []
        original = cli.parse_scenario

        def watched(text):
            paused.append(not gc.isenabled())
            return original(text)

        with mock.patch.object(cli, "parse_scenario", watched):
            assert main([arg.format(**files) for arg in argv]) == expected
        assert gc.isenabled() is collector
        assert all(paused) and len(paused) == (argv[0] == "score")

    def test_a_raising_command_leaves_the_collector_as_it_found_it(self, collector, office_path):
        with mock.patch.object(cli, "efficiency", side_effect=RuntimeError("boom")):
            with pytest.raises(RuntimeError, match="boom"):
                main(["score", str(office_path)])
        assert gc.isenabled() is collector


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

    @pytest.mark.parametrize("command", ["closure", "export-dot"])
    @pytest.mark.parametrize("target, code", [(".", errno.EISDIR), ("missing/x.out", errno.ENOENT)])
    def test_unwritable_output_file(self, command, target, code, office_path, tmp_path, capsys):
        path = str(tmp_path / target)
        assert main([command, str(office_path), "-o", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: [Errno {code}] {os.strerror(code)}: {path!r}\n"

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


# Usage errors that each command's own parser reports, then an unknown command.
USAGE_ERRORS = (
    ["--format", "xml", "score", "scenario.json"],
    ["score", "scenario.json", "--format", "xml"],
    ["paths", "scenario.json", "--to", "b"],
    ["paths", "scenario.json", "--from", "a", "--to", "b", "--max-hops", "0"],
    ["ablate", "scenario.json"],
    ["ablate", "scenario.json", "--order", "sideways"],
    ["score", "scenario.json", "--mode", "loud"],
    ["closure"],
    ["frobnicate"],
)


def help_text() -> str:
    """``--help`` of the root and of each command, then the usage errors of
    ``USAGE_ERRORS``: each command line with its exit code, stdout and
    stderr, at a fixed width of 80 columns.

    ``GOLDEN_HELP`` holds this text. A change that means to alter the help
    writes it again, from the repository root: ``PYTHONPATH=src python -c
    "from tests.test_cli import *; GOLDEN_HELP.write_text(help_text())"``."""
    lines = []
    argvs = [["--help"], *([command, "--help"] for command in HELP_COMMANDS)]
    argvs += USAGE_ERRORS
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
