"""Tests of the benchmark itself: inputs, oracle, metric names and a smoke run.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tree(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", gen.SIZES)
def test_same_seed_gives_same_input_bytes(tmp_path, workload):
    gen.generate(workload, 7, tmp_path / "a")
    gen.generate(workload, 7, tmp_path / "b")
    gen.generate(workload, 8, tmp_path / "c")
    first = _tree(tmp_path / "a")
    assert first == _tree(tmp_path / "b")
    assert first != _tree(tmp_path / "c")


def test_generated_files_are_canonical(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    from conncalc import parse_scenario, serialize_scenario

    for job in gen.generate("analyze", 1, tmp_path, gen.TINY_SIZES["analyze"]):
        text = Path(job["file"]).read_text(encoding="ascii")
        assert serialize_scenario(parse_scenario(text).scenario) == text


def test_oracle_reproduces_office_fixture():
    doc = oracle.Doc.load(ROOT / "fixtures" / "office_v1.json")
    assert doc.score(impact=False) == 7
    assert doc.ideal(impact=False) == 56
    assert 100 * doc.score(False) / doc.ideal(False) == Fraction(25, 2)
    table = "score=7 ideal=56 efficiency=12.5% band=failing mode=raw\n"
    assert oracle.check_score(table, doc, impact=False, as_json=False) is None
    wrong = table.replace("score=7", "score=8")
    assert oracle.check_score(wrong, doc, impact=False, as_json=False) is not None


def test_oracle_checks_the_documented_removal_trajectory():
    doc = oracle.Doc.load(ROOT / "fixtures" / "confusion_v1.json")
    argv = ["ablate", "f", "--order", "most-first"]
    out = (
        "order=most-first ideal=9 steps=2\n"
        "step=1 blocked=aa score=4 efficiency=400/9%\n"
        "step=2 blocked=ab score=0 efficiency=0%\n"
    )
    assert oracle.check_removal(out, doc, argv) is None
    assert oracle.check_removal(out.replace("score=4", "score=5"), doc, argv) is not None
    assert oracle.check_removal(out.replace("most-first", "least-first", 1), doc, argv) is not None


def test_oracle_checks_the_documented_paths():
    doc = oracle.Doc.load(ROOT / "fixtures" / "office_v1.json")
    argv = ["paths", "f", "--from", "Ea", "--to", "Ec", "--include-silent"]
    out = "Ea -> Ec via ec-ea\nEa -> Eb -> Ec via ea-eb,ec-eb\n"
    assert oracle.check_paths(out, doc, argv) is None
    assert oracle.check_paths(out.splitlines()[1] + "\n", doc, argv) is not None
    assert oracle.check_paths("(no paths)\n", doc, argv[:-1]) is not None  # Ea-Ec is silent


def test_oracle_rejects_a_closure_that_breaks_the_law():
    original = oracle.Doc.load(ROOT / "fixtures" / "confusion_v1.json")
    assert oracle.check_closure(original, original) is not None  # B has no self-connection


def test_metric_names_are_well_formed_and_unique():
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in BENCHMARK[kind]]
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in names)
    assert len(names) == len(set(names))
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(gen.SIZES)


def test_every_per_layer_metric_is_computed():
    declared = {m["name"] for m in BENCHMARK["per_layer"]}
    assert set(spans.layer_metrics([["cli.main", 0, 10, -1, 0, None]], 10, 11)) == declared


def _run(workload: str, trace: int, cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", gen.SIZES)
def test_tiny_smoke_run_passes_every_check(workload, trace):
    proc = _run(workload, trace, ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert "fail_ratio 0 " in proc.stdout
    kind = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in BENCHMARK[kind]]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("analyze", 0, tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
