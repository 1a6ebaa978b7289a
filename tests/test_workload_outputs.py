"""Every benchmark workload command keeps its exit code and output bytes.

The benchmark's ``output_sha256`` covers whole commands only when the
benchmark runs. This test runs each job of ``perfbench/gen.TINY_SIZES`` at
one seed in-process and compares each command's exit code and the sha256 of
its stdout, plus its ``-o`` file, with ``tests/golden/workload_outputs.txt``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from conncalc.cli import main

from .conftest import GOLDEN

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402

SEED = 3
GOLDEN_WORKLOADS = GOLDEN / "workload_outputs.txt"


def workload_outputs(out_dir: Path) -> str:
    """One line per command of every tiny workload job at ``SEED``: the
    command line (``$DIR`` standing for ``out_dir``), its exit code and the
    sha256 of its stdout followed by its ``-o`` file.

    ``GOLDEN_WORKLOADS`` holds this text. A change that means to alter a
    command's output writes it again, from the repository root:
    ``PYTHONPATH=src python -c "import tempfile, pathlib; from
    tests.test_workload_outputs import *; GOLDEN_WORKLOADS.write_text(
    workload_outputs(pathlib.Path(tempfile.mkdtemp())))"``."""
    lines = []
    for workload, sizes in gen.TINY_SIZES.items():
        for job in gen.generate(workload, SEED, out_dir / workload, sizes):
            for argv, _ in job["commands"]:
                with (
                    contextlib.redirect_stdout(io.StringIO()) as out,
                    contextlib.redirect_stderr(io.StringIO()),
                ):
                    code = main(argv)
                digest = hashlib.sha256(out.getvalue().encode("utf-8"))
                if "-o" in argv:
                    digest.update(Path(argv[argv.index("-o") + 1]).read_bytes())
                shown = " ".join(argv).replace(str(out_dir), "$DIR")
                lines.append(f"$ conncalc {shown}\nexit {code} sha256 {digest.hexdigest()}\n")
    return "".join(lines)


def test_workload_outputs_match_the_golden_file(tmp_path):
    assert workload_outputs(tmp_path) == GOLDEN_WORKLOADS.read_text()
