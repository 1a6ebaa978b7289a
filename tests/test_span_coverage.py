"""The benchmark's span wrappers still see every layer they time.

``perfbench/spans.py`` wraps names in the ``conncalc.cli`` namespace (and
``validate_scenario`` where validation runs) while a traced run lasts. A
handler that stops calling one of those names only turns that layer's metric
into 0 in the benchmark; this test fails instead. It runs each workload's
small jobs with the wrappers installed and checks that every span name was
recorded.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

from conncalc.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402
import spans  # noqa: E402

# ``efficiency`` spans take one of two names, by the scenario's scoring mode.
EFFICIENCY_NAMES = {"metrics.efficiency", "metrics.efficiency_impact"}


def test_every_traced_name_is_recorded(tmp_path):
    named = [name for _, _, name, _ in spans.TARGETS]
    assert [name for name in named if not isinstance(name, str)] == [spans._efficiency_name]
    expected = {name for name in named if isinstance(name, str)} | EFFICIENCY_NAMES

    tracer = spans.Tracer()
    with spans.instrumented(tracer):
        for workload, sizes in gen.TINY_SIZES.items():
            for job in gen.generate(workload, 1, tmp_path / workload, sizes):
                for argv, expected_code in job["commands"]:
                    with (
                        contextlib.redirect_stdout(io.StringIO()),
                        contextlib.redirect_stderr(io.StringIO()),
                    ):
                        assert main(argv) == expected_code, argv
    recorded = {span[0] for span in tracer.spans}
    assert expected - recorded == set()
