"""Work grows linearly with the input on the read commands guarded here.

One warm ``cli.main`` run of each command is counted in Python profile
events (``call`` and ``c_call``, through ``sys.setprofile``) on the
benchmark's generated ``analyze`` files at two sizes, ``SCALE`` times apart.
A command whose work is linear in the connections reads about ``SCALE``
between the two; a step that is quadratic reads near ``SCALE ** 2``. The
counts are exact for the seeded files, so the test times nothing and cannot
flake. Work done inside C without a call, such as big-integer arithmetic or
a list scan, makes no event and is not seen.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from conncalc.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402

SIZE, SCALE = 300, 4
COMMANDS = {
    "validate": ["validate"],
    "score-impact": ["score", "--mode", "impact"],
    "confusion": ["confusion"],
}
# The ratios read about 3.5; 5 leaves room for changes that stay linear, and
# a quadratic step reads near 16.
MAX_RATIO = 5


@pytest.fixture(scope="module")
def files(tmp_path_factory) -> list[str]:
    jobs = gen.generate("analyze", 5, tmp_path_factory.mktemp("growth"), (SIZE, SCALE * SIZE))
    return [job["file"] for job in jobs]


def profile_events(argv: list[str]) -> int:
    """The ``call`` and ``c_call`` events of a ``main(argv)`` run after a
    first, uncounted run of the same command."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
        sys.setprofile(profile)
        try:
            code = main(argv)
        finally:
            sys.setprofile(None)
    assert code == 0
    return count


@pytest.mark.parametrize("command", list(COMMANDS))
def test_profile_events_grow_linearly(files, command):
    name, *options = COMMANDS[command]
    small, large = (profile_events([name, path, *options]) for path in files)
    assert small > 0
    assert large / small <= MAX_RATIO, (command, small, large)
