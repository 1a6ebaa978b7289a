"""Work grows linearly with the input on the commands guarded here.

One warm ``cli.main`` run of each command is counted in Python profile
events (``call`` and ``c_call``, through ``sys.setprofile``) on the
benchmark's generated ``analyze`` files at two sizes, ``SCALE`` times apart.
A command whose work is linear in the connections reads about ``SCALE``
between the two; a step that is quadratic reads near ``SCALE ** 2``. The
counts are exact for the seeded files, so the test times nothing and cannot
flake. Work done inside C without a call, such as big-integer arithmetic or
a list scan, makes no event and is not seen.

No command leaves reference cycles: with the cyclic collector paused,
``gc.collect()`` finds no object after one warm ``cli.main`` run, at either
size, ``closure`` included.

Path search is counted the same way, one ``find_paths`` call over two hops on
the silent closure of generated scenarios of n and 2n entities, with the pair
index already built. There every entity neighbours every other, so the
two-hop paths grow with n; a search that scans the neighbours of the last
entity on the last hop grows with n squared.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import random
import sys
from pathlib import Path

import pytest

import conncalc.scenario_io
from conncalc import find_paths, parse_scenario, silent_closure
from conncalc.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402

SIZE, SCALE = 300, 4
# ``paths`` also takes ``--from``/``--to`` from the job's own ``paths`` command.
# ``closure`` is left out: by the connection law its output grows with the
# entity pairs, not with the connections.
COMMANDS = {
    "validate": ["validate"],
    "score": ["score"],
    "score-impact": ["score", "--mode", "impact"],
    "quality": ["quality"],
    "confusion": ["confusion"],
    "ablate-most-first": ["ablate", "--order", "most-first"],
    "export-dot": ["export-dot"],
    "paths": ["paths", "--max-hops", "2"],
}
# Closure's output grows with the entity pairs, but it leaves no cycle either.
CYCLE_COMMANDS = {**COMMANDS, "closure": ["closure"]}
# The ratios read 2.8-3.8; 5 leaves room for changes that stay linear, and a
# quadratic step reads near 16.
MAX_RATIO = 5


@pytest.fixture(scope="module")
def jobs(tmp_path_factory) -> list[dict]:
    return gen.generate("analyze", 5, tmp_path_factory.mktemp("growth"), (SIZE, SCALE * SIZE))


def path_ends(job: dict) -> list[str]:
    """The ``--from``/``--to`` options of the job's ``paths`` command."""
    argv = next(argv for argv, _ in job["commands"] if argv[0] == "paths")
    start = argv.index("--from")
    return argv[start : start + 4]


def counted_events(call):
    """``call()``'s result and the ``call`` and ``c_call`` events it made."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" or event == "c_call":
            count += 1

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, count


def profile_events(argv: list[str]) -> int:
    """The profile events of a ``main(argv)`` run after a first, uncounted
    run of the same command."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
        code, count = counted_events(lambda: main(argv))
    assert code == 0
    return count


def command_argv(command: str, job: dict) -> list[str]:
    name, *options = CYCLE_COMMANDS[command]
    return [name, job["file"], *options, *(path_ends(job) if name == "paths" else ())]


@pytest.mark.parametrize("command", list(COMMANDS))
def test_profile_events_grow_linearly(jobs, command):
    small, large = (profile_events(command_argv(command, job)) for job in jobs)
    assert small > 0
    assert large / small <= MAX_RATIO, (command, small, large)


def cycle_objects(argv: list[str]) -> int:
    """The objects ``gc.collect()`` finds unreachable after a ``main(argv)``
    run that follows a first, uncounted run, with collection paused
    throughout: what the run left in reference cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
            gc.collect()
            assert main(argv) == 0
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("command", list(CYCLE_COMMANDS))
def test_cycle_garbage_does_not_grow(jobs, command):
    counts = [cycle_objects(command_argv(command, job)) for job in jobs]
    assert counts == [0, 0], (command, counts)


def test_a_cycle_per_record_fails_the_cycle_guard(jobs, monkeypatch):
    original = conncalc.scenario_io._new_connection

    def planted(*values):
        cycle = []
        cycle.append(cycle)
        return original(*values)

    monkeypatch.setattr(conncalc.scenario_io, "_new_connection", planted)
    small, large = (cycle_objects(command_argv("validate", job)) for job in jobs)
    assert large - small == (SCALE - 1) * SIZE


# Two-hop paths between two entities of a closed graph number about n, and
# the count reads about 2 from n to 2n entities; a search that scans every
# neighbour on the last hop reads about 3.4.
PATH_ENTITIES = 40
MAX_PATH_RATIO = 2.5


def path_search_events(n: int) -> int:
    doc = gen.scenario_doc(
        random.Random(3), n, 4 * n, silent_share=0.3, blocked_share=0.1, desired=False
    )
    closed = silent_closure(parse_scenario(json.dumps(doc)).scenario)
    assert closed.links  # the pair index is built before counting
    src, dst = closed.entities[0].id, closed.entities[-1].id
    paths, count = counted_events(
        lambda: find_paths(closed, src, dst, 2, include_silent=True)
    )
    assert len(paths) > n // 2
    return count


def test_path_search_events_grow_with_the_paths():
    small, large = (path_search_events(n) for n in (PATH_ENTITIES, 2 * PATH_ENTITIES))
    assert small > 0
    assert large / small <= MAX_PATH_RATIO, (small, large)
