"""Work grows linearly with the input on the commands guarded here.

One warm ``cli.main`` run of each command is counted in Python profile
events (``call`` and ``c_call``, through ``sys.setprofile``) on the
benchmark's generated ``analyze`` files at two sizes, ``SCALE`` times apart.
A command whose work is linear in the connections reads about ``SCALE``
between the two; a step that is quadratic reads near ``SCALE ** 2``. The
counts are exact for the seeded files, so the test times nothing and cannot
flake. Work done inside C without a call, such as big-integer arithmetic or
a list scan, makes no event and is not seen. ``closure`` is counted per
connection written, since its output grows with the entity pairs.

No command leaves reference cycles: with the cyclic collector paused,
``gc.collect()`` finds no object after one warm ``cli.main`` run, at either
size, ``closure`` included.

Parsing is counted per record: the Python ``call`` events of one
``parse_scenario`` of a canonical file, divided by its entities and
connections, stay near the frames each record needs: its builder, called from
the one walk over its array.

Ablation is counted per step: the Python ``call`` events of a warm
``run_removal`` on a generated 400-connection ``ablate`` file, and of each
rendering of its trajectory, divided by the steps.

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
from conncalc import RemovalOrder, emit_report, find_paths, parse_scenario, run_removal
from conncalc import silent_closure
from conncalc.cli import main

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import gen  # noqa: E402

SIZE, SCALE = 300, 4
# Each command line, ``{file}`` standing for the job's file; ``paths`` also
# takes ``--from``/``--to`` from the job's own ``paths`` command.
COMMANDS = {
    "validate": ["validate", "{file}"],
    "score": ["score", "{file}"],
    "score-impact": ["score", "{file}", "--mode", "impact"],
    "quality": ["quality", "{file}"],
    "confusion": ["confusion", "{file}"],
    "ablate-most-first": ["ablate", "{file}", "--order", "most-first"],
    "json-ablate-most-first": ["--format", "json", "ablate", "{file}", "--order", "most-first"],
    "export-dot": ["export-dot", "{file}"],
    "paths": ["paths", "{file}", "--max-hops", "2"],
}
# By the connection law, closure's output grows with the entity pairs, not
# with the connections read, so its events are counted per connection written.
CYCLE_COMMANDS = {**COMMANDS, "closure": ["closure", "{file}"]}
# The ratios read 2.8-3.8; 5 leaves room for changes that stay linear, and a
# quadratic step reads near 16.
MAX_RATIO = 5
# Closure's events per connection written read 30.1 and 17.6, a ratio of
# 0.59: its fixed work spreads over more connections, so linear work reads at
# most about 1. A generator scan of the entities per connection written reads
# 2.2, and one of the connections 12.6.
MAX_CLOSURE_RATIO = 1.5


@pytest.fixture(scope="module")
def jobs(tmp_path_factory) -> list[dict]:
    return gen.generate("analyze", 5, tmp_path_factory.mktemp("growth"), (SIZE, SCALE * SIZE))


def path_ends(job: dict) -> list[str]:
    """The ``--from``/``--to`` options of the job's ``paths`` command."""
    argv = next(argv for argv, _ in job["commands"] if argv[0] == "paths")
    start = argv.index("--from")
    return argv[start : start + 4]


def counted_events(call, events=("call", "c_call"), module=""):
    """``call()``'s result and the profile events of the kinds ``events`` it made,
    only those in functions of the file ``module`` when that is given."""
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event in events and frame.f_code.co_filename.endswith(module):
            count += 1

    sys.setprofile(profile)
    try:
        result = call()
    finally:
        sys.setprofile(None)
    return result, count


def profile_events(argv: list[str]) -> tuple[int, str]:
    """The profile events of a ``main(argv)`` run after a first, uncounted
    run of the same command, and what the counted run printed."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code, count = counted_events(lambda: main(argv))
    assert code == 0
    return count, out.getvalue()


def command_argv(command: str, job: dict) -> list[str]:
    argv = [job["file"] if arg == "{file}" else arg for arg in CYCLE_COMMANDS[command]]
    return argv + path_ends(job) if argv[0] == "paths" else argv


@pytest.mark.parametrize("command", list(COMMANDS))
def test_profile_events_grow_linearly(jobs, command):
    (small, _), (large, _) = (profile_events(command_argv(command, job)) for job in jobs)
    assert small > 0
    assert large / small <= MAX_RATIO, (command, small, large)


def closure_events_per_connection(job: dict) -> float:
    count, out = profile_events(command_argv("closure", job))
    return count / len(json.loads(out)["connections"])


def test_closure_events_grow_with_the_connections_written(jobs):
    small, large = (closure_events_per_connection(job) for job in jobs)
    assert large / small <= MAX_CLOSURE_RATIO, (small, large)


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


# Python calls per record in a parse of the canonical 2,000-connection file
# read 1.59: a builder per record, and a few calls per distinct literal and
# attribute vector. They read 1.68 when each entity took a plain step of its
# own, 2.59 when each connection did as well, and 5.19 when a connection
# passed through four frames and an entity through the field table. One more
# call per connection reads 2.5.
PARSE_CONNECTIONS = 2000
MAX_PARSE_CALLS_PER_RECORD = 2


def test_parsing_makes_few_calls_per_record(tmp_path):
    (job,) = gen.generate("analyze", 5, tmp_path, (PARSE_CONNECTIONS,))
    text = Path(job["file"]).read_text(encoding="ascii")
    doc = json.loads(text)
    records = len(doc["entities"]) + len(doc["connections"])
    assert parse_scenario(text).ok  # the count below is of a second parse
    result, calls = counted_events(lambda: parse_scenario(text), ("call",))
    assert result.ok and len(result.scenario.connections) == PARSE_CONNECTIONS
    assert calls / records <= MAX_PARSE_CALLS_PER_RECORD, calls / records


# Per step of a warm run_removal on the 400-connection file, Python calls read
# 3.05: a step record and its two values, each built by a plain function. 2.01 of
# them went into ``fractions`` when each value was ``Fraction(n, d)``; now 0.01.
# Per step of either rendering, calls read 2.05, an ``as_integer_ratio`` a value;
# they read 6.03 when each value printed through ``_shortest_text`` after reading
# ``numerator`` and ``denominator``.
ABLATE_CONNECTIONS = 400
MAX_REMOVAL_CALLS_PER_STEP = 3.5
MAX_REMOVAL_FRACTION_CALLS_PER_STEP = 0.5
MAX_RENDER_CALLS_PER_STEP = 3


@pytest.fixture(scope="module")
def ablated(tmp_path_factory):
    """A warm scenario of the generated 400-connection file, and its trajectories."""
    (job,) = gen.generate(
        "ablate", 3, tmp_path_factory.mktemp("ablate"), (ABLATE_CONNECTIONS,)
    )
    scenario = parse_scenario(Path(job["file"]).read_text(encoding="ascii")).scenario
    trajectories = [run_removal(scenario, order) for order in RemovalOrder]
    assert all(len(t.steps) == ABLATE_CONNECTIONS for t in trajectories)
    return scenario, trajectories


@pytest.mark.parametrize("order", list(RemovalOrder), ids=lambda order: order.value)
def test_removal_makes_few_calls_per_step(ablated, order):
    scenario, _ = ablated
    trajectory, calls = counted_events(lambda: run_removal(scenario, order), ("call",))
    _, fraction_calls = counted_events(
        lambda: run_removal(scenario, order), ("call",), "fractions.py"
    )
    steps = len(trajectory.steps)
    assert calls / steps <= MAX_REMOVAL_CALLS_PER_STEP, calls / steps
    assert fraction_calls / steps <= MAX_REMOVAL_FRACTION_CALLS_PER_STEP, fraction_calls / steps


@pytest.mark.parametrize("fmt", ["table", "machine"])
def test_rendering_makes_few_calls_per_step(ablated, fmt):
    _, trajectories = ablated
    for trajectory in trajectories:
        text, calls = counted_events(lambda: emit_report(trajectory, fmt), ("call",))
        assert text.count("efficiency") >= len(trajectory.steps)
        assert calls / len(trajectory.steps) <= MAX_RENDER_CALLS_PER_STEP, calls


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
