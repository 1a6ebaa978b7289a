"""Span recording around conncalc's public functions, and the per-layer metrics built from it.

Each module of conncalc is a layer. The tracer wraps the public functions the
CLI calls (in the ``conncalc.cli`` namespace, so only the calls the CLI makes
are spanned) and ``validate_scenario`` wherever validation runs (inside
parsing and inside every ``ensure_valid``). The source is not edited: the
wrappers are installed for the traced run and removed afterwards.

A span is ``[name, start_ns, end_ns, parent, job, count]``, in process CPU
time like every other time the benchmark takes; ``parent`` is the
index of the enclosing span or -1, and ``count`` is a work count some spans
carry (bytes parsed, paths found, connections added, removal steps). Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import statistics
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.job = -1
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0, 0, parent, self.job, None])
        self._stack.append(index)
        self.spans[index][1] = time.process_time_ns()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.process_time_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)

    def wrap(self, fn, name, count=None):
        """Wrap ``fn`` in a span; ``name`` may be a function of the call's arguments."""

        def traced(*args, **kwargs):
            index = self._open(name(*args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if count is not None:
                self.spans[index][5] = count(result, *args)
            return result

        return traced


def _efficiency_name(scenario, *_):
    if scenario.scoring_mode.value == "impact_weighted":
        return "metrics.efficiency_impact"
    return "metrics.efficiency"


# (conncalc module, attribute, span name, work count of one call)
TARGETS = (
    ("cli", "parse_scenario", "scenario_io.parse", lambda result, text: len(text.encode("utf-8"))),
    ("cli", "parse_connection_doc", "scenario_io.parse_connection", None),
    ("cli", "serialize_scenario", "scenario_io.serialize", None),
    ("cli", "export_dot", "scenario_io.export_dot", None),
    ("cli", "emit_report", "scenario_io.render", None),
    ("cli", "efficiency", _efficiency_name, None),
    ("cli", "connectivity_score", "metrics.score", None),
    ("cli", "detect_confusion", "metrics.confusion", None),
    ("cli", "find_paths", "paths.find_paths", lambda result, *_: len(result)),
    (
        "cli",
        "silent_closure",
        "paths.closure",
        lambda result, scenario: len(result.connections) - len(scenario.connections),
    ),
    ("cli", "run_removal", "ablation.removal", lambda result, *_: len(result.steps)),
    ("cli", "run_replacement", "ablation.replacement", None),
    ("model", "validate_scenario", "model.validate", None),
    ("scenario_io", "validate_scenario", "model.validate", None),
)


@contextmanager
def instrumented(tracer: Tracer):
    """Install the span wrappers for the duration of the block."""
    modules = [importlib.import_module(f"conncalc.{module}") for module, _, _, _ in TARGETS]
    originals = [(module, attr, getattr(module, attr)) for module, (_, attr, _, _) in zip(modules, TARGETS)]
    try:
        for (module, attr, fn), (_, _, name, count) in zip(originals, TARGETS):
            setattr(module, attr, tracer.wrap(fn, name, count))
        yield tracer
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


MODULES = ("scenario_io", "model", "metrics", "paths", "ablation", "cli")

# Per-layer metric -> the span it is the median of, per call.
PER_CALL_MS = {
    "scenario_io.parse_ms": "scenario_io.parse",
    "scenario_io.serialize_ms": "scenario_io.serialize",
    "scenario_io.export_dot_ms": "scenario_io.export_dot",
    "scenario_io.render_ms": "scenario_io.render",
    "model.validate_ms": "model.validate",
    "metrics.efficiency_ms": "metrics.efficiency",
    "metrics.efficiency_impact_ms": "metrics.efficiency_impact",
    "metrics.confusion_ms": "metrics.confusion",
    "paths.find_paths_ms": "paths.find_paths",
    "paths.closure_ms": "paths.closure",
    "ablation.removal_ms": "ablation.removal",
    "ablation.replacement_ms": "ablation.replacement",
}
PER_CALL_COUNT = {
    "paths.paths_found": "paths.find_paths",
    "paths.closure_added": "paths.closure",
    "ablation.removal_steps": "ablation.removal",
}


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(spans: list[list], untraced: float, traced: float) -> dict[str, float]:
    """Per-layer metrics from the spans of a traced run.

    The root spans are named ``cli.main`` (one per command). ``untraced`` and
    ``traced`` are the total times of the same commands without and with the
    wrappers installed, for ``trace.overhead_pct``. A layer the workload
    never calls reports 0.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    by_name: dict[str, list[int]] = {}
    self_ns = dict.fromkeys(MODULES, 0)
    for index, (name, start, end, _, _, _) in enumerate(spans):
        by_name.setdefault(name, []).append(index)
        self_ns[name.split(".", 1)[0]] += end - start - child_ns[index]

    def duration(index: int) -> int:
        return spans[index][2] - spans[index][1]

    out: dict[str, float] = {}
    for metric, name in PER_CALL_MS.items():
        out[metric] = _median(duration(i) / 1e6 for i in by_name.get(name, ()))
    for metric, name in PER_CALL_COUNT.items():
        out[metric] = _median(spans[i][5] for i in by_name.get(name, ()))
    out["scenario_io.parse_mib_per_s"] = _median(
        spans[i][5] / 2**20 / (duration(i) / 1e9) for i in by_name.get("scenario_io.parse", ())
    )
    out["ablation.removal_us_per_step"] = _median(
        duration(i) / 1e3 / spans[i][5] for i in by_name.get("ablation.removal", ()) if spans[i][5]
    )
    validations_per_job: dict[int, int] = {}
    for i in by_name.get("model.validate", ()):
        validations_per_job[spans[i][4]] = validations_per_job.get(spans[i][4], 0) + 1
    jobs = {span[4] for span in spans}
    out["model.validate_calls"] = _median(validations_per_job.get(job, 0) for job in jobs)
    roots = by_name.get("cli.main", ())
    out["cli.self_ms"] = _median((duration(i) - child_ns[i]) / 1e6 for i in roots)
    traced_ns = sum(duration(i) for i in roots)
    for module in MODULES:
        out[f"{module}.share_pct"] = 100 * self_ns[module] / traced_ns if traced_ns else 0.0
    out["trace.overhead_pct"] = 100 * (traced - untraced) / untraced if untraced else 0.0
    return out


def inclusive_ms(spans: list[list]) -> dict[str, float]:
    """Total time per span name, children included (for the human-readable split)."""
    totals: dict[str, float] = {}
    for name, start, end, *_ in spans:
        totals[name] = totals.get(name, 0.0) + (end - start) / 1e6
    return totals
