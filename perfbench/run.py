"""conncalc benchmark: closed-loop workloads through ``conncalc.cli.main``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 25 --trace 0

The run generates the workload's scenario files from the seed, measures
set-up time in fresh processes, then has one client in one fresh process run
whole rounds of jobs (one job = one file through the workload's command
script) for the given seconds, and checks every output against an oracle
that does not use conncalc's valuation. Times are process CPU time (see
worker.py). With ``--trace 0`` it reports the end-to-end metrics; with
``--trace 1`` every job also runs a second time with spans around the
library calls, and it reports the per-layer metrics. The last line of
stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import oracle  # noqa: E402
import spans  # noqa: E402

WORKLOADS = tuple(gen.SIZES)
SETUP_PROCESSES = 5  # fresh processes timed for setup_s, the measured one included
MIN_COMMANDS = 100  # so that at least ten latency samples lie beyond p90
TIME_LIMIT_S = 170  # a run must end well inside three minutes
# End-to-end times are scaled to a host on which one calibration (see
# worker.py) takes this much CPU time; 2 ms is typical of the baseline host.
REFERENCE_CALIBRATION_NS = 2_000_000


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 1


def _spawn(plan_path: Path, mode: str, result_path: Path, env: dict, deadline: float) -> dict:
    """Run one fresh worker and return its result."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(plan_path), mode, str(result_path)],
        env=env,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def check_outputs(jobs: list[dict], out_dir: Path) -> dict[tuple[int, int], str]:
    """Oracle verdict for the first output of every command: reason, or absent when right."""
    docs: dict[str, oracle.Doc] = {}
    for job in jobs:
        for path in (job["file"], job.get("output")):
            if path is not None and path not in docs:
                docs[path] = oracle.Doc.load(path)
    wrong = {}
    for j, job in enumerate(jobs):
        for k, (argv, _) in enumerate(job["commands"]):
            out = (out_dir / f"{j}-{k}.stdout").read_text(encoding="utf-8")
            try:
                reason = oracle.check_command(argv, out, docs, job)
            except (KeyError, ValueError, IndexError, TypeError, ZeroDivisionError) as exc:
                reason = f"unreadable output ({exc!r})"
            if reason is not None:
                wrong[(j, k)] = reason
    return wrong


def scale(ns: int, before: int, after: int) -> float:
    """CPU time on a host where one calibration takes the reference time."""
    return ns * REFERENCE_CALIBRATION_NS / ((before + after) / 2)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    root = Path.cwd()
    if not (root / "src" / "conncalc" / "cli.py").is_file():
        return _fail("run from the root of a conncalc checkout (src/conncalc not found)")

    work = root / ".perfbench_work" / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    out_dir = work / "out"
    out_dir.mkdir(parents=True)
    try:
        sizes = gen.TINY_SIZES[args.workload] if args.tiny else gen.SIZES[args.workload]
        jobs = gen.generate(args.workload, args.seed, work, sizes)
        plan_path = work / "plan.json"
        plan = {
            "jobs": jobs,
            "out_dir": str(out_dir),
            "seconds": args.seconds,
            "min_commands": MIN_COMMANDS,
        }
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), env.get("PYTHONPATH")) if p
        )

        setups = []
        if not args.trace:
            for i in range(SETUP_PROCESSES - 1):
                setups.append(_spawn(plan_path, "setup", work / f"setup{i}.json", env, deadline)["setup"])
        result = _spawn(plan_path, "trace" if args.trace else "run", work / "result.json", env, deadline)
        setups.append(result["setup"])

        wrong = check_outputs(jobs, out_dir)
        commands = result["commands"]
        failures = [
            (j, k, status if status != "ok" else wrong[(j, k)])
            for j, k, _, status, _, _ in commands
            if status != "ok" or (j, k) in wrong
        ]
        attempted, failed = len(commands), len(failures)
        digest = hashlib.sha256()
        for _, _, command_digest in result["digests"]:
            digest.update(command_digest.encode("ascii"))

        print(
            f"workload={args.workload} seed={args.seed} rounds={result['rounds']}"
            f" commands={attempted} loop_wall_s={result['loop_wall_s']:.1f}"
            f" python={sys.version.split()[0]} cores={os.cpu_count()}"
        )
        for j, k, reason in failures[:10]:
            print(f"FAILED {jobs[j]['name']} {' '.join(jobs[j]['commands'][k][0])}: {reason}")
        print(f"fail_ratio {failed / attempted:.6g} ({failed}/{attempted} commands)")
        print(f"output_sha256 {digest.hexdigest()}")

        samples = {}
        calibration = result["calibration_ns"]
        scaled_ms = {False: [], True: []}  # by traced
        for _, k, elapsed, _, n, traced in commands:
            scaled_ms[traced].append(scale(elapsed, calibration[n], calibration[n + 1]) / 1e6)
        if args.trace:
            metrics = spans.layer_metrics(result["spans"], sum(scaled_ms[False]), sum(scaled_ms[True]))
            declared = _declared("per_layer")
            for name, total in sorted(spans.inclusive_ms(result["spans"]).items()):
                print(f"span {name:28} {total:12.1f} ms inclusive")
        else:
            setup_s = [scale(s["cpu_ns"], *s["calibration_ns"]) / 1e9 for s in setups]
            latencies = scaled_ms[False]
            n_jobs = sum(1 for _, k, *_ in commands if k == 0)
            metrics = {
                "setup_s": statistics.median(setup_s),
                "jobs_per_s": n_jobs / (sum(latencies) / 1e3),
                "cmd_p50_ms": statistics.median(latencies),
                "cmd_p90_ms": statistics.quantiles(latencies, n=10)[-1],
                "peak_rss_mib": result["maxrss_kib"] / 1024,
            }
            declared = _declared("end_to_end")
            samples = {
                "setup_s": f"{len(setup_s)} fresh processes",
                "jobs_per_s": f"{n_jobs} jobs",
                "cmd_p50_ms": f"{len(latencies)} commands",
                "cmd_p90_ms": f"{len(latencies)} commands",
                "peak_rss_mib": "1 process",
            }
            raw = [elapsed / 1e6 for _, _, elapsed, *_ in commands]
            print(
                f"unscaled CPU time: setup_s={statistics.median(s['cpu_ns'] for s in setups) / 1e9:.4f}"
                f" jobs_per_s={n_jobs / (sum(raw) / 1e3):.4f} cmd_p50_ms={statistics.median(raw):.3f}"
                f" cmd_p90_ms={statistics.quantiles(raw, n=10)[-1]:.3f};"
                f" calibration median {statistics.median(calibration) / 1e6:.3f} ms"
                f" (reference {REFERENCE_CALIBRATION_NS / 1e6:g} ms)"
            )
        reported = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
        for name, metric in reported.items():
            note = f"  ({samples[name]})" if name in samples else ""
            print(f"{name:30} {metric['value']:14.6f} {metric['unit']}{note}")
        print(
            json.dumps(
                {
                    "correct": failed == 0,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": reported,
                }
            )
        )
        return 0
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        return _fail(str(exc))
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _declared(kind: str) -> list[dict]:
    """The metrics BENCHMARK.json declares for ``kind`` (end_to_end or per_layer)."""
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)[kind]


if __name__ == "__main__":
    sys.exit(main())
