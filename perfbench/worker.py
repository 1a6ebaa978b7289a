"""One closed-loop client: a fresh process that drives ``conncalc.cli.main`` in-process.

Usage: python3 perfbench/worker.py PLAN MODE RESULT

MODE is ``setup`` (import conncalc, run one untimed warm-up job, report the
CPU time spent until then and exit), ``run`` (then run whole rounds of jobs
until the plan's seconds have passed and at least its minimum number of
commands ran) or ``trace`` (as ``run``, but every job also runs with span
wrappers installed, before or after its untraced run in turn). Output
checking against the oracle happens later, in the parent: this process only
records each command's first stdout and notes any later run of the same
command whose output differs from it.

Times are the process's CPU time (user + system). The commands are
single-threaded and CPU-bound, so that equals their latency whenever the
process is not preempted. On a shared host the speed of that CPU time still
swings widely from second to second, so a short fixed calibration routine
runs right before every timed command, and once more after the last. The
parent uses the calibration times on either side of a command to scale it
to a host of reference speed.
"""

import sys
import time


def calibrate() -> int:
    """CPU time (ns) of a fixed routine doing the kinds of work conncalc does:
    rational arithmetic, a dict keyed by strings and a JSON dump. Collection is
    off while it runs, so the size of the program's heap does not leak in."""
    import gc
    import json
    from fractions import Fraction

    gc.disable()
    try:
        start = time.process_time_ns()
        total = Fraction(0)
        names = {}
        for i in range(1, 400):
            total += Fraction(i % 17 + 1, 4) * Fraction(3, i % 5 + 1)
            names[f"k{i}"] = total
        json.dumps(sorted(names))
        return time.process_time_ns() - start
    finally:
        gc.enable()


def main() -> int:
    plan_path, mode, result_path = sys.argv[1:4]

    import contextlib
    import hashlib
    import io
    import json
    import resource
    from pathlib import Path

    # The first call pays for one-off interpreter warm-up and is not used.
    excluded = calibrate()
    before_setup = calibrate()
    excluded += before_setup

    from conncalc.cli import main as conncalc_main

    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    jobs = plan["jobs"]
    out_dir = Path(plan["out_dir"])

    def run(argv: list[str]) -> tuple[int | None, str, int]:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.process_time_ns()
            try:
                code = conncalc_main(argv)
            except Exception as exc:  # a raise is a failed command, not a failed benchmark
                code = None
                stderr.write(repr(exc))
            elapsed = time.process_time_ns() - start
        return code, stdout.getvalue(), elapsed

    for argv, _ in jobs[0]["commands"]:
        run(argv)
    setup = {
        "cpu_ns": time.process_time_ns() - excluded,
        "calibration_ns": [before_setup, calibrate()],
    }
    if mode == "setup":
        Path(result_path).write_text(json.dumps({"setup": setup}), encoding="utf-8")
        return 0

    first: dict[tuple[int, int], str] = {}
    # [job, command, elapsed_ns, status, n, traced]: status is "ok" or a
    # reason, and calibration[n] and calibration[n + 1] were taken on either
    # side of the command.
    commands: list[list] = []
    calibration: list[int] = []

    def run_job(j: int, job: dict, tracer=None) -> None:
        for k, (argv, expected) in enumerate(job["commands"]):
            n = len(calibration)
            calibration.append(calibrate())
            if tracer is None:
                code, stdout, elapsed = run(argv)
            else:
                with tracer.span("cli.main"):
                    code, stdout, elapsed = run(argv)
            digest = hashlib.sha256(stdout.encode("utf-8"))
            if "-o" in argv:
                digest.update(Path(argv[argv.index("-o") + 1]).read_bytes())
            if (j, k) not in first:
                first[(j, k)] = digest.hexdigest()
                (out_dir / f"{j}-{k}.stdout").write_text(stdout, encoding="utf-8")
            if code != expected:
                status = f"exit {code}, expected {expected}"
            elif digest.hexdigest() != first[(j, k)]:
                status = "output differs from the first run of this command"
            else:
                status = "ok"
            commands.append([j, k, elapsed, status, n, tracer is not None])

    tracer = None
    if mode == "trace":
        from spans import Tracer, instrumented

        tracer = Tracer()

    rounds = 0
    measured = 0
    start = time.monotonic()
    while time.monotonic() - start < plan["seconds"] or measured < plan["min_commands"]:
        for j, job in enumerate(jobs):
            if tracer is None:
                run_job(j, job)
            else:
                # Alternate which pass goes first, so warm caches favour neither.
                tracer.job += 1
                for traced in (False, True) if tracer.job % 2 == 0 else (True, False):
                    if traced:
                        with instrumented(tracer):
                            run_job(j, job, tracer)
                    else:
                        run_job(j, job)
            measured += len(job["commands"])
        rounds += 1
    calibration.append(calibrate())

    result = {
        "setup": setup,
        "loop_wall_s": time.monotonic() - start,
        "rounds": rounds,
        "commands": commands,
        "calibration_ns": calibration,
        "digests": [[j, k, digest] for (j, k), digest in sorted(first.items())],
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
