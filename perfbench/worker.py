"""One benchmark worker process: set up, then run a closed loop of tasks.

Set-up compiles the package's bytecode, imports it, opens the seeded task
stream and runs one untimed warm-up task; then the worker prints READY, so
the parent can time the set-up from the moment it started the process.  The
timed loop runs one task at a time, each starting when the previous one has
ended, until the task times add up to the worker's share of the run.  Every
output is checked after its task's clock stops.

Tasks go through the program's public entry points only:
`pauli_dilate.cli.main(argv)` in this process with stdout captured, or, for
cli_cold, `python -m pauli_dilate ...` in a fresh process.  A cold task must
exit 0 and print exactly what the in-process run of the same argv prints.

With --trace 1 the first half of the share runs untraced and the second half
runs the same task stream again under the tracer, for at most
TRACE_TASKS[workload] tasks, so that the per-layer counts of one seed repeat
exactly.  The worker prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import io
import json
import os
import platform
import resource
import subprocess
import sys
from importlib import metadata
from time import perf_counter

import calibrate
import oracles
import tracer as tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
TRACE_TASKS = {"cli_cold": 4, "evolve_sweep": 7, "collide_convergence": 8, "verify_suite": 4}
COLD_TIMEOUT_S = 60
MAX_REASONS = 5


class Runner:
    """Runs tasks of one workload and checks their outputs."""

    def __init__(self, workload: str, root: str):
        from pauli_dilate import cli

        if not os.path.abspath(cli.__file__).startswith(os.path.join(root, "src") + os.sep):
            raise SystemExit(f"pauli_dilate was imported from {cli.__file__}, not from {root}/src")
        self.cli = cli
        self.cold = workload == "cli_cold"
        self.root = root
        self.tracer: tracing.Tracer | None = None
        self.trace_file = os.path.join(root, ".perfbench_out", f"child-{os.getpid()}.json")

    def in_process(self, argv) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(list(argv))
        return code, out.getvalue()

    def _cold_cmd(self, argv) -> list[str]:
        if self.tracer is None:
            return [sys.executable, "-m", "pauli_dilate", *argv]
        return [sys.executable, os.path.join(HERE, "tracer.py"), *argv]

    def run(self, index: int, argv) -> tuple[float, str | None]:
        """Run one task; return its seconds and None, or a failure reason."""
        env = dict(os.environ, PERFBENCH_TRACE_OUT=self.trace_file)
        code, stdout, reason = 1, "", None
        t0 = perf_counter()
        try:
            if self.cold:
                proc = subprocess.run(self._cold_cmd(argv), capture_output=True, cwd=self.root,
                                      env=env, timeout=COLD_TIMEOUT_S)
                code, stdout = proc.returncode, proc.stdout.decode()
            elif self.tracer is None:
                code, stdout = self.in_process(argv)
            else:
                code, stdout = self.tracer.run_task(index, self.in_process, argv)
        except subprocess.TimeoutExpired:
            reason = f"{argv[0]}: no exit within {COLD_TIMEOUT_S} s"
        except Exception as exc:  # a crash in the program is a failed task, not a harness error
            reason = f"{argv[0]}: raised {type(exc).__name__}: {exc}"
        elapsed = perf_counter() - t0
        if reason is None:
            reason = oracles.check(argv, code, stdout)
        if reason is None and self.cold:
            reason = self._same_as_in_process(argv, code, stdout)
        if self.cold and self.tracer is not None and os.path.exists(self.trace_file):
            with open(self.trace_file) as fh:
                child = json.load(fh)
            os.remove(self.trace_file)
            self.tracer.absorb(child["summary"], child["spans"], index)
        return elapsed, reason

    def _same_as_in_process(self, argv, code: int, stdout: str) -> str | None:
        ref_code, ref_out = self.in_process(argv)
        if (code, stdout) != (ref_code, ref_out):
            return f"{argv[0]}: cold output differs from the in-process run of the same argv"
        return None


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def add(self, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(reason)


def timed_loop(runner: Runner, tasks, budget: float, tally: Tally,
               limit: int | None = None) -> tuple[list[float], list[float]]:
    """Closed loop until the task times reach `budget` seconds (or `limit` tasks).

    Returns the measured task times and the same times at the reference
    speed (calibrate.py), from kernel runs between the tasks: after every
    task in process, after every second cold task, whose kernel is itself a
    process start.  Checking outputs is not timed; the wall-clock cap keeps
    a run bounded when the checks take longer than the tasks themselves.
    """
    if runner.cold:
        kernel, reference, stride = calibrate.cold_kernel_seconds, calibrate.REFERENCE_COLD_S, 2
    else:
        kernel, reference, stride = calibrate.kernel_seconds, calibrate.REFERENCE_S, 1
    times: list[float] = []
    marks = [(0, kernel())]  # (tasks done, kernel seconds)
    wall_end = perf_counter() + 2 * budget
    while (sum(times) < budget and perf_counter() < wall_end
           and (limit is None or len(times) < limit)):
        elapsed, reason = runner.run(len(times), next(tasks))
        times.append(elapsed)
        if len(times) % stride == 0:
            marks.append((len(times), kernel()))
        tally.add(reason)
    if marks[-1][0] != len(times):
        marks.append((len(times), kernel()))
    # task i ran between the marks at i and i + 1 tasks done
    return times, [calibrate.at_reference_speed(
        t, [k for done, k in marks if i - stride <= done <= i + 1 + stride], reference)
        for i, t in enumerate(times)]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.TASKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--stream", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    args = ap.parse_args()

    src = os.path.join(args.root, "src")
    compileall.compile_dir(src, quiet=1)
    sys.path.insert(0, src)
    runner = Runner(args.workload, args.root)
    name = f"w{args.stream}"
    tasks = workloads.stream(args.workload, args.seed, name)
    tally = Tally()
    _, reason = runner.run(0, workloads.warmup_task(args.workload, args.seed, name))
    tally.add(reason)
    print("READY", flush=True)
    calibrate.kernel_seconds()  # first numpy calls of the kernel, untimed
    setup_kernel_s = calibrate.kernel_seconds()

    budget = args.seconds / 2 if args.trace else args.seconds
    times, scaled = timed_loop(runner, tasks, budget, tally)
    usage = resource.RUSAGE_CHILDREN if runner.cold else resource.RUSAGE_SELF
    result = {"setup_kernel_s": setup_kernel_s, "times_s": times, "scaled_s": scaled,
              "peak_rss_kb": resource.getrusage(usage).ru_maxrss}
    if args.trace:
        runner.tracer = tracing.Tracer()
        if not runner.cold:  # cold tasks trace themselves in their own process
            tracing.install(runner.tracer)
        _, traced = timed_loop(runner, workloads.stream(args.workload, args.seed, name), budget,
                               tally, limit=TRACE_TASKS[args.workload])
        runner.tracer.save(os.path.join(args.root, ".perfbench_out",
                                        f"spans-{args.workload}-{name}.json"))
        same = min(len(traced), len(times))
        result["trace"] = {"tasks": len(traced), "traced_s": sum(traced[:same]),
                           "untraced_s": sum(scaled[:same]), **runner.tracer.summary()}
    # versions from package metadata: importing scipy here would add to set-up
    # whenever the program itself stops importing it
    result.update(attempted=tally.attempted, failed=tally.failed, reasons=tally.reasons,
                  versions={"python": platform.python_version(),
                            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy")})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
