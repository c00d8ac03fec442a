"""pauli-dilate benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the program is imported from
./src, nothing needs installing.  The run starts WORKERS worker processes one
after another (worker.py).  Each sets up from a cold interpreter and then
measures a closed loop, one client, for S / WORKERS seconds; the parent pools
their task times.  BLAS threads are pinned to 1 for the run and every process
it starts.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
a traced run (see metrics.py).  The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the line before it
records the machine, the versions and the sample counts.  Spans of traced
runs are written to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from time import perf_counter

import calibrate
import metrics
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
WORKERS = 3
DEADLINE_S = 170
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_SAMPLES = 3
START_SAMPLES = 5


def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu": cpu,
            "platform": platform.platform()}


def run_worker(args, stream: int, env: dict, root: str,
               deadline: float) -> tuple[tuple[float, float], dict]:
    """Start one worker; return its set-up seconds (measured, and at the
    reference speed from kernel runs just before and after it) and its result."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--stream", str(stream), "--trace", str(args.trace),
           "--seconds", repr(args.seconds / WORKERS), "--root", root]
    kernel_before = calibrate.kernel_seconds()
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=root)
    killer = threading.Timer(max(1.0, deadline - perf_counter()), proc.kill)
    killer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - t0
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        killer.cancel()
    if ready.strip() != "READY" or code != 0 or not lines:
        raise RuntimeError(f"worker {stream} failed (exit code {code})")
    result = json.loads(lines[-1])
    # the kernel after set-up runs in the worker, so that no two processes compete
    kernels = [kernel_before, result["setup_kernel_s"]]
    return (setup_s, calibrate.at_reference_speed(setup_s, kernels)), result


def wall_ms(cmd: list[str], env: dict, root: str) -> tuple[float, str]:
    t0 = perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=root, timeout=60)
    elapsed = (perf_counter() - t0) * 1000
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-500:]}")
    return elapsed, proc.stderr


def import_profile(env: dict, root: str) -> dict:
    """Median import layers of `-X importtime` children, and interpreter start."""
    imports = [metrics.parse_importtime(wall_ms(
        [sys.executable, "-X", "importtime", "-c", "import pauli_dilate.cli"], env, root)[1])
        for _ in range(IMPORT_SAMPLES)]
    profile = {key: statistics.median(p[key] for p in imports) for key in imports[0]}
    profile["interp.start_ms"] = statistics.median(
        wall_ms([sys.executable, "-c", "pass"], env, root)[0] for _ in range(START_SAMPLES))
    return profile


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.TASKS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "pauli_dilate", "cli.py")):
        print(f"error: no pauli_dilate sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    start = perf_counter()
    os.environ.update(PINNED)
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    os.makedirs(os.path.join(root, ".perfbench_out"), exist_ok=True)

    setups, results = [], []
    calibrate.kernel_seconds()  # first numpy calls of the kernel, untimed
    try:
        for stream in range(WORKERS):
            setup_s, result = run_worker(args, stream, env, root, start + DEADLINE_S)
            setups.append(setup_s)
            results.append(result)
        profile = import_profile(env, root) if args.trace else {}
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if args.trace:
        values = metrics.per_layer(results, profile)
    else:
        values = metrics.end_to_end(results, [s[1] for s in setups], attempted, failed)
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(), "versions": results[0]["versions"],
              "workers": WORKERS, "reference_kernel_s": calibrate.REFERENCE_S,
              "measured": metrics.measured(results, [s[0] for s in setups]),
              "setup_s": [s[1] for s in setups],
              "timed_tasks": sum(len(r["times_s"]) for r in results),
              "traced_tasks": sum(r.get("trace", {}).get("tasks", 0) for r in results),
              "reasons": [x for r in results for x in r["reasons"]][:10]}
    print(json.dumps(record))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
