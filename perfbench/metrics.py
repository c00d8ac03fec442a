"""Metric definitions: the end-to-end metrics of an untraced run and the
per-layer metrics of a traced run, computed from the workers' results.

Per-layer counts and times are averages per traced task, so runs of
different lengths compare; within one seed the traced tasks are the same
every run, so the counts repeat exactly.  A ratio whose base is zero on a
workload (no collision steps on evolve_sweep, say) reads 0.
"""

from __future__ import annotations

import statistics

from tracer import LAYERS

VERIFY_CHECKS = (
    "pauli_group_closure", "commutation_vs_matrices", "kron_and_trace_laws", "expm_group_law",
    "channel_cptp", "bloch_scaling", "semigroup_composition", "semigroup_derivative",
    "isometry_closed_forms", "environment_representations", "generic_rep_independence",
    "su2_generators", "pauli_commutants", "builder_time_laws", "invariant_environment_state",
    "hamiltonian_commutant_membership", "krylov_structure", "restricted_su2_conservation",
    "full_symmetrization", "rotating_phase_freedom", "alternate_initial_state",
    "strong_conservation_triviality", "schedule_round_trip", "collision_bath_conditions",
    "collision_convergence_trend",
)

END_TO_END = {
    "setup_s": "s",
    "tasks_per_s": "1/s",
    "task_ms.p50": "ms",
    "task_ms.p90": "ms",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}

IMPORT_METRICS = ("import.total_ms", "import.scipy_ms", "import.numpy_ms",
                  "import.pauli_dilate_self_ms", "interp.start_ms")

# (metric, unit, kind, source): kind "calls" or "self_ms" reads the tracer's
# stats of one wrapped name, "counter" a tracer counter; all per traced task
SPECIFIC = (
    ("linalg.mat_exp_hermitian.calls", "count/task", "calls", "linalg.mat_exp_hermitian"),
    ("linalg.mat_exp_hermitian.self_ms", "ms/task", "self_ms", "linalg.mat_exp_hermitian"),
    ("dynamics.fits", "count/task", "calls", "dynamics.fit_pauli_transfer"),
    ("dynamics.fit_pauli_transfer.self_ms", "ms/task", "self_ms", "dynamics.fit_pauli_transfer"),
    ("dilations.isometry_checks", "count/task", "calls", "dilations.Isometry.__post_init__"),
    ("collisions.steps", "count/task", "counter", "collisions.steps"),
    ("channels.semigroup_channel.calls", "count/task", "calls", "channels.semigroup_channel"),
    ("linalg.partial_trace_env.calls", "count/task", "calls", "linalg.partial_trace_env"),
    ("linalg.trace_distance.calls", "count/task", "calls", "linalg.trace_distance"),
    ("dilations.solve_env_rep.calls", "count/task", "calls", "dilations.solve_env_rep"),
    ("dilations.solve_env_rep.self_ms", "ms/task", "self_ms", "dilations.solve_env_rep"),
    ("dynamics.replay_schedule.self_ms", "ms/task", "self_ms", "dynamics.replay_schedule"),
    ("pauli.strings_enumerated", "count/task", "counter", "pauli.iter_strings.yields"),
    ("pauli.pauli_commutant.self_ms", "ms/task", "self_ms", "pauli.pauli_commutant"),
)

RATIOS = ("linalg.expm_per_fit", "dilations.isometry_checks_per_fit",
          "channels.reference_builds_per_step", "pauli.commutant_yield")


def per_layer_units() -> dict[str, str]:
    units = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count/task"
        units[f"{layer}.self_ms"] = "ms/task"
        units[f"{layer}.failed"] = "count/task"
    units.update((name, "ms") for name in IMPORT_METRICS)
    units.update((name, unit) for name, unit, _, _ in SPECIFIC)
    units["collisions.step_us"] = "us"
    units.update((name, "ratio") for name in RATIOS)
    units.update((f"verify.{check}_ms", "ms") for check in VERIFY_CHECKS)
    units["trace.overhead_ratio"] = "ratio"
    units["trace.tasks"] = "count"
    return units


def percentile(values: list[float], q: int) -> float:
    """Linear-interpolated q-th percentile (the 'inclusive' method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _timings(times_s: list[float], setups: list[float]) -> dict[str, float]:
    times_ms = [t * 1000 for t in times_s]
    return {
        "setup_s": statistics.median(setups),
        "tasks_per_s": len(times_ms) / (sum(times_ms) / 1000),
        "task_ms.p50": statistics.median(times_ms),
        "task_ms.p90": percentile(times_ms, 90),
    }


def measured(results: list[dict], setups: list[float]) -> dict[str, float]:
    """The timing metrics from wall-clock times, before scaling to the reference speed."""
    return _timings([t for r in results for t in r["times_s"]], setups)


def end_to_end(results: list[dict], setups: list[float], attempted: int,
               failed: int) -> dict[str, tuple[float, str]]:
    """End-to-end metrics; times are at the reference speed (calibrate.py)."""
    values = _timings([t for r in results for t in r["scaled_s"]], setups)
    values["peak_rss_mb"] = max(r["peak_rss_kb"] for r in results) / 1024
    values["ok_ratio"] = 1 - failed / attempted
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(results: list[dict], profile: dict[str, float]) -> dict[str, tuple[float, str]]:
    stats: dict[str, list] = {}
    counters: dict[str, float] = {}
    tasks = traced_s = untraced_s = 0.0
    for r in results:
        tr = r["trace"]
        tasks += tr["tasks"]
        traced_s += tr["traced_s"]
        untraced_s += tr["untraced_s"]
        for name, row in tr["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0])
            for i, v in enumerate(row):
                acc[i] += v
        for name, v in tr["counters"].items():
            counters[name] = counters.get(name, 0.0) + v

    def stat(name: str, field: int) -> float:
        return stats.get(name, (0, 0.0, 0.0, 0))[field]

    per_task = 1 / tasks if tasks else 0.0
    values: dict[str, float] = {}
    for layer in LAYERS:
        rows = [row for name, row in stats.items() if name.split(".", 1)[0] == layer]
        values[f"{layer}.calls"] = sum(row[0] for row in rows) * per_task
        values[f"{layer}.self_ms"] = sum(row[2] for row in rows) * 1000 * per_task
        values[f"{layer}.failed"] = sum(row[3] for row in rows) * per_task
    values.update((name, profile.get(name, 0.0)) for name in IMPORT_METRICS)
    for name, _, kind, source in SPECIFIC:
        if kind == "counter":
            values[name] = counters.get(source, 0.0) * per_task
        else:
            field = {"calls": 0, "self_ms": 2}[kind]
            values[name] = stat(source, field) * (1000 if kind == "self_ms" else 1) * per_task
    fits = stat("dynamics.fit_pauli_transfer", 0)
    steps = counters.get("collisions.steps", 0.0)
    values["collisions.step_us"] = _ratio(stat("collisions.simulate_semigroup", 1) * 1e6, steps)
    values["linalg.expm_per_fit"] = _ratio(stat("linalg.mat_exp_hermitian", 0), fits)
    values["dilations.isometry_checks_per_fit"] = _ratio(
        stat("dilations.Isometry.__post_init__", 0), fits)
    values["channels.reference_builds_per_step"] = _ratio(
        counters.get("channels.reference_builds", 0.0), steps)
    values["pauli.commutant_yield"] = _ratio(
        counters.get("pauli.commutant_returned", 0.0),
        counters.get("pauli.iter_strings.yields.in.pauli.pauli_commutant", 0.0))
    for check in VERIFY_CHECKS:
        name = f"verify.check_{check}"
        values[f"verify.{check}_ms"] = _ratio(stat(name, 1) * 1000, stat(name, 0))
    values["trace.overhead_ratio"] = _ratio(traced_s, untraced_s)
    values["trace.tasks"] = tasks
    units = per_layer_units()
    return {name: (values[name], unit) for name, unit in units.items()}


def parse_importtime(stderr: str) -> dict[str, float]:
    """Sum the self times of `-X importtime` lines, overall and per package."""
    total = {"import.total_ms": 0.0, "import.scipy_ms": 0.0, "import.numpy_ms": 0.0,
             "import.pauli_dilate_self_ms": 0.0}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|")
        ms = int(self_us) / 1000
        name = name.strip()
        total["import.total_ms"] += ms
        for package in ("scipy", "numpy", "pauli_dilate"):
            if name == package or name.startswith(package + "."):
                key = "import.pauli_dilate_self_ms" if package == "pauli_dilate" else f"import.{package}_ms"
                total[key] += ms
    return total
