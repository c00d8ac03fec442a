"""Self-tests of the benchmark harness: python3 -m pytest -q perfbench

They show that a wrong output is counted as a failed task, that a seed
always generates the same inputs, and that the metric names the harness
prints are the ones BENCHMARK.json declares.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import metrics  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402
from worker import Runner, Tally  # noqa: E402


def _perturb_row(stdout: str, row: int, column: int) -> str:
    lines = stdout.splitlines()
    cells = lines[row].split(",")
    cells[column] = repr(float(cells[column]) + 1e-6)
    lines[row] = ",".join(cells)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def runner():
    return Runner("evolve_sweep", ROOT)


@pytest.mark.parametrize("argv, column", [
    (("evolve", "--in", '{"builder":"generic","a":[0.6,0.5,0.3]}', "--tmax", "3.0",
      "--samples", "40", "--strict"), 2),
    (("evolve", "--in", '{"hamiltonian":[["ZX",1.3]],"psiE":"1"}', "--tmax", "2.0",
      "--samples", "30", "--strict"), 4),
    (("collide", "--in", '{"a":[0.7,0.5,0.3],"zeta":1.2,"dt":0.01,"n":40}'), 2),
    (("collide", "--in", '{"a":[1,1,1],"zeta":1.0,"dts":[0.1,0.05,0.025],"t_final":1.0}'), 1),
])
def test_oracle_accepts_output_and_rejects_perturbed_row(runner, argv, column):
    code, stdout = runner.in_process(argv)
    assert oracles.check(argv, code, stdout) is None
    assert oracles.check(argv, code, _perturb_row(stdout, 3, column)) is not None
    assert oracles.check(argv, 2, stdout) is not None


def test_verify_oracle(runner):
    argv = ("verify", "--seed", "5")
    code, stdout = runner.in_process(argv)
    assert oracles.check(argv, code, stdout) is None
    assert oracles.check(argv, code, stdout.replace("PASS", "FAIL", 1)) is not None


def test_perturbed_output_is_counted_as_failed(runner, monkeypatch):
    argv = ("evolve", "--in", '{"builder":"depolarizing"}', "--tmax", "3.0", "--samples", "20",
            "--strict")
    tally = Tally()
    tally.add(runner.run(0, argv)[1])
    exact = runner.in_process
    monkeypatch.setattr(runner, "in_process",
                        lambda a: (lambda code, out: (code, _perturb_row(out, 5, 1)))(*exact(a)))
    tally.add(runner.run(1, argv)[1])
    assert (tally.attempted, tally.failed) == (2, 1)


def test_cold_output_must_match_in_process_run():
    cold = Runner("cli_cold", ROOT)
    argv = ("channel", "--in", '{"type":"phase_damping","p":0.3}')
    code, stdout = cold.in_process(argv)
    assert cold._same_as_in_process(argv, code, stdout) is None
    assert cold._same_as_in_process(argv, code, stdout.replace("0.3", "0.30000001", 1)) is not None


@pytest.mark.parametrize("workload", sorted(workloads.TASKS))
def test_same_seed_generates_identical_inputs(workload):
    first = workloads.take(workload, 42, "w0", 60)
    assert first == workloads.take(workload, 42, "w0", 60)
    assert first != workloads.take(workload, 43, "w0", 60)
    assert first != workloads.take(workload, 42, "w1", 60)


@pytest.mark.parametrize("workload", sorted(workloads.TASKS))
def test_generated_tasks_pass_their_oracles(runner, workload):
    count = 2 if workload == "verify_suite" else 20
    for argv in workloads.take(workload, 7, "w0", count):
        code, stdout = runner.in_process(argv)
        assert oracles.check(argv, code, stdout) is None, argv


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.per_layer_units()
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.TASKS)


def test_parse_importtime():
    stderr = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |   numpy.core",
        "import time:       250 |        350 | numpy",
        "import time:      3000 |       3000 |     scipy.linalg",
        "import time:        40 |       3390 |   pauli_dilate.linalg",
        "import time:         7 |       3397 | pauli_dilate",
        "import time:         5 |          5 | encodings",
    ])
    assert metrics.parse_importtime(stderr) == {
        "import.total_ms": 3.402, "import.scipy_ms": 3.0, "import.numpy_ms": 0.35,
        "import.pauli_dilate_self_ms": 0.047}


def test_traced_cli_sees_calls_through_every_binding(tmp_path):
    out = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PERFBENCH_TRACE_OUT=str(out))
    argv = ["evolve", "--in", '{"builder":"phase_damping"}', "--samples", "7"]
    proc = subprocess.run([sys.executable, os.path.join(HERE, "tracer.py"), *argv],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert oracles.check(argv, proc.returncode, proc.stdout) is None
    stats = json.loads(out.read_text())["summary"]["stats"]
    # cli binds channel_at_time at import; the calls are still seen
    assert stats["dynamics.channel_at_time"][0] == 7
    assert stats["linalg.mat_exp_hermitian"][0] == 7
    assert stats["dilations.Isometry.__post_init__"][0] == 7
    assert stats["cli.main"][0] == 1


def test_run_refuses_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "cli_cold", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, cwd=tmp_path, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
