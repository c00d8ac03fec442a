"""Seeded task streams for the benchmark workloads.

A task is the argv of one pauli-dilate command.  Task sizes follow a
golden-ratio sequence, size_k = (offset + k * 0.618...) mod 1, with a seeded
offset: every prefix of it covers [0, 1) almost evenly, so any stretch of a
stream has about the same mix of small and large tasks whatever the seed,
and the medians and percentiles of a run stay steady across seeds.  Task
shapes whose cost differs (8x8 against 4x4 generators, dt ladders against
single trajectories) take turns; the cold commands follow the size
sequence.  The physical parameters are drawn from the seed.

Only the standard library is used, so inputs do not depend on the numpy
version, and the same (workload, seed, stream) always gives the same tasks.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from typing import Callable, Iterator

Argv = tuple[str, ...]

GOLDEN = (math.sqrt(5) - 1) / 2
# closed-form families the evolve oracle knows, 8x8 generators first, then
# 4x4 ones; zx is the custom Hamiltonian [["ZX", c]]
EVOLVE_KINDS = (("depolarizing", "generic"), ("phase_damping", "zx"))
# collision ladders halve from 0.1 down to 0.1 / 64 = 1.5625e-3
LADDER_DTS = tuple(0.1 / 2 ** k for k in range(7))
COLD_COMMANDS = ("channel", "dilate", "rep", "commutant", "evolve", "collide")


def _num(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 6)


def _js(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _evolve(rng: random.Random, kind: str, samples: int) -> Argv:
    if kind == "generic":
        desc = {"builder": "generic", "a": [_num(rng, 0.1, 1.0) for _ in range(3)]}
    elif kind == "zx":
        desc = {"hamiltonian": [["ZX", _num(rng, 0.3, 2.0)]], "psiE": "1"}
    else:
        desc = {"builder": kind}
    return ("evolve", "--in", _js(desc), "--tmax", repr(_num(rng, 0.5, 6.5)),
            "--samples", str(samples), "--strict")


def _collide_params(rng: random.Random) -> dict:
    return {"a": [_num(rng, 0.1, 1.0) for _ in range(3)], "zeta": _num(rng, 0.5, 2.0)}


def evolve_task(rng: random.Random, k: int, size: float) -> Argv:
    """200-1000 samples; 8x8 and 4x4 generators take turns."""
    return _evolve(rng, rng.choice(EVOLVE_KINDS[k % 2]), round(200 + 800 * size))


def collide_task(rng: random.Random, k: int, size: float) -> Argv:
    """dt ladders with t_final in 0.3-1.5 take turns with single trajectories
    of 100-1000 steps."""
    desc = _collide_params(rng)
    if k % 2 == 0:
        desc["dts"] = list(LADDER_DTS)
        desc["t_final"] = round(0.3 + 1.2 * size, 6)
    else:
        desc["dt"] = _num(rng, 0.002, 0.02)
        desc["n"] = round(100 + 900 * size)
    return ("collide", "--in", _js(desc))


def verify_task(rng: random.Random, k: int, size: float) -> Argv:
    return ("verify", "--seed", str(rng.randrange(1_000_000)))


def _probabilities(rng: random.Random) -> list[float]:
    w = [rng.uniform(0.05, 1.0) for _ in range(4)]
    p = [round(v / sum(w), 6) for v in w]
    p[0] = round(1.0 - sum(p[1:]), 6)
    return p


def _cold_channel_desc(rng: random.Random, allow_liouvillian: bool) -> dict:
    kinds = ["pauli", "phase_damping", "depolarizing"] + (["liouvillian"] if allow_liouvillian else [])
    kind = rng.choice(kinds)
    if kind == "pauli":
        return {"type": "pauli", "p": _probabilities(rng)}
    if kind == "liouvillian":
        return {"type": "liouvillian", "gamma": [_num(rng, 0.0, 1.0) for _ in range(3)]}
    return {"type": kind, "p": _num(rng, 0.05, 0.7)}


def _cold_task(rng: random.Random, command: str) -> Argv:
    if command in ("channel", "dilate", "rep"):
        desc = _cold_channel_desc(rng, allow_liouvillian=command == "channel")
        argv: Argv = (command, "--in", _js(desc))
        if desc["type"] == "liouvillian":
            argv += ("--tmax", repr(_num(rng, 0.1, 3.0)))
        return argv
    if command == "commutant":
        qubits = rng.randint(1, 3)
        gens = ["".join(rng.choice("IXYZ") for _ in range(qubits))
                for _ in range(rng.randint(1, 3))]
        return ("commutant", "--in", _js({"generators": gens, "qubits": qubits}))
    if command == "evolve":
        return _evolve(rng, rng.choice(EVOLVE_KINDS[0] + EVOLVE_KINDS[1]), rng.randint(10, 50))
    desc = _collide_params(rng)
    if rng.random() < 0.5:
        desc["dt"] = _num(rng, 0.01, 0.1)
        desc["n"] = rng.randint(5, 20)
    else:
        desc["dts"] = [0.1, 0.05]
        desc["t_final"] = _num(rng, 0.2, 1.0)
    return ("collide", "--in", _js(desc))


def cold_task(rng: random.Random, k: int, size: float) -> Argv:
    """One of the six commands, picked by the size sequence so that any few
    consecutive tasks are different commands; README-shaped descriptors and
    small sizes: commutants of at most 3 qubits, at most 50 evolve samples,
    at most 20 collision steps per trajectory or rung."""
    return _cold_task(rng, COLD_COMMANDS[int(size * len(COLD_COMMANDS))])


TASKS: dict[str, Callable[[random.Random, int, float], Argv]] = {
    "cli_cold": cold_task,
    "evolve_sweep": evolve_task,
    "collide_convergence": collide_task,
    "verify_suite": verify_task,
}


def stream(workload: str, seed: int, name: str) -> Iterator[Argv]:
    """Endless task stream; `name` separates the streams of one run."""
    rng = random.Random(f"{workload}/{seed}/{name}")
    offset = rng.random()
    make = TASKS[workload]
    for k in itertools.count():
        yield make(rng, k, (offset + k * GOLDEN) % 1.0)


def warmup_task(workload: str, seed: int, name: str) -> Argv:
    """The untimed warm-up task of a worker, of one fixed size per workload,
    so that set-up time does not depend on which task a seed draws."""
    rng = random.Random(f"{workload}/{seed}/{name}/warmup")
    if workload == "evolve_sweep":
        return _evolve(rng, "generic", 200)
    if workload == "collide_convergence":
        desc = {**_collide_params(rng), "dt": _num(rng, 0.002, 0.02), "n": 200}
        return ("collide", "--in", _js(desc))
    if workload == "cli_cold":
        return _cold_task(rng, "channel")
    return verify_task(rng, 0, 0.0)


def take(workload: str, seed: int, name: str, count: int) -> list[Argv]:
    return list(itertools.islice(stream(workload, seed, name), count))
