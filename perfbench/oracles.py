"""Closed-form oracles for pauli-dilate outputs, independent of the library.

Each checker takes the argv a task ran with, its exit code and its stdout,
and returns None when the output is right or a one-line reason when it is
not.  Only the standard library is used: the expected numbers come from the
trigonometric and exponential laws, never from pauli_dilate itself.

- evolve: p_i(t) = a_i^2 sin^2(sqrt(xi) t) / xi with xi = sum a_i^2 for the
  builders (phase damping a = (0, 0, 1), depolarizing a = (1, 1, 1)), and
  p_z(t) = sin^2(c t) for the Hamiltonian [["ZX", c]].
- collide: after k collisions of length dt the Bloch vector is
  lambda_c^k * r0, where lambda_c are the Bloch scalings of the Pauli channel
  with p_i = a_i^2 sin^2(sqrt(xi) nu dt) / xi and nu = sqrt(zeta / dt); the
  reference is exp(-2 t (sum(gamma) - gamma_i)) * r0 with gamma_i = zeta a_i^2,
  and the trace distance of two qubit states is half the distance of their
  Bloch vectors.
- verify: 25 PASS lines and the summary line.
"""

from __future__ import annotations

import json
import math
from typing import Optional, Sequence

# printed reals carry 12 significant digits
PROB_TOL = 1e-10
DIST_TOL = 1e-10
LEAKAGE_TOL = 1e-10
VERIFY_CHECK_COUNT = 25
R0 = (1 / math.sqrt(3),) * 3

BUILDER_WEIGHTS = {"phase_damping": (0.0, 0.0, 1.0), "depolarizing": (1.0, 1.0, 1.0)}


def _descriptor(argv: Sequence[str]) -> dict:
    return json.loads(argv[list(argv).index("--in") + 1])


def _flag(argv: Sequence[str], name: str, default: float) -> float:
    argv = list(argv)
    return float(argv[argv.index(name) + 1]) if name in argv else default


def _close(x: float, y: float, tol: float) -> bool:
    return abs(x - y) <= tol * max(1.0, abs(y))


def evolve_law(desc: dict):
    """(pI, px, py, pz) as a function of t for the descriptor."""
    if "builder" in desc:
        a = BUILDER_WEIGHTS.get(desc["builder"]) or tuple(float(v) for v in desc["a"])
        xi = sum(v * v for v in a)

        def law(t):
            s = math.sin(math.sqrt(xi) * t) ** 2 / xi
            return (1 - xi * s, a[0] ** 2 * s, a[1] ** 2 * s, a[2] ** 2 * s)
        return law
    (label, c), = desc["hamiltonian"]
    if label != "ZX":
        raise ValueError(f"no oracle for Hamiltonian {label!r}")
    c = float(c)
    return lambda t: (math.cos(c * t) ** 2, 0.0, 0.0, math.sin(c * t) ** 2)


def check_evolve(argv: Sequence[str], stdout: str) -> Optional[str]:
    law = evolve_law(_descriptor(argv))
    tmax = _flag(argv, "--tmax", 2 * math.pi)
    samples = int(_flag(argv, "--samples", 25))
    lines = stdout.splitlines()
    if not lines or lines[0] != "t,pI,px,py,pz,leakage":
        return "evolve: bad CSV header"
    if len(lines) != samples + 1:
        return f"evolve: {len(lines) - 1} rows, expected {samples}"
    step = tmax / (samples - 1) if samples > 1 else 0.0
    for k, line in enumerate(lines[1:]):
        t, *probs, leak = (float(v) for v in line.split(","))
        if not _close(t, k * step, 1e-9):
            return f"evolve: row {k} has t={t}, expected {k * step}"
        want = law(t)
        for name, got, exp in zip(("pI", "px", "py", "pz"), probs, want):
            if abs(got - exp) > PROB_TOL:
                return f"evolve: row {k} {name}={got!r}, oracle {exp!r}"
        if not 0.0 <= leak <= LEAKAGE_TOL:
            return f"evolve: row {k} leakage {leak!r}"
    return None


def collision_errors(a: Sequence[float], zeta: float, dt: float, n: int) -> list[float]:
    """Trace distance to the exact semigroup after k = 0..n collisions."""
    xi = sum(v * v for v in a)
    nu = math.sqrt(zeta / dt)
    s = math.sin(math.sqrt(xi) * nu * dt) ** 2 / xi
    px, py, pz = (v * v * s for v in a)
    lam = (1 - 2 * (py + pz), 1 - 2 * (px + pz), 1 - 2 * (px + py))
    gamma = [zeta * v * v for v in a]
    rate = [2 * (sum(gamma) - g) for g in gamma]
    errors = []
    for k in range(n + 1):
        t = k * dt
        diff = [l ** k * r - math.exp(-g * t) * r for l, g, r in zip(lam, rate, R0)]
        errors.append(0.5 * math.sqrt(sum(d * d for d in diff)))
    return errors


def check_collide(argv: Sequence[str], stdout: str) -> Optional[str]:
    desc = _descriptor(argv)
    a = [float(v) for v in desc["a"]]
    zeta = float(desc["zeta"])
    lines = stdout.splitlines()
    if "dts" in desc:
        t_final = float(desc.get("t_final", 1.0))
        dts = [float(v) for v in desc["dts"]]
        if not lines or lines[0] != "dt,max_trace_distance" or len(lines) != len(dts) + 1:
            return "collide: bad convergence table shape"
        for dt, line in zip(dts, lines[1:]):
            got_dt, got = (float(v) for v in line.split(","))
            want = max(collision_errors(a, zeta, dt, int(round(t_final / dt))))
            if not _close(got_dt, dt, 1e-11) or abs(got - want) > DIST_TOL:
                return f"collide: dt={dt} max error {got!r}, oracle {want!r}"
        return None
    dt, n = float(desc["dt"]), int(desc["n"])
    if not lines or lines[0] != "dt,t,trace_distance" or len(lines) != n + 2:
        return "collide: bad trajectory shape"
    for k, (line, want) in enumerate(zip(lines[1:], collision_errors(a, zeta, dt, n))):
        got_dt, t, got = (float(v) for v in line.split(","))
        if not (_close(got_dt, dt, 1e-11) and _close(t, k * dt, 1e-11)) or abs(got - want) > DIST_TOL:
            return f"collide: row {k} error {got!r}, oracle {want!r}"
    return None


def check_verify(stdout: str) -> Optional[str]:
    lines = stdout.splitlines()
    passed = sum(line.startswith("PASS ") for line in lines)
    summary = f"all checks passed ({VERIFY_CHECK_COUNT} total)"
    if passed != VERIFY_CHECK_COUNT or not lines or lines[-1] != summary:
        return f"verify: {passed} PASS lines, last line {lines[-1] if lines else ''!r}"
    return None


def check(argv: Sequence[str], code: int, stdout: str) -> Optional[str]:
    """Exit code 0 and, where a closed form exists, output that matches it."""
    if code != 0:
        return f"{argv[0]}: exit code {code}"
    try:
        if argv[0] == "evolve":
            return check_evolve(argv, stdout)
        if argv[0] == "collide":
            return check_collide(argv, stdout)
        if argv[0] == "verify":
            return check_verify(stdout)
    except (ValueError, KeyError, IndexError) as exc:
        return f"{argv[0]}: unreadable output ({exc})"
    return None
