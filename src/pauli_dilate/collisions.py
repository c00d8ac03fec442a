"""Fast-collision model of Pauli dynamical semigroups, in closed form.

Each collision couples the qubit to a fresh ancilla in |11> through
nu (a1 XIX + a2 YXI + a3 ZXX), nu = sqrt(zeta / dt).  The bath factors IX,
XI, XX have zero mean and <B_i B_j> = delta_ij in |11>, and the strings
anticommute, so one collision is exactly the Pauli channel
p_i = a_i^2 sin^2(sqrt(xi) nu dt) / xi with xi = sum_i a_i^2, n collisions
scale the Bloch vector by lambda^n, and as dt -> 0 they converge to the
semigroup with rates gamma_i = zeta a_i^2.  A trajectory, and a whole dt
ladder, holds at most MAX_COLLISIONS collisions; the brute-force
U (rho (x) |11><11|) U+ stepping is the test suite's oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channels import PauliChannel, semigroup_scalings
from .pauli import GENERIC_TERMS, string_hamiltonian

MAX_COLLISIONS = 10**6

# convergence_report fills a rung's table this many rows at a time, so its temporaries stay
# a few (1024, 3) arrays however long the trajectory; every row is computed on its own, so
# the table's bits do not depend on the chunk
TABLE_CHUNK = 1024

# Bloch vector of the initial state of every trajectory, (1, 1, 1) / sqrt(3) as it
# reads back from its density matrix: the z component rounds one unit lower through 1 +- z
_INITIAL_BLOCH = (0.5773502691896258, 0.5773502691896258, 0.5773502691896257)


@dataclass(frozen=True)
class CollisionConfig:
    """Lindblad weights a, rate scale zeta and collision duration dt.

    The interaction strength is nu = sqrt(zeta / dt), so nu^2 dt = zeta
    holds exactly at any dt.
    """

    a: tuple[float, float, float]
    zeta: float
    dt: float

    def __post_init__(self):
        a = tuple(float(v) for v in self.a)
        if len(a) != 3:
            raise ValueError("need 3 Lindblad weights")
        xi = sum(v * v for v in a)
        if not math.isfinite(xi):  # NaN, inf and squares past the float range
            raise ValueError(f"Lindblad weights a must be finite, and so must their squares, "
                             f"got {a}")
        if not (math.isfinite(self.zeta) and self.zeta >= 0):
            raise ValueError(f"zeta must be finite and nonnegative, got {self.zeta}")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"collision duration must be finite and positive, got {self.dt}")
        # the largest decay rate 2 zeta xi and the collision angle sqrt(xi) nu dt stay finite
        if not math.isfinite(2.0 * self.zeta * xi + math.sqrt(xi) * self.nu * self.dt):
            raise ValueError(f"zeta = {self.zeta} and dt = {self.dt} overflow the rates or the "
                             f"collision angle for weights {a}")
        object.__setattr__(self, "a", a)

    @property
    def nu(self) -> float:
        return math.sqrt(self.zeta / self.dt)

    def rates(self) -> np.ndarray:
        """Target semigroup rates gamma_i = zeta a_i^2."""
        return self.zeta * np.asarray(self.a, dtype=float) ** 2


def collision_hamiltonian(a: Sequence[float], nu: float = 1.0) -> np.ndarray:
    """nu (a1 XIX + a2 YXI + a3 ZXX) on system (x) ancilla: nu times the generic dilation's H."""
    return nu * string_hamiltonian(list(zip(GENERIC_TERMS, a, strict=True)))


def collision_channel(cfg: CollisionConfig) -> PauliChannel:
    """One collision as the Pauli channel p_i = a_i^2 sin^2(sqrt(xi) nu dt) / xi."""
    a = np.asarray(cfg.a)
    xi = float(a @ a)
    if xi == 0.0:
        return PauliChannel.identity()
    theta = math.sqrt(xi) * cfg.nu * cfg.dt
    return PauliChannel((math.cos(theta) ** 2, *(a ** 2 * (math.sin(theta) ** 2 / xi))))


@dataclass
class ConvergenceEntry:
    """One rung of a convergence table.

    `errors` is an (n+1, 2) float array with one row (t_k, trace distance to
    the exact semigroup at t_k) per collision count k = 0..n.
    """

    dt: float
    errors: np.ndarray

    @property
    def max_error(self) -> float:
        return float(self.errors[:, 1].max())


def convergence_report(a: Sequence[float], zeta: float, dts: Sequence[float],
                       t_final: float) -> list[ConvergenceEntry]:
    """Trajectory error of the collision model (a, zeta) against its semigroup for each dt.

    Each rung runs round(t_final / dt) collisions, at most MAX_COLLISIONS, and
    so do all rungs together; every rung is checked before any is computed.
    Every trajectory starts from the Bloch vector r0 = (1, 1, 1) / sqrt(3).  For qubit
    states the trace distance is half the Euclidean distance of the Bloch
    vectors, so the states lambda^k r0 are compared with the closed-form
    semigroup exp(-2 t_k (sum_j gamma_j - gamma_i)) r0 at every t_k = k dt,
    TABLE_CHUNK rows at a time.
    """
    rungs = []
    total = 0
    for dt in dts:
        run = CollisionConfig(a, zeta, float(dt))  # the weight, rate, dt and overflow checks
        # in the loop, so a fault of the model and the first dt is named before one of t_final
        if not (math.isfinite(t_final) and t_final > 0):
            raise ValueError(f"t_final must be finite and positive, got {t_final}")
        steps = t_final / run.dt
        if not steps <= MAX_COLLISIONS:
            raise ValueError(f"{steps:.6g} collisions exceed the cap of {MAX_COLLISIONS} "
                             "per trajectory")
        n = round(steps)
        if n < 1:
            raise ValueError("need at least one collision")
        total += n
        if total > MAX_COLLISIONS:
            raise ValueError(f"the first {len(rungs) + 1} rungs hold {total} collisions, more "
                             f"than the cap of {MAX_COLLISIONS} per ladder")
        rungs.append((run, n))
    r0 = np.array(_INITIAL_BLOCH)
    entries = []
    for run, n in rungs:
        lam, gamma = np.array(collision_channel(run).bloch_scaling()), run.rates()
        table = np.empty((n + 1, 2))
        for s in range(0, n + 1, TABLE_CHUNK):
            k = np.arange(s, min(s + TABLE_CHUNK, n + 1))
            t = k * run.dt
            states = lam ** k[:, None] * r0
            exact = semigroup_scalings(gamma, t[:, None]) * r0
            table[s:s + len(k), 0] = t
            table[s:s + len(k), 1] = 0.5 * np.linalg.norm(states - exact, axis=1)
        entries.append(ConvergenceEntry(run.dt, table))
    return entries
