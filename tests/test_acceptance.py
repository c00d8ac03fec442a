"""Acceptance criteria, one test per criterion, each at its stated tolerance.

Every test prints a single pass/fail line; run with `pytest -s` (or read the
-v test report) to see them.
"""

import math
from itertools import product

import numpy as np
import scipy.linalg

from pauli_dilate.channels import (
    PauliChannel,
    PauliLiouvillian,
    bloch_state,
    semigroup_channel,
    semigroup_rates,
)
from pauli_dilate.collisions import CollisionConfig, collision_channel, convergence_report
from pauli_dilate.dilations import (
    Isometry,
    defining_pauli_rep,
    solve_env_rep,
    solve_su2_generators,
)
from pauli_dilate.dynamics import (
    TIME_GRID,
    PhysicalDilation,
    build_depolarizing_dilation,
    build_generic_pauli_dilation,
    build_phase_damping_dilation,
    channels_on_grid,
    isometry_at,
    krylov_subspace,
    replay_schedule,
    restricted_commutator_norm,
    schedule_for_target,
    symmetrize_full,
)
from pauli_dilate.linalg import basis_state, frob_dist, kron
from pauli_dilate.pauli import (ID2, PAULI_BASIS, SIGMA, SX, SZ, multiply, pauli, pauli_commutant,
                                pauli_group)
from reference_ops import dilation_from_kraus, haar_unitary, kraus_apply, minimal_v

SEED = 987654


def report(num: int, name: str, ok: bool, worst: float, tol: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:02d}] {status} {name} (worst={worst:.3e}, tol={tol:.1e})")
    assert ok, f"criterion {num} failed: worst={worst:.3e} tol={tol:.1e}"


def phase_damping_v(p):
    return np.array([
        [math.sqrt(1 - p), 0],
        [math.sqrt(p), 0],
        [0, math.sqrt(1 - p)],
        [0, -math.sqrt(p)],
    ], dtype=complex)


def generic_v(px, py, pz):
    a = math.sqrt(1 - px - py - pz)
    b, c, d = math.sqrt(px), math.sqrt(py), math.sqrt(pz)
    return np.array([
        [a, 0], [0, b], [0, -1j * c], [d, 0],
        [0, a], [b, 0], [1j * c, 0], [0, -d],
    ], dtype=complex)


PD_ENV = {"I": ID2, "Z": ID2, "X": SZ, "Y": SZ}
DEP_ENV = {
    "I": np.eye(4, dtype=complex),
    "X": np.diag([1.0, 1, -1, -1]).astype(complex),
    "Y": np.diag([1.0, -1, 1, -1]).astype(complex),
    "Z": np.diag([1.0, -1, -1, 1]).astype(complex),
}
J_EXPECTED = {}
for axis, (r, c) in {"x": (3, 2), "y": (1, 3), "z": (2, 1)}.items():
    m = np.zeros((4, 4), dtype=complex)
    m[r, c] = 2j
    m[c, r] = -2j
    J_EXPECTED[axis] = m


def factor_of(label):
    return label.lstrip("+-i")


def test_criterion_01_isometry_matrices():
    tol = 1e-12
    worst = 0.0
    # the Kraus sets stacked with every slot kept, a slot of weight 0 included
    for p in (0.0, 0.3, 1.0):
        v = dilation_from_kraus([math.sqrt(1 - p) * ID2, math.sqrt(p) * SZ])
        worst = max(worst, frob_dist(v.v, phase_damping_v(p)))
    for p in (0.0, 0.3, 0.75):
        weights = (1 - p, p / 3, p / 3, p / 3)
        v = dilation_from_kraus([math.sqrt(w) * s for w, s in zip(weights, PAULI_BASIS)])
        worst = max(worst, frob_dist(v.v, generic_v(p / 3, p / 3, p / 3)))
    # the minimal isometries that `dilate` prints, where no weight is 0
    v = minimal_v(PauliChannel.phase_damping(0.3))
    worst = max(worst, frob_dist(v.v, phase_damping_v(0.3)))
    for p in (0.3, 0.75):
        worst = max(worst, frob_dist(minimal_v(PauliChannel.depolarizing(p)).v,
                                     generic_v(p / 3, p / 3, p / 3)))
    worst = max(worst, frob_dist(minimal_v(PauliChannel((0.4, 0.3, 0.2, 0.1))).v,
                                 generic_v(0.3, 0.2, 0.1)))
    report(1, "dilation isometries match the closed forms entrywise", worst <= tol, worst, tol)


def test_criterion_02_environment_representations():
    tol = 1e-10
    sys_rep = defining_pauli_rep()
    worst = 0.0
    sol_pd = solve_env_rep(minimal_v(PauliChannel.phase_damping(0.3)), sys_rep)
    for g in sys_rep.labels:
        worst = max(worst, frob_dist(sol_pd.rep.mats[g], PD_ENV[factor_of(g)]))
    sol_dep = solve_env_rep(minimal_v(PauliChannel.depolarizing(0.3)), sys_rep)
    for g in sys_rep.labels:
        worst = max(worst, frob_dist(sol_dep.rep.mats[g], DEP_ENV[factor_of(g)]))
    # all four phases of each factor share one environment matrix
    for sol in (sol_pd, sol_dep):
        for factor in "IXYZ":
            group = [sol.rep.mats[g] for g in sys_rep.labels if factor_of(g) == factor]
            for m in group[1:]:
                worst = max(worst, frob_dist(m, group[0]))
    rng = np.random.default_rng(SEED)
    reps = []
    for _ in range(5):
        p = rng.dirichlet(np.ones(4)) * 0.8 + 0.05
        p /= p.sum()
        reps.append(solve_env_rep(minimal_v(PauliChannel(p)), sys_rep).rep)
    for one, two in product(reps, reps):
        for g in sys_rep.labels:
            worst = max(worst, frob_dist(one.mats[g], two.mats[g]))
    report(2, "environment representations recovered, independent of p", worst <= tol, worst, tol)


def test_criterion_03_su2_generators():
    tol = 1e-10
    gens = solve_su2_generators(minimal_v(PauliChannel.depolarizing(0.3)))
    worst = max(frob_dist(gens.jx, J_EXPECTED["x"]),
                frob_dist(gens.jy, J_EXPECTED["y"]),
                frob_dist(gens.jz, J_EXPECTED["z"]))
    rng = np.random.default_rng(SEED)
    for _ in range(5):
        r = rng.standard_normal(3)
        r /= np.linalg.norm(r)
        spec = np.sort(np.linalg.eigvalsh(gens.along(r)))
        worst = max(worst, float(np.max(np.abs(spec - np.array([-2.0, 0.0, 0.0, 2.0])))))
    report(3, "rotation generators and spin-0 + spin-1 spectrum", worst <= tol, worst, tol)


def test_criterion_04_pauli_commutants():
    deph = pauli_commutant([pauli(s) for s in ("ZI", "XZ", "YZ")], 2)
    ok = deph == [pauli(s) for s in ("II", "IZ", "ZX", "ZY")]
    dep = pauli_commutant([pauli(s) for s in ("ZZZ", "XZI", "YIZ")], 3)
    ok = ok and len(dep) == 16
    ok = ok and all(pauli(s) in dep for s in ("XIX", "YXI", "ZXX"))
    report(4, "Pauli commutants: 4-element set exact, 16 strings with generators",
           ok, 0.0 if ok else 1.0, 0.0)


def test_criterion_05_time_evolution_laws():
    tol = 1e-10
    grid = channels_on_grid(build_phase_damping_dilation(), TIME_GRID)
    worst = max(grid.leakage.max(),
                np.max(np.abs(grid.probs[:, 3] - 0.5 * (1 - np.cos(2 * TIME_GRID)))))
    grid = channels_on_grid(build_depolarizing_dilation(), TIME_GRID)
    total = 1 - grid.probs[:, 0]
    worst = max(worst, grid.leakage.max(),
                np.max(np.abs(total - 0.5 * (1 - np.cos(2 * math.sqrt(3) * TIME_GRID)))))
    a = (0.6, 0.5, 0.3)
    xi = sum(v * v for v in a)
    assert xi <= 1
    grid = channels_on_grid(build_generic_pauli_dilation(*a), TIME_GRID)
    s = np.sin(math.sqrt(xi) * TIME_GRID) ** 2 / xi
    worst = max(worst, grid.leakage.max(),
                np.max(np.abs(grid.probs[:, 1:] - np.outer(s, np.square(a)))))
    report(5, "builder probability laws and non-Pauli leakage on the time grid",
           worst <= tol, worst, tol)


def test_criterion_06_invariant_state_and_conservation():
    tol = 1e-10
    sys_rep = defining_pauli_rep()
    worst = 0.0
    builders = [
        (build_phase_damping_dilation(), 0.4),
        (build_depolarizing_dilation(), 0.4),
        (build_generic_pauli_dilation(0.6, 0.5, 0.3), 0.7),
    ]
    for pd, t_ref in builders:
        sol = solve_env_rep(isometry_at(pd, t_ref), sys_rep)
        for g in sys_rep.labels:
            worst = max(worst, float(np.linalg.norm(sol.rep.mats[g] @ pd.psi_e - pd.psi_e)))
    dep = build_depolarizing_dilation()
    k = krylov_subspace(dep)
    dim_ok = k.dim == 4
    gens = solve_su2_generators(minimal_v(PauliChannel.depolarizing(0.3)))
    for s, j in zip(SIGMA, (gens.jx, gens.jy, gens.jz)):
        sym = kron(s, np.eye(4)) + kron(np.eye(2), j)
        worst = max(worst, restricted_commutator_norm(dep, sym, k))
    report(6, "invariant environment states and conserved rotations on the dynamics block",
           dim_ok and worst <= tol, worst, tol)


def test_criterion_07_full_symmetrization():
    tol = 1e-9
    dep = build_depolarizing_dilation()
    sym = symmetrize_full(dep, krylov_subspace(dep))
    grid = channels_on_grid(sym, TIME_GRID)
    total = 1 - grid.probs[:, 0]
    worst = max(grid.leakage.max(),
                np.max(np.abs(total - 0.5 * (1 - np.cos(2 * math.sqrt(3) * TIME_GRID)))))
    gens = solve_su2_generators(minimal_v(PauliChannel.depolarizing(0.3)))
    for s, j in zip(SIGMA, (gens.jx, gens.jy, gens.jz)):
        total_gen = kron(s, np.eye(4)) + kron(np.eye(2), j)
        worst = max(worst, float(np.linalg.norm(total_gen @ sym.h - sym.h @ total_gen)))
    report(7, "block-plus-identity generator reproduces the channel, symmetric everywhere",
           worst <= tol, worst, tol)


def test_criterion_08_rotating_phase_and_dilation_freedom():
    tol = 1e-9
    sys_rep = defining_pauli_rep()
    pd = build_phase_damping_dilation()
    rotated = PhysicalDilation(pd.h + kron(ID2, SX), pd.psi_e)
    worst_prob = float(np.max(np.abs(
        channels_on_grid(pd, TIME_GRID).probs - channels_on_grid(rotated, TIME_GRID).probs)))
    prob_ok = worst_prob <= 1e-10

    alt = PhysicalDilation(pd.h, basis_state("0"))
    sol = solve_env_rep(isometry_at(alt, 0.4), sys_rep)
    worst = 0.0
    for g in sys_rep.labels:
        expected = ID2 if factor_of(g) in ("I", "Z") else -SZ
        worst = max(worst, frob_dist(sol.rep.mats[g], expected))
        worst = max(worst, float(np.linalg.norm(sol.rep.mats[g] @ alt.psi_e - alt.psi_e)))

    v = minimal_v(PauliChannel.phase_damping(0.3))
    base = solve_env_rep(v, sys_rep).rep
    for seed in range(5):
        w = haar_unitary(2, np.random.default_rng(SEED + seed))
        sol_w = solve_env_rep(Isometry(kron(ID2, w) @ v.v), sys_rep)
        for g in sys_rep.labels:
            worst = max(worst, frob_dist(sol_w.rep.mats[g], w @ base.mats[g] @ w.conj().T))
    report(8, "rotating phase is redundant; dilation freedom conjugates the representation",
           prob_ok and worst <= tol, max(worst_prob, worst), tol)


def test_criterion_09_semigroup_against_superoperator_oracle():
    tol = 1e-9
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(10):
        gamma = rng.uniform(0.0, 1.5, size=3)
        lv = PauliLiouvillian(tuple(gamma))
        l_super = sum(g * (np.kron(s.T, s) - np.eye(4)) for g, s in zip(gamma, SIGMA))
        for t in (0.1, 1.0, 5.0):
            prop = scipy.linalg.expm(l_super * t)
            choi_oracle = np.zeros((4, 4), dtype=complex)
            for i in range(2):
                for j in range(2):
                    unit = np.zeros((2, 2), dtype=complex)
                    unit[i, j] = 1.0
                    out = (prop @ unit.reshape(-1, order="F")).reshape(2, 2, order="F")
                    choi_oracle += np.kron(unit, out)
            worst = max(worst, frob_dist(semigroup_channel(lv, t).choi(), choi_oracle))
    report(9, "closed-form semigroup equals the vectorized-generator exponential",
           worst <= tol, worst, tol)


def test_criterion_10_collision_convergence_and_rates():
    dts = [0.1, 0.05, 0.025, 0.0125]
    ok = True
    worst_ratio_dev = 0.0
    for a in ((0.0, 0.0, 1.0), (1.0, 1.0, 1.0)):
        errs = [e.max_error for e in convergence_report(a, 1.0, dts, 1.0)]
        ok = ok and all(big > small for big, small in zip(errs, errs[1:]))
        for big, small in zip(errs, errs[1:]):
            ratio = big / small
            ok = ok and 1.6 <= ratio <= 2.4
            worst_ratio_dev = max(worst_ratio_dev, abs(ratio - 2.0))
        fine = CollisionConfig(a, 1.0, 0.0125)
        rates = semigroup_rates(collision_channel(fine).bloch_scaling(), fine.dt)
        target = fine.rates()
        for got, want in zip(rates, target):
            if want > 0:
                ok = ok and abs(got - want) / want <= 0.02
            else:
                ok = ok and abs(got) <= 1e-10
    report(10, "collision trajectories converge at first order with calibrated rates",
           ok, worst_ratio_dev, 0.4)


def test_criterion_11_property_suite():
    elements = pauli_group()
    keys = {(p.phase, p.factors) for p in elements}
    ok = len(keys) == 16
    for x, y in product(elements, repeat=2):
        z = multiply(x, y)
        ok = ok and (z.phase, z.factors) in keys

    rng = np.random.default_rng(SEED)
    for _ in range(100):
        ch = PauliChannel(tuple(rng.dirichlet(np.ones(4))))
        ops = ch.kraus_ops()
        ok = ok and frob_dist(sum(k.conj().T @ k for k in ops), ID2) < 1e-12
        ok = ok and np.linalg.eigvalsh(ch.choi()).min() > -1e-12
        r = rng.uniform(-1, 1, 3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        out = kraus_apply(ops, bloch_state(r))
        ok = ok and abs(np.trace(out).real - 1) < 1e-12

    sol = solve_env_rep(minimal_v(PauliChannel.phase_damping(0.3)), defining_pauli_rep())
    triviality = max(frob_dist(sol.rep.mats[g], ID2) for g in ("Z", "-Z", "+iZ", "-iZ"))
    ok = ok and triviality <= 1e-10

    sched = schedule_for_target(lambda t: math.sin(3 * t) ** 2, 2.0, 200)
    grid = replay_schedule(sched)
    worst_rt = float(np.max(np.abs(grid.probs[:, 3] - np.sin(3 * grid.t) ** 2)))
    ok = ok and worst_rt <= 1e-6
    report(11, "group table, CPTP battery, conserved-sector triviality, schedule round trip",
           ok, worst_rt, 1e-6)
