import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_dilate import channels, dilations, dynamics, linalg, verify
from pauli_dilate import pauli as pauli_mod
from pauli_dilate.channels import (
    PauliChannel,
    bloch_state,
    bloch_vector,
    validate_density_matrix,
)
from pauli_dilate.dynamics import (
    PhysicalDilation,
    build_depolarizing_dilation,
    build_phase_damping_dilation,
)
from pauli_dilate.linalg import basis_state, frob_dist
from pauli_dilate.pauli import SX, SZ, pauli, pauli_group, product_table, to_matrix
from pauli_dilate.validation import DEFAULT_TOL
from reference_ops import kraus_apply, minimal_v


def alone(check, *args, **kwargs):
    """check run on its own: a fresh generator and fixture, then its own inputs."""
    return check(np.random.default_rng(0), verify._Fixture(), *args, **kwargs)


def test_run_all_passes():
    results = verify.run_all(seed=1234)
    failing = [r.name for r in results if not r.passed]
    assert not failing, failing
    names = [r.name for r in results]
    assert names == [name for name, _ in verify.CHECKS]
    assert len(set(names)) == 25


def test_run_all_calls_each_check_through_its_module_attribute(monkeypatch):
    # a tracer wraps a check by rebinding its module attribute: run_all must call the wrapper
    calls = []
    real = verify.check_krylov_structure

    def wrapped(rng, fx):
        calls.append(fx)
        return replace(real(rng, fx), detail="wrapped")

    monkeypatch.setattr(verify, "check_krylov_structure", wrapped)
    results = verify.run_all(seed=3)
    assert len(calls) == 1
    assert [r.name for r in results if r.detail == "wrapped"] == ["krylov-structure"]


def _random_channel_and_state(rng):
    """One draw of the seeded channel checks: channel, Bloch vector, and the state it maps to."""
    ch = PauliChannel(tuple(rng.dirichlet(np.ones(4))))
    r = rng.uniform(-1, 1, size=3)
    r *= rng.uniform(0, 1) / max(np.linalg.norm(r), 1e-12)
    return ch, r, kraus_apply(ch.kraus_ops(), validate_density_matrix(bloch_state(r)))


def channel_cptp_loop(rng):
    """The per-channel loop that the stacked channel-cptp check replaced: its residual."""
    worst = 0.0
    for _ in range(100):
        ch, _, out = _random_channel_and_state(rng)
        total = sum(k.conj().T @ k for k in ch.kraus_ops())
        worst = max(worst, frob_dist(total, np.eye(2)))
        worst = max(worst, max(0.0, -float(np.linalg.eigvalsh(ch.choi()).min())))
        worst = max(worst, abs(float(np.trace(out).real) - 1.0))
    return worst


def bloch_scaling_loop(rng):
    """The per-channel loop that the stacked bloch-scaling check replaced: its residual."""
    worst = 0.0
    for _ in range(20):
        ch, r, out = _random_channel_and_state(rng)
        worst = max(worst, float(np.max(np.abs(bloch_vector(out) - ch.bloch_scaling() * r))))
    return worst


@given(st.integers(0, 2**63 - 1))
def test_stacked_channel_checks_match_per_channel_loops(seed):
    for check, loop in ((verify.check_channel_cptp, channel_cptp_loop),
                        (verify.check_bloch_scaling, bloch_scaling_loop)):
        rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        result, want = check(rng, verify._Fixture()), loop(oracle_rng)
        assert result.passed == (want <= result.tol)
        assert abs(result.residual - want) <= 1e-15
        # the draws keep their order, so the next check sees the same stream
        assert rng.random() == oracle_rng.random()


@given(st.integers(0, 2**63 - 1))
def test_random_channels_draw_in_the_loop_order(seed):
    p, r = verify._random_channels(np.random.default_rng(seed), 5)
    rng = np.random.default_rng(seed)
    for i in range(5):
        ch, v, _ = _random_channel_and_state(rng)
        assert tuple(p[i]) == ch.p and np.array_equal(r[i], v)


@pytest.mark.parametrize("helper, broken", [
    ("pauli_kraus", lambda f: lambda p: 1.001 * f(p)),  # completeness
    ("kraus_choi", lambda f: lambda k: f(k) - np.eye(4)),  # negative Choi eigenvalues
    ("kraus_action", lambda f: lambda k, rho: 1.001 * f(k, rho)),  # trace
])
def test_channel_cptp_fails_on_a_broken_stacked_form(monkeypatch, helper, broken):
    monkeypatch.setattr(channels, helper, broken(getattr(channels, helper)))
    result = alone(verify.check_channel_cptp)
    assert not result.passed and result.residual > 1e-10


def test_bloch_scaling_fails_on_wrong_scalings(monkeypatch):
    scalings = channels.scalings_from_probs
    monkeypatch.setattr(channels, "scalings_from_probs", lambda p: 0.99 * scalings(p))
    assert not alone(verify.check_bloch_scaling).passed


def test_run_all_builds_the_builder_table_once(monkeypatch):
    calls = Counter()
    for name in ("build_phase_damping_dilation", "build_depolarizing_dilation",
                 "build_generic_pauli_dilation"):
        def counted(*args, _build=getattr(dynamics, name), _name=name):
            calls[_name] += 1
            return _build(*args)
        monkeypatch.setattr(dynamics, name, counted)
    verify._builders.cache_clear()
    for seed in (3, 4):
        assert all(r.passed for r in verify.run_all(seed=seed))
    # the depolarizing builder is the generic one at a = (1, 1, 1)
    assert calls == {"build_phase_damping_dilation": 1, "build_depolarizing_dilation": 1,
                     "build_generic_pauli_dilation": 2}


def result_bits(r):
    return r.passed, float(r.residual).hex(), r.tol, r.detail


@settings(max_examples=15)
@given(st.integers(0, 2**63 - 1))
def test_run_all_matches_each_check_called_alone(seed):
    # oracle: each row of the table on its own, on the shared generator and a fresh fixture
    rng = np.random.default_rng(seed)
    want = [(name, *result_bits(check(rng, verify._Fixture()))) for name, check in verify.CHECKS]
    assert [(r.name, *result_bits(r)) for r in verify.run_all(seed)] == want


def fingerprint(x):
    """A hashable key that two equal inputs share."""
    if isinstance(x, np.ndarray):
        return x.tobytes()
    if isinstance(x, dilations.Isometry):
        return x.v.tobytes()
    if isinstance(x, PhysicalDilation):
        return x.h.tobytes(), x.psi_e.tobytes()
    if isinstance(x, (list, tuple)):
        return tuple(map(fingerprint, x))
    return x


@pytest.mark.parametrize("runs", [1, 2])
def test_run_all_derives_each_shared_object_once_per_run(monkeypatch, runs):
    calls = Counter()
    for module, name in ((channels.PauliChannel, "minimal_dilation"),
                         (dilations, "solve_su2_generators"), (dilations, "solve_env_rep"),
                         (pauli_mod, "pauli_commutant"), (dynamics, "krylov_subspace"),
                         (dynamics, "channels_on_grid"), (dynamics, "isometry_at")):
        def counted(*args, _real=getattr(module, name), _name=name):
            calls[_name, fingerprint(args)] += 1
            return _real(*args)
        monkeypatch.setattr(module, name, counted)
    for _ in range(runs):
        assert all(r.passed for r in verify.run_all(seed=3))
    # no input is derived twice in a run, and no run reuses another's
    assert set(calls.values()) == {runs}
    per_name = Counter(name for name, _ in calls)
    # five channels dilated: the two fixed-p ones and three generic draws
    assert (per_name["minimal_dilation"], per_name["solve_su2_generators"],
            per_name["pauli_commutant"], per_name["isometry_at"]) == (5, 1, 2, 10)
    dilated = {args[0] for name, args in calls if name == "minimal_dilation"}
    assert {PauliChannel.phase_damping(0.3), PauliChannel.depolarizing(0.3)} <= dilated
    commutants = {args[0] for name, args in calls if name == "pauli_commutant"}
    assert commutants == {tuple(pauli(s) for s in verify._DEPH_SYMMETRY),
                          tuple(pauli(s) for s in verify._DEP_SYMMETRY)}


def test_shared_objects_are_read_only():
    fx = verify._Fixture()
    deph = verify._builders()["phase_damping"][0]
    grid = fx.grid(deph)
    assert fx.grid(deph) is grid and fx.grid(build_phase_damping_dilation()) is not grid
    arrays = [fx.phase_damping_v.v, fx.depolarizing_v.v, fx.phase_damping_rep.stack,
              fx.su2.jx, fx.su2.jy, fx.su2.jz, fx.su2_totals, fx.krylov.basis,
              grid.probs, grid.leakage, fx.env_rep(deph, 0.4).stack]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 0.0
    assert type(fx.commutant(verify._DEP_SYMMETRY)) is tuple


def test_builder_table_is_one_read_only_table():
    table = verify._builders()
    assert verify._builders() is table
    with pytest.raises(TypeError):
        table["generic"] = table["phase_damping"]
    for pd, _ in table.values():
        for arr in (pd.h, pd.psi_e):
            assert not arr.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 0.0


def test_perturbed_hamiltonian_fails_commutant_membership():
    base = build_depolarizing_dilation()
    # X on the system alone anticommutes with the ZZZ symmetry string
    perturbed = PhysicalDilation(base.h + to_matrix(pauli("XII")), base.psi_e)
    result = alone(verify.check_hamiltonian_commutant_membership,
                   perturbed, generators=("ZZZ", "XZI", "YIZ"))
    assert not result.passed


def test_perturbed_initial_state_fails_invariance():
    base = build_depolarizing_dilation()
    perturbed = PhysicalDilation(base.h, basis_state("10"))
    result = alone(verify.check_invariant_environment_state, perturbed)
    assert not result.passed


def test_environment_without_reference_fails_invariance():
    # three environment qubits: no builder family has that representation
    pd = PhysicalDilation(to_matrix(pauli("ZXXX")), basis_state("111"))
    result = alone(verify.check_invariant_environment_state, pd)
    assert not result.passed
    assert "dim_e=8" in result.detail


def test_unperturbed_builders_pass_the_same_checks():
    assert alone(verify.check_hamiltonian_commutant_membership).passed
    assert alone(verify.check_invariant_environment_state).passed


class TestRotatingPhase:
    def test_free_environment_term_is_redundant(self):
        result = alone(verify.check_rotating_phase_freedom, build_phase_damping_dilation(), SX)
        assert result.passed
        assert result.residual < 1e-12

    def test_rejects_non_commuting_term(self):
        # [Z (x) X, I (x) Z] = -2i Z (x) Y, of Frobenius norm 4
        result = alone(verify.check_rotating_phase_freedom, build_phase_damping_dilation(), SZ)
        assert not result.passed
        assert abs(result.residual - 4.0) < 1e-12


class TestAlternateInitialState:
    def test_structure_of_zero_initialized_dilation(self):
        result = alone(verify.check_alternate_initial_state)
        assert result.passed
        assert result.residual < 1e-12


def test_pauli_group_closure_fails_on_a_wrong_product(monkeypatch):
    # the cached product table is read: clear it so the broken multiply builds it
    right = pauli_mod.multiply
    monkeypatch.setattr(pauli_mod, "multiply",
                        lambda a, b: pauli_mod.PauliString(-right(a, b).phase, right(a, b).factors))
    product_table.cache_clear()
    try:
        result = alone(verify.check_pauli_group_closure)
    finally:
        product_table.cache_clear()
    assert not result.passed and result.residual > 0


def test_pauli_group_closure_fails_on_a_product_outside_the_group(monkeypatch):
    monkeypatch.setattr(pauli_mod, "pauli_group", lambda: pauli_group()[:-1])
    result = alone(verify.check_pauli_group_closure)
    assert not result.passed and result.residual == math.inf
    assert "outside the group" in result.detail


# The per-label loops that the stacked environment-representation checks
# replaced, one frob_dist per group label: the checks' oracles.

def canonical_env_rep_by_label(dim_e, xy_sign=1):
    out = {}
    for g in pauli_group():
        factor = g.factors[0]
        sign = xy_sign if factor in "XY" else 1
        out[str(g)] = sign * np.diag(np.array(verify._ENV_REP_DIAG[dim_e][factor], dtype=complex))
    return out


def environment_representations_loop():
    sys_rep = dilations.defining_pauli_rep()
    worst = 0.0
    sol = dilations.solve_env_rep(minimal_v(PauliChannel.phase_damping(0.3)), sys_rep)
    sol_dep = dilations.solve_env_rep(minimal_v(PauliChannel.depolarizing(0.3)), sys_rep)
    for solved, want in ((sol, canonical_env_rep_by_label(2)),
                         (sol_dep, canonical_env_rep_by_label(4))):
        for g in sys_rep.labels:
            worst = max(worst, frob_dist(solved.rep.mats[g], want[g]))
    worst = max(worst, dilations.pauli_rep_law_defect(sol.rep))
    return max(worst, dilations.pauli_rep_law_defect(sol_dep.rep))


def generic_rep_independence_loop(rng):
    sys_rep = dilations.defining_pauli_rep()
    reps = []
    for _ in range(3):
        p = rng.dirichlet(np.ones(4)) * 0.8 + 0.05
        p = p / p.sum()
        reps.append(dilations.solve_env_rep(minimal_v(PauliChannel(p)), sys_rep).rep)
    worst = 0.0
    for one, two in zip(reps, reps[1:]):
        for g in sys_rep.labels:
            worst = max(worst, frob_dist(one.mats[g], two.mats[g]))
    return worst


def invariant_environment_state_loop(pd=None):
    sys_rep = dilations.defining_pauli_rep()
    targets = [pd] if pd is not None else [b for b, _ in verify._builders().values()]
    worst = 0.0
    for target in targets:
        if target.dim_e not in verify._ENV_REP_DIAG:
            return math.inf
        canonical = canonical_env_rep_by_label(target.dim_e)
        for g in sys_rep.labels:
            worst = max(worst, float(np.linalg.norm(canonical[g] @ target.psi_e - target.psi_e)))
        sol = dilations.solve_env_rep(dynamics.isometry_at(target, 0.4), sys_rep)
        for g in sys_rep.labels:
            worst = max(worst, frob_dist(sol.rep.mats[g], canonical[g]))
            worst = max(worst, float(np.linalg.norm(
                sol.rep.mats[g] @ target.psi_e - target.psi_e)))
    return worst


def rotating_phase_freedom_loop(pd, h_env):
    lifted = linalg.kron(np.eye(pd.dim_s), h_env)
    commutator = float(np.linalg.norm(pd.h @ lifted - lifted @ pd.h))
    if commutator > 1e-12:
        return commutator
    rotated = PhysicalDilation(pd.h + lifted, pd.psi_e)
    base = dynamics.channels_on_grid(pd, dynamics.TIME_GRID)
    rot = dynamics.channels_on_grid(rotated, dynamics.TIME_GRID)
    worst = float(np.max(np.abs(base.probs - rot.probs)))
    sys_rep = dilations.defining_pauli_rep()
    rep_times = (0.4, 0.7, 1.3)
    base_rep = dilations.solve_env_rep(dynamics.isometry_at(pd, rep_times[0]), sys_rep).rep
    for t in rep_times:
        rot_rep = dilations.solve_env_rep(dynamics.isometry_at(rotated, t), sys_rep).rep
        w = linalg.mat_exp_hermitian(h_env, t)
        for g in sys_rep.labels:
            worst = max(worst, frob_dist(rot_rep.mats[g], w @ base_rep.mats[g] @ w.conj().T))
    w0 = linalg.mat_exp_hermitian(h_env, 0.0)
    for g in sys_rep.labels:
        worst = max(worst, frob_dist(w0 @ base_rep.mats[g] @ w0.conj().T, base_rep.mats[g]))
    return worst


def alternate_initial_state_loop():
    deph, _ = verify._builders()["phase_damping"]
    pd = PhysicalDilation(deph.h, basis_state("0"))
    times = (0.4, 0.7, 1.3)
    worst = 0.0
    for t in times:
        fit = dynamics.channels_on_grid(pd, [t])
        s, c = math.sin(t), math.cos(t)
        isometry = ((-1j * s, 0), (c, 0), (0, 1j * s), (0, c))
        worst = max(worst, float(fit.leakage[0]),
                    float(np.max(np.abs(fit.probs[0] - verify._law((0, 0, 1), t)))),
                    frob_dist(dynamics.isometry_at(pd, t).v, isometry))
    sys_rep = dilations.defining_pauli_rep()
    sol = dilations.solve_env_rep(dynamics.isometry_at(pd, times[0]), sys_rep)
    flipped = canonical_env_rep_by_label(2, xy_sign=-1)
    for g in sys_rep.labels:
        worst = max(worst, frob_dist(sol.rep.mats[g], flipped[g]),
                    float(np.linalg.norm(sol.rep.mats[g] @ pd.psi_e - pd.psi_e)))
    return worst


def assert_matches_loop(result, want):
    assert result.passed == (want <= result.tol)
    assert result.residual == want or abs(result.residual - want) <= 1e-15


@pytest.mark.parametrize("xy_sign", [1, -1])
@pytest.mark.parametrize("dim_e", [2, 4])
def test_canonical_stack_is_the_label_table_in_group_order(dim_e, xy_sign):
    stack = verify._canonical_env_rep(dim_e, xy_sign)
    table = canonical_env_rep_by_label(dim_e, xy_sign)
    assert stack.shape == (16, dim_e, dim_e)
    assert all(np.array_equal(m, table[str(g)]) for m, g in zip(stack, pauli_group()))


@given(st.integers(0, 2**63 - 1))
def test_stacked_generic_rep_independence_matches_per_label_loop(seed):
    rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    assert_matches_loop(verify.check_generic_rep_independence(rng, verify._Fixture()),
                        generic_rep_independence_loop(oracle_rng))
    assert rng.random() == oracle_rng.random()


def perturbed_solver(monkeypatch, angle):
    """Make dilations.solve_env_rep rotate the phase of one pi_E(g), a different g
    by a larger angle on each call, so that every representation check fails
    and each pair of solves differs; returns a reset."""
    solve = dilations.solve_env_rep
    calls = Counter()

    def perturbed(v, sys_rep, tol=DEFAULT_TOL):
        sol = solve(v, sys_rep, tol)
        i = calls["n"] % len(sol.rep.labels)
        calls["n"] += 1
        stack = sol.rep.stack.copy()
        stack[i] *= np.exp(1j * angle * calls["n"])
        return dilations.EnvRepSolution(dilations.GroupRep(sol.rep.labels, stack), sol.residuals)

    monkeypatch.setattr(dilations, "solve_env_rep", perturbed)
    return calls.clear


def representation_cases():
    builders = verify._builders()
    deph, dep = builders["phase_damping"][0], builders["depolarizing"][0]
    moved = PhysicalDilation(dep.h, basis_state("10"))
    no_reference = PhysicalDilation(to_matrix(pauli("ZXXX")), basis_state("111"))
    return {
        "environment-representations": (
            lambda: alone(verify.check_environment_representations),
            environment_representations_loop),
        "invariant-environment-state": (
            lambda: alone(verify.check_invariant_environment_state),
            invariant_environment_state_loop),
        "invariant-environment-state, moved psi_E": (
            lambda: alone(verify.check_invariant_environment_state, moved),
            lambda: invariant_environment_state_loop(moved)),
        "invariant-environment-state, no reference": (
            lambda: alone(verify.check_invariant_environment_state, no_reference),
            lambda: invariant_environment_state_loop(no_reference)),
        "rotating-phase-freedom": (
            lambda: alone(verify.check_rotating_phase_freedom, deph, SX),
            lambda: rotating_phase_freedom_loop(deph, SX)),
        "rotating-phase-freedom, non-commuting term": (
            lambda: alone(verify.check_rotating_phase_freedom, deph, SZ),
            lambda: rotating_phase_freedom_loop(deph, SZ)),
        "alternate-initial-state": (
            lambda: alone(verify.check_alternate_initial_state), alternate_initial_state_loop),
    }


@pytest.mark.parametrize("angle", [0.0, 1e-12, 0.3])
@pytest.mark.parametrize("case", [
    "environment-representations", "invariant-environment-state",
    "invariant-environment-state, moved psi_E", "invariant-environment-state, no reference",
    "rotating-phase-freedom", "rotating-phase-freedom, non-commuting term",
    "alternate-initial-state",
])
def test_stacked_representation_checks_match_per_label_loops(monkeypatch, case, angle):
    check, loop = representation_cases()[case]
    if angle:
        reset = perturbed_solver(monkeypatch, angle)
        result = check()
        reset()
        want = loop()
    else:
        result, want = check(), loop()
    assert_matches_loop(result, want)
    if angle == 0.3 and "no reference" not in case and "non-commuting" not in case:
        assert not result.passed


@pytest.mark.parametrize("angle", [1e-12, 0.3])
def test_perturbed_generic_rep_independence_matches_per_label_loop(monkeypatch, angle):
    reset = perturbed_solver(monkeypatch, angle)
    result = verify.check_generic_rep_independence(np.random.default_rng(5), verify._Fixture())
    reset()
    assert_matches_loop(result, generic_rep_independence_loop(np.random.default_rng(5)))
    assert result.passed == (angle < 1e-10)
