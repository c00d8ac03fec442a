import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_dilate import collisions
from pauli_dilate.channels import (
    PauliChannel,
    PauliLiouvillian,
    bloch_state,
    bloch_vectors,
    semigroup_channel,
    semigroup_rates,
    validate_density_matrix,
)
from pauli_dilate.collisions import (
    MAX_COLLISIONS,
    CollisionConfig,
    collision_channel,
    collision_hamiltonian,
    convergence_report,
)
from pauli_dilate.dynamics import build_generic_pauli_dilation
from pauli_dilate.linalg import basis_state, frob_dist, partial_trace_env
from pauli_dilate.pauli import (
    PAULI_BASIS,
    SIGMA,
    pauli,
    pauli_basis_expand,
    pauli_commutant,
    to_matrix,
)
from reference_ops import trace_distance

# Brute-force oracle: the collision as an explicit unitary on system (x) ancilla,
# with bath operators B_x = IX, B_y = XI, B_z = XX and a fresh |11> ancilla per step.
BATH_OPS = [to_matrix(pauli(s)) for s in ("IX", "XI", "XX")]
ANCILLA_STATE = basis_state("11")


def bath_hamiltonian(a, nu):
    return nu * sum(w * np.kron(s, b) for w, s, b in zip(a, SIGMA, BATH_OPS))


def brute_force_trajectory(cfg, n, rho0):
    """States after 0..n collisions: rho -> Tr_E[U (rho (x) |11><11|) U+]."""
    u = scipy.linalg.expm(-1j * cfg.dt * bath_hamiltonian(cfg.a, cfg.nu))
    ancilla = np.outer(ANCILLA_STATE, ANCILLA_STATE.conj())
    states = [np.asarray(rho0, dtype=complex)]
    for _ in range(n):
        states.append(partial_trace_env(u @ np.kron(states[-1], ancilla) @ u.conj().T, 2, 4))
    return states


def collision_map(cfg, rho):
    """One collision, Tr_E[U (rho (x) |11><11|) U+], as the closed-form Pauli channel."""
    return collision_channel(cfg).apply(rho)


def simulate_semigroup(cfg, n, rho0):
    """States after 0..n collisions, from the powers of the closed-form Bloch scalings."""
    state = validate_density_matrix(rho0)
    coeffs = np.einsum("aij,ji->a", PAULI_BASIS, state)
    scalings = np.concatenate(([1.0], collision_channel(cfg).bloch_scaling()))
    powers = scalings ** np.arange(n + 1)[:, None]
    trajectory = 0.5 * np.einsum("ka,aij->kij", powers * coeffs, PAULI_BASIS)
    trajectory[0] = state  # the input itself, not its Pauli re-expansion
    return list(trajectory)


class TestBathOperators:
    def test_zero_mean_in_ancilla_state(self):
        psi = ANCILLA_STATE
        for b in BATH_OPS:
            assert abs(complex(psi.conj() @ b @ psi)) == 0

    def test_two_point_function_is_kronecker_delta(self):
        psi = ANCILLA_STATE
        for i, bi in enumerate(BATH_OPS):
            for j, bj in enumerate(BATH_OPS):
                c = complex(psi.conj() @ bi.conj().T @ bj @ psi)
                assert abs(c - (1.0 if i == j else 0.0)) == 0

    def test_collision_hamiltonian_in_generic_commutant(self):
        h = collision_hamiltonian((0.7, 0.5, 0.3), nu=2.0)
        allowed = set(pauli_commutant([pauli(s) for s in ("ZZZ", "XZI", "YIZ")], 3))
        assert set(pauli_basis_expand(h)) <= allowed

    def test_collision_hamiltonian_equals_bath_coupling(self):
        a, nu = (0.7, -0.5, 0.3), 2.5
        assert np.array_equal(collision_hamiltonian(a, nu), bath_hamiltonian(a, nu))

    @settings(max_examples=200)
    @given(st.tuples(*[st.floats(-10.0, 10.0)] * 3), st.floats(0.0, 50.0))
    def test_collision_hamiltonian_is_the_generic_generator(self, a, nu):
        # one weighted-string sum builds both, bit for bit
        assert np.array_equal(collision_hamiltonian(a, nu),
                              nu * build_generic_pauli_dilation(*a).h)

    @pytest.mark.parametrize("a", [(0.7, 0.5), (0.7, 0.5, 0.3, 0.1)])
    def test_collision_hamiltonian_needs_three_weights(self, a):
        with pytest.raises(ValueError):
            collision_hamiltonian(a)


class TestConfig:
    def test_interaction_strength_relation(self):
        cfg = CollisionConfig((0, 0, 1), 0.8, 0.05)
        assert abs(cfg.nu ** 2 * cfg.dt - cfg.zeta) < 1e-15

    def test_target_rates(self):
        cfg = CollisionConfig((0.5, 0.4, 0.3), 2.0, 0.1)
        assert np.allclose(cfg.rates(), [0.5, 0.32, 0.18])

    @pytest.mark.parametrize("kwargs", [
        dict(a=(0, 0, 1), zeta=-1.0, dt=0.1),
        dict(a=(0, 0, 1), zeta=1.0, dt=0.0),
        dict(a=(0, 1), zeta=1.0, dt=0.1),
        dict(a=(math.nan, 0, 0), zeta=1.0, dt=0.1),
        dict(a=(0, math.inf, 0), zeta=1.0, dt=0.1),
        dict(a=(0, 0, 1), zeta=math.nan, dt=0.1),
        dict(a=(0, 0, 1), zeta=math.inf, dt=0.1),
        dict(a=(0, 0, 1), zeta=1.0, dt=math.nan),
        dict(a=(0, 0, 1), zeta=1.0, dt=math.inf),
    ])
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            CollisionConfig(**kwargs)


class TestCollisionMap:
    def test_zero_weights_do_nothing(self):
        cfg = CollisionConfig((0, 0, 0), 1.0, 0.1)
        assert collision_channel(cfg) == PauliChannel.identity()
        rho = bloch_state((0.2, -0.1, 0.4))
        assert frob_dist(collision_map(cfg, rho), rho) < 1e-15

    def test_dephasing_coherence_closed_form(self):
        cfg = CollisionConfig((0, 0, 1), 1.0, 0.2)
        plus = bloch_state((1.0, 0, 0))
        out = collision_map(cfg, plus)
        # single-string generator: off-diagonal scaled by cos(2 nu dt)
        assert abs(out[0, 1] - 0.5 * math.cos(2 * cfg.nu * cfg.dt)) < 1e-13

    def test_rejects_invalid_state(self):
        cfg = CollisionConfig((0, 0, 1), 1.0, 0.1)
        with pytest.raises(ValueError):
            collision_map(cfg, np.eye(2))

    def test_first_order_expansion_richardson(self):
        # fixed nu = 1 by tying zeta to dt; the quadratic-in-dt term of the
        # collision map must match the dissipator with c_ij = delta_ij
        a = (0.7, 0.5, 0.3)
        rho = bloch_state((0.3, -0.2, 0.4))
        dissipator = sum(w ** 2 * (s @ rho @ s - rho) for w, s in zip(a, SIGMA))

        def defect(h):
            cfg = CollisionConfig(a, h, h)  # nu = sqrt(h/h) = 1
            return frob_dist((collision_map(cfg, rho) - rho) / h ** 2, dissipator)

        e1, e2 = defect(1e-2), defect(5e-3)
        assert e1 < 1e-3
        assert 3.0 < e1 / e2 < 5.0  # quadratic remainder

    def test_preserves_trace_and_positivity(self, rng):
        cfg = CollisionConfig((0.6, 0.4, 0.8), 1.5, 0.07)
        state = bloch_state((0.3, 0.4, -0.5))
        for _ in range(12):
            state = collision_map(cfg, state)
            assert abs(np.trace(state).real - 1) < 1e-12
            assert np.linalg.eigvalsh(state).min() > -1e-12

    def test_matches_dilation_unitary(self):
        cfg = CollisionConfig((0.7, 0.5, 0.3), 1.3, 0.09)
        rho = bloch_state((0.3, -0.2, 0.4))
        assert frob_dist(collision_map(cfg, rho), brute_force_trajectory(cfg, 1, rho)[1]) < 1e-14


class TestTrajectories:
    def test_trajectory_length_and_start(self):
        cfg = CollisionConfig((0, 0, 1), 1.0, 0.1)
        rho0 = bloch_state((0.5, 0, 0))
        traj = simulate_semigroup(cfg, 7, rho0)
        assert len(traj) == 8
        assert frob_dist(traj[0], rho0) == 0

    def test_dephasing_coherences_approach_exponential(self):
        gamma = 1.0
        rho0 = bloch_state((1.0, 0, 0))
        for dt, budget in ((1e-2, 8e-3), (1e-3, 8e-4)):
            cfg = CollisionConfig((0, 0, 1), gamma, dt)
            traj = simulate_semigroup(cfg, round(1.0 / dt), rho0)
            worst = max(
                abs(bloch_vectors(state[None])[0, 0] - math.exp(-2 * gamma * k * dt))
                for k, state in enumerate(traj))
            assert worst < budget

    def test_recovers_general_rates(self):
        cfg = CollisionConfig((0.8, 0.5, 0.3), 1.2, 0.0125)
        rates = semigroup_rates(collision_channel(cfg).bloch_scaling(), cfg.dt)
        target = cfg.rates()
        assert np.max(np.abs(rates - target) / target) < 0.02

    def test_refuses_trajectories_over_the_cap(self):
        # a trajectory is the one-rung report the CLI makes of it
        with pytest.raises(ValueError, match="cap"):
            convergence_report((0, 0, 1), 1.0, [1e-9], (MAX_COLLISIONS + 1) * 1e-9)


weights = st.floats(-1.5, 1.5, allow_nan=False)


@given(a=st.tuples(weights, weights, weights), zeta=st.floats(0.1, 3.0),
       dt=st.floats(1e-3, 0.3), n=st.integers(1, 1000),
       r=st.tuples(weights, weights, weights))
def test_closed_form_matches_brute_force(a, zeta, dt, n, r):
    cfg = CollisionConfig(a, zeta, dt)
    r0 = np.array(r) / max(1.0, np.linalg.norm(r))
    rho0 = bloch_state(r0)
    oracle = brute_force_trajectory(cfg, n, rho0)
    fast = simulate_semigroup(cfg, n, rho0)
    assert len(fast) == n + 1
    assert max(np.max(np.abs(x - y)) for x, y in zip(fast, oracle)) < 1e-12

    # every report starts from one fixed state
    start = bloch_state(collisions._INITIAL_BLOCH)
    oracle = brute_force_trajectory(cfg, n, start)
    [entry] = convergence_report(a, zeta, [dt], n * dt)
    assert len(entry.errors) == n + 1
    assert entry.errors.shape == (n + 1, 2) and entry.errors.dtype == np.float64
    lv = PauliLiouvillian(tuple(cfg.rates()))
    distances = []
    for k, ((t, err), state) in enumerate(zip(entry.errors, oracle)):
        assert t == k * dt
        distances.append(trace_distance(state, semigroup_channel(lv, t).apply(start)))
        assert abs(err - distances[-1]) < 1e-12
    assert isinstance(entry.max_error, float)
    assert abs(entry.max_error - max(distances)) < 1e-12


class TestConvergence:
    def test_dephasing_first_order(self):
        entries = convergence_report((0, 0, 1), 1.0, [0.1, 0.05, 0.025], 1.0)
        errs = [e.max_error for e in entries]
        assert errs[0] > errs[1] > errs[2]
        for big, small in zip(errs, errs[1:]):
            assert 1.6 <= big / small <= 2.4

    def test_depolarizing_recovered_for_equal_weights(self):
        cfg = CollisionConfig((1, 1, 1), 1.0, 0.05)
        entries = convergence_report(cfg.a, cfg.zeta, [cfg.dt], 1.0)
        assert entries[0].max_error < 0.02
        lv = PauliLiouvillian((1.0, 1.0, 1.0))
        rho0 = bloch_state(np.array([1.0, 1.0, 1.0]) / math.sqrt(3))
        traj = simulate_semigroup(cfg, 20, rho0)
        end = semigroup_channel(lv, 1.0).apply(rho0)
        assert trace_distance(traj[-1], end) < 0.02

    def test_zero_weights_have_zero_error(self):
        entries = convergence_report((0, 0, 0), 1.0, [0.1, 0.05], 1.0)
        assert all(e.max_error < 1e-14 for e in entries)

    def test_error_vanishes_in_fast_limit(self):
        entries = convergence_report((0, 0, 1), 1.0, [1e-3], 1.0)
        assert entries[0].max_error < 1e-3

    @pytest.mark.parametrize("dts, t_final", [
        ([1e-9], 1.0),
        ([0.1, 1e-9], 1.0),
        ([0.1], math.inf),
    ])
    def test_refuses_rungs_over_the_cap(self, dts, t_final):
        with pytest.raises(ValueError):
            convergence_report((0, 0, 1), 1.0, dts, t_final)

    def test_ladder_total_exactly_at_the_cap(self):
        entries = convergence_report((0, 0, 1), 1.0, [2 / MAX_COLLISIONS] * 2, 1.0)
        assert sum(len(e.errors) - 1 for e in entries) == MAX_COLLISIONS

    def test_ladder_total_one_over_the_cap_is_refused_before_any_rung(self, monkeypatch):
        calls = []
        monkeypatch.setattr(collisions, "collision_channel",
                            lambda run: calls.append(run) or collision_channel(run))
        with pytest.raises(ValueError) as exc:
            convergence_report((0, 0, 1), 1.0, [1.0, 2 / MAX_COLLISIONS, 2 / MAX_COLLISIONS], 1.0)
        assert str(exc.value) == (f"the first 3 rungs hold {MAX_COLLISIONS + 1} collisions, "
                                  f"more than the cap of {MAX_COLLISIONS} per ladder")
        assert calls == []

    def test_table_does_not_depend_on_the_chunk(self, monkeypatch):
        # rungs of 2, 3, 1001 and 5001 rows, in chunks that split each one differently, and in
        # one chunk
        a = (0.5, 0.4, 0.3)
        dts, t_final = [1.0, 0.5, 1e-3, 2e-4], 1.0
        want = [e.errors for e in convergence_report(a, 1.0, dts, t_final)]
        assert [len(t) for t in want] == [2, 3, 1001, 5001]
        for chunk in (1, 7, 1000, 1001, 10**4):
            monkeypatch.setattr(collisions, "TABLE_CHUNK", chunk)
            got = [e.errors for e in convergence_report(a, 1.0, dts, t_final)]
            assert all(np.array_equal(a, b) for a, b in zip(got, want))

    @pytest.mark.parametrize("dts, message", [
        ([1.0, 1e-9], "1e+09 collisions exceed the cap of 1000000 per trajectory"),
        ([1.0, -0.1], "collision duration must be finite and positive, got -0.1"),
        ([1.0, 2.0], "need at least one collision"),
    ])
    def test_first_failing_rung_message_is_unchanged(self, dts, message):
        with pytest.raises(ValueError) as exc:
            convergence_report((0, 0, 1), 1.0, dts + [1e-3] * 1000, 1.0)
        assert str(exc.value) == message

    @pytest.mark.parametrize("t_final", [0.0, -1.0, math.nan])
    def test_rejects_bad_final_time(self, t_final):
        with pytest.raises(ValueError, match="t_final"):
            convergence_report((0, 0, 1), 1.0, [0.1], t_final)
