from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pauli_dilate import channels, dynamics, verify
from pauli_dilate.channels import (
    PauliChannel,
    bloch_state,
    bloch_vector,
    kraus_apply,
    validate_density_matrix,
)
from pauli_dilate.dynamics import (
    PhysicalDilation,
    build_depolarizing_dilation,
    build_phase_damping_dilation,
)
from pauli_dilate.linalg import basis_state, frob_dist
from pauli_dilate.pauli import SX, SZ, pauli, to_matrix


def test_run_all_passes():
    results = verify.run_all(seed=1234)
    failing = [r.name for r in results if not r.passed]
    assert not failing, failing
    assert len(results) >= 20


def _random_channel_and_state(rng):
    """One draw of the seeded channel checks: channel, Bloch vector, and the state it maps to."""
    ch = PauliChannel(tuple(rng.dirichlet(np.ones(4))))
    r = rng.uniform(-1, 1, size=3)
    r *= rng.uniform(0, 1) / max(np.linalg.norm(r), 1e-12)
    return ch, r, kraus_apply(ch.kraus_ops(), validate_density_matrix(bloch_state(r)))


def channel_cptp_loop(rng, count=100):
    """The per-channel loop that the stacked channel-cptp check replaced: its residual."""
    worst = 0.0
    for _ in range(count):
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
        result, want = check(rng), loop(oracle_rng)
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
    result = verify.check_channel_cptp(np.random.default_rng(0), count=5)
    assert not result.passed and result.residual > 1e-10


def test_bloch_scaling_fails_on_wrong_scalings(monkeypatch):
    scalings = channels.scalings_from_probs
    monkeypatch.setattr(channels, "scalings_from_probs", lambda p: 0.99 * scalings(p))
    assert not verify.check_bloch_scaling(np.random.default_rng(0)).passed


def test_run_all_builds_the_builder_table_once(monkeypatch):
    calls = Counter()
    for name in ("build_phase_damping_dilation", "build_depolarizing_dilation",
                 "build_generic_pauli_dilation"):
        def counted(*args, _build=getattr(dynamics, name), _name=name):
            calls[_name] += 1
            return _build(*args)
        monkeypatch.setattr(dynamics, name, counted)
    assert all(r.passed for r in verify.run_all(seed=3))
    # the depolarizing builder is the generic one at a = (1, 1, 1), and
    # replay_schedule builds its default phase damping generator itself
    assert calls == {"build_phase_damping_dilation": 2, "build_depolarizing_dilation": 1,
                     "build_generic_pauli_dilation": 2}


def test_perturbed_hamiltonian_fails_commutant_membership():
    base = build_depolarizing_dilation()
    # X on the system alone anticommutes with the ZZZ symmetry string
    perturbed = PhysicalDilation(base.h + to_matrix(pauli("XII")),
                                 base.psi_e, base.dim_s, base.dim_e)
    result = verify.check_hamiltonian_commutant_membership(
        perturbed, generators=("ZZZ", "XZI", "YIZ"))
    assert not result.passed


def test_perturbed_initial_state_fails_invariance():
    base = build_depolarizing_dilation()
    perturbed = PhysicalDilation(base.h, basis_state("10"), base.dim_s, base.dim_e)
    result = verify.check_invariant_environment_state(perturbed)
    assert not result.passed


def test_environment_without_reference_fails_invariance():
    # three environment qubits: no builder family has that representation
    pd = PhysicalDilation(to_matrix(pauli("ZXXX")), basis_state("111"), 2, 8)
    result = verify.check_invariant_environment_state(pd)
    assert not result.passed
    assert "dim_e=8" in result.detail


def test_unperturbed_builders_pass_the_same_checks():
    assert verify.check_hamiltonian_commutant_membership().passed
    assert verify.check_invariant_environment_state().passed


class TestRotatingPhase:
    def test_free_environment_term_is_redundant(self):
        result = verify.check_rotating_phase_freedom(build_phase_damping_dilation(), SX)
        assert result.passed
        assert result.residual < 1e-12

    def test_rejects_non_commuting_term(self):
        # [Z (x) X, I (x) Z] = -2i Z (x) Y, of Frobenius norm 4
        result = verify.check_rotating_phase_freedom(build_phase_damping_dilation(), SZ)
        assert not result.passed
        assert abs(result.residual - 4.0) < 1e-12


class TestAlternateInitialState:
    def test_structure_of_zero_initialized_dilation(self):
        result = verify.check_alternate_initial_state()
        assert result.passed
        assert result.residual < 1e-12
