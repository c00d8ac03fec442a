from pauli_dilate import verify
from pauli_dilate.dynamics import (
    PhysicalDilation,
    build_depolarizing_dilation,
    build_phase_damping_dilation,
)
from pauli_dilate.linalg import basis_state
from pauli_dilate.pauli import SX, SZ, pauli, to_matrix


def test_run_all_passes():
    results = verify.run_all(seed=1234)
    failing = [r.name for r in results if not r.passed]
    assert not failing, failing
    assert len(results) >= 20


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
