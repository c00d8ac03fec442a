import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st

from pauli_dilate.linalg import (
    basis_index,
    basis_state,
    frob_dist,
    kron,
    mat_exp_hermitian,
    mat_exp_hermitian_block,
    partial_trace_env,
)
from pauli_dilate.pauli import ID2, SX, SZ
from reference_ops import haar_unitary, trace_distance

finite_complex = st.complex_numbers(min_magnitude=0, max_magnitude=3,
                                    allow_nan=False, allow_infinity=False)

# dyadic entries keep products bit-exact, so algebraic identities hold exactly
dyadic_complex = st.tuples(st.integers(-8, 8), st.integers(-8, 8)).map(
    lambda t: complex(t[0] / 8, t[1] / 8))


def two_by_two(entries=finite_complex):
    return st.lists(entries, min_size=4, max_size=4).map(
        lambda v: np.array(v, dtype=np.complex128).reshape(2, 2))


def any_matrix():
    """Complex matrices of every shape from 1x1 to 4x4, square or not."""
    return st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda shape: st.lists(finite_complex, min_size=shape[0] * shape[1],
                               max_size=shape[0] * shape[1]).map(
            lambda v: np.array(v, dtype=np.complex128).reshape(shape)))


def hermitian(dim):
    return st.lists(finite_complex, min_size=dim * dim, max_size=dim * dim).map(
        lambda v: np.array(v, dtype=np.complex128).reshape(dim, dim)).map(
        lambda z: 0.5 * (z + z.conj().T))


class TestKron:
    def test_identity_case(self):
        assert frob_dist(kron(ID2, ID2), np.eye(4)) == 0

    def test_z_tensor_x_expansion(self):
        # block diagonal: +X on the |1> sector, -X on the |0> sector
        expected = np.array([
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, -1, 0],
        ], dtype=complex)
        assert frob_dist(kron(SZ, SX), expected) == 0

    def test_three_factor_string(self):
        # independent oracle: entry = product of factor entries
        got = kron(SX, kron(SZ, ID2))
        factors = [SX, SZ, ID2]
        expected = np.zeros((8, 8), dtype=complex)
        for r in range(8):
            for c in range(8):
                rb = [(r >> k) & 1 for k in (2, 1, 0)]
                cb = [(c >> k) & 1 for k in (2, 1, 0)]
                val = 1.0 + 0j
                for f, rbit, cbit in zip(factors, rb, cb):
                    val *= f[rbit, cbit]
                expected[r, c] = val
        assert frob_dist(got, expected) < 1e-15

    @given(two_by_two(dyadic_complex), two_by_two(dyadic_complex), two_by_two(dyadic_complex))
    def test_associativity_exact(self, a, b, c):
        assert np.array_equal(kron(kron(a, b), c), kron(a, kron(b, c)))

    @given(two_by_two(), two_by_two(), two_by_two())
    def test_associativity_generic(self, a, b, c):
        assert frob_dist(kron(kron(a, b), c), kron(a, kron(b, c))) < 1e-12

    @given(any_matrix(), any_matrix())
    def test_matches_np_kron_on_any_shapes(self, a, b):
        got, want = kron(a, b), np.kron(a, b)
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim_s, dim_e", [(2, 2), (2, 4), (2, 8)])
    def test_matches_np_kron_on_the_embedding_column(self, rng, dim_s, dim_e):
        # PhysicalDilation.embed: I_s (x) |psi_E> with psi_E a (d, 1) column
        psi = (rng.standard_normal(dim_e) + 1j * rng.standard_normal(dim_e)).reshape(-1, 1)
        got = kron(np.eye(dim_s), psi)
        assert got.shape == (dim_s * dim_e, dim_s)
        assert np.array_equal(got, np.kron(np.eye(dim_s, dtype=np.complex128), psi))


class TestPartialTrace:
    def test_identity(self):
        assert frob_dist(partial_trace_env(np.eye(4), 2, 2), 2 * ID2) == 0

    def test_product_state(self, rng):
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = z @ z.conj().T
        rho /= np.trace(rho)
        ket1 = basis_state("1")
        assert frob_dist(partial_trace_env(kron(rho, np.outer(ket1, ket1)), 2, 2), rho) < 1e-14

    def test_bell_projector(self):
        bell = (basis_state("11") + basis_state("00")) / math.sqrt(2)
        proj = np.outer(bell, bell.conj())
        assert frob_dist(partial_trace_env(proj, 2, 2), ID2 / 2) < 1e-15

    @given(two_by_two(), two_by_two())
    def test_product_law(self, a, b):
        assert frob_dist(partial_trace_env(kron(a, b), 2, 2), a * np.trace(b)) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            partial_trace_env(np.eye(3), 2, 2)


class TestMatExp:
    def test_zero_generator(self):
        assert frob_dist(mat_exp_hermitian(np.zeros((4, 4)), 2.3), np.eye(4)) == 0

    def test_involutory_generator_closed_form(self):
        h = kron(SZ, SX)
        for t in (0.0, 0.3, 1.7, 5.0):
            expected = math.cos(t) * np.eye(4) - 1j * math.sin(t) * h
            assert frob_dist(mat_exp_hermitian(h, t), expected) < 1e-13

    def test_unitarity(self, rng):
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = 0.5 * (z + z.conj().T)
        u = mat_exp_hermitian(h, 0.8)
        assert frob_dist(u.conj().T @ u, np.eye(8)) < 1e-10

    def test_group_law(self, rng):
        for _ in range(5):
            z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
            h = 0.5 * (z + z.conj().T)
            t1, t2 = rng.uniform(0.05, 2.0, size=2)
            u = mat_exp_hermitian(h, t1) @ mat_exp_hermitian(h, t2)
            assert frob_dist(u, mat_exp_hermitian(h, t1 + t2)) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            mat_exp_hermitian(np.array([[0, 1], [0, 0]]), 1.0)

    @given(st.sampled_from([2, 4, 8]).flatmap(hermitian),
           st.floats(-4.0, 4.0, allow_nan=False))
    def test_matches_scipy_expm(self, h, t):
        # oracle: scaling-and-squaring Pade exponential of the full matrix
        assert frob_dist(mat_exp_hermitian(h, t), scipy.linalg.expm(-1j * t * h)) < 1e-12


class TestMatExpBlock:
    @given(st.sampled_from([2, 4, 8, 16]).flatmap(lambda d: st.tuples(
               hermitian(d), st.lists(finite_complex, min_size=2 * d, max_size=2 * d))),
           st.lists(st.floats(-4.0, 4.0), max_size=5))
    def test_matches_scipy_expm_times_block(self, hx, times):
        # oracle: the full Pade exponential of each time, then the product with the block
        h, entries = hx
        x = np.array(entries).reshape(len(h), 2)
        out = mat_exp_hermitian_block(h, times, x)
        assert out.shape == (len(times), len(h), 2)
        for row, t in zip(out, times):
            assert frob_dist(row, scipy.linalg.expm(-1j * t * h) @ x) < 1e-12

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="not Hermitian"):
            mat_exp_hermitian_block(np.array([[0, 1], [0, 0]]), [1.0], np.eye(2))

    def test_rejects_an_overflowing_phase(self):
        h = 1e300 * kron(SZ, SX)
        assert np.all(np.isfinite(mat_exp_hermitian_block(h, [0.0, 1e-10], np.eye(4)[:, :2])))
        with pytest.raises(ValueError, match="overflows"):
            mat_exp_hermitian_block(h, [0.0, -1e10], np.eye(4)[:, :2])


class TestNormsAndRank:
    def test_frob_dist_examples(self):
        assert frob_dist(ID2, ID2) == 0
        assert abs(frob_dist(SX, -SX) - 2 * math.sqrt(2)) < 1e-15
        assert abs(frob_dist(SZ, ID2) - 2.0) < 1e-15

    def test_frob_dist_shape_mismatch(self):
        with pytest.raises(ValueError):
            frob_dist(np.eye(2), np.eye(3))

    def test_trace_distance(self):
        rho = np.diag([1.0, 0.0])
        sigma = np.diag([0.0, 1.0])
        assert abs(trace_distance(rho, sigma) - 1.0) < 1e-15
        assert trace_distance(rho, rho) == 0


class TestBasisConvention:
    def test_descending_order(self):
        assert basis_index("1") == 0
        assert basis_index("0") == 1
        assert basis_index("11") == 0
        assert basis_index("10") == 1
        assert basis_index("01") == 2
        assert basis_index("00") == 3
        assert basis_index("011") == 4

    def test_basis_state(self):
        v = basis_state("10")
        assert v.shape == (4,)
        assert v[1] == 1.0 and np.count_nonzero(v) == 1

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError):
            basis_index("12")


def test_haar_unitary_is_unitary_and_seeded(rng):
    u = haar_unitary(4, np.random.default_rng(7))
    v = haar_unitary(4, np.random.default_rng(7))
    assert frob_dist(u.conj().T @ u, np.eye(4)) < 1e-12
    assert np.array_equal(u, v)
