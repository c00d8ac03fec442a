import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

from pauli_dilate import channels
from pauli_dilate.channels import (
    PauliChannel,
    PauliLiouvillian,
    bloch_state,
    bloch_states,
    bloch_vector,
    bloch_vectors,
    channel_from_descriptor,
    kraus_action,
    kraus_choi,
    pauli_kraus,
    probs_from_scaling,
    scalings_from_probs,
    semigroup_channel,
    semigroup_scalings,
    validate_density_matrices,
    validate_density_matrix,
)
from pauli_dilate.dilations import (
    GroupRep,
    defining_pauli_rep,
    dilation_from_kraus,
    solve_env_rep,
    solve_su2_generators,
)
from pauli_dilate.linalg import as_complex_matrix, frob_dist
from pauli_dilate.validation import DEFAULT_TOL, ToleranceError
from pauli_dilate.pauli import ID2, SIGMA, SX, SY, SZ
from reference_ops import kraus_apply

prob_vectors = st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4).map(
    lambda v: tuple(x / sum(v) for x in v))


def check_covariance(channel, rep, tol: float = DEFAULT_TOL) -> tuple[bool, float]:
    """Test phi[g rho g+] == g phi[rho] g+ over a group representation.

    `channel` may be a PauliChannel or a Kraus-operator list; `rep` is a
    GroupRep.  The check runs over a spanning set of four Hermitian states;
    returns (ok, max residual in Frobenius norm).
    """
    if isinstance(channel, PauliChannel):
        kraus = channel.kraus_ops()
    else:
        kraus = [as_complex_matrix(k) for k in channel]
    probes = [0.5 * ID2, 0.5 * (ID2 + SX), 0.5 * (ID2 + SY), 0.5 * (ID2 + SZ)]
    worst = 0.0
    for g in rep.mats.values():
        for rho in probes:
            lhs = kraus_apply(kraus, g @ rho @ g.conj().T)
            rhs = g @ kraus_apply(kraus, rho) @ g.conj().T
            worst = max(worst, frob_dist(lhs, rhs))
    return worst <= tol, worst


def rotation_unitary(theta: float, axis) -> np.ndarray:
    """exp(i theta r . sigma) on the system qubit."""
    r = np.asarray(axis, dtype=float)
    r = r / np.linalg.norm(r)
    n_dot_sigma = r[0] * SX + r[1] * SY + r[2] * SZ
    return math.cos(theta) * ID2 + 1j * math.sin(theta) * n_dot_sigma


def su2_sample_rep(thetas=(0.3, 1.1, 2.7)) -> GroupRep:
    """Deterministic sample of rotations: three angles about x, y, z and two
    oblique unit vectors."""
    axes = {"x": np.array([1.0, 0, 0]), "y": np.array([0, 1.0, 0]), "z": np.array([0, 0, 1.0]),
            "u": np.array([1.0, 1.0, 1.0]) / math.sqrt(3),
            "v": np.array([1.0, 2.0, 3.0]) / math.sqrt(14)}
    labels = []
    mats = []
    for name, axis in axes.items():
        for theta in thetas:
            labels.append(f"theta{theta:g}_{name}")
            mats.append(rotation_unitary(theta, axis))
    return GroupRep(tuple(labels), np.array(mats))


def choi_rank(ch: PauliChannel) -> int:
    """Oracle Kraus rank: Choi eigenvalues from eigvalsh above 1e-10."""
    return int(np.sum(np.linalg.eigvalsh(ch.choi()) > 1e-10))


def amplitude_damping_kraus(gamma: float) -> list[np.ndarray]:
    # decays the sigma_z = +1 level; not a Pauli channel
    k0 = np.array([[math.sqrt(1 - gamma), 0], [0, 1]], dtype=complex)
    k1 = np.array([[0, 0], [math.sqrt(gamma), 0]], dtype=complex)
    return [k0, k1]


class TestPauliChannelBasics:
    def test_validates_probabilities(self):
        with pytest.raises(ValueError):
            PauliChannel((0.5, 0.5, 0.5, -0.5))
        with pytest.raises(ValueError):
            PauliChannel((0.5, 0.1, 0.1, 0.1))

    def test_tolerated_negative_weight_is_stored_as_zero(self):
        # -1e-13 passes the range check (PROB_TOL = 1e-12) and is kept as the 0 it stands for
        ch = PauliChannel((0.5, 0.5000000000001, 0.0, -1e-13))
        assert ch.p == (0.5, 0.5000000000001, 0.0, 0.0)
        assert ch.choi_spectrum() == ([2 * 0.5000000000001, 1.0, 0.0, 0.0], 2)
        assert len(ch.kraus_ops()) == 2
        with pytest.raises(ValueError):
            PauliChannel((0.5, 0.5, 1.1e-12, -1.1e-12))

    @given(prob_vectors)
    def test_unitality(self, p):
        ch = PauliChannel(p)
        assert frob_dist(ch.apply(ID2 / 2), ID2 / 2) < 1e-14

    def test_phase_damping_scales_coherence(self):
        ch = PauliChannel.phase_damping(0.25)
        plus = 0.5 * (ID2 + SX)
        out = ch.apply(plus)
        assert abs(out[0, 1] - 0.25) < 1e-14  # off-diagonal 0.5 scaled by 1 - 2p

    def test_depolarizing_mixes_toward_identity(self, rng):
        p = 0.3
        lam = 4 * p / 3
        ch = PauliChannel.depolarizing(p)
        r = rng.uniform(-1, 1, 3)
        r /= 2 * np.linalg.norm(r)
        rho = bloch_state(r)
        expected = (1 - lam) * rho + lam * ID2 / 2
        assert frob_dist(ch.apply(rho), expected) < 1e-14

    def test_apply_rejects_invalid_state(self):
        ch = PauliChannel.identity()
        with pytest.raises(ValueError):
            ch.apply(SX)  # traceless
        with pytest.raises(ValueError):
            ch.apply(np.eye(2))  # trace 2

    def test_self_adjointness(self):
        # Choi of the channel equals Choi of its adjoint (Kraus are Hermitian)
        ch = PauliChannel((0.4, 0.3, 0.2, 0.1))
        adjoint_kraus = [k.conj().T for k in ch.kraus_ops()]
        adjoint_choi = sum(
            np.kron(_unit(i, j), kraus_apply(adjoint_kraus, _unit(i, j)))
            for i in range(2) for j in range(2))
        assert frob_dist(ch.choi(), adjoint_choi) < 1e-14


def _unit(i, j):
    m = np.zeros((2, 2), dtype=complex)
    m[i, j] = 1.0
    return m


class TestKrausOps:
    def test_identity_channel(self):
        ops = PauliChannel.identity().kraus_ops()
        assert len(ops) == 1
        assert frob_dist(ops[0], ID2) == 0

    def test_phase_damping(self):
        p = 0.3
        ops = PauliChannel.phase_damping(p).kraus_ops()
        assert len(ops) == 2
        assert frob_dist(ops[0], math.sqrt(1 - p) * ID2) < 1e-15
        assert frob_dist(ops[1], math.sqrt(p) * SZ) < 1e-15

    def test_depolarizing(self):
        p = 0.3
        ops = PauliChannel.depolarizing(p).kraus_ops()
        assert len(ops) == 4
        for op, s in zip(ops[1:], SIGMA):
            assert frob_dist(op, math.sqrt(p / 3) * s) < 1e-15

    @given(prob_vectors)
    def test_completeness(self, p):
        ops = PauliChannel(p).kraus_ops()
        assert frob_dist(sum(k.conj().T @ k for k in ops), ID2) < 1e-12


class TestChoi:
    def test_identity_is_bell_projector(self):
        bell = np.zeros(4, dtype=complex)
        bell[0] = bell[3] = 1 / math.sqrt(2)
        expected = 2 * np.outer(bell, bell.conj())
        assert frob_dist(PauliChannel.identity().choi(), expected) < 1e-14

    def test_trace_two(self):
        ch = PauliChannel((0.4, 0.3, 0.2, 0.1))
        assert abs(np.trace(ch.choi()) - 2.0) < 1e-14

    @pytest.mark.parametrize("p,rank", [(0.5, 2), (0.3, 2)])
    def test_phase_damping_rank(self, p, rank):
        ch = PauliChannel.phase_damping(p)
        assert choi_rank(ch) == ch.choi_spectrum()[1] == rank

    def test_depolarizing_rank(self):
        ch = PauliChannel.depolarizing(0.3)
        assert choi_rank(ch) == ch.choi_spectrum()[1] == 4

    def test_generic_full_rank(self):
        ch = PauliChannel((0.4, 0.3, 0.2, 0.1))
        assert choi_rank(ch) == ch.choi_spectrum()[1] == 4

    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=4, max_size=4)
           .filter(any))
    def test_closed_form_spectrum_matches_eigvalsh(self, w):
        ch = PauliChannel(tuple(x / sum(w) for x in w))
        spectrum, rank = ch.choi_spectrum()
        assert np.max(np.abs(np.array(spectrum) - np.linalg.eigvalsh(ch.choi())[::-1])) < 1e-14
        assert rank == choi_rank(ch) == sum(x > 0 for x in w)

    @given(prob_vectors)
    def test_psd(self, p):
        assert np.linalg.eigvalsh(PauliChannel(p).choi()).min() > -1e-12

    @given(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 1.0)), min_size=4, max_size=4)
           .filter(any))
    def test_matches_kron_sum_oracle(self, w):
        # oracle: sum_ij E_ij (x) phi[E_ij], one Kronecker product per matrix unit
        ch = PauliChannel(tuple(x / sum(w) for x in w))
        kraus = ch.kraus_ops()
        oracle = sum(np.kron(_unit(i, j), kraus_apply(kraus, _unit(i, j)))
                     for i in range(2) for j in range(2))
        assert frob_dist(ch.choi(), oracle) < 1e-14


class TestBlochScaling:
    def test_identity(self):
        assert np.allclose(PauliChannel.identity().bloch_scaling(), (1, 1, 1))

    def test_phase_damping(self):
        p = 0.3
        assert np.allclose(PauliChannel.phase_damping(p).bloch_scaling(),
                           (1 - 2 * p, 1 - 2 * p, 1.0))

    def test_depolarizing_semigroup(self):
        lv = PauliLiouvillian((0.7, 0.7, 0.7))
        for t in (0.2, 1.0):
            lam = semigroup_channel(lv, t).bloch_scaling()
            assert np.allclose(lam, math.exp(-4 * 0.7 * t) * np.ones(3), atol=1e-14)

    @given(prob_vectors, st.lists(st.floats(-0.57, 0.57), min_size=3, max_size=3))
    def test_consistency_with_apply(self, p, r):
        ch = PauliChannel(p)
        out = bloch_vector(ch.apply(bloch_state(np.array(r))))
        assert np.max(np.abs(out - ch.bloch_scaling() * np.array(r))) < 1e-12

    def test_inversion_round_trip(self):
        p = (0.4, 0.3, 0.2, 0.1)
        assert np.allclose(probs_from_scaling(PauliChannel(p).bloch_scaling()), p)


# weight vectors with exact zeros, and Bloch vectors in the unit ball
sparse_prob_vectors = st.lists(st.just(0.0) | st.floats(0.01, 1.0),
                               min_size=4, max_size=4).filter(any).map(
    lambda v: tuple(x / sum(v) for x in v))
ball_vectors = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(
    lambda r: np.array(r) / max(1.0, float(np.linalg.norm(r))))


def _message(fn, *args) -> str:
    with pytest.raises(ValueError) as exc:
        fn(*args)
    return str(exc.value)


class TestStackedForms:
    """The stacked helpers against the one-row methods, and the loops they replaced."""

    @given(st.lists(st.tuples(sparse_prob_vectors, ball_vectors), min_size=1, max_size=6))
    @example([((1.0, 0.0, 0.0, 0.0), np.array([0.0, 0.0, 1.0])),
              ((0.0, 0.5, 0.0, 0.5), np.array([0.6, -0.8, 0.0]))])
    def test_rows_match_one_row_methods(self, rows):
        p = np.array([w for w, _ in rows])
        r = np.array([v for _, v in rows])
        kraus = pauli_kraus(p)
        choi = kraus_choi(kraus)
        states = validate_density_matrices(bloch_states(r))
        out = kraus_action(kraus, states)
        vecs = bloch_vectors(out)
        lam = scalings_from_probs(p)
        for i, (w, v) in enumerate(rows):
            ch = PauliChannel(w)
            ops = ch.kraus_ops()
            kept = [k for k, q in zip(kraus[i], w) if q > 0.0]
            assert len(ops) == len(kept) == sum(q > 0.0 for q in w)
            assert all(np.array_equal(a, b) for a, b in zip(ops, kept))
            assert np.array_equal(choi[i], ch.choi())
            assert np.array_equal(states[i], bloch_state(v))
            assert np.array_equal(out[i], ch.apply(states[i]))
            assert np.array_equal(vecs[i], bloch_vector(out[i]))
            assert np.array_equal(lam[i], ch.bloch_scaling())
            # the per-operator loops the stacked forms replaced
            assert frob_dist(out[i], kraus_apply(ops, states[i])) <= 1e-15
            stacked = np.array(ops)
            assert frob_dist(choi[i], np.einsum("kai,kbj->iajb", stacked, stacked.conj())
                             .reshape(4, 4)) <= 1e-15
            loop = [np.trace(s @ out[i]).real for s in SIGMA]
            assert np.max(np.abs(vecs[i] - loop)) <= 1e-15

    @pytest.mark.parametrize("gamma", [0.0, 0.3, 1.0])
    def test_helpers_take_any_kraus_stack(self, gamma, rng):
        # amplitude damping: K^T != +-K, so a transposed Choi index order shows
        kraus = amplitude_damping_kraus(gamma)
        oracle = sum(np.kron(_unit(i, j), kraus_apply(kraus, _unit(i, j)))
                     for i in range(2) for j in range(2))
        assert frob_dist(kraus_choi(np.array(kraus)), oracle) <= 1e-15
        rho = bloch_state(rng.uniform(-0.5, 0.5, 3))
        assert frob_dist(kraus_action(np.array(kraus), rho), kraus_apply(kraus, rho)) <= 1e-15

    def test_outside_unit_ball_rejected_like_one_row(self):
        bad = [0.0, 0.6, 0.8 + 1e-9]
        want = "Bloch vector lies outside the unit ball"
        assert _message(bloch_state, bad) == want
        assert _message(bloch_states, [[0.0, 0.0, 0.5], bad]) == want

    def test_nan_rejected_like_one_row(self):
        bad = [math.nan, 0.0, 0.0]
        one = _message(lambda: validate_density_matrix(bloch_state(bad)))
        assert one == "matrix has non-finite entries"
        assert _message(lambda: validate_density_matrices(bloch_states([[0.1, 0, 0], bad]))) == one

    @pytest.mark.parametrize("rho, want", [
        (np.diag([1.5, -0.5]), "density matrix is not positive semidefinite"),
        (np.array([[0.5, 0.1], [0.0, 0.5]]), "density matrix is not Hermitian"),
        (np.eye(2), "density matrix trace differs from 1"),
    ])
    def test_invalid_state_rejected_like_one_row(self, rho, want):
        assert _message(validate_density_matrix, rho) == want
        assert _message(validate_density_matrices, np.array([ID2 / 2, rho])) == want

    def test_stack_shape_is_checked(self):
        assert "got shape (2, 2)" in _message(validate_density_matrices, ID2 / 2)
        assert _message(bloch_states, [0.1, 0.2, 0.3]) == "Bloch vector must have 3 components"


# channels of Kraus rank 1-4: a nonempty set of slots, each weight at least 1% before
# normalization
ranked_prob_vectors = st.tuples(
    st.sets(st.integers(0, 3), min_size=1), st.lists(st.floats(0.01, 1.0), min_size=4,
                                                      max_size=4)).map(
    lambda sw: tuple(w / sum(sw[1][a] for a in sw[0]) if a in sw[0] else 0.0
                     for a, w in enumerate(sw[1])))
isotropic_channels = st.floats(1e-3, 0.33).map(lambda q: PauliChannel((1 - 3 * q, q, q, q)))


def _array(rows) -> np.ndarray:
    return np.array(rows, dtype=np.complex128)


def _solver_rounding(p) -> float:
    """The relative error the least-squares solvers may show: 1e-15 times the condition
    number sqrt(max p_a / min p_a) of the environment slices of V, over the nonzero slots."""
    weights = [q for q in p if q > 0]
    return 1e-15 * math.sqrt(max(weights) / min(weights))


class TestClosedFormDilation:
    """The minimal dilation, pi_E and the SU(2) generators against the numerical solvers."""

    @given(ranked_prob_vectors)
    def test_rows_are_dilation_from_kraus(self, p):
        ch = PauliChannel(p)
        dil = ch.minimal_dilation()
        v = dilation_from_kraus(ch.kraus_ops())
        assert dil.slots == tuple(a for a, q in enumerate(p) if q > 0)
        assert ch.choi_spectrum()[1] == len(dil.slots) == v.dim_e
        assert np.array_equal(_array(dil.rows), v.v)
        assert abs(dil.defect - v.defect()) <= 1e-15

    @given(ranked_prob_vectors)
    @example((0.7, 0.1, 0.1, 0.1))
    @example((0.5, 0.3, 0.2, 0.0))
    @example((0.0, 0.0, 1.0, 0.0))
    def test_characters_match_solve_env_rep(self, p):
        dil = PauliChannel(p).minimal_dilation()
        sol = solve_env_rep(dilation_from_kraus(PauliChannel(p).kraus_ops()),
                            defining_pauli_rep())
        elements = dil.env_rep()
        assert [g for g, *_ in elements] == list(sol.rep.labels)
        stack = np.array([_array(m) for _, m, _, _ in elements])
        assert np.max(np.abs(stack - sol.rep.stack)) <= _solver_rounding(p)
        # diagonal, with the signs +-1 in every slot, and every check computed as 0
        assert np.array_equal(stack, np.array([np.diag(np.diag(m)) for m in stack]))
        assert set(np.diag(stack[5]).tolist()) <= {1, -1}
        assert all(residual == defect == 0.0 for _, _, residual, defect in elements)

    @given(isotropic_channels)
    @example(PauliChannel.depolarizing(0.3))
    def test_su2_generators_match_solver(self, ch):
        gens, residuals = ch.minimal_dilation().su2_generators()
        want = solve_su2_generators(dilation_from_kraus(ch.kraus_ops()))
        for got, j in zip(gens, (want.jx, want.jy, want.jz)):
            # the entries are 0 and +-2i, and the solver's error is relative to them
            assert np.max(np.abs(_array(got) - j)) <= 2 * _solver_rounding(ch.p)
        assert residuals == (0.0, 0.0, 0.0)

    def test_su2_generators_need_four_slots(self):
        with pytest.raises(ValueError, match="four Kraus slots"):
            PauliChannel.phase_damping(0.3).minimal_dilation().su2_generators()

    def test_isometry_is_checked_by_one_gram(self, monkeypatch):
        # V+ V is sum_j K_j+ K_j, so one Gram over the rows of V checks both
        grams = []
        gram = channels._gram_defect
        monkeypatch.setattr(channels, "_gram_defect", lambda rows: grams.append(rows) or gram(rows))
        dil = PauliChannel.depolarizing(0.3).minimal_dilation()
        assert grams == [dil.rows]

    def test_residuals_are_computed_against_the_isometry(self, monkeypatch):
        # a table that calls every slot commuting leaves V g != (g (x) pi_E(g)) V
        dil = PauliChannel((0.4, 0.3, 0.2, 0.1)).minimal_dilation()
        monkeypatch.setattr(channels, "commutes", lambda a, b: True)
        with pytest.raises(ToleranceError, match=r"^environment representation residual "
                                                 r"\S+ exceeds 1\.0e-10; channel is not "
                                                 r"covariant"):
            dil.env_rep()

    def test_tolerance_messages(self):
        dil = PauliChannel.depolarizing(0.3).minimal_dilation()
        with pytest.raises(ToleranceError, match=r"^environment representation residual "
                                                 r"0\.000e\+00 exceeds -1\.0e\+00;"):
            dil.env_rep(-1.0)
        with pytest.raises(ToleranceError, match=r"^rotation-generator defect 0\.000e\+00 "
                                                 r"exceeds -1\.0e\+00; the channel has no "
                                                 r"rotation-covariant structure$"):
            dil.su2_generators(-1.0)


class TestPythonFloatForms:
    """The numpy-free channel arithmetic against the numpy stack forms it shares a formula with."""

    @given(sparse_prob_vectors)
    def test_bloch_scaling_is_scalings_from_probs(self, p):
        lam = PauliChannel(p).bloch_scaling()
        assert type(lam) is tuple and all(type(v) is float for v in lam)
        assert np.array_equal(np.array(lam), scalings_from_probs(p))

    @given(st.lists(st.floats(0, 1e3), min_size=3, max_size=3),
           st.floats(0, 1e3) | st.sampled_from([0.0, 1e-300, 1e300, 1e308]))
    def test_semigroup_channel_is_the_numpy_path_within_one_ulp(self, g, t):
        # math.exp and np.exp may differ by one ulp in a scaling lambda <= 1; a
        # probability, a quarter of a sum of four such terms, then moves by at most ulp(1)
        got = semigroup_channel(PauliLiouvillian(tuple(g)), t).p
        want = probs_from_scaling(semigroup_scalings(g, t))
        assert all(a == b or abs(a - b) <= math.ulp(1.0) for a, b in zip(got, want))


class TestCovariance:
    @given(prob_vectors)
    def test_pauli_channels_are_pauli_covariant(self, p):
        ok, residual = check_covariance(PauliChannel(p), defining_pauli_rep())
        assert ok and residual < 1e-12

    def test_depolarizing_is_rotation_covariant(self):
        ok, residual = check_covariance(PauliChannel.depolarizing(0.35), su2_sample_rep())
        assert ok and residual < 1e-12

    def test_phase_damping_not_rotation_covariant(self):
        ok, _ = check_covariance(PauliChannel.phase_damping(0.35), su2_sample_rep())
        assert not ok

    def test_amplitude_damping_not_pauli_covariant(self):
        ok, residual = check_covariance(amplitude_damping_kraus(0.4), defining_pauli_rep())
        assert not ok
        assert residual > 1e-3


class TestLiouvillian:
    def test_rejects_negative_rates(self):
        with pytest.raises(ValueError):
            PauliLiouvillian((-0.1, 0, 0))

    def test_annihilates_identity(self):
        lv = PauliLiouvillian((0.3, 0.7, 0.2))
        assert frob_dist(lv.apply(ID2), np.zeros((2, 2))) < 1e-15

    def test_pauli_eigenoperators(self):
        g = (0.3, 0.7, 0.2)
        lv = PauliLiouvillian(g)
        for i, s in enumerate(SIGMA):
            rate = -2 * (sum(g) - g[i])
            assert frob_dist(lv.apply(s), rate * s) < 1e-14

    def test_zero_rates(self, rng):
        lv = PauliLiouvillian((0, 0, 0))
        rho = bloch_state(rng.uniform(-0.5, 0.5, 3))
        assert frob_dist(lv.apply(rho), np.zeros((2, 2))) == 0

    def test_output_traceless(self, rng):
        lv = PauliLiouvillian((0.5, 0.1, 0.9))
        rho = bloch_state(rng.uniform(-0.5, 0.5, 3))
        assert abs(np.trace(lv.apply(rho))) < 1e-14


class TestSemigroup:
    def test_time_zero_is_identity(self):
        ch = semigroup_channel(PauliLiouvillian((0.3, 0.7, 0.2)), 0.0)
        assert np.allclose(ch.p, (1, 0, 0, 0))

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError):
            semigroup_channel(PauliLiouvillian((1, 0, 0)), -0.1)

    def test_pure_dephasing_probabilities(self):
        g = 0.8
        lv = PauliLiouvillian((0, 0, g))
        for t in (0.1, 0.5, 2.0):
            ch = semigroup_channel(lv, t)
            assert abs(ch.p[0] - 0.5 * (1 + math.exp(-2 * g * t))) < 1e-14
            assert abs(ch.p[3] - 0.5 * (1 - math.exp(-2 * g * t))) < 1e-14
            assert abs(ch.p[1]) < 1e-14 and abs(ch.p[2]) < 1e-14

    def test_isotropic_probabilities(self):
        g = 0.6
        lv = PauliLiouvillian((g, g, g))
        for t in (0.1, 0.5, 2.0):
            ch = semigroup_channel(lv, t)
            for i in (1, 2, 3):
                assert abs(ch.p[i] - 0.25 * (1 - math.exp(-4 * g * t))) < 1e-14

    @given(st.lists(st.floats(0, 1.5), min_size=3, max_size=3),
           st.floats(0, 2), st.floats(0, 2))
    def test_composition_law(self, g, s, t):
        lv = PauliLiouvillian(tuple(g))
        combined = semigroup_channel(lv, s).compose(semigroup_channel(lv, t))
        direct = semigroup_channel(lv, s + t)
        assert np.max(np.abs(np.array(combined.p) - np.array(direct.p))) < 1e-10

    def test_generator_derivative_richardson(self, rng):
        lv = PauliLiouvillian((0.3, 0.7, 0.2))
        rho = bloch_state(np.array([0.3, -0.4, 0.5]))
        target = lv.apply(rho)

        def err(h):
            return frob_dist((semigroup_channel(lv, h).apply(rho) - rho) / h, target)

        e1, e2 = err(1e-4), err(5e-5)
        assert e1 < 1e-3
        assert 0.4 < e2 / e1 < 0.6  # first order in h

    def test_matches_superoperator_exponential(self, rng):
        # independent oracle: column-stacking vectorization of the generator
        for _ in range(5):
            g = rng.uniform(0, 1.2, 3)
            lv = PauliLiouvillian(tuple(g))
            l_super = sum(gi * (np.kron(s.T, s) - np.eye(4))
                          for gi, s in zip(g, SIGMA))
            for t in (0.1, 1.0, 5.0):
                prop = scipy.linalg.expm(l_super * t)
                ch = semigroup_channel(lv, t)
                for rho in (bloch_state((0.3, 0.1, -0.5)), bloch_state((0, 0.9, 0))):
                    direct = prop @ rho.reshape(-1, order="F")
                    assert frob_dist(ch.apply(rho),
                                     direct.reshape(2, 2, order="F")) < 1e-12


class TestDescriptors:
    def test_pauli(self):
        ch = channel_from_descriptor({"type": "pauli", "p": [0.4, 0.3, 0.2, 0.1]})
        assert isinstance(ch, PauliChannel)
        assert ch.p == (0.4, 0.3, 0.2, 0.1)

    def test_phase_damping(self):
        ch = channel_from_descriptor({"type": "phase_damping", "p": 0.3})
        assert ch.p == (0.7, 0.0, 0.0, 0.3)

    def test_depolarizing(self):
        ch = channel_from_descriptor({"type": "depolarizing", "p": 0.3})
        assert abs(ch.p[1] - 0.1) < 1e-15

    def test_liouvillian(self):
        lv = channel_from_descriptor({"type": "liouvillian", "gamma": [0.1, 0.2, 0.3]})
        assert isinstance(lv, PauliLiouvillian)

    @pytest.mark.parametrize("bad", [
        {"type": "nope"},
        {"p": 0.3},
        {"type": "pauli", "p": [1, 0, 0]},
        {"type": "liouvillian", "gamma": [1, 2]},
        {"type": "pauli", "p": [math.nan, 0, 0, 0]},
        {"type": "phase_damping", "p": math.nan},
        {"type": "liouvillian", "gamma": [math.nan, 0, 0]},
        {"type": "pauli", "p": [math.inf, 0, 0, 0]},
        {"type": "liouvillian", "gamma": [math.inf, 0, 0]},
        {"type": "phase_damping"},
        {"type": "depolarizing", "p": None},
        {"type": "pauli", "p": [None, 0, 0, 1]},
        {"type": "depolarizing", "p": 0.3, "gamma": [1, 1, 1]},
        {"type": "liouvillian", "gamma": [1, 1, 1], "p": 0.3},
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            channel_from_descriptor(bad)


def test_cptp_on_many_random_channels(rng):
    for _ in range(100):
        ch = PauliChannel(tuple(rng.dirichlet(np.ones(4))))
        ops = ch.kraus_ops()
        assert frob_dist(sum(k.conj().T @ k for k in ops), ID2) < 1e-12
        assert np.linalg.eigvalsh(ch.choi()).min() > -1e-12
        r = rng.uniform(-1, 1, 3)
        r *= rng.uniform(0, 1) / np.linalg.norm(r)
        out = ch.apply(bloch_state(r))
        assert abs(np.trace(out).real - 1) < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-12
