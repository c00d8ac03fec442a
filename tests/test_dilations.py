import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from pauli_dilate import dilations
from pauli_dilate.channels import PauliChannel
from pauli_dilate.dilations import (
    GroupRep,
    Isometry,
    channel_of_isometry,
    check_strong_conservation,
    defining_pauli_rep,
    depolarizing_isometry,
    dilation_from_kraus,
    pauli_channel_isometry,
    pauli_rep_law_defect,
    phase_damping_isometry,
    _solve_env_operators,
    solve_env_rep,
    solve_su2_generators,
)
from pauli_dilate.dynamics import (
    build_depolarizing_dilation,
    build_generic_pauli_dilation,
    build_phase_damping_dilation,
    isometry_at,
)
from pauli_dilate.linalg import basis_state, frob_dist, gram_defects, kron
from pauli_dilate.pauli import (
    ID2,
    PAULI_BASIS,
    SIGMA,
    SX,
    SY,
    SZ,
    multiply,
    pauli,
    pauli_group,
    product_table,
    to_matrix,
)
from pauli_dilate.validation import ToleranceError
from reference_ops import haar_unitary, kraus_apply


def kraus_of_isometry(v: Isometry) -> list[np.ndarray]:
    """Environment slices of V; Kraus operators of the induced channel."""
    t3 = v.v.reshape(v.dim_s, v.dim_e, v.dim_s)
    return [np.ascontiguousarray(t3[:, e, :]) for e in range(v.dim_e)]


def expected_phase_damping_v(p):
    return np.array([
        [math.sqrt(1 - p), 0],
        [math.sqrt(p), 0],
        [0, math.sqrt(1 - p)],
        [0, -math.sqrt(p)],
    ], dtype=complex)


def expected_generic_v(px, py, pz):
    pi = 1 - px - py - pz
    a, b, c, d = (math.sqrt(v) for v in (pi, px, py, pz))
    return np.array([
        [a, 0], [0, b], [0, -1j * c], [d, 0],
        [0, a], [b, 0], [1j * c, 0], [0, -d],
    ], dtype=complex)


PD_ENV = {"I": ID2, "Z": ID2, "X": SZ, "Y": SZ}
DEP_ENV = {
    "I": np.eye(4, dtype=complex),
    "X": np.diag([1, 1, -1, -1]).astype(complex),
    "Y": np.diag([1, -1, 1, -1]).astype(complex),
    "Z": np.diag([1, -1, -1, 1]).astype(complex),
}

JX = np.zeros((4, 4), dtype=complex)
JX[2, 3], JX[3, 2] = -2j, 2j
JY = np.zeros((4, 4), dtype=complex)
JY[1, 3], JY[3, 1] = 2j, -2j
JZ = np.zeros((4, 4), dtype=complex)
JZ[1, 2], JZ[2, 1] = -2j, 2j


def factor_of(label: str) -> str:
    return label.lstrip("+-i")


class TestIsometryType:
    def test_validates_isometry_property(self):
        with pytest.raises(ValueError):
            Isometry(np.ones((4, 2)))

    def test_validates_shape(self):
        # np.eye(4) is a 4 x 4 unitary, an isometry with dim_e 1; 3 rows hold no whole
        # number of 2-dimensional system blocks
        with pytest.raises(ValueError, match="positive multiple"):
            Isometry(np.eye(3)[:, :2])

    @given(st.integers(0, 12), st.integers(0, 12))
    def test_dims_come_from_the_shape(self, rows, cols):
        v = np.eye(rows, cols)
        if 0 < cols <= rows and rows % cols == 0:
            iso = Isometry(v)
            assert (iso.dim_s, iso.dim_e) == (cols, rows // cols)
        else:
            with pytest.raises(ValueError, match="^isometry shape"):
                Isometry(v)

    @pytest.mark.parametrize("dim_s, dim_e", [(1, 1), (2, 1), (2, 2), (2, 4), (4, 2)])
    def test_defect_is_distance_of_gram_to_identity(self, rng, dim_s, dim_e):
        # the diagonal is shifted in place; the identity it replaces is the oracle, bit for bit
        for _ in range(20):
            v = Isometry(haar_unitary(dim_s * dim_e, rng)[:, :dim_s])
            gram = v.v.conj().T @ v.v
            assert v.defect() == float(np.linalg.norm(gram - np.eye(dim_s)))
            assert v.defect() == v.defect()  # the stored matrix is not changed

    def test_holds_a_read_only_copy(self):
        # complex input of the final shape, which a coercion alone would not copy
        given_array = phase_damping_isometry(0.3).v.copy()
        v = Isometry(given_array)
        assert not np.shares_memory(v.v, given_array)
        with pytest.raises(ValueError, match="read-only"):
            v.v[0, 0] = 5.0
        held = v.v.copy()
        given_array[0, 0] = 5.0  # the caller's array stays writable, and apart
        assert np.array_equal(v.v, held) and v.defect() < 1e-15


class TestDilationFromKraus:
    @pytest.mark.parametrize("p", [0.0, 0.3, 1.0])
    def test_phase_damping_matrix(self, p):
        v = phase_damping_isometry(p)
        assert v.dim_e == 2
        assert frob_dist(v.v, expected_phase_damping_v(p)) < 1e-15

    def test_phase_damping_alt_phases(self):
        # the phases of Hamiltonian evolution: the second environment vector rotated by -i
        p = 0.3
        v = dilation_from_kraus([math.sqrt(1 - p) * ID2, -1j * math.sqrt(p) * SZ])
        expected = np.array([
            [math.sqrt(1 - p), 0],
            [-1j * math.sqrt(p), 0],
            [0, math.sqrt(1 - p)],
            [0, 1j * math.sqrt(p)],
        ])
        assert frob_dist(v.v, expected) < 1e-15

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.75])
    def test_depolarizing_matrix(self, p):
        v = depolarizing_isometry(p)
        assert v.dim_e == 4
        assert frob_dist(v.v, expected_generic_v(p / 3, p / 3, p / 3)) < 1e-15

    def test_generic_matrix(self):
        v = pauli_channel_isometry((0.4, 0.3, 0.2, 0.1))
        assert frob_dist(v.v, expected_generic_v(0.3, 0.2, 0.1)) < 1e-15

    def test_rejects_non_trace_preserving(self):
        with pytest.raises(ValueError):
            dilation_from_kraus([0.5 * ID2, 0.5 * SZ])

    def test_env_slices_recover_kraus(self):
        ops = PauliChannel.phase_damping(0.3).kraus_ops()
        v = dilation_from_kraus(ops)
        for got, want in zip(kraus_of_isometry(v), ops):
            assert frob_dist(got, want) < 1e-15


class TestChannelOfIsometry:
    def test_phase_damping_action(self, rng):
        p = 0.3
        v = phase_damping_isometry(p)
        z = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        rho = z @ z.conj().T
        rho /= np.trace(rho)
        expected = (1 - p) * rho + p * SZ @ rho @ SZ
        assert frob_dist(channel_of_isometry(v, rho), expected) < 1e-14

    def test_invariant_under_environment_unitary(self, rng):
        v = depolarizing_isometry(0.4)
        rho = np.diag([0.7, 0.3]).astype(complex)
        base = channel_of_isometry(v, rho)
        for seed in range(3):
            w = haar_unitary(4, np.random.default_rng(seed))
            rotated = Isometry(kron(ID2, w) @ v.v)
            assert frob_dist(channel_of_isometry(rotated, rho), base) < 1e-13

    def test_zero_probability_channel_is_identity(self, rng):
        v = pauli_channel_isometry((1.0, 0.0, 0.0, 0.0))
        rho = np.diag([0.2, 0.8]).astype(complex)
        assert frob_dist(channel_of_isometry(v, rho), rho) < 1e-15

    def test_matches_kraus_sum(self, rng):
        ch = PauliChannel((0.4, 0.3, 0.2, 0.1))
        v = pauli_channel_isometry(ch.p)
        rho = np.diag([0.6, 0.4]).astype(complex)
        assert frob_dist(channel_of_isometry(v, rho),
                         kraus_apply(ch.kraus_ops(), rho)) < 1e-14


class TestEnvRepresentation:
    def test_phase_damping_table(self):
        sol = solve_env_rep(phase_damping_isometry(0.3), defining_pauli_rep())
        assert sol.max_residual < 1e-10
        for g in sol.rep.labels:
            assert frob_dist(sol.rep.mats[g], PD_ENV[factor_of(g)]) < 1e-10
            assert sol.unitarity_defects[g] < 1e-9

    def test_depolarizing_table(self):
        sol = solve_env_rep(depolarizing_isometry(0.3), defining_pauli_rep())
        for g in sol.rep.labels:
            assert frob_dist(sol.rep.mats[g], DEP_ENV[factor_of(g)]) < 1e-10

    def test_phase_family_collapse(self):
        # all four phases of one factor share one environment matrix
        sol = solve_env_rep(phase_damping_isometry(0.4), defining_pauli_rep())
        for factor in "IXYZ":
            mats = [sol.rep.mats[g] for g in sol.rep.labels if factor_of(g) == factor]
            for m in mats[1:]:
                assert frob_dist(m, mats[0]) < 1e-12

    def test_generic_rep_independent_of_p(self, rng):
        sys_rep = defining_pauli_rep()
        reps = []
        for _ in range(5):
            p = rng.dirichlet(np.ones(4)) * 0.8 + 0.05
            p /= p.sum()
            reps.append(solve_env_rep(pauli_channel_isometry(p), sys_rep).rep)
        for one in reps:
            for g in sys_rep.labels:
                assert frob_dist(one.mats[g], DEP_ENV[factor_of(g)]) < 1e-10

    def test_representation_law_closure(self):
        sol = solve_env_rep(depolarizing_isometry(0.25), defining_pauli_rep())
        assert pauli_rep_law_defect(sol.rep) < 1e-12

    def test_phase_damping_rep_splits_into_trivial_plus_sign(self):
        # the commuting family is diagonal; the first character is trivial,
        # the second sends the x and y sectors to -1
        sol = solve_env_rep(phase_damping_isometry(0.3), defining_pauli_rep())
        for g, m in sol.rep.mats.items():
            assert abs(m[0, 1]) < 1e-12 and abs(m[1, 0]) < 1e-12
            assert abs(m[0, 0] - 1.0) < 1e-10
            sign = -1.0 if factor_of(g) in ("X", "Y") else 1.0
            assert abs(m[1, 1] - sign) < 1e-10

    def test_environment_rotation_conjugates_rep(self):
        v = phase_damping_isometry(0.3)
        sys_rep = defining_pauli_rep()
        base = solve_env_rep(v, sys_rep).rep
        for seed in range(3):
            w = haar_unitary(2, np.random.default_rng(seed))
            rotated = Isometry(kron(ID2, w) @ v.v)
            sol = solve_env_rep(rotated, sys_rep)
            for g in sys_rep.labels:
                assert frob_dist(sol.rep.mats[g], w @ base.mats[g] @ w.conj().T) < 1e-9

    def test_non_covariant_channel_rejected(self):
        k0 = np.array([[math.sqrt(0.6), 0], [0, 1]], dtype=complex)
        k1 = np.array([[0, 0], [math.sqrt(0.4), 0]], dtype=complex)
        v = dilation_from_kraus([k0, k1])
        with pytest.raises(ToleranceError):
            solve_env_rep(v, defining_pauli_rep())

    def test_non_minimal_isometry_rejected(self):
        v = pauli_channel_isometry((1.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            solve_env_rep(v, defining_pauli_rep())


def _loop_solve(v, rhs):
    """The per-element reference solver: one rank test and one lstsq per right-hand side."""
    def slices(m):
        return m.reshape(v.dim_s, v.dim_e, v.dim_s).transpose(1, 0, 2).reshape(v.dim_e, -1)

    t, r = slices(v.v), slices(rhs)
    if np.linalg.matrix_rank(t, tol=1e-10) < v.dim_e:
        raise ValueError("isometry is not minimal")
    x = np.linalg.lstsq(t.T, r.T, rcond=None)[0].T
    return x, float(np.linalg.norm(x @ t - r))


_probabilities = st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4).map(
    lambda w: tuple(np.array(w) / sum(w)))


@st.composite
def covariant_isometries(draw):
    """Random Pauli isometries, the same rotated on the environment, and the builders."""
    kind = draw(st.sampled_from(["pauli", "rotated", "phase_damping", "depolarizing", "generic"]))
    if kind in ("pauli", "rotated"):
        v = pauli_channel_isometry(draw(_probabilities))
        if kind == "rotated":
            w = haar_unitary(4, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
            v = Isometry(kron(ID2, w) @ v.v)
        return v
    if kind == "phase_damping":  # p(t) = sin^2 t stays inside (0, 1)
        return isometry_at(build_phase_damping_dilation(), draw(st.floats(0.1, 1.4)))
    if kind == "depolarizing":
        return isometry_at(build_depolarizing_dilation(), draw(st.floats(0.1, 0.8)))
    a = draw(st.lists(st.floats(0.2, 1.0), min_size=3, max_size=3))
    return isometry_at(build_generic_pauli_dilation(*a), draw(st.floats(0.1, 0.8)))


def law_defect_by_pairs(rep):
    """Oracle: one product and one Frobenius distance per ordered pair of labels."""
    worst = 0.0
    for g in rep.labels:
        for h in rep.labels:
            gh = str(multiply(pauli(g), pauli(h)))
            worst = max(worst, frob_dist(rep.mats[g] @ rep.mats[h], rep.mats[gh]))
    return worst


def first_non_unitary(labels, mats):
    """Oracle: the first label whose matrix fails V+ V = I within 1e-10, checked one
    at a time; None when every matrix passes."""
    for g, m in zip(labels, mats):
        if frob_dist(m.conj().T @ m, np.eye(len(m))) > 1e-10:
            return g
    return None


def law_defect_by_multiply_table(rep):
    """Oracle: the product table built with one multiply per label pair on every call."""
    parsed = [pauli(g) for g in rep.labels]
    index = {g: i for i, g in enumerate(rep.labels)}
    table = [[index[str(multiply(a, b))] for b in parsed] for a in parsed]
    k, d = len(parsed), rep.space_dim
    stack = np.array([rep.mats[g] for g in rep.labels]).reshape(k, d, d)
    products = stack[:, None] @ stack[None, :]
    defects = np.linalg.norm(products - stack[np.array(table, dtype=int).reshape(k, k)],
                             axis=(2, 3))
    return float(np.max(defects, initial=0.0))


class TestCachedProductTable:
    def test_defining_rep(self):
        rep = defining_pauli_rep()
        assert pauli_rep_law_defect(rep) == law_defect_by_multiply_table(rep) == 0.0

    @given(covariant_isometries())
    def test_solved_env_rep(self, v):
        rep = solve_env_rep(v, defining_pauli_rep()).rep
        assert abs(pauli_rep_law_defect(rep) - law_defect_by_multiply_table(rep)) <= 1e-15

    @given(st.integers(0, 15), st.floats(1e-6, 3.0))
    def test_one_matrix_perturbed(self, index, angle):
        rep = solve_env_rep(depolarizing_isometry(0.3), defining_pauli_rep()).rep
        stack = rep.stack.copy()
        stack[index] *= np.exp(1j * angle)
        rep = GroupRep(rep.labels, stack)
        want = law_defect_by_multiply_table(rep)
        assert want > 0
        assert abs(pauli_rep_law_defect(rep) - want) <= 1e-15

    def test_label_set_not_closed_raises_key_error(self):
        rep = GroupRep(("I", "X", "Y"), np.array([ID2, SX, SY]))
        with pytest.raises(KeyError):
            pauli_rep_law_defect(rep)
        with pytest.raises(KeyError):  # a failed build is not cached
            pauli_rep_law_defect(rep)

    def test_new_label_tuple_builds_a_new_table(self):
        rep = defining_pauli_rep()
        labels = rep.labels[::-1]
        product_table(rep.labels)
        product_table.cache_clear()
        first = product_table(rep.labels)
        assert product_table(rep.labels) is first
        reordered = GroupRep(labels, rep.stack[::-1])
        before = product_table.cache_info().misses
        assert pauli_rep_law_defect(reordered) == law_defect_by_multiply_table(reordered) == 0.0
        assert product_table.cache_info().misses == before + 1
        table = product_table(labels)
        assert table is not first
        k = len(labels)
        assert np.array_equal(table, k - 1 - first[::-1, ::-1])

    def test_table_is_read_only(self):
        table = product_table(defining_pauli_rep().labels)
        assert table.dtype.kind == "i" and not table.flags.writeable
        with pytest.raises(ValueError):
            table[0, 0] = 1


class TestStackedSolve:
    """One lstsq per isometry agrees with one solve per group element."""

    @given(covariant_isometries())
    def test_env_rep_matches_per_element_solves(self, v):
        sys_rep = defining_pauli_rep()
        sol = solve_env_rep(v, sys_rep)
        id_e = np.eye(v.dim_e)
        for g in sys_rep.labels:
            pi_s = sys_rep.mats[g]
            x, res = _loop_solve(v, kron(pi_s.conj().T, id_e) @ v.v @ pi_s)
            assert frob_dist(sol.rep.mats[g], x) < 1e-12
            assert abs(sol.residuals[g] - res) < 1e-12
            assert abs(sol.unitarity_defects[g] - frob_dist(x.conj().T @ x, id_e)) < 1e-12

    @given(covariant_isometries())
    def test_unitarity_defects_match_per_element_grams(self, v):
        sol = solve_env_rep(v, defining_pauli_rep())
        id_e = np.eye(v.dim_e)
        for g, x in sol.rep.mats.items():
            assert abs(sol.unitarity_defects[g] - frob_dist(x.conj().T @ x, id_e)) < 1e-14

    @given(covariant_isometries())
    def test_law_defect_matches_pairwise_products(self, v):
        rep = solve_env_rep(v, defining_pauli_rep()).rep
        assert abs(pauli_rep_law_defect(rep) - law_defect_by_pairs(rep)) < 1e-14

    @given(st.integers(0, 2**32 - 1))
    def test_law_defect_of_a_broken_law_matches_pairwise_products(self, seed):
        rng = np.random.default_rng(seed)
        labels = defining_pauli_rep().labels
        rep = GroupRep(labels, np.array([haar_unitary(3, rng) for _ in labels]))
        worst = law_defect_by_pairs(rep)
        assert worst > 0.1
        assert abs(pauli_rep_law_defect(rep) - worst) < 1e-14

    @given(covariant_isometries())
    def test_generator_stack_matches_per_element_solves(self, v):
        id_e = np.eye(v.dim_e)
        rhs = np.array([v.v @ s - kron(s, id_e) @ v.v for s in SIGMA])
        gens, res = _solve_env_operators(v, rhs.reshape(3, 2, v.dim_e, 2))
        for s, j, r in zip(SIGMA, gens, res):
            x, want = _loop_solve(v, v.v @ s - kron(s, id_e) @ v.v)
            assert frob_dist(j, x) < 1e-12
            assert abs(r - want) < 1e-12

    def test_su2_generators_match_per_element_solves(self):
        v = depolarizing_isometry(0.3)
        gens = solve_su2_generators(v)
        for s, j in zip(SIGMA, (gens.jx, gens.jy, gens.jz)):
            x, _ = _loop_solve(v, v.v @ s - kron(s, np.eye(4)) @ v.v)
            assert frob_dist(j, x) < 1e-12

    def test_vanishing_kraus_weight_is_not_minimal(self):
        # a weight of 1e-11 puts the Choi eigenvalue 2e-11 below DEFAULT_TOL
        v = pauli_channel_isometry((0.5, 0.25, 0.25 - 1e-11, 1e-11))
        with pytest.raises(ValueError, match="minimal"):
            solve_env_rep(v, defining_pauli_rep())
        v = pauli_channel_isometry((1 - 3e-11, 1e-11, 1e-11, 1e-11))
        with pytest.raises(ValueError, match="minimal"):
            solve_su2_generators(v)


_SLOT_SUBSETS = [s for n in range(1, 5) for s in itertools.combinations(range(4), n)]


class TestMinimalPauliDilation:
    """Stacking the nonzero Kraus slots gives pi_E(g) = diag(chi_a(g)) over the kept slots a."""

    @pytest.mark.parametrize("slots", _SLOT_SUBSETS, ids=lambda s: "".join("Ixyz"[a] for a in s))
    @given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4))
    def test_env_rep_is_commutation_character(self, slots, weights):
        w = [weights[a] if a in slots else 0.0 for a in range(4)]
        ch = PauliChannel(tuple(x / sum(w) for x in w))
        v = dilation_from_kraus(ch.kraus_ops())
        assert v.dim_e == len(slots)
        sys_rep = defining_pauli_rep()
        sol = solve_env_rep(v, sys_rep)
        for g in sys_rep.labels:
            m = sys_rep.mats[g]
            # chi_a(g) = +1 when g commutes with sigma_a, -1 when it anticommutes
            chi = [1.0 if frob_dist(m @ PAULI_BASIS[a], PAULI_BASIS[a] @ m) < 1e-12 else -1.0
                   for a in slots]
            assert frob_dist(sol.rep.mats[g], np.diag(chi)) < 1e-12


class TestSU2Generators:
    def test_matches_closed_form(self):
        gens = solve_su2_generators(depolarizing_isometry(0.3))
        assert frob_dist(gens.jx, JX) < 1e-10
        assert frob_dist(gens.jy, JY) < 1e-10
        assert frob_dist(gens.jz, JZ) < 1e-10

    def test_p_independent(self):
        a = solve_su2_generators(depolarizing_isometry(0.3))
        b = solve_su2_generators(depolarizing_isometry(0.75))
        assert frob_dist(a.jx, b.jx) < 1e-12
        assert frob_dist(a.jz, b.jz) < 1e-12

    def test_commutation_relations(self):
        g = solve_su2_generators(depolarizing_isometry(0.4))
        pairs = [(g.jx, g.jy, g.jz), (g.jy, g.jz, g.jx), (g.jz, g.jx, g.jy)]
        for a, b, c in pairs:
            assert frob_dist(a @ b - b @ a, 2j * c) < 1e-10

    def test_hermitian(self):
        g = solve_su2_generators(depolarizing_isometry(0.4))
        for j in (g.jx, g.jy, g.jz):
            assert frob_dist(j, j.conj().T) < 1e-12

    def test_spin_content_spectrum(self, rng):
        g = solve_su2_generators(depolarizing_isometry(0.3))
        for _ in range(5):
            r = rng.standard_normal(3)
            r /= np.linalg.norm(r)
            spec = np.sort(np.linalg.eigvalsh(g.along(r)))
            assert np.max(np.abs(spec - np.array([-2.0, 0.0, 0.0, 2.0]))) < 1e-10

    def test_generic_channel_has_no_su2_structure(self):
        v = pauli_channel_isometry((0.4, 0.3, 0.2, 0.1))
        with pytest.raises(ToleranceError):
            solve_su2_generators(v)


class TestStrongConservation:
    def test_phase_damping_conserves_z(self):
        kraus = PauliChannel.phase_damping(0.3).kraus_ops()
        assert check_strong_conservation(kraus, SZ)

    def test_phase_damping_does_not_conserve_x(self):
        kraus = PauliChannel.phase_damping(0.3).kraus_ops()
        assert not check_strong_conservation(kraus, SX)

    def test_depolarizing_conserves_nothing(self):
        kraus = PauliChannel.depolarizing(0.3).kraus_ops()
        for s in (SX, SY, SZ):
            assert not check_strong_conservation(kraus, s)

    def test_conserved_sector_has_trivial_env_rep(self):
        sol = solve_env_rep(phase_damping_isometry(0.3), defining_pauli_rep())
        assert frob_dist(sol.rep.mats["Z"], ID2) < 1e-10
        assert frob_dist(sol.rep.mats["-iZ"], ID2) < 1e-10


class TestGroupRep:
    def test_defining_rep_is_faithful_table(self):
        rep = defining_pauli_rep()
        assert len(rep.labels) == 16
        assert pauli_rep_law_defect(rep) == 0

    def test_rejects_non_unitary(self):
        with pytest.raises(ValueError):
            GroupRep(("a",), [np.array([[1, 0], [0, 0.5]])])

    def test_defining_rep_is_to_matrix_bit_for_bit(self):
        rep = defining_pauli_rep()
        assert rep.labels == tuple(str(p) for p in pauli_group())
        for p in pauli_group():
            assert rep.mats[str(p)].tobytes() == to_matrix(p).tobytes()

    @pytest.mark.parametrize("rep", [
        defining_pauli_rep(),
        solve_env_rep(depolarizing_isometry(0.3), defining_pauli_rep()).rep,
        GroupRep(("a", "b"), [[[1, 0], [0, 1]], np.eye(2)]),
    ], ids=["defining", "solved", "lists"])
    def test_mats_are_the_rows_of_the_stack(self, rep):
        k, d = len(rep.labels), rep.space_dim
        assert rep.stack.shape == (k, d, d) and rep.stack.dtype == np.complex128
        for i, g in enumerate(rep.labels):
            assert np.shares_memory(rep.mats[g], rep.stack)
            assert np.array_equal(rep.mats[g], rep.stack[i])

    @pytest.mark.parametrize("stack", [
        np.ones((16, 2)),
        np.ones((16, 2, 2, 1)),
        np.array(5.0),
        np.ones((15, 2, 2)),
        np.ones((17, 2, 2)),
        np.ones((16, 2, 3)),
        np.ones((16, 3, 2)),
    ], ids=lambda a: str(a.shape))
    def test_wrong_shape_is_named(self, stack):
        with pytest.raises(ValueError) as exc:
            GroupRep(defining_pauli_rep().labels, stack)
        assert str(exc.value) == (f"representation of 16 labels needs a (16, d, d) stack, "
                                  f"got shape {stack.shape}")

    @pytest.mark.parametrize("faults, message", [
        ({"X": [[np.nan, 0], [0, 1]]}, "matrix has non-finite entries"),
        ({"X": [[np.inf, 0], [0, 1]]}, "matrix has non-finite entries"),
        ({"X": [[1, 0], [0, 1j * np.inf]]}, "matrix has non-finite entries"),
        ({"X": np.diag([1.0, 0.5])}, "representation matrix for X is not unitary"),
        ({"-Z": 2 * ID2, "X": np.diag([1.0, 0.5])}, "representation matrix for X is not unitary"),
        ({"I": 2 * ID2, "-Z": [[np.nan, 0], [0, 1]]}, "matrix has non-finite entries"),
    ])
    def test_validation_messages(self, faults, message):
        # non-finite entries anywhere ahead of unitarity; the first non-unitary label is named
        labels = defining_pauli_rep().labels
        stack = np.array([to_matrix(pauli(g)) for g in labels])
        for g, m in faults.items():
            stack[labels.index(g)] = m
        with pytest.raises(ValueError) as exc:
            GroupRep(labels, stack)
        assert str(exc.value) == message

    def test_stack_is_a_read_only_copy(self):
        stack = np.array([ID2, SX])
        rep = GroupRep(("I", "X"), stack)
        assert not np.shares_memory(rep.stack, stack)
        for view in (rep.stack, rep.mats["X"], rep.unitarity_defects):
            with pytest.raises(ValueError, match="read-only"):
                view[0] = 0
        with pytest.raises(TypeError):
            rep.mats["X"] = SZ
        stack[1] = SZ  # the caller's array stays writable, and the rep keeps its copy
        assert np.array_equal(rep.mats["X"], SX)
        assert rep.space_dim == 2 and np.array_equal(rep.unitarity_defects, [0.0, 0.0])

    def test_defining_rep_is_built_once(self):
        assert defining_pauli_rep() is defining_pauli_rep()
        assert not defining_pauli_rep().stack.flags.writeable

    def test_one_gram_per_solve(self, monkeypatch):
        sys_rep = defining_pauli_rep()
        calls = []

        def counted(mats):
            calls.append(len(mats))
            return gram_defects(mats)

        monkeypatch.setattr(dilations, "gram_defects", counted)
        sol = solve_env_rep(depolarizing_isometry(0.3), sys_rep)
        assert calls == [16]
        assert list(sol.unitarity_defects.values()) == sol.rep.unitarity_defects.tolist()

    @given(st.lists(st.sampled_from([0.0, 1e-13, 1e-8, 0.3]), min_size=16, max_size=16),
           st.integers(0, 2**32 - 1))
    def test_batched_checks_match_per_element_checks(self, scales, seed):
        # (1 + s) U has unitarity defect about 2 sqrt(2) s: far below or far above 1e-10
        rng = np.random.default_rng(seed)
        labels = defining_pauli_rep().labels
        mats = np.array([(1 + s) * haar_unitary(2, rng) for s in scales])
        want = first_non_unitary(labels, mats)
        if want is None:
            GroupRep(labels, mats)
        else:
            with pytest.raises(ValueError) as exc:
                GroupRep(labels, mats)
            assert str(exc.value) == f"representation matrix for {want} is not unitary"


def test_kraus_basis_order_is_descending():
    # the j-th Kraus operator occupies environment level |e_j> with
    # |e_0> = |1..1>; verified against direct slot bookkeeping
    ops = [0.5 * ID2, 0.5 * SX, 0.5 * SY, 0.5 * SZ]
    v = dilation_from_kraus(ops)
    psi = basis_state("1")
    out = v.v @ psi
    for j, k in enumerate(ops):
        block = out.reshape(2, 4)[:, j]
        assert frob_dist(block.reshape(2, 1), (k @ psi).reshape(2, 1)) < 1e-15
