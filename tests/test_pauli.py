import math
import tracemalloc
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pauli_dilate import pauli as pauli_mod
from pauli_dilate.linalg import frob_dist
from pauli_dilate.pauli import (
    FACTOR_MATS,
    PauliString,
    commutes,
    iter_strings,
    multiply,
    pauli,
    pauli_basis_expand,
    pauli_commutant,
    pauli_group,
    product_table,
    string_hamiltonian,
    to_matrix,
)
from reference_ops import commutant_by_letters, commutes_by_letters, multiply_by_letters

phases = st.sampled_from([1, -1, 1j, -1j])
strings = st.integers(1, 3).flatmap(
    lambda n: st.tuples(phases, st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)))


def random_pair(draw_n):
    return st.tuples(phases, st.lists(st.sampled_from("IXYZ"), min_size=draw_n, max_size=draw_n))


class TestMultiplication:
    def test_xy_gives_iz(self):
        assert multiply(pauli("X"), pauli("Y")) == pauli("+iZ")

    def test_zz_gives_identity(self):
        assert multiply(pauli("Z"), pauli("Z")) == pauli("I")

    def test_three_qubit_product(self):
        # factorwise: (X.Y)(Z.I)(I.Z) = (iZ)(Z)(Z)
        got = multiply(pauli("XZI"), pauli("YIZ"))
        assert got == pauli("+iZZZ")

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            multiply(pauli("X"), pauli("XX"))

    @given(strings, strings)
    def test_matrix_homomorphism(self, a_spec, b_spec):
        a = PauliString(a_spec[0], tuple(a_spec[1]))
        b = PauliString(b_spec[0], tuple(b_spec[1]))
        if a.n_qubits != b.n_qubits:
            return
        assert frob_dist(to_matrix(multiply(a, b)), to_matrix(a) @ to_matrix(b)) < 1e-14


class TestGroup:
    def test_sixteen_distinct_elements(self):
        elements = pauli_group()
        assert len(elements) == 16
        assert len({(p.phase, p.factors) for p in elements}) == 16

    def test_full_multiplication_table_closes(self):
        elements = pauli_group()
        keys = {(p.phase, p.factors) for p in elements}
        for a, b in product(elements, repeat=2):
            c = multiply(a, b)
            assert (c.phase, c.factors) in keys

    def test_identity_and_inverses(self):
        elements = pauli_group()
        identity = pauli("I")
        for a in elements:
            assert multiply(a, identity) == a
            assert any(multiply(a, b) == identity for b in elements)

    def test_associativity_over_all_triples(self):
        elements = pauli_group()
        for a, b, c in product(elements, repeat=3):
            assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


class TestCommutation:
    def test_x_z_anticommute(self):
        assert not commutes(pauli("X"), pauli("Z"))

    def test_two_anticommuting_pairs_cancel(self):
        assert commutes(pauli("ZX"), pauli("XZ"))

    def test_factorwise_identity_slot(self):
        assert commutes(pauli("IZ"), pauli("XZ"))

    def test_agrees_with_matrices_on_all_two_qubit_pairs(self):
        for a, b in product(iter_strings(2), repeat=2):
            ma, mb = to_matrix(a), to_matrix(b)
            assert commutes(a, b) == (frob_dist(ma @ mb, mb @ ma) < 1e-12)


class TestMatrices:
    def test_z_matrix(self):
        assert np.array_equal(to_matrix(pauli("Z")), np.diag([1.0 + 0j, -1.0]))

    def test_zx_matches_tensor_product(self):
        expected = np.array([
            [0, 1, 0, 0],
            [1, 0, 0, 0],
            [0, 0, 0, -1],
            [0, 0, -1, 0],
        ], dtype=complex)
        assert frob_dist(to_matrix(pauli("ZX")), expected) == 0

    def test_scalar_phase(self):
        assert np.array_equal(to_matrix(pauli("-iY")),
                              np.array([[0, -1], [1, 0]], dtype=complex))

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_np_kron_chain_on_every_string(self, n):
        for factors in product("IXYZ", repeat=n):
            want = FACTOR_MATS[factors[0]]
            for f in factors[1:]:
                want = np.kron(want, FACTOR_MATS[f])
            for phase in (1, -1, 1j, -1j):
                got = to_matrix(PauliString(phase, factors))
                assert got.shape == (2 ** n, 2 ** n) and got.dtype == np.complex128
                assert np.array_equal(got, complex(phase) * want)


class TestTextFormat:
    @pytest.mark.parametrize("text", ["I", "X", "-Z", "+iY", "-iZXI", "XZ"])
    def test_round_trip(self, text):
        p = pauli(text)
        assert pauli(str(p)) == p

    def test_rejects_garbage(self):
        for bad in ("", "A", "iX", "+-X", "x"):
            with pytest.raises(ValueError):
                pauli(bad)

    @pytest.mark.parametrize("factors", [(), ("XY",), ("x",), ("X", ""), (1,)])
    def test_rejects_bad_factors(self, factors):
        # a multi-letter factor would otherwise join into masks of the wrong width
        with pytest.raises(ValueError, match="invalid factors"):
            PauliString(1, factors)

    def test_rejects_bad_phase(self):
        with pytest.raises(ValueError):
            PauliString(0.5, ("X",))


class TestExpansion:
    def test_identity(self):
        out = pauli_basis_expand(np.eye(2))
        assert out == {pauli("I"): 1.0}

    def test_two_unit_coefficients(self):
        m = to_matrix(pauli("ZX")) + to_matrix(pauli("XI"))
        out = pauli_basis_expand(m)
        assert set(out) == {pauli("ZX"), pauli("XI")}
        assert all(abs(c - 1.0) < 1e-14 for c in out.values())

    def test_bloch_z_state(self):
        rho = 0.5 * (np.eye(2) + to_matrix(pauli("Z")))
        out = pauli_basis_expand(rho)
        assert out.keys() == {pauli("I"), pauli("Z")}
        assert abs(out[pauli("I")] - 0.5) < 1e-14
        assert abs(out[pauli("Z")] - 0.5) < 1e-14

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            pauli_basis_expand(np.eye(3))

    @given(st.lists(st.complex_numbers(max_magnitude=2, allow_nan=False,
                                       allow_infinity=False),
                    min_size=16, max_size=16))
    def test_reconstruction(self, entries):
        m = np.array(entries, dtype=complex).reshape(4, 4)
        out = pauli_basis_expand(m, tol=0.0)
        rebuilt = sum((c * to_matrix(p) for p, c in out.items()),
                      start=np.zeros((4, 4), dtype=complex))
        assert frob_dist(rebuilt, m) < 1e-12


def expand_by_traces(m, tol=1e-12):
    """Oracle: one Kronecker-built string and one trace per phase-free string."""
    a = np.asarray(m, dtype=complex)
    dim = a.shape[0]
    out = {}
    for p in iter_strings(dim.bit_length() - 1):
        c = complex(np.trace(to_matrix(p) @ a)) / dim
        if abs(c) > tol:
            out[p] = c
    return out


@st.composite
def sparse_pauli_sums(draw):
    """A random combination of a few strings on 1-3 qubits, so the tol drop matters."""
    n = draw(st.integers(1, 3))
    labels = draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), max_size=5))
    coeffs = draw(st.lists(st.complex_numbers(min_magnitude=0.01, max_magnitude=2),
                           min_size=len(labels), max_size=len(labels)))
    m = np.zeros((2 ** n, 2 ** n), dtype=complex)
    for label, c in zip(labels, coeffs):
        m += c * to_matrix(pauli(label))
    return m


class TestExpansionOracle:
    """The qubit-by-qubit contraction agrees with a trace per string."""

    @given(sparse_pauli_sums())
    def test_sparse_sums(self, m):
        fast, slow = pauli_basis_expand(m), expand_by_traces(m)
        assert list(fast) == list(slow)
        assert all(abs(fast[p] - slow[p]) < 1e-14 for p in slow)

    @given(st.integers(1, 3).flatmap(lambda n: st.lists(
        st.complex_numbers(max_magnitude=2, allow_nan=False, allow_infinity=False),
        min_size=4 ** n, max_size=4 ** n)))
    def test_dense_matrices(self, entries):
        dim = math.isqrt(len(entries))
        m = np.array(entries, dtype=complex).reshape(dim, dim)
        fast, slow = pauli_basis_expand(m), expand_by_traces(m)
        assert list(fast) == list(slow)
        assert all(abs(fast[p] - slow[p]) < 1e-14 for p in slow)

    def test_rejects_one_by_one(self):
        with pytest.raises(ValueError):
            pauli_basis_expand(np.eye(1))


def _f2_rank(gens):
    rows = []
    for g in gens:
        bits = 0
        for i, f in enumerate(g.factors):
            x = 1 if f in ("X", "Y") else 0
            z = 1 if f in ("Z", "Y") else 0
            bits |= x << (2 * i)
            bits |= z << (2 * i + 1)
        rows.append(bits)
    rank = 0
    for col in range(2 * max(g.n_qubits for g in gens)):
        mask = 1 << col
        idx = next((i for i in range(rank, len(rows)) if rows[i] & mask), None)
        if idx is None:
            continue
        rows[rank], rows[idx] = rows[idx], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i] & mask:
                rows[i] ^= rows[rank]
        rank += 1
    return rank


class TestCommutant:
    def test_phase_damping_set(self):
        gens = [pauli(s) for s in ("ZI", "XZ", "YZ")]
        got = pauli_commutant(gens, 2)
        assert got == [pauli(s) for s in ("II", "IZ", "ZX", "ZY")]

    def test_depolarizing_set(self):
        gens = [pauli(s) for s in ("ZZZ", "XZI", "YIZ")]
        got = pauli_commutant(gens, 3)
        assert len(got) == 16
        for member in ("XIX", "YXI", "ZXX"):
            assert pauli(member) in got

    def test_empty_generators(self):
        got = pauli_commutant([], 1)
        assert got == [pauli(s) for s in "IXYZ"]

    def test_matches_matrix_brute_force(self, rng):
        for _ in range(4):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 3))
            gens = [PauliString(1, tuple(rng.choice(list("IXYZ"), size=n)))
                    for _ in range(k)]
            fast = pauli_commutant(gens, n)
            gen_mats = [to_matrix(g) for g in gens]
            slow = [p for p in iter_strings(n)
                    if all(frob_dist(to_matrix(p) @ m, m @ to_matrix(p)) < 1e-12
                           for m in gen_mats)]
            assert fast == slow

    def test_cardinality_law(self, rng):
        for _ in range(4):
            n = int(rng.integers(1, 4))
            k = int(rng.integers(1, 4))
            gens = [PauliString(1, tuple(rng.choice(list("IXYZ"), size=n)))
                    for _ in range(k)]
            count = len(pauli_commutant(gens, n))
            assert count == 4 ** n // 2 ** _f2_rank(gens)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            pauli_commutant([pauli("XX")], 3)


def strings_on(n: int):
    """Pauli strings on n qubits, with any phase."""
    return st.builds(lambda ph, f: PauliString(ph, tuple(f)), phases,
                     st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n))


def tuples_on_one_size(count: int, most: int = 6):
    """`count` strings on the same number of qubits, 1 to `most`."""
    return st.integers(1, most).flatmap(lambda n: st.tuples(*[strings_on(n)] * count))


generator_sets = st.integers(1, 6).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(strings_on(n), max_size=4)))


def held(p: PauliString) -> tuple:
    """Everything a string holds, its masks included, so a wrongly built string shows."""
    return (p.phase, p.factors, p.x, p.z)


def group_labels(gens: list[PauliString]) -> tuple[str, ...]:
    """The labels of the group the strings generate, in the order the oracle finds them."""
    found = {}
    for p in (PauliString(1, ("I",) * gens[0].n_qubits), *gens):
        found.setdefault(str(p), p)
    size = 0
    while size < len(found):
        size = len(found)
        for a, b in product(list(found.values()), repeat=2):
            c = multiply_by_letters(a, b)
            found.setdefault(str(c), c)
    return tuple(found)


def counting_commutes(calls: list):
    """pauli.commutes, noting each call in `calls`."""
    def counted(a, b):
        calls.append((a, b))
        return commutes(a, b)
    return counted


class TestBitPathOracle:
    """The bit-mask algebra against the per-letter rules of reference_ops."""

    @given(tuples_on_one_size(2))
    def test_multiply(self, pair):
        a, b = pair
        assert held(multiply(a, b)) == held(multiply_by_letters(a, b))

    @given(tuples_on_one_size(2))
    def test_commutes(self, pair):
        assert commutes(*pair) == commutes_by_letters(*pair)

    @given(tuples_on_one_size(2, most=3))
    def test_commutes_matches_the_matrix_commutator(self, pair):
        ma, mb = (to_matrix(p) for p in pair)
        assert commutes(*pair) == (frob_dist(ma @ mb, mb @ ma) < 1e-12)

    @given(st.integers(1, 6).flatmap(lambda n: st.lists(strings_on(n), min_size=1, max_size=3)))
    def test_product_table(self, gens):
        labels = group_labels(gens)
        parsed = [pauli(g) for g in labels]
        want = [[labels.index(str(multiply_by_letters(a, b))) for b in parsed] for a in parsed]
        assert product_table(labels).tolist() == want

    @settings(max_examples=30)
    @given(generator_sets)
    def test_commutant(self, case):
        n, gens = case
        got = pauli_commutant(gens, n)
        assert [held(p) for p in got] == [held(p) for p in commutant_by_letters(gens, n)]

    @settings(max_examples=40)
    @given(st.data())
    def test_commutant_scans_an_independent_subset(self, data):
        # repeats and products span nothing new, so the scan may drop them; every string is
        # tested against at most 2n generators, however many are given
        n = data.draw(st.integers(1, 5))
        base = data.draw(st.lists(strings_on(n), min_size=1, max_size=2 * n + 2))
        pairs = data.draw(st.lists(st.tuples(st.sampled_from(base), st.sampled_from(base)),
                                   max_size=8))
        repeats = data.draw(st.lists(st.sampled_from(base), max_size=4))
        gens = data.draw(st.permutations(base + [multiply(a, b) for a, b in pairs] + repeats))
        want = [p for p in iter_strings(n) if all(commutes(p, g) for g in gens)]
        calls = []
        with mock.patch.object(pauli_mod, "commutes", counting_commutes(calls)):
            got = pauli_commutant(gens, n)
        assert [held(p) for p in got] == [held(p) for p in want]
        met_by_identity = [g for p, g in calls if p.x == p.z == 0]  # it commutes with all
        assert len(met_by_identity) == _f2_rank(gens)
        assert len(calls) <= 4 ** n * 2 * n

    def test_identity_generators_cost_no_test(self):
        calls = []
        with mock.patch.object(pauli_mod, "commutes", counting_commutes(calls)):
            got = pauli_commutant([pauli("-III")] * 200, 3)
        assert got == list(iter_strings(3)) and calls == []

    def test_masks_put_the_first_factor_highest(self):
        p = pauli("-iXYZI")
        assert (p.x, p.z) == (0b1100, 0b0110)


class TestStringHamiltonian:
    @given(st.integers(1, 3).flatmap(lambda n: st.lists(st.tuples(
        st.builds(lambda sign, f: sign + "".join(f), st.sampled_from(["", "-"]),
                  st.lists(st.sampled_from("IXYZ"), min_size=n, max_size=n)),
        st.sampled_from([0.0, -0.0, 1.0, -1.0]) | st.floats(-5, 5)), min_size=1, max_size=12)))
    def test_equals_the_list_sum_bit_for_bit(self, terms):
        # signed zeros included: the sum starts from 0 as sum() does
        want = sum([float(c) * to_matrix(pauli(label)) for label, c in terms])
        assert string_hamiltonian(terms).tobytes() == want.tobytes()

    def test_many_terms_stay_within_a_few_matrices(self):
        terms = [("ZXXXX", 1e-3)] * 2000
        string_hamiltonian(terms[:1])  # the matrix forms are built once, outside the trace
        tracemalloc.start()
        try:
            h = string_hamiltonian(terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * h.nbytes  # the 2000 term matrices would be 2000 h.nbytes


class TestMatrixForms:
    """The matrix forms, which pauli builds on first use, are one set of objects."""

    def test_forms_share_their_matrices(self):
        sigma = (pauli_mod.SX, pauli_mod.SY, pauli_mod.SZ)
        assert all(s is t for s, t in zip(pauli_mod.SIGMA, sigma, strict=True))
        assert pauli_mod.FACTOR_MATS == {"I": pauli_mod.ID2, "X": sigma[0], "Y": sigma[1],
                                         "Z": sigma[2]}
        assert np.array_equal(pauli_mod.PAULI_BASIS, np.array((pauli_mod.ID2, *pauli_mod.SIGMA)))

    def test_unknown_name(self):
        with pytest.raises(AttributeError, match="has no attribute 'SW'"):
            pauli_mod.SW
