import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given
from hypothesis import strategies as st

from pauli_dilate.channels import PauliChannel
from pauli_dilate.dilations import (
    Isometry, defining_pauli_rep, solve_env_rep, solve_su2_generators, depolarizing_isometry,
)
from pauli_dilate.dynamics import (
    TIME_GRID,
    ChannelGrid,
    PhysicalDilation,
    Schedule,
    build_depolarizing_dilation,
    build_generic_pauli_dilation,
    build_phase_damping_dilation,
    channels_on_grid,
    dilation_from_descriptor,
    isometry_at,
    krylov_subspace,
    replay_schedule,
    restricted_commutator_norm,
    schedule_for_target,
    symmetrize_full,
)
from pauli_dilate.linalg import basis_state, frob_dist, kron
from pauli_dilate.pauli import SX, SZ, pauli, pauli_basis_expand, pauli_commutant, to_matrix
from reference_ops import fit_at, fit_pauli_transfer, haar_unitary, pauli_fit, transfer_by_traces


def replay_by_products(sched, pd):
    """Oracle: U(t_k) as the running product of exp(-i f_j H dt_j), segment by segment."""
    boundaries = [t for t, _ in sched.knots[1:]] + [sched.t_final]
    u = np.eye(pd.dim_s * pd.dim_e, dtype=np.complex128)
    out = []
    for (t_start, f), t_end in zip(sched.knots, boundaries):
        u = scipy.linalg.expm(-1j * f * (t_end - t_start) * pd.h) @ u
        out.append((t_end, u @ pd.embed()))
    return out


def generic_probs(a, t):
    xi = sum(v * v for v in a)
    s = math.sin(math.sqrt(xi) * t) ** 2 / xi
    return np.array([1 - xi * s, a[0] ** 2 * s, a[1] ** 2 * s, a[2] ** 2 * s])


class TestPhysicalDilationType:
    def test_validates_hermiticity(self):
        with pytest.raises(ValueError):
            PhysicalDilation(np.array([[0, 1], [0, 0]]), np.array([1.0]))

    def test_validates_state_norm(self):
        with pytest.raises(ValueError):
            PhysicalDilation(np.zeros((4, 4)), np.array([1.0, 1.0]))

    def test_rejects_non_finite_state(self):
        with pytest.raises(ValueError):
            PhysicalDilation(np.zeros((4, 4)), np.array([math.nan, 0.0]))

    @given(st.integers(0, 12), st.integers(0, 12), st.integers(0, 6))
    def test_dims_come_from_the_arrays(self, rows, cols, dim_e):
        h, psi = np.zeros((rows, cols)), np.eye(max(dim_e, 1))[0, :dim_e]
        if rows == cols and 0 < dim_e <= rows and rows % dim_e == 0:
            pd = PhysicalDilation(h, psi)
            assert (pd.dim_s, pd.dim_e) == (rows // dim_e, dim_e)
            assert pd.embed().shape == (rows, pd.dim_s)
        else:
            with pytest.raises(ValueError, match="^Hamiltonian shape"):
                PhysicalDilation(h, psi)

    def test_holds_read_only_copies(self):
        # complex input of the final shapes, which a coercion alone would not copy
        h, psi = to_matrix(pauli("ZX")), basis_state("1")
        pd = PhysicalDilation(h, psi)
        for held, given_array in ((pd.h, h), (pd.psi_e, psi)):
            assert not np.shares_memory(held, given_array)
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 5.0
            given_array[0] = 5.0  # the caller's array stays writable


class TestPhaseDampingBuilder:
    def test_probability_law_on_grid(self):
        grid = channels_on_grid(build_phase_damping_dilation(), TIME_GRID)
        assert grid.leakage.max() < 1e-10
        expected = np.array([[math.cos(t) ** 2, 0, 0, math.sin(t) ** 2] for t in TIME_GRID])
        assert np.max(np.abs(grid.probs - expected)) < 1e-10

    def test_quarter_and_half_pi(self):
        grid = channels_on_grid(build_phase_damping_dilation(), [math.pi / 4, math.pi / 2])
        assert np.max(np.abs(grid.probs[:, 3] - [0.5, 1.0])) < 1e-12

    def test_isometry_is_rotated_closed_form(self):
        pd = build_phase_damping_dilation()
        for t in (0.3, 1.1):
            expected = np.array([
                [math.cos(t), 0],
                [-1j * math.sin(t), 0],
                [0, math.cos(t)],
                [0, 1j * math.sin(t)],
            ])
            assert frob_dist(isometry_at(pd, t).v, expected) < 1e-13

    def test_time_zero_identity(self):
        grid = channels_on_grid(build_phase_damping_dilation(), [0.0])
        assert np.allclose(grid.probs[0], (1, 0, 0, 0), atol=1e-14)


class TestDepolarizingBuilder:
    def test_probability_law_on_grid(self):
        grid = channels_on_grid(build_depolarizing_dilation(), TIME_GRID)
        assert grid.leakage.max() < 1e-10
        total = np.sin(math.sqrt(3) * TIME_GRID) ** 2
        expected = np.column_stack((1 - total, total / 3, total / 3, total / 3))
        assert np.max(np.abs(grid.probs - expected)) < 1e-10

    def test_full_depolarization_time(self):
        grid = channels_on_grid(build_depolarizing_dilation(), [math.pi / (2 * math.sqrt(3))])
        assert abs(grid.probs[0, 0]) < 1e-12  # p(t) = 1

    def test_isometry_matches_static_family_up_to_slot_phases(self):
        # the Hamiltonian generates the -i-phased variant of the static
        # family, exactly as it does for phase damping
        from pauli_dilate.dilations import dilation_from_kraus
        from pauli_dilate.channels import PauliChannel

        pd = build_depolarizing_dilation()
        t = 0.4
        p = math.sin(math.sqrt(3) * t) ** 2
        ch = PauliChannel.depolarizing(p)
        kraus = [ph * math.sqrt(v) * m for ph, v, m in
                 zip((1, -1j, -1j, -1j), ch.p, (np.eye(2), SX, to_matrix(pauli("Y")), SZ))]
        static = dilation_from_kraus(kraus)
        assert frob_dist(isometry_at(pd, t).v, static.v) < 1e-12

    def test_initial_state_fixed_by_representations(self):
        pd = build_depolarizing_dilation()
        sol = solve_env_rep(isometry_at(pd, 0.4), defining_pauli_rep())
        for g in sol.rep.labels:
            assert np.linalg.norm(sol.rep.mats[g] @ pd.psi_e - pd.psi_e) < 1e-10
        gens = solve_su2_generators(depolarizing_isometry(0.3))
        for j in (gens.jx, gens.jy, gens.jz):
            assert np.linalg.norm(j @ pd.psi_e) < 1e-12

    def test_hamiltonian_strings_lie_in_commutant(self):
        pd = build_depolarizing_dilation()
        allowed = set(pauli_commutant([pauli(s) for s in ("ZZZ", "XZI", "YIZ")], 3))
        terms = pauli_basis_expand(pd.h)
        assert set(terms) == {pauli("XIX"), pauli("YXI"), pauli("ZXX")}
        assert set(terms) <= allowed


class TestGenericBuilder:
    @pytest.mark.parametrize("a", [(0.6, 0.5, 0.3), (0.5, 0.5, 0.5), (0.9, 0.1, 0.2)])
    def test_probability_law(self, a):
        grid = channels_on_grid(build_generic_pauli_dilation(*a), TIME_GRID)
        assert grid.leakage.max() < 1e-10
        expected = np.array([generic_probs(a, t) for t in TIME_GRID])
        assert np.max(np.abs(grid.probs - expected)) < 1e-10

    def test_single_axis_reduces_to_dephasing_type(self):
        a3 = 0.7
        times = np.array([0.3, 0.9, 2.2])
        probs = channels_on_grid(build_generic_pauli_dilation(0.0, 0.0, a3), times).probs
        assert np.max(np.abs(probs[:, 3] - np.sin(a3 * times) ** 2)) < 1e-12
        assert np.max(np.abs(probs[:, 1:3])) < 1e-12

    def test_probabilities_sum_to_total_law(self):
        a = (0.6, 0.5, 0.3)
        xi = sum(v * v for v in a)
        times = np.array([0.5, 1.5])
        probs = channels_on_grid(build_generic_pauli_dilation(*a), times).probs
        total = np.sin(math.sqrt(xi) * times) ** 2
        assert np.max(np.abs(probs[:, 1:].sum(axis=1) - total)) < 1e-12

    def test_equal_weights_give_depolarizing_family(self):
        probs = channels_on_grid(build_generic_pauli_dilation(0.5, 0.5, 0.5), [0.4, 1.3]).probs
        assert np.max(np.abs(probs[:, 1] - probs[:, 2])) < 1e-13
        assert np.max(np.abs(probs[:, 2] - probs[:, 3])) < 1e-13

    def test_invariant_state_for_generic_builder(self):
        pd = build_generic_pauli_dilation(0.6, 0.5, 0.3)
        sol = solve_env_rep(isometry_at(pd, 0.7), defining_pauli_rep())
        for g in sol.rep.labels:
            assert np.linalg.norm(sol.rep.mats[g] @ pd.psi_e - pd.psi_e) < 1e-10


class TestFittedDistributions:
    def test_fitted_probabilities_are_distributions_on_grid(self):
        builders = [
            build_phase_damping_dilation(),
            build_depolarizing_dilation(),
            build_generic_pauli_dilation(0.6, 0.5, 0.3),
        ]
        for pd in builders:
            probs = channels_on_grid(pd, TIME_GRID).probs
            assert probs.min() > -1e-10
            assert np.max(np.abs(probs.sum(axis=1) - 1.0)) < 1e-10
            for row in probs:
                PauliChannel(tuple(row))  # constructible as a valid channel


class TestKrylov:
    def test_depolarizing_dimension_four(self):
        k = krylov_subspace(build_depolarizing_dilation())
        assert k.dim == 4

    def test_depolarizing_span_matches_direct_construction(self):
        pd = build_depolarizing_dilation()
        k = krylov_subspace(pd)
        seeds = [basis_state("011"), basis_state("111")]
        raw = seeds + [pd.h @ s for s in seeds]
        q, _ = np.linalg.qr(np.column_stack(raw))
        assert frob_dist(k.projector(), q @ q.conj().T) < 1e-12

    def test_phase_damping_fills_space(self):
        assert krylov_subspace(build_phase_damping_dilation()).dim == 4

    def test_zero_hamiltonian_keeps_initial_slice(self):
        pd = PhysicalDilation(np.zeros((8, 8)), basis_state("11"))
        assert krylov_subspace(pd).dim == 2

    def test_invariance_of_block_and_complement(self):
        pd = build_depolarizing_dilation()
        p = krylov_subspace(pd).projector()
        q = np.eye(8) - p
        assert np.linalg.norm(q @ pd.h @ p) < 1e-12
        assert np.linalg.norm(p @ pd.h @ q) < 1e-12


def su2_total_generators():
    gens = solve_su2_generators(depolarizing_isometry(0.3))
    return [kron(s, np.eye(4)) + kron(np.eye(2), j)
            for s, j in zip((SX, to_matrix(pauli("Y")), SZ), (gens.jx, gens.jy, gens.jz))]


class TestRestrictedCommutators:
    def test_su2_conserved_on_krylov_block(self):
        pd = build_depolarizing_dilation()
        k = krylov_subspace(pd)
        for sym in su2_total_generators():
            assert restricted_commutator_norm(pd, sym, k) < 1e-10

    def test_pauli_products_commute_on_full_space(self):
        pd = build_phase_damping_dilation()
        k = krylov_subspace(pd)  # full four-dimensional space
        assert k.dim == 4
        for label in ("II", "ZI", "XZ", "YZ"):
            sym = to_matrix(pauli(label))
            assert restricted_commutator_norm(pd, sym, k) < 1e-12

    def test_random_hermitian_not_conserved(self, rng):
        pd = build_depolarizing_dilation()
        k = krylov_subspace(pd)
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        sym = 0.5 * (z + z.conj().T)
        assert restricted_commutator_norm(pd, sym, k) > 1e-3


class TestSymmetrizeFull:
    def test_channel_unchanged(self):
        pd = build_depolarizing_dilation()
        sym = symmetrize_full(pd, krylov_subspace(pd))
        a, b = channels_on_grid(pd, TIME_GRID), channels_on_grid(sym, TIME_GRID)
        assert np.max(np.abs(a.probs - b.probs)) < 1e-9
        assert b.leakage.max() < 1e-9

    def test_full_space_commutators_vanish(self):
        pd = build_depolarizing_dilation()
        sym = symmetrize_full(pd, krylov_subspace(pd))
        for gen in su2_total_generators():
            assert np.linalg.norm(gen @ sym.h - sym.h @ gen) < 1e-9

    def test_identity_on_complement(self):
        pd = build_depolarizing_dilation()
        k = krylov_subspace(pd)
        sym = symmetrize_full(pd, k)
        q = np.eye(8) - k.projector()
        assert frob_dist(q @ sym.h @ q, q) < 1e-12

    def test_full_space_subspace_is_noop(self):
        pd = build_phase_damping_dilation()
        k = krylov_subspace(pd)
        assert k.dim == 4
        sym = symmetrize_full(pd, k)
        assert frob_dist(sym.h, pd.h) < 1e-12

    @pytest.mark.parametrize("pd", [build_phase_damping_dilation(), build_depolarizing_dilation(),
                                    PhysicalDilation(np.zeros((8, 8)), basis_state("11"))])
    def test_dim_is_the_column_count(self, pd):
        from pauli_dilate.dynamics import KrylovSubspace
        k = krylov_subspace(pd)
        assert k.dim == k.basis.shape[1]
        assert KrylovSubspace(k.basis[:, :1]).dim == 1

    def test_rejects_non_invariant_subspace(self):
        pd = build_depolarizing_dilation()
        from pauli_dilate.dynamics import KrylovSubspace
        bad = KrylovSubspace(np.column_stack([basis_state("111"), basis_state("110")]))
        with pytest.raises(ValueError):
            symmetrize_full(pd, bad)


def knots_by_candidate_list(p_target, t_final, steps):
    """Oracle: schedule_for_target's knots, each arccos branch the min of a candidate list."""
    times = np.linspace(0.0, t_final, steps + 1)
    values = np.array([float(p_target(t)) for t in times])
    phases = [0.0]
    for val in values[1:]:
        c = math.acos(min(1.0, max(-1.0, 1.0 - 2.0 * val)))
        prev = phases[-1]
        pred = 2 * phases[-1] - phases[-2] if len(phases) >= 2 else prev
        m0 = round(prev / (2 * math.pi))
        candidates = [2 * math.pi * m + sign * c
                      for m in (m0 - 1, m0, m0 + 1) for sign in (1, -1)]
        phases.append(min(candidates, key=lambda x: (abs(x - pred), -x)))
    thetas = [ph / 2.0 for ph in phases]
    dt = times[1] - times[0]
    return tuple((float(times[i]), float((thetas[i + 1] - thetas[i]) / dt))
                 for i in range(steps))


def sampled_target(values, t_final):
    """The target curve through values[k] at the k-th of len(values) evenly spaced times."""
    steps = len(values) - 1
    return lambda t: values[round(t / t_final * steps)]


# sample values that hit 0 and 1 exactly, and the rounding just outside [0, 1]
# that the schedule clamps
edge_values = st.sampled_from([0.0, 1.0, 0.5, 1e-10, -1e-10, 1.0 + 1e-10, 1.0 - 1e-10])
sampled_curves = st.tuples(
    st.sampled_from([0.0, 1e-10, -1e-10]),
    st.lists(st.one_of(edge_values, st.floats(0.0, 1.0)), min_size=1, max_size=40),
).map(lambda first_rest: [first_rest[0], *first_rest[1]])


class TestSchedule:
    @given(sampled_curves, st.sampled_from([0.5, 1.0, 2.0, 3.7]))
    def test_branches_match_candidate_list(self, values, t_final):
        target = sampled_target(values, t_final)
        sched = schedule_for_target(target, t_final, len(values) - 1)
        assert sched.knots == knots_by_candidate_list(target, t_final, len(values) - 1)

    @given(st.floats(0.5, 12.0), st.integers(1, 300), st.sampled_from([1.0, 2.0, math.pi]),
           st.sampled_from([1, 2]))
    @example(8.0, 20, math.pi, 2)
    def test_smooth_branches_match_candidate_list(self, rate, steps, t_final, power):
        # sin^2 passes through 0 and 1, and through 1 exactly where sin rounds to 1; the
        # chirp (power 2) speeds up until its predicted phase leaves the window of branches
        target = lambda t: math.sin(rate * t ** power) ** 2
        sched = schedule_for_target(target, t_final, steps)
        assert sched.knots == knots_by_candidate_list(target, t_final, steps)

    def test_equally_near_candidates_resolve_to_the_larger(self):
        # step 1 predicts 0 from c = pi/2: +-pi/2 are equally near; step 2 predicts pi
        # from c = 0: the phases 0 and 2 pi are equally near
        target = sampled_target([0.0, 0.5, 0.0], 2.0)
        sched = schedule_for_target(target, 2.0, 2)
        assert sched.knots == ((0.0, math.pi / 4), (1.0, math.pi - math.pi / 4))
        assert sched.knots == knots_by_candidate_list(target, 2.0, 2)

    def test_knots_must_start_at_zero(self):
        with pytest.raises(ValueError):
            Schedule(((0.1, 1.0),), 1.0)

    def test_constant_unit_coupling_recovered(self):
        sched = schedule_for_target(lambda t: 0.5 * (1 - math.cos(2 * t)), 2.0, 50)
        couplings = [f for _, f in sched.knots]
        assert np.max(np.abs(np.array(couplings) - 1.0)) < 1e-9

    def test_zero_target_gives_zero_coupling(self):
        sched = schedule_for_target(lambda t: 0.0, 1.0, 20)
        assert all(abs(f) < 1e-12 for _, f in sched.knots)

    def test_triple_rate_target(self):
        sched = schedule_for_target(lambda t: math.sin(3 * t) ** 2, 2.0, 200)
        couplings = [f for _, f in sched.knots]
        assert np.max(np.abs(np.array(couplings) - 3.0)) < 1e-9

    def test_round_trip_oscillatory(self):
        target = lambda t: math.sin(3 * t) ** 2
        sched = schedule_for_target(target, 2.0, 200)
        grid = replay_schedule(sched)
        assert np.max(np.abs(grid.probs[:, 3] - [target(t) for t in grid.t])) < 1e-6

    def test_round_trip_monotone(self):
        target = lambda t: 0.5 * (1 - math.cos(t))
        sched = schedule_for_target(target, 3.0, 120)
        grid = replay_schedule(sched)
        assert np.max(np.abs(grid.probs[:, 3] - [target(t) for t in grid.t])) < 1e-6

    def test_rejects_target_outside_unit_interval(self):
        with pytest.raises(ValueError):
            schedule_for_target(lambda t: 1.5 * t, 1.0, 10)

    def test_rejects_nonzero_start(self):
        with pytest.raises(ValueError):
            schedule_for_target(lambda t: 0.5, 1.0, 10)

    @pytest.mark.parametrize("target", [
        lambda t: math.nan,
        lambda t: 0.0 if t == 0 else math.nan,
        lambda t: 0.0 if t == 0 else math.inf,
        lambda t: -math.inf,
    ], ids=["all-nan", "nan-after-start", "inf", "minus-inf"])
    def test_rejects_non_finite_target(self, target):
        with pytest.raises(ValueError, match="^target probability must be finite$"):
            schedule_for_target(target, 1.0, 3)

    @pytest.mark.parametrize("sched", [
        schedule_for_target(lambda t: math.sin(3 * t) ** 2, 2.0, 200),
        Schedule(((0.0, 1.0), (0.3, -0.5), (0.7, 2.5), (1.2, 0.0), (1.5, -1.25)), 1.9),
    ], ids=["target", "signed"])
    @pytest.mark.parametrize("pd", [
        build_phase_damping_dilation(),
        build_depolarizing_dilation(),
        build_generic_pauli_dilation(0.6, -0.5, 0.3),
    ], ids=["phase_damping", "depolarizing", "generic"])
    def test_replay_matches_segment_products(self, sched, pd):
        grid = replay_schedule(sched, pd)
        oracle = replay_by_products(sched, pd)
        assert len(grid.t) == len(oracle)
        for k, (t_end, v) in enumerate(oracle):
            _, probs, leakage = fit_pauli_transfer(Isometry(v))
            assert grid.t[k] == t_end
            assert np.max(np.abs(grid.probs[k] - probs)) < 1e-12
            assert abs(grid.leakage[k] - leakage) < 1e-12


class TestDescriptors:
    def test_builder_names(self):
        assert dilation_from_descriptor({"builder": "phase_damping"}).dim_e == 2
        assert dilation_from_descriptor({"builder": "depolarizing"}).dim_e == 4
        pd = dilation_from_descriptor({"builder": "generic", "a": [0.5, 0.4, 0.3]})
        assert pd.dim_e == 4

    def test_custom_hamiltonian(self):
        pd = dilation_from_descriptor({"hamiltonian": [["ZX", 1.0]], "psiE": "1"})
        assert frob_dist(pd.h, to_matrix(pauli("ZX"))) == 0
        assert pd.dim_e == 2

    def test_custom_matches_builder(self):
        custom = dilation_from_descriptor({
            "hamiltonian": [["XIX", 1.0], ["YXI", 1.0], ["ZXX", 1.0]],
            "psiE": "11",
        })
        assert frob_dist(custom.h, build_depolarizing_dilation().h) == 0

    @pytest.mark.parametrize("bad", [
        {},
        {"builder": "nope"},
        {"builder": "generic"},
        {"hamiltonian": [["ZX", 1.0]], "psiE": "11"},
        {"hamiltonian": [["ZX", 1.0], ["ZXX", 1.0]], "psiE": "1"},
        {"hamiltonian": [["+iZX", 1.0]], "psiE": "1"},
        {"hamiltonian": [[1, 2]], "psiE": "1"},
        {"hamiltonian": "ZX", "psiE": "1"},
        {"hamiltonian": [["ZX", None]], "psiE": "1"},
        {"hamiltonian": [["ZX", 1.0, 2.0]], "psiE": "1"},
        {"builder": "generic", "a": [0.5, None, 0.3]},
        {"builder": "depolarizing", "a": [1, 2, 3]},
        {"builder": "generic", "a": [1, 2, 3], "psiE": "11"},
        {"hamiltonian": [["ZX", 1.0]], "psiE": "1", "builder2": "generic"},
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            dilation_from_descriptor(bad)


class TestPauliTransfer:
    @pytest.mark.parametrize("desc", [
        {"builder": "depolarizing"},
        {"builder": "generic", "a": [0.6, -0.5, 0.3]},
        {"hamiltonian": [["XI", 1.0], ["ZX", 0.4], ["YZ", 0.7]], "psiE": "1"},
        {"hamiltonian": [["XIX", 0.3], ["YZI", 0.8], ["ZXY", -0.6]], "psiE": "10"},
    ])
    def test_matches_trace_loop_on_dilations(self, desc):
        pd = dilation_from_descriptor(desc)
        times = (0.0, 0.37, 1.9, 4.4)
        grid = channels_on_grid(pd, times)
        for k, t in enumerate(times):
            v = isometry_at(pd, t)
            probs, leakage = pauli_fit(transfer_by_traces(v))
            assert np.max(np.abs(grid.probs[k] - probs)) < 1e-14
            assert abs(grid.leakage[k] - leakage) < 1e-14
            assert np.max(np.abs(fit_pauli_transfer(v)[0] - transfer_by_traces(v))) < 1e-14

    @pytest.mark.parametrize("dim_e", [1, 2, 4])
    def test_matches_trace_loop_on_random_isometries(self, rng, dim_e):
        for _ in range(10):
            u = haar_unitary(2 * dim_e, rng)
            v = Isometry(u[:, :2])
            assert np.max(np.abs(fit_pauli_transfer(v)[0] - transfer_by_traces(v))) < 1e-14


complex_entries = st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False)


@st.composite
def superposed_dilations(draw):
    """A random Hermitian H on 2 x dim_e with a normalized, generally non-basis psi_E."""
    dim_e = draw(st.sampled_from([1, 2, 4, 8, 16]))
    d = 2 * dim_e
    z = np.array(draw(st.lists(complex_entries, min_size=d * d, max_size=d * d))).reshape(d, d)
    psi = np.array(draw(st.lists(complex_entries, min_size=dim_e, max_size=dim_e).filter(
        lambda v: np.linalg.norm(v) > 0.1)))
    return PhysicalDilation(0.5 * (z + z.conj().T), psi / np.linalg.norm(psi))


@given(superposed_dilations(), st.floats(0.0, 4.0))
def test_isometry_at_matches_expm_times_embedding(pd, t):
    # oracle: the full propagator times the kron injection |phi> -> |phi> (x) |psi_E>
    v = isometry_at(pd, t)
    assert frob_dist(v.v, scipy.linalg.expm(-1j * t * pd.h) @ pd.embed()) < 1e-12


grid_times = st.one_of(
    st.just([]),
    # time 0 and a repeated time in every non-empty grid
    st.lists(st.floats(0.0, 4.0), min_size=1, max_size=6).map(lambda ts: [0.0, *ts, ts[0]]),
)


@given(superposed_dilations(), grid_times)
def test_grid_matches_per_time_loop(pd, times):
    # oracle: the full propagator of isometry_at and the einsum fit, one eigendecomposition
    # and one fit per time
    grid = channels_on_grid(pd, times)
    assert grid.t.shape == grid.leakage.shape == (len(times),)
    assert grid.probs.shape == (len(times), 4)
    for k, t in enumerate(times):
        probs, leakage = fit_at(pd, t)
        assert grid.t[k] == t
        assert np.max(np.abs(grid.probs[k] - probs)) < 1e-12
        assert abs(grid.leakage[k] - leakage) < 1e-12


def test_grid_is_read_only():
    g = channels_on_grid(build_phase_damping_dilation(), [0.3, 0.6])
    assert [f.name for f in dataclasses.fields(ChannelGrid)] == ["t", "probs", "leakage"]
    stacks = [g.t, g.probs, g.leakage]
    before = [a.copy() for a in stacks]
    for arr in stacks:
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = 5.0
    assert all(np.array_equal(a, b) for a, b in zip(stacks, before))
    with pytest.raises(dataclasses.FrozenInstanceError):
        g.t = np.zeros(2)


def test_grid_does_not_freeze_the_callers_times():
    times = np.array([0.3, 0.6])
    channels_on_grid(build_phase_damping_dilation(), times)
    times[0] = 0.1  # the grid holds a read-only view; the caller's array stays writable


def test_a_row_does_not_depend_on_its_grid():
    pd = build_depolarizing_dilation()
    grid = channels_on_grid(pd, TIME_GRID[:4])
    for k, t in enumerate(TIME_GRID[:4]):
        row = channels_on_grid(pd, [t])
        assert row.t[0] == grid.t[k] and row.leakage[0] == grid.leakage[k]
        assert np.array_equal(row.probs[0], grid.probs[k])


# A dilation's arrays are read-only and its constructor rejects both faults, so
# each helper swaps a faulty array into a built dilation: the grid's own checks run.

def _non_hermitian():
    pd = build_phase_damping_dilation()
    h = pd.h.copy()
    h[0, 1] += 1.0
    object.__setattr__(pd, "h", h)
    return pd


def _denormalized():
    pd = build_phase_damping_dilation()
    object.__setattr__(pd, "psi_e", 2.0 * pd.psi_e)
    return pd


@pytest.mark.parametrize("make_pd, times, message", [
    (build_phase_damping_dilation, [0.0, -0.1], "finite and nonnegative"),
    (build_phase_damping_dilation, [0.5, math.nan], "finite and nonnegative"),
    (build_phase_damping_dilation, [math.inf], "finite and nonnegative"),
    (build_phase_damping_dilation, [[0.0, 1.0]], "1-d grid"),
    (lambda: PhysicalDilation(1e300 * to_matrix(pauli("ZX")), basis_state("1")),
     [0.0, 1e10], "overflows"),
    (_non_hermitian, [0.0], "not Hermitian"),
    (_denormalized, [0.0, 1.0], "deviates from the identity"),
], ids=["negative", "nan", "inf", "2-d", "overflow", "non-hermitian", "not-isometric"])
def test_grid_rejects(make_pd, times, message):
    with pytest.raises(ValueError, match=message):
        channels_on_grid(make_pd(), times)
