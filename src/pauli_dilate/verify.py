"""Cross-module invariant suite behind the `verify` CLI command.

CHECKS is the suite: one row per check, its printed name and its function, in
the order `verify` prints them.  Every check is called as check(rng, fx), with
the run's random generator and its _Fixture, and returns an unnamed CheckResult
holding the worst observed residual and the tolerance it was held to; run_all
names it from its row.  A few checks also take a keyword (pd, generators,
h_env) so that negative tests can re-run them against perturbed inputs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from types import MappingProxyType

import numpy as np

from . import channels, collisions, dilations, dynamics, linalg
from . import pauli as pauli_mod
from .validation import ToleranceError


# Closed forms the checks compare against, written once.  Plain tuples, so
# importing this module does no numeric work.

# pi_E(g) of the minimal dilations, by factor letter of g; the phase of g drops
# out of V g = (g (x) pi_E(g)) V.  Every entry is diagonal, so the tables hold
# diagonals: phase damping (dim_e 2) and the depolarizing family (dim_e 4).
_ENV_REP_DIAG = {
    2: {"I": (1, 1), "X": (1, -1), "Y": (1, -1), "Z": (1, 1)},
    4: {"I": (1, 1, 1, 1), "X": (1, 1, -1, -1), "Y": (1, -1, 1, -1), "Z": (1, -1, -1, 1)},
}

# rotation generator J_z on the depolarizing environment
_JZ = ((0, 0, 0, 0), (0, 0, -2j, 0), (0, 2j, 0, 0), (0, 0, 0, 0))

# symmetry generators of the phase damping (two-qubit) and depolarizing
# (three-qubit) dilations, and what their Pauli commutants must hold
_DEPH_SYMMETRY = ("ZI", "XZ", "YZ")
_DEPH_COMMUTANT = ("II", "IZ", "ZX", "ZY")
_DEP_SYMMETRY = ("ZZZ", "XZI", "YIZ")
_DEP_COMMUTANT_SIZE = 16


def _phase_damping_v(p: float):
    """Isometry of the Kraus pair {sqrt(1-p) I, sqrt(p) Z}."""
    r, q = math.sqrt(1 - p), math.sqrt(p)
    return ((r, 0), (q, 0), (0, r), (0, -q))


def _depolarizing_v(p: float):
    """Isometry of the Kraus set sqrt(1-p) I, sqrt(p/3) (X, Y, Z)."""
    r, q = math.sqrt(1 - p), math.sqrt(p / 3)
    return ((r, 0), (0, q), (0, -1j * q), (q, 0),
            (0, r), (q, 0), (1j * q, 0), (0, -q))


def _law(a, t: float) -> np.ndarray:
    """(pI, px, py, pz) at time t of the generator a1 XIX + a2 YXI + a3 ZXX:
    p_i = a_i^2 sin^2(sqrt(xi) t) / xi with xi = sum a_i^2.  Phase damping,
    Z (x) X, is a = (0, 0, 1); depolarizing is a = (1, 1, 1)."""
    xi = sum(v * v for v in a)
    s = math.sin(math.sqrt(xi) * t) ** 2 / xi
    return np.array([1 - xi * s, a[0] ** 2 * s, a[1] ** 2 * s, a[2] ** 2 * s])


@functools.cache
def _builders():
    """Each dilation builder with the weights a of its time law: one read-only table
    of read-only dilations, built once per process and shared by every check."""
    return MappingProxyType({
        "phase_damping": (dynamics.build_phase_damping_dilation(), (0, 0, 1)),
        "depolarizing": (dynamics.build_depolarizing_dilation(), (1, 1, 1)),
        "generic": (dynamics.build_generic_pauli_dilation(0.6, 0.5, 0.3), (0.6, 0.5, 0.3)),
    })


def _canonical_env_rep(dim_e: int, xy_sign: int = 1) -> np.ndarray:
    """pi_E of the builder family with that environment, a (16, d, d) stack in
    pauli_group() order: by factor letter, each repeated for the four phases.

    xy_sign = -1 flips the x and y sectors: the phase damping dilation run
    from |psi_E> = |0> instead of |1>.
    """
    diags = np.array([_ENV_REP_DIAG[dim_e][f] for f in "IXYZ"], dtype=complex)
    by_factor = np.zeros((4, dim_e, dim_e), dtype=complex)
    by_factor[:, range(dim_e), range(dim_e)] = diags
    by_factor *= np.array([1, xy_sign, xy_sign, 1])[:, None, None]
    return np.repeat(by_factor, len(pauli_mod.PHASES), axis=0)


def _max_norm(diff: np.ndarray, axis=(-2, -1)) -> float:
    """Largest norm over a stack: Frobenius over the last two axes, or the
    2-norm of vectors with axis=-1.  The stacked form of a max over frob_dist."""
    return float(np.linalg.norm(diff, axis=axis).max(initial=0.0))


class _Fixture:
    """What several checks read, each derived on its first read and then shared.  run_all
    makes one per run and a caller that runs a check alone passes its own, so nothing
    outlives a run; arrays are read-only and lists are tuples, so no check changes what
    the next reads."""

    def __init__(self):
        self._made = {}

    def _once(self, key, make, owner=None):
        # the entry holds `owner`, so an id(owner) in the key names no other object meanwhile
        if key not in self._made:
            self._made[key] = owner, make()
        return self._made[key][1]

    def commutant(self, labels) -> tuple[pauli_mod.PauliString, ...]:
        gens = tuple(pauli_mod.pauli(s) for s in labels)
        return self._once(gens, lambda: tuple(pauli_mod.pauli_commutant(gens, gens[0].n_qubits)))

    def grid(self, pd: dynamics.PhysicalDilation) -> dynamics.ChannelGrid:
        """pd's channels on TIME_GRID."""
        return self._once(("grid", id(pd)),
                          lambda: dynamics.channels_on_grid(pd, dynamics.TIME_GRID), pd)

    def env_rep(self, pd: dynamics.PhysicalDilation, t: float) -> dilations.GroupRep:
        """pi_E solved from pd's isometry V(t)."""
        return self._once(("env_rep", id(pd), t), lambda: dilations.solve_env_rep(
            dynamics.isometry_at(pd, t), dilations.defining_pauli_rep()).rep, pd)

    @functools.cached_property
    def phase_damping_v(self) -> dilations.Isometry:
        return dilations.Isometry(channels.PauliChannel.phase_damping(0.3).minimal_dilation().rows)

    @functools.cached_property
    def depolarizing_v(self) -> dilations.Isometry:
        return dilations.Isometry(channels.PauliChannel.depolarizing(0.3).minimal_dilation().rows)

    @functools.cached_property
    def phase_damping_rep(self) -> dilations.GroupRep:
        return dilations.solve_env_rep(self.phase_damping_v, dilations.defining_pauli_rep()).rep

    @functools.cached_property
    def su2(self) -> dilations.SU2Generators:
        gens = dilations.solve_su2_generators(self.depolarizing_v)
        for j in (gens.jx, gens.jy, gens.jz):
            j.flags.writeable = False
        return gens

    @functools.cached_property
    def su2_totals(self) -> np.ndarray:
        """S_a (x) I + I (x) J_a on system (x) depolarizing environment, a = x, y, z."""
        gens = self.su2
        totals = np.array([linalg.kron(s, np.eye(4)) + linalg.kron(np.eye(2), j)
                           for s, j in zip(pauli_mod.SIGMA, (gens.jx, gens.jy, gens.jz))])
        totals.flags.writeable = False
        return totals

    @functools.cached_property
    def krylov(self) -> dynamics.KrylovSubspace:
        k = dynamics.krylov_subspace(_builders()["depolarizing"][0])
        k.basis.flags.writeable = False
        return k


@dataclass
class CheckResult:
    passed: bool
    residual: float
    tol: float
    detail: str = ""
    name: str = ""  # set by run_all from the check's row of CHECKS


def _result(residual: float, tol: float, detail: str = "") -> CheckResult:
    return CheckResult(residual <= tol, float(residual), tol, detail)


def check_pauli_group_closure(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    elements = pauli_mod.pauli_group()
    labels = tuple(str(p) for p in elements)
    try:
        table = pauli_mod.product_table(labels)
    except KeyError as exc:
        return CheckResult(False, math.inf, 0.0, f"product {exc} is outside the group")
    mats = np.array([pauli_mod.to_matrix(p) for p in elements])
    # every entry is 0, +-1 or +-i, so the products are exact: any nonzero defect is a wrong product
    products = mats[:, None] @ mats[None, :]
    worst = float(np.max(np.linalg.norm(products - mats[table], axis=(2, 3))))
    return CheckResult(len(set(labels)) == 16 and worst == 0.0, worst, 0.0)


def check_commutation_vs_matrices(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    strings = list(pauli_mod.iter_strings(2))
    mats = np.array([pauli_mod.to_matrix(p) for p in strings])
    products = mats[:, None] @ mats[None, :]  # [i, j] holds M_i M_j
    numeric = np.linalg.norm(products - products.swapaxes(0, 1), axis=(2, 3)) < 1e-12
    algebraic = np.array([[pauli_mod.commutes(a, b) for b in strings] for a in strings])
    worst = 0.0 if np.array_equal(algebraic, numeric) else 1.0
    return _result(worst, 0.0)


def check_kron_and_trace_laws(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    worst = 0.0
    for _ in range(5):
        a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        b = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        worst = max(worst, linalg.frob_dist(
            linalg.kron(linalg.kron(a, b), c), linalg.kron(a, linalg.kron(b, c))))
        worst = max(worst, linalg.frob_dist(
            linalg.partial_trace_env(linalg.kron(a, b), 2, 2), a * np.trace(b)))
    return _result(worst, 1e-12)


def check_expm_group_law(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    worst = 0.0
    for _ in range(3):
        z = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
        h = 0.5 * (z + z.conj().T)
        t1, t2 = rng.uniform(0.1, 1.5, size=2)
        u = linalg.mat_exp_hermitian(h, t1) @ linalg.mat_exp_hermitian(h, t2)
        worst = max(worst, linalg.frob_dist(u, linalg.mat_exp_hermitian(h, t1 + t2)))
    return _result(worst, 1e-9)


def _random_channels(rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
    """Weights of `count` Pauli channels, each validated by PauliChannel, and as many
    Bloch vectors in the unit ball: arrays (count, 4) and (count, 3).

    Per channel the draws are, in this order: Dirichlet weights, a direction,
    a radius; so a seed always tests the same inputs.
    """
    p, vecs, alpha = np.empty((count, 4)), np.empty((count, 3)), np.ones(4)
    for w, r in zip(p, vecs):
        w[:] = channels.PauliChannel(rng.dirichlet(alpha).tolist()).p
        r[:] = rng.uniform(-1, 1, size=3)
        r *= rng.uniform(0, 1) / max(math.sqrt(r.dot(r)), 1e-12)  # np.linalg.norm's own sum
    return p, vecs


def check_channel_cptp(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    p, r = _random_channels(rng, 100)
    kraus = channels.pauli_kraus(p)
    completeness = np.einsum("nkba,nkbc->nac", kraus.conj(), kraus) - np.eye(2)
    worst = float(np.linalg.norm(completeness, axis=(1, 2)).max(initial=0.0))
    choi_min = np.linalg.eigvalsh(channels.kraus_choi(kraus)).min(initial=0.0)
    worst = max(worst, -float(choi_min))
    out = channels.kraus_action(kraus, channels.validate_density_matrices(channels.bloch_states(r)))
    traces = np.einsum("nii->n", out).real
    worst = max(worst, float(np.abs(traces - 1.0).max(initial=0.0)))
    return _result(worst, 1e-12)


def check_bloch_scaling(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    p, r = _random_channels(rng, 20)
    states = channels.validate_density_matrices(channels.bloch_states(r))
    out = channels.bloch_vectors(channels.kraus_action(channels.pauli_kraus(p), states))
    worst = float(np.max(np.abs(out - channels.scalings_from_probs(p) * r)))
    return _result(worst, 1e-12)


def check_semigroup_composition(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    worst = 0.0
    for _ in range(10):
        lv = channels.PauliLiouvillian(tuple(rng.uniform(0, 1.5, size=3)))
        s, t = rng.uniform(0, 2, size=2)
        combined = channels.semigroup_channel(lv, s).compose(channels.semigroup_channel(lv, t))
        direct = channels.semigroup_channel(lv, s + t)
        worst = max(worst, float(np.max(np.abs(np.array(combined.p) - np.array(direct.p)))))
    return _result(worst, 1e-10)


def check_semigroup_derivative(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    lv = channels.PauliLiouvillian((0.3, 0.7, 0.2))
    rho = channels.bloch_state(np.array([0.3, -0.4, 0.5]))
    target = lv.apply(rho)

    def err(h):
        return linalg.frob_dist((channels.semigroup_channel(lv, h).apply(rho) - rho) / h, target)

    e1, e2 = err(1e-4), err(5e-5)
    ratio_ok = 0.4 <= e2 / e1 <= 0.6
    return CheckResult(e1 < 1e-3 and ratio_ok, e1, 1e-3, f"ratio={e2 / e1:.3f}")


def check_isometry_closed_forms(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    """The isometries that `dilate` prints, from PauliChannel.minimal_dilation(), against
    the hand-written matrices of their Kraus sets."""
    worst = max(linalg.frob_dist(fx.phase_damping_v.v, _phase_damping_v(0.3)),
                linalg.frob_dist(fx.depolarizing_v.v, _depolarizing_v(0.3)))
    return _result(worst, 1e-12)


def check_environment_representations(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    worst = 0.0
    rep = fx.phase_damping_rep
    rep_dep = dilations.solve_env_rep(fx.depolarizing_v, dilations.defining_pauli_rep()).rep
    for solved, want in ((rep, _canonical_env_rep(2)), (rep_dep, _canonical_env_rep(4))):
        worst = max(worst, _max_norm(solved.stack - want))
    worst = max(worst, dilations.pauli_rep_law_defect(rep))
    worst = max(worst, dilations.pauli_rep_law_defect(rep_dep))
    return _result(worst, 1e-10)


def check_generic_rep_independence(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    sys_rep = dilations.defining_pauli_rep()
    stacks = []
    for _ in range(3):
        p = rng.dirichlet(np.ones(4)) * 0.8 + 0.05
        p = p / p.sum()
        v = dilations.Isometry(channels.PauliChannel(p).minimal_dilation().rows)
        sol = dilations.solve_env_rep(v, sys_rep)
        stacks.append(sol.rep.stack)
    worst = _max_norm(np.diff(stacks, axis=0))
    return _result(worst, 1e-10)


def check_su2_generators(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    gens = fx.su2
    worst = linalg.frob_dist(gens.jz, _JZ)
    worst = max(worst, linalg.frob_dist(
        gens.jx @ gens.jy - gens.jy @ gens.jx, 2j * gens.jz))
    spectrum = np.sort(np.linalg.eigvalsh(gens.along((0.0, 0.0, 1.0))))
    worst = max(worst, float(np.max(np.abs(spectrum - np.array([-2.0, 0.0, 0.0, 2.0])))))
    return _result(worst, 1e-10)


def check_pauli_commutants(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    ok = fx.commutant(_DEPH_SYMMETRY) == tuple(pauli_mod.pauli(s) for s in _DEPH_COMMUTANT)
    dep = fx.commutant(_DEP_SYMMETRY)
    ok = ok and len(dep) == _DEP_COMMUTANT_SIZE
    ok = ok and all(pauli_mod.pauli(s) in dep for s in pauli_mod.GENERIC_TERMS)
    return CheckResult(ok, 0.0 if ok else 1.0, 0.0)


def check_builder_time_laws(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    worst = 0.0
    for pd, a in _builders().values():
        grid = fx.grid(pd)
        laws = np.array([_law(a, t) for t in dynamics.TIME_GRID])
        worst = max(worst, float(grid.leakage.max()), float(np.max(np.abs(grid.probs - laws))))
    return _result(worst, 1e-10)


def check_invariant_environment_state(rng: np.random.Generator, fx: _Fixture,
                                      pd: dynamics.PhysicalDilation | None = None) -> CheckResult:
    """The initial environment state must be fixed by the symmetry.

    Checks pi_E(g) |psi_E> = |psi_E> against the canonical representation of
    the builder family, and that the representation solved from the
    dilation's own isometry agrees with it.  A perturbed initial state still
    dilates *some* channel, but breaks both conditions.
    """
    targets = [pd] if pd is not None else [b for b, _ in _builders().values()]
    worst = 0.0
    for target in targets:
        if target.dim_e not in _ENV_REP_DIAG:
            return CheckResult(False, math.inf, 1e-10,
                               f"no reference representation for dim_e={target.dim_e}")
        canonical = _canonical_env_rep(target.dim_e)
        worst = max(worst, _max_norm(canonical @ target.psi_e - target.psi_e, axis=-1))
        try:
            stack = fx.env_rep(target, 0.4).stack
        except (ToleranceError, ValueError) as exc:
            return CheckResult(False, math.inf, 1e-10, str(exc))
        worst = max(worst, _max_norm(stack - canonical),
                    _max_norm(stack @ target.psi_e - target.psi_e, axis=-1))
    return _result(worst, 1e-10)


def check_hamiltonian_commutant_membership(rng: np.random.Generator, fx: _Fixture,
                                           pd: dynamics.PhysicalDilation | None = None,
                                           generators=None) -> CheckResult:
    """Every Pauli term of the generator must lie in the symmetry commutant."""
    if pd is not None:
        cases = [(pd, generators)]
    else:
        table = _builders()
        cases = [(table["phase_damping"][0], _DEPH_SYMMETRY),
                 (table["depolarizing"][0], _DEP_SYMMETRY), (table["generic"][0], _DEP_SYMMETRY)]
    ok = True
    for target, labels in cases:
        allowed = set(fx.commutant(labels))
        terms = pauli_mod.pauli_basis_expand(target.h, tol=1e-12)
        ok = ok and all(term in allowed for term in terms)
    return CheckResult(ok, 0.0 if ok else 1.0, 0.0)


def check_krylov_structure(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    worst = 0.0
    dep, _ = _builders()["depolarizing"]
    k = fx.krylov
    ok = k.dim == 4
    p = k.projector()
    worst = max(worst, float(np.linalg.norm(dep.h @ p - p @ dep.h @ p)))
    worst = max(worst, float(np.linalg.norm(p @ dep.h - p @ dep.h @ p)))
    pd_deph, _ = _builders()["phase_damping"]
    ok = ok and dynamics.krylov_subspace(pd_deph).dim == 4
    zero = dynamics.PhysicalDilation(np.zeros((8, 8)), linalg.basis_state("11"))
    ok = ok and dynamics.krylov_subspace(zero).dim == 2
    return CheckResult(ok and worst <= 1e-10, worst, 1e-10)


def check_restricted_su2_conservation(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    dep, _ = _builders()["depolarizing"]
    worst = max(dynamics.restricted_commutator_norm(dep, s, fx.krylov) for s in fx.su2_totals)
    return _result(worst, 1e-10)


def check_full_symmetrization(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    dep, a = _builders()["depolarizing"]
    sym = dynamics.symmetrize_full(dep, fx.krylov)
    laws = np.array([_law(a, t) for t in dynamics.TIME_GRID])
    worst = float(np.max(np.abs(dynamics.channels_on_grid(sym, dynamics.TIME_GRID).probs - laws)))
    for s in fx.su2_totals:
        worst = max(worst, float(np.linalg.norm(s @ sym.h - sym.h @ s)))
    return _result(worst, 1e-9)


def check_rotating_phase_freedom(rng: np.random.Generator, fx: _Fixture,
                                 pd: dynamics.PhysicalDilation | None = None,
                                 h_env=pauli_mod.SX) -> CheckResult:
    """A free environment term I (x) h_env that commutes with H is redundant.

    The channel must be untouched, and the environment representation solved
    from the rotated dilation must be the static one conjugated by
    W(t) = exp(-i h_env t).  A term that fails to commute with H fails the
    check, with the commutator norm as its residual.
    """
    if pd is None:
        pd, _ = _builders()["phase_damping"]
    lifted = linalg.kron(np.eye(pd.dim_s), h_env)
    commutator = float(np.linalg.norm(pd.h @ lifted - lifted @ pd.h))
    if commutator > 1e-12:
        return CheckResult(False, commutator, 1e-9, "free environment term does not commute with H")
    rotated = dynamics.PhysicalDilation(pd.h + lifted, pd.psi_e)
    rot = dynamics.channels_on_grid(rotated, dynamics.TIME_GRID)
    worst = float(np.max(np.abs(fx.grid(pd).probs - rot.probs)))
    sys_rep = dilations.defining_pauli_rep()
    rep_times = (0.4, 0.7, 1.3)
    base = fx.env_rep(pd, rep_times[0]).stack
    for t in rep_times:
        rot = dilations.solve_env_rep(dynamics.isometry_at(rotated, t), sys_rep).rep.stack
        w = linalg.mat_exp_hermitian(h_env, t)
        worst = max(worst, _max_norm(rot - w @ base @ w.conj().T))
    w0 = linalg.mat_exp_hermitian(h_env, 0.0)
    worst = max(worst, _max_norm(w0 @ base @ w0.conj().T - base))
    return _result(worst, 1e-9)


def check_alternate_initial_state(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    """H = Z (x) X run from |psi_E> = |0> instead of |1>.

    The channel stays phase damping with p = sin^2(t); the environment
    representation is the two-dimensional one with the x and y sectors
    flipped, and it leaves |0> fixed.
    """
    deph, _ = _builders()["phase_damping"]
    pd = dynamics.PhysicalDilation(deph.h, linalg.basis_state("0"))
    times = (0.4, 0.7, 1.3)
    grid = dynamics.channels_on_grid(pd, times)
    laws = np.array([_law((0, 0, 1), t) for t in times])
    worst = max(float(grid.leakage.max()), float(np.max(np.abs(grid.probs - laws))))
    vs = [dynamics.isometry_at(pd, t) for t in times]
    for t, v in zip(times, vs):
        s, c = math.sin(t), math.cos(t)
        isometry = ((-1j * s, 0), (c, 0), (0, 1j * s), (0, c))
        worst = max(worst, linalg.frob_dist(v.v, isometry))
    stack = dilations.solve_env_rep(vs[0], dilations.defining_pauli_rep()).rep.stack
    worst = max(worst, _max_norm(stack - _canonical_env_rep(2, xy_sign=-1)),
                _max_norm(stack @ pd.psi_e - pd.psi_e, axis=-1))
    return _result(worst, 1e-9)


def check_strong_conservation_triviality(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    # Z is strongly conserved when it lifts, V Z = (Z (x) I) V; block j of the two sides is
    # K_j Z and Z K_j, so this is Z commuting with every Kraus operator
    v = fx.phase_damping_v
    lift = linalg.frob_dist(v.v @ pauli_mod.SZ, linalg.kron(pauli_mod.SZ, np.eye(v.dim_e)) @ v.v)
    rep = fx.phase_damping_rep
    worst = linalg.frob_dist(rep.mats["Z"], _canonical_env_rep(2)[rep.labels.index("Z")])
    return _result(max(worst, lift), 1e-10)


def check_schedule_round_trip(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    sched = dynamics.schedule_for_target(lambda t: math.sin(3 * t) ** 2, 2.0, 200)
    grid = dynamics.replay_schedule(sched, _builders()["phase_damping"][0])
    worst = float(np.max(np.abs(grid.probs[:, 3] - np.sin(3 * grid.t) ** 2)))
    return _result(worst, 1e-6)


def check_collision_bath_conditions(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    psi = linalg.basis_state("11")
    worst = 0.0
    ops = [pauli_mod.to_matrix(pauli_mod.pauli(s)) for s in ("IX", "XI", "XX")]
    for b in ops:
        worst = max(worst, abs(complex(psi.conj() @ b @ psi)))
    for i, bi in enumerate(ops):
        for j, bj in enumerate(ops):
            c = complex(psi.conj() @ bi.conj().T @ bj @ psi)
            worst = max(worst, abs(c - (1.0 if i == j else 0.0)))
    # the closed-form collision channel against the dilation it stands for
    cfg = collisions.CollisionConfig((0.7, 0.5, 0.3), 1.0, 0.05)
    pd = dynamics.PhysicalDilation(collisions.collision_hamiltonian(cfg.a, cfg.nu), psi)
    v = dynamics.isometry_at(pd, cfg.dt)
    channel = collisions.collision_channel(cfg)
    fast = exact = channels.bloch_state(np.array([0.2, -0.3, 0.4]))
    for _ in range(4):
        fast = channel.apply(fast)
        exact = dilations.channel_of_isometry(v, exact)
        worst = max(worst, linalg.frob_dist(fast, exact))
    return _result(worst, 1e-12)


def check_collision_convergence_trend(rng: np.random.Generator, fx: _Fixture) -> CheckResult:
    entries = collisions.convergence_report((0, 0, 1), 1.0, [0.1, 0.05], 1.0)
    ok = entries[1].max_error < entries[0].max_error
    return CheckResult(ok, entries[1].max_error, entries[0].max_error,
                       f"errors={[e.max_error for e in entries]}")


# The suite in printed order: each check's name, written only here, and its function.
CHECKS = (
    ("pauli-group-closure", check_pauli_group_closure),
    ("pauli-commutation-vs-matrices", check_commutation_vs_matrices),
    ("kron-and-partial-trace-laws", check_kron_and_trace_laws),
    ("matrix-exponential-group-law", check_expm_group_law),
    ("channel-cptp", check_channel_cptp),
    ("bloch-scaling-consistency", check_bloch_scaling),
    ("semigroup-composition", check_semigroup_composition),
    ("semigroup-generator-derivative", check_semigroup_derivative),
    ("isometry-closed-forms", check_isometry_closed_forms),
    ("environment-representations", check_environment_representations),
    ("generic-representation-p-independence", check_generic_rep_independence),
    ("su2-generators", check_su2_generators),
    ("pauli-commutants", check_pauli_commutants),
    ("builder-time-laws", check_builder_time_laws),
    ("invariant-environment-state", check_invariant_environment_state),
    ("hamiltonian-commutant-membership", check_hamiltonian_commutant_membership),
    ("krylov-structure", check_krylov_structure),
    ("restricted-su2-conservation", check_restricted_su2_conservation),
    ("full-symmetrization", check_full_symmetrization),
    ("rotating-phase-freedom", check_rotating_phase_freedom),
    ("alternate-initial-state", check_alternate_initial_state),
    ("strong-conservation-triviality", check_strong_conservation_triviality),
    ("schedule-round-trip", check_schedule_round_trip),
    ("collision-bath-conditions", check_collision_bath_conditions),
    ("collision-convergence-trend", check_collision_convergence_trend),
)


def run_all(seed: int = 1234) -> list[CheckResult]:
    """Every check of CHECKS in order, on one generator and one fixture, each result named.

    A check is called through the module attribute of its function's name, so a wrapper
    rebound there (a tracer, a test's monkeypatch) is the one that runs."""
    rng, fx = np.random.default_rng(seed), _Fixture()
    return [replace(globals()[check.__name__](rng, fx), name=name) for name, check in CHECKS]
