"""Stinespring dilations and group representations on the environment.

The central construction: given an isometry V from the system into
system (x) environment and a unitary representation pi_S(g) under which the
induced channel is covariant, there is a unique environment representation
pi_E(g) with

    V pi_S(g) = (pi_S(g) (x) pi_E(g)) V

whenever V is minimal (environment dimension equals the Kraus rank).  The
solver below recovers pi_E(g) for all elements at once, from one linear
least-squares solve against the environment slices of V.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    ToleranceError,
    as_complex_matrix,
    frob_dist,
    kron,
    partial_trace_env,
)
from .pauli import ID2, PAULI_BASIS, SX, SY, SZ, multiply, pauli, pauli_group, to_matrix

_AXES = {"x": np.array([1.0, 0, 0]), "y": np.array([0, 1.0, 0]), "z": np.array([0, 0, 1.0])}


@dataclass(frozen=True)
class Isometry:
    """A (dim_s * dim_e) x dim_s matrix V with V+ V = I."""

    v: np.ndarray
    dim_s: int
    dim_e: int

    def __post_init__(self):
        a = as_complex_matrix(self.v)
        if a.shape != (self.dim_s * self.dim_e, self.dim_s):
            raise ValueError(f"isometry shape {a.shape} does not match dims "
                             f"({self.dim_s}, {self.dim_e})")
        object.__setattr__(self, "v", a)
        if self.defect() > DEFAULT_TOL:
            raise ValueError("V+ V deviates from the identity beyond 1e-10")

    def defect(self) -> float:
        return float(np.linalg.norm(self.v.conj().T @ self.v - np.eye(self.dim_s)))


@dataclass(frozen=True)
class GroupRep:
    """A finite family of unitaries on one space, keyed by element label."""

    labels: tuple[str, ...]
    mats: Mapping[str, np.ndarray]
    space_dim: int

    def __post_init__(self):
        mats = {g: as_complex_matrix(self.mats[g]) for g in self.labels}
        for g, m in mats.items():
            if m.shape != (self.space_dim, self.space_dim):
                raise ValueError(f"representation matrix for {g} has shape {m.shape}")
            if frob_dist(m.conj().T @ m, np.eye(self.space_dim)) > DEFAULT_TOL:
                raise ValueError(f"representation matrix for {g} is not unitary")
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "mats", mats)


@dataclass(frozen=True)
class SU2Generators:
    """Hermitian generators on the environment with [Ja, Jb] = 2i eps_abc Jc."""

    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    residuals: tuple[float, float, float]

    def along(self, r) -> np.ndarray:
        v = np.asarray(r, dtype=float)
        return v[0] * self.jx + v[1] * self.jy + v[2] * self.jz


@dataclass
class EnvRepSolution:
    rep: GroupRep
    residuals: dict[str, float]
    unitarity_defects: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def defining_pauli_rep() -> GroupRep:
    """pi_S(g) = g over the 16 single-qubit Pauli group elements."""
    elements = pauli_group()
    labels = tuple(str(p) for p in elements)
    mats = {str(p): to_matrix(p) for p in elements}
    return GroupRep(labels, mats, 2)


def pauli_rep_law_defect(rep: GroupRep) -> float:
    """Max deviation from rep(g) rep(h) == rep(gh) over Pauli-group labels."""
    worst = 0.0
    parsed = {g: pauli(g) for g in rep.labels}
    for g in rep.labels:
        for h in rep.labels:
            gh = str(multiply(parsed[g], parsed[h]))
            worst = max(worst, frob_dist(rep.mats[g] @ rep.mats[h], rep.mats[gh]))
    return worst


def rotation_unitary(theta: float, axis) -> np.ndarray:
    """exp(i theta r . sigma) on the system qubit."""
    r = np.asarray(axis, dtype=float)
    r = r / np.linalg.norm(r)
    n_dot_sigma = r[0] * SX + r[1] * SY + r[2] * SZ
    return math.cos(theta) * ID2 + 1j * math.sin(theta) * n_dot_sigma


def su2_sample_rep(thetas: Sequence[float] = (0.3, 1.1, 2.7)) -> GroupRep:
    """Deterministic sample of rotations: three angles about x, y, z and two
    oblique unit vectors."""
    axes = dict(_AXES)
    axes["u"] = np.array([1.0, 1.0, 1.0]) / math.sqrt(3)
    axes["v"] = np.array([1.0, 2.0, 3.0]) / math.sqrt(14)
    labels = []
    mats = {}
    for name, axis in axes.items():
        for theta in thetas:
            label = f"theta{theta:g}_{name}"
            labels.append(label)
            mats[label] = rotation_unitary(theta, axis)
    return GroupRep(tuple(labels), mats, 2)


def dilation_from_kraus(kraus: Sequence[np.ndarray],
                        phases: Sequence[complex] | None = None) -> Isometry:
    """Stack Kraus operators into the isometry V |phi> = sum_j K_j |phi> (x) |e_j>.

    The environment basis is descending, so |e_0> = |1...1>.  Optional unit
    phases multiply the individual Kraus blocks.
    """
    ops = [as_complex_matrix(k) for k in kraus]
    if not ops:
        raise ValueError("need at least one Kraus operator")
    dim_s = ops[0].shape[0]
    if any(k.shape != (dim_s, dim_s) for k in ops):
        raise ValueError("Kraus operators must be square and equally sized")
    total = sum(k.conj().T @ k for k in ops)
    if frob_dist(total, np.eye(dim_s)) > DEFAULT_TOL:
        raise ValueError("Kraus set is not trace preserving")
    if phases is None:
        phases = [1.0] * len(ops)
    if len(phases) != len(ops) or any(abs(abs(complex(p)) - 1) > 1e-12 for p in phases):
        raise ValueError("phases must be unit complex numbers, one per Kraus operator")
    # row (i, j) of V is row i of the j-th phased Kraus operator
    v = np.stack([complex(ph) * k for k, ph in zip(ops, phases)], axis=1)
    return Isometry(v.reshape(dim_s * len(ops), dim_s), dim_s, len(ops))


def phase_damping_isometry(p: float, alt_phases: bool = False) -> Isometry:
    """4x2 isometry of the phase damping channel from {sqrt(1-p) I, sqrt(p) Z}.

    With alt_phases=True the second environment basis vector is rotated by
    -i, the variant produced by Hamiltonian evolution.
    """
    kraus = [math.sqrt(1 - p) * ID2, math.sqrt(p) * SZ]
    return dilation_from_kraus(kraus, phases=(1, -1j) if alt_phases else None)


def pauli_channel_isometry(p: Sequence[float]) -> Isometry:
    """8x2 isometry of a generic Pauli channel, keeping all four Kraus slots."""
    kraus = [math.sqrt(float(q)) * s for q, s in zip(p, PAULI_BASIS, strict=True)]
    return dilation_from_kraus(kraus)


def depolarizing_isometry(p: float) -> Isometry:
    return pauli_channel_isometry((1 - p, p / 3, p / 3, p / 3))


def channel_of_isometry(v: Isometry, rho) -> np.ndarray:
    """phi[rho] = Tr_E[V rho V+]."""
    a = as_complex_matrix(rho)
    if a.shape != (v.dim_s, v.dim_s):
        raise ValueError(f"expected a {v.dim_s}x{v.dim_s} input")
    return partial_trace_env(v.v @ a @ v.v.conj().T, v.dim_s, v.dim_e)


def kraus_of_isometry(v: Isometry) -> list[np.ndarray]:
    """Environment slices of V; Kraus operators of the induced channel."""
    t3 = v.v.reshape(v.dim_s, v.dim_e, v.dim_s)
    return [np.ascontiguousarray(t3[:, e, :]) for e in range(v.dim_e)]


def _solve_env_operators(v: Isometry, rhs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least-squares X_k with (I (x) X_k) V = rhs_k, rhs of shape (k, dim_s, dim_e, dim_s).

    One lstsq against the environment slices of V solves the whole stack.  Its
    squared singular values are the Choi spectrum, so minimality is decided here.
    Returns the operators (k, dim_e, dim_e) and their residuals (k,).
    """
    ds, de, n = v.dim_s, v.dim_e, len(rhs)
    # a row per system index pair (i, j); a column per slot e of V, per (k, e) of rhs
    a = v.v.reshape(ds, de, ds).transpose(0, 2, 1).reshape(ds * ds, de)
    b = rhs.transpose(1, 3, 0, 2).reshape(ds * ds, n * de)
    x, _, _, s = np.linalg.lstsq(a, b, rcond=None)
    rank = int(np.sum(s ** 2 > DEFAULT_TOL))
    if rank < de:
        raise ValueError(f"dilation is not minimal (Kraus rank {rank}, environment dim {de}); "
                         "remove vanishing probabilities first")
    residuals = np.linalg.norm((a @ x - b).reshape(ds * ds, n, de), axis=(0, 2))
    return x.reshape(de, n, de).transpose(1, 2, 0), residuals


def solve_env_rep(v: Isometry, sys_rep: GroupRep, tol: float = DEFAULT_TOL) -> EnvRepSolution:
    """Solve V pi_S(g) = (pi_S(g) (x) pi_E(g)) V for every group element.

    Raises ToleranceError when any residual exceeds tol, which signals a
    non-covariant channel or a non-minimal dilation.
    """
    pi_s = np.array([sys_rep.mats[g] for g in sys_rep.labels])
    v3 = v.v.reshape(v.dim_s, v.dim_e, v.dim_s)
    # (pi_g+ (x) I) V pi_g for every g at once
    rhs = np.einsum("gai,aeb,gbj->giej", pi_s.conj(), v3, pi_s)
    xs, res = _solve_env_operators(v, rhs)
    mats = dict(zip(sys_rep.labels, xs))
    residuals = dict(zip(sys_rep.labels, res.tolist()))
    defects = {g: frob_dist(x.conj().T @ x, np.eye(v.dim_e)) for g, x in mats.items()}
    worst = max(residuals.values())
    if worst > tol:
        raise ToleranceError(
            f"environment representation residual {worst:.3e} exceeds {tol:.1e}; "
            "channel is not covariant under the given representation or the "
            "dilation is not minimal")
    rep = GroupRep(sys_rep.labels, mats, v.dim_e)
    return EnvRepSolution(rep, residuals, defects)


def solve_su2_generators(v: Isometry, tol: float = DEFAULT_TOL) -> SU2Generators:
    """Solve (I (x) J_a) V = V sigma_a - (sigma_a (x) I) V for a = x, y, z.

    A solution only certifies rotation covariance when the generators come
    out Hermitian and close the su(2) algebra, so both are enforced here;
    for a four-dimensional environment the linear system alone is square
    and always solvable.
    """
    v3 = v.v.reshape(v.dim_s, v.dim_e, v.dim_s)
    sigma = PAULI_BASIS[1:]
    rhs = np.einsum("iej,ajk->aiek", v3, sigma) - np.einsum("aik,kej->aiej", sigma, v3)
    gens, res = _solve_env_operators(v, rhs)
    residuals = tuple(max(r, frob_dist(j, j.conj().T)) for r, j in zip(res.tolist(), gens))
    jx, jy, jz = gens
    algebra = max(
        frob_dist(jx @ jy - jy @ jx, 2j * jz),
        frob_dist(jy @ jz - jz @ jy, 2j * jx),
        frob_dist(jz @ jx - jx @ jz, 2j * jy),
    )
    worst = max(max(residuals), algebra)
    if worst > tol:
        raise ToleranceError(
            f"rotation-generator defect {worst:.3e} exceeds {tol:.1e}; "
            "the channel has no rotation-covariant structure")
    return SU2Generators(jx, jy, jz, residuals)


def check_strong_conservation(kraus: Iterable[np.ndarray], j, tol: float = 1e-12) -> bool:
    """True iff j commutes with every Kraus operator.

    When true, the constructed dilation is also checked to satisfy
    V j = (j (x) I) V, which it must.
    """
    ops = [as_complex_matrix(k) for k in kraus]
    jm = as_complex_matrix(j)
    if any(frob_dist(jm @ k, k @ jm) > tol for k in ops):
        return False
    v = dilation_from_kraus(ops)
    lift = frob_dist(v.v @ jm, kron(jm, np.eye(v.dim_e)) @ v.v)
    if lift > DEFAULT_TOL:
        raise ToleranceError(f"conserved quantity fails to lift to the dilation ({lift:.3e})")
    return True


def rep_report(sol: EnvRepSolution) -> dict:
    """JSON-ready summary of a solved environment representation."""
    elements = []
    for g in sol.rep.labels:
        elements.append({
            "label": g,
            "matrix": sol.rep.mats[g].tolist(),
            "residual": sol.residuals[g],
            "unitarity_defect": sol.unitarity_defects[g],
        })
    return {
        "dim_env": sol.rep.space_dim,
        "max_residual": sol.max_residual,
        "elements": elements,
    }
