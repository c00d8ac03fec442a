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

import functools
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .linalg import as_complex_matrix, frob_dist, gram_defects, partial_trace_env
from .pauli import PAULI_BASIS, PHASES, pauli_group, product_table
from .validation import (DEFAULT_TOL, require_env_rep_residual, require_minimal,
                         require_rotation_generators)


@dataclass(frozen=True)
class Isometry:
    """A (dim_s * dim_e) x dim_s matrix V with V+ V = I, held as a read-only copy."""

    v: np.ndarray
    dim_s: int = field(init=False)
    dim_e: int = field(init=False)

    def __post_init__(self):
        a = as_complex_matrix(self.v).copy()
        rows, ds = a.shape
        if not 0 < ds <= rows or rows % ds:
            raise ValueError(f"isometry shape {a.shape} needs a positive multiple of its "
                             "column count as its row count")
        a.flags.writeable = False
        object.__setattr__(self, "v", a)
        object.__setattr__(self, "dim_s", ds)
        object.__setattr__(self, "dim_e", rows // ds)
        if self.defect() > DEFAULT_TOL:
            raise ValueError("V+ V deviates from the identity beyond 1e-10")

    def defect(self) -> float:
        """Frobenius norm of V+ V - I."""
        gram = self.v.conj().T @ self.v
        gram.flat[:: self.dim_s + 1] -= 1.0  # the diagonal, without building an identity
        return float(np.linalg.norm(gram))


@dataclass(frozen=True, eq=False)
class GroupRep:
    """A finite family of unitaries on one space, keyed by element label.

    Built from the (k, d, d) array `stack` of the matrices in label order,
    which is copied into one read-only complex array; `mats[g]` is the row of
    that stack for label g, and `unitarity_defects[i]` is the Frobenius norm of
    stack[i]+ stack[i] - I.
    """

    labels: tuple[str, ...]
    stack: np.ndarray = field(repr=False)
    mats: Mapping[str, np.ndarray] = field(init=False, repr=False)
    unitarity_defects: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        labels = tuple(self.labels)
        stack = np.array(self.stack, dtype=np.complex128)
        k = len(labels)
        if stack.ndim != 3 or stack.shape[0] != k or stack.shape[1] != stack.shape[2]:
            raise ValueError(f"representation of {k} labels needs a ({k}, d, d) stack, "
                             f"got shape {stack.shape}")
        if not np.all(np.isfinite(stack)):
            raise ValueError("matrix has non-finite entries")
        defects = gram_defects(stack)
        bad = np.flatnonzero(defects > DEFAULT_TOL)
        if bad.size:
            raise ValueError(f"representation matrix for {labels[bad[0]]} is not unitary")
        stack.flags.writeable = False
        defects.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "mats", MappingProxyType(dict(zip(labels, stack))))
        object.__setattr__(self, "unitarity_defects", defects)


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


@functools.cache
def defining_pauli_rep() -> GroupRep:
    """pi_S(g) = g over the 16 single-qubit Pauli group elements.

    Built once per process; every caller shares the one read-only instance.
    """
    labels = tuple(str(p) for p in pauli_group())
    # pauli_group() order, by factor then phase: phase * sigma, the product to_matrix forms
    stack = (np.array(PHASES)[None, :, None, None] * PAULI_BASIS[:, None]).reshape(16, 2, 2)
    return GroupRep(labels, stack)


def pauli_rep_law_defect(rep: GroupRep) -> float:
    """Max deviation from rep(g) rep(h) == rep(gh) over Pauli-group labels.

    All products rep(g) rep(h) form one (k, k, d, d) stack, compared with the
    representation stack indexed by the group's product table, which is built
    once per label tuple.  A product outside the labels raises KeyError.
    """
    stack = rep.stack
    products = stack[:, None] @ stack[None, :]
    defects = np.linalg.norm(products - stack[product_table(rep.labels)], axis=(2, 3))
    return float(np.max(defects, initial=0.0))


def channel_of_isometry(v: Isometry, rho) -> np.ndarray:
    """phi[rho] = Tr_E[V rho V+]."""
    a = as_complex_matrix(rho)
    if a.shape != (v.dim_s, v.dim_s):
        raise ValueError(f"expected a {v.dim_s}x{v.dim_s} input")
    return partial_trace_env(v.v @ a @ v.v.conj().T, v.dim_s, v.dim_e)


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
    require_minimal(int(np.sum(s ** 2 > DEFAULT_TOL)), de)
    residuals = np.linalg.norm((a @ x - b).reshape(ds * ds, n, de), axis=(0, 2))
    return x.reshape(de, n, de).transpose(1, 2, 0), residuals


def solve_env_rep(v: Isometry, sys_rep: GroupRep, tol: float = DEFAULT_TOL) -> EnvRepSolution:
    """Solve V pi_S(g) = (pi_S(g) (x) pi_E(g)) V for every group element.

    Raises ToleranceError when any residual exceeds tol, which signals a
    non-covariant channel or a non-minimal dilation.
    """
    pi_s = sys_rep.stack
    v3 = v.v.reshape(v.dim_s, v.dim_e, v.dim_s)
    # (pi_g+ (x) I) V pi_g for every g at once
    rhs = np.einsum("gai,aeb,gbj->giej", pi_s.conj(), v3, pi_s)
    xs, res = _solve_env_operators(v, rhs)
    residuals = dict(zip(sys_rep.labels, res.tolist()))
    require_env_rep_residual(max(residuals.values()), tol)
    return EnvRepSolution(GroupRep(sys_rep.labels, xs), residuals)


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
    require_rotation_generators(max(max(residuals), algebra), tol)
    return SU2Generators(jx, jy, jz, residuals)
