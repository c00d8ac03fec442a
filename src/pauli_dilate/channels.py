"""Single-qubit Pauli channels and Pauli dynamical semigroups.

A Pauli channel is the mixture rho -> sum_a p_a sigma_a rho sigma_a over
{I, x, y, z}.  On the Bloch sphere it scales each component of r by

    lambda_x = pI + px - py - pz   (and cyclic),

which is invertible, so the channel is equivalently described by its
probability 4-vector or its scaling 3-vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    as_complex_matrix,
    as_reals,
    check_keys,
    frob_dist,
    hermiticity_defect,
)
from .pauli import ID2, PAULI_BASIS, SIGMA, SX, SY, SZ

PROB_TOL = 1e-12


def validate_density_matrix(rho, dim: int = 2, tol: float = DEFAULT_TOL) -> np.ndarray:
    a = as_complex_matrix(rho)
    if a.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} density matrix, got shape {a.shape}")
    if hermiticity_defect(a) > tol:
        raise ValueError("density matrix is not Hermitian")
    if abs(np.trace(a) - 1.0) > tol:
        raise ValueError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(a).min() < -tol:
        raise ValueError("density matrix is not positive semidefinite")
    return a


def kraus_apply(kraus: Iterable[np.ndarray], rho: np.ndarray) -> np.ndarray:
    return sum(k @ rho @ k.conj().T for k in kraus)


def bloch_state(r) -> np.ndarray:
    """Density matrix (I + r . sigma) / 2 for a Bloch vector with |r| <= 1."""
    v = np.asarray(r, dtype=float)
    if v.shape != (3,):
        raise ValueError("Bloch vector must have 3 components")
    if np.linalg.norm(v) > 1 + 1e-12:
        raise ValueError("Bloch vector lies outside the unit ball")
    return 0.5 * (ID2 + v[0] * SX + v[1] * SY + v[2] * SZ)


def bloch_vector(rho) -> np.ndarray:
    a = as_complex_matrix(rho)
    return np.array([np.trace(s @ a).real for s in SIGMA])


def probs_from_scaling(lam) -> np.ndarray:
    """Invert the Bloch-scaling map: probabilities (pI, px, py, pz).

    An (n, 3) stack of scalings gives the (n, 4) stack of probabilities.
    """
    a = np.asarray(lam, dtype=float)
    # one vector as Python floats, whose arithmetic is cheaper than numpy scalars'
    lx, ly, lz = a.tolist() if a.ndim == 1 else a.T
    return 0.25 * np.array(
        [1 + lx + ly + lz, 1 + lx - ly - lz, 1 - lx + ly - lz, 1 - lx - ly + lz]
    ).T


@dataclass(frozen=True)
class PauliChannel:
    """Probability 4-vector (pI, px, py, pz) over the Pauli unitaries."""

    p: tuple[float, float, float, float]

    def __post_init__(self):
        p = tuple(float(v) for v in self.p)
        if len(p) != 4:
            raise ValueError("need 4 probabilities (pI, px, py, pz)")
        if not all(math.isfinite(v) for v in p):
            raise ValueError(f"probabilities must be finite, got {p}")
        if min(p) < -PROB_TOL:
            raise ValueError(f"negative probability in {p}")
        if abs(sum(p) - 1.0) > PROB_TOL:
            raise ValueError(f"probabilities sum to {sum(p)}, not 1")
        # a weight in [-PROB_TOL, 0) is rounding: store it as the 0 it stands for
        object.__setattr__(self, "p", tuple(0.0 if v < 0.0 else v for v in p))

    @classmethod
    def identity(cls) -> "PauliChannel":
        return cls((1.0, 0.0, 0.0, 0.0))

    @classmethod
    def phase_damping(cls, p: float) -> "PauliChannel":
        return cls((1.0 - p, 0.0, 0.0, p))

    @classmethod
    def depolarizing(cls, p: float) -> "PauliChannel":
        return cls((1.0 - p, p / 3.0, p / 3.0, p / 3.0))

    def apply(self, rho) -> np.ndarray:
        """Kraus-sum action on a density matrix."""
        a = validate_density_matrix(rho)
        return kraus_apply(self.kraus_ops(), a)

    def kraus_ops(self) -> list[np.ndarray]:
        """K_a = sqrt(p_a) sigma_a in fixed order (I, x, y, z); zeros dropped."""
        return [math.sqrt(p) * m for p, m in zip(self.p, PAULI_BASIS) if p > 0.0]

    def choi(self) -> np.ndarray:
        """Choi matrix sum_ij E_ij (x) phi[E_ij], trace 2.

        Entry ((i, a), (j, b)) is phi[E_ij][a, b] = sum_k K_k[a, i] conj(K_k[b, j]).
        """
        kraus = np.array(self.kraus_ops())
        return np.einsum("kai,kbj->iajb", kraus, kraus.conj()).reshape(4, 4)

    def choi_spectrum(self) -> tuple[list[float], int]:
        """Choi eigenvalues 2 p_a, descending, and the Kraus rank: the count above DEFAULT_TOL.

        The Choi matrix is sum_a p_a |sigma_a>><<sigma_a| over the vectorized
        Paulis, which are orthogonal with squared norm 2.  The rank uses the
        threshold that the dilation solver applies to the same spectrum.
        """
        spectrum = sorted((2.0 * p for p in self.p), reverse=True)
        return spectrum, sum(v > DEFAULT_TOL for v in spectrum)

    def bloch_scaling(self) -> np.ndarray:
        pi, px, py, pz = self.p
        return np.array([pi + px - py - pz, pi - px + py - pz, pi - px - py + pz])

    def compose(self, other: "PauliChannel") -> "PauliChannel":
        """Channel composition; scalings multiply componentwise."""
        return PauliChannel(tuple(probs_from_scaling(self.bloch_scaling() * other.bloch_scaling())))


@dataclass(frozen=True)
class PauliLiouvillian:
    """Generator L[rho] = sum_i gamma_i (sigma_i rho sigma_i - rho)."""

    gamma: tuple[float, float, float]

    def __post_init__(self):
        g = tuple(float(v) for v in self.gamma)
        if len(g) != 3:
            raise ValueError("need 3 rates (gx, gy, gz)")
        if not math.isfinite(2.0 * sum(g)):  # NaN, inf and sums past the float range
            raise ValueError(f"rates gamma must be finite, and so must twice their sum, got {g}")
        if min(g) < 0:
            raise ValueError(f"negative rate in {g}")
        object.__setattr__(self, "gamma", g)

    def apply(self, rho) -> np.ndarray:
        a = as_complex_matrix(rho)
        if a.shape != (2, 2):
            raise ValueError("Liouvillian acts on 2x2 matrices")
        out = np.zeros_like(a)
        for g, s in zip(self.gamma, SIGMA):
            out += g * (s @ a @ s - a)
        return out


def semigroup_scalings(gamma, t: float) -> np.ndarray:
    """lambda_i(t) = exp(-2 t sum_{j != i} gamma_j)."""
    g = np.asarray(gamma, dtype=float)
    with np.errstate(over="ignore"):  # an exponent past the float range decays to 0
        return np.exp(-t * (2.0 * (g.sum() - g)))


def semigroup_channel(lv: PauliLiouvillian, t: float) -> PauliChannel:
    """The Pauli channel exp(L t) in closed form."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return PauliChannel(tuple(probs_from_scaling(semigroup_scalings(lv.gamma, t))))


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


def channel_from_descriptor(desc: dict):
    """Build a PauliChannel or PauliLiouvillian from its JSON descriptor.

    Supported forms:
      {"type": "pauli", "p": [pI, px, py, pz]}
      {"type": "phase_damping", "p": x}
      {"type": "depolarizing", "p": x}
      {"type": "liouvillian", "gamma": [gx, gy, gz]}
    A key that the form does not read is rejected.
    """
    if not isinstance(desc, dict) or "type" not in desc:
        raise ValueError("channel descriptor must be an object with a 'type' field")
    kind = desc["type"]
    if kind in ("pauli", "phase_damping", "depolarizing", "liouvillian"):
        check_keys(desc, f"a {kind!r} channel", ("type", "gamma" if kind == "liouvillian" else "p"))
    if kind == "pauli":
        return PauliChannel(as_reals(desc.get("p"), "'pauli' field \"p\"", 4))
    if kind == "phase_damping":
        return PauliChannel.phase_damping(as_reals(desc.get("p"), "'phase_damping' field \"p\""))
    if kind == "depolarizing":
        return PauliChannel.depolarizing(as_reals(desc.get("p"), "'depolarizing' field \"p\""))
    if kind == "liouvillian":
        return PauliLiouvillian(as_reals(desc.get("gamma"), "'liouvillian' field \"gamma\"", 3))
    raise ValueError(f"unknown channel type {kind!r}")
