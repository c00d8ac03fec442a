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

import numpy as np

from .linalg import as_complex_matrix
from .pauli import ID2, PAULI_BASIS, SIGMA
from .validation import DEFAULT_TOL, as_reals, check_keys

PROB_TOL = 1e-12


def validate_density_matrix(rho) -> np.ndarray:
    a = as_complex_matrix(rho)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got shape {a.shape}")
    return validate_density_matrices(a[None])[0]


def validate_density_matrices(rhos) -> np.ndarray:
    """An (n, 2, 2) stack of density matrices, each held to validate_density_matrix's checks.

    Hermiticity, trace and positivity are tested for the whole stack at once,
    positivity from one batched eigvalsh; a failure raises the one-matrix message.
    """
    a = np.asarray(rhos, dtype=np.complex128)
    if a.ndim != 3 or a.shape[1:] != (2, 2):
        raise ValueError(f"expected a stack of 2x2 density matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    if np.any(np.linalg.norm(a - a.conj().swapaxes(1, 2), axis=(1, 2)) > DEFAULT_TOL):
        raise ValueError("density matrix is not Hermitian")
    if np.any(np.abs(np.trace(a, axis1=1, axis2=2) - 1.0) > DEFAULT_TOL):
        raise ValueError("density matrix trace differs from 1")
    if np.linalg.eigvalsh(a).min(initial=0.0) < -DEFAULT_TOL:
        raise ValueError("density matrix is not positive semidefinite")
    return a


def pauli_kraus(p) -> np.ndarray:
    """K_a = sqrt(p_a) sigma_a in order (I, x, y, z), zero slots kept: shape (..., 4, 2, 2).

    `p` holds valid weights, one 4-vector or an (n, 4) stack.
    """
    return np.sqrt(np.asarray(p, dtype=float))[..., None, None] * PAULI_BASIS


def kraus_choi(kraus: np.ndarray) -> np.ndarray:
    """Choi matrices sum_ij E_ij (x) phi[E_ij] of (..., k, 2, 2) Kraus stacks: (..., 4, 4).

    Entry ((i, a), (j, b)) is phi[E_ij][a, b] = sum_k K_k[a, i] conj(K_k[b, j]).
    """
    out = np.einsum("...kai,...kbj->...iajb", kraus, kraus.conj())
    return out.reshape(*out.shape[:-4], 4, 4)


def kraus_action(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k+ for (..., k, 2, 2) Kraus stacks and (..., 2, 2) states."""
    return np.einsum("...kab,...bc,...kdc->...ad", kraus, rho, kraus.conj())


def bloch_states(r) -> np.ndarray:
    """Density matrices (I + r . sigma) / 2 of an (n, 3) stack of Bloch vectors with |r| <= 1."""
    v = np.asarray(r, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError("Bloch vector must have 3 components")
    if np.any(np.linalg.norm(v, axis=1) > 1 + 1e-12):
        raise ValueError("Bloch vector lies outside the unit ball")
    return 0.5 * (ID2 + np.einsum("ni,iab->nab", v, PAULI_BASIS[1:]))


def bloch_state(r) -> np.ndarray:
    """Density matrix (I + r . sigma) / 2 for a Bloch vector with |r| <= 1."""
    v = np.asarray(r, dtype=float)
    if v.shape != (3,):
        raise ValueError("Bloch vector must have 3 components")
    return bloch_states(v[None])[0]


def bloch_vectors(rhos: np.ndarray) -> np.ndarray:
    """Bloch vectors tr(sigma_i rho) of an (n, 2, 2) stack of states: shape (n, 3)."""
    return np.einsum("iab,nba->ni", PAULI_BASIS[1:], rhos).real


def bloch_vector(rho) -> np.ndarray:
    return bloch_vectors(as_complex_matrix(rho)[None])[0]


def scalings_from_probs(p) -> np.ndarray:
    """Bloch scalings (lx, ly, lz) of probabilities (pI, px, py, pz).

    An (n, 4) stack of probabilities gives the (n, 3) stack of scalings.
    """
    a = np.asarray(p, dtype=float)
    # one vector as Python floats, whose arithmetic is cheaper than numpy scalars'
    pi, px, py, pz = a.tolist() if a.ndim == 1 else a.T
    return np.array([pi + px - py - pz, pi - px + py - pz, pi - px - py + pz]).T


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
        return kraus_action(pauli_kraus(self.p), validate_density_matrix(rho))

    def kraus_ops(self) -> list[np.ndarray]:
        """K_a = sqrt(p_a) sigma_a in fixed order (I, x, y, z); zeros dropped.

        Dropping the zero slots keeps a dilation stacked from these operators minimal.
        """
        return [k for p, k in zip(self.p, pauli_kraus(self.p)) if p > 0.0]

    def choi(self) -> np.ndarray:
        """Choi matrix sum_ij E_ij (x) phi[E_ij], trace 2."""
        return kraus_choi(pauli_kraus(self.p))

    def choi_spectrum(self) -> tuple[list[float], int]:
        """Choi eigenvalues 2 p_a, descending, and the Kraus rank: the count above DEFAULT_TOL.

        The Choi matrix is sum_a p_a |sigma_a>><<sigma_a| over the vectorized
        Paulis, which are orthogonal with squared norm 2.  The rank uses the
        threshold that the dilation solver applies to the same spectrum.
        """
        spectrum = sorted((2.0 * p for p in self.p), reverse=True)
        return spectrum, sum(v > DEFAULT_TOL for v in spectrum)

    def bloch_scaling(self) -> np.ndarray:
        return scalings_from_probs(self.p)

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


def semigroup_scalings(gamma, t) -> np.ndarray:
    """lambda_i(t) = exp(-2 t sum_{j != i} gamma_j).

    A column of times t[:, None] gives one row of scalings per time.
    """
    g = np.asarray(gamma, dtype=float)
    with np.errstate(over="ignore"):  # an exponent past the float range decays to 0
        return np.exp(-t * (2.0 * (g.sum() - g)))


def semigroup_channel(lv: PauliLiouvillian, t: float) -> PauliChannel:
    """The Pauli channel exp(L t) in closed form."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    return PauliChannel(tuple(probs_from_scaling(semigroup_scalings(lv.gamma, t))))


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
