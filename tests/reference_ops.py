"""Reference operations that only the tests use: Haar-random unitaries, a Kraus sum, the
trace distance, the per-time Pauli fit of a channel, the oracle of the time grid, and the
per-letter rules of the Pauli string algebra, the oracle of its bit-mask path; the minimal
isometry of a Pauli channel as the solvers take it, and any Kraus list stacked into an
isometry, the oracle of its row layout."""

from itertools import product
from typing import Sequence

import numpy as np

from pauli_dilate.channels import PauliChannel
from pauli_dilate.dilations import Isometry
from pauli_dilate.dynamics import PhysicalDilation, isometry_at
from pauli_dilate.linalg import as_complex_matrix, frob_dist
from pauli_dilate.pauli import PauliString
from pauli_dilate.validation import DEFAULT_TOL


def minimal_v(channel: PauliChannel) -> Isometry:
    """The isometry that `dilate` prints for the channel, PauliChannel.minimal_dilation()."""
    return Isometry(channel.minimal_dilation().rows)


def dilation_from_kraus(kraus: Sequence[np.ndarray]) -> Isometry:
    """Stack Kraus operators into the isometry V |phi> = sum_j K_j |phi> (x) |e_j>.

    The environment basis is descending, so |e_0> = |1...1>.
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
    # row (i, j) of V is row i of the j-th Kraus operator
    v = np.stack(ops, axis=1)
    return Isometry(v.reshape(dim_s * len(ops), dim_s))


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Gaussian matrix, phases fixed."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def kraus_apply(kraus, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k+, one Kraus operator at a time."""
    return sum(k @ rho @ k.conj().T for k in kraus)


def trace_distance(a, b) -> float:
    """Half the trace norm of the (Hermitian) difference of two states."""
    diff = as_complex_matrix(a) - as_complex_matrix(b)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


_SIGMAS = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])
# the Liouville-to-Pauli change of basis:
# _LEFT[b, (i, k)] = s_b[k, i] and _RIGHT[(j, l), a] = s_a[j, l]
_LEFT = _SIGMAS.transpose(0, 2, 1).reshape(4, 4)
_RIGHT = _SIGMAS.reshape(4, 4).T
# (pI, px, py, pz) from (1, lam_x, lam_y, lam_z): sigma_a keeps its own axis and flips the others
_PROBS_OF_SCALING = np.array([[1, 1, 1, 1], [1, 1, -1, -1], [1, -1, 1, -1], [1, -1, -1, 1]]) / 4


def pauli_fit(r: np.ndarray) -> tuple[np.ndarray, float]:
    """(probs, leakage) of a 4x4 Pauli transfer matrix: the probabilities of its diagonal
    Bloch scalings, and the Frobenius norm of everything the diagonal model cannot carry."""
    scalings = np.array([1.0, *np.real(np.diag(r)[1:])])
    return _PROBS_OF_SCALING @ scalings, float(np.linalg.norm(r - np.diag(scalings)))


def fit_pauli_transfer(v: Isometry) -> tuple[np.ndarray, np.ndarray, float]:
    """(transfer, probs, leakage) of one isometry's channel, from its Liouville matrix.

    S[(i, k), (j, l)] = sum_e V[(i, e), j] conj(V[(k, e), l]) is one contraction of
    V with its conjugate; the transfer matrix is _LEFT @ S @ _RIGHT / 2.
    """
    v3 = v.v.reshape(v.dim_s, v.dim_e, v.dim_s)
    liouville = np.einsum("iej,kel->ikjl", v3, v3.conj()).reshape(4, 4)
    r = _LEFT @ liouville @ _RIGHT / 2.0
    return (r, *pauli_fit(r))


def transfer_by_traces(v: Isometry) -> np.ndarray:
    """r[b, a] = Tr(s_b phi[s_a]) / 2 with phi applied through its Kraus slices."""
    kraus = [v.v[e::v.dim_e] for e in range(v.dim_e)]
    r = np.zeros((4, 4), dtype=np.complex128)
    for a, s_in in enumerate(_SIGMAS):
        out = kraus_apply(kraus, s_in)
        for b, s_out in enumerate(_SIGMAS):
            r[b, a] = np.trace(s_out @ out) / 2
    return r


def fit_at(pd: PhysicalDilation, t: float) -> tuple[np.ndarray, float]:
    """(probs, leakage) of a dilation's channel at time t, one time at a time: the full
    propagator of isometry_at, then the einsum fit.  The oracle of a time grid's row."""
    return fit_pauli_transfer(isometry_at(pd, t))[1:]


# sigma_a . sigma_b = phase * sigma_c
FACTOR_MUL = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}

# symplectic bit pairs (x, z); Y carries both bits
SYMPLECTIC = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def multiply_by_letters(a: PauliString, b: PauliString) -> PauliString:
    """The group product, one factor pair at a time."""
    assert a.n_qubits == b.n_qubits
    phase = a.phase * b.phase
    factors = []
    for fa, fb in zip(a.factors, b.factors):
        ph, fc = FACTOR_MUL[fa, fb]
        phase *= ph
        factors.append(fc)
    return PauliString(phase, tuple(factors))


def commutes_by_letters(a: PauliString, b: PauliString) -> bool:
    """ab == ba iff an even number of factor pairs anticommute."""
    assert a.n_qubits == b.n_qubits
    acc = 0
    for fa, fb in zip(a.factors, b.factors):
        xa, za = SYMPLECTIC[fa]
        xb, zb = SYMPLECTIC[fb]
        acc ^= (xa & zb) ^ (za & xb)
    return acc == 0


def commutant_by_letters(generators, qubits: int) -> list[PauliString]:
    """Every phase-free string, I<X<Y<Z lexicographic, that commutes with all generators."""
    strings = (PauliString(1, factors) for factors in product("IXYZ", repeat=qubits))
    return [p for p in strings if all(commutes_by_letters(p, g) for g in generators)]
