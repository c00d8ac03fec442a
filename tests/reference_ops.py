"""Reference operations that only the tests use: Haar-random unitaries, a Kraus sum, and
the per-letter rules of the Pauli string algebra, the oracle of its bit-mask path."""

from itertools import product

import numpy as np

from pauli_dilate.pauli import PauliString


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Gaussian matrix, phases fixed."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def kraus_apply(kraus, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k+, one Kraus operator at a time."""
    return sum(k @ rho @ k.conj().T for k in kraus)


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
