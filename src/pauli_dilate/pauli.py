"""Pauli strings, the 16-element single-qubit Pauli group, and commutants.

A Pauli string is a scalar phase from {+1, -1, +i, -i} times an ordered
tensor product of single-qubit factors I, X, Y, Z.  The textual format is an
optional phase prefix ("+", "-", "+i", "-i") followed by factor letters,
e.g. "-iZXI".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterable, Iterator, Sequence

import numpy as np

ID2 = np.eye(2, dtype=np.complex128)
SX = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SY = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SZ = np.array([[1, 0], [0, -1]], dtype=np.complex128)

FACTOR_MATS = {"I": ID2, "X": SX, "Y": SY, "Z": SZ}
SIGMA = (SX, SY, SZ)
PAULI_BASIS = np.array((ID2, *SIGMA))  # (I, x, y, z) stacked as a 4x2x2 array

PHASES = (1, -1, 1j, -1j)
_PHASE_PREFIX = {1: "", -1: "-", 1j: "+i", -1j: "-i"}

# sigma_a . sigma_b = phase * sigma_c
_FACTOR_MUL = {
    ("I", "I"): (1, "I"), ("I", "X"): (1, "X"), ("I", "Y"): (1, "Y"), ("I", "Z"): (1, "Z"),
    ("X", "I"): (1, "X"), ("X", "X"): (1, "I"), ("X", "Y"): (1j, "Z"), ("X", "Z"): (-1j, "Y"),
    ("Y", "I"): (1, "Y"), ("Y", "X"): (-1j, "Z"), ("Y", "Y"): (1, "I"), ("Y", "Z"): (1j, "X"),
    ("Z", "I"): (1, "Z"), ("Z", "X"): (1j, "Y"), ("Z", "Y"): (-1j, "X"), ("Z", "Z"): (1, "I"),
}

# the strings of the generic Pauli dilation a1 XIX + a2 YXI + a3 ZXX, which is
# also the coupling of one collision
GENERIC_TERMS = ("XIX", "YXI", "ZXX")

# pauli_commutant enumerates 4^n strings: 8 qubits take about half a second
MAX_COMMUTANT_QUBITS = 8

# symplectic bit pairs (x, z); Y carries both bits
_SYMPLECTIC = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


@dataclass(frozen=True)
class PauliString:
    phase: complex
    factors: tuple[str, ...]

    def __post_init__(self):
        ph = complex(self.phase)
        if ph not in (1, -1, 1j, -1j):
            raise ValueError(f"phase must be one of +1, -1, +i, -i, got {self.phase}")
        object.__setattr__(self, "phase", ph)
        if not self.factors or any(f not in FACTOR_MATS for f in self.factors):
            raise ValueError(f"invalid factors {self.factors}")
        object.__setattr__(self, "factors", tuple(self.factors))

    @property
    def n_qubits(self) -> int:
        return len(self.factors)

    def __mul__(self, other: "PauliString") -> "PauliString":
        return multiply(self, other)

    def __str__(self) -> str:
        return _PHASE_PREFIX[self.phase] + "".join(self.factors)


def pauli(text: str) -> PauliString:
    """Parse the textual Pauli-string format, e.g. "ZX" or "-iZXI"."""
    s = text.strip()
    phase = 1
    for prefix, ph in (("+i", 1j), ("-i", -1j), ("+", 1), ("-", -1)):
        if s.startswith(prefix):
            phase = ph
            s = s[len(prefix):]
            break
    if not s or any(c not in "IXYZ" for c in s):
        raise ValueError(f"invalid Pauli string {text!r}")
    return PauliString(phase, tuple(s))


def multiply(a: PauliString, b: PauliString) -> PauliString:
    """Group product with exact phase bookkeeping."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit count mismatch")
    phase = a.phase * b.phase
    factors = []
    for fa, fb in zip(a.factors, b.factors):
        ph, fc = _FACTOR_MUL[fa, fb]
        phase *= ph
        factors.append(fc)
    return PauliString(phase, tuple(factors))


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff ab == ba. Scalar phases drop out of the comparison."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit count mismatch")
    acc = 0
    for fa, fb in zip(a.factors, b.factors):
        xa, za = _SYMPLECTIC[fa]
        xb, zb = _SYMPLECTIC[fb]
        acc ^= (xa & zb) ^ (za & xb)
    return acc == 0


def to_matrix(a: PauliString) -> np.ndarray:
    """Dense matrix in the descending tensor basis."""
    m = FACTOR_MATS[a.factors[0]]
    for f in a.factors[1:]:
        # np.kron(m, f) as one broadcast product, bit for bit
        d = 2 * len(m)
        m = (m[:, None, :, None] * FACTOR_MATS[f][None, :, None, :]).reshape(d, d)
    return a.phase * m


def string_hamiltonian(terms: Sequence[tuple[str, float]]) -> np.ndarray:
    """The Hermitian matrix sum of c * P over (label, c) terms, each P of real phase."""
    if not math.isfinite(sum(abs(float(c)) for _, c in terms)):  # bounds every entry of the sum
        raise ValueError("Hamiltonian coefficients must be finite, and so must the sum of "
                         f"their magnitudes, got {[float(c) for _, c in terms]}")
    mats = []
    for label, coeff in terms:
        p = pauli(label)
        if p.phase not in (1, -1):
            raise ValueError("Hamiltonian strings must carry a real phase")
        mats.append(float(coeff) * to_matrix(p))
    return sum(mats)


@lru_cache(maxsize=16)
def product_table(labels: tuple[str, ...]) -> np.ndarray:
    """Read-only (k, k) int array: table[i, j] is the position of labels[i] * labels[j].

    Built once per label tuple.  A product outside the labels raises KeyError.
    """
    parsed = [pauli(g) for g in labels]
    index = {g: i for i, g in enumerate(labels)}
    table = np.array([[index[str(multiply(a, b))] for b in parsed] for a in parsed],
                     dtype=int).reshape(len(parsed), len(parsed))
    table.setflags(write=False)
    return table


def iter_strings(qubits: int) -> Iterator[PauliString]:
    """All phase-free strings on `qubits` qubits, lexicographic in I<X<Y<Z."""
    for factors in product("IXYZ", repeat=qubits):
        yield PauliString(1, factors)


def pauli_basis_expand(m, tol: float = 1e-12) -> dict[PauliString, complex]:
    """Coefficients c_P = Tr(P m) / 2^n over phase-free Pauli strings.

    Entries with |c_P| <= tol are dropped; the kept terms reconstruct m.
    """
    a = np.asarray(m, dtype=np.complex128)
    dim = a.shape[0]
    if a.shape != (dim, dim) or dim & (dim - 1) or dim < 2:  # a string has at least one qubit
        raise ValueError("expected a square matrix with power-of-two dimension")
    n = dim.bit_length() - 1
    # Tr(P m) = sum over (i_k, j_k) of prod_k s_{a_k}[i_k, j_k] m[j, i]: pair the
    # row and column bit of each qubit into one index of m^T, then contract that
    # index with PAULI_BASIS qubit by qubit.  Each pass contracts the leading
    # axis and moves the result to the back, so the n passes leave the string
    # index (a_1, ..., a_n) in iter_strings order.
    interleaved = [axis for k in range(n) for axis in (k, n + k)]
    c = a.T.reshape((2,) * 2 * n).transpose(interleaved).reshape(-1)
    basis = PAULI_BASIS.reshape(4, 4)
    for _ in range(n):
        c = (basis @ c.reshape(4, -1)).T
    coeffs = (c.reshape(-1) / dim).tolist()
    return {PauliString(1, factors): coeffs[i]
            for i, factors in enumerate(product("IXYZ", repeat=n)) if abs(coeffs[i]) > tol}


def pauli_commutant(generators: Iterable[PauliString], qubits: int) -> list[PauliString]:
    """Phase-free strings commuting with every generator, in enumeration order."""
    if not 1 <= qubits <= MAX_COMMUTANT_QUBITS:
        raise ValueError(f"qubits must be between 1 and {MAX_COMMUTANT_QUBITS}, got {qubits}")
    gens = list(generators)
    for g in gens:
        if g.n_qubits != qubits:
            raise ValueError("generator qubit count mismatch")
    return [p for p in iter_strings(qubits) if all(commutes(p, g) for g in gens)]


def pauli_group() -> list[PauliString]:
    """The 16 single-qubit group elements, grouped by factor then phase."""
    return [PauliString(ph, (f,)) for f in "IXYZ" for ph in PHASES]
