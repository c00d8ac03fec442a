"""Pauli strings, the 16-element single-qubit Pauli group, and commutants.

A Pauli string is a scalar phase from {+1, -1, +i, -i} times an ordered
tensor product of single-qubit factors I, X, Y, Z.  The textual format is an
optional phase prefix ("+", "-", "+i", "-i") followed by factor letters,
e.g. "-iZXI".

The string algebra runs on symplectic bit masks (Aaronson and Gottesman,
PRA 70, 052328 (2004)): a string carries masks x and z, one bit per qubit
with the first factor in the highest bit, and X = (1, 0), Y = (1, 1),
Z = (0, 1).  Two strings commute iff the parity of (xa & zb) ^ (za & xb) is
even, and a product is the XOR of the masks times a counted power of i.
The same masks decide when a dilation sum c_k P_k evolves by a closed-form
Pauli law (anticommuting_law).  None of it needs numpy.  The matrix forms
(ID2, SX, SY, SZ, SIGMA, FACTOR_MATS, PAULI_BASIS) are built, and numpy
imported, on first use, by them or by to_matrix, string_hamiltonian,
product_table and pauli_basis_expand.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import product
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    import numpy as np

# the matrix forms, bound as module globals by _numpy() on first use
ID2: np.ndarray
SX: np.ndarray
SY: np.ndarray
SZ: np.ndarray
SIGMA: tuple[np.ndarray, np.ndarray, np.ndarray]
FACTOR_MATS: dict[str, np.ndarray]
PAULI_BASIS: np.ndarray  # (I, x, y, z) stacked as a 4x2x2 array
_MATRIX_FORMS = ("ID2", "SX", "SY", "SZ", "SIGMA", "FACTOR_MATS", "PAULI_BASIS")

PHASES = (1, -1, 1j, -1j)
_PHASE_PREFIX = {1: "", -1: "-", 1j: "+i", -1j: "-i"}
_POWERS_OF_I = (1, 1j, -1, -1j)

# the x and the z bit of each factor letter I, X, Y, Z, as binary digits
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")

# the strings of the generic Pauli dilation a1 XIX + a2 YXI + a3 ZXX, which is
# also the coupling of one collision
GENERIC_TERMS = ("XIX", "YXI", "ZXX")

# pauli_commutant builds and tests all 4^n strings: 8 qubits take about 0.3 s (2-core
# Intel Xeon VM, Python 3.11)
MAX_COMMUTANT_QUBITS = 8


@cache
def _numpy():
    """Import numpy and bind every matrix form as a module global, once; returns numpy."""
    import numpy as np

    id2 = np.eye(2, dtype=np.complex128)
    sx = np.array([[0, 1], [1, 0]], dtype=np.complex128)
    sy = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
    sz = np.array([[1, 0], [0, -1]], dtype=np.complex128)
    globals().update(ID2=id2, SX=sx, SY=sy, SZ=sz, SIGMA=(sx, sy, sz),
                     FACTOR_MATS={"I": id2, "X": sx, "Y": sy, "Z": sz},
                     PAULI_BASIS=np.array((id2, sx, sy, sz)))
    return np


def __getattr__(name: str):
    """A matrix form, built on first access (PEP 562)."""
    if name in _MATRIX_FORMS:
        _numpy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class PauliString:
    phase: complex
    factors: tuple[str, ...]
    x: int = field(init=False, repr=False, compare=False)
    z: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        ph = complex(self.phase)
        if ph not in (1, -1, 1j, -1j):
            raise ValueError(f"phase must be one of +1, -1, +i, -i, got {self.phase}")
        object.__setattr__(self, "phase", ph)
        if not self.factors or not set(self.factors) <= {"I", "X", "Y", "Z"}:
            raise ValueError(f"invalid factors {self.factors}")
        object.__setattr__(self, "factors", tuple(self.factors))
        letters = "".join(self.factors)
        object.__setattr__(self, "x", int(letters.translate(_X_DIGITS), 2))
        object.__setattr__(self, "z", int(letters.translate(_Z_DIGITS), 2))

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
    # the qubits on which each string holds X, Y or Z
    ax, ay, az = a.x & ~a.z, a.x & a.z, a.z & ~a.x
    bx, by, bz = b.x & ~b.z, b.x & b.z, b.z & ~b.x
    # XY = iZ, YZ = iX and ZX = iY; the reversed products carry -i
    k = (ax & by | ay & bz | az & bx).bit_count() - (ay & bx | az & by | ax & bz).bit_count()
    x, z = a.x ^ b.x, a.z ^ b.z
    factors = tuple("IZXY"[(x >> q & 1) << 1 | z >> q & 1] for q in reversed(range(a.n_qubits)))
    return PauliString(a.phase * b.phase * _POWERS_OF_I[k & 3], factors)


def commutes(a: PauliString, b: PauliString) -> bool:
    """True iff ab == ba. Scalar phases drop out of the comparison."""
    if a.n_qubits != b.n_qubits:
        raise ValueError("qubit count mismatch")
    return ((a.x & b.z) ^ (a.z & b.x)).bit_count() & 1 == 0


def anticommuting_law(terms: Sequence[tuple[str, float]], psi_label: str
                      ) -> tuple[float, tuple[float, float, float, float]] | None:
    """(omega, (w_I, w_x, w_y, w_z)) of the dilation sum c_k P_k from |psi_label>, or None.

    The law holds when every P_k has a real phase, the P_k anticommute pairwise,
    and each environment factor flips |psi_E> to a basis state of its own (a
    nonzero environment x-mask, no two alike).  Then H^2 = omega^2 I with
    omega = |c|, so exp(-i H t) = cos(omega t) I - i sin(omega t) H / omega, and
    the branches E_k |psi_E> are orthonormal and orthogonal to |psi_E>: the
    channel at time t is p_I = cos^2(omega t) + w_I sin^2(omega t) and
    p_a = w_a sin^2(omega t), where w_a sums (c_k / omega)^2 over the terms whose
    system factor is a, with no leakage (Cattaneo, PRA 111, 022209 (2025)).  At
    omega = 0 the channel is the identity.  None when a condition fails or
    psi_label is no basis label.
    """
    if not psi_label or psi_label.strip("01"):
        return None
    strings = [pauli(label) for label, _ in terms]
    env = (1 << len(psi_label)) - 1  # the environment qubits are the low bits
    flips = set()
    for k, p in enumerate(strings):
        flip = p.x & env
        if p.phase.imag or not flip or flip in flips:
            return None
        if any(commutes(p, q) for q in strings[:k]):
            return None
        flips.add(flip)
    coeffs = [float(c) for _, c in terms]
    omega = math.hypot(*coeffs)
    weights = [0.0] * 4
    if omega:
        for p, c in zip(strings, coeffs):
            weights["IXYZ".index(p.factors[0])] += (c / omega) ** 2
    return omega, tuple(weights)


def to_matrix(a: PauliString) -> np.ndarray:
    """Dense matrix in the descending tensor basis."""
    _numpy()
    m = FACTOR_MATS[a.factors[0]]
    for f in a.factors[1:]:
        # np.kron(m, f) as one broadcast product, bit for bit
        d = 2 * len(m)
        m = (m[:, None, :, None] * FACTOR_MATS[f][None, :, None, :]).reshape(d, d)
    return a.phase * m


def require_finite_sum(terms: Sequence[tuple[str, float]]) -> None:
    """Reject (label, c) terms whose magnitudes |c| do not sum to a finite float.

    The sum bounds every entry of sum c P and its every eigenvalue.
    """
    if not math.isfinite(sum(abs(float(c)) for _, c in terms)):
        raise ValueError("Hamiltonian coefficients must be finite, and so must the sum of "
                         f"their magnitudes, got {[float(c) for _, c in terms]}")


def string_hamiltonian(terms: Sequence[tuple[str, float]]) -> np.ndarray:
    """The Hermitian matrix sum of c * P over (label, c) terms, each P of real phase."""
    require_finite_sum(terms)
    # summed in place in term order, so memory stays a few matrices however many terms there
    # are; from 0, as sum() starts, so a -0.0 entry adds up to the same bits
    h = 0
    for label, coeff in terms:
        p = pauli(label)
        if p.phase not in (1, -1):
            raise ValueError("Hamiltonian strings must carry a real phase")
        h += float(coeff) * to_matrix(p)
    return h


@lru_cache(maxsize=16)
def product_table(labels: tuple[str, ...]) -> np.ndarray:
    """Read-only (k, k) int array: table[i, j] is the position of labels[i] * labels[j].

    Built once per label tuple.  A product outside the labels raises KeyError.
    """
    np = _numpy()
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
    np = _numpy()
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
    """Phase-free strings commuting with every generator, in enumeration order.

    Commuting with g and h means commuting with gh, so the scan tests only the
    generators whose masks x << n | z are independent over GF(2) of the ones
    kept before them, at most 2n: a mask that the kept ones reduce to 0 is a
    product of them.
    """
    if not 1 <= qubits <= MAX_COMMUTANT_QUBITS:
        raise ValueError(f"qubits must be between 1 and {MAX_COMMUTANT_QUBITS}, got {qubits}")
    reduced, independent = [], []
    for g in generators:
        if g.n_qubits != qubits:
            raise ValueError("generator qubit count mismatch")
        m = g.x << qubits | g.z
        for r in reduced:
            m = min(m, m ^ r)  # clears r's leading bit when m holds it
        if m:
            reduced.append(m)
            independent.append(g)
    return [p for p in iter_strings(qubits) if all(commutes(p, g) for g in independent)]


def pauli_group() -> list[PauliString]:
    """The 16 single-qubit group elements, grouped by factor then phase."""
    return [PauliString(ph, (f,)) for f in "IXYZ" for ph in PHASES]
