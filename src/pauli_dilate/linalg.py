"""Dense complex linear algebra for small (at most 8x8) operator spaces.

Tensor factors are ordered system first, environment second.  Product basis
states are enumerated in *descending* binary order: a single qubit reads
{|1>, |0>}, two qubits read {|11>, |10>, |01>, |00>}, and so on.  Every
matrix in this package is written in that convention.
"""

from __future__ import annotations

import numpy as np

DEFAULT_TOL = 1e-10


class ToleranceError(RuntimeError):
    """A numerical residual exceeded its acceptance tolerance."""


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array and reject non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def as_reals(value, field: str, count: int | None = None):
    """A descriptor field as one float, or as a tuple of `count` floats.

    Anything else, a missing (None) field included, raises a one-line
    ValueError naming the field, the expected form and the value received.
    """
    try:
        if count is None:
            return float(value)
        if isinstance(value, (list, tuple)) and len(value) == count:
            return tuple(float(v) for v in value)
    except (TypeError, ValueError, OverflowError):
        pass
    form = "a number" if count is None else f"a list of {count} numbers"
    raise ValueError(f"{field} must be {form}, got {'nothing' if value is None else repr(value)}")


def kron(a, b) -> np.ndarray:
    """Kronecker product, left factor = system slot."""
    return np.kron(as_complex_matrix(a), as_complex_matrix(b))


def partial_trace_env(m, dim_s: int, dim_e: int) -> np.ndarray:
    """Trace out the (right) environment factor of a (dim_s*dim_e)^2 matrix."""
    a = as_complex_matrix(m)
    d = dim_s * dim_e
    if a.shape != (d, d):
        raise ValueError(f"expected shape {(d, d)}, got {a.shape}")
    return np.einsum("iaja->ij", a.reshape(dim_s, dim_e, dim_s, dim_e))


def frob_dist(a, b) -> float:
    """Frobenius distance ||a - b||_F."""
    a = as_complex_matrix(a)
    b = as_complex_matrix(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def hermiticity_defect(m) -> float:
    a = as_complex_matrix(m)
    return float(np.linalg.norm(a - a.conj().T))


def mat_exp_hermitian(h, t: float) -> np.ndarray:
    """Unitary exp(-i h t) = V exp(-i w t) V+ from the eigendecomposition h = V w V+."""
    a = as_complex_matrix(h)
    if hermiticity_defect(a) > 1e-12:
        raise ValueError("generator is not Hermitian within 1e-12")
    w, v = np.linalg.eigh(a)
    top = float(max(-w[0], w[-1]))  # eigh sorts w ascending
    if not np.isfinite(float(t) * top):
        raise ValueError(f"exp(-i h t) overflows: t = {t} times the eigenvalue {top:.6g}")
    return (v * np.exp(-1j * float(t) * w)) @ v.conj().T


def eig_rank(h, tol: float = DEFAULT_TOL) -> int:
    """Number of eigenvalues above tol for a Hermitian PSD matrix."""
    a = as_complex_matrix(h)
    if hermiticity_defect(a) > DEFAULT_TOL:
        raise ValueError("eig_rank requires a Hermitian input")
    return int(np.sum(np.linalg.eigvalsh(a) > tol))


def trace_distance(a, b) -> float:
    """Half the trace norm of the (Hermitian) difference of two states."""
    diff = as_complex_matrix(a) - as_complex_matrix(b)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))


def basis_index(label: str) -> int:
    """Index of a computational basis state under the descending ordering.

    basis_index("11") == 0 and basis_index("00") == 3 for two qubits.
    """
    if not label or any(c not in "01" for c in label):
        raise ValueError(f"invalid basis label {label!r}")
    idx = 0
    for c in label:
        idx = 2 * idx + (1 - int(c))
    return idx


def basis_state(label: str) -> np.ndarray:
    """Unit column vector for a computational basis label such as "11"."""
    vec = np.zeros(2 ** len(label), dtype=np.complex128)
    vec[basis_index(label)] = 1.0
    return vec


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Gaussian matrix, phases fixed."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
