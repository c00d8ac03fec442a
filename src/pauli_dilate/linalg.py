"""Dense complex linear algebra for small (at most 8x8) operator spaces.

Tensor factors are ordered system first, environment second.  Product basis
states are enumerated in *descending* binary order: a single qubit reads
{|1>, |0>}, two qubits read {|11>, |10>, |01>, |00>}, and so on.  Every
matrix in this package is written in that convention.
"""

from __future__ import annotations

import numpy as np


def as_complex_matrix(m) -> np.ndarray:
    """Coerce to a 2-d complex array and reject non-finite entries."""
    a = np.asarray(m, dtype=np.complex128)
    if a.ndim != 2:
        raise ValueError(f"expected a matrix, got ndim={a.ndim}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    return a


def kron(a, b) -> np.ndarray:
    """Kronecker product, left factor = system slot.

    np.kron's product of the two coerced matrices, bit for bit, as one broadcast.
    """
    a, b = as_complex_matrix(a), as_complex_matrix(b)
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


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


def gram_defects(mats) -> np.ndarray:
    """Frobenius norms of M+ M - I for each matrix of a (k, m, n) stack, one batched Gram."""
    a = np.asarray(mats, dtype=np.complex128)
    gram = np.conj(np.swapaxes(a, -1, -2)) @ a
    idx = np.arange(a.shape[-1])
    gram[:, idx, idx] -= 1.0
    return np.linalg.norm(gram, axis=(-2, -1))


def _checked_eigh(h, t) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition h = V w V+ of a generator whose exp(-i h t) stays finite.

    Coerces h, requires Hermiticity within 1e-12 in Frobenius norm, and rejects
    a time t (the largest one of a grid) whose phase t |w|max overflows.
    """
    a = as_complex_matrix(h)
    if np.linalg.norm(a - a.conj().T) > 1e-12:  # hermiticity_defect, without a second coercion
        raise ValueError("generator is not Hermitian within 1e-12")
    w, v = np.linalg.eigh(a)
    top = float(max(-w[0], w[-1]))  # eigh sorts w ascending
    if not np.isfinite(float(t) * top):
        raise ValueError(f"exp(-i h t) overflows: t = {t} times the eigenvalue {top:.6g}")
    return w, v


def mat_exp_hermitian(h, t: float) -> np.ndarray:
    """Unitary exp(-i h t) = V exp(-i w t) V+ from the eigendecomposition h = V w V+."""
    w, v = _checked_eigh(h, t)
    return (v * np.exp(-1j * float(t) * w)) @ v.conj().T


def mat_exp_hermitian_block(h, times, x) -> np.ndarray:
    """exp(-i h t) @ x for every t of a 1-d grid, stacked (n, d, k), from one eigendecomposition.

    Each product is V exp(-i w t) (V+ x), so only the d x k block is formed,
    never the d x d unitary; the overflow check is made once, at the largest |t|.
    """
    ts = np.asarray(times, dtype=float)
    w, v = _checked_eigh(h, np.max(np.abs(ts), initial=0.0))
    y = v.conj().T @ as_complex_matrix(x)
    return v @ (np.exp(-1j * np.multiply.outer(ts, w))[:, :, None] * y)


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
