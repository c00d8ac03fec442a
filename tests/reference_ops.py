"""Reference operations that only the tests use: Haar-random unitaries and a Kraus sum."""

import numpy as np


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a Gaussian matrix, phases fixed."""
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def kraus_apply(kraus, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k+, one Kraus operator at a time."""
    return sum(k @ rho @ k.conj().T for k in kraus)
