"""Single-qubit Pauli channels and Pauli dynamical semigroups.

A Pauli channel is the mixture rho -> sum_a p_a sigma_a rho sigma_a over
{I, x, y, z}.  On the Bloch sphere it scales each component of r by

    lambda_x = pI + px - py - pz   (and cyclic),

which is invertible, so the channel is equivalently described by its
probability 4-vector or its scaling 3-vector.

A channel, a semigroup and their descriptors are Python floats, and so is
the minimal dilation of a channel with its environment representation: the
isometry stacks sqrt(p_a) sigma_a, pi_E(g) is the table of commutation signs,
and the SU(2) generators of the isotropic case are the adjoint
representation.  None of it needs numpy, so `channel`, `dilate` and `rep`
start without it.  The matrix and stack helpers (pauli_kraus, kraus_choi,
kraus_action, the Bloch-state and density-matrix forms, the scaling maps of
stacks, and a channel's apply, kraus_ops and choi) import numpy on first use.

The descriptors of channels and semigroups are read here, and so are those of
Hamiltonian dilations, as (label, coefficient) terms and a psiE label: the
builders are term lists, and evolve reads their law without numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import TYPE_CHECKING, Sequence

from . import pauli
from .pauli import GENERIC_TERMS, PauliString, commutes, pauli_group, require_finite_sum
from .validation import (DEFAULT_TOL, as_reals, check_keys, clipped_repr,
                         require_env_rep_residual, require_minimal, require_rotation_generators)

if TYPE_CHECKING:
    import numpy as np

PROB_TOL = 1e-12

# a channels_on_grid row costs 2-9 us up to 5 qubits and about 17 us at 6, where evolve
# --samples 10**5 would run for about 2 s (2-core Intel Xeon VM, one BLAS thread)
MAX_HAMILTONIAN_QUBITS = 5

# the builders' dilations as (terms, psiE label): phase damping is H = Z (x) X from |1>, and
# a generic channel is a1 XIX + a2 YXI + a3 ZXX from |11>, depolarizing at a = (1, 1, 1)
PHASE_DAMPING_DILATION = ((("ZX", 1.0),), "1")


def generic_dilation(a1: float, a2: float, a3: float) -> tuple[tuple[tuple[str, float], ...], str]:
    return tuple(zip(GENERIC_TERMS, (a1, a2, a3))), "11"


def validate_density_matrix(rho) -> np.ndarray:
    from .linalg import as_complex_matrix

    a = as_complex_matrix(rho)
    if a.shape != (2, 2):
        raise ValueError(f"expected a 2x2 density matrix, got shape {a.shape}")
    return validate_density_matrices(a[None])[0]


def validate_density_matrices(rhos) -> np.ndarray:
    """An (n, 2, 2) stack of density matrices, each held to validate_density_matrix's checks.

    Hermiticity, trace and positivity are tested for the whole stack at once,
    positivity from one batched eigvalsh; a failure raises the one-matrix message.
    """
    np = pauli._numpy()
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
    np = pauli._numpy()
    return np.sqrt(np.asarray(p, dtype=float))[..., None, None] * pauli.PAULI_BASIS


def kraus_choi(kraus: np.ndarray) -> np.ndarray:
    """Choi matrices sum_ij E_ij (x) phi[E_ij] of (..., k, 2, 2) Kraus stacks: (..., 4, 4).

    Entry ((i, a), (j, b)) is phi[E_ij][a, b] = sum_k K_k[a, i] conj(K_k[b, j]).
    """
    out = pauli._numpy().einsum("...kai,...kbj->...iajb", kraus, kraus.conj())
    return out.reshape(*out.shape[:-4], 4, 4)


def kraus_action(kraus: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """sum_k K_k rho K_k+ for (..., k, 2, 2) Kraus stacks and (..., 2, 2) states."""
    return pauli._numpy().einsum("...kab,...bc,...kdc->...ad", kraus, rho, kraus.conj())


def bloch_states(r) -> np.ndarray:
    """Density matrices (I + r . sigma) / 2 of an (n, 3) stack of Bloch vectors with |r| <= 1."""
    np = pauli._numpy()
    v = np.asarray(r, dtype=float)
    if v.ndim != 2 or v.shape[1] != 3:
        raise ValueError("Bloch vector must have 3 components")
    if np.any(np.linalg.norm(v, axis=1) > 1 + 1e-12):
        raise ValueError("Bloch vector lies outside the unit ball")
    return 0.5 * (pauli.ID2 + np.einsum("ni,iab->nab", v, pauli.PAULI_BASIS[1:]))


def bloch_state(r) -> np.ndarray:
    """Density matrix (I + r . sigma) / 2 for a Bloch vector with |r| <= 1."""
    v = pauli._numpy().asarray(r, dtype=float)
    if v.shape != (3,):
        raise ValueError("Bloch vector must have 3 components")
    return bloch_states(v[None])[0]


def bloch_vectors(rhos: np.ndarray) -> np.ndarray:
    """Bloch vectors tr(sigma_i rho) of an (n, 2, 2) stack of states: shape (n, 3)."""
    return pauli._numpy().einsum("iab,nba->ni", pauli.PAULI_BASIS[1:], rhos).real


def _scalings(pi, px, py, pz):
    """Bloch scalings (lx, ly, lz) of probabilities, on Python floats or on numpy columns."""
    return pi + px - py - pz, pi - px + py - pz, pi - px - py + pz


def _probs(lx, ly, lz):
    """Probabilities (pI, px, py, pz) of Bloch scalings, on Python floats or on numpy columns."""
    return (0.25 * (1 + lx + ly + lz), 0.25 * (1 + lx - ly - lz), 0.25 * (1 - lx + ly - lz),
            0.25 * (1 - lx - ly + lz))


def scalings_from_probs(p) -> np.ndarray:
    """Bloch scalings (lx, ly, lz) of probabilities (pI, px, py, pz).

    An (n, 4) stack of probabilities gives the (n, 3) stack of scalings.
    """
    np = pauli._numpy()
    return np.array(_scalings(*np.asarray(p, dtype=float).T)).T


def probs_from_scaling(lam) -> np.ndarray:
    """Invert the Bloch-scaling map: probabilities (pI, px, py, pz).

    An (n, 3) stack of scalings gives the (n, 4) stack of probabilities.
    """
    np = pauli._numpy()
    return np.array(_probs(*np.asarray(lam, dtype=float).T)).T


# sigma_a in the slot order I, x, y, z, as rows of Python complex numbers
_SLOTS = "IXYZ"
_SIGMA = tuple(tuple(tuple(complex(v) for v in row) for row in m) for m in (
    ((1, 0), (0, 1)), ((0, 1), (1, 0)), ((0, -1j), (1j, 0)), ((1, 0), (0, -1))))
# the Levi-Civita symbol on the slots x, y, z (1, 2, 3); 0 wherever the I slot appears
_EPS = {(1, 2, 3): 1, (2, 3, 1): 1, (3, 1, 2): 1, (1, 3, 2): -1, (3, 2, 1): -1, (2, 1, 3): -1}


def _matmul(a, b) -> list[list[complex]]:
    cols = list(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def _on_system(g, rows) -> list[list[complex]]:
    """(g (x) I) V for a 2x2 g and V given by its rows, row i * r + j for system index i."""
    r = len(rows) // 2
    return [[g[i][0] * a + g[i][1] * b for a, b in zip(rows[j], rows[r + j])]
            for i in (0, 1) for j in range(r)]


def _on_env(e, rows) -> list[list[complex]]:
    """(I (x) e) V for an r x r e and V given by its rows, row i * r + j for system index i."""
    r = len(e)
    return [row for i in (0, 1) for row in _matmul(e, rows[i * r:(i + 1) * r])]


def _adjoint(a) -> list[list[complex]]:
    return [[v.conjugate() for v in col] for col in zip(*a)]


def _identity(n: int) -> list[list[complex]]:
    return [[complex(i == j) for j in range(n)] for i in range(n)]


def _sub(a, b) -> list[list[complex]]:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def _frob_dist(a, b) -> float:
    """||a - b||_F, the squares of the real parts summed first, then those of the imaginary."""
    d = [z for row in _sub(a, b) for z in row]
    return math.sqrt(sum(z.real * z.real for z in d) + sum(z.imag * z.imag for z in d))


def _gram_defect(rows) -> float:
    """||W+ W - I||_F of a two-column matrix W given by its rows, summed in row order."""
    return _frob_dist(_matmul(_adjoint(rows), rows), _identity(2))


@dataclass(frozen=True)
class MinimalDilation:
    """The minimal Stinespring isometry V of a Pauli channel, in Python complex numbers.

    `slots` are the Kraus slots a with p_a > 0, as 0-3 in the order I, x, y, z.
    With r = len(slots), row i * r + j of `rows` is K_j[i, :] = sqrt(p_a) sigma_a[i, :]
    for the j-th slot a, so V |phi> = sum_j K_j |phi> (x) |e_j>: system index i
    outer, environment slot j inner, and |e_0> = |1...1> in the descending basis of
    the environment.  `defect` is ||V+ V - I||_F, summed row by row.
    """

    slots: tuple[int, ...]
    rows: tuple[tuple[complex, complex], ...]
    defect: float

    def env_rep(self, tol: float = DEFAULT_TOL) -> list[tuple[str, list, float, float]]:
        """pi_E(g) = diag(chi_a(g)) over the slots, for the 16 Pauli-group elements g.

        g sigma_a g+ = chi_a(g) sigma_a, and chi_a(g) = +1 where sigma_a commutes
        with g (pauli.commutes) and -1 where it anticommutes, so V g =
        (g (x) pi_E(g)) V.  Each element, in pauli_group() order, comes as (label,
        pi_E(g), the residual ||V g - (g (x) pi_E(g)) V||_F, the unitarity defect
        ||pi_E(g)+ pi_E(g) - I||_F).  Raises ToleranceError, as
        dilations.solve_env_rep does, when the worst residual exceeds tol.
        """
        r = len(self.slots)
        sigmas = [PauliString(1, (_SLOTS[a],)) for a in self.slots]
        elements = []
        for g in pauli_group():
            chi = [1 if commutes(s, g) else -1 for s in sigmas]
            pi_e = [[complex(c) if j == k else 0j for k in range(r)] for j, c in enumerate(chi)]
            mat = [[g.phase * v for v in row] for row in _SIGMA[_SLOTS.index(g.factors[0])]]
            lifted = _on_env(pi_e, _on_system(mat, self.rows))
            residual = _frob_dist(_matmul(self.rows, mat), lifted)
            defect = _frob_dist(_matmul(_adjoint(pi_e), pi_e), _identity(r))
            elements.append((str(g), pi_e, residual, defect))
        require_env_rep_residual(max(e[2] for e in elements), tol)
        return elements

    def su2_generators(self, tol: float = DEFAULT_TOL) -> tuple[list, tuple[float, ...]]:
        """The rotation generators (J_a)[b, c] = -2i eps_abc on the slots x, y, z, 0 on I.

        They are the adjoint representation of su(2), and they solve
        (I (x) J_a) V = V sigma_a - (sigma_a (x) I) V when px = py = pz, which
        needs all four slots.  Returns ([jx, jy, jz], residuals): residual a is the
        larger of that equation's ||.||_F and ||J_a - J_a+||_F.  Raises
        ToleranceError, as dilations.solve_su2_generators does, when the worst
        residual or the defect of [J_a, J_b] = 2i eps_abc J_c exceeds tol.
        """
        if self.slots != (0, 1, 2, 3):
            raise ValueError("the SU(2) generators act on the four Kraus slots I, x, y, z")
        gens = [[[-2j * _EPS.get((a, b, c), 0) for c in range(4)] for b in range(4)]
                for a in (1, 2, 3)]
        residuals = []
        for a, j in zip((1, 2, 3), gens):
            s = _SIGMA[a]
            rhs = _sub(_matmul(self.rows, s), _on_system(s, self.rows))
            residuals.append(max(_frob_dist(_on_env(j, self.rows), rhs),
                                 _frob_dist(j, _adjoint(j))))
        algebra = max(_frob_dist(_sub(_matmul(ja, jb), _matmul(jb, ja)),
                                 [[2j * v for v in row] for row in jc])
                      for ja, jb, jc in (gens, gens[1:] + gens[:1], gens[2:] + gens[:2]))
        require_rotation_generators(max(*residuals, algebra), tol)
        return gens, tuple(residuals)


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

    def minimal_dilation(self) -> MinimalDilation:
        """The isometry stacked from the Kraus operators of kraus_ops(), in closed form.

        It is checked as Isometry checks its V: V+ V = sum_j K_j+ K_j, summed row by
        row, must be the identity within DEFAULT_TOL, and its deviation is the
        `isometry_defect` that `dilate` prints.  A weight in (0, 5e-11] keeps a slot
        that the Kraus rank does not count, and is rejected as not minimal.
        """
        slots = tuple(a for a, p in enumerate(self.p) if p > 0.0)
        kraus = [[[math.sqrt(self.p[a]) * v for v in row] for row in _SIGMA[a]] for a in slots]
        rows = tuple(tuple(k[i]) for i in range(2) for k in kraus)
        defect = _gram_defect(rows)
        if defect > DEFAULT_TOL:
            raise ValueError("V+ V deviates from the identity beyond 1e-10")
        require_minimal(self.choi_spectrum()[1], len(slots))
        return MinimalDilation(slots, rows, defect)

    def bloch_scaling(self) -> tuple[float, float, float]:
        return _scalings(*self.p)

    def compose(self, other: "PauliChannel") -> "PauliChannel":
        """Channel composition; scalings multiply componentwise."""
        return PauliChannel(_probs(*(a * b for a, b in zip(self.bloch_scaling(),
                                                           other.bloch_scaling()))))


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
        from .linalg import as_complex_matrix

        a = as_complex_matrix(rho)
        if a.shape != (2, 2):
            raise ValueError("Liouvillian acts on 2x2 matrices")
        out = pauli._numpy().zeros_like(a)
        for g, s in zip(self.gamma, pauli.SIGMA):
            out += g * (s @ a @ s - a)
        return out


def semigroup_scalings(gamma, t) -> np.ndarray:
    """lambda_i(t) = exp(-2 t sum_{j != i} gamma_j).

    A column of times t[:, None] gives one row of scalings per time.
    """
    np = pauli._numpy()
    g = np.asarray(gamma, dtype=float)
    with np.errstate(over="ignore"):  # an exponent past the float range decays to 0
        return np.exp(-t * (2.0 * (g.sum() - g)))


def semigroup_rates(lam, t: float) -> np.ndarray:
    """The rates gamma whose semigroup scales the Bloch vector by lam at time t.

    The inverse of semigroup_scalings: u_i = -log(lambda_i) / (2 t) is
    sum_{j != i} gamma_j, so gamma_i = sum(u) / 2 - u_i.
    """
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"time must be finite and positive, got {t}")
    np = pauli._numpy()
    scalings = np.asarray(lam, dtype=float)
    if scalings.min() <= 0:
        raise ValueError("Bloch component crossed zero; cannot fit a decay rate")
    u = -np.log(scalings) / (2.0 * t)
    return u.sum() / 2.0 - u


def semigroup_channel(lv: PauliLiouvillian, t: float) -> PauliChannel:
    """The Pauli channel exp(L t) in closed form, semigroup_scalings on Python floats.

    The exponent is never positive, and one past the float range is -inf, which
    math.exp takes to 0.
    """
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"time must be finite and nonnegative, got {t}")
    total = sum(lv.gamma)
    return PauliChannel(_probs(*(math.exp(-t * (2.0 * (total - g))) for g in lv.gamma)))


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
    raise ValueError(f"unknown channel type {clipped_repr(kind)}")


def dilation_terms(desc: dict) -> tuple[Sequence[tuple[str, float]], str]:
    """The (label, coefficient) terms and the psiE label of a dilation descriptor.

    Supported forms:
      {"builder": "phase_damping" | "depolarizing"}
      {"builder": "generic", "a": [a1, a2, a3]}
      {"hamiltonian": [["ZX", 1.0], ...], "psiE": "1"}
    A key that the form does not read is rejected, and so are strings of
    different lengths, more than MAX_HAMILTONIAN_QUBITS qubits, a psiE label
    that does not cover the environment qubits, and coefficients whose
    magnitudes do not sum to a finite float.  The phases and the label's
    letters are checked where the terms are used.
    """
    if not isinstance(desc, dict):
        raise ValueError("dilation descriptor must be an object")
    if "builder" in desc:
        name = desc["builder"]
        if name in ("phase_damping", "depolarizing", "generic"):
            keys = ("builder", "a") if name == "generic" else ("builder",)
            check_keys(desc, f"the {name!r} builder", keys)
        if name == "phase_damping":
            terms, psi_label = PHASE_DAMPING_DILATION
        elif name == "depolarizing":
            terms, psi_label = generic_dilation(1.0, 1.0, 1.0)
        elif name == "generic":
            a = as_reals(desc.get("a"), "'generic' field \"a\"", 3)
            terms, psi_label = generic_dilation(*a)
        else:
            raise ValueError(f"unknown builder {clipped_repr(name)}")
    elif "hamiltonian" in desc:
        check_keys(desc, "a custom Hamiltonian", ("hamiltonian", "psiE"))
        terms = desc["hamiltonian"]
        if not isinstance(terms, (list, tuple)) or not terms:
            raise ValueError('"hamiltonian" needs a non-empty list of [string, coefficient] terms')
        for term in terms:
            if not (isinstance(term, (list, tuple)) and len(term) == 2
                    and isinstance(term[0], str)):
                raise ValueError(f"Hamiltonian term {clipped_repr(term)} is not a "
                                 "[string, coefficient] pair")
        lengths = {pauli.pauli(l).n_qubits for l, _ in terms}  # a phase prefix is no qubit
        if len(lengths) != 1:
            raise ValueError("Hamiltonian strings must share one length")
        n, = lengths
        if n > MAX_HAMILTONIAN_QUBITS:
            raise ValueError(f"Hamiltonian strings act on {n} qubits, more than the cap of "
                             f"{MAX_HAMILTONIAN_QUBITS}")
        psi_label = desc.get("psiE")
        if n < 2 or not isinstance(psi_label, str) or len(psi_label) != n - 1:
            raise ValueError("psiE label must cover the environment qubits, and every "
                             "Hamiltonian string needs the system qubit and at least one of them")
        terms = [(l, as_reals(c, f"coefficient of {l!r}")) for l, c in terms]
    else:
        raise ValueError("dilation descriptor needs 'builder' or 'hamiltonian'")
    require_finite_sum(terms)
    return terms, psi_label
