"""Physical dilations driven by time-independent Hamiltonians.

A physical dilation is a Hermitian generator H on system (x) environment
plus a pure environment state |psi_E>.  Evolving for time t and tracing out
the environment yields a channel; for the builders in this module that
channel is an exact Pauli channel at every time, and the induced probability
laws are closed-form trigonometric functions of t.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .channels import probs_from_scaling
from .dilations import Isometry
from .linalg import (
    as_complex_matrix,
    basis_state,
    hermiticity_defect,
    kron,
    mat_exp_hermitian,
    mat_exp_hermitian_block,
)
from .pauli import GENERIC_TERMS, PAULI_BASIS, pauli, string_hamiltonian
from .validation import DEFAULT_TOL, as_reals, check_keys

# fixed verification grid for time sweeps
TIME_GRID = np.linspace(0.0, 2.0 * np.pi, 25)

# a channels_on_grid row costs 2-9 us up to 5 qubits and about 17 us at 6, where evolve
# --samples 10**5 would run for about 2 s (2-core Intel Xeon VM, one BLAS thread)
MAX_HAMILTONIAN_QUBITS = 5


@dataclass(frozen=True)
class PhysicalDilation:
    """Generator h on system (x) environment and state psi_e, both held as read-only copies."""

    h: np.ndarray
    psi_e: np.ndarray
    dim_s: int = field(init=False)
    dim_e: int = field(init=False)

    def __post_init__(self):
        h = as_complex_matrix(self.h).copy()
        psi = np.array(self.psi_e, dtype=np.complex128).reshape(-1)
        d, de = len(h), psi.size
        if h.shape != (d, d) or not 0 < de <= d or d % de:
            raise ValueError(f"Hamiltonian shape {h.shape} is not square with a positive "
                             f"multiple of the environment dimension {de} as its size")
        if hermiticity_defect(h) > 1e-12:
            raise ValueError("Hamiltonian is not Hermitian within 1e-12")
        if not abs(np.linalg.norm(psi) - 1.0) <= 1e-12:  # NaN fails too
            raise ValueError("environment state is not normalized")
        h.flags.writeable = False
        psi.flags.writeable = False
        object.__setattr__(self, "h", h)
        object.__setattr__(self, "psi_e", psi)
        object.__setattr__(self, "dim_s", d // de)
        object.__setattr__(self, "dim_e", de)

    def embed(self) -> np.ndarray:
        """The (dim_s*dim_e) x dim_s injection |phi> -> |phi> (x) |psi_E>."""
        return kron(np.eye(self.dim_s), self.psi_e.reshape(-1, 1))


@dataclass(frozen=True)
class KrylovSubspace:
    basis: np.ndarray  # orthonormal columns, one per dimension

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        return self.basis @ self.basis.conj().T


@dataclass(frozen=True)
class Schedule:
    """Piecewise-constant coupling f(t); knots are (segment start, value)."""

    knots: tuple[tuple[float, float], ...]
    t_final: float

    def __post_init__(self):
        times = [t for t, _ in self.knots]
        if not times or times[0] != 0.0:
            raise ValueError("schedule must start at t = 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("knot times must increase strictly")
        if self.t_final <= times[-1]:
            raise ValueError("final time must exceed the last knot")
        object.__setattr__(self, "knots", tuple((float(t), float(f)) for t, f in self.knots))


@dataclass(frozen=True)
class ChannelGrid:
    """Pauli fits of the channels induced by one dilation on a grid of times.

    Each array has one row per time and is held as a read-only view.
    """

    t: np.ndarray            # (n,) time of each row
    probs: np.ndarray        # (n, 4) fitted (pI, px, py, pz), unclamped
    leakage: np.ndarray      # (n,) norms of the non-Pauli parts of the transfer matrices

    def __post_init__(self):
        for name in ("t", "probs", "leakage"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)


# Pauli change of basis of the single-qubit Liouville space: with
# L[(i, j), (k, l)] = sum_e V[(i, e), j] conj(V[(k, e), l]), the Pauli transfer
# matrix r[b, a] = Tr(s_b Tr_E[V s_a V+]) / 2 is the flattened L times this map
_TRANSFER = np.einsum("bki,ajl->ijklba", PAULI_BASIS, PAULI_BASIS).reshape(16, 16) / 2.0


def isometry_at(pd: PhysicalDilation, t: float) -> Isometry:
    u = mat_exp_hermitian(pd.h, t)
    # u @ pd.embed(): contract each column block of u with psi_E, building no kron
    return Isometry(u.reshape(len(u), pd.dim_s, pd.dim_e) @ pd.psi_e)


def channels_on_grid(pd: PhysicalDilation, times) -> ChannelGrid:
    """Pauli fits of the induced channels on a 1-d grid of times, from one eigendecomposition of H.

    The checks hold at every time: the times are finite and nonnegative, H is
    Hermitian within 1e-12, no phase t |w|max overflows, and V+ V deviates
    from the identity by at most 1e-10.
    """
    ts = np.asarray(times, dtype=float)
    if ts.ndim != 1:
        raise ValueError(f"times must be a 1-d grid, got shape {ts.shape}")
    if not np.all(np.isfinite(ts) & (ts >= 0)):
        raise ValueError("times must be finite and nonnegative")
    return _grid_fits(pd, ts, ts)


def _grid_fits(pd: PhysicalDilation, thetas: np.ndarray, labels: np.ndarray) -> ChannelGrid:
    """Fit the channels of exp(-i H theta) for every theta, rows labelled by `labels`.

    Only the block V(theta) = exp(-i H theta) (I (x) psi_E) is evolved.  Its
    Liouville matrix is A^T conj(A) with A[e, (i, j)] = V[(i, e), j], and the
    partial trace of that over i is conj(V+ V), which is held to Isometry's
    1e-10.  The probabilities invert the Bloch-scaling relation; the leakage
    is the Frobenius norm of everything the diagonal Pauli model cannot carry.
    Every product is formed row by row, so a row's bits do not depend on its grid.
    """
    n, ds, de = len(thetas), pd.dim_s, pd.dim_e
    v = mat_exp_hermitian_block(pd.h, thetas, pd.embed())
    # one sum over e per entry, on strided views: cheaper than a batched 4 x 4 GEMM, and
    # it allocates only a conjugated column, since the arrays of a chunk set its peak memory
    a = v.reshape(n, ds, de, ds)
    liouville = np.empty((n, ds, ds, ds, ds), dtype=np.complex128)
    for k, l in itertools.product(range(ds), repeat=2):
        a_kl = a[:, k, :, l].conj()
        for i, j in itertools.product(range(ds), repeat=2):
            np.einsum("te,te->t", a[:, i, :, j], a_kl, out=liouville[:, i, j, k, l])
    gram = liouville[:, 0, :, 0, :] + liouville[:, 1, :, 1, :]  # the trace over i: conj(V+ V)
    if not np.all(np.linalg.norm(gram - np.eye(ds), axis=(1, 2)) <= DEFAULT_TOL):  # NaN fails
        raise ValueError("V+ V deviates from the identity beyond 1e-10")
    r = (liouville.reshape(n, 1, 16) @ _TRANSFER).reshape(n, 4, 4)
    del liouville
    lam = np.real(np.diagonal(r, axis1=1, axis2=2)[:, 1:])
    off_model = r.copy()
    off_model[:, 0, 0] -= 1.0
    off_model[:, [1, 2, 3], [1, 2, 3]] -= lam
    parts = off_model.view(np.float64)  # real and imaginary parts: a norm with no copy
    leakage = np.sqrt(np.einsum("tij,tij->t", parts, parts))
    return ChannelGrid(np.asarray(labels, dtype=float), probs_from_scaling(lam), leakage)


def build_phase_damping_dilation() -> PhysicalDilation:
    """H = Z (x) X with the environment qubit in |1>; p(t) = sin^2(t)."""
    h = string_hamiltonian([("ZX", 1.0)])
    return PhysicalDilation(h, basis_state("1"))


def build_depolarizing_dilation() -> PhysicalDilation:
    """H = XIX + YXI + ZXX on three qubits with |psi_E> = |11>."""
    return build_generic_pauli_dilation(1.0, 1.0, 1.0)


def build_generic_pauli_dilation(a1: float, a2: float, a3: float) -> PhysicalDilation:
    """Weighted generator a1 XIX + a2 YXI + a3 ZXX with |psi_E> = |11>.

    With xi = a1^2 + a2^2 + a3^2 the induced channel has
    p_i(t) = a_i^2 sin^2(sqrt(xi) t) / xi.
    """
    h = string_hamiltonian(list(zip(GENERIC_TERMS, (a1, a2, a3))))
    return PhysicalDilation(h, basis_state("11"))


def dilation_from_descriptor(desc: dict) -> PhysicalDilation:
    """Build a dilation from its JSON descriptor.

    Supported forms:
      {"builder": "phase_damping" | "depolarizing"}
      {"builder": "generic", "a": [a1, a2, a3]}
      {"hamiltonian": [["ZX", 1.0], ...], "psiE": "1"}
    A key that the form does not read is rejected.
    """
    if not isinstance(desc, dict):
        raise ValueError("dilation descriptor must be an object")
    if "builder" in desc:
        name = desc["builder"]
        if name in ("phase_damping", "depolarizing", "generic"):
            keys = ("builder", "a") if name == "generic" else ("builder",)
            check_keys(desc, f"the {name!r} builder", keys)
        if name == "phase_damping":
            return build_phase_damping_dilation()
        if name == "depolarizing":
            return build_depolarizing_dilation()
        if name == "generic":
            a = as_reals(desc.get("a"), "'generic' field \"a\"", 3)
            return build_generic_pauli_dilation(*a)
        raise ValueError(f"unknown builder {name!r}")
    if "hamiltonian" in desc:
        check_keys(desc, "a custom Hamiltonian", ("hamiltonian", "psiE"))
        terms = desc["hamiltonian"]
        if not isinstance(terms, (list, tuple)) or not terms:
            raise ValueError('"hamiltonian" needs a non-empty list of [string, coefficient] terms')
        for term in terms:
            if not (isinstance(term, (list, tuple)) and len(term) == 2
                    and isinstance(term[0], str)):
                raise ValueError(f"Hamiltonian term {term!r} is not a [string, coefficient] pair")
        lengths = {pauli(l).n_qubits for l, _ in terms}  # a phase prefix is no qubit
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
        h = string_hamiltonian([(l, as_reals(c, f"coefficient of {l!r}")) for l, c in terms])
        return PhysicalDilation(h, basis_state(psi_label))
    raise ValueError("dilation descriptor needs 'builder' or 'hamiltonian'")


def krylov_subspace(pd: PhysicalDilation) -> KrylovSubspace:
    """Orthonormal basis of span{H^k (|phi_j> (x) |psi_E>)}.

    Seeds run over the system basis; powers of H are applied until the rank
    saturates.  Gram-Schmidt with one reorthogonalization pass.
    """
    basis: list[np.ndarray] = []

    def add(vec: np.ndarray) -> bool:
        w = vec.astype(np.complex128)
        for _ in range(2):
            for b in basis:
                w = w - b * (b.conj() @ w)
        norm = np.linalg.norm(w)
        if norm <= DEFAULT_TOL:
            return False
        basis.append(w / norm)
        return True

    frontier = []
    for col in pd.embed().T:
        if add(col):
            frontier.append(basis[-1])
    while frontier and len(basis) < len(pd.h):
        next_frontier = []
        for vec in frontier:
            if add(pd.h @ vec):
                next_frontier.append(basis[-1])
        frontier = next_frontier
    return KrylovSubspace(np.column_stack(basis))


def restricted_commutator_norm(pd: PhysicalDilation, sym, k: KrylovSubspace) -> float:
    """|| P [sym, H] P ||_F with P the projector onto the subspace."""
    s = as_complex_matrix(sym)
    p = k.projector()
    comm = s @ pd.h - pd.h @ s
    return float(np.linalg.norm(p @ comm @ p))


def symmetrize_full(pd: PhysicalDilation, k: KrylovSubspace) -> PhysicalDilation:
    """Replace H by its block on the subspace plus the identity elsewhere.

    The subspace must be invariant under H; the induced channel is unchanged
    because the dynamics never leaves the subspace.
    """
    p = k.projector()
    invariance = np.linalg.norm(pd.h @ p - p @ (pd.h @ p))
    if invariance > DEFAULT_TOL:
        raise ValueError(f"subspace is not invariant under H (defect {invariance:.3e})")
    h2 = p @ pd.h @ p + (np.eye(len(p)) - p)
    h2 = 0.5 * (h2 + h2.conj().T)
    return PhysicalDilation(h2, pd.psi_e)


def schedule_for_target(p_target: Callable[[float], float], t_final: float,
                        steps: int) -> Schedule:
    """Piecewise-constant coupling reproducing a target probability curve.

    The accumulated phase Theta(t) solves cos(2 Theta) = 1 - 2 p(t); the
    arccos branch is unwrapped by continuity so p may pass through 0 and 1.
    """
    if steps < 1:
        raise ValueError("need at least one step")
    if t_final <= 0:
        raise ValueError("final time must be positive")
    times = np.linspace(0.0, t_final, steps + 1)
    values = np.array([float(p_target(t)) for t in times])
    if not np.all(np.isfinite(values)):  # NaN would pass both range checks below
        raise ValueError("target probability must be finite")
    if abs(values[0]) > 1e-9:
        raise ValueError("target probability must start at 0")
    if values.min() < -1e-9 or values.max() > 1 + 1e-9:
        raise ValueError("target probability must stay within [0, 1]")
    # the sampled p fixes the phase 2*Theta only up to reflection, so the
    # branch is chosen by trend continuation (linear prediction), which keeps
    # the coupling smooth through p = 0 and p = 1: of the candidates
    # 2 pi m +- c with m within one of the branch of the last phase, the one
    # nearest the prediction wins, and of two equally near ones the larger
    two_pi = 2 * math.pi
    phases = [0.0]
    prev = pred = 0.0
    for val in values[1:].tolist():
        c = math.acos(min(1.0, max(-1.0, 1.0 - 2.0 * val)))
        m0 = round(prev / two_pi)
        best, gap = 0.0, math.inf
        for base in (two_pi * (m0 - 1), two_pi * m0, two_pi * (m0 + 1)):
            for x in (base + c, base - c):
                d = abs(x - pred)
                if d < gap or d == gap and x > best:
                    best, gap = x, d
        phases.append(best)
        prev, pred = best, 2 * best - prev
    thetas = [ph / 2.0 for ph in phases]
    dt = times[1] - times[0]
    knots = tuple((float(times[i]), float((thetas[i + 1] - thetas[i]) / dt))
                  for i in range(steps))
    return Schedule(knots, float(t_final))


def replay_schedule(sched: Schedule, pd: PhysicalDilation | None = None) -> ChannelGrid:
    """Fit the channel at each segment end of the coupling f(t) H.

    The base generator defaults to the phase damping dilation.  Every segment
    is f_k H with the same H, so the segments commute and the evolution up to
    boundary k is exp(-i H Theta_k) with Theta_k = sum_{j <= k} f_j dt_j.  The
    grid holds one row per segment, at Theta_k, with t the segment's end; a
    signed coupling may make Theta_k negative.
    """
    if pd is None:
        pd = build_phase_damping_dilation()
    starts, values = np.array(sched.knots).T
    ends = np.append(starts[1:], sched.t_final)
    return _grid_fits(pd, np.cumsum(values * (ends - starts)), ends)
