"""Symmetric dilations of single-qubit Pauli channels and semigroups."""

from .channels import (
    PauliChannel,
    PauliLiouvillian,
    bloch_state,
    bloch_vector,
    channel_from_descriptor,
    probs_from_scaling,
    semigroup_channel,
)
from .collisions import (
    CollisionConfig,
    collision_channel,
    convergence_report,
    fit_decay_rates,
)
from .dilations import (
    GroupRep,
    Isometry,
    SU2Generators,
    channel_of_isometry,
    check_strong_conservation,
    defining_pauli_rep,
    depolarizing_isometry,
    dilation_from_kraus,
    pauli_channel_isometry,
    phase_damping_isometry,
    solve_env_rep,
    solve_su2_generators,
)
from .dynamics import (
    ChannelGrid,
    KrylovSubspace,
    PhysicalDilation,
    Schedule,
    build_depolarizing_dilation,
    build_generic_pauli_dilation,
    build_phase_damping_dilation,
    channel_at_time,
    channels_on_grid,
    isometry_at,
    krylov_subspace,
    replay_schedule,
    restricted_commutator_norm,
    schedule_for_target,
    symmetrize_full,
)
from .linalg import ToleranceError, basis_state, frob_dist, kron, mat_exp_hermitian
from .pauli import PauliString, commutes, multiply, pauli_commutant, to_matrix

__version__ = "0.1.0"
