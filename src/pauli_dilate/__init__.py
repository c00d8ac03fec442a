"""Symmetric dilations of single-qubit Pauli channels and semigroups.

Importing the package loads none of its modules.  Each public name below is
read from its module on first access (PEP 562), so `import pauli_dilate`
stays cheap and a program loads only the layers it uses.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("validation", "pauli", "linalg", "channels", "dilations", "dynamics", "collisions",
            "verify", "cli")

# module -> the public names it defines
_EXPORTS = {
    "channels": ("PauliChannel", "PauliLiouvillian", "bloch_state", "channel_from_descriptor",
                 "probs_from_scaling", "semigroup_channel", "semigroup_rates"),
    "collisions": ("CollisionConfig", "collision_channel", "convergence_report"),
    "dilations": ("GroupRep", "Isometry", "SU2Generators", "channel_of_isometry",
                  "defining_pauli_rep", "solve_env_rep", "solve_su2_generators"),
    "dynamics": ("ChannelGrid", "KrylovSubspace", "PhysicalDilation", "Schedule",
                 "build_depolarizing_dilation", "build_generic_pauli_dilation",
                 "build_phase_damping_dilation", "channels_on_grid", "isometry_at",
                 "krylov_subspace", "replay_schedule", "restricted_commutator_norm",
                 "schedule_for_target", "symmetrize_full"),
    "linalg": ("basis_state", "frob_dist", "kron", "mat_exp_hermitian"),
    "pauli": ("PauliString", "commutes", "multiply", "pauli_commutant", "to_matrix"),
    "validation": ("ToleranceError",),
}
_SOURCES = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_SOURCES)


def __getattr__(name: str):
    """A public name from its module, or a module of the package, imported on first use."""
    if name in _SOURCES:
        return getattr(importlib.import_module(f"{__name__}.{_SOURCES[name]}"), name)
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
