"""Tolerances, descriptor-field checks and the dilation checks whose messages the
closed forms and the solvers share; used by every layer and free of numpy.

`cli` reads these before it knows which command runs, so a command that does
no numerical work (`commutant`) starts without numpy.
"""

from __future__ import annotations

DEFAULT_TOL = 1e-10


class ToleranceError(RuntimeError):
    """A numerical residual exceeded its acceptance tolerance."""


def clipped_repr(value) -> str:
    """repr(value) for a one-line error, cut after 160 characters and then giving its length."""
    shown = repr(value)
    if len(shown) > 160:
        shown = f"{shown[:160]}... ({len(shown)} characters)"
    return shown


def as_reals(value, field: str, count: int | None = None):
    """A descriptor field as one float, or as a tuple of `count` floats.

    Only ints and floats count as numbers.  Anything else, a string, a boolean
    or a missing (None) field included, raises a one-line ValueError naming
    the field, the expected form and the value received, whose repr is cut
    after 160 characters.
    """
    items = (value,) if count is None else value
    if (isinstance(items, (list, tuple)) and len(items) == (count or 1)
            and all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in items)):
        try:
            reals = tuple(float(v) for v in items)
            return reals[0] if count is None else reals
        except OverflowError:  # an int past the float range
            pass
    form = "a number" if count is None else f"a list of {count} numbers"
    got = "nothing" if value is None else clipped_repr(value)
    raise ValueError(f"{field} must be {form}, got {got}")


def check_keys(desc: dict, form: str, keys: tuple[str, ...]) -> None:
    """Reject a descriptor key that `form` does not read, naming it and the keys it reads."""
    for key in desc:
        if key not in keys:
            raise ValueError(f"{form} does not read key {clipped_repr(key)} "
                             f"(its keys: {', '.join(keys)})")


def require_minimal(kraus_rank: int, dim_e: int) -> None:
    """Reject a dilation whose environment has a slot the Kraus rank does not count."""
    if kraus_rank < dim_e:
        raise ValueError(f"dilation is not minimal (Kraus rank {kraus_rank}, environment dim "
                         f"{dim_e}); remove vanishing probabilities first")


def require_env_rep_residual(worst: float, tol: float) -> None:
    """Reject an environment representation whose worst residual exceeds tol."""
    if worst > tol:
        raise ToleranceError(
            f"environment representation residual {worst:.3e} exceeds {tol:.1e}; "
            "channel is not covariant under the given representation or the "
            "dilation is not minimal")


def require_rotation_generators(worst: float, tol: float) -> None:
    """Reject SU(2) generators whose worst defect, algebra included, exceeds tol."""
    if worst > tol:
        raise ToleranceError(
            f"rotation-generator defect {worst:.3e} exceeds {tol:.1e}; "
            "the channel has no rotation-covariant structure")
