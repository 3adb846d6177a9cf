"""Exception types shared across the package, and the one input rule."""

import math
from numbers import Real

from . import _EXPORTS

__all__ = list(_EXPORTS["errors"])


class AtomPhaseError(Exception):
    """Base class for every error raised by this package."""


class DomainError(AtomPhaseError, ValueError):
    """An argument lies outside the physical domain of an operation."""


class DegenerateResultError(AtomPhaseError):
    """The requested quantity is mathematically undefined for these inputs.

    Raised e.g. when incident and scattered amplitudes cancel exactly (the
    phase of a null field) or when a mirror keeps no re-collimated rays.
    """


class PoleError(AtomPhaseError):
    """A closed-form expression was evaluated at a pole of its denominator."""


class UndefinedRatioError(AtomPhaseError):
    """A relative error was requested against a vanishing reference value."""


def _check_real(name: str, value, lo: float = -math.inf, hi: float = math.inf,
                positive: bool = False) -> None:
    """Raise DomainError unless value is a finite real number in [lo, hi],
    and above 0 with ``positive``.  An int past the float range is not finite.

    The message names the rule broken: "must be real"; with ``positive``,
    "must be positive and finite"; with two finite bounds, "must lie in
    [lo, hi]"; otherwise "must be finite", then "must be non-negative" (the
    one half-open range in use is lo = 0).
    """
    # the isinstance fast path: an ABC check costs about 1 us
    if not isinstance(value, (float, int)) and not isinstance(value, Real):
        raise DomainError(f"{name} must be real, got {value!r}")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if positive:
        if not 0.0 < x < math.inf:
            raise DomainError(f"{name} must be positive and finite, got {value!r}")
    elif -math.inf < lo and hi < math.inf:
        if not lo <= x <= hi:
            raise DomainError(f"{name} must lie in [{lo:g}, {hi:g}], got {value!r}")
    elif not math.isfinite(x):
        raise DomainError(f"{name} must be finite, got {value!r}")
    elif not lo <= x <= hi:
        raise DomainError(f"{name} must be non-negative, got {value!r}")
