"""Steady-state response of a coherently driven two-level atom.

All public operations work in normalized units: detunings are expressed in
linewidths (delta = Delta/Gamma) and drive strength as the on-resonance
saturation parameter s0 = 2 Omega_R^2 / Gamma^2.  ``physical_to_normalized``
is the single bridge from SI quantities (watts, C*m) into those units; it
approximates the drive frequency by the transition frequency, which is the
usual near-resonant assumption.

Every function is pure and safe to map over parameter grids in parallel.
Private helpers write each expression of a sweep row once, for one number
or a numpy chunk alike; the sweep kernel calls them too.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from itertools import repeat
from typing import NamedTuple, Tuple

from . import _EXPORTS
from .errors import DomainError, _check_real

__all__ = list(_EXPORTS["atom"])

# CODATA 2022, as the floats of scipy.constants (which this module does not
# import): the speed of light (m/s), the reduced Planck constant (J s) and
# the vacuum permittivity (F/m).
_C = 299792458.0
_HBAR = 1.0545718176461565e-34
_EPS0 = 8.8541878188e-12

# Full-sphere integral of the dipole intensity pattern sin^2(Theta).
FULL_DIPOLE_SOLID_ANGLE = 8.0 * math.pi / 3.0


def _check_finite_result(name: str, value: float) -> float:
    """value, unless it overflowed on the way from finite inputs."""
    if not math.isfinite(value):
        raise DomainError(f"{name} overflows")
    return value


def _numpy_if_array(x):
    """numpy when x is a numpy array, else None.  No array exists before
    numpy is loaded, so the scalar functions load no numpy."""
    np = sys.modules.get("numpy")
    return np if np is not None and isinstance(x, np.ndarray) else None


def _pow(base, exponent: float):
    """libm's pow of a number, or elementwise over a numpy array: numpy's
    own power differs from libm by up to 4 ulp."""
    np = _numpy_if_array(base)
    if np is None:
        return math.pow(base, exponent)
    return np.array(list(map(math.pow, base.tolist(), repeat(exponent))))


def _sqrt(x):
    """Square root of a number or a numpy array; IEEE 754 rounds both exactly."""
    np = _numpy_if_array(x)
    return math.sqrt(x) if np is None else np.sqrt(x)


@dataclass(frozen=True)
class AtomTransition:
    """A two-level transition in SI units.

    Attributes
    ----------
    omega0 : float
        Transition angular frequency (rad/s).
    gamma : float
        Spontaneous emission rate (rad/s).
    mu : float
        Dipole matrix element (C*m), real and positive by convention.
    """

    omega0: float
    gamma: float
    mu: float

    def __post_init__(self) -> None:
        _check_real("omega0", self.omega0, positive=True)
        _check_real("gamma", self.gamma, positive=True)
        _check_real("mu", self.mu, positive=True)

    @property
    def wavelength(self) -> float:
        """Transition wavelength 2 pi c / omega0 (m)."""
        return _check_finite_result("the wavelength 2 pi c / omega0",
                                    2.0 * math.pi * _C / self.omega0)

    @classmethod
    def from_dipole(cls, omega0: float, mu: float) -> "AtomTransition":
        """Build a transition whose linewidth follows from its dipole moment.

        gamma = omega0^3 mu^2 / (3 pi eps0 hbar c^3)

        A gamma that overflows or underflows to 0 raises DomainError.
        """
        _check_real("omega0", omega0, positive=True)
        _check_real("mu", mu, positive=True)
        try:
            gamma = omega0**3 * mu**2 / (3.0 * math.pi * _EPS0 * _HBAR * _C**3)
        except OverflowError:
            gamma = math.inf
        return cls(omega0=omega0, gamma=gamma, mu=mu)

    @classmethod
    def from_linewidth(cls, omega0: float, gamma: float) -> "AtomTransition":
        """Build a transition from its measured linewidth, inferring mu.

        A mu that overflows or underflows to 0 raises DomainError.
        """
        _check_real("omega0", omega0, positive=True)
        _check_real("gamma", gamma, positive=True)
        try:
            mu = math.sqrt(3.0 * math.pi * _EPS0 * _HBAR * _C**3 * gamma / omega0**3)
        except OverflowError:       # omega0^3 overflows: mu underflows
            mu = 0.0
        except ZeroDivisionError:   # omega0^3 underflows: mu overflows
            mu = math.inf
        return cls(omega0=omega0, gamma=gamma, mu=mu)


class NormalizedDrive(NamedTuple):
    """Physical drive translated into focal field, Rabi frequency and s0."""

    e_field: float  # V/m, amplitude parallel to the dipole at the focus
    rabi: float     # rad/s
    s0: float       # on-resonance saturation parameter


def physical_to_normalized(
    power: float,
    atom: AtomTransition,
    solid_angle: float,
    eta: float,
) -> NormalizedDrive:
    """Convert incident power into the focal field, Rabi frequency and s0.

    A beam of power P focused over the (unnormalized) dipole-weighted solid
    angle Omega with field overlap eta produces the focal amplitude

        E0 = sqrt(2 P) / (lambda sqrt(eps0 c)) * sqrt(Omega) * eta

    from which Omega_R = E0 mu / hbar and s0 = 2 Omega_R^2 / Gamma^2.  When
    gamma is consistent with mu, s0 equals 8 P (Omega/(8 pi/3)) eta^2 /
    (hbar omega0 Gamma).

    Parameters
    ----------
    power : float
        Incident beam power (W), non-negative.
    atom : AtomTransition
        Transition supplying wavelength, dipole moment and linewidth.
    solid_angle : float
        Dipole-weighted solid angle in [0, 8 pi / 3] (unnormalized).
    eta : float
        Field overlap with the dipole pattern, in [0, 1].

    Raises DomainError for a non-finite or negative power, and where the
    field, the Rabi frequency or s0 overflows.
    """
    _check_real("power", power, lo=0.0)
    _check_real("solid_angle", solid_angle)
    if not 0.0 <= solid_angle <= FULL_DIPOLE_SOLID_ANGLE:
        raise DomainError(
            f"solid_angle must lie in [0, 8 pi/3], got {solid_angle!r}")
    _check_real("eta", eta, 0.0, 1.0)
    e_field = (
        math.sqrt(2.0 * power)
        / (atom.wavelength * math.sqrt(_EPS0 * _C))
        * math.sqrt(solid_angle)
        * eta
    )
    rabi = e_field * atom.mu / _HBAR
    try:
        s0 = 2.0 * rabi**2 / atom.gamma**2
    except OverflowError:
        s0 = math.inf
    except ZeroDivisionError:
        raise DomainError(f"gamma^2 underflows at gamma={atom.gamma!r}") from None
    return NormalizedDrive(*(_check_finite_result(name, value) for name, value in
                             (("e_field", e_field), ("rabi", rabi), ("s0", s0))))


def _lorentz(delta):
    return 1.0 + 4.0 * delta * delta


def _drive_terms(delta, name: str, value):
    """(1 + 4 delta^2, s0, s) of a drive given as s0 or as s (name "s0" or
    "s"); a fixed s is converted per point via s0 = s (1 + 4 delta^2)."""
    lorentz = _lorentz(delta)
    s0 = value * lorentz if name == "s" else value
    return lorentz, s0, s0 / lorentz


def detuned_drive(delta: float, s0: float) -> Tuple[float, float]:
    """(1 + 4 delta^2, s) for an accepted drive: the drive rules of every
    scalar function and of the sweep kernel.

    Raises DomainError when delta or s0 is not a finite real number, s0 is
    negative, 1 + 4 delta^2 overflows or (1 + s)^2 overflows, checked in
    that order and each before any arithmetic on its input.
    """
    _check_real("delta", delta)
    lorentz = _lorentz(delta)
    if lorentz == math.inf:
        raise DomainError(
            f"|delta| is too large: 1 + 4 delta^2 overflows at delta={delta!r}")
    _check_real("s0", s0, lo=0.0)
    s = s0 / lorentz
    try:
        math.pow(1.0 + s, 2.0)
    except OverflowError:
        raise DomainError("s0 is too large: (1 + s)^2 overflows") from None
    return lorentz, s


def saturation_at_detuning(s0: float, delta: float) -> float:
    """Saturation parameter off resonance: s0 / (1 + 4 delta^2).

    Raises DomainError when delta or s0 is not finite, s0 is negative, or
    1 + 4 delta^2 or (1 + s)^2 overflows, as a sweep does.
    """
    return detuned_drive(delta, s0)[1]


def excited_state_population(s: float) -> float:
    """Steady-state upper-level population (s/2) / (1 + s).

    Monotone in s and bounded by the fully saturated value 1/2.  Raises
    DomainError for a non-finite or negative s.
    """
    _check_real("s", s, lo=0.0)
    return 0.5 * s / (1.0 + s)


def steady_state_coherence(rabi: float, delta_abs: float, gamma: float) -> complex:
    """Steady-state coherence of the driven transition.

    rho_ab = Omega_R (i Gamma - 2 Delta) / (4 Delta^2 + Gamma^2 + 2 Omega_R^2)

    with the absolute detuning delta_abs in rad/s.  The phase of the result
    does not depend on the drive strength; only its magnitude saturates.
    Raises DomainError for a non-finite input, a gamma that is not positive,
    or a denominator that overflows or underflows to zero.
    """
    _check_real("rabi", rabi)
    _check_real("delta_abs", delta_abs)
    _check_real("gamma", gamma, positive=True)
    try:
        denom = 4.0 * delta_abs**2 + gamma**2 + 2.0 * rabi**2
    except OverflowError:
        denom = math.inf
    if not 0.0 < denom < math.inf:
        raise DomainError(
            "4 delta_abs^2 + gamma^2 + 2 rabi^2 is not a positive finite float "
            f"at rabi={rabi!r}, delta_abs={delta_abs!r}, gamma={gamma!r}")
    return rabi * complex(-2.0 * delta_abs, gamma) / denom


def scattered_phase(delta: float, include_gouy: bool = False) -> float:
    """Phase of the coherently scattered field, arctan(2 delta) + pi/2.

    With ``include_gouy`` the pi/2 focal phase picked up by the re-diverging
    transmitted beam is folded in, shifting the total to arctan(2 delta) + pi.
    Raises DomainError for a non-finite delta.
    """
    _check_real("delta", delta)
    offset = math.pi if include_gouy else 0.5 * math.pi
    return math.atan(2.0 * delta) + offset


def scattered_power_ratio(omega_n: float, eta: float, delta: float, s0: float) -> float:
    """Scattered power over incident power.

    4 omega_n eta^2 / ((1 + 4 delta^2) (1 + s)^2), with s the detuned
    saturation parameter.  Reaches 2 for half-solid-angle focusing and 4 for
    full dipole-weighted coverage, both at zero detuning and weak drive.
    Rejects an omega_n or eta outside [0, 1] and the drives that
    ``saturation_at_detuning`` rejects.
    """
    _check_real("omega_n", omega_n, 0.0, 1.0)
    _check_real("eta", eta, 0.0, 1.0)
    return _power_ratio(omega_n, eta, *detuned_drive(delta, s0))


def _power_ratio(omega_n, eta, lorentz, s):
    return 4.0 * omega_n * eta * eta / (lorentz * _pow(1.0 + s, 2.0))


def coherent_fraction(s: float) -> float:
    """Fraction 1 / (1 + s) of the scattered power coherent with the drive.

    Raises DomainError for a non-finite or negative s.
    """
    _check_real("s", s, lo=0.0)
    return _coherent_fraction(s)


def _coherent_fraction(s):
    return 1.0 / (1.0 + s)
