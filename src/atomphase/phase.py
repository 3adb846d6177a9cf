"""Measurable phase of the superposition of incident and scattered light.

The observable phase is the argument of a complex amplitude.  It is
returned with its branch, which tells the resonant pi and zero cases from
the generic one, so callers can unwrap across the on-resonance switch
without the amplitude's parts.  For a symmetric setup
(identical focusing and collection optics)

    phi = arg[(1+s)^(3/2) (1+4 delta^2) - 2 omega_n eta^2
              - 4 i omega_n eta^2 delta],

with s = s0 / (1 + 4 delta^2) the detuned saturation parameter.  The general
asymmetric setup replaces the coupling weight by the geometric mean of the
focusing and collection sides and rescales the transmitted amplitude by the
surviving power fraction sqrt(p).

Each part of that amplitude is written once, in a private helper beside the
function that owns it, and takes one number or a numpy chunk alike.  The
sweep kernel computes its columns through the same helpers, so a sweep is
bit-identical to these functions by construction.

Every function here rejects with DomainError a coupling of the wrong class
and the drives that a sweep rejects: a non-finite delta, s0 or s, a
negative s0, and a delta or s0 so large that 1 + 4 delta^2 or (1 + s)^2
overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import Optional

from . import _EXPORTS
from .atom import _check_finite_result, _drive_terms, _pow, _sqrt, detuned_drive
from .errors import (
    DegenerateResultError,
    DomainError,
    PoleError,
    UndefinedRatioError,
    _check_real,
    _check_type,
)

__all__ = list(_EXPORTS["phase"])


class PhaseBranch(Enum):
    """Classification of a phase value by the sign structure of its parts."""

    PI = "pi"             # on resonance, scattered light dominates
    ZERO = "zero"         # on resonance, transmitted light dominates
    BOUNDARY = "boundary" # both parts vanish; the phase is undefined
    GENERIC = "generic"   # off resonance


def _check_fractions(coupling) -> None:
    """Every coupling parameter is a fraction in [0, 1], checked in field order."""
    for field in fields(coupling):
        _check_real(field.name, getattr(coupling, field.name), 0.0, 1.0)


@dataclass(frozen=True)
class SymmetricCoupling:
    """Coupling of a symmetric setup: solid-angle fraction and overlap.

    omega_n is the dipole-weighted solid-angle fraction covered by the
    focusing optics (1 means full dipole-pattern coverage), eta the field
    overlap of the incident beam with the dipole pattern on that region.
    """

    omega_n: float
    eta: float

    __post_init__ = _check_fractions


@dataclass(frozen=True)
class AsymmetricCoupling:
    """Coupling for distinct focusing and collection optics.

    omega_n/eta describe the focusing side, omega_n_prime/eta_prime the
    collection side, and p the power fraction of the incident beam that
    survives re-collimation.  omega_n_prime = omega_n, eta_prime = eta,
    p = 1 collapses to the symmetric case.
    """

    omega_n: float
    eta: float
    omega_n_prime: float
    eta_prime: float
    p: float

    __post_init__ = _check_fractions


@dataclass(frozen=True)
class PhaseResult:
    """Phase in (-pi, pi] and its branch.

    phi is atan2 of the amplitude's imaginary and real parts, exactly; on
    the resonant pi branch the sign convention reports +pi.
    """

    phi: float
    branch: PhaseBranch


# Messages shared with the sweep kernel, which flags the same points.
NULL_FIELD_MESSAGE = ("transmitted and scattered amplitudes cancel exactly; "
                      "the phase of a null field is undefined")
KERR_POLE_MESSAGE = ("1 + 4 delta^2 - 2 omega_n eta^2 vanished; the linear phase has "
                     "a pole here")


def _check_transmission(p: float) -> None:
    """The asymmetric phase's rule for p, shared with the sweep kernel."""
    if p == 0:
        raise DomainError("p must be positive for a defined phase")


def _weight(omega_n, eta):
    return 2.0 * omega_n * _pow(eta, 2.0)


def _symmetric_weight(coupling: SymmetricCoupling) -> float:
    """2 omega_n eta^2 of a SymmetricCoupling; any other object is refused."""
    _check_type("coupling", coupling, SymmetricCoupling)
    return _weight(coupling.omega_n, coupling.eta)


def _cross_weight(omega_n, eta, omega_n_prime, eta_prime):
    return 2.0 * _sqrt(omega_n * omega_n_prime) * eta * eta_prime


def _real_part(lorentz, s, weight, p=1.0):
    """sqrt(p) (1+s)^(3/2) (1+4 delta^2) - weight.  At s = 0 and p = 1 it is
    the Kerr denominator 1 + 4 delta^2 - weight, since sqrt(1) and 1^(3/2)
    are exactly 1."""
    return math.sqrt(p) * _pow(1.0 + s, 1.5) * lorentz - weight


def _imag_part(weight, delta):
    return -2.0 * weight * delta


def _dispersive_phase(weight, delta, real):
    return _imag_part(weight, delta) / real


def _kerr_phase(phi0, s):
    return phi0 * (1.0 - 1.5 * s)


# The branch of each code that _branch_code returns, in code order.
_BRANCHES = (PhaseBranch.GENERIC, PhaseBranch.PI, PhaseBranch.ZERO, PhaseBranch.BOUNDARY)


def _branch_code(real, imag):
    """Index into _BRANCHES of the amplitude real + i imag: generic off the
    real axis, then pi, zero or boundary by the sign of real (a NaN real
    part reads as zero)."""
    return (imag == 0.0) * (2 - (real < 0.0) + (real == 0.0))


def _assemble(real: float, imag: float) -> PhaseResult:
    # -0.0 + 0.0 == +0.0, so atan2 lands on +pi for the resonant pi branch
    imag = imag + 0.0
    branch = _BRANCHES[_branch_code(real, imag)]
    if branch is PhaseBranch.BOUNDARY:
        raise DegenerateResultError(NULL_FIELD_MESSAGE)
    return PhaseResult(phi=math.atan2(imag, real), branch=branch)


def phase_symmetric(coupling: SymmetricCoupling, delta: float, s0: float) -> PhaseResult:
    """Exact phase for a symmetric setup.

    On resonance the phase is pi when 2 omega_n eta^2 exceeds (1+s0)^(3/2)
    and zero otherwise; exactly on that boundary the complex amplitude
    vanishes and DegenerateResultError is raised instead of a silent zero.
    """
    lorentz, s = detuned_drive(delta, s0)
    weight = _symmetric_weight(coupling)
    return _assemble(_real_part(lorentz, s, weight), _imag_part(weight, delta))


def phase_asymmetric(coupling: AsymmetricCoupling, delta: float, s0: float) -> PhaseResult:
    """Exact phase for the general (asymmetric) setup.

    phi = arg[sqrt(p) (1+s)^(3/2) (1+4 delta^2)
              - 2 sqrt(omega_n omega_n') eta eta'
              - 4 i sqrt(omega_n omega_n') eta eta' delta]
    """
    lorentz, s = detuned_drive(delta, s0)
    _check_type("coupling", coupling, AsymmetricCoupling)
    _check_transmission(coupling.p)
    cross = _cross_weight(coupling.omega_n, coupling.eta,
                          coupling.omega_n_prime, coupling.eta_prime)
    return _assemble(_real_part(lorentz, s, cross, coupling.p), _imag_part(cross, delta))


def resonance_branch(coupling: SymmetricCoupling, s0: float) -> PhaseBranch:
    """On-resonance branch: PI iff 2 omega_n eta^2 > (1+s0)^(3/2), ZERO iff
    smaller, BOUNDARY at exact equality."""
    # at delta = 0 the real part has the sign of (1+s0)^(3/2) - 2 omega_n eta^2
    real = _real_part(*detuned_drive(0.0, s0), _symmetric_weight(coupling))
    return _BRANCHES[_branch_code(real, 0.0)]


def critical_saturation(coupling: SymmetricCoupling) -> Optional[float]:
    """Drive strength s* at which the resonant branch flips from pi to zero.

    (2 omega_n eta^2)^(2/3) - 1 when 2 omega_n eta^2 >= 1, else None: no
    non-negative drive strength reaches the pi branch at all.  Rounding
    places the flip of ``resonance_branch`` within 2 ulp(1 + s*) of the
    returned value: PI for every s0 <= s* - 2 ulp(1 + s*), ZERO for every
    s0 >= s* + 2 ulp(1 + s*).  In between, and at s* itself, either branch
    or BOUNDARY may come out.
    """
    weight = _symmetric_weight(coupling)
    if weight < 1.0:
        return None
    return weight ** (2.0 / 3.0) - 1.0


def dispersive_phase_arctan(coupling: SymmetricCoupling, delta: float, s0: float) -> float:
    """Arctan form of the symmetric phase, valid for |delta| >= 1/2.

    -arctan[4 omega_n eta^2 delta /
            ((1+s)^(3/2) (1+4 delta^2) - 2 omega_n eta^2)]

    On this domain the denominator is non-negative and the value matches
    ``phase_symmetric``; closer to resonance the arctan cannot resolve the
    branch, so smaller detunings raise DomainError.  A vanishing denominator
    yields the signed limit of +-pi/2.
    """
    lorentz, s = detuned_drive(delta, s0)
    if abs(delta) < 0.5:
        raise DomainError(
            f"the arctan form requires |delta| >= 0.5, got {delta!r}")
    weight = _symmetric_weight(coupling)
    real = _real_part(lorentz, s, weight)
    if real == 0.0:
        return math.copysign(0.5 * math.pi, _imag_part(weight, delta))
    # -atan(-x) rather than atan(x): libm's atan need not be odd bit for bit
    return -math.atan(-_dispersive_phase(weight, delta, real))


def kerr_linear_phase(coupling: SymmetricCoupling, delta: float) -> float:
    """Weak-drive dispersive phase.

    phi0 = -4 omega_n eta^2 delta / (1 + 4 delta^2 - 2 omega_n eta^2)

    Raises PoleError when the denominator vanishes.
    """
    lorentz, s = detuned_drive(delta, 0.0)
    weight = _symmetric_weight(coupling)
    denom = _real_part(lorentz, s, weight)
    if denom == 0.0:
        raise PoleError(KERR_POLE_MESSAGE)
    return _dispersive_phase(weight, delta, denom)


def kerr_phase(phi0: float, s: float) -> float:
    """Intensity-corrected phase phi0 (1 - 3 s / 2).

    Raises DomainError for a non-finite phi0, a non-finite or negative s,
    or a product that overflows.
    """
    _check_real("phi0", phi0)
    _check_real("s", s, lo=0.0)
    return _check_finite_result("phi0 (1 - 3 s / 2)", _kerr_phase(phi0, s))


def kerr_relative_error(coupling: SymmetricCoupling, delta: float, s: float) -> float:
    """Relative truncation error of the linear-in-s Kerr form.

    Compares phi0 (1 - 3 s / 2) against the dispersive phase with its full
    saturation dependence,

        -4 omega_n eta^2 delta / ((1+s)^(3/2) (1+4 delta^2)
                                  - 2 omega_n eta^2),

    at the same detuned saturation parameter s.  The error vanishes as
    s -> 0 and grows monotonically with drive strength.  Raises
    UndefinedRatioError when the reference phase is zero, PoleError when
    either denominator vanishes, and DomainError when the ratio overflows.
    """
    _check_real("s", s, lo=0.0)
    _check_real("delta", delta)
    # checked as the sweep checks a fixed s: through s0 = s (1 + 4 delta^2)
    lorentz, _ = detuned_drive(delta, _drive_terms(delta, "s", s)[1])
    weight = _symmetric_weight(coupling)
    real = _real_part(lorentz, s, weight)
    if real == 0.0:
        raise PoleError("the dispersive reference phase has a pole here")
    reference = _dispersive_phase(weight, delta, real)
    if reference == 0.0:
        raise UndefinedRatioError(
            "the reference phase vanishes; the relative error is undefined")
    approx = _kerr_phase(kerr_linear_phase(coupling, delta), s)
    return _check_finite_result("the relative error |phi - phi_kerr| / |phi|",
                                abs(reference - approx) / abs(reference))


def repeater_margin(phi: float, coherent_amplitude: float) -> float:
    """How far a phase shift exceeds the probe state's phase uncertainty.

    |phi| sqrt(amplitude), against an uncertainty of amplitude^(-1/2) for a
    large-amplitude coherent state.  Values above 1 mean the imprinted shift
    is resolvable in a single shot.  Raises DomainError for a non-finite
    input, an amplitude that is not positive, or a product that overflows.
    """
    _check_real("phi", phi)
    _check_real("coherent_amplitude", coherent_amplitude, positive=True)
    return _check_finite_result("|phi| sqrt(coherent_amplitude)",
                                abs(phi) * math.sqrt(coherent_amplitude))
