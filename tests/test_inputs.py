"""One input rule: a non-real, non-finite or out-of-range input raises DomainError.

Every public entry point checks its scalar inputs through
``errors._check_real``; these tests pin its messages and the inputs it
refuses that a float-only check let through: an int past the float range,
which ``math.isfinite`` meets with a bare OverflowError, and a complex.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from atomphase import (
    AsymmetricCoupling,
    AtomTransition,
    BeamProfile,
    DomainError,
    ParabolicMirror,
    SweepRange,
    SweepSpec,
    SymmetricCoupling,
    coherent_fraction,
    dispersive_phase_arctan,
    evaluate_point,
    excited_state_population,
    kerr_linear_phase,
    kerr_phase,
    kerr_relative_error,
    optimize_waist,
    parabola_ray_map,
    phase_asymmetric,
    phase_symmetric,
    pupil_dipole_profile,
    repeater_margin,
    resonance_branch,
    saturation_at_detuning,
    scattered_phase,
    scattered_power_ratio,
    steady_state_coherence,
)
from atomphase.errors import _check_real

B = 10**400   # an int past the float range
C = SymmetricCoupling(0.9, 0.9)
AC = AsymmetricCoupling(0.94, 0.98, 0.88, 0.99, 0.97)
M = ParabolicMirror(1.0, 4.0, 0.2)

# each raised OverflowError or TypeError, or returned, before the one rule
REFUSED = {
    "wavelength": lambda: AtomTransition(B, 1, 1).wavelength,
    "saturation_at_detuning": lambda: saturation_at_detuning(B, 0),
    "excited_state_population": lambda: excited_state_population(B),
    "coherent_fraction": lambda: coherent_fraction(B),
    "steady_state_coherence": lambda: steady_state_coherence(B, 0, 1),
    "scattered_phase": lambda: scattered_phase(B),
    "scattered_power_ratio": lambda: scattered_power_ratio(0.5, 0.5, 0, B),
    "phase_symmetric": lambda: phase_symmetric(C, B, 0),
    "phase_asymmetric": lambda: phase_asymmetric(AC, 0, B),
    "resonance_branch": lambda: resonance_branch(C, B),
    "dispersive_phase_arctan": lambda: dispersive_phase_arctan(C, B, 0),
    "kerr_linear_phase": lambda: kerr_linear_phase(C, B),
    "kerr_phase": lambda: kerr_phase(B, 0),
    "kerr_relative_error": lambda: kerr_relative_error(C, 1, B),
    "repeater_margin": lambda: repeater_margin(1, B),
    "ParabolicMirror": lambda: ParabolicMirror(B, 1),
    "doughnut": lambda: BeamProfile.doughnut(B),
    "parabola_ray_map": lambda: parabola_ray_map(B, M),
    "pupil_dipole_profile": lambda: pupil_dipole_profile(B, M),
    "optimize_waist-rel_tol": lambda: optimize_waist(M, rel_tol=B),
    "optimize_waist-bracket": lambda: optimize_waist(M, bracket=(1, B)),
    "SweepRange": lambda: SweepRange(0, B, 5),
    "SweepSpec": lambda: SweepSpec(model="symmetric", coupling=C, var="delta",
                                   range=SweepRange(-1.0, 1.0, 5), fixed={"s0": B}),
    "evaluate_point": lambda: evaluate_point("symmetric", C, B, 0),
    "kerr_phase-complex": lambda: kerr_phase(1j, 0),
    "SymmetricCoupling-complex": lambda: SymmetricCoupling(1j, 1),
}


@pytest.mark.parametrize("name", list(REFUSED))
def test_refused_with_domain_error(name):
    with pytest.raises(DomainError):
        REFUSED[name]()


@pytest.mark.parametrize("call, message", [
    (lambda: _check_real("x", B), f"x must be finite, got {B!r}"),
    (lambda: _check_real("x", -B, lo=0.0), f"x must be finite, got {-B!r}"),
    (lambda: _check_real("x", -1.0, lo=0.0), "x must be non-negative, got -1.0"),
    (lambda: _check_real("x", math.nan, 0.0, 1.0), "x must lie in [0, 1], got nan"),
    (lambda: _check_real("x", B, 0.0, 1.0), f"x must lie in [0, 1], got {B!r}"),
    (lambda: _check_real("x", 0.0, positive=True), "x must be positive and finite, got 0.0"),
    (lambda: _check_real("x", math.inf, positive=True),
     "x must be positive and finite, got inf"),
    (lambda: _check_real("x", 1j), "x must be real, got 1j"),
    (lambda: _check_real("x", "1.0"), "x must be real, got '1.0'"),
    (lambda: _check_real("x", None, positive=True), "x must be real, got None"),
    (lambda: _check_real("x", np.complex128(1.0)), "x must be real, got np.complex128(1+0j)"),
], ids=["huge-int", "huge-negative-int", "negative", "nan-unit", "huge-int-unit",
        "zero-positive", "inf-positive", "complex", "str", "none", "numpy-complex"])
def test_message(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize("value", [0.5, 1, True, np.float32(0.5), np.int64(1), Fraction(1, 2),
                                   10**300])
def test_real_numbers_pass(value):
    _check_real("x", value, lo=0.0)
    _check_real("x", value, positive=True)


def test_drive_rule_order_is_the_sweeps():
    # delta first, then 1 + 4 delta^2, then s0: a huge int s0 does not mask
    # an overflowing 1 + 4 delta^2, nor raise OverflowError in s0 / lorentz
    with pytest.raises(DomainError, match="too large"):
        saturation_at_detuning(B, 1e200)
    with pytest.raises(DomainError) as info:
        evaluate_point("symmetric", C, 1e200, B)
    with pytest.raises(DomainError) as swept:
        evaluate_point("symmetric", C, 1e200, math.inf)
    assert str(info.value) == str(swept.value)


def test_int_endpoints_inside_the_float_range():
    # the int difference raised OverflowError, and numpy's linspace of two
    # ints past int64 built an object array it could not subtract
    assert SweepRange(-10**307, 10**307, 3).grid() == [-1e307, 0.0, 1e307]
    with pytest.raises(DomainError, match="wider than the floating-point range"):
        SweepRange(-10**308, 10**308, 5)
