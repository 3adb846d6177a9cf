"""Two input rules, each with one home in ``errors``.

Every public entry point checks its scalar inputs through
``errors._check_real``: a non-real, non-finite or out-of-range input raises
DomainError.  These tests pin its messages and the inputs it refuses that a
float-only check let through: an int past the float range, which
``math.isfinite`` meets with a bare OverflowError, and a complex.

Every input that must be a package object, a callable or a mapping goes
through ``errors._check_type``.  The totality table at the end calls every
public callable with each argument in turn replaced by a wrong one, and
asserts an AtomPhaseError subclass each time.
"""

import inspect
import io
import math
from collections.abc import Callable, Mapping
from fractions import Fraction

import numpy as np
import pytest

import atomphase
from atomphase import (
    AsymmetricCoupling,
    AtomPhaseError,
    AtomTransition,
    BeamProfile,
    ConeAperture,
    DipoleOrientation,
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
from atomphase.errors import _check_real, _check_type

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


# ------------------------------------------------------------- object rule

@pytest.mark.parametrize("call, message", [
    (lambda: _check_type("mirror", None, ParabolicMirror),
     "mirror must be a ParabolicMirror, got None"),
    (lambda: _check_type("coupling", C, AsymmetricCoupling),
     "coupling must be an AsymmetricCoupling, got SymmetricCoupling(omega_n=0.9, eta=0.9)"),
    (lambda: _check_type("geometry", "m", ParabolicMirror, ConeAperture),
     "geometry must be a ParabolicMirror or a ConeAperture, got 'm'"),
    (lambda: _check_type("write", 3, Callable), "write must be a Callable, got 3"),
    (lambda: _check_type("fixed", [("s0", 0.0)], Mapping),
     "fixed must be a Mapping, got [('s0', 0.0)]"),
], ids=["one-class", "article-an", "two-classes", "callable", "mapping"])
def test_type_message(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


ATOM = AtomTransition.from_linewidth(2.4e15, 3.8e7)
FLAT = BeamProfile.flat_top()
CONE = ConeAperture(1.0, DipoleOrientation.AXIAL)
SPEC = SweepSpec("symmetric", C, "delta", SweepRange(-1.0, 1.0, 3), {"s0": 0.1})
ROW = evaluate_point("symmetric", C, -1.0, 0.1)

# One valid call, as keyword arguments, of every public callable: each name
# of atomphase.__all__ that is callable, and each public classmethod of
# AtomTransition and BeamProfile.  A BeamProfile's waist applies to a
# doughnut only and its func to a custom profile only, so it has a call for
# each.  Every argument of a call is replaced in turn by a wrong one.
VALID = {
    "AtomTransition": [dict(omega0=2.4e15, gamma=3.8e7, mu=2.5e-29)],
    "AtomTransition.from_dipole": [dict(omega0=2.4e15, mu=2.5e-29)],
    "AtomTransition.from_linewidth": [dict(omega0=2.4e15, gamma=3.8e7)],
    "coherent_fraction": [dict(s=0.5)],
    "excited_state_population": [dict(s=0.5)],
    "physical_to_normalized": [dict(power=1e-12, atom=ATOM, solid_angle=4.0, eta=0.9)],
    "saturation_at_detuning": [dict(s0=0.5, delta=-1.0)],
    "scattered_phase": [dict(delta=-1.0)],
    "scattered_power_ratio": [dict(omega_n=0.5, eta=0.9, delta=-1.0, s0=0.1)],
    "steady_state_coherence": [dict(rabi=1e7, delta_abs=1e7, gamma=3.8e7)],
    "BeamProfile": [dict(kind="doughnut", waist=0.5),
                    dict(kind="custom", func=lambda d: math.exp(-d * d))],
    "BeamProfile.flat_top": [dict()],
    "BeamProfile.doughnut": [dict(waist=0.5)],
    "BeamProfile.dipole_matched": [dict()],
    "BeamProfile.custom": [dict(func=lambda d: math.exp(-d * d))],
    "ConeAperture": [dict(half_angle=1.0, orientation=DipoleOrientation.AXIAL)],
    "ParabolicMirror": [dict(focal_length=1.0, aperture_radius=4.0, hole_radius=0.2)],
    "cone_weighted_solid_angle": [dict(cone=CONE)],
    "mirror_coupling": [dict(mirror=M, profile=FLAT)],
    "mirror_weighted_solid_angle": [dict(mirror=M)],
    "optimize_waist": [dict(mirror=M, family=BeamProfile.doughnut, bracket=(0.5, 4.0),
                            rel_tol=1e-3)],
    "overlap_eta": [dict(profile=FLAT, geometry=M)],
    "parabola_ray_map": [dict(d=1.0, mirror=M)],
    "pupil_dipole_profile": [dict(d=1.0, mirror=M)],
    "recollimation_parameters": [dict(mirror=M, profile=FLAT)],
    "AsymmetricCoupling": [dict(omega_n=0.9, eta=0.9, omega_n_prime=0.8, eta_prime=0.8, p=0.9)],
    "SymmetricCoupling": [dict(omega_n=0.9, eta=0.9)],
    "critical_saturation": [dict(coupling=C)],
    "dispersive_phase_arctan": [dict(coupling=C, delta=-1.0, s0=0.1)],
    "kerr_linear_phase": [dict(coupling=C, delta=-1.0)],
    "kerr_phase": [dict(phi0=0.3, s=0.1)],
    "kerr_relative_error": [dict(coupling=C, delta=-1.0, s=0.1)],
    "phase_asymmetric": [dict(coupling=AC, delta=-1.0, s0=0.1)],
    "phase_symmetric": [dict(coupling=C, delta=-1.0, s0=0.1)],
    "repeater_margin": [dict(phi=0.3, coherent_amplitude=100.0)],
    "resonance_branch": [dict(coupling=C, s0=0.1)],
    "SweepRange": [dict(start=-1.0, stop=1.0, count=3, spacing="linear")],
    "SweepSpec": [dict(model="symmetric", coupling=C, var="delta",
                       range=SweepRange(-1.0, 1.0, 3), fixed={"s0": 0.1})],
    "evaluate_point": [dict(model="symmetric", coupling=C, delta=-1.0, s0=0.1)],
    "figure_preset": [dict(name="fig2")],
    "row_to_dict": [dict(row=ROW)],
    "rows_to_csv": [dict(rows=[ROW], comments=("note",))],
    "rows_to_json": [dict(rows=[ROW])],
    "run_sweep": [dict(spec=SPEC)],
    "write_sweep": [dict(spec=SPEC, write=io.StringIO().write, format="csv",
                         comments=("note",))],
}

# Public callables that take any argument, each with its reason.
EXEMPT = {
    # result records: the package builds them from checked inputs
    "RayMapping": "result record", "Recollimation": "result record",
    "WaistOptimum": "result record", "NormalizedDrive": "result record",
    "PhaseResult": "result record", "ResultRow": "result record",
    "FigureSeries": "result record", "FigurePreset": "result record",
    # enums: calling one looks a member up, and a wrong value is Python's ValueError
    "DipoleOrientation": "enum", "PhaseBranch": "enum",
    # exception types: they take any message
    "AtomPhaseError": "exception type", "DomainError": "exception type",
    "DegenerateResultError": "exception type", "PoleError": "exception type",
    "UndefinedRatioError": "exception type",
}
# truth-value flags: any object has a truth value
EXEMPT_PARAMETERS = {"include_gouy", "degenerate_ok"}

# A wrong object of the package: the first of these whose class differs from
# the valid argument's, so that each coupling is swapped for the other.
OTHERS = (AC, C, M)


def _resolve(name):
    obj = atomphase
    for part in name.split("."):
        obj = getattr(obj, part)
    return obj


def _public_callables():
    names = {name for name in atomphase.__all__ if callable(getattr(atomphase, name))}
    for cls in (AtomTransition, BeamProfile):
        names |= {f"{cls.__name__}.{name}" for name, value in vars(cls).items()
                  if isinstance(value, classmethod) and not name.startswith("_")}
    return names


def _wrong_values(func, parameter, valid):
    """'x', an object of another package class, and None unless None is the
    parameter's default."""
    wrong = ["x", next(other for other in OTHERS if type(other) is not type(valid))]
    if inspect.signature(func).parameters[parameter].default is not None:
        wrong.append(None)
    return wrong


CASES = [(name, k, parameter) for name, calls in VALID.items()
         for k, kwargs in enumerate(calls) for parameter in kwargs
         if parameter not in EXEMPT_PARAMETERS]


def test_table_covers_the_public_surface():
    """Every public callable has a row or an exemption, and every parameter
    that inspect.signature reports is replaced in some call."""
    assert set(VALID) | set(EXEMPT) == _public_callables()
    assert not set(VALID) & set(EXEMPT)
    for name, calls in VALID.items():
        parameters = set(inspect.signature(_resolve(name)).parameters)
        covered = {parameter for kwargs in calls for parameter in kwargs}
        assert parameters - EXEMPT_PARAMETERS == covered - EXEMPT_PARAMETERS, name


@pytest.mark.parametrize("name, k", [(name, k) for name, calls in VALID.items()
                                     for k in range(len(calls))])
def test_valid_call_passes(name, k):
    _resolve(name)(**VALID[name][k])


@pytest.mark.parametrize("name, k, parameter", CASES,
                         ids=[f"{name}-{k}-{parameter}" for name, k, parameter in CASES])
def test_wrong_argument_is_refused(name, k, parameter):
    func, kwargs = _resolve(name), VALID[name][k]
    for wrong in _wrong_values(func, parameter, kwargs[parameter]):
        try:
            func(**{**kwargs, parameter: wrong})
        except AtomPhaseError:
            continue
        pytest.fail(f"{name} accepted {parameter}={wrong!r}")
