"""Phase shift imprinted by a single two-level atom on a focused beam.

The package splits into four layers:

* :mod:`atomphase.atom` -- steady-state response of the driven atom in
  normalized units (saturation, coherence, scattered phase and power).
* :mod:`atomphase.phase` -- the measurable phase of the superposition of
  incident and coherently scattered light, exact and approximate forms.
* :mod:`atomphase.geometry` -- focusing-geometry inputs (solid-angle
  fractions, overlaps, parabolic-mirror re-collimation).
* :mod:`atomphase.sweep` / :mod:`atomphase.cli` -- deterministic parameter
  sweeps, figure presets and the command-line front end.

``import atomphase`` loads none of them.  ``_EXPORTS`` names each public
name once, under the submodule that defines it; the first use of a name
imports that submodule and keeps the value here (PEP 562).  A submodule's
own name, e.g. ``atomphase.geometry``, imports it the same way.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "atom": (
        "FULL_DIPOLE_SOLID_ANGLE",
        "AtomTransition",
        "NormalizedDrive",
        "coherent_fraction",
        "excited_state_population",
        "physical_to_normalized",
        "saturation_at_detuning",
        "scattered_phase",
        "scattered_power_ratio",
        "steady_state_coherence",
    ),
    "errors": (
        "AtomPhaseError",
        "DegenerateResultError",
        "DomainError",
        "PoleError",
        "UndefinedRatioError",
    ),
    "geometry": (
        "BeamProfile",
        "ConeAperture",
        "DipoleOrientation",
        "ParabolicMirror",
        "RayMapping",
        "Recollimation",
        "WaistOptimum",
        "cone_weighted_solid_angle",
        "mirror_coupling",
        "mirror_weighted_solid_angle",
        "optimize_waist",
        "overlap_eta",
        "parabola_ray_map",
        "pupil_dipole_profile",
        "recollimation_parameters",
    ),
    "phase": (
        "AsymmetricCoupling",
        "PhaseBranch",
        "PhaseResult",
        "SymmetricCoupling",
        "critical_saturation",
        "dispersive_phase_arctan",
        "kerr_linear_phase",
        "kerr_phase",
        "kerr_relative_error",
        "phase_asymmetric",
        "phase_symmetric",
        "repeater_margin",
        "resonance_branch",
    ),
    "sweep": (
        "CSV_COLUMNS",
        "FIGURE_PRESETS",
        "MODELS",
        "SWEEP_VARIABLES",
        "FigurePreset",
        "FigureSeries",
        "ResultRow",
        "SweepRange",
        "SweepSpec",
        "evaluate_point",
        "figure_preset",
        "row_to_dict",
        "rows_to_csv",
        "rows_to_json",
        "run_sweep",
        "write_sweep",
    ),
}

_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_HOME]


def __getattr__(name: str):
    if name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    elif name in _HOME:
        value = getattr(import_module(f".{_HOME[name]}", __name__), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
