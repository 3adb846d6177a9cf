"""The package surface: one name table, resolved lazily on first use."""

import ast
import importlib
import json
import os
import subprocess
import sys

import pytest

import atomphase

# The public names, in order: every name of the eager surface this table
# replaced, plus write_sweep.
PUBLIC = [
    "__version__",
    "FULL_DIPOLE_SOLID_ANGLE", "AtomTransition", "NormalizedDrive", "coherent_fraction",
    "excited_state_population", "physical_to_normalized", "saturation_at_detuning",
    "scattered_phase", "scattered_power_ratio", "steady_state_coherence",
    "AtomPhaseError", "DegenerateResultError", "DomainError", "PoleError",
    "UndefinedRatioError",
    "BeamProfile", "ConeAperture", "DipoleOrientation", "ParabolicMirror", "RayMapping",
    "Recollimation", "WaistOptimum", "cone_weighted_solid_angle", "mirror_coupling",
    "mirror_weighted_solid_angle", "optimize_waist", "overlap_eta", "parabola_ray_map",
    "pupil_dipole_profile", "recollimation_parameters",
    "AsymmetricCoupling", "PhaseBranch", "PhaseResult", "SymmetricCoupling",
    "critical_saturation", "dispersive_phase_arctan", "kerr_linear_phase", "kerr_phase",
    "kerr_relative_error", "phase_asymmetric", "phase_symmetric", "repeater_margin",
    "resonance_branch",
    "CSV_COLUMNS", "FIGURE_PRESETS", "MODELS", "SWEEP_VARIABLES", "FigurePreset",
    "FigureSeries", "ResultRow", "SweepRange", "SweepSpec", "evaluate_point",
    "figure_preset", "row_to_dict", "rows_to_csv", "rows_to_json", "run_sweep",
    "write_sweep",
]
SUBMODULES = ("atom", "errors", "geometry", "phase", "sweep")
SRC = os.path.dirname(os.path.dirname(os.path.abspath(atomphase.__file__)))


def fresh(code):
    """stdout of a fresh interpreter that imports atomphase from this tree."""
    env = {**os.environ, "PYTHONPATH": SRC}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env=env, check=True)
    return result.stdout


def test_all_is_the_public_list():
    assert atomphase.__all__ == PUBLIC


@pytest.mark.parametrize("name", PUBLIC[1:])
def test_name_is_its_submodules_object(name):
    home = [m for m in SUBMODULES if name in importlib.import_module(f"atomphase.{m}").__all__]
    assert len(home) == 1
    module = importlib.import_module(f"atomphase.{home[0]}")
    assert getattr(atomphase, name) is getattr(module, name)


def test_star_import():
    namespace = {}
    exec("from atomphase import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert namespace["write_sweep"] is atomphase.sweep.write_sweep


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(atomphase, "no_such_name")
    assert not hasattr(atomphase, "_sweep_rows")


def test_dir_lists_every_public_name_and_submodule():
    assert set(PUBLIC) | set(SUBMODULES) <= set(dir(atomphase))


def test_each_name_is_written_once():
    source = open(atomphase.__file__, encoding="utf-8").read()
    strings = [node.value for node in ast.walk(ast.parse(source))
               if isinstance(node, ast.Constant) and isinstance(node.value, str)]
    assert all(strings.count(name) == 1 for name in PUBLIC[1:])
    assert "TYPE_CHECKING" not in source


def test_import_loads_no_submodule_and_no_numpy():
    loaded = json.loads(fresh(
        "import json, sys, atomphase; print(json.dumps(sorted(sys.modules)))"))
    assert "atomphase" in loaded
    assert [m for m in loaded if m.startswith("atomphase.")] == []
    assert [m for m in loaded if m.split(".")[0] in ("numpy", "scipy")] == []


def test_first_use_imports_only_its_submodule():
    loaded = fresh("import sys, atomphase; atomphase.kerr_phase; atomphase.geometry; "
                   "print(' '.join(sorted(m for m in sys.modules "
                   "if m.startswith('atomphase.'))))").split()
    # phase imports atom and errors; geometry imports errors and phase
    assert loaded == ["atomphase.atom", "atomphase.errors", "atomphase.geometry",
                      "atomphase.phase"]


def test_phase_loads_no_scipy():
    # the constants are literals, and atom's helpers reach numpy only for an
    # array, which a scalar call cannot pass: the scalar layer loads neither
    loaded = fresh("import sys, atomphase; from fractions import Fraction; "
                   "c = atomphase.SymmetricCoupling(0.9, Fraction(4, 5)); "
                   "atomphase.phase_symmetric(c, -0.5, 0.1); "
                   "atomphase.phase_asymmetric(atomphase.AsymmetricCoupling(0.9, 0.8, 0.7, "
                   "0.6, 0.5), True, 0.1); "
                   "atomphase.scattered_power_ratio(0.9, 0.8, 0.1, 2); "
                   "print(' '.join(sorted(sys.modules)))").split()
    assert "atomphase.phase" in loaded
    assert [m for m in loaded if m.split(".")[0] in ("numpy", "scipy")] == []
