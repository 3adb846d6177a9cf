"""Golden bytes: sha256 of every figure CSV, of a fixed sweep matrix and
of a fixed geometry matrix.

A refactor that keeps behaviour leaves these bytes untouched; a float
tolerance cannot tell whether the last printed digit moved.  The matrix
covers 3 models x 5 sweep variables x csv/json, 101 points per sweep,
with log-spaced grids (s0 and eta) for every model.  Two more sweeps span
several chunks of rows (sweep._CHUNK_ROWS), each with boundary or pole
rows, so a writer that renders one chunk from another's layout shows.

The geometry matrix pins the ``repr`` of each design call's value, or the
name of the error class it raises: cone weights and axial overlaps from
near-zero half-angles to the full sphere, and mirrors from R/f = 1e-6 to
1e8, with the hole or the rim just past 2f, under the flat-top, matched
and three doughnut profiles.  Custom profiles are left out: their bits
follow scipy's QUADPACK, whose version is not pinned.  So is the waist
``optimize_waist`` returns on the mirrors where the doughnut overlap is 1
to within an ulp over the whole bracket: any last-bit change of an overlap
moves it anywhere in the bracket, so a test checks its range instead.

After a deliberate output change, rewrite the fixture with

    PYTHONPATH=src python tests/test_golden.py --record

Any other argument, or none, prints this usage to stderr, writes nothing
and exits 2.
"""

import hashlib
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from tempfile import TemporaryDirectory

import pytest

from atomphase import (
    AtomPhaseError,
    BeamProfile,
    ConeAperture,
    DipoleOrientation,
    ParabolicMirror,
    cone_weighted_solid_angle,
    mirror_weighted_solid_angle,
    optimize_waist,
    overlap_eta,
    recollimation_parameters,
)
from atomphase.cli import main as cli_main
from atomphase.sweep import FIGURE_PRESETS

FIXTURE = Path(__file__).with_name("golden_sha256.json")

COUPLINGS = {
    "symmetric": {"omega_n": 0.94, "eta": 0.98},
    "asymmetric": {"omega_n": 0.94, "eta": 0.98, "omega_n_prime": 0.88,
                   "eta_prime": 0.99, "p": 0.97},
    "kerr": {"omega_n": 0.94, "eta": 0.98},
}

# (var, start, stop, spacing, fixed)
SWEEPS = (
    ("delta", -5.0, 5.0, "linear", {"s0": 0.1}),
    ("s0", 1e-3, 1e2, "log", {"delta": -1.0}),
    ("s", 0.0, 2.0, "linear", {"delta": -3.0}),
    ("omega_n", 0.0, 1.0, "linear", {"delta": 0.0, "s0": 0.2}),
    ("eta", 1e-2, 1.0, "log", {"delta": -0.5, "s": 0.3}),
)

FULL = {"omega_n": 1.0, "eta": 1.0}
# (model, coupling, sweep, count): 2049 points are three chunks of rows
CHUNKED = (
    # the boundary row, omega_n = 0.5, is the first row of the second chunk
    ("symmetric", FULL, ("omega_n", 0.0, 1.0, "linear", {"delta": 0.0, "s0": 0.0}), 2049),
    # Kerr poles at delta = -0.5 and 0.5, in the first and second chunks
    ("kerr", FULL, ("delta", -1.0, 1.0, "linear", {"s0": 0.1}), 2049),
)

# (name, model, coupling, sweep, count, format)
CASES = [(f"sweep-{model}-{sweep[0]}.{fmt}", model, COUPLINGS[model], sweep, 101, fmt)
         for model in COUPLINGS for sweep in SWEEPS for fmt in ("csv", "json")]
CASES += [(f"sweep-chunked-{model}-{sweep[0]}.{fmt}", model, coupling, sweep, count, fmt)
          for model, coupling, sweep, count in CHUNKED for fmt in ("csv", "json")]


CONE_ANGLES = (1e-8, 1e-3, 0.3, 1.0, math.pi / 2.0, 2.5, math.pi)
# name: (f, R, h)
MIRRORS = {
    "hole-free": (1.0, 4.0, 0.0),
    "holed": (1.0, 4.0, 0.2),
    "deep": (1.0, 20.0, 0.4),
    "scaled": (1e-30, 7e-30, 3e-31),
    "hole-to-2f": (1.0, 4.0, math.nextafter(2.0, 0.0)),
    "rim-to-2f": (1.0, math.nextafter(2.0, 3.0), 0.0),
    "rim-2f-1e-9": (1.0, 2.0 + 2e-9, 0.5),
    "narrow-annulus": (1.0, 3.0, 3.0 * (1.0 - 1e-9)),
    "tiny": (1.0, 1e-6, 0.0),
    "tiny-holed": (1.0, 1e-6, 4e-7),
    "huge": (1.0, 1e8, 0.0),
    "huge-holed": (1.0, 1e8, 1.0),
}
# mirrors whose doughnut overlap is 1 to within an ulp for every waist in
# [0.1 f, 20 f], so that the optimal waist is rounding noise
FLAT_OPTIMUM = ("narrow-annulus", "tiny", "tiny-holed")
# name: profile at focal length f; doughnut waists in units of f
PROFILES = {
    "flattop": lambda f: BeamProfile.flat_top(),
    "matched": lambda f: BeamProfile.dipole_matched(),
    **{f"doughnut-{w}": lambda f, w=w: BeamProfile.doughnut(w * f) for w in (0.3, 1.3, 5.0)},
}


def geometry_cases():
    """{name: call} over the geometry matrix."""
    cases = {}
    for alpha in CONE_ANGLES:
        for orientation in DipoleOrientation:
            cone = ConeAperture(alpha, orientation)
            cases[f"geometry-cone-{alpha!r}-{orientation.value}-omega_n"] = (
                lambda cone=cone: cone_weighted_solid_angle(cone))
        axial = ConeAperture(alpha, DipoleOrientation.AXIAL)
        for kind in ("flattop", "matched"):
            profile = PROFILES[kind](1.0)
            cases[f"geometry-cone-{alpha!r}-{kind}-eta"] = (
                lambda profile=profile, cone=axial: overlap_eta(profile, cone))
    for name, (f, r, h) in MIRRORS.items():
        mirror = ParabolicMirror(f, r, h)
        cases[f"geometry-mirror-{name}-omega_n"] = (
            lambda mirror=mirror: mirror_weighted_solid_angle(mirror))
        for kind, make in PROFILES.items():
            profile = make(f)
            cases[f"geometry-mirror-{name}-{kind}-eta"] = (
                lambda profile=profile, mirror=mirror: overlap_eta(profile, mirror))
            cases[f"geometry-mirror-{name}-{kind}-recollimation"] = (
                lambda profile=profile, mirror=mirror: recollimation_parameters(mirror, profile))
        if name not in FLAT_OPTIMUM:
            cases[f"geometry-mirror-{name}-optimize_waist"] = (
                lambda mirror=mirror: optimize_waist(mirror))
    return cases


GEOMETRY = geometry_cases()


def geometry_bytes(name):
    try:
        value = GEOMETRY[name]()
    except AtomPhaseError as exc:
        return type(exc).__name__.encode("utf-8")
    return repr(value).encode("utf-8")


def sweep_bytes(model, coupling, sweep, count, fmt, workdir):
    var, start, stop, spacing, fixed = sweep
    config = {"model": model, "coupling": coupling,
              "sweep": {"var": var, "start": start, "stop": stop,
                        "count": count, "spacing": spacing},
              "fixed": fixed}
    path = os.path.join(workdir, "config.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    out = io.StringIO()
    with redirect_stdout(out):
        assert cli_main(["sweep", "--config", path, "--format", fmt]) == 0
    return out.getvalue().encode("utf-8")


def figure_files(name, workdir):
    out = os.path.join(workdir, name)
    with redirect_stdout(io.StringIO()):
        assert cli_main(["figures", "--name", name, "--out", out]) == 0
    return {entry: Path(out, entry).read_bytes() for entry in sorted(os.listdir(out))}


def digest(data):
    return hashlib.sha256(data).hexdigest()


def record():
    digests = {}
    with TemporaryDirectory() as workdir:
        for name in FIGURE_PRESETS:
            digests.update({entry: digest(data)
                            for entry, data in figure_files(name, workdir).items()})
        for name, *case in CASES:
            digests[name] = digest(sweep_bytes(*case, workdir))
    digests.update({name: digest(geometry_bytes(name)) for name in GEOMETRY})
    return digests


@pytest.fixture(scope="module")
def golden():
    return json.loads(FIXTURE.read_text(encoding="utf-8"))


@pytest.mark.parametrize("name", FIGURE_PRESETS)
def test_figure_bytes(name, golden, tmp_path):
    files = figure_files(name, str(tmp_path))
    assert sorted(files) == sorted(e for e in golden if e.startswith(f"{name}-"))
    for entry, data in files.items():
        assert digest(data) == golden[entry], entry


@pytest.mark.parametrize("case", CASES, ids=lambda case: case[0])
def test_sweep_bytes(case, golden, tmp_path):
    name, *rest = case
    assert digest(sweep_bytes(*rest, str(tmp_path))) == golden[name]



@pytest.mark.parametrize("name", GEOMETRY)
def test_geometry_bytes(name, golden):
    assert digest(geometry_bytes(name)) == golden[name]


@pytest.mark.parametrize("name", FLAT_OPTIMUM,
                         ids=[f"geometry-mirror-{name}-optimize_waist" for name in FLAT_OPTIMUM])
def test_flat_optimum(name):
    f, r, h = MIRRORS[name]
    best = optimize_waist(ParabolicMirror(f, r, h))
    assert 0.1 * f <= best.waist <= 20.0 * f
    assert abs(best.eta - 1.0) <= 2.0 ** -52


@pytest.mark.parametrize("argv", [["--help"], [], ["--record", "extra"]])
def test_only_record_rewrites_the_fixture(argv):
    before = FIXTURE.read_bytes()
    src = Path(__file__).resolve().parent.parent / "src"
    path = os.pathsep.join(p for p in (str(src), os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, __file__, *argv], capture_output=True,
                            text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 2, result.stderr
    assert result.stdout == "" and "--record" in result.stderr
    assert FIXTURE.read_bytes() == before


def main(argv):
    if argv != ["--record"]:
        sys.stderr.write("usage: python tests/test_golden.py --record\n"
                         "rewrites tests/golden_sha256.json from the current code\n")
        return 2
    FIXTURE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
    sys.stdout.write(f"wrote {FIXTURE}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
