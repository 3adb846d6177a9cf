"""Tests for the scaled exponential integral behind the doughnut overlaps.

``geometry._scaled_e1(x)`` returns S = e^x E1(x) and Q = x + 1 - 1/S.  The
reference values in ``e1_reference.json`` were made with mpmath by
``tools/reference.py``, which also fits ``geometry._E1_FIT``; where mpmath
is installed they are recomputed here.
"""

import json
import math
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from atomphase import geometry

HERE = os.path.dirname(os.path.abspath(__file__))
with open(os.path.join(HERE, "e1_reference.json"), encoding="utf-8") as fh:
    REFERENCE = json.load(fh)["points"]

# where the series meets the fit, the fit's binades meet, and the fit meets
# the continued fraction
BOUNDARIES = [math.ldexp(1.0, e) for e in range(math.frexp(geometry._E1_FIT_LO)[1] - 1,
                                                 math.frexp(geometry._E1_FIT_HI)[1])]


class TestReferenceValues:
    def test_grid_covers_every_branch(self):
        xs = [x for x, _, _ in REFERENCE]
        assert len(xs) >= 400 and min(xs) <= 1e-3 and max(xs) >= 1e3
        assert (BOUNDARIES[0], BOUNDARIES[-1]) == (geometry._E1_FIT_LO, geometry._E1_FIT_HI)
        assert len(geometry._E1_FIT) == len(BOUNDARIES) - 1   # one row per binade
        for b in BOUNDARIES:
            assert {math.nextafter(b, 0.0), b, math.nextafter(b, math.inf)} <= set(xs)

    def test_within_1e15(self):
        # series, fit and continued fraction alike
        for x, s_ref, q_ref in REFERENCE:
            s, q = geometry._scaled_e1(x)
            assert abs(s - s_ref) <= 1e-15 * s_ref, x
            assert abs(q - q_ref) <= 1e-15 * q_ref, x

    def test_reference_recomputed_at_40_digits(self):
        mp = pytest.importorskip("mpmath")
        with mp.workdps(40):
            for x, s_ref, q_ref in REFERENCE:
                xm = mp.mpf(x)
                s = mp.exp(xm) * mp.e1(xm)
                assert (float(s), float(xm + 1 - 1 / s)) == (s_ref, q_ref), x


class TestProperties:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(min_value=5e-324, max_value=1.7e308))
    def test_finite_and_bracketed(self, x):
        s, q = geometry._scaled_e1(x)
        assert math.isfinite(s) and math.isfinite(q)
        assert 0.0 < q < 1.0
        # 1/(x+1) < S < 1/x, up to the rounding of both bounds: they may
        # round together, and 1/x overflows for subnormal x
        lo, hi = 1.0 / (x + 1.0), 1.0 / x if x > 1e-300 else math.inf
        assert lo - 4.0 * math.ulp(lo) <= s <= hi + 4.0 * math.ulp(hi)

    @pytest.mark.parametrize("boundary", BOUNDARIES)
    def test_q_continuous_at_boundary(self, boundary):
        below = geometry._scaled_e1(math.nextafter(boundary, 0.0))[1]
        for x in (boundary, math.nextafter(boundary, math.inf)):
            assert abs(geometry._scaled_e1(x)[1] - below) <= 4.0 * math.ulp(below)


def test_mpmath_never_imported():
    code = ("import sys\n"
            "from atomphase import BeamProfile, ParabolicMirror, optimize_waist, "
            "overlap_eta, recollimation_parameters\n"
            "mirror = ParabolicMirror(1.0, 4.0, 0.2)\n"
            "overlap_eta(BeamProfile.doughnut(1.3), mirror)\n"
            "recollimation_parameters(mirror, BeamProfile.doughnut(1.3))\n"
            "optimize_waist(mirror)\n"
            "assert 'mpmath' not in sys.modules, 'mpmath was imported'\n")
    src = os.path.join(os.path.dirname(HERE), "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
