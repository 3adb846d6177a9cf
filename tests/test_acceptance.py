"""Acceptance gate: every exit criterion at its stated tolerance.

Each criterion is one test that prints a PASS line once its assertions
hold (run with ``pytest -s`` to see them).  All tolerances are pinned
here; nothing is deferred to later calibration.
"""

import json
import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from atomphase import (
    AsymmetricCoupling,
    BeamProfile,
    ConeAperture,
    DipoleOrientation,
    ParabolicMirror,
    PhaseBranch,
    SymmetricCoupling,
    cone_weighted_solid_angle,
    dispersive_phase_arctan,
    kerr_linear_phase,
    kerr_relative_error,
    mirror_weighted_solid_angle,
    overlap_eta,
    parabola_ray_map,
    phase_asymmetric,
    phase_symmetric,
    pupil_dipole_profile,
    recollimation_parameters,
    resonance_branch,
    saturation_at_detuning,
    scattered_power_ratio,
)
from atomphase.cli import main as cli_main
from atomphase.sweep import CSV_COLUMNS, figure_preset
from oracles import DipolePattern

FULL = SymmetricCoupling(omega_n=1.0, eta=1.0)
OBJECTIVE = SymmetricCoupling(omega_n=0.38, eta=1.0)
MIRROR = SymmetricCoupling(omega_n=0.94, eta=0.98)
MIRROR_ASYM = AsymmetricCoupling(omega_n=0.94, eta=0.98, omega_n_prime=0.88,
                                 eta_prime=0.99, p=0.97)
THRESHOLD = 4.0 ** (1.0 / 3.0) - 1.0


def report(number, text):
    print(f"ACCEPTANCE {number} PASS: {text}")


def test_criterion_1_resonance_branches():
    assert phase_symmetric(FULL, 0.0, 0.0).phi == math.pi
    assert phase_symmetric(OBJECTIVE, 0.0, 0.0).phi == 0.0
    report(1, "on-resonance phase is exactly pi at full coupling and exactly "
              "0 at omega_n=0.38")


def test_criterion_2_fig2_spot_values():
    np.testing.assert_allclose(phase_symmetric(FULL, -0.5, 0.0).phi,
                               math.pi / 2.0, atol=1e-12)
    assert math.degrees(phase_symmetric(FULL, -5.0, 0.0).phi) < 12.0
    magnitudes = [abs(phase_symmetric(FULL, -d, 0.0).phi)
                  for d in np.linspace(0.5, 5.0, 101)]
    assert all(b < a for a, b in zip(magnitudes, magnitudes[1:]))
    report(2, "phi(-0.5) = pi/2 to 1e-12, phi(-5) < 12 deg, |phi| "
              "monotonically decreasing on |delta| in [0.5, 5]")


def test_criterion_3_fig4_threshold():
    assert resonance_branch(FULL, THRESHOLD - 1e-5) is PhaseBranch.PI
    assert resonance_branch(FULL, THRESHOLD + 1e-5) is PhaseBranch.ZERO
    below = math.degrees(phase_symmetric(FULL, -1e-8, THRESHOLD - 1e-5).phi)
    above = math.degrees(phase_symmetric(FULL, -1e-8, THRESHOLD + 1e-5).phi)
    assert below > 179.0
    assert above < 1.0
    report(3, f"branch flips at s0 = cbrt(4)-1; phi straddles the flip "
              f"({below:.2f} deg vs {above:.4f} deg at delta = -1e-8)")


def test_criterion_4_asymmetric_example():
    assert phase_asymmetric(MIRROR_ASYM, 0.0, 0.1).phi == math.pi
    assert phase_asymmetric(MIRROR_ASYM, 0.0, 10.0).phi == 0.0
    deltas = np.linspace(-10.0, -0.01, 1000)
    deviation = max(
        abs(phase_asymmetric(MIRROR_ASYM, d, 0.1).phi
            - phase_symmetric(MIRROR, d, 0.1).phi)
        / abs(phase_symmetric(MIRROR, d, 0.1).phi)
        for d in deltas)
    assert 0.001 <= deviation <= 0.03
    report(4, f"asymmetric branches pi/0 at s0 = 0.1/10; max symmetric-vs-"
              f"asymmetric deviation {deviation:.2%} lies in [0.1%, 3%]")


def test_criterion_5_kerr_approximation():
    phi0 = kerr_linear_phase(MIRROR, -10.0)
    np.testing.assert_allclose(phi0, 0.090460, atol=1e-6)
    err_small = kerr_relative_error(MIRROR, -10.0, 0.02)
    err_large = kerr_relative_error(MIRROR, -10.0, 0.1)
    assert err_small < 2e-3
    np.testing.assert_allclose(err_large, 1.7e-2, atol=2e-3)
    errors = [kerr_relative_error(MIRROR, -10.0, s)
              for s in np.linspace(0.01, 0.3, 60)]
    assert all(b > a for a, b in zip(errors, errors[1:]))
    report(5, f"phi0 = {phi0:.6f} rad, Kerr error {err_small:.2e} at s=0.02 "
              f"and {err_large:.2e} at s=0.1, monotone on s in [0.01, 0.3]")


def test_criterion_6_geometry_golden_values():
    na_cone = ConeAperture(math.asin(0.95), DipoleOrientation.TRANSVERSE)
    value = cone_weighted_solid_angle(na_cone)
    assert abs(value - 0.38) < 0.005
    for orientation in (DipoleOrientation.AXIAL, DipoleOrientation.TRANSVERSE):
        hemi = cone_weighted_solid_angle(
            ConeAperture(math.pi / 2.0, orientation))
        sphere = cone_weighted_solid_angle(ConeAperture(math.pi, orientation))
        assert abs(hemi - 0.5) < 1e-9
        assert abs(sphere - 1.0) < 1e-9
        for alpha in (0.4, math.pi / 3.0, math.asin(0.95), 2.2, math.pi):
            pattern = DipolePattern(orientation)
            oracle = dblquad(
                lambda theta, phi: pattern.intensity(theta, phi)
                * math.sin(theta),
                0.0, 2.0 * math.pi, 0.0, alpha,
                epsabs=1e-12, epsrel=1e-12)[0] * 3.0 / (8.0 * math.pi)
            closed = cone_weighted_solid_angle(
                ConeAperture(alpha, orientation))
            assert abs(closed - oracle) < 1e-9
    report(6, f"NA=0.95 transverse gives {value:.4f} (0.38 +- 0.005); "
              "hemisphere/full-sphere exact to 1e-9; closed forms match "
              "adaptive quadrature to 1e-9")


def test_criterion_7_parabola_map():
    mirror = ParabolicMirror(focal_length=1.0, aperture_radius=100.0)
    rng = np.random.default_rng(53)
    for _ in range(300):
        d = float(rng.uniform(1e-3, 1e3))
        twice = parabola_ray_map(parabola_ray_map(d, mirror).d_prime,
                                 mirror).d_prime
        assert abs(twice - d) < 1e-12 * d

    # ray-trace oracle: reflect an axis-parallel ray off z = d^2/(4f) - f
    # and confirm it passes through the focus before reading the angle
    d, f = 2.0, 1.0
    z = d * d / (4.0 * f) - f
    normal = np.array([-d / (2.0 * f), 1.0])
    normal /= np.linalg.norm(normal)
    incoming = np.array([0.0, -1.0])
    reflected = incoming - 2.0 * np.dot(incoming, normal) * normal
    t = -d / reflected[0]
    assert abs(z + t * reflected[1]) < 1e-12
    assert abs(parabola_ray_map(d, mirror).theta - math.atan2(d, z)) < 1e-12
    assert abs(parabola_ray_map(2.0, mirror).theta - math.pi / 2.0) < 1e-12

    # ring-by-ring energy conservation of the pupil image
    for lo, hi in [(0.3, 1.7), (0.5, 5.0), (2.0, 80.0)]:
        pupil = quad(lambda x: pupil_dipole_profile(x, mirror) ** 2
                     * 2.0 * math.pi * x, lo, hi, epsabs=1e-13, limit=200)[0]
        theta_hi = parabola_ray_map(lo, mirror).theta
        theta_lo = parabola_ray_map(hi, mirror).theta
        angular = quad(lambda t: math.sin(t) ** 3 * 2.0 * math.pi,
                       theta_lo, theta_hi, epsabs=1e-13, limit=200)[0]
        np.testing.assert_allclose(pupil, angular, rtol=1e-6)

    worked = ParabolicMirror(focal_length=1.0, aperture_radius=4.0,
                             hole_radius=0.2)
    recol = recollimation_parameters(worked, BeamProfile.flat_top())
    np.testing.assert_allclose(recol.p, 0.9398, atol=1e-3)
    np.testing.assert_allclose(mirror_weighted_solid_angle(worked), 0.8957,
                               atol=1e-3)
    np.testing.assert_allclose(recol.omega_n_prime, 0.7920, atol=1e-3)
    report(7, "involution exact to 1e-12, theta(2f) = pi/2 by ray trace, "
              "pupil energy conserved to 1e-6, worked mirror example "
              f"(p={recol.p:.4f}, omega={mirror_weighted_solid_angle(worked):.4f}, "
              f"omega'={recol.omega_n_prime:.4f}) within 1e-3")


def test_criterion_8_property_suites():
    rng = np.random.default_rng(59)
    for _ in range(1000):
        coupling = SymmetricCoupling(omega_n=float(rng.uniform(0.0, 1.0)),
                                     eta=float(rng.uniform(0.0, 1.0)))
        s0 = float(rng.uniform(0.0, 30.0))
        delta = float(rng.uniform(1e-3, 30.0))
        plus = phase_symmetric(coupling, delta, s0).phi
        minus = phase_symmetric(coupling, -delta, s0).phi
        assert abs(plus + minus) < 1e-12

        far = float(rng.uniform(0.5, 30.0)) * float(rng.choice([-1.0, 1.0]))
        phi_far = phase_symmetric(coupling, far, s0).phi
        assert abs(phi_far) <= math.pi / 2.0 + 1e-15
        assert abs(dispersive_phase_arctan(coupling, far, s0) - phi_far) < 1e-12

    assert scattered_power_ratio(0.5, 1.0, 0.0, 0.0) == 2.0

    mirror = ParabolicMirror(focal_length=1.0, aperture_radius=20.0,
                             hole_radius=0.4)
    matched = overlap_eta(BeamProfile.dipole_matched(), mirror)
    np.testing.assert_allclose(matched, 1.0, atol=1e-9)
    for profile in (BeamProfile.flat_top(), BeamProfile.doughnut(1.0),
                    BeamProfile.doughnut(5.0)):
        eta = overlap_eta(profile, mirror)
        assert eta <= 1.0
        assert eta < 1.0 - 1e-3
    report(8, "odd symmetry and arctan equivalence to 1e-12 and |phi| <= "
              "pi/2 beyond half a linewidth on 1000 random tuples; "
              "scattering ratio exactly 2 at half solid angle; overlap <= 1 "
              "with equality only when matched")


def _read_rows(path):
    lines = [line for line in path.read_text(encoding="utf-8").split("\n")
             if line and not line.startswith("#")]
    assert lines[0] == ",".join(CSV_COLUMNS)
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        rows.append(dict(zip(CSV_COLUMNS, fields)))
    return rows


def test_criterion_9_cli_determinism(tmp_path, capsys):
    first = tmp_path / "run1"
    second = tmp_path / "run2"
    assert cli_main(["figures", "--name", "fig2", "--out", str(first)]) == 0
    assert cli_main(["figures", "--name", "fig2", "--out", str(second)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in second.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (second / name).read_bytes()

    preset = figure_preset("fig2")
    couplings = {f"fig2-{series.name}.csv": series.spec.coupling
                 for series in preset.series}
    models = {f"fig2-{series.name}.csv": series.spec.model
              for series in preset.series}
    checked = 0
    for name in names:
        coupling = couplings[name]
        model = models[name]
        for row in _read_rows(first / name):
            delta = float(row["delta"])
            s0 = float(row["s0"])
            assert abs(float(row["s"])
                       - saturation_at_detuning(s0, delta)) < 1e-12
            if model == "asymmetric":
                expected = phase_asymmetric(coupling, delta, s0)
            else:
                expected = phase_symmetric(coupling, delta, s0)
            assert abs(float(row["phi_rad"]) - expected.phi) < 1e-12
            assert abs(float(row["phi_deg"])
                       - math.degrees(expected.phi)) < 1e-12
            assert row["branch"] == expected.branch.value
            assert abs(float(row["p_sc_over_p"]) - scattered_power_ratio(
                coupling.omega_n, coupling.eta, delta, s0)) < 1e-12
            checked += 1
    assert checked == 4 * 501
    report(9, "repeated fig2 emission is byte-identical and all "
              f"{checked} rows re-validate against library calls to 1e-12")
