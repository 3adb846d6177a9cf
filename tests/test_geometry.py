"""Tests for coupling geometry: solid angles, ray maps, overlaps.

Closed forms are cross-validated against independent quadrature, the
parabola angle map against a literal ray-trace of the surface, and the
pupil remap against ring-by-ring energy conservation.
"""

import json
import math
import warnings
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, dblquad, quad
from scipy.integrate._quadpack import _qagse

from atomphase import (
    AtomPhaseError,
    BeamProfile,
    ConeAperture,
    DegenerateResultError,
    DipoleOrientation,
    DomainError,
    FULL_DIPOLE_SOLID_ANGLE,
    ParabolicMirror,
    SweepRange,
    cone_weighted_solid_angle,
    mirror_coupling,
    mirror_weighted_solid_angle,
    optimize_waist,
    overlap_eta,
    parabola_ray_map,
    pupil_dipole_profile,
    recollimation_parameters,
)
from atomphase import geometry
from oracles import DipolePattern, pupil_amplitude

AXIAL = DipoleOrientation.AXIAL
TRANSVERSE = DipoleOrientation.TRANSVERSE

# 60-digit values of the pupil integrals, made by tools/reference.py
REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text(encoding="utf-8"))
# the accuracy contract of the dipole norm and the flat-top cross term
CONTRACT = 4e-15


def ring_power_bound(b, lo):
    # e^-y1 with y1 = 2 (b lo)^2 carries the rounding of y1, about
    # y1 * 2^-53 relative, as every evaluation of the ring does
    return CONTRACT * max(1.0, 2.0 * (b * lo) ** 2)


def doughnut_cross_bound(b, lo):
    # e^-(b lo)^2 carries the rounding of its exponent as the ring power's
    # does; and where x = a (1 + t1) is small, the -ln x of E1's series
    # cancels between the two tails
    return CONTRACT * max(1.0, (b * lo) ** 2, -math.log(b * b * (1.0 + lo * lo)))


def quadrature_solid_angle(alpha, orientation):
    """Independent oracle: adaptive 2-D quadrature of the weighted pattern."""
    pattern = DipolePattern(orientation)
    value, _ = dblquad(
        lambda theta, phi: pattern.intensity(theta, phi) * math.sin(theta),
        0.0, 2.0 * math.pi, 0.0, alpha, epsabs=1e-12, epsrel=1e-12)
    return value * 3.0 / (8.0 * math.pi)


def ray_trace_theta(d, f):
    """Independent oracle: reflect an axis-parallel ray off z = d^2/4f - f.

    Verifies the reflected ray passes through the focus at the origin and
    returns the polar angle of the strike point seen from there.
    """
    z = d * d / (4.0 * f) - f
    normal = np.array([-d / (2.0 * f), 1.0])
    normal /= np.linalg.norm(normal)
    incoming = np.array([0.0, -1.0])
    reflected = incoming - 2.0 * np.dot(incoming, normal) * normal
    t = -d / reflected[0]
    assert t > 0
    assert abs(z + t * reflected[1]) < 1e-12 * max(1.0, abs(z))
    return math.atan2(d, z)


class TestDipolePattern:
    @pytest.mark.parametrize("orientation", [AXIAL, TRANSVERSE])
    def test_full_sphere_norm(self, orientation):
        pattern = DipolePattern(orientation)
        value, _ = dblquad(
            lambda theta, phi: pattern.intensity(theta, phi) * math.sin(theta),
            0.0, 2.0 * math.pi, 0.0, math.pi, epsabs=1e-12, epsrel=1e-12)
        assert abs(value - FULL_DIPOLE_SOLID_ANGLE) < 1e-9

    def test_amplitude_is_sqrt_intensity(self):
        pattern = DipolePattern(TRANSVERSE)
        for theta, phi in [(0.3, 0.1), (1.2, 2.0), (2.8, 4.5)]:
            np.testing.assert_allclose(pattern.amplitude(theta, phi) ** 2,
                                       pattern.intensity(theta, phi), rtol=1e-12)


class TestConeSolidAngle:
    @pytest.mark.parametrize("orientation", [AXIAL, TRANSVERSE])
    def test_full_sphere(self, orientation):
        cone = ConeAperture(half_angle=math.pi, orientation=orientation)
        assert abs(cone_weighted_solid_angle(cone) - 1.0) < 1e-9

    @pytest.mark.parametrize("orientation", [AXIAL, TRANSVERSE])
    def test_hemisphere(self, orientation):
        cone = ConeAperture(half_angle=math.pi / 2.0, orientation=orientation)
        assert abs(cone_weighted_solid_angle(cone) - 0.5) < 1e-9

    def test_objective_na(self):
        # NA = 0.95 with a transverse dipole
        cone = ConeAperture(half_angle=math.asin(0.95), orientation=TRANSVERSE)
        value = cone_weighted_solid_angle(cone)
        assert abs(value - 0.38) < 0.005
        np.testing.assert_allclose(value, 0.379100, atol=5e-4)

    def test_sixty_degree_axial(self):
        cone = ConeAperture(half_angle=math.pi / 3.0, orientation=AXIAL)
        np.testing.assert_allclose(cone_weighted_solid_angle(cone), 0.15625,
                                   rtol=1e-15)

    @pytest.mark.parametrize("orientation", [AXIAL, TRANSVERSE])
    @pytest.mark.parametrize("alpha", [0.2, math.pi / 3.0, math.pi / 2.0,
                                       math.asin(0.95), 2.5, math.pi])
    def test_closed_form_against_quadrature(self, orientation, alpha):
        cone = ConeAperture(half_angle=alpha, orientation=orientation)
        closed = cone_weighted_solid_angle(cone)
        assert abs(closed - quadrature_solid_angle(alpha, orientation)) < 1e-9

    @pytest.mark.parametrize("orientation", [AXIAL, TRANSVERSE])
    def test_monotone_in_half_angle(self, orientation):
        alphas = np.linspace(0.01, math.pi, 80)
        values = [cone_weighted_solid_angle(ConeAperture(a, orientation))
                  for a in alphas]
        assert all(b >= a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("alpha", [0.0, -0.5, math.pi + 0.01])
    def test_rejects_bad_half_angle(self, alpha):
        with pytest.raises(DomainError):
            ConeAperture(half_angle=alpha, orientation=AXIAL)


class TestParabolaRayMap:
    MIRROR = ParabolicMirror(focal_length=1.0, aperture_radius=100.0)

    def test_fixed_point(self):
        mapping = parabola_ray_map(2.0, self.MIRROR)
        np.testing.assert_allclose(mapping.theta, math.pi / 2.0, atol=1e-15)
        np.testing.assert_allclose(mapping.d_prime, 2.0, rtol=1e-15)

    def test_matches_ray_trace_oracle(self):
        rng = np.random.default_rng(31)
        for f in (0.35, 1.0, 4.2):
            mirror = ParabolicMirror(focal_length=f, aperture_radius=1e4)
            for _ in range(50):
                d = float(rng.uniform(0.01 * f, 50.0 * f))
                expected = ray_trace_theta(d, f)
                assert abs(parabola_ray_map(d, mirror).theta - expected) < 1e-12

    def test_worked_example(self):
        mapping = parabola_ray_map(1.0, self.MIRROR)
        np.testing.assert_allclose(mapping.theta, 2.214297, atol=1e-6)
        np.testing.assert_allclose(mapping.d_prime, 4.0, rtol=1e-15)

    def test_involution(self):
        rng = np.random.default_rng(37)
        for _ in range(200):
            d = float(rng.uniform(1e-3, 1e3))
            once = parabola_ray_map(d, self.MIRROR).d_prime
            twice = parabola_ray_map(once, self.MIRROR).d_prime
            assert abs(twice - d) < 1e-12 * d

    def test_theta_strictly_decreasing(self):
        grid = np.geomspace(1e-3, 1e3, 200)
        thetas = [parabola_ray_map(d, self.MIRROR).theta for d in grid]
        assert all(b < a for a, b in zip(thetas, thetas[1:]))

    def test_theta_conjugate_pairs_sum_to_pi(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            d = float(rng.uniform(1e-3, 1e3))
            a = parabola_ray_map(d, self.MIRROR).theta
            b = parabola_ray_map(4.0 / d, self.MIRROR).theta
            assert abs(a + b - math.pi) < 1e-12

    def test_rejects_non_positive_radius(self):
        with pytest.raises(DomainError):
            parabola_ray_map(0.0, self.MIRROR)
        with pytest.raises(DomainError):
            parabola_ray_map(-1.0, self.MIRROR)

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_radius(self, d):
        with pytest.raises(DomainError):
            parabola_ray_map(d, self.MIRROR)

    def test_rejects_overflowing_image(self):
        # 4 f^2 / d exceeds the float range
        with pytest.raises(DomainError, match="overflows"):
            parabola_ray_map(5e-324, ParabolicMirror(1.0, 4.0, 0.2))


class TestMirrorSolidAngle:
    def test_hemisphere_mirror(self):
        mirror = ParabolicMirror(focal_length=1.0, aperture_radius=2.0)
        np.testing.assert_allclose(mirror_weighted_solid_angle(mirror), 0.5,
                                   atol=1e-12)

    def test_vanishing_annulus(self):
        mirror = ParabolicMirror(focal_length=1.0, aperture_radius=2.0,
                                 hole_radius=2.0 * (1.0 - 1e-9))
        assert mirror_weighted_solid_angle(mirror) < 1e-8

    @pytest.mark.parametrize("f, r", [(139549.0, 45855225209822.0),
                                      (1.4089975067801937e+29, 5.496243435736954e+34)])
    def test_hole_free_weight_is_at_most_one(self, f, r):
        # both were 1.0000000000000002: the dipole norm's head rounds above 1/3
        mirror = ParabolicMirror(f, r)
        assert mirror_weighted_solid_angle(mirror) == 1.0
        assert recollimation_parameters(mirror, FLAT).omega_n_prime == 1.0

    def test_deep_mirror(self):
        mirror = ParabolicMirror(focal_length=1.0, aperture_radius=20.0,
                                 hole_radius=0.4)
        np.testing.assert_allclose(mirror_weighted_solid_angle(mirror), 0.9954,
                                   atol=1e-3)

    def test_against_angular_quadrature(self):
        for f, r, h in [(1.0, 4.0, 0.2), (0.5, 6.0, 0.05), (2.0, 30.0, 1.0)]:
            mirror = ParabolicMirror(focal_length=f, aperture_radius=r,
                                     hole_radius=h)
            theta_lo = parabola_ray_map(r, mirror).theta
            theta_hi = parabola_ray_map(h, mirror).theta
            oracle = 0.75 * quad(lambda t: math.sin(t) ** 3, theta_lo, theta_hi,
                                 epsabs=1e-13)[0]
            assert abs(mirror_weighted_solid_angle(mirror) - oracle) < 1e-9

    def test_rejects_hole_at_aperture(self):
        with pytest.raises(DomainError):
            ParabolicMirror(focal_length=1.0, aperture_radius=2.0,
                            hole_radius=2.0)


class TestPupilDipoleProfile:
    MIRROR = ParabolicMirror(focal_length=1.0, aperture_radius=100.0)

    def test_peak_ring(self):
        np.testing.assert_allclose(pupil_dipole_profile(2.0, self.MIRROR), 0.5,
                                   rtol=1e-15)

    def test_vanishes_at_both_ends(self):
        assert pupil_dipole_profile(1e-9, self.MIRROR) < 1e-8
        assert pupil_dipole_profile(1e9, self.MIRROR) < 1e-8
        assert 0.0 <= pupil_dipole_profile(1e100, self.MIRROR) < 1e-8

    def test_rejects_non_positive_radius(self):
        with pytest.raises(DomainError):
            pupil_dipole_profile(0.0, self.MIRROR)

    @pytest.mark.parametrize("d", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_radius(self, d):
        with pytest.raises(DomainError):
            pupil_dipole_profile(d, self.MIRROR)

    @pytest.mark.parametrize("f", [0.35, 1.0, 4.2])
    @pytest.mark.parametrize("annulus", [(0.3, 1.7), (0.5, 5.0), (2.0, 80.0)])
    def test_ring_energy_matches_far_field(self, f, annulus):
        # A^2 2 pi d dd over the annulus equals f^2 times the enclosed
        # sin^3(theta) 2 pi dtheta of the angular image
        mirror = ParabolicMirror(focal_length=f, aperture_radius=1e4)
        lo, hi = annulus[0] * f, annulus[1] * f
        pupil = quad(lambda d: pupil_dipole_profile(d, mirror) ** 2
                     * 2.0 * math.pi * d, lo, hi, epsabs=1e-13, limit=200)[0]
        theta_hi = parabola_ray_map(lo, mirror).theta
        theta_lo = parabola_ray_map(hi, mirror).theta
        angular = quad(lambda t: math.sin(t) ** 3 * 2.0 * math.pi,
                       theta_lo, theta_hi, epsabs=1e-13, limit=200)[0]
        np.testing.assert_allclose(pupil, f * f * angular, rtol=1e-6)

    def test_full_pupil_norm(self):
        # integral of A^2 2 pi d dd from 0 to infinity is f^2 * 8 pi / 3
        for f in (0.7, 1.0, 3.0):
            mirror = ParabolicMirror(focal_length=f, aperture_radius=1e7)
            total = sum(
                quad(lambda d: pupil_dipole_profile(d, mirror) ** 2
                     * 2.0 * math.pi * d, a, b, epsabs=1e-13, limit=200)[0]
                for a, b in [(1e-9 * f, 0.2 * f), (0.2 * f, 20.0 * f),
                             (20.0 * f, 2e3 * f), (2e3 * f, 2e6 * f)])
            np.testing.assert_allclose(total, f * f * FULL_DIPOLE_SOLID_ANGLE,
                                       rtol=1e-6)


def profile_to_angular(profile, mirror):
    """Jacobian remap of a pupil profile to the angular side (test oracle)."""
    beam = pupil_amplitude(profile, mirror)
    f = mirror.focal_length

    def angular(theta):
        u = math.tan(0.5 * (math.pi - theta))
        return beam(2.0 * f * u) * f * (1.0 + u * u)

    return angular


class TestOverlap:
    MIRROR = ParabolicMirror(focal_length=1.0, aperture_radius=20.0,
                             hole_radius=0.4)

    def test_matched_profile_saturates_bound(self):
        for mirror in [self.MIRROR, ParabolicMirror(1.0, 3.0, 0.5),
                       ParabolicMirror(1.0, 15.0, 1.0)]:
            eta = overlap_eta(BeamProfile.dipole_matched(), mirror)
            np.testing.assert_allclose(eta, 1.0, atol=1e-9)

    def test_matched_on_cone(self):
        cone = ConeAperture(half_angle=2.0, orientation=AXIAL)
        np.testing.assert_allclose(
            overlap_eta(BeamProfile.dipole_matched(), cone), 1.0, atol=1e-9)

    def test_flat_top_full_sphere(self):
        cone = ConeAperture(half_angle=math.pi, orientation=AXIAL)
        eta = overlap_eta(BeamProfile.flat_top(), cone)
        np.testing.assert_allclose(eta, math.pi * math.sqrt(3.0 / 32.0),
                                   atol=1e-9)
        np.testing.assert_allclose(eta, 0.9620, atol=1e-4)

    def test_strictly_below_one_for_mismatched(self):
        assert overlap_eta(BeamProfile.flat_top(), self.MIRROR) < 1.0 - 1e-3
        assert overlap_eta(BeamProfile.doughnut(1.0), self.MIRROR) < 1.0 - 1e-3

    def test_bounded_by_one(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            w = float(rng.uniform(0.2, 10.0))
            eta = overlap_eta(BeamProfile.doughnut(w), self.MIRROR)
            assert 0.0 <= eta <= 1.0

    def test_pupil_remap_energy_conservation(self):
        # the angular image of each profile carries the same norm
        profiles = [BeamProfile.flat_top(), BeamProfile.doughnut(1.6),
                    BeamProfile.dipole_matched()]
        lo, hi = 0.4, 20.0
        theta_hi = parabola_ray_map(lo, self.MIRROR).theta
        theta_lo = parabola_ray_map(hi, self.MIRROR).theta
        for profile in profiles:
            beam = pupil_amplitude(profile, self.MIRROR)
            angular = profile_to_angular(profile, self.MIRROR)
            pupil_norm = quad(lambda d: beam(d) ** 2 * 2.0 * math.pi * d,
                              lo, hi, epsabs=1e-13, limit=200)[0]
            angular_norm = quad(lambda t: angular(t) ** 2 * 2.0 * math.pi
                                * math.sin(t), theta_lo, theta_hi,
                                epsabs=1e-13, limit=200)[0]
            np.testing.assert_allclose(pupil_norm, angular_norm, rtol=1e-6)

    def test_transverse_cone_rejected(self):
        cone = ConeAperture(half_angle=1.0, orientation=TRANSVERSE)
        with pytest.raises(DomainError):
            overlap_eta(BeamProfile.flat_top(), cone)

    def test_doughnut_needs_pupil(self):
        cone = ConeAperture(half_angle=1.0, orientation=AXIAL)
        with pytest.raises(DomainError):
            overlap_eta(BeamProfile.doughnut(1.0), cone)

    def test_zero_norm_profile_degenerate(self):
        silent = BeamProfile.custom(lambda d: 0.0)
        with pytest.raises(DegenerateResultError):
            overlap_eta(silent, self.MIRROR)

    def test_underflowing_region_degenerate(self):
        # the dipole norm of a pupil 1e-80 f across underflows
        with pytest.raises(DegenerateResultError):
            overlap_eta(BeamProfile.flat_top(), ParabolicMirror(1.0, 1e-80))

    @pytest.mark.parametrize("geometry_", [
        ParabolicMirror(1.0, 1e-60),
        ParabolicMirror(1.0, 1e-76),
        ConeAperture(1e-60, AXIAL),
    ], ids=["mirror-1e-60", "mirror-1e-76", "cone-1e-60"])
    def test_narrow_region_keeps_precision(self, geometry_):
        # near the vertex or the axis the flat-top overlap tends to
        # 2 sqrt(2) / 3; both norms are normal, but their product underflows
        eta = overlap_eta(BeamProfile.flat_top(), geometry_)
        assert eta == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("geometry_", [ParabolicMirror(1.0, 4.0, 0.2),
                                           ConeAperture(1.0, AXIAL)])
    def test_nan_custom_profile_rejected(self, geometry_):
        # QUADPACK flags the NaN integrand, but the caller sees only the
        # refusal: no IntegrationWarning, nor any other warning
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(DomainError, match="non-finite"):
                overlap_eta(BeamProfile.custom(lambda d: math.nan), geometry_)
        assert caught == []

    @pytest.mark.parametrize("geometry_", [ParabolicMirror(1.0, 4.0, 0.2),
                                           ConeAperture(1.0, AXIAL)])
    def test_infinite_custom_profile_rejected(self, geometry_):
        with pytest.raises(DomainError, match="non-finite"):
            overlap_eta(BeamProfile.custom(lambda d: math.inf), geometry_)

    def test_overflowing_custom_profile_rejected(self):
        huge = BeamProfile.custom(lambda x: 1e200)
        for geometry_ in (self.MIRROR, ConeAperture(1.0, AXIAL)):
            with pytest.raises(DomainError):
                overlap_eta(huge, geometry_)
        with pytest.raises(DomainError):
            recollimation_parameters(self.MIRROR, huge)


class TestRecollimation:
    def test_flat_top_worked_example(self):
        mirror = ParabolicMirror(focal_length=1.0, aperture_radius=4.0,
                                 hole_radius=0.2)
        recol = recollimation_parameters(mirror, BeamProfile.flat_top())
        np.testing.assert_allclose(recol.p, 15.0 / 15.96, atol=1e-3)
        np.testing.assert_allclose(recol.omega_n_prime, 0.7920, atol=1e-3)
        np.testing.assert_allclose(mirror_weighted_solid_angle(mirror), 0.8957,
                                   atol=1e-3)

    def test_infinite_mirror_matched_profile(self):
        # a hole-free, effectively infinite mirror re-collimates the matched
        # beam onto itself: the sine pattern is the involution image of itself
        mirror = ParabolicMirror(focal_length=1.0, aperture_radius=1e6)
        recol = recollimation_parameters(mirror, BeamProfile.dipole_matched())
        omega_n = mirror_weighted_solid_angle(mirror)
        np.testing.assert_allclose(recol.omega_n_prime, omega_n, atol=1e-6)
        np.testing.assert_allclose(recol.p, 1.0, atol=1e-6)
        np.testing.assert_allclose(recol.eta_prime, 1.0, atol=1e-6)

    def test_exit_beam_power_conserved(self):
        # eta_prime denominators: remapped power equals kept power
        mirror = ParabolicMirror(focal_length=1.0, aperture_radius=6.0,
                                 hole_radius=0.3)
        beam = pupil_amplitude(BeamProfile.doughnut(1.4), mirror)
        f = mirror.focal_length
        lo = max(mirror.hole_radius, 4.0 * f * f / mirror.aperture_radius)
        hi = min(mirror.aperture_radius, 4.0 * f * f / mirror.hole_radius)

        def exit_beam(rho):
            entry = 4.0 * f * f / rho
            return beam(entry) * entry * entry / (4.0 * f * f)

        kept = quad(lambda d: beam(d) ** 2 * d, lo, hi, epsabs=1e-13,
                    limit=200)[0]
        remapped = quad(lambda d: exit_beam(d) ** 2 * d, lo, hi, epsabs=1e-13,
                        limit=200)[0]
        np.testing.assert_allclose(remapped, kept, rtol=1e-6)

    def test_omega_prime_never_exceeds_omega(self):
        rng = np.random.default_rng(47)
        for _ in range(30):
            f = float(rng.uniform(0.3, 3.0))
            r = float(rng.uniform(3.0, 40.0)) * f
            h = float(rng.uniform(0.0, 0.4)) * f
            mirror = ParabolicMirror(focal_length=f, aperture_radius=r,
                                     hole_radius=h)
            recol = recollimation_parameters(mirror, BeamProfile.flat_top())
            assert recol.omega_n_prime <= mirror_weighted_solid_angle(mirror) + 1e-12
            assert 0.0 <= recol.p <= 1.0

    @pytest.mark.parametrize("mirror", [ParabolicMirror(1.3, 7.0, 0.5),
                                        ParabolicMirror(1.3, 7.0, 2.0),
                                        ParabolicMirror(0.7, 30.0),
                                        ParabolicMirror(1.0, 2.5, 0.5)],
                             ids=["inner-ring", "outer-ring", "hole-free", "narrow"])
    def test_custom_power_integrates_each_ring_once(self, mirror, monkeypatch):
        # p's annulus power is the kept power plus the rings outside the kept
        # interval: the power integrals tile [u_h, u_R] with no overlap
        f = mirror.focal_length
        beam = lambda d: math.exp(-(d / (1.5 * f)) ** 2)
        intervals, real_quad = [], geometry._quad

        def recording_quad(fn, lo, hi):
            probe = 0.5 * (lo + hi)
            # the power integrand's own arithmetic, so that no last-bit
            # difference can hide a ring
            b = beam(f * (2.0 * probe))
            if fn(probe) == b * b * probe:
                intervals.append((lo, hi))
            return real_quad(fn, lo, hi)

        monkeypatch.setattr(geometry, "_quad", recording_quad)
        recollimation_parameters(mirror, BeamProfile.custom(beam))
        intervals.sort()
        u_h, u_r = 0.5 * mirror.hole_radius / f, 0.5 * mirror.aperture_radius / f
        assert intervals[0][0] == u_h and intervals[-1][1] == u_r
        assert all(a < b for a, b in intervals)
        assert all(prev[1] == cur[0] for prev, cur in zip(intervals, intervals[1:]))

    @pytest.mark.parametrize("lo, hi", [
        (0.0, 5.0), (0.0, 1.5e-6), (0.0, 1e-6), (0.0, 1e-7), (1e-9, 3e-6),
        (0.25, 1.25), (0.1, 1.0), (0.1, math.nextafter(1.0, 2.0)), (0.3, 3.0),
        (1e-3, 7e5), (2.0, 1e300), (1e300, 1.7e308)])
    def test_pupil_cuts_a_decade_apart_from_the_outer_end(self, lo, hi, monkeypatch):
        # the pieces tile [lo, hi], each but the innermost spans a factor of
        # at most 10, and the innermost ends within a decade of max(lo, 1e-6)
        pieces = []
        monkeypatch.setattr(geometry, "_quad",
                            lambda fn, a, b: pieces.append((a, b)) or (0.0, 0.0))
        geometry._pupil_quad(lambda u: u, lo, hi)
        pieces.sort()
        assert pieces[0][0] == lo and pieces[-1][1] == hi
        assert all(prev[1] == cur[0] for prev, cur in zip(pieces, pieces[1:]))
        assert all(b <= 10.0 * a * (1.0 + 2.0 ** -50) for a, b in pieces[1:])
        assert all(a < b for a, b in pieces)
        assert pieces[0][1] <= 10.0 * max(lo, 1e-6) * (1.0 + 2.0 ** -50)

    def test_annulus_narrower_than_a_decade_is_one_piece(self, monkeypatch):
        # u in [0.25, 1.25]: one piece for each of the cross term and the
        # power
        calls = []
        real_quad = geometry._quad
        monkeypatch.setattr(geometry, "_quad",
                            lambda fn, a, b: calls.append((a, b)) or real_quad(fn, a, b))
        overlap_eta(BeamProfile.custom(lambda d: math.exp(-(d / 1.5) ** 2)),
                    ParabolicMirror(1.0, 2.5, 0.5))
        assert calls == [(0.25, 1.25)] * 2

    def test_custom_matches_quadrature_oracle(self):
        # p and eta_prime of a Gaussian from independent quadrature in d
        rng = np.random.default_rng(71)
        for mirror in seeded_mirrors(seed=73, f=0.8, count=8):
            f, r, h = mirror.focal_length, mirror.aperture_radius, mirror.hole_radius
            g = 10.0 ** rng.uniform(-0.7, 0.7) * f
            beam = lambda d, g=g: math.exp(-(d / g) ** 2)
            dip = lambda d: pupil_dipole_profile(d, mirror)
            lo, hi = (2.0 * f * u for u in kept_interval(mirror))
            scales = (2.0 * f, g, 4.0 * f * f / g)
            kept = oracle_quad(lambda d: beam(d) ** 2 * d, lo, hi, scales)
            total = oracle_quad(lambda d: beam(d) ** 2 * d, h, r, scales)
            cross = oracle_quad(lambda d: beam(d) * dip(d) * d, lo, hi, scales)
            norm = oracle_quad(lambda d: dip(d) ** 2 * d, lo, hi, scales)
            recol = recollimation_parameters(mirror, BeamProfile.custom(beam))
            assert recol.p == pytest.approx(kept / total, rel=1e-12, abs=0.0), mirror
            assert recol.eta_prime == pytest.approx(
                cross / math.sqrt(kept * norm), rel=1e-12, abs=0.0), mirror

    def test_degenerate_when_nothing_survives(self):
        # hole so large that every surviving ray exits through it
        mirror = ParabolicMirror(focal_length=1.0, aperture_radius=2.1,
                                 hole_radius=2.05)
        with pytest.raises(DegenerateResultError):
            recollimation_parameters(mirror, BeamProfile.flat_top())


FLAT = BeamProfile.flat_top()
MATCHED = BeamProfile.dipole_matched()


def oracle_quad(fn, lo, hi, scales=(), epsrel=2e-14):
    """Adaptive quadrature with a purely relative tolerance, split at the
    decades of each length scale inside the interval."""
    cuts = sorted(s * 10.0**k for s in scales for k in range(-4, 5)
                  if lo < s * 10.0**k < hi)
    bounds = [lo] + cuts + [hi]
    return sum(quad(fn, a, b, epsabs=0.0, epsrel=epsrel, limit=500)[0]
               for a, b in zip(bounds, bounds[1:]))


def pupil_regions(seed, count):
    """Seeded pupil annuli in units of f, down to radii of 2e-3 f."""
    rng = np.random.default_rng(seed)
    regions = [(0.0, 2e-3), (2e-3, 4e-3), (2e-3, 1.0), (0.0, 50.0), (1.5, 2.5),
               (30.0, 200.0)]
    for _ in range(count):
        lo = 0.0 if rng.uniform() < 0.2 else 2e-3 * 10.0 ** rng.uniform(0.0, 4.0)
        span = 10.0 ** rng.uniform(-2.7, 2.0)
        regions.append((lo, lo * 10.0 ** rng.uniform(0.01, 2.0) if lo else span))
    return regions


def seeded_mirrors(seed, f, count):
    """Seeded mirrors of focal length f that re-collimate some rays (R > 2f,
    h < 2f); about a third have no hole."""
    rng = np.random.default_rng(seed)
    mirrors = []
    for _ in range(count):
        r = 10.0 ** rng.uniform(math.log10(2.05), 3.0) * f
        h = 0.0 if rng.uniform() < 0.3 else 10.0 ** rng.uniform(-3.0, math.log10(1.9)) * f
        mirrors.append(ParabolicMirror(f, r, h))
    return mirrors


def kept_interval(mirror):
    """The library's kept interval, in units of 2f."""
    f = mirror.focal_length
    return geometry._kept_interval(0.5 * mirror.hole_radius / f,
                                   0.5 * mirror.aperture_radius / f)


def exit_beam_overlap(beam, mirror, scales):
    """eta_prime from its original integrand: the re-collimated exit beam
    beam(4 f^2 / rho) (2f / rho)^2 against the pupil dipole profile on the
    kept interval, normalised by the kept power and the dipole norm there.
    The library's norms are in units of 2f, so 4 f^2 times smaller than in d.
    At 2e-14 the rapidly decaying exit Gaussians trip QUADPACK's roundoff
    detector; 1e-13 is still 100 times tighter than the checks."""
    f = mirror.focal_length
    lo, hi = kept_interval(mirror)
    amplitude = pupil_amplitude(beam, mirror)
    cross = oracle_quad(
        lambda rho: (amplitude(4.0 * f * f / rho) * (2.0 * f / rho) ** 2
                     * pupil_dipole_profile(rho, mirror) * rho),
        2.0 * f * lo, 2.0 * f * hi, scales=(2.0 * f,) + scales, epsrel=1e-13)
    return cross / (4.0 * f * f) / math.sqrt(geometry._pupil_power(beam, f, lo, hi)
                                             * geometry._dipole_norm(lo, hi))


def golden_section_max(fn, lo, hi, rel_tol):
    """Reference maximiser: golden-section search until the bracket is
    narrower than rel_tol times its larger end, then fn at its midpoint."""
    g = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > rel_tol * hi:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + g * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - g * (hi - lo)
            f1 = fn(x1)
    x = 0.5 * (lo + hi)
    return x, fn(x)


class TestOptimizeWaist:
    DEEP = ParabolicMirror(focal_length=1.0, aperture_radius=20.0,
                           hole_radius=0.4)
    MIRRORS = [DEEP] + seeded_mirrors(seed=79, f=1.7, count=3)

    def test_matched_family_is_perfect(self):
        family = lambda w: BeamProfile.dipole_matched()
        result = optimize_waist(self.DEEP, family=family)
        assert result.eta == 1.0

    @pytest.mark.parametrize("mirror", MIRRORS)
    def test_few_evaluations(self, mirror):
        waists = []

        def family(w):
            waists.append(w)
            return BeamProfile.doughnut(w)

        result = optimize_waist(mirror, family=family)
        assert len(waists) <= 14
        assert result.waist in waists

    @pytest.mark.parametrize("mirror", MIRRORS)
    def test_at_least_as_good_as_golden_section(self, mirror):
        f = mirror.focal_length
        waist, eta = golden_section_max(
            lambda w: overlap_eta(BeamProfile.doughnut(w), mirror), 0.1 * f, 20.0 * f, 1e-6)
        result = optimize_waist(mirror)
        assert result.eta >= eta - 1e-12
        assert result.waist == pytest.approx(waist, rel=1e-5, abs=0.0)

    def test_doughnut_on_deep_mirror(self):
        result = optimize_waist(self.DEEP)
        assert 0.95 <= result.eta < 1.0
        assert 0.1 <= result.waist <= 20.0

    def test_local_optimality(self):
        result = optimize_waist(self.DEEP)
        for factor in (1.0 - 1e-3, 1.0 + 1e-3):
            nearby = overlap_eta(BeamProfile.doughnut(result.waist * factor),
                                 self.DEEP)
            assert nearby <= result.eta + 1e-12

    def test_bad_bracket_rejected(self):
        with pytest.raises(DomainError):
            optimize_waist(self.DEEP, bracket=(2.0, 1.0))

    @pytest.mark.parametrize("k", [30, 60, 100])
    def test_wide_bracket(self, k):
        # a search in w rather than log w stopped on the flat wide-waist
        # plateau: at k = 30 it returned w = 7.3e8 with eta = 0.7406
        mirror = ParabolicMirror(1.0, 4.0)
        best = optimize_waist(mirror, bracket=(2.0 ** -k, 2.0 ** k))
        default = optimize_waist(mirror)
        assert abs(best.waist - default.waist) <= 1e-6 * default.waist, best

    @settings(max_examples=100, deadline=None)
    @given(f=st.floats(-4.0, 4.0).map(lambda k: 10.0 ** k), r=st.floats(2.1, 6.0),
           h=st.floats(0.0, 1.8), lo=st.floats(0.1, 1.0), hi=st.floats(1.5, 20.0),
           rel_tol=st.floats(-16.0, -2.0).map(lambda k: 10.0 ** k),
           j=st.integers(-1000, 1000))
    def test_power_of_two_scaling(self, f, r, h, lo, hi, rel_tol, j):
        # the overlap depends on w / f alone, exactly under power-of-two
        # scaling, and so does the search: every bit of the result
        def search(scale):
            mirror = ParabolicMirror(scale * f, scale * r * f, scale * h * f)
            return optimize_waist(mirror, bracket=(scale * lo * f, scale * hi * f),
                                  rel_tol=rel_tol)
        best, scaled = search(1.0), search(2.0 ** j)
        assert (scaled.waist / 2.0 ** j, scaled.eta) == (best.waist, best.eta)


class TestClosedForms:
    """Each closed form against quadrature of its original integrand.

    The library integrates over u = d / 2f with measure u du; each oracle
    integrates the original integrand over d and divides by 4 f^2."""

    RTOL = 1e-11

    @pytest.mark.parametrize("f", [0.37, 1.0, 6.1])
    def test_pupil_integrals(self, f):
        mirror = ParabolicMirror(focal_length=f, aperture_radius=1e6 * f)
        dip = lambda d: pupil_dipole_profile(d, mirror)
        closed = {
            "dipole norm": (geometry._dipole_norm, lambda d: dip(d) ** 2 * d),
            "flat-top power": (
                lambda lo, hi: geometry._pupil_power(FLAT, f, lo, hi),
                lambda d: d),
            "flat-top cross": (
                lambda lo, hi: geometry._pupil_cross(FLAT, f, lo, hi),
                lambda d: dip(d) * d),
            "matched power": (
                lambda lo, hi: geometry._pupil_power(MATCHED, f, lo, hi),
                lambda d: dip(d) ** 2 * d),
        }
        for lo, hi in pupil_regions(seed=int(f * 100), count=25):
            lo, hi = lo * f, hi * f
            for name, (value, integrand) in closed.items():
                expected = oracle_quad(integrand, lo, hi, scales=(2.0 * f,)) / (4.0 * f * f)
                assert value(lo / (2.0 * f), hi / (2.0 * f)) == pytest.approx(
                    expected, rel=self.RTOL, abs=0.0), (name, lo, hi)
        rng = np.random.default_rng(int(f * 100) + 3)
        for design in seeded_mirrors(seed=int(f * 100) + 5, f=f, count=12):
            g = 10.0 ** rng.uniform(-1.0, 1.0) * f
            gaussian = BeamProfile.custom(lambda d, g=g: math.exp(-(d / g) ** 2))
            for beam, scales in ((FLAT, ()), (MATCHED, ()), (gaussian, (g, 4.0 * f * f / g))):
                assert recollimation_parameters(design, beam).eta_prime == pytest.approx(
                    exit_beam_overlap(beam, design, scales), rel=self.RTOL, abs=0.0), (
                    beam.kind, design)

    def test_doughnut_power(self):
        rng = np.random.default_rng(59)
        mirror = ParabolicMirror(focal_length=1.0, aperture_radius=1e6)
        for lo, hi in pupil_regions(seed=61, count=30):
            w = 10.0 ** rng.uniform(-2.0, 1.0)
            beam = BeamProfile.doughnut(w)
            amplitude = pupil_amplitude(beam, mirror)
            expected = oracle_quad(lambda d: amplitude(d) ** 2 * d, lo, hi,
                                   scales=(w,))
            if expected < 1e-250:
                continue
            assert geometry._pupil_power(beam, 1.0, lo / 2.0, hi / 2.0) == pytest.approx(
                expected / 4.0, rel=self.RTOL, abs=0.0), (w, lo, hi)

    @pytest.mark.parametrize("f", [0.37, 1.0, 6.1])
    def test_doughnut_cross_terms(self, f):
        # waists 10^-2 f .. 10 f, so a = (2f/w)^2 runs from 0.04 to 4e4
        rng = np.random.default_rng(int(f * 100) + 7)
        mirror = ParabolicMirror(focal_length=f, aperture_radius=1e6 * f)
        dip = lambda d: pupil_dipole_profile(d, mirror)

        def ring(d, w):
            x = d / w
            return x * math.exp(-x * x)   # x * x is inf, not an error, for huge d

        for lo, hi in pupil_regions(seed=int(f * 100) + 11, count=30):
            lo, hi = lo * f, hi * f
            w = 10.0 ** rng.uniform(-2.0, 1.0) * f
            beam = BeamProfile.doughnut(w)
            scales = (2.0 * f, w, 4.0 * f * f / w)
            expected = oracle_quad(lambda d: ring(d, w) * dip(d) * d, lo, hi, scales=scales)
            if expected < 1e-250:
                continue
            assert geometry._pupil_cross(beam, f, lo / (2.0 * f), hi / (2.0 * f)) == (
                pytest.approx(expected / (4.0 * f * f), rel=self.RTOL, abs=0.0)), (w, lo, hi)
        for design in seeded_mirrors(seed=int(f * 100) + 13, f=f, count=12):
            w = 10.0 ** rng.uniform(-0.5, 1.0) * f
            beam = BeamProfile.doughnut(w)
            assert recollimation_parameters(design, beam).eta_prime == pytest.approx(
                exit_beam_overlap(beam, design, (w, 4.0 * f * f / w)),
                rel=self.RTOL, abs=0.0), (w, design)

    def test_cone_integrals(self):
        # each cone integral is a head on [0, alpha]
        rng = np.random.default_rng(67)
        alphas = [1e-3, 3e-3, 1e-2, 0.1, 1.0, math.pi / 2, 2.0, math.pi - 1e-3, math.pi]
        alphas += [10.0 ** rng.uniform(-3.0, math.log10(math.pi)) for _ in range(30)]
        alphas += [float(a) for a in rng.uniform(0.0, math.pi, size=30)]
        for head, power in ((geometry._sin_head, 1), (geometry._sin2_head, 2),
                            (geometry._sin3_head, 3)):
            for alpha in alphas:
                expected = oracle_quad(lambda t: math.sin(t) ** power, 0.0, alpha)
                assert head(alpha) == pytest.approx(
                    expected, rel=self.RTOL, abs=0.0), (power, alpha)


class TestQuadratureOnlyWhereNeeded:
    MIRRORS = [ParabolicMirror(1.0, 4.0, 0.2), ParabolicMirror(0.3, 9.0),
               ParabolicMirror(2.0, 30.0, 1.0)]
    CONES = [ConeAperture(a, AXIAL) for a in (1e-3, 1.0, math.pi / 2, math.pi)]

    @pytest.fixture(autouse=True)
    def no_quadrature(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("quadrature reached")
        monkeypatch.setattr(geometry, "_quad", refuse)

    def test_flat_top_and_matched_mirrors(self):
        for mirror in self.MIRRORS:
            assert 0.0 < overlap_eta(FLAT, mirror) < 1.0
            recol = recollimation_parameters(mirror, FLAT)
            assert 0.0 < recol.eta_prime < 1.0 and 0.0 < recol.p <= 1.0
            assert overlap_eta(MATCHED, mirror) == 1.0
            assert recollimation_parameters(mirror, MATCHED).eta_prime == 1.0

    def test_flat_top_and_matched_cones(self):
        for cone in self.CONES:
            assert 0.0 < overlap_eta(FLAT, cone) < 1.0
            assert overlap_eta(MATCHED, cone) == 1.0

    def test_doughnut_mirrors(self):
        for mirror in self.MIRRORS:
            for waist in (0.3, 1.0, 30.0):
                doughnut = BeamProfile.doughnut(waist * mirror.focal_length)
                assert 0.0 < overlap_eta(doughnut, mirror) < 1.0
                recol = recollimation_parameters(mirror, doughnut)
                assert 0.0 < recol.eta_prime < 1.0 and 0.0 < recol.p <= 1.0
            assert 0.0 < optimize_waist(mirror).eta < 1.0

    def test_custom_profile_still_integrates(self):
        gaussian = BeamProfile.custom(lambda d: math.exp(-d * d))
        with pytest.raises(AssertionError, match="quadrature reached"):
            overlap_eta(gaussian, self.MIRRORS[0])


class TestDoughnutPowerAccuracy:
    def test_kept_power_fraction_is_exact(self):
        # The exact p is from a 30-digit evaluation of the power integrals;
        # segmented quadrature of the narrow ring gave 0.99999983229683.
        mirror = ParabolicMirror(focal_length=0.09284009685431777,
                                 aperture_radius=3.0771693156512456,
                                 hole_radius=0.14689298781033486)
        recol = recollimation_parameters(
            mirror, BeamProfile.doughnut(0.04816609791359904))
        assert abs(recol.p - 0.999999999999297) <= 1e-12


class TestCustomProfileAccuracy:
    # A narrow Gaussian whose kept power is ~1e-36: the quadrature tolerance
    # must be relative, or these integrals get only absolute accuracy.
    MIRROR = ParabolicMirror(focal_length=0.024434, aperture_radius=0.069352,
                             hole_radius=1.0857e-4)
    W = 0.0056894
    GAUSSIAN = BeamProfile.custom(lambda d, w=W: math.exp(-(d / w) ** 2))

    def test_kept_power_matches_closed_form(self):
        # in d the kept power is 4 f^2 times the library's, over d = f (2u)
        f, w = self.MIRROR.focal_length, self.W
        lo, hi = (f * (2.0 * u) for u in kept_interval(self.MIRROR))
        exact = 0.25 * w * w * (math.exp(-2.0 * (lo / w) ** 2) - math.exp(-2.0 * (hi / w) ** 2))
        kept = geometry._pupil_power(self.GAUSSIAN, f, lo / (2.0 * f), hi / (2.0 * f))
        assert kept == pytest.approx(exact / (4.0 * f * f), rel=1e-12, abs=0.0)

    def test_eta_prime(self):
        # exact value from the closed-form kept power and a 30-digit exit cross term
        recol = recollimation_parameters(self.MIRROR, self.GAUSSIAN)
        assert recol.eta_prime == pytest.approx(0.181247278124023, rel=1e-12, abs=0.0)


class TestQuadpackRoutine:
    # geometry._quad calls scipy's private binding of QUADPACK's QAGS, the
    # routine quad itself calls for finite bounds.  If scipy renames it or
    # changes what it returns, these tests name the cause.
    ARGS = ((), 0, geometry._EPSABS, geometry._EPSREL, geometry._LIMIT)
    QUAD = dict(epsabs=geometry._EPSABS, epsrel=geometry._EPSREL, limit=geometry._LIMIT)

    @pytest.mark.parametrize("fn, lo, hi", [
        (lambda x: math.exp(-x * x), 0.0, 3.0),
        (lambda x: x ** -0.4, 0.0, 2.0),
        (lambda x: math.exp(-((x - 1e-3) / 1e-5) ** 2), 5e-4, 2e-3),
    ], ids=["gaussian", "d^-0.4", "narrow-ring"])
    def test_same_bits_as_quad(self, fn, lo, hi):
        value, error, ier = _qagse(fn, lo, hi, *self.ARGS)
        assert ier == 0
        assert (value, error) == quad(fn, lo, hi, **self.QUAD)
        # a piece within its tolerance carries no error into _integral
        assert geometry._quad(fn, lo, hi) == (value, 0.0)

    def test_flags_what_quad_warns_about(self):
        # 200 subintervals cannot resolve 16 000 periods: quad warns, while
        # the routine returns the same value with ier > 0 and a finite
        # estimate, which _quad passes on
        fn = lambda x: math.cos(1000.0 * x)
        value, error, ier = _qagse(fn, 0.0, 100.0, *self.ARGS)
        with pytest.warns(IntegrationWarning):
            expected = quad(fn, 0.0, 100.0, **self.QUAD)
        assert ier > 0 and math.isfinite(error) and error > 0.0
        assert (value, error) == expected
        assert geometry._quad(fn, 0.0, 100.0) == (value, error)


class TestCustomRefusal:
    # An integral is judged as a whole: it is refused when the error
    # estimates of the pieces QUADPACK flags add up to more than the relative
    # tolerance of the sum.

    @pytest.mark.parametrize("errors, refused", [
        ((0.0, 0.0), False), ((1e-12, 1e-12), False), ((2e-12, 5e-13), True),
        ((3e-12, 0.0), True)])
    def test_flagged_errors_add_up(self, errors, refused, monkeypatch):
        # two pieces of value 1 each: a tolerance of 2e-12 on the whole
        pieces = iter(errors)
        monkeypatch.setattr(geometry, "_quad", lambda fn, a, b: (1.0, next(pieces)))
        if refused:
            with pytest.raises(DegenerateResultError, match="error estimate"):
                geometry._integral(lambda x: x, (0.0, 1.0, 2.0))
        else:
            assert geometry._integral(lambda x: x, (0.0, 1.0, 2.0)) == 2.0

    def test_negligible_flagged_piece_is_kept(self, monkeypatch):
        # quad warned on this design ("maximum number of subdivisions"): one
        # piece is flagged, but its error is negligible against the whole
        mirror = ParabolicMirror(1.0, 273021.54331049783)
        beam = BeamProfile.custom(lambda d: math.exp(-(d / 144.2804400555379) ** 2))
        flagged, real_quad = [], geometry._quad

        def recording_quad(fn, lo, hi):
            value, error = real_quad(fn, lo, hi)
            if error:
                flagged.append((lo, hi, error))
            return value, error

        monkeypatch.setattr(geometry, "_quad", recording_quad)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = (overlap_eta(beam, mirror), *recollimation_parameters(mirror, beam)[1:])
        assert flagged
        assert all(0.0 <= v <= 1.0 for v in values), values

    def test_missed_tolerance_refused(self):
        # the kept power's error estimate is 1.09e-198 on 3.03e-190: far
        # outside the tolerance, so there is no value to return
        mirror = ParabolicMirror(3.854383871903042e-132, 7.360868477243566e-125)
        beam = BeamProfile.custom(lambda d: math.exp(-(d / 4.129357929148996e-140) ** 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateResultError, match="error estimate"):
                recollimation_parameters(mirror, beam)


class TestCustomReproducesPresets:
    # A custom amplitude equal to a preset goes through the quadrature path
    # and must land on the preset's closed form: flat top for a constant, and
    # an overlap of 1 for the dipole pattern itself.
    RTOL = 4e-15

    @pytest.mark.parametrize("geometry_", [
        *(ConeAperture(alpha, AXIAL) for alpha in (1e-3, 0.1, 1.0, 2.0, 3.0, math.pi)),
        ParabolicMirror(1.0, 4.0, 0.2),
        ParabolicMirror(1.0, 20.0),
        ParabolicMirror(1e100, 5e101, 3e98),
    ], ids=["cone-1e-3", "cone-0.1", "cone-1", "cone-2", "cone-3", "cone-pi",
            "holed", "hole-free", "scaled"])
    def test_custom_equals_preset(self, geometry_):
        flat = BeamProfile.flat_top()
        if isinstance(geometry_, ConeAperture):
            one, dipole = BeamProfile.custom(lambda t: 1.0), BeamProfile.custom(math.sin)
        else:
            one = BeamProfile.custom(lambda d: 1.0)
            dipole = BeamProfile.custom(lambda d: pupil_dipole_profile(d, geometry_))
        assert overlap_eta(one, geometry_) == pytest.approx(
            overlap_eta(flat, geometry_), rel=self.RTOL, abs=0.0)
        assert overlap_eta(dipole, geometry_) == pytest.approx(1.0, rel=self.RTOL, abs=0.0)
        if isinstance(geometry_, ParabolicMirror):
            got, want = (recollimation_parameters(geometry_, profile)
                         for profile in (one, flat))
            assert got.eta_prime == pytest.approx(want.eta_prime, rel=self.RTOL, abs=0.0)
            assert got.p == pytest.approx(want.p, rel=self.RTOL, abs=0.0)
            assert recollimation_parameters(geometry_, dipole).eta_prime == pytest.approx(
                1.0, rel=self.RTOL, abs=0.0)


class TestExtremeWaists:
    @pytest.mark.parametrize("waist", [1e-200, 1e160, 1e200])
    def test_degenerate_not_nan(self, waist):
        # the ring sits so many decades from the mirror scale that the
        # integrals leave the floating-point range
        for mirror in (ParabolicMirror(1.0, 4.0, 0.2), ParabolicMirror(1.0, 4.0)):
            with pytest.raises(DegenerateResultError):
                overlap_eta(BeamProfile.doughnut(waist), mirror)
            with pytest.raises(DegenerateResultError):
                recollimation_parameters(mirror, BeamProfile.doughnut(waist))

    @pytest.mark.parametrize("scale", [1e-30, 1e30])
    def test_scale_invariance(self, scale):
        # eta depends only on w/f, R/f and h/f
        for w_over_f in (0.05, 1.0, 1e50):
            unit = overlap_eta(BeamProfile.doughnut(w_over_f), ParabolicMirror(1.0, 4.0, 0.2))
            scaled = overlap_eta(BeamProfile.doughnut(w_over_f * scale),
                                 ParabolicMirror(scale, 4.0 * scale, 0.2 * scale))
            assert scaled == pytest.approx(unit, rel=1e-12, abs=0.0)


class TestPupilScale:
    # eta, eta_prime, p and the ray map depend only on w/f, R/f and h/f; at
    # these scales 4 f^2, or the product of the two norms, leaves the
    # floating-point range
    SCALES = [1e-300, 1e-160, 1e-100, 1e100, 1e160, 1e300]
    PROFILES = {
        "flattop": lambda scale: FLAT,
        "matched": lambda scale: MATCHED,
        "doughnut": lambda scale: BeamProfile.doughnut(1.4 * scale),
        "custom": lambda scale: BeamProfile.custom(
            lambda d: math.exp(-(d / (1.4 * scale)) ** 2)),
    }

    @pytest.mark.parametrize("scale", SCALES)
    @pytest.mark.parametrize("hole", [0.0, 0.2])
    def test_scale_invariance(self, scale, hole):
        for kind, profile in self.PROFILES.items():
            mirror = ParabolicMirror(1.0, 4.0, hole)
            scaled = ParabolicMirror(scale, 4.0 * scale, hole * scale)
            unit = (overlap_eta(profile(1.0), mirror),
                    *recollimation_parameters(mirror, profile(1.0)))
            values = (overlap_eta(profile(scale), scaled),
                      *recollimation_parameters(scaled, profile(scale)))
            assert values == pytest.approx(unit, rel=1e-12, abs=0.0), kind
            if kind == "matched":
                assert values[0] == values[2] == 1.0

    @pytest.mark.parametrize("f, r, hole", [(1.0, 1e60, 0.2), (1.0, 1e160, 0.2),
                                            (1e-8, 1e300, 0.0)])
    def test_huge_aperture_ratio(self, f, r, hole):
        # far past any real mirror, but every result is still in [0, 1] or an
        # AtomPhaseError: never an OverflowError or NaN
        mirror = ParabolicMirror(f, r, hole)
        for kind, profile in self.PROFILES.items():
            for compute in (lambda: [overlap_eta(profile(f), mirror)],
                            lambda: recollimation_parameters(mirror, profile(f))):
                try:
                    values = compute()
                except AtomPhaseError:
                    continue
                assert all(0.0 <= v <= 1.0 for v in values), kind

    @pytest.mark.parametrize("scale", SCALES)
    def test_ray_map(self, scale):
        mapping = parabola_ray_map(3.0 * scale, ParabolicMirror(scale, 4.0 * scale))
        unit = parabola_ray_map(3.0, ParabolicMirror(1.0, 4.0))
        assert mapping.d_prime == pytest.approx(4.0 * scale / 3.0, rel=1e-15, abs=0.0)
        assert mapping.theta == pytest.approx(unit.theta, rel=1e-15, abs=0.0)


class TestNarrowInterval:
    # A hole just under 2f, or a rim just past it, keeps a ring a few ulp
    # wide; differencing antiderivatives there gave eta_prime = -2.8
    PROFILES = [FLAT, MATCHED, BeamProfile.doughnut(1.3), BeamProfile.doughnut(0.2)]

    @pytest.mark.parametrize("profile", PROFILES, ids=["flattop", "matched", "doughnut-1.3",
                                                       "doughnut-0.2"])
    @pytest.mark.parametrize("mirror", [
        ParabolicMirror(1.0, 4.0, math.nextafter(2.0, 0.0)),
        ParabolicMirror(1e-80, 2.0000000000001e-80, 1e-81),
        ParabolicMirror(1.0, 2.0 + 1e-9),
    ], ids=["hole", "rim", "rim-1e-9"])
    def test_ring_overlap_is_one(self, profile, mirror):
        recol = recollimation_parameters(mirror, profile)
        assert recol.eta_prime == pytest.approx(1.0, rel=0.0, abs=1e-12)
        assert 0.0 < recol.p <= 1.0

    @pytest.mark.parametrize("profile", PROFILES, ids=["flattop", "matched", "doughnut-1.3",
                                                       "doughnut-0.2"])
    def test_rule_matches_closed_forms_at_the_cut(self, profile):
        # One form per integral at every width: the reference rows at 0.5, 1
        # and 2 times each edge of the doughnut cross term's series about the
        # inner end, h = c / 2 and a h = 1, starting on both sides of u = 1.
        rows = REFERENCE["series_boundary"]
        assert {(edge, k) for *_, edge, k in rows} == {
            (edge, k) for edge in ("h/c", "a*h") for k in (0.5, 1.0, 2.0)}
        for lo, hi, b, dip2, flat_cross, power, cross, edge, k in rows:
            h, c = (hi - lo) * (hi + lo), 1.0 + lo * lo
            ratio = h / (geometry._INNER_SERIES_RATIO * c) if edge == "h/c" else b * b * h
            assert ratio == pytest.approx(k, rel=1e-9)
            if profile.kind == "doughnut":
                # b is a power of two, so b = 2 (f / w) exactly at f = (b / 2) w
                f = 0.5 * b * profile.waist
                assert geometry._doughnut_b(profile, f) == b
                checks = [(0, cross, doughnut_cross_bound(b, lo)),
                          (1, power, ring_power_bound(b, lo))]
            else:
                f = 1.0
                checks = [(0, flat_cross if profile.kind == "flattop" else dip2, CONTRACT)]
            got = geometry._pupil_integrals(profile, f, lo, hi)
            for i, exact, bound in checks + [(2, dip2, CONTRACT)]:
                assert abs(got[i] - exact) <= bound * exact, (edge, k, i, got[i], exact)


class TestWeightReference:
    """Dipole weights against mpmath, from the same float inputs.

    The references are the textbook forms (2 - 3 cos t + cos^3 t) / 4 and
    1 - cos t, evaluated at 400 digits: enough for their cancellation at
    half-angles down to 1e-70 and on annuli a few ulp wide to leave more
    than 50.  A mirror's ray angle enters through cos(theta(u)) =
    (u^2 - 1) / (u^2 + 1), with u = d / 2f exact in float for f = 1, and
    omega_n_prime's reference takes the library's kept interval, whose end
    1 / u_R is itself a rounded float.
    """

    DIGITS = 400

    @staticmethod
    def axial(mp, cos_t):
        return (2 - 3 * cos_t + cos_t ** 3) / 4

    def cone_reference(self, mp, alpha, orientation):
        with mp.workdps(self.DIGITS):
            c = mp.cos(mp.mpf(alpha))
            axial = self.axial(mp, c)
            if orientation is AXIAL:
                return axial
            return 3 * (1 - c) / 4 - axial / 2

    def pupil_reference(self, mp, lo, hi):
        # the weight of theta in [theta(hi), theta(lo)]
        with mp.workdps(self.DIGITS):
            def cos_theta(u):
                t = mp.mpf(u) ** 2
                return (t - 1) / (t + 1)
            return self.axial(mp, cos_theta(lo)) - self.axial(mp, cos_theta(hi))

    @staticmethod
    def seeded_alphas():
        rng = np.random.default_rng(53)
        pinned = [math.pi / 2.0, math.pi, 1e-4, 1e-8]
        return pinned + [10.0 ** x for x in rng.uniform(-70.0, math.log10(math.pi), 240)]

    @staticmethod
    def seeded_mirrors():
        """Mirrors of f = 1 with R/f over [1e-8, 1e8], a third each
        hole-free, holed and with a narrow annulus; then as many that keep
        rays (R > 2f > h), with holes up to just under 2f."""
        rng = np.random.default_rng(59)
        pairs = [(1e-6, 0.0), (1e-3, 0.0), (2.0 * (1.0 + 1e-7), 2.0 * (1.0 - 1e-7))]
        for k in range(480):
            if k < 240:
                r = 10.0 ** rng.uniform(-8.0, 8.0)
                outer = r
            else:
                r = 2.0 * (1.0 + 10.0 ** rng.uniform(-15.0, 7.6))
                outer = 2.0
            if k % 3 == 0:
                h = 0.0
            elif k % 3 == 1:
                h = outer * 10.0 ** rng.uniform(-8.0, -1e-3)
            else:
                h = outer * (1.0 - 10.0 ** rng.uniform(-15.0, -2.0))
            pairs.append((r, h))
        return [ParabolicMirror(1.0, r, h) for r, h in pairs]

    @pytest.mark.parametrize("orientation", [AXIAL, TRANSVERSE])
    def test_cone(self, orientation):
        mp = pytest.importorskip("mpmath")
        for alpha in self.seeded_alphas():
            got = cone_weighted_solid_angle(ConeAperture(alpha, orientation))
            want = self.cone_reference(mp, alpha, orientation)
            assert abs(got - want) <= 2e-15 * want, (alpha, got, want)

    def test_mirror(self):
        mp = pytest.importorskip("mpmath")
        kept = 0
        for mirror in self.seeded_mirrors():
            r, h = mirror.aperture_radius, mirror.hole_radius
            want = self.pupil_reference(mp, 0.5 * h, 0.5 * r)
            got = mirror_weighted_solid_angle(mirror)
            assert abs(got - want) <= 4e-15 * want, (r, h, got, want)
            lo, hi = kept_interval(mirror)
            if lo < hi:
                kept += 1
                want = self.pupil_reference(mp, lo, hi)
                got = recollimation_parameters(mirror, FLAT).omega_n_prime
                assert abs(got - want) <= 4e-15 * want, (r, h, got, want)
        assert kept >= 200


class TestPupilReference:
    """Pupil integrals against ``reference.json``: 60-digit values of the
    same float inputs (see ``tools/reference.py``)."""

    INTERVALS = REFERENCE["intervals"]

    def test_intervals_cover_the_contract(self):
        rows = self.INTERVALS
        assert len(rows) >= 1000
        assert sum(hi <= 1.0 for _, hi, *_ in rows) >= 300
        assert sum(lo >= 1.0 for lo, *_ in rows) >= 300
        assert sum(lo < 1.0 < hi for lo, hi, *_ in rows) >= 200
        assert min(math.log2((hi - lo) / math.ulp(hi)) for lo, hi, *_ in rows) <= 1.0
        assert max((hi - lo) / hi for lo, hi, *_ in rows) == 1.0   # intervals from 0

    def test_dipole_norm_and_flat_top_cross_term(self):
        for lo, hi, _, dip2, flat_cross, *_ in self.INTERVALS:
            got = geometry._dipole_norm(lo, hi)
            assert abs(got - dip2) <= CONTRACT * dip2, (lo, hi, got, dip2)
            got = geometry._pupil_cross(FLAT, 1.0, lo, hi)
            assert abs(got - flat_cross) <= CONTRACT * flat_cross, (lo, hi, got, flat_cross)

    def test_doughnut_power(self):
        for lo, hi, b, _, _, power, _ in self.INTERVALS:
            got = geometry._ring_power(b, lo, hi)
            assert abs(got - power) <= ring_power_bound(b, lo) * power, (lo, hi, b, got, power)

    def test_doughnut_cross_term(self):
        paths = {True: 0, False: 0}
        for lo, hi, b, *_, cross in self.INTERVALS:
            got = geometry._doughnut_cross(b, lo, hi)
            assert abs(got - cross) <= doughnut_cross_bound(b, lo) * cross, (
                lo, hi, b, got, cross)
            h = (hi - lo) * (hi + lo)
            paths[h <= geometry._INNER_SERIES_RATIO * (1.0 + lo * lo) and b * b * h <= 1.0] += 1
        # both forms, the series about the inner end and the E1 tails
        assert min(paths.values()) >= 100, paths

    def test_mirrors_are_the_golden_matrix(self):
        from test_golden import MIRRORS
        designs = {name: (f, r, h) for name, _, f, r, h, *_ in REFERENCE["mirrors"]}
        assert {name: designs[name] for name in MIRRORS} == MIRRORS
        # and the mirror whose kept interval is 1.03e-3 of its end wide
        assert designs.keys() - MIRRORS.keys() == {"kept-past-the-cut"}

    def test_waist_argmax_rows_are_the_golden_searches(self):
        from test_golden import FLAT_OPTIMUM, MIRRORS
        rows = {name: (f, r, h) for name, f, r, h, *_ in REFERENCE["waist_argmax"]}
        assert rows == {name: design for name, design in MIRRORS.items()
                        if name not in FLAT_OPTIMUM}

    def test_optimize_waist(self):
        # the default search stops once its bracket is narrower than
        # rel_tol = 1e-6 times the waist, and the bracket holds the maximum
        for name, f, r, h, waist, eta in REFERENCE["waist_argmax"]:
            best = optimize_waist(ParabolicMirror(f, r, h))
            assert abs(best.waist - waist) <= 1e-6 * waist, (name, best, waist)
            assert eta - 1e-12 <= best.eta <= eta + 2e-14, (name, best, eta)

    def test_mirrors(self):
        # The doughnut's p and eta_prime carry the rounding of the ring
        # power's exponent 2 (b u)^2, up to 1.4e-14 on rim-to-2f at w = 0.3 f.
        for name, kind, f, r, h, *want in REFERENCE["mirrors"]:
            mirror = ParabolicMirror(f, r, h)
            if kind.startswith("doughnut-"):
                profile, tol = BeamProfile.doughnut(float(kind[9:]) * f), 2e-14
            else:
                profile, tol = {"flattop": FLAT, "matched": MATCHED}[kind], CONTRACT
            got = [mirror_weighted_solid_angle(mirror), overlap_eta(profile, mirror)]
            if want[2] is None:
                with pytest.raises(DegenerateResultError):
                    recollimation_parameters(mirror, profile)
                want = want[:2]
            else:
                got += recollimation_parameters(mirror, profile)
            assert abs(got[0] - want[0]) <= CONTRACT * want[0], (name, kind)
            for value, exact in zip(got[1:], want[1:]):
                assert abs(value - exact) <= tol * exact, (name, kind, got, want)
            if name == "kept-past-the-cut":
                # differencing the two E1 tails on its kept interval, 1.03e-3
                # of its end wide, put eta_prime 1.35e-12 off at w = 5 f
                assert abs(got[3] - want[3]) <= CONTRACT * want[3], (kind, got, want)

    # the amplitudes of d that tools/reference.py integrates with mpmath
    CUSTOM = {"ring": lambda d: math.exp(-((d - 1e-3) / 1e-5) ** 2),
              "d^-0.4": lambda d: d ** -0.4}

    def test_custom_mirrors(self):
        # what the pupil cuts protect: a ring 1e-5 wide at d = 1e-3 that an
        # adaptive rule finds only if a node lands near it, and an amplitude
        # singular at the vertex
        for name, kind, f, r, h, *want in REFERENCE["custom_mirrors"]:
            mirror, profile = ParabolicMirror(f, r, h), BeamProfile.custom(self.CUSTOM[kind])
            coupling = mirror_coupling(mirror, profile)
            for got in ([overlap_eta(profile, mirror),
                         *recollimation_parameters(mirror, profile)[1:]],
                        [coupling.eta, coupling.eta_prime, coupling.p]):
                for value, exact in zip(got, want):
                    assert abs(value - exact) <= 1e-13 * exact, (name, kind, got, want)


def _separate_calls(mirror, profile):
    """(omega_n, eta, omega_n_prime, eta_prime, p) by the separate calls, in
    the order the geometry CLI made them, or the class of the first refusal."""
    try:
        omega_n = mirror_weighted_solid_angle(mirror)
        recol = recollimation_parameters(mirror, profile)
        return (omega_n, overlap_eta(profile, mirror), *recol)
    except AtomPhaseError as exc:
        return type(exc)


class TestMirrorCoupling:
    def test_fields_are_the_separate_calls(self):
        # bit for bit, or the same refusal, over the golden geometry matrix
        from test_golden import MIRRORS, PROFILES
        refused = 0
        for name, (f, r, h) in MIRRORS.items():
            mirror = ParabolicMirror(f, r, h)
            for kind, make in PROFILES.items():
                profile = make(f)
                want = _separate_calls(mirror, profile)
                try:
                    got = astuple(mirror_coupling(mirror, profile))
                except AtomPhaseError as exc:
                    got = type(exc)
                    refused += 1
                assert got == want, (name, kind, got, want)
        assert 0 < refused < len(MIRRORS) * len(PROFILES)

    # (R/f, h/f, w/f) of Gaussian beams exp(-(d/w)^2) at f = 1, one third
    # hole-free, and the integrand evaluations overlap_eta and
    # recollimation_parameters make on them; mirror_coupling makes the two
    # calls and nothing more
    COUNTED = [(2.5, 0.0, 0.8), (2.5, 0.3, 1.5), (2.5, 1.2, 3.0),
               (4.0, 0.0, 1.5), (4.0, 0.3, 3.0), (4.0, 1.2, 0.8),
               (12.0, 0.0, 3.0), (12.0, 0.3, 0.8), (12.0, 1.2, 1.5)]
    ETA_CALLS, RECOLLIMATION_CALLS = 2226, 1722

    def test_custom_evaluation_count(self):
        def calls(call, r, h, w):
            count = [0]

            def beam(d):
                count[0] += 1
                x = d / w
                return math.exp(-x * x)
            value = call(ParabolicMirror(1.0, r, h), BeamProfile.custom(beam))
            return count[0], value

        eta_calls = recol_calls = one_calls = 0
        for r, h, w in self.COUNTED:
            n, eta = calls(lambda m, b: overlap_eta(b, m), r, h, w)
            eta_calls += n
            n, recol = calls(recollimation_parameters, r, h, w)
            recol_calls += n
            n, coupling = calls(mirror_coupling, r, h, w)
            one_calls += n
            assert (coupling.eta, *astuple(coupling)[2:]) == (eta, *recol)
        assert (eta_calls, recol_calls) == (self.ETA_CALLS, self.RECOLLIMATION_CALLS)
        assert one_calls == eta_calls + recol_calls


def log_uniform(lo, hi):
    return st.floats(math.log10(lo), math.log10(hi)).map(lambda k: 10.0 ** k)


class TestDoughnutTotality:
    # Every doughnut design returns in-range values or an AtomPhaseError,
    # from the series, the fitted and the continued-fraction branches of E1.
    @settings(max_examples=300, deadline=None)
    @given(f=log_uniform(1e-150, 1e150),
           r=st.floats(2.0, 1e3, exclude_min=True, exclude_max=True),
           h=st.floats(0.0, 2.0, exclude_max=True),
           w=log_uniform(1e-3, 1e3))
    def test_design(self, f, r, h, w):
        mirror = ParabolicMirror(f, r * f, h * f)
        doughnut = BeamProfile.doughnut(w * f)
        try:
            eta = overlap_eta(doughnut, mirror)
        except AtomPhaseError:
            pass
        else:
            assert 0.0 <= eta <= 1.0
        try:
            recol = recollimation_parameters(mirror, doughnut)
        except AtomPhaseError:
            pass
        else:
            assert 0.0 <= recol.eta_prime <= 1.0 and 0.0 < recol.p <= 1.0
            assert recol.omega_n_prime <= mirror_weighted_solid_angle(mirror)

    @settings(max_examples=50, deadline=None)
    @given(f=log_uniform(1e-150, 1e150),
           r=st.floats(2.0, 1e3, exclude_min=True, exclude_max=True),
           h=st.floats(0.0, 2.0, exclude_max=True))
    def test_optimize_waist(self, f, r, h):
        try:
            best = optimize_waist(ParabolicMirror(f, r * f, h * f))
        except AtomPhaseError:
            return
        assert 0.1 * f <= best.waist <= 20.0 * f and 0.0 <= best.eta <= 1.0


class TestNonFiniteInputs:
    BAD = [math.nan, math.inf, -math.inf]

    @pytest.mark.parametrize("bad", BAD)
    def test_mirror(self, bad):
        for kwargs in ({"focal_length": bad, "aperture_radius": 4.0},
                       {"focal_length": 1.0, "aperture_radius": bad},
                       {"focal_length": 1.0, "aperture_radius": 4.0,
                        "hole_radius": bad}):
            with pytest.raises(DomainError):
                ParabolicMirror(**kwargs)

    @pytest.mark.parametrize("bad", BAD)
    def test_doughnut_waist(self, bad):
        with pytest.raises(DomainError):
            BeamProfile.doughnut(bad)
        with pytest.raises(DomainError):
            BeamProfile(kind="doughnut", waist=bad)

    @pytest.mark.parametrize("bad", BAD)
    def test_waist_bracket(self, bad):
        mirror = ParabolicMirror(1.0, 20.0, 0.4)
        for bracket in ((0.1, bad), (bad, 20.0)):
            with pytest.raises(DomainError):
                optimize_waist(mirror, bracket=bracket)

    def test_subnormal_bracket(self):
        # steps of rel_tol * x underflowed to 0 for a subnormal waist, and the
        # search never ended
        mirror = ParabolicMirror(5e-324, 1e-323)
        best = optimize_waist(mirror, bracket=(5e-324, 1e-323))
        assert best.waist in (5e-324, 1e-323) and 0.0 < best.eta <= 1.0
        best = optimize_waist(ParabolicMirror(1e-310, 4e-310), bracket=(1e-311, 3e-309))
        assert 1e-311 <= best.waist <= 3e-309 and 0.9 < best.eta <= 1.0

    def test_bracket_near_the_float_maximum(self):
        # the midpoint 0.5 * (lo + hi) overflowed to inf once lo + hi passed
        # 2^1024, steps left the bracket and the search never ended
        mirror = ParabolicMirror(6.611486196908338e307, 1e308, 1.0 / 3.0)
        best = optimize_waist(mirror, bracket=(1.0 / 3.0, 1e308), rel_tol=1.0 / 3.0)
        assert 1.0 / 3.0 <= best.waist <= 1e308 and 0.99 < best.eta <= 1.0

    @pytest.mark.parametrize("rel_tol", [math.nan, math.inf, 0.0, -1e-6])
    def test_waist_rel_tol(self, rel_tol):
        with pytest.raises(DomainError):
            optimize_waist(ParabolicMirror(1.0, 20.0, 0.4), rel_tol=rel_tol)

    @pytest.mark.parametrize("f, r, h", [
        (1.0, 5e-324, 0.0),
        (3.0, 1e-323, 0.0),
        (4.189465174920426e-12, 1.5062745567398403e+297, 1.0),
        (1e-300, 1e10, 0.0),
    ])
    def test_aperture_ratio_past_the_float_range(self, f, r, h):
        # u_R = 0.5 R / f rounded to 0, and recollimation_parameters raised
        # ZeroDivisionError; or it overflowed to inf, and the weight and the
        # overlap were NaN
        with pytest.raises(DomainError, match="0.5 aperture_radius / focal_length"):
            ParabolicMirror(f, r, h)

    def test_smallest_aperture_ratio(self):
        # u_R = 5e-324: a weight of 0, and a refused overlap and re-collimation
        mirror = ParabolicMirror(1.0, 1e-323)
        assert mirror_weighted_solid_angle(mirror) == 0.0
        with pytest.raises(DegenerateResultError):
            overlap_eta(FLAT, mirror)
        with pytest.raises(DegenerateResultError):
            recollimation_parameters(mirror, FLAT)

    def test_pupil_amplitude_past_u_squared_overflow(self):
        # it returned NaN: 2u overflowed to inf and was divided by (1 + u^2)^2 = inf
        mirror = ParabolicMirror(1e-99, 4e150)
        assert pupil_dipole_profile(1.797693134862316e209, mirror) == 0.0

    def test_unknown_profile_kind(self):
        with pytest.raises(DomainError):
            BeamProfile(kind="bessel")


# every float, the extremes hypothesis may not reach on its own, and the
# ints past the float range (as in test_atom)
anything = st.one_of(st.floats(), st.sampled_from(
    [math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-308, 1e308, -1e308, 0.0, -0.0,
     10**400, -10**400]))
mirrors = st.builds(ParabolicMirror, log_uniform(1e-150, 1e150), st.just(4e150))


def _mirror(*args):
    mirror = ParabolicMirror(*args)
    return mirror.focal_length, mirror.aperture_radius, mirror.hole_radius


def _grid(start, stop):
    return tuple(SweepRange(start, stop, 5).grid())


def _optimum(search):
    f, r, h, lo, hi, rel_tol = search
    best = optimize_waist(ParabolicMirror(f, r, h), bracket=(lo, hi), rel_tol=rel_tol)
    assert lo <= best.waist <= hi and 0.0 <= best.eta <= 1.0, best
    return best


def _profile(kind, waist):
    return BeamProfile.doughnut(waist) if kind == "doughnut" else BeamProfile(kind=kind)


# every float still, but weighted toward the positive lengths a design needs
lengths = st.one_of(anything, st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
# (kind, doughnut waist)
profiles = (st.sampled_from(["flattop", "matched", "doughnut"]), lengths)

# (f, R, h, bracket start, bracket end, rel_tol): any six floats, or a search
# that runs with at most one of them replaced by any float
_running = st.tuples(log_uniform(1e-150, 1e150), st.floats(2.1, 6.0), st.floats(0.0, 1.8),
                     st.floats(0.1, 1.0), st.floats(1.5, 20.0), log_uniform(1e-16, 1e-2)).map(
    lambda v: (v[0], v[1] * v[0], v[2] * v[0], v[3] * v[0], v[4] * v[0], v[5]))
searches = st.one_of(
    st.tuples(*(lengths,) * 6),
    st.tuples(_running, st.integers(0, 6), anything).map(
        lambda t: t[0][:t[1]] + (t[2],) + t[0][t[1] + 1:] if t[1] < 6 else t[0]))

# (f, R/f, w/f, h/R) of a custom Gaussian beam on a mirror, half of them
# hole-free: the draw on which quad once warned instead of refusing
custom_gaussians = (log_uniform(1e-150, 1e150), log_uniform(1e-3, 1e12), log_uniform(1e-8, 1e8),
                    st.one_of(st.just(0.0), log_uniform(1e-3, 10.0 ** -0.01)))


def _custom_gaussian(call):
    def design(f, r, w, h):
        mirror = ParabolicMirror(f, r * f, h * (r * f))
        width = w * f

        def beam(d):
            x = d / width
            return math.exp(-x * x)
        # a warning of any kind fails the example
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return call(mirror, BeamProfile.custom(beam))
    return design


HOLED = ParabolicMirror(1.0, 4.0, 0.5)


def _raises(exc):
    def amplitude(d):
        raise exc
    return amplitude


# custom amplitudes that return no real number, raise, or are negative
# somewhere: Gaussians a exp(-(d/w)^2) + c of either sign, or changing sign
amplitudes = st.one_of(
    st.sampled_from([lambda d: 1j, lambda d: None, lambda d: "1", lambda d: np.array([1.0, 2.0]),
                     lambda d: np.float64(0.5), lambda d: -1.0, _raises(ValueError("bad")),
                     _raises(TypeError("bad")), _raises(RecursionError()),
                     _raises(ZeroDivisionError()), _raises(OverflowError())]),
    st.tuples(st.floats(-2.0, 2.0), st.floats(0.1, 10.0), st.floats(-1.0, 1.0)).map(
        lambda t: lambda d: t[0] * math.exp(-(d / t[1]) ** 2) + t[2]))
# each design call that integrates a custom amplitude, on the holed mirror
# or an axial cone of half-angle 1
CUSTOM_CALLS = [
    lambda beam: overlap_eta(beam, HOLED),
    lambda beam: overlap_eta(beam, ConeAperture(1.0, AXIAL)),
    lambda beam: recollimation_parameters(HOLED, beam),
    lambda beam: astuple(mirror_coupling(HOLED, beam)),
]

# the design calls, whose values also lie in [0, 1]
DESIGNS = {
    "cone_weighted_solid_angle": (
        lambda alpha, orientation: cone_weighted_solid_angle(ConeAperture(alpha, orientation)),
        (anything, st.sampled_from(DipoleOrientation))),
    "overlap_eta-cone": (
        lambda alpha, kind, waist: overlap_eta(_profile(kind, waist), ConeAperture(alpha, AXIAL)),
        (anything, *profiles)),
    "overlap_eta-mirror": (
        lambda f, r, h, kind, waist: overlap_eta(_profile(kind, waist), ParabolicMirror(f, r, h)),
        (lengths,) * 3 + profiles),
    "mirror_weighted_solid_angle": (
        lambda f, r, h: mirror_weighted_solid_angle(ParabolicMirror(f, r, h)), (lengths,) * 3),
    "recollimation_parameters": (
        lambda f, r, h, kind, waist: recollimation_parameters(ParabolicMirror(f, r, h),
                                                              _profile(kind, waist)),
        (lengths,) * 3 + profiles),
    "overlap_eta-custom": (
        _custom_gaussian(lambda mirror, beam: overlap_eta(beam, mirror)), custom_gaussians),
    "recollimation_parameters-custom": (
        _custom_gaussian(lambda mirror, beam: recollimation_parameters(mirror, beam)),
        custom_gaussians),
    "mirror_coupling": (
        lambda f, r, h, kind, waist: astuple(mirror_coupling(ParabolicMirror(f, r, h),
                                                             _profile(kind, waist))),
        (lengths,) * 3 + profiles),
    "mirror_coupling-custom": (
        _custom_gaussian(lambda mirror, beam: astuple(mirror_coupling(mirror, beam))),
        custom_gaussians),
    "custom-callables": (
        lambda call, amplitude: call(BeamProfile.custom(amplitude)),
        (st.sampled_from(CUSTOM_CALLS), amplitudes)),
}

TOTAL = {
    "ParabolicMirror": (_mirror, (anything,) * 3),
    "doughnut": (lambda waist: BeamProfile.doughnut(waist).waist, (anything,)),
    "parabola_ray_map": (parabola_ray_map, (anything, mirrors)),
    "pupil_dipole_profile": (pupil_dipole_profile, (anything, mirrors)),
    "SweepRange": (_grid, (anything, anything)),
    "optimize_waist": (_optimum, (searches,)),
    **DESIGNS,
}


@pytest.mark.parametrize("name", sorted(TOTAL))
@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_finite_or_refused(name, data):
    """A finite value, or an AtomPhaseError subclass, for every float; a
    design call's values also lie in [0, 1]."""
    func, strategies = TOTAL[name]
    args = [data.draw(strategy) for strategy in strategies]
    try:
        value = func(*args)
    except AtomPhaseError:
        return
    values = value if isinstance(value, tuple) else (value,)
    assert all(map(math.isfinite, values)), (args, value)
    if name in DESIGNS:
        assert all(0.0 <= v <= 1.0 for v in values), (args, value)


@pytest.mark.parametrize("call, error, message", [
    (lambda: ConeAperture(1.0, "axial"), DomainError, "orientation must be a DipoleOrientation"),
    (lambda: BeamProfile(kind="custom"), DomainError,
     "^custom profile func must be a Callable, got None$"),
    (lambda: overlap_eta(FLAT, "mirror"), DomainError,
     "^geometry must be a ParabolicMirror or a ConeAperture, got 'mirror'$"),
    (lambda: overlap_eta("flattop", HOLED), DomainError,
     "profile must be a BeamProfile, got 'flattop'"),
    (lambda: recollimation_parameters(HOLED, None), DomainError,
     "profile must be a BeamProfile, got None"),
    (lambda: mirror_coupling(HOLED, "matched"), DomainError,
     "profile must be a BeamProfile, got 'matched'"),
    (lambda: optimize_waist(HOLED, family=lambda w: 3), DomainError,
     "profile must be a BeamProfile, got 3"),
    (lambda: recollimation_parameters("m", FLAT), DomainError,
     "mirror must be a ParabolicMirror, got 'm'"),
    (lambda: mirror_weighted_solid_angle(None), DomainError,
     "mirror must be a ParabolicMirror, got None"),
    (lambda: mirror_coupling(3, FLAT), DomainError, "mirror must be a ParabolicMirror, got 3"),
    (lambda: optimize_waist("m"), DomainError, "mirror must be a ParabolicMirror, got 'm'"),
    (lambda: parabola_ray_map(1.0, None), DomainError,
     "mirror must be a ParabolicMirror, got None"),
    (lambda: pupil_dipole_profile(1.0, None), DomainError,
     "mirror must be a ParabolicMirror, got None"),
    (lambda: cone_weighted_solid_angle("c"), DomainError, "cone must be a ConeAperture, got 'c'"),
    # the flat top's whole-annulus power overflows to inf; it once gave eta = 0
    (lambda: overlap_eta(FLAT, ParabolicMirror(1.0, 1e160)), DegenerateResultError,
     "^the beam power on the aperture leaves the floating-point range$"),
], ids=["string-orientation", "custom-without-callable", "not-a-geometry",
        "overlap_eta-profile", "recollimation_parameters-profile", "mirror_coupling-profile",
        "optimize_waist-family", "recollimation_parameters-mirror",
        "mirror_weighted_solid_angle-mirror", "mirror_coupling-mirror", "optimize_waist-mirror",
        "parabola_ray_map-mirror", "pupil_dipole_profile-mirror", "cone_weighted_solid_angle-cone",
        "overlap_eta-infinite-power"])
def test_refusals(call, error, message):
    with pytest.raises(error, match=message):
        call()


@pytest.mark.parametrize("amplitude, message, cause", [
    (lambda d: 1j, "^custom profile must return a real number", TypeError),
    (lambda d: None, "^custom profile must return a real number", TypeError),
    (_raises(ValueError("bad")), "^custom profile raised ValueError: bad$", ValueError),
    (_raises(RecursionError("deep")), "^custom profile raised RecursionError: deep$",
     RecursionError),
    (_raises(OverflowError("big")), "^custom profile leaves the floating-point range: big$",
     OverflowError),
    (lambda d: -1.0, "flip the sign of its amplitude$", type(None)),
], ids=["complex", "none", "value-error", "recursion-error", "overflow-error", "negative"])
def test_custom_amplitude_refusals(amplitude, message, cause):
    # once a TypeError or the amplitude's own exception, or a negative eta
    # (-0.9147 on the mirror, -0.9507 on the cone, eta' -0.9146)
    for call in CUSTOM_CALLS:
        with pytest.raises(DomainError, match=message) as refusal:
            call(BeamProfile.custom(amplitude))
        assert type(refusal.value.__cause__) is cause


def test_custom_amplitude_interrupt_passes():
    for call in CUSTOM_CALLS:
        with pytest.raises(KeyboardInterrupt):
            call(BeamProfile.custom(_raises(KeyboardInterrupt())))
