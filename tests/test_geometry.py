"""Tests for coupling geometry: solid angles, ray maps, overlaps.

Closed forms are cross-validated against independent quadrature, the
parabola angle map against a literal ray-trace of the surface, and the
pupil remap against ring-by-ring energy conservation.
"""

import math

import numpy as np
import pytest
from scipy.integrate import dblquad, quad

from atomphase import (
    AtomPhaseError,
    BeamProfile,
    ConeAperture,
    DegenerateResultError,
    DipoleOrientation,
    DomainError,
    FULL_DIPOLE_SOLID_ANGLE,
    ParabolicMirror,
    cone_weighted_solid_angle,
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


class TestMirrorSolidAngle:
    def test_hemisphere_mirror(self):
        mirror = ParabolicMirror(focal_length=1.0, aperture_radius=2.0)
        np.testing.assert_allclose(mirror_weighted_solid_angle(mirror), 0.5,
                                   atol=1e-12)

    def test_vanishing_annulus(self):
        mirror = ParabolicMirror(focal_length=1.0, aperture_radius=2.0,
                                 hole_radius=2.0 * (1.0 - 1e-9))
        assert mirror_weighted_solid_angle(mirror) < 1e-8

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
        for region in [None, (0.5, 3.0), (1.0, 15.0)]:
            eta = overlap_eta(BeamProfile.dipole_matched(), self.MIRROR, region)
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
        # both norms are positive but their product underflows
        with pytest.raises(DegenerateResultError):
            overlap_eta(BeamProfile.flat_top(), self.MIRROR, (0.0, 1e-80))

    @pytest.mark.parametrize("geometry_, region", [
        (ParabolicMirror(1.0, 4.0), (0.0, 1e-60)),
        (ParabolicMirror(1.0, 4.0), (0.0, 1e-76)),
        (ConeAperture(1.0, AXIAL), (0.0, 1e-60)),
    ])
    def test_narrow_region_keeps_precision(self, geometry_, region):
        # near the vertex or the axis the flat-top overlap tends to
        # 2 sqrt(2) / 3; both norms are normal, but their product underflows
        eta = overlap_eta(BeamProfile.flat_top(), geometry_, region)
        assert eta == pytest.approx(2.0 * math.sqrt(2.0) / 3.0, rel=1e-12, abs=0.0)

    def test_bad_region_rejected(self):
        with pytest.raises(DomainError):
            overlap_eta(BeamProfile.flat_top(), self.MIRROR, (3.0, 2.0))

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

    def test_degenerate_when_nothing_survives(self):
        # hole so large that every surviving ray exits through it
        mirror = ParabolicMirror(focal_length=1.0, aperture_radius=2.1,
                                 hole_radius=2.05)
        with pytest.raises(DegenerateResultError):
            recollimation_parameters(mirror, BeamProfile.flat_top())


class TestOptimizeWaist:
    DEEP = ParabolicMirror(focal_length=1.0, aperture_radius=20.0,
                           hole_radius=0.4)

    def test_matched_family_is_perfect(self):
        family = lambda w: BeamProfile.dipole_matched()
        result = optimize_waist(self.DEEP, family=family)
        np.testing.assert_allclose(result.eta, 1.0, atol=1e-9)

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
        rng = np.random.default_rng(67)
        regions = [(0.0, a) for a in (1e-3, 3e-3, 1e-2, 0.1, 1.0, math.pi / 2,
                                      2.0, math.pi)]
        regions += [(math.pi - 1e-2, math.pi), (1.0, math.pi - 1e-3), (2.5, 3.0)]
        for _ in range(30):
            lo, hi = sorted(rng.uniform(0.0, math.pi, size=2))
            regions += [(0.0, 10.0 ** rng.uniform(-3.0, math.log10(math.pi))),
                        (float(lo), float(hi))]
        for head, power in ((geometry._sin_head, 1), (geometry._sin2_head, 2),
                            (geometry._sin3_head, 3)):
            for lo, hi in regions:
                expected = oracle_quad(lambda t: math.sin(t) ** power, lo, hi)
                assert geometry._cone_span(head, lo, hi) == pytest.approx(
                    expected, rel=self.RTOL, abs=0.0), (power, lo, hi)


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
    def test_overlap_region(self, bad):
        mirror = ParabolicMirror(1.0, 4.0, 0.2)
        cone = ConeAperture(1.0, AXIAL)
        for geometry_, region in ((mirror, (0.2, bad)), (mirror, (bad, 4.0)),
                                  (cone, (0.0, bad)), (cone, (bad, 1.0))):
            with pytest.raises(DomainError):
                overlap_eta(FLAT, geometry_, region)

    @pytest.mark.parametrize("bad", BAD)
    def test_waist_bracket(self, bad):
        mirror = ParabolicMirror(1.0, 20.0, 0.4)
        for bracket in ((0.1, bad), (bad, 20.0)):
            with pytest.raises(DomainError):
                optimize_waist(mirror, bracket=bracket)

    def test_unknown_profile_kind(self):
        with pytest.raises(DomainError):
            BeamProfile(kind="bessel")
