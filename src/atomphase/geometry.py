"""Focusing-geometry parameters from physical aperture descriptions.

Bridges concrete optics (lens cones, deep parabolic mirrors, incident beam
profiles) to the dimensionless coupling numbers consumed by the phase
model: the dipole-weighted solid-angle fraction omega_n, the beam/dipole
field overlap eta, and the re-collimation triple (omega_n_prime,
eta_prime, p) of a finite parabolic mirror.

Conventions
-----------
The emitter sits at the focus.  The polar angle theta is measured from the
optical axis; for a parabolic mirror the vertex lies at theta = pi and the
rim toward theta = 0.  Dipole weighting uses the far-field intensity
sin^2(Theta) about the dipole axis, whose full-sphere integral is 8 pi / 3;
solid-angle fractions are normalized to that value.  Mirror computations
assume a dipole along the optical axis: a transverse dipole breaks the
rotational symmetry the radial quadratures rely on and is rejected.

Overlaps are scalar amplitude overlaps restricted to the illuminated
region, with pupil measure 2 pi d dd or angular measure 2 pi sin(theta)
dtheta used consistently on both sides of the ratio.

Pupil radii are converted on entry to u = d / 2f, and every pupil integral
runs in u with measure u du: the factor 4 f^2 to d dd cancels from every
ratio, so all pupil results depend only on R/f, h/f and w/f.

Every overlap and re-collimation integral of a preset profile is evaluated
in closed form: the dipole norm on pupils and cones, the flat-top and
dipole-matched powers and cross terms, the doughnut power, and the
doughnut cross terms through the exponential integral E1.  The
re-collimated overlap eta_prime needs no integrals of its own: it is the
incident overlap on the kept interval (see ``recollimation_parameters``).
Adaptive quadrature remains only for custom profiles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Optional, Tuple, Union

from scipy.integrate import quad

from .errors import DegenerateResultError, DomainError

__all__ = [
    "DipoleOrientation",
    "ConeAperture",
    "ParabolicMirror",
    "BeamProfile",
    "RayMapping",
    "Recollimation",
    "WaistOptimum",
    "cone_weighted_solid_angle",
    "parabola_ray_map",
    "mirror_weighted_solid_angle",
    "pupil_dipole_profile",
    "overlap_eta",
    "recollimation_parameters",
    "optimize_waist",
]

# Purely relative: a custom profile whose values are tiny still gets full
# accuracy, and an identically zero integrand integrates to exactly 0.
_EPSABS = 0.0
_EPSREL = 1e-12
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
_TINY = 2.0 ** -1022   # the smallest normal float


class DipoleOrientation(Enum):
    """Dipole axis relative to the optical axis."""

    AXIAL = "axial"
    TRANSVERSE = "transverse"


@dataclass(frozen=True)
class ConeAperture:
    """Focusing cone of half-angle alpha in (0, pi] about the optical axis."""

    half_angle: float
    orientation: DipoleOrientation

    def __post_init__(self) -> None:
        if not 0.0 < self.half_angle <= math.pi:
            raise DomainError(
                f"half_angle must lie in (0, pi], got {self.half_angle!r}")
        if not isinstance(self.orientation, DipoleOrientation):
            raise DomainError(
                f"orientation must be a DipoleOrientation, got {self.orientation!r}")


@dataclass(frozen=True)
class ParabolicMirror:
    """Deep parabolic mirror: focal length, aperture radius, on-axis hole."""

    focal_length: float
    aperture_radius: float
    hole_radius: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.focal_length) and self.focal_length > 0):
            raise DomainError(
                f"focal_length must be positive and finite, got {self.focal_length!r}")
        if not (math.isfinite(self.aperture_radius) and self.aperture_radius > 0):
            raise DomainError(
                "aperture_radius must be positive and finite, got "
                f"{self.aperture_radius!r}")
        if not 0.0 <= self.hole_radius < self.aperture_radius:
            raise DomainError(
                "hole_radius must satisfy 0 <= hole < aperture_radius, got "
                f"{self.hole_radius!r}")


def _axial_fraction(theta: float) -> float:
    # cumulative dipole-weighted fraction of the axial pattern over [0, theta]
    c = math.cos(theta)
    return 0.25 * (2.0 - 3.0 * c + c**3)


def cone_weighted_solid_angle(cone: ConeAperture) -> float:
    """Dipole-weighted solid-angle fraction covered by a focusing cone.

    Evaluates (3 / 8 pi) * integral of sin^2(Theta) over the cone of
    half-angle alpha, in closed form:

        axial       (2 - 3 cos a + cos^3 a) / 4
        transverse  3 (1 - cos a) / 4 - (2 - 3 cos a + cos^3 a) / 8

    Both reach 1/2 at a hemisphere and 1 on the full sphere.
    """
    axial = _axial_fraction(cone.half_angle)
    if cone.orientation is DipoleOrientation.AXIAL:
        return axial
    return 0.75 * (1.0 - math.cos(cone.half_angle)) - 0.5 * axial


class RayMapping(NamedTuple):
    """Focal-ray angle and re-collimated exit radius of one pupil radius."""

    theta: float
    d_prime: float


def parabola_ray_map(d: float, mirror: ParabolicMirror) -> RayMapping:
    """Map a pupil radius to its emission angle and re-collimation image.

    An axis-parallel ray entering the pupil at radius d strikes the parabola
    and reaches the focus from theta = pi - 2 arctan(d / 2f), with the
    vertex direction at theta = pi.  Retraced through the focus it leaves
    the mirror at d' = 4 f^2 / d, an involution exchanging the inner and
    outer pupil.
    """
    if d <= 0:
        raise DomainError(f"pupil radius must be positive, got {d!r}")
    f = mirror.focal_length
    # d' = 4 f^2 / d, ordered so that f^2 is never formed and nothing is
    # divided by a u = d / 2f that underflowed to 0
    return RayMapping(theta=_ray_angle(0.5 * d / f), d_prime=4.0 * (f / d) * f)


def _ray_angle(u: float) -> float:
    # theta(u) = pi - 2 atan(u); exactly pi at the vertex u = 0
    return math.pi - 2.0 * math.atan(u)


def _annulus_weight(lo: float, hi: float) -> float:
    # dipole weight of theta in [theta(hi), theta(lo)], the image of [lo, hi] in u
    return _axial_fraction(_ray_angle(lo)) - _axial_fraction(_ray_angle(hi))


def mirror_weighted_solid_angle(mirror: ParabolicMirror) -> float:
    """Axial-dipole-weighted solid-angle fraction covered by the mirror.

    The pupil annulus [hole, R] images onto theta in [theta(R),
    theta(hole)], with a hole-free mirror reaching the vertex at theta = pi.
    """
    f = mirror.focal_length
    return _annulus_weight(0.5 * mirror.hole_radius / f, 0.5 * mirror.aperture_radius / f)


def _pupil_dipole(u: float) -> float:
    # sin(theta(u)) / (1 + u^2), reduced to avoid the trig round trip; two
    # divisions, because q ** 2 raises OverflowError where q / q does not
    q = 1.0 + u * u
    return 2.0 * u / q / q


def pupil_dipole_profile(d: float, mirror: ParabolicMirror) -> float:
    """Pupil-plane amplitude of the axial dipole field behind the mirror.

    A(d) = sin(theta(d)) / (1 + u^2) with u = d / 2f.  Ring by ring,
    A^2 2 pi u du equals sin^3(theta) 2 pi dtheta / 4 under the theta(u)
    map, so the pupil image carries the far-field energy distribution.
    Vanishes toward both the vertex and the rim.
    """
    if d <= 0:
        raise DomainError(f"pupil radius must be positive, got {d!r}")
    return _pupil_dipole(0.5 * d / mirror.focal_length)


@dataclass(frozen=True)
class BeamProfile:
    """Real radial amplitude of the incident beam.

    Presets: ``flat_top`` (uniform), ``doughnut`` (ring mode
    (d/w) exp(-d^2/w^2) on a mirror pupil), ``dipole_matched``
    (proportional to the dipole pattern in whatever coordinates it is
    evaluated).  ``custom`` wraps any square-integrable radial amplitude,
    evaluated on the native coordinate of the region: pupil radius for
    mirrors, polar angle for cones.
    """

    kind: str
    waist: Optional[float] = None
    func: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("flattop", "doughnut", "matched", "custom"):
            raise DomainError(f"unknown beam profile kind {self.kind!r}")
        if self.kind == "doughnut" and not (
                self.waist is not None and math.isfinite(self.waist) and self.waist > 0):
            raise DomainError(
                f"doughnut waist must be positive and finite, got {self.waist!r}")
        if self.kind == "custom" and not callable(self.func):
            raise DomainError("custom profile requires a callable amplitude")

    @classmethod
    def flat_top(cls) -> "BeamProfile":
        return cls(kind="flattop")

    @classmethod
    def doughnut(cls, waist: float) -> "BeamProfile":
        return cls(kind="doughnut", waist=waist)

    @classmethod
    def dipole_matched(cls) -> "BeamProfile":
        return cls(kind="matched")

    @classmethod
    def custom(cls, func: Callable[[float], float]) -> "BeamProfile":
        return cls(kind="custom", func=func)


def _quad(fn: Callable[[float], float], lo: float, hi: float) -> float:
    try:
        value, _ = quad(fn, lo, hi, epsabs=_EPSABS, epsrel=_EPSREL, limit=200)
    except OverflowError as exc:
        raise DomainError(
            f"custom profile leaves the floating-point range: {exc}") from exc
    return value


def _pupil_quad(fn: Callable[[float], float], lo: float, hi: float) -> float:
    # Cuts at the decades of the mirror scale u = 1 keep the adaptive rule
    # from missing the peak when the annulus spans many decades.
    if hi <= lo:
        return 0.0
    cuts = [lo] + [10.0**k for k in range(-6, 9) if lo < 10.0**k < hi] + [hi]
    return sum(_quad(fn, a, b) for a, b in zip(cuts, cuts[1:]))


def _horner(coeffs: Tuple[float, ...], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# Taylor coefficients for the antiderivatives below whose two elementary
# terms cancel near the origin.  Below each cut-off the truncated series is
# exact to ~1e-16 relative; above it the direct form loses < 200 ulp.
_ATAN_GAP_SERIES = tuple((-1) ** k * (k + 1) / (2 * k + 3) for k in range(8))
_X_MINUS_SIN_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(9))
_RING_SERIES = tuple((-1) ** k * (k + 1) / math.factorial(k + 2) for k in range(10))


def _span(head: Callable[[float], float], tail: Callable[[float], float],
          a: float, b: float, pivot: float) -> float:
    # Integral over [a, b] from head (integral from the lower end of the
    # domain) or tail (integral to its upper end), whichever is the small
    # difference on this side of pivot, so that neither cancels.
    if a >= pivot:
        return tail(a) - tail(b)
    return head(b) - head(a)


# Pupil antiderivatives in u = d / 2f.  Under the involution u -> 1/u the
# tail integral from u to infinity of each density is the head integral to
# 1/u of a partner density: the dipole norm is its own partner, and the
# flat-top cross term density 2 s^2 / (1 + s^2)^2 has partner 2 / (1 + s^2)^2.

def _dipole_norm_head(u: float) -> float:
    # int_0^u 4 s^3 / (1 + s^2)^4 ds, the density of A^2 u du; past u = 1
    # the same ratio in r = 1/u^2, whose powers cannot overflow
    t = u * u
    if t > 1.0:
        r = 1.0 / t
        return (1.0 + 3.0 * r) / (3.0 * (1.0 + r) ** 3)
    return t * t * (t + 3.0) / (3.0 * (1.0 + t) ** 3)


def _flat_cross_head(u: float) -> float:
    # int_0^u 2 s^2 / (1 + s^2)^2 ds = atan u - u / (1 + u^2)
    if u < 0.1:
        t = u * u
        return 2.0 * u * t * _horner(_ATAN_GAP_SERIES, t)
    return math.atan(u) - u / (1.0 + u * u)


def _flat_cross_partner_head(u: float) -> float:
    # int_0^u 2 / (1 + s^2)^2 ds = atan u + u / (1 + u^2)
    return math.atan(u) + u / (1.0 + u * u)


def _ring_head(x: float) -> float:
    # int_0^x s^3 exp(-2 s^2) ds = (1 - (1 + y) exp(-y)) / 8 with y = 2 x^2
    y = 2.0 * x * x
    if y < 0.1:
        return y * y * _horner(_RING_SERIES, y) / 8.0
    return 0.125 - _ring_tail(x)


def _ring_tail(x: float) -> float:
    # int_x^inf s^3 exp(-2 s^2) ds
    y = 2.0 * x * x
    decay = math.exp(-y)
    return (1.0 + y) * decay / 8.0 if decay else 0.0


def _dipole_norm(lo: float, hi: float) -> float:
    """int A(u)^2 u du over [lo, hi]: the pupil dipole norm."""
    return _span(_dipole_norm_head, lambda u: _dipole_norm_head(1.0 / u), lo, hi, 1.0)


# Doughnut cross term.  With b = 2f/w, a = b^2 and t = u^2 it reduces to
# b times int s e^{-as} / (1+s)^2 ds.  The integral from t to infinity is
#     e^{-at} (t + Q(x)) S(x) / (1 + t),   x = a (1 + t),
# with S(x) = e^x E1(x) and Q(x) = x + 1 - 1/S(x) in (0, 1).  For x >= 1, Q is
# the tail of the continued fraction S = 1/(x+1 - 1/(x+3 - 4/(x+5 - ...))).
# So no step forms e^a (which overflows past a = 709) or subtracts the two
# nearly equal terms of the textbook antiderivative (which cancel for large
# a).  Near t = 0 a power series gives the integral from 0.

_EULER_GAMMA = 0.5772156649015329
# E1(x) = -gamma - ln x + x * sum_k (-x)^k / ((k+1) (k+1)!), exact to ~1e-17 for x < 1
_E1_SERIES = tuple((-1) ** k / ((k + 1) * math.factorial(k + 1)) for k in range(18))
_DOUGHNUT_HEAD_CUT = 0.2
_DOUGHNUT_HEAD_TERMS = 26   # (0.2)^26 e < 1e-17


def _scaled_e1(x: float) -> Tuple[float, float]:
    """(S, Q) with S = e^x E1(x) and Q = x + 1 - 1/S, for x > 0."""
    if x < 1.0:
        s = math.exp(x) * (-_EULER_GAMMA - math.log(x) + x * _horner(_E1_SERIES, x))
        return s, x + 1.0 - 1.0 / s
    # Evaluated backward from depth n, the fraction's error falls like
    # exp(-4 sqrt(n x)): below 1e-17 at n = 96 / x.
    q = 0.0
    for k in range(8 + int(96.0 / x), 0, -1):
        q = k * k / (x + (2 * k + 1) - q)
    return 1.0 / (x + 1.0 - q), q


def _doughnut_tail(t: float, a: float) -> float:
    # int_t^inf s e^{-as} / (1+s)^2 ds
    decay = math.exp(-a * t)
    if not decay:
        return 0.0
    s, q = _scaled_e1(a * (1.0 + t))
    return decay * (t + q) * s / (1.0 + t)


def _doughnut_head(t: float, a: float) -> float:
    # int_0^t s e^{-as} / (1+s)^2 ds = t^2 sum_n c_n t^n / (n + 2), where
    # (1+s)^2 sum_n c_n s^n = e^{-as}; the loop carries c_n t^n
    term = 1.0                  # (-at)^n / n!
    c1 = c2 = total = 0.0
    for n in range(_DOUGHNUT_HEAD_TERMS):
        if n:
            term *= -a * t / n
        c = term - 2.0 * t * c1 - t * t * c2
        total += c / (n + 2)
        c1, c2 = c, c1
    return t * t * total


def _doughnut_b(profile: BeamProfile, f: float) -> float:
    # b = 2f / w, the inverse waist in units of 2f; f / w never divides by 0
    b = 2.0 * (f / profile.waist)
    if not 0.0 < b * b < math.inf:
        raise DegenerateResultError(
            "doughnut waist and focal length are too many decades apart: the "
            "overlap integrals leave the floating-point range")
    return b


def _doughnut_cross(b: float, t1: float, t2: float) -> float:
    """b int_{t1}^{t2} s e^{-as} / (1+s)^2 ds with a = b^2."""
    a = b * b
    # Below the cut the series sums the integral from 0 without cancellation.
    # Above it the tails are differenced; on the narrowest intervals just
    # past the cut that costs up to a few hundred ulp.
    if t2 * max(a, 1.0) < _DOUGHNUT_HEAD_CUT:
        integral = _doughnut_head(t2, a) - _doughnut_head(t1, a)
    else:
        integral = _doughnut_tail(t1, a) - _doughnut_tail(t2, a)
    return b * integral


def _pupil_power(profile: BeamProfile, f: float, lo: float, hi: float) -> float:
    """int beam^2 u du over [lo, hi] for focal length f."""
    if profile.kind == "flattop":
        return 0.5 * (hi - lo) * (hi + lo)
    if profile.kind == "matched":
        return _dipole_norm(lo, hi)
    if profile.kind == "doughnut":
        # the beam is (b u) exp(-(b u)^2); b * b may be subnormal, so divide twice
        b = _doughnut_b(profile, f)
        return _span(_ring_head, _ring_tail, b * lo, b * hi, 1.0) / b / b
    # a custom amplitude takes d = f (2u), which unlike (2f) u cannot overflow
    beam = profile.func
    return _pupil_quad(lambda u: beam(f * (2.0 * u)) ** 2 * u, lo, hi)


def _pupil_cross(profile: BeamProfile, f: float, lo: float, hi: float) -> float:
    """int beam A u du over [lo, hi] for focal length f."""
    if profile.kind == "flattop":
        return _span(_flat_cross_head, lambda u: _flat_cross_partner_head(1.0 / u),
                     lo, hi, 1.0)
    if profile.kind == "matched":
        return _dipole_norm(lo, hi)
    if profile.kind == "doughnut":
        return _doughnut_cross(_doughnut_b(profile, f), lo * lo, hi * hi)
    beam = profile.func
    return _pupil_quad(lambda u: beam(f * (2.0 * u)) * _pupil_dipole(u) * u, lo, hi)


# Cone antiderivatives in theta on [0, pi].  sin(pi - t) = sin t, so each
# tail integral is the head integral at pi - t.

def _sin_head(t: float) -> float:
    # int_0^t sin = 1 - cos t
    s = math.sin(0.5 * t)
    return 2.0 * s * s


def _sin2_head(t: float) -> float:
    # int_0^t sin^2 = (x - sin x) / 4 with x = 2t
    x = 2.0 * t
    if x < 1.0:
        return x * x * x * _horner(_X_MINUS_SIN_SERIES, x * x) / 4.0
    return (x - math.sin(x)) / 4.0


def _sin3_head(t: float) -> float:
    # int_0^t sin^3 = (2 - 3 cos t + cos^3 t) / 3 = (1 - cos t)^2 (2 + cos t) / 3
    s = math.sin(0.5 * t)
    return 4.0 * s ** 4 * (2.0 + math.cos(t)) / 3.0


def _cone_span(head: Callable[[float], float], lo: float, hi: float) -> float:
    return _span(head, lambda t: head(math.pi - t), lo, hi, 0.5 * math.pi)


def _overlap_from_integrals(cross: float, beam2: float, dip2: float) -> float:
    # a subnormal norm has lost its relative precision to underflow
    if beam2 < _TINY or dip2 < _TINY:
        raise DegenerateResultError(
            "zero-norm profile on the requested region; the overlap is "
            "undefined")
    # sqrt(beam2 * dip2) with each factor first scaled by a power of four
    # into [0.5, 2), so the product can neither overflow nor underflow at
    # large or small pupil scales.  Power-of-two scaling is exact, so the
    # norm is bit-identical wherever the plain product is a normal number.
    k1 = math.frexp(beam2)[1] // 2
    k2 = math.frexp(dip2)[1] // 2
    norm = math.sqrt(math.ldexp(beam2, -2 * k1) * math.ldexp(dip2, -2 * k2))
    eta = cross / math.ldexp(norm, k1 + k2)
    # Cauchy-Schwarz bound; quadrature noise may overshoot 1 by ~1e-16.
    # cross == beam2 == dip2 (a matched profile) gives exactly 1, since
    # sqrt(x * x) == x in binary floating point.
    return min(eta, 1.0)


def overlap_eta(
    profile: BeamProfile,
    geometry: Union[ParabolicMirror, ConeAperture],
    region: Optional[Tuple[float, float]] = None,
) -> float:
    """Normalized amplitude overlap of a beam with the dipole pattern.

    For a ``ParabolicMirror`` the integrals run over the pupil annulus
    (default: hole to aperture radius) against the pupil dipole profile,
    with measure 2 pi d dd.  For a ``ConeAperture`` with an axial dipole
    they run over the polar angle (default: 0 to the half-angle) against
    sin(theta), with measure 2 pi sin(theta) dtheta.  Cauchy-Schwarz bounds
    the result by 1, with equality only for profiles proportional to the
    dipole's.

    Parameters
    ----------
    profile : BeamProfile
        Incident beam amplitude.
    geometry : ParabolicMirror or ConeAperture
        Sets the coordinate, the measure and the dipole reference.
    region : (float, float), optional
        Integration bounds overriding the geometry's illuminated region:
        pupil radii for mirrors, polar angles for cones.
    """
    if isinstance(geometry, ParabolicMirror):
        lo, hi = region if region is not None else (
            geometry.hole_radius, geometry.aperture_radius)
        if not (0.0 <= lo < hi and math.isfinite(hi)):
            raise DomainError(
                "pupil region must satisfy 0 <= lo < hi < inf, got "
                f"({lo!r}, {hi!r})")
        f = geometry.focal_length
        lo, hi = 0.5 * lo / f, 0.5 * hi / f
        return _overlap_from_integrals(_pupil_cross(profile, f, lo, hi),
                                       _pupil_power(profile, f, lo, hi), _dipole_norm(lo, hi))

    if isinstance(geometry, ConeAperture):
        if geometry.orientation is not DipoleOrientation.AXIAL:
            raise DomainError(
                "angular overlaps are defined for axial dipoles only; a "
                "transverse dipole has no azimuthally symmetric amplitude")
        lo, hi = region if region is not None else (0.0, geometry.half_angle)
        if not (0.0 <= lo < hi <= math.pi):
            raise DomainError(
                f"angular region must satisfy 0 <= lo < hi <= pi, got "
                f"({lo!r}, {hi!r})")
        dip2 = _cone_span(_sin3_head, lo, hi)
        if profile.kind == "flattop":
            cross = _cone_span(_sin2_head, lo, hi)
            beam2 = _cone_span(_sin_head, lo, hi)
        elif profile.kind == "matched":
            cross = beam2 = dip2
        elif profile.kind == "doughnut":
            raise DomainError(
                "a doughnut profile is defined on a mirror pupil, not on an "
                "angular region")
        else:
            beam = profile.func
            cross = _quad(lambda t: beam(t) * math.sin(t) * math.sin(t), lo, hi)
            beam2 = _quad(lambda t: beam(t) ** 2 * math.sin(t), lo, hi)
        return _overlap_from_integrals(cross, beam2, dip2)

    raise DomainError(
        f"geometry must be a ParabolicMirror or ConeAperture, got {geometry!r}")


def _kept_interval(u_h: float, u_r: float) -> Tuple[float, float]:
    # Rays must hit the parabola twice (1/u <= u_R) and clear the hole
    # (1/u >= u_h); the resulting interval is its own image under u -> 1/u.
    lo = max(u_h, 1.0 / u_r)
    hi = u_r if u_h == 0.0 else min(u_r, 1.0 / u_h)
    return lo, hi


class Recollimation(NamedTuple):
    """Collection-side coupling of a finite parabolic mirror."""

    omega_n_prime: float
    eta_prime: float
    p: float


def recollimation_parameters(mirror: ParabolicMirror, profile: BeamProfile) -> Recollimation:
    """Collection-side coupling (omega_n_prime, eta_prime, p) of a mirror.

    In units of 2f, a ray entering the pupil at u = d / 2f exits at 1 / u,
    so only u in [max(u_h, 1 / u_R), min(u_R, 1 / u_h)] is re-collimated at
    all and misses the central hole on the way out; that interval maps
    onto itself under the involution.  p is the fraction of the beam power
    landing in the kept interval, omega_n_prime the dipole weight of its
    angular image, and eta_prime the overlap of the Jacobian-remapped exit
    beam exit(v) = beam(1 / v) / v^2 with the pupil dipole profile A on
    the same interval.

    eta_prime is the incident overlap on the kept interval [lo, hi]:
    A(1 / u) = u^2 A(u), so v = 1 / u turns int exit A v dv over [lo, hi]
    into int beam A u du over [1 / hi, 1 / lo] = [lo, hi], and the remap
    keeps ring power.

    Raises DegenerateResultError when no rays survive (p would be 0).
    """
    f = mirror.focal_length
    u_h, u_r = 0.5 * mirror.hole_radius / f, 0.5 * mirror.aperture_radius / f
    lo, hi = _kept_interval(u_h, u_r)
    if not lo < hi:
        raise DegenerateResultError(
            "no rays survive re-collimation for this mirror (p = 0)")

    power_kept = _pupil_power(profile, f, lo, hi)
    power_in = _pupil_power(profile, f, u_h, u_r)
    if not 0.0 < power_in < math.inf:
        raise DegenerateResultError(
            "the beam power on the illuminated annulus is zero or leaves the "
            "floating-point range")
    p = min(power_kept / power_in, 1.0)

    eta_prime = _overlap_from_integrals(
        _pupil_cross(profile, f, lo, hi), power_kept, _dipole_norm(lo, hi))
    return Recollimation(omega_n_prime=_annulus_weight(lo, hi),
                         eta_prime=eta_prime, p=p)


class WaistOptimum(NamedTuple):
    """Result of a waist optimization: best waist and its overlap."""

    waist: float
    eta: float


def _golden_max(
    fn: Callable[[float], float], lo: float, hi: float, rel_tol: float
) -> Tuple[float, float]:
    x1 = hi - _GOLDEN * (hi - lo)
    x2 = lo + _GOLDEN * (hi - lo)
    f1, f2 = fn(x1), fn(x2)
    while hi - lo > rel_tol * max(abs(lo), abs(hi)):
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _GOLDEN * (hi - lo)
            f2 = fn(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _GOLDEN * (hi - lo)
            f1 = fn(x1)
    x = 0.5 * (lo + hi)
    return x, fn(x)


def optimize_waist(
    mirror: ParabolicMirror,
    family: Optional[Callable[[float], BeamProfile]] = None,
    bracket: Optional[Tuple[float, float]] = None,
    rel_tol: float = 1e-6,
) -> WaistOptimum:
    """Maximize the pupil overlap over a one-parameter beam family.

    ``family`` maps a waist to a BeamProfile (default: the doughnut ring
    mode).  The search is a golden-section scan of [0.1 f, 20 f], assuming
    a unimodal overlap, to relative tolerance 1e-6 on the waist.
    """
    if family is None:
        family = BeamProfile.doughnut
    f = mirror.focal_length
    lo, hi = bracket if bracket is not None else (0.1 * f, 20.0 * f)
    if not (0.0 < lo < hi and math.isfinite(hi)):
        raise DomainError(
            f"bracket must satisfy 0 < lo < hi < inf, got ({lo!r}, {hi!r})")

    def score(w: float) -> float:
        return overlap_eta(family(w), mirror)

    waist, eta = _golden_max(score, lo, hi, rel_tol)
    return WaistOptimum(waist=waist, eta=eta)
