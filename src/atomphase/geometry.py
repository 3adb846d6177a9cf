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
in closed form: the dipole norm on pupils and cones (which also gives the
weights omega_n), the flat-top and dipole-matched powers and cross terms,
the doughnut power, and the doughnut cross terms through the exponential
integral E1.  A cone's weights and overlaps are the sin^k antiderivatives
from the axis, read at its half-angle.  On a pupil interval the dipole
norm, the flat-top cross term and the doughnut power are divided
differences (the width factored out of the difference of antiderivatives),
which do not cancel on narrow intervals.  The doughnut cross term, in
t = u^2 on [t1, t1 + h], is a power series about its inner end where
h <= (1 + t1) / 2 and a h <= 1 (a = (2f/w)^2), which differences nothing,
and the difference of two E1 tails elsewhere.  Relative to 60-digit
values it is within 4e-15 max(1, (b u1)^2, ln(1 / (a (1 + u1^2)))), with
b = 2f/w: the first term is the rounding of the exponent (b u1)^2, the
last the -ln x of E1's series that the tails cancel where x = a (1 + t)
is small.  No preset integral uses a quadrature rule; adaptive quadrature
remains only for custom profiles, on pupil pieces cut a decade apart from
the outer end (see ``BeamProfile``).  It calls QUADPACK's QAGS routine (R.
Piessens et al., *QUADPACK*, Springer 1983) once per piece and judges the
pieces of one integral together: the integral is refused with
``DegenerateResultError`` when the error estimates of the pieces QAGS
flagged add up to more than the relative tolerance of their sum.  No
``IntegrationWarning`` reaches the caller.

Each public call evaluates each distinct integral once.  A matched
profile's cross term and power are its dipole norm.  The re-collimated
overlap eta_prime is the incident overlap on the kept interval, and the
annulus power behind p is the kept power plus the rings outside the kept
interval (see ``recollimation_parameters``).  ``mirror_coupling``
returns all five numbers of a mirror by making those separate calls, so
it evaluates what they evaluate: the kept interval once for each of
them.  Nothing is cached between calls.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Optional, Sequence, Tuple, Union

from scipy.integrate._quadpack import _qagse

from . import _EXPORTS
from .errors import DegenerateResultError, DomainError, _check_real, _check_type
from .phase import AsymmetricCoupling

__all__ = list(_EXPORTS["geometry"])

# Purely relative: a custom profile whose values are tiny still gets full
# accuracy, and an identically zero integrand integrates to exactly 0.
_EPSABS = 0.0
_EPSREL = 1e-12
_LIMIT = 200           # subintervals QUADPACK may bisect each piece into
_GOLDEN_SECTION = (3.0 - math.sqrt(5.0)) / 2.0
_EPS = 2.0 ** -52      # the spacing of floats in [1, 2)
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
        _check_real("half_angle", self.half_angle)
        if not 0.0 < self.half_angle <= math.pi:
            raise DomainError(
                f"half_angle must lie in (0, pi], got {self.half_angle!r}")
        _check_type("orientation", self.orientation, DipoleOrientation)


@dataclass(frozen=True)
class ParabolicMirror:
    """Deep parabolic mirror: focal length, aperture radius, on-axis hole."""

    focal_length: float
    aperture_radius: float
    hole_radius: float = 0.0

    def __post_init__(self) -> None:
        _check_real("focal_length", self.focal_length, positive=True)
        _check_real("aperture_radius", self.aperture_radius, positive=True)
        _check_real("hole_radius", self.hole_radius)
        if not 0.0 <= self.hole_radius < self.aperture_radius:
            raise DomainError(
                "hole_radius must satisfy 0 <= hole < aperture_radius, got "
                f"{self.hole_radius!r}")
        # every pupil integral runs in u = d / 2f up to u_R = 0.5 R / f
        if not 0.0 < 0.5 * self.aperture_radius / self.focal_length < math.inf:
            raise DomainError(
                "0.5 aperture_radius / focal_length must be a positive float, got "
                f"R = {self.aperture_radius!r}, f = {self.focal_length!r}")


def _pupil(mirror: ParabolicMirror) -> Tuple[float, float, float]:
    """(f, u_h, u_R): the focal length and the annulus in u = d / 2f."""
    # on every design call, so the helper is called only to refuse
    if not isinstance(mirror, ParabolicMirror):
        _check_type("mirror", mirror, ParabolicMirror)
    f = mirror.focal_length
    return f, 0.5 * mirror.hole_radius / f, 0.5 * mirror.aperture_radius / f


def cone_weighted_solid_angle(cone: ConeAperture) -> float:
    """Dipole-weighted solid-angle fraction covered by a focusing cone.

    Evaluates (3 / 8 pi) * integral of sin^2(Theta) over the cone of
    half-angle alpha by the cone overlaps' antiderivatives, whose forms in
    sin(a / 2) do not cancel at small angles:

        axial       (3/4) int_0^a sin^3 = sin^4(a/2) (2 + cos a)
        transverse  (3/4) int_0^a sin - axial / 2

    Both reach 1/2 at a hemisphere and 1 on the full sphere.
    """
    _check_type("cone", cone, ConeAperture)
    axial = 0.75 * _sin3_head(cone.half_angle)
    if cone.orientation is DipoleOrientation.AXIAL:
        return axial
    return 0.75 * _sin_head(cone.half_angle) - 0.5 * axial


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
    _check_real("pupil radius", d, positive=True)
    f = _pupil(mirror)[0]
    # d' = 4 f^2 / d, ordered so that f^2 is never formed and nothing is
    # divided by a u = d / 2f that underflowed to 0
    d_prime = 4.0 * (f / d) * f
    if math.isinf(d_prime):
        raise DomainError(
            f"pupil radius {d!r} is too small: its image 4 f^2 / d overflows")
    return RayMapping(theta=math.pi - 2.0 * math.atan(0.5 * d / f), d_prime=d_prime)


def mirror_weighted_solid_angle(mirror: ParabolicMirror) -> float:
    """Axial-dipole-weighted solid-angle fraction covered by the mirror.

    The pupil annulus [hole, R] images onto theta in [theta(R),
    theta(hole)], with a hole-free mirror reaching the vertex at theta = pi.
    As A^2 2 pi u du = sin^3(theta) 2 pi dtheta / 4, the weight (3/4) int
    sin^3(theta) dtheta is 3 int A^2 u du: three times the overlaps' pupil
    dipole norm on [u_h, u_R].
    """
    _, u_h, u_r = _pupil(mirror)
    return _dipole_weight(_dipole_norm(u_h, u_r))


def _dipole_weight(dip2: float) -> float:
    # three times the dipole norm, bounded by 1 as eta and p are, so that no
    # rounding of a hole-free norm near its supremum 1/3 can pass it
    return min(3.0 * dip2, 1.0)


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
    _check_real("pupil radius", d, positive=True)
    u = 0.5 * d / _pupil(mirror)[0]
    # once u^2 overflows, the amplitude (about 2 / u^3) underflows to 0
    return _pupil_dipole(u) if u * u < math.inf else 0.0


@dataclass(frozen=True)
class BeamProfile:
    """Real radial amplitude of the incident beam.

    Presets: ``flat_top`` (uniform), ``doughnut`` (ring mode
    (d/w) exp(-d^2/w^2) on a mirror pupil), ``dipole_matched``
    (proportional to the dipole pattern in whatever coordinates it is
    evaluated).  ``custom`` wraps any square-integrable radial amplitude,
    evaluated on the native coordinate of the aperture: pupil radius for
    mirrors, polar angle for cones.  It returns a real number; an
    ``Exception`` it raises, or the ``TypeError`` of a value that is not
    real, becomes a ``DomainError`` chained to it.  An amplitude with a
    negative overlap is refused: its negation is the same beam.

    A custom profile is integrated by adaptive quadrature (QUADPACK's QAGS)
    to a relative tolerance of 1e-12.  On a mirror pupil the interval
    [lo, hi] in u = d / 2f is first cut at hi 10^-k, k = 1, 2, ..., at every
    such point above max(lo, 1e-6), so each piece but the innermost spans
    at most a decade, and an interval narrower than a decade is one piece.
    Each integral is a value within the tolerance or a
    ``DegenerateResultError`` whose message gives the error estimate: the
    estimates of the pieces QAGS could not bring within tolerance must add
    up to at most 1e-12 of the whole integral.  No ``IntegrationWarning``
    reaches the caller.  The rule sees an amplitude only at its nodes:
    structure narrower than about 1% of its radius (a thin ring, say) can
    fall between them and be missed, with no flag raised, and the overlap
    then comes back near 0 or is refused as zero-norm.
    """

    kind: str
    waist: Optional[float] = None
    func: Optional[Callable[[float], float]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("flattop", "doughnut", "matched", "custom"):
            raise DomainError(f"unknown beam profile kind {self.kind!r}")
        if self.kind == "doughnut":
            _check_real("doughnut waist", self.waist, positive=True)
        if self.kind == "custom":
            _check_type("custom profile func", self.func, Callable)

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


def _quad(fn: Callable[[float], float], lo: float, hi: float) -> Tuple[float, float]:
    # QUADPACK's QAGS, the routine scipy's quad calls for finite bounds, without
    # quad's Python wrapper (tests pin the private binding against quad):
    # (value, error estimate) where QAGS flags the piece (ier > 0), (value,
    # 0.0) where it reached the tolerance.  The integrands square by
    # multiplication, so an overflowing square is an inf, refused by
    # _integral; an amplitude may still raise OverflowError itself.  An
    # exception raised while the amplitude is evaluated becomes a
    # DomainError chained to it; a TypeError is a value that is not real
    try:
        value, error, ier = _qagse(fn, lo, hi, (), 0, _EPSABS, _EPSREL, _LIMIT)
    except OverflowError as exc:
        raise DomainError(
            f"custom profile leaves the floating-point range: {exc}") from exc
    except TypeError as exc:
        raise DomainError(f"custom profile must return a real number: {exc}") from exc
    except Exception as exc:
        raise DomainError(f"custom profile raised {type(exc).__name__}: {exc}") from exc
    return value, (error if ier else 0.0)


def _integral(fn: Callable[[float], float], cuts: Sequence[float]) -> float:
    """fn integrated over [cuts[0], cuts[-1]], one adaptive rule per piece
    between neighbouring cuts, judged as a whole."""
    total = missed = 0.0
    for a, b in zip(cuts, cuts[1:]):
        value, error = _quad(fn, a, b)
        total += value
        missed += error
    # checked once per integral, not per integrand call: a NaN or infinite
    # amplitude anywhere leaves a non-finite integral
    if not math.isfinite(total):
        raise DomainError(f"custom profile gives a non-finite integral ({total!r})")
    # a flagged piece whose error is negligible against the whole (an
    # underflowed tail, say) leaves the integral within its tolerance
    if missed > _EPSREL * abs(total):
        raise DegenerateResultError(
            f"custom-profile quadrature misses its relative tolerance {_EPSREL}: "
            f"error estimate {missed!r} on an integral of {total!r}")
    return total


# Cuts a decade apart, counted down from the outer end to u = 1e-6, keep the
# adaptive rule from missing the peak when the annulus spans many decades.
def _pupil_quad(fn: Callable[[float], float], lo: float, hi: float) -> float:
    cuts = [hi]
    while cuts[0] / 10.0 > max(lo, 1e-6):
        cuts.insert(0, cuts[0] / 10.0)
    cuts.insert(0, lo)
    return _integral(fn, cuts)


def _horner(coeffs: Tuple[float, ...], x: float) -> float:
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


# Taylor coefficients for the closed forms below whose elementary terms
# cancel near the origin.  Below each cut-off the truncated series is
# exact to ~1e-17 relative; above it the direct form loses < 40 ulp.
_ATAN_GAP_SERIES = tuple((-1) ** (k + 1) / (2 * k + 3) for k in range(16))
_X_MINUS_SIN_SERIES = tuple((-1) ** k / math.factorial(2 * k + 3) for k in range(9))
_RING_SERIES = tuple((-1) ** k * (k + 1) / math.factorial(k + 2) for k in range(16))


# Pupil integrals in u = d / 2f as divided differences.  Each preset density
# has an elementary antiderivative, but its values at the two ends cancel on
# a narrow interval; with the width h = x2 - x1 factored out of their
# difference, what is left is a sum of terms that do not cancel.  Past u = 1
# the integral is taken in r = 1/u: the dipole norm density is its own
# partner there, and the flat-top cross density 2 s^2 / (1 + s^2)^2 has
# partner 2 / (1 + s^2)^2, so every form runs on [0, 1], where no power
# overflows.  The width in r is (u2 - u1) / u1 / u2 from the original ends:
# the difference of the rounded reciprocals would lose it.

def _split_at_one(inner: Callable[..., float], outer: Callable[..., float],
                  lo: float, hi: float) -> float:
    # inner(x1, x2, h = x2 - x1) on the part of [lo, hi] below 1, plus outer
    # in r on the part above it
    if hi <= 1.0:
        return inner(lo, hi, hi - lo)
    if lo >= 1.0:
        return outer(1.0 / hi, 1.0 / lo, (hi - lo) / lo / hi)
    return inner(lo, 1.0, 1.0 - lo) + outer(1.0 / hi, 1.0, (hi - 1.0) / hi)


def _dipole_norm_form(x1: float, x2: float, h: float) -> float:
    # int 4 s^3 / (1 + s^2)^4 ds over [x1, x2], the density of A^2 u du: the
    # difference of t^2 (t + 3) / (3 (1 + t)^3) between t = a = x1^2 and
    # t = b = x2^2, with the factor b - a = h (x2 + x1) taken out of it
    a, b = x1 * x1, x2 * x2
    s, q = a + b, (1.0 + a) * (1.0 + b)
    return h * (x2 + x1) * (s * (3.0 + s) + a * b * (8.0 + 3.0 * s)) / (3.0 * q * q * q)


def _flat_cross_form(x1: float, x2: float, h: float) -> float:
    # int 2 s^2 / (1 + s^2)^2 ds, whose antiderivative is atan s - s / (1 + s^2):
    # (atan z - z) + z (a + b + 2ab) / ((1 + a)(1 + b)), with z = h / (1 + x1 x2)
    # and atan z - z, the one negative term, from its series below z = 0.3
    a, b = x1 * x1, x2 * x2
    z = h / (1.0 + x1 * x2)
    gap = z * z * z * _horner(_ATAN_GAP_SERIES, z * z) if z < 0.3 else math.atan(z) - z
    return gap + z * (a + b + 2.0 * a * b) / ((1.0 + a) * (1.0 + b))


def _flat_cross_partner_form(x1: float, x2: float, h: float) -> float:
    # int 2 / (1 + s^2)^2 ds, whose antiderivative is atan s + s / (1 + s^2)
    p = x1 * x2
    return math.atan(h / (1.0 + p)) + h * (1.0 - p) / ((1.0 + x1 * x1) * (1.0 + x2 * x2))


def _dipole_norm(lo: float, hi: float) -> float:
    """int A(u)^2 u du over [lo, hi]: the pupil dipole norm."""
    return _split_at_one(_dipole_norm_form, _dipole_norm_form, lo, hi)


def _ring_power(b: float, lo: float, hi: float) -> float:
    # int (b u)^2 exp(-2 (b u)^2) u du over [lo, hi].  With y = 2 (b u)^2 it is
    # e^-y1 [y1 (1 - e^-d) + 1 - (1 + d) e^-d] / (8 b^2), d = y2 - y1, where
    # both terms are non-negative.  b^2 is divided out of each term before
    # two small factors meet, and d is formed from the unscaled ends.
    decay = math.exp(-2.0 * (b * lo) * (b * lo))
    if not decay:
        return 0.0
    g = 2.0 * (hi - lo) * (hi + lo)   # d / b^2
    d = g * b * b
    if d < 0.5:
        rest = g * d * _horner(_RING_SERIES, d)
    else:
        # (1 + d) e^-d is 0, not inf * 0, once e^-d underflows
        e = math.exp(-d)
        rest = (-math.expm1(-d) - d * e if e else 1.0) / b / b
    return decay * (2.0 * lo * lo * -math.expm1(-d) + rest) / 8.0


# Doughnut cross term.  With b = 2f/w, a = b^2 and t = u^2 it reduces to
# b times int s e^{-as} / (1+s)^2 ds.  The integral from t to infinity is
#     e^{-at} (t + Q(x)) S(x) / (1 + t),   x = a (1 + t),
# with S(x) = e^x E1(x) and Q(x) = x + 1 - 1/S(x) in (0, 1).  For x >= 1, Q is
# the tail of the continued fraction S = 1/(x+1 - 1/(x+3 - 4/(x+5 - ...))).
# So no step forms e^a (which overflows past a = 709) or subtracts the two
# nearly equal terms of the textbook antiderivative (which cancel for large
# a).  On an interval [t1, t1 + h] over which the density barely changes,
# the two tails would cancel instead; there a power series about the inner
# end sums the integral itself (see ``_doughnut_cross``).

_EULER_GAMMA = 0.5772156649015329
# E1(x) = -gamma - ln x + x * sum_k (-x)^k / ((k+1) (k+1)!), exact to ~1e-17 for x < 1
_E1_SERIES = tuple((-1) ** k / ((k + 1) * math.factorial(k + 1)) for k in range(18))
# The series about the inner end runs where h <= c / 2 and a h <= 1, with
# c = 1 + t1; its terms fall like (n + 1) 2^-n, below 4e-18 at n = 64.
_INNER_SERIES_RATIO = 0.5
_INNER_SERIES_TERMS = 64

# BEGIN E1 FIT: generated by tools/reference.py, do not edit
# Q on [_E1_FIT_LO, _E1_FIT_HI): row e + 1 holds the coefficients in
# t = 4m - 3 of the binade [2^(e-1), 2^e), where (m, e) = frexp(x).
_E1_FIT_LO = 0.25
_E1_FIT_HI = 64.0
_E1_FIT = (
    # [0.25, 0.5): degree 19, float evaluation within 1.2e-16 relative
    (
        0.4539387130534772, -0.04265197056887957, 0.006136440142990274,
        -0.0011578508159309873, 0.00025544674375043845, -6.187811854386364e-05,
        1.59188573717843e-05, -4.268910890930653e-06, 1.1799205595739648e-06,
        -3.3370190295669163e-07, 9.609570880662204e-08, -2.807595994364345e-08,
        8.291407184818942e-09, -2.4749480316281e-09, 7.58755753089342e-10,
        -2.311057927756922e-10, 5.914369813617323e-11, -1.7684560450254912e-11,
        1.0821709991774003e-11, -3.4513820327305086e-12,
    ),
    # [0.5, 1.0): degree 19, float evaluation within 1.3e-16 relative
    (
        0.362077850139529, -0.0451287605593195, 0.0073707301269393625,
        -0.0014587004234325833, 0.0003274123078423197, -7.980162176211664e-05,
        2.0569462597917064e-05, -5.516842545948442e-06, 1.5238374735294157e-06,
        -4.3051904402046606e-07, 1.2382517220217017e-07, -3.6130953353206316e-08,
        1.0656397026878904e-08, -3.176779344639475e-09, 9.725494556939717e-10,
        -2.9585158075445647e-10, 7.570009041400573e-11, -2.2611999089237537e-11,
        1.3792893974500384e-11, -4.3941941027928055e-12,
    ),
    # [1.0, 2.0): degree 20, float evaluation within 2.0e-16 relative
    (
        0.26913525552139, -0.0434867971465663, 0.00820971590299584,
        -0.001748774913276112, 0.00040715108011223186, -0.00010110780609442845,
        2.632143793048308e-05, -7.098222276915343e-06, 1.966612350177789e-06,
        -5.56531586174377e-07, 1.6019236197273864e-07, -4.6758285776196544e-08,
        1.3806334462056241e-08, -4.109920478234058e-09, 1.2349835413725251e-09,
        -3.823572962270057e-10, 1.1706173950534173e-10, -2.920994228962947e-11,
        8.73532741868262e-12, -5.66074946437326e-12, 1.8091983082571334e-12,
    ),
    # [2.0, 4.0): degree 20, float evaluation within 1.8e-16 relative
    (
        0.1844256380582279, -0.0372948752273483, 0.00816706657817432,
        -0.0019107795711717798, 0.0004716233647551935, -0.0001214893755925963,
        3.237911515100047e-05, -8.868003479716902e-06, 2.4828337294531237e-06,
        -7.077526682093761e-07, 2.0477549937724967e-07, -5.99949158554322e-08,
        1.7763001408455363e-08, -5.298302171611279e-09, 1.5944228146989594e-09,
        -4.941945297415975e-10, 1.5141698022679296e-10, -3.779744754041426e-11,
        1.1308551544934924e-11, -7.330316882175309e-12, 2.3428523473684432e-12,
    ),
    # [4.0, 8.0): degree 20, float evaluation within 1.4e-16 relative
    (
        0.11615392036199185, -0.028086790106508375, 0.007037515256822571,
        -0.0018191362693283466, 0.00048310593445970515, -0.00013131947433248385,
        3.6416787635463495e-05, -1.0273855112095205e-05, 2.9415866505350372e-06,
        -8.530324133600583e-07, 2.5011902463730454e-07, -7.40517999387885e-08,
        2.210868720928902e-08, -6.638732466161776e-09, 2.0087537636810086e-09,
        -6.25654996148349e-10, 1.9241273006189037e-10, -4.807520486744208e-11,
        1.4420935209043589e-11, -9.402187897216538e-12, 3.01008604398276e-12,
    ),
    # [8.0, 16.0): degree 21, float evaluation within 1.8e-16 relative
    (
        0.06776144872699931, -0.018643777251863794, 0.005200558224404538,
        -0.0014689772737518122, 0.0004197065867536425, -0.00012116956374889718,
        3.5313908837532235e-05, -1.038067880815223e-05, 3.0753273067054427e-06,
        -9.175574703559168e-07, 2.755315441011544e-07, -8.3225687577704e-08,
        2.5276557802882006e-08, -7.713839312272714e-09, 2.359000198613774e-09,
        -7.25574587491975e-10, 2.3078590144302231e-10, -7.194407081643193e-11,
        1.7442542548952643e-11, -5.264414399831331e-12, 3.723482131301509e-12,
        -1.2012918765380498e-12,
    ),
    # [16.0, 32.0): degree 21, float evaluation within 1.8e-16 relative
    (
        0.03722917924545072, -0.01114245046852371, 0.003350303470327532,
        -0.0010117703066241741, 0.0003068088872861018, -9.339887688564053e-05,
        2.853698283420566e-05, -8.749383041307516e-06, 2.691319521495213e-06,
        -8.304086956027187e-07, 2.569688289481556e-07, -7.973764903116975e-08,
        2.4810434282269032e-08, -7.738121625208675e-09, 2.412586646698972e-09,
        -7.552685928924789e-10, 2.446959759243186e-10, -7.741246720987604e-11,
        1.8740411595599525e-11, -5.718923150877909e-12, 4.189465174920426e-12,
        -1.3646334345042561e-12,
    ),
    # [32.0, 64.0): degree 22, float evaluation within 2.1e-16 relative
    (
        0.019636993155830285, -0.006178651236229307, 0.0019467733636874523,
        -0.0006142146226896665, 0.00019403883971376426, -6.137653182434573e-05,
        1.9437626359316905e-05, -6.163026157651147e-06, 1.9563114313015965e-06,
        -6.216689444274431e-07, 1.9776156799385964e-07, -6.297485819980875e-08,
        2.0073662840337506e-08, -6.406311776743636e-09, 2.0461124761326026e-09,
        -6.514701417899892e-10, 2.082163855265675e-10, -6.954608430705997e-11,
        2.2443060790473996e-11, -5.180578224248865e-12, 1.596951013712133e-12,
        -1.319835528134418e-12, 4.3623711174428026e-13,
    ),
)
# END E1 FIT


def _scaled_e1(x: float) -> Tuple[float, float]:
    """(S, Q) with S = e^x E1(x) and Q = x + 1 - 1/S, for x > 0.

    Below _E1_FIT_LO = 0.25, S is the power series of E1 and Q is formed
    from it.  Above it, Q comes first and S = 1 / (x + 1 - Q): forming Q
    from S would cancel x + 1 against 1/S, which costs the series up to
    3.5e-15 relative just below x = 1.  On [0.25, 64) Q is one polynomial
    per binade, fitted offline by ``tools/reference.py`` (regenerate the
    coefficients with ``python tools/reference.py``, which needs mpmath);
    it is within 2.2e-16 relative of Q.  From 64 up, Q is the continued
    fraction, which needs few steps there.
    """
    if x < _E1_FIT_LO:
        s = math.exp(x) * (-_EULER_GAMMA - math.log(x) + x * _horner(_E1_SERIES, x))
        return s, x + 1.0 - 1.0 / s
    if x < _E1_FIT_HI:
        m, e = math.frexp(x)
        q = _horner(_E1_FIT[e + 1], 4.0 * m - 3.0)
    else:
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


def _doughnut_b(profile: BeamProfile, f: float) -> float:
    # b = 2f / w, the inverse waist in units of 2f; f / w never divides by 0
    b = 2.0 * (f / profile.waist)
    if not 0.0 < b * b < math.inf:
        raise DegenerateResultError(
            "doughnut waist and focal length are too many decades apart: the "
            "overlap integrals leave the floating-point range")
    return b


def _doughnut_cross(b: float, lo: float, hi: float) -> float:
    """b int s e^{-as} / (1+s)^2 ds over [lo^2, hi^2], with a = b^2."""
    a = b * b
    t1 = lo * lo
    c = 1.0 + t1
    h = (hi - lo) * (hi + lo)   # t2 - t1, from the unscaled ends
    # the tails also take a ring whose t1 overflows, where both are 0
    if not (h <= _INNER_SERIES_RATIO * c < math.inf and a * h <= 1.0):
        return b * (_doughnut_tail(t1, a) - _doughnut_tail(hi * hi, a))
    # In r = s - t1 the integral is e^{-a t1} int_0^h (t1 + r) sum_n c_n r^n dr,
    # where (c + r)^2 sum_n c_n r^n = e^{-ar}.  The loop carries
    # C_n = c^2 c_n h^n, so C_0 = 1, and sums C_n [tau / (n+1) + z / (n+2)]
    # with tau = t1 / c and z = h / c: nothing is differenced.
    tau, z = t1 / c, h / c
    term = 1.0                  # (-ah)^n / n!
    c1 = c2 = total = 0.0
    for n in range(_INNER_SERIES_TERMS):
        if n:
            term *= -a * h / n
        cn = term - z * (2.0 * c1 + z * c2)
        total += cn * (tau / (n + 1) + z / (n + 2))
        c1, c2 = cn, c1
    x = b * lo
    return b * math.exp(-x * x) * z * total


def _pupil_power(profile: BeamProfile, f: float, lo: float, hi: float) -> float:
    """int beam^2 u du over [lo, hi] for focal length f."""
    if profile.kind == "flattop":
        return 0.5 * (hi - lo) * (hi + lo)
    if profile.kind == "matched":
        return _dipole_norm(lo, hi)
    if profile.kind == "doughnut":
        # the beam is (b u) exp(-(b u)^2) with b = 2f / w
        return _ring_power(_doughnut_b(profile, f), lo, hi)
    # a custom amplitude takes d = f (2u), which unlike (2f) u cannot overflow;
    # b * b is the square rounded once, without libm's pow
    beam = profile.func

    def power_node(u: float) -> float:
        b = beam(f * (2.0 * u))
        return b * b * u
    return _pupil_quad(power_node, lo, hi)


def _pupil_cross(profile: BeamProfile, f: float, lo: float, hi: float) -> float:
    """int beam A u du over [lo, hi] for focal length f; not for a matched
    beam, whose cross term is its dipole norm (see ``_pupil_integrals``)."""
    if profile.kind == "flattop":
        return _split_at_one(_flat_cross_form, _flat_cross_partner_form, lo, hi)
    if profile.kind == "doughnut":
        return _doughnut_cross(_doughnut_b(profile, f), lo, hi)
    beam = profile.func

    def cross_node(u: float) -> float:
        # _pupil_dipole(u) inline, in its order of operations: the same bits
        # in one Python frame per node
        q = 1.0 + u * u
        return beam(f * (2.0 * u)) * (2.0 * u / q / q) * u
    return _pupil_quad(cross_node, lo, hi)


# Cone antiderivatives: integrals of sin^k from the axis to t in [0, pi].

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


def _pupil_integrals(profile: BeamProfile, f: float, lo: float,
                     hi: float) -> Tuple[float, float, float]:
    """(cross term, beam power, dipole norm) on [lo, hi]: an overlap's integrals."""
    dip2 = _dipole_norm(lo, hi)
    if profile.kind == "matched":
        # the beam is the dipole profile, so all three are one integral, and
        # the overlap is exactly 1
        return dip2, dip2, dip2
    return _pupil_cross(profile, f, lo, hi), _pupil_power(profile, f, lo, hi), dip2


def _overlap_from_integrals(cross: float, beam2: float, dip2: float) -> float:
    # a subnormal norm has lost its relative precision to underflow
    if beam2 < _TINY or dip2 < _TINY:
        raise DegenerateResultError(
            "zero-norm profile on the aperture; the overlap is undefined")
    if beam2 == math.inf:
        raise DegenerateResultError(
            "the beam power on the aperture leaves the floating-point range")
    # only a custom amplitude can be negative: -beam is the same beam
    if cross < 0.0:
        raise DomainError(
            "custom profile has a negative overlap with the dipole field; "
            "flip the sign of its amplitude")
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


def overlap_eta(profile: BeamProfile,
                geometry: Union[ParabolicMirror, ConeAperture]) -> float:
    """Normalized amplitude overlap of a beam with the dipole pattern.

    For a ``ParabolicMirror`` the integrals run over the pupil annulus from
    the hole to the aperture radius against the pupil dipole profile, with
    measure 2 pi d dd; a sub-annulus (lo, hi) of a mirror is the mirror
    ``ParabolicMirror(f, hi, lo)``.  For a ``ConeAperture`` with an axial
    dipole they run over the polar angle from 0 to the half-angle against
    sin(theta), with measure 2 pi sin(theta) dtheta.  Cauchy-Schwarz bounds
    the result by 1, with equality only for profiles proportional to the
    dipole's.
    """
    if not isinstance(profile, BeamProfile):
        _check_type("profile", profile, BeamProfile)
    if isinstance(geometry, ParabolicMirror):
        return _overlap_from_integrals(*_pupil_integrals(profile, *_pupil(geometry)))

    if isinstance(geometry, ConeAperture):
        if geometry.orientation is not DipoleOrientation.AXIAL:
            raise DomainError(
                "angular overlaps are defined for axial dipoles only; a "
                "transverse dipole has no azimuthally symmetric amplitude")
        alpha = geometry.half_angle
        dip2 = _sin3_head(alpha)
        if profile.kind == "flattop":
            cross = _sin2_head(alpha)
            beam2 = _sin_head(alpha)
        elif profile.kind == "matched":
            cross = beam2 = dip2
        elif profile.kind == "doughnut":
            raise DomainError(
                "a doughnut profile is defined on a mirror pupil, not on a cone")
        else:
            beam = profile.func

            def cross_node(t: float) -> float:
                s = math.sin(t)
                return beam(t) * s * s

            def power_node(t: float) -> float:
                b = beam(t)
                return b * b * math.sin(t)
            cross = _integral(cross_node, (0.0, alpha))
            beam2 = _integral(power_node, (0.0, alpha))
        return _overlap_from_integrals(cross, beam2, dip2)

    _check_type("geometry", geometry, ParabolicMirror, ConeAperture)


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
    angular image (three times its dipole norm, as in
    ``mirror_weighted_solid_angle``), and eta_prime the overlap of the
    Jacobian-remapped exit beam exit(v) = beam(1 / v) / v^2 with the pupil
    dipole profile A on the same interval.

    eta_prime is the incident overlap on the kept interval [lo, hi]:
    A(1 / u) = u^2 A(u), so v = 1 / u turns int exit A v dv over [lo, hi]
    into int beam A u du over [1 / hi, 1 / lo] = [lo, hi], and the remap
    keeps ring power.

    The beam power on the whole annulus [u_h, u_R] is the kept power plus
    the power on the rings [u_h, lo] and [hi, u_R] outside the kept
    interval, so the kept interval is integrated once for p, eta_prime
    and omega_n_prime alike.

    Raises DegenerateResultError when no rays survive (p would be 0), and
    DomainError when ``mirror`` is not a ParabolicMirror or ``profile`` not
    a BeamProfile.
    """
    if not isinstance(profile, BeamProfile):
        _check_type("profile", profile, BeamProfile)
    f, u_h, u_r = _pupil(mirror)
    lo, hi = _kept_interval(u_h, u_r)
    if not lo < hi:
        raise DegenerateResultError(
            "no rays survive re-collimation for this mirror (p = 0)")

    cross, power_kept, dip2 = _pupil_integrals(profile, f, lo, hi)
    # an empty ring (lo == u_h or hi == u_r) costs nothing
    power_in = power_kept
    if u_h < lo:
        power_in += _pupil_power(profile, f, u_h, lo)
    if hi < u_r:
        power_in += _pupil_power(profile, f, hi, u_r)
    if not 0.0 < power_in < math.inf:
        raise DegenerateResultError(
            "the beam power on the illuminated annulus is zero or leaves the "
            "floating-point range")
    p = min(power_kept / power_in, 1.0)

    eta_prime = _overlap_from_integrals(cross, power_kept, dip2)
    return Recollimation(omega_n_prime=_dipole_weight(dip2), eta_prime=eta_prime, p=p)


def mirror_coupling(mirror: ParabolicMirror, profile: BeamProfile) -> AsymmetricCoupling:
    """The five coupling numbers of a mirror: (omega_n, eta, omega_n_prime,
    eta_prime, p) of the asymmetric phase model.

    omega_n is ``mirror_weighted_solid_angle(mirror)``, eta
    ``overlap_eta(profile, mirror)`` and the last three
    ``recollimation_parameters(mirror, profile)``, bit for bit.  It refuses
    what ``recollimation_parameters`` and ``overlap_eta`` refuse, in that
    order, and a value ``AsymmetricCoupling`` refuses.
    """
    recol = recollimation_parameters(mirror, profile)
    return AsymmetricCoupling(mirror_weighted_solid_angle(mirror),
                              overlap_eta(profile, mirror), *recol)


class WaistOptimum(NamedTuple):
    """Result of a waist optimization: best waist and its overlap."""

    waist: float
    eta: float


def _brent_max(
    fn: Callable[[float], float], a: float, b: float, xtol: float
) -> Tuple[float, float]:
    # Brent's method (R. P. Brent, Algorithms for Minimization without
    # Derivatives, 1973, ch. 5) on g = -fn: a parabola through the three
    # best points (x, w, v) where its vertex lies well inside the bracket
    # [a, b] and the step is shrinking, a golden-section step into the
    # larger half otherwise.  It stops once every point of the bracket is
    # within 2 tol of x, so the bracket is at most 4 xtol wide; steps never
    # fall below tol = max(xtol, 2^-52 |x|), which is at least one ulp of x.
    x = w = v = a + _GOLDEN_SECTION * (b - a)
    gx = gw = gv = -fn(x)
    d = e = 0.0
    while True:
        m = 0.5 * (a + b)
        tol = max(xtol, _EPS * abs(x))
        if abs(x - m) <= 2.0 * tol - 0.5 * (b - a):
            return x, -gx
        golden = True
        if abs(e) > tol:
            r = (x - w) * (gx - gv)
            q = (x - v) * (gx - gw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            e_prev, e = e, d
            # the vertex is x + p / q: take it if it moves less than half the
            # step before last and stays inside the bracket
            if abs(p) < abs(0.5 * q * e_prev) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                if x + d - a < 2.0 * tol or b - (x + d) < 2.0 * tol:
                    d = math.copysign(tol, m - x)
        if golden:
            e = (b - x) if x < m else (a - x)
            d = _GOLDEN_SECTION * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        gu = -fn(u)
        if gu <= gx:
            a, b = (a, x) if u < x else (x, b)
            v, gv, w, gw, x, gx = w, gw, x, gx, u, gu
        else:
            a, b = (u, b) if u < x else (a, u)
            if gu <= gw or w == x:
                v, gv, w, gw = w, gw, u, gu
            elif gu <= gv or v == x or v == w:
                v, gv = u, gu


def optimize_waist(
    mirror: ParabolicMirror,
    family: Optional[Callable[[float], BeamProfile]] = None,
    bracket: Optional[Tuple[float, float]] = None,
    rel_tol: float = 1e-6,
) -> WaistOptimum:
    """Maximize the pupil overlap over a one-parameter beam family.

    ``family`` maps a waist to a BeamProfile (default: the doughnut ring
    mode).  The search is Brent's method on ``bracket`` (default
    [0.1 f, 20 f]), assuming a unimodal overlap, in s = log2(w) - k with k
    the binary exponent of f (f = m 2^k, 0.5 <= m < 1): scaling f and the
    bracket by a power of two leaves every s, and so the result, unchanged.
    It covers the waists with |s| <= 510, where (2f / w)^2 is a normal
    float, and raises DegenerateResultError if none of the bracket is left.
    It stops once the bracket holding the maximum is narrower than
    ``rel_tol`` (a positive number, default 1e-6) times the waist; one
    below 2^-50 (about 8.9e-16) is taken as 2^-50.  The returned eta is the
    best overlap evaluated.  A probe the family or the overlap refuses
    refuses the whole search.  On a bracket many decades wide the overlap
    can be flat to the last bit over most of it, and the search can stop
    on that plateau instead of at the maximum.
    """
    if family is None:
        family = BeamProfile.doughnut
    _check_type("family", family, Callable)
    f = _pupil(mirror)[0]
    try:
        lo, hi = bracket if bracket is not None else (0.1 * f, 20.0 * f)
    except (TypeError, ValueError):
        raise DomainError(f"bracket must hold two numbers (lo, hi), got {bracket!r}") from None
    _check_real("bracket start", lo)
    _check_real("bracket end", hi)
    if not 0.0 < lo < hi:
        raise DomainError(
            f"bracket must satisfy 0 < lo < hi < inf, got ({lo!r}, {hi!r})")
    _check_real("rel_tol", rel_tol, positive=True)
    lo, hi, k = float(lo), float(hi), math.frexp(f)[1]
    a, b = (math.log2(m) + (e - k) for m, e in map(math.frexp, (lo, hi)))
    # (2f / w)^2 is a normal float for |s| <= 510
    a, b = max(a, -510.0), min(b, 510.0)
    if not a <= b:
        raise DegenerateResultError(
            "the bracket holds no waist within a factor 2^510 of the focal length")

    def waist(s: float) -> float:
        # 2^(s + 1) times 2^(k - 1), a float for every f, so that a probe
        # past the float maximum is inf rather than an OverflowError; and
        # clamped, since a rounded s may lie just outside the bracket
        w = math.ldexp(2.0 ** (s % 1.0), math.floor(s) + 1) * math.ldexp(0.5, k)
        return min(max(w, lo), hi)

    # a bracket 4 xtol wide in s is rel_tol times the waist wide in w
    xtol = 0.25 * max(rel_tol, 2.0 ** -50) / math.log(2.0)
    s, eta = _brent_max(lambda s: overlap_eta(family(waist(s)), mirror), a, b, xtol)
    return WaistOptimum(waist=waist(s), eta=eta)
