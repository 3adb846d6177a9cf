"""Reference implementations that the tests compare the library against."""

import json
import math
from dataclasses import dataclass, replace

from atomphase import (
    CSV_COLUMNS,
    DegenerateResultError,
    DipoleOrientation,
    DomainError,
    PhaseBranch,
    PhaseResult,
    PoleError,
    ResultRow,
    UndefinedRatioError,
    pupil_dipole_profile,
)


@dataclass(frozen=True)
class DipolePattern:
    """Far-field dipole radiation pattern sin^2(Theta) about the dipole axis.

    For an axial dipole Theta is the polar angle itself; for a transverse
    dipole (axis in the phi = 0 plane) cos(Theta) = sin(theta) cos(phi).
    The intensity integrates to 8 pi / 3 over the full sphere.
    """

    orientation: DipoleOrientation

    def intensity(self, theta: float, phi: float = 0.0) -> float:
        if self.orientation is DipoleOrientation.AXIAL:
            return math.sin(theta) ** 2
        projection = math.sin(theta) * math.cos(phi)
        return 1.0 - projection * projection

    def amplitude(self, theta: float, phi: float = 0.0) -> float:
        return math.sqrt(self.intensity(theta, phi))


def pupil_amplitude(profile, mirror):
    """A beam profile's amplitude as a function of pupil radius d on the
    mirror: the d-coordinate integrands the geometry tests start from."""
    if profile.kind == "flattop":
        return lambda d: 1.0
    if profile.kind == "doughnut":
        w = profile.waist
        return lambda d: (d / w) * math.exp(-((d / w) ** 2))
    if profile.kind == "matched":
        return lambda d: pupil_dipole_profile(d, mirror)
    return profile.func


# ------------------------------------------------------------- formulas
# The scalar phase model spelled out literally, each function in the
# operation order it has always had.  The library writes each expression
# once, in helpers that the sweep kernel shares with the scalar functions;
# these copies keep the bitwise tests from comparing those helpers with
# themselves.  They skip the drive checks, so pass them accepted drives.

def saturation_at_detuning(s0, delta):
    return s0 / (1.0 + 4.0 * delta * delta)


def scattered_power_ratio(omega_n, eta, delta, s0):
    lorentz = 1.0 + 4.0 * delta * delta
    s = s0 / lorentz
    return 4.0 * omega_n * eta * eta / (lorentz * (1.0 + s) ** 2)


def coherent_fraction(s):
    return 1.0 / (1.0 + s)


def _assemble(real, imag):
    imag = imag + 0.0
    if real == 0.0 and imag == 0.0:
        raise DegenerateResultError("null field")
    if imag == 0.0:
        branch = PhaseBranch.PI if real < 0.0 else PhaseBranch.ZERO
    else:
        branch = PhaseBranch.GENERIC
    return PhaseResult(phi=math.atan2(imag, real), branch=branch)


def symmetric_parts(coupling, delta, s0):
    """(real, imag) of the symmetric amplitude whose argument is the phase."""
    lorentz = 1.0 + 4.0 * delta * delta
    s = s0 / lorentz
    weight = 2.0 * coupling.omega_n * coupling.eta**2
    real = (1.0 + s) ** 1.5 * lorentz - weight
    imag = -2.0 * weight * delta
    return real, imag


def asymmetric_parts(coupling, delta, s0):
    """(real, imag) of the asymmetric amplitude whose argument is the phase."""
    lorentz = 1.0 + 4.0 * delta * delta
    s = s0 / lorentz
    cross = (2.0 * math.sqrt(coupling.omega_n * coupling.omega_n_prime)
             * coupling.eta * coupling.eta_prime)
    real = math.sqrt(coupling.p) * (1.0 + s) ** 1.5 * lorentz - cross
    imag = -2.0 * cross * delta
    return real, imag


def phase_symmetric(coupling, delta, s0):
    return _assemble(*symmetric_parts(coupling, delta, s0))


def phase_asymmetric(coupling, delta, s0):
    if coupling.p == 0:
        raise DomainError("p = 0")
    return _assemble(*asymmetric_parts(coupling, delta, s0))


def resonance_branch(coupling, s0):
    weight = 2.0 * coupling.omega_n * coupling.eta**2
    reference = (1.0 + s0) ** 1.5
    if weight > reference:
        return PhaseBranch.PI
    if weight < reference:
        return PhaseBranch.ZERO
    return PhaseBranch.BOUNDARY


def critical_saturation(coupling):
    weight = 2.0 * coupling.omega_n * coupling.eta**2
    if weight < 1.0:
        return None
    return weight ** (2.0 / 3.0) - 1.0


def dispersive_phase_arctan(coupling, delta, s0):
    if abs(delta) < 0.5:
        raise DomainError("|delta| < 0.5")
    lorentz = 1.0 + 4.0 * delta * delta
    s = s0 / lorentz
    weight = 2.0 * coupling.omega_n * coupling.eta**2
    numer = 2.0 * weight * delta
    denom = (1.0 + s) ** 1.5 * lorentz - weight
    if denom == 0.0:
        return math.copysign(0.5 * math.pi, -numer)
    return -math.atan(numer / denom)


def kerr_linear_phase(coupling, delta):
    lorentz = 1.0 + 4.0 * delta * delta
    weight = 2.0 * coupling.omega_n * coupling.eta**2
    denom = lorentz - weight
    if denom == 0.0:
        raise PoleError("pole")
    return -2.0 * weight * delta / denom


def kerr_phase(phi0, s):
    return phi0 * (1.0 - 1.5 * s)


def kerr_relative_error(coupling, delta, s):
    lorentz = 1.0 + 4.0 * delta * delta
    weight = 2.0 * coupling.omega_n * coupling.eta**2
    numer = -2.0 * weight * delta
    denom = (1.0 + s) ** 1.5 * lorentz - weight
    if denom == 0.0:
        raise PoleError("pole")
    reference = numer / denom
    if reference == 0.0:
        raise UndefinedRatioError("zero reference")
    approx = kerr_phase(kerr_linear_phase(coupling, delta), s)
    return abs(reference - approx) / abs(reference)


# --------------------------------------------------------------- sweeps
# The per-point sweep path the columnar kernel replaced: one call of the
# formulas above per grid point.  The kernel must match it bit for bit
# wherever it is defined.

def evaluate_point(model, coupling, delta, s0, swept_value=None):
    s = saturation_at_detuning(s0, delta)
    ratio = scattered_power_ratio(coupling.omega_n, coupling.eta, delta, s0)
    fraction = coherent_fraction(s)
    try:
        if model == "symmetric":
            result = phase_symmetric(coupling, delta, s0)
            phi, branch = result.phi, result.branch
        elif model == "asymmetric":
            result = phase_asymmetric(coupling, delta, s0)
            phi, branch = result.phi, result.branch
        else:
            phi = kerr_phase(kerr_linear_phase(coupling, delta), s)
            branch = PhaseBranch.GENERIC
    except (DegenerateResultError, PoleError):
        phi, branch = None, PhaseBranch.BOUNDARY
    return ResultRow(
        swept_value=swept_value, delta=delta, s0=s0, s=s, phi_rad=phi,
        phi_deg=None if phi is None else math.degrees(phi), branch=branch.value,
        p_sc_over_p=ratio, coherent_fraction=fraction, model=model)


def run_sweep(spec):
    rows = []
    for value in spec.range.grid():
        delta = value if spec.var == "delta" else spec.fixed["delta"]
        if spec.var == "s0":
            s0 = value
        elif spec.var == "s":
            s0 = value * (1.0 + 4.0 * delta * delta)
        elif "s0" in spec.fixed:
            s0 = spec.fixed["s0"]
        else:
            s0 = spec.fixed["s"] * (1.0 + 4.0 * delta * delta)
        coupling = spec.coupling
        if spec.var in ("omega_n", "eta"):
            coupling = replace(coupling, **{spec.var: value})
        rows.append(evaluate_point(spec.model, coupling, delta, s0, swept_value=value))
    return rows


def _format_value(value):
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(value, ".17g")


def rows_to_csv(rows, comments=()):
    lines = [f"# {comment}" for comment in comments]
    lines.append(",".join(CSV_COLUMNS))
    for row in rows:
        lines.append(",".join(_format_value(getattr(row, name)) for name in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def rows_to_json(rows):
    return json.dumps([{name: getattr(row, name) for name in CSV_COLUMNS} for row in rows],
                      indent=2) + "\n"
