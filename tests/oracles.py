"""Reference implementations that the tests compare the library against."""

import json
import math
from dataclasses import dataclass, replace

from atomphase import (
    CSV_COLUMNS,
    DegenerateResultError,
    DipoleOrientation,
    PhaseBranch,
    PoleError,
    ResultRow,
    SymmetricCoupling,
    coherent_fraction,
    kerr_linear_phase,
    kerr_phase,
    phase_asymmetric,
    phase_symmetric,
    pupil_dipole_profile,
    saturation_at_detuning,
    scattered_power_ratio,
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


# --------------------------------------------------------------- sweeps
# The per-point sweep path the columnar kernel replaced: one call of the
# scalar phase functions per grid point.  The kernel must match it bit for
# bit wherever it is defined.

def evaluate_point(model, coupling, delta, s0, swept_value=None):
    s = saturation_at_detuning(s0, delta)
    focusing = coupling if isinstance(coupling, SymmetricCoupling) else coupling.symmetric()
    ratio = scattered_power_ratio(focusing.omega_n, focusing.eta, delta, s0)
    fraction = coherent_fraction(s)
    try:
        if model == "symmetric":
            result = phase_symmetric(coupling, delta, s0)
            phi, branch = result.phi, result.branch
        elif model == "asymmetric":
            result = phase_asymmetric(coupling, delta, s0)
            phi, branch = result.phi, result.branch
        else:
            phi = kerr_phase(kerr_linear_phase(focusing, delta), s)
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
