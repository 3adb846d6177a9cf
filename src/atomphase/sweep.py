"""Parameter sweeps over the phase model, with figure-style presets.

Rows carry the phase in radians and degrees next to the scattering ratio
and coherent fraction, so one pass over a grid reproduces a whole curve.
Degenerate grid points (where the phase is undefined) become flagged rows
with empty phase fields instead of aborting a scan.  CSV output is fully
deterministic: fixed column order, 17 significant digits, '\\n' endings.

A sweep is computed column by column over the whole grid and then
streamed to CSV or JSON in chunks of a fixed number of rows.  The columns
are bit-identical to evaluating the scalar functions of
:mod:`atomphase.phase` point by point: numpy does only + - * / and sqrt,
which IEEE 754 rounds exactly, while every power and arctangent goes
through ``math.pow`` / ``math.atan2``, the platform libm that the scalar
code calls too.  numpy's vectorised ``power`` and ``arctan2`` differ from
libm by up to 4 ulp and may vary with the CPU's instruction set, which
would move printed digits.  Every input is validated before the first
byte is written, so a sweep that fails writes nothing.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import dataclass, fields, replace
from itertools import islice, repeat
from operator import attrgetter
from typing import (Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union,
                    get_type_hints)

import numpy as np

from .atom import detuned_drive
from .errors import DegenerateResultError, DomainError, PoleError
from .phase import (
    KERR_POLE_MESSAGE,
    NULL_FIELD_MESSAGE,
    AsymmetricCoupling,
    PhaseBranch,
    SymmetricCoupling,
)

__all__ = [
    "MODELS",
    "SWEEP_VARIABLES",
    "CSV_COLUMNS",
    "FIGURE_PRESETS",
    "SweepRange",
    "SweepSpec",
    "ResultRow",
    "FigureSeries",
    "FigurePreset",
    "evaluate_point",
    "run_sweep",
    "figure_preset",
    "row_to_dict",
    "rows_to_csv",
    "rows_to_json",
]

MODELS = ("symmetric", "asymmetric", "kerr")
SWEEP_VARIABLES = ("delta", "s0", "s", "omega_n", "eta")

Coupling = Union[SymmetricCoupling, AsymmetricCoupling]


@dataclass(frozen=True)
class SweepRange:
    """Inclusive grid: count points from start to stop, linear or log."""

    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise DomainError(
                f"start and stop must be finite, got {self.start!r} and {self.stop!r}")
        if self.count < 2:
            raise DomainError(f"count must be at least 2, got {self.count!r}")
        if self.start == self.stop:
            raise DomainError("start and stop must differ")
        if self.spacing not in ("linear", "log"):
            raise DomainError(
                f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if self.spacing == "log" and not (self.start > 0 and self.stop > 0):
            raise DomainError("log spacing requires positive endpoints")
        if self.spacing == "linear" and math.isinf(self.stop - self.start):
            raise DomainError(
                f"linear range from {self.start!r} to {self.stop!r} is wider than "
                "the floating-point range")

    def grid(self) -> List[float]:
        """Grid values in ascending order; log spacing is geometric."""
        lo, hi = sorted((self.start, self.stop))
        if self.spacing == "log":
            return np.geomspace(lo, hi, self.count).tolist()
        # at the edge of the float range (hi - lo) / (count - 1) * (count - 1)
        # may round past it; numpy then overwrites that last point with hi
        with np.errstate(over="ignore"):
            return np.linspace(lo, hi, self.count).tolist()


@dataclass(frozen=True)
class SweepSpec:
    """One model, one coupling, one swept variable, fixed everything else.

    ``fixed`` supplies the non-swept drive parameters by name: ``delta``
    plus exactly one of ``s0`` or ``s`` (a fixed ``s`` is converted to s0
    per point via s0 = s (1 + 4 delta^2)).
    """

    model: str
    coupling: Coupling
    var: str
    range: SweepRange
    fixed: Dict[str, float]

    def __post_init__(self) -> None:
        if self.model not in MODELS:
            raise DomainError(f"unknown model {self.model!r}; expected one of {MODELS}")
        if self.var not in SWEEP_VARIABLES:
            raise DomainError(
                f"unknown sweep variable {self.var!r}; expected one of {SWEEP_VARIABLES}")
        _check_model_coupling(self.model, self.coupling)
        unknown = set(self.fixed) - {"delta", "s0", "s"}
        if unknown:
            raise DomainError(f"unknown fixed parameters: {sorted(unknown)}")
        for name, value in self.fixed.items():
            if not math.isfinite(value):
                raise DomainError(f"fixed {name} must be finite, got {value!r}")
        if self.var != "delta" and "delta" not in self.fixed:
            raise DomainError("a fixed 'delta' is required unless delta is swept")
        if self.var in ("s0", "s"):
            if "s0" in self.fixed or "s" in self.fixed:
                raise DomainError(
                    "fixed 's0'/'s' conflict with sweeping the drive strength")
        else:
            given = [k for k in ("s0", "s") if k in self.fixed]
            if len(given) != 1:
                raise DomainError(
                    "exactly one of fixed 's0' or 's' is required, got "
                    f"{given or 'neither'}")


def _check_model_coupling(model: str, coupling: Coupling) -> None:
    if model == "asymmetric":
        if not isinstance(coupling, AsymmetricCoupling):
            raise DomainError("model 'asymmetric' requires an AsymmetricCoupling")
    elif not isinstance(coupling, SymmetricCoupling):
        raise DomainError(f"model {model!r} requires a SymmetricCoupling")


@dataclass(frozen=True)
class ResultRow:
    """One evaluated grid point.

    phi fields are None on degenerate points (branch 'boundary'), where the
    phase is undefined.  ``s`` is always s0 / (1 + 4 delta^2) and phi_deg is
    the exact degree conversion of phi_rad.  The field order is the column
    order of the CSV and JSON output.
    """

    swept_value: Optional[float]
    delta: float
    s0: float
    s: float
    phi_rad: Optional[float]
    phi_deg: Optional[float]
    branch: str
    p_sc_over_p: float
    coherent_fraction: float
    model: str


CSV_COLUMNS = tuple(field.name for field in fields(ResultRow))
_row_values = attrgetter(*CSV_COLUMNS)
# Which columns hold text (branch, model) rather than numbers.
_TEXT = tuple(get_type_hints(ResultRow)[name] is str for name in CSV_COLUMNS)


def row_to_dict(row: ResultRow) -> Dict[str, object]:
    return dict(zip(CSV_COLUMNS, _row_values(row)))


# ------------------------------------------------------------------ kernel

_DEGREES = math.degrees(1.0)   # math.degrees(x) is x times this constant
_BRANCHES = np.array([PhaseBranch.GENERIC.value, PhaseBranch.PI.value,
                      PhaseBranch.ZERO.value, PhaseBranch.BOUNDARY.value], dtype=object)


def _pow(base, exponent: float):
    """libm's pow, elementwise over an array, as the scalar code computes it."""
    if isinstance(base, np.ndarray):
        return np.array(list(map(math.pow, base.tolist(), repeat(exponent))))
    return math.pow(base, exponent)


def _reject(bad: np.ndarray, delta: np.ndarray, s0: np.ndarray) -> None:
    """Raise detuned_drive's error at the first point where bad is set."""
    if bad.any():
        i = int(np.argmax(bad))
        detuned_drive(float(delta[i]), float(s0[i]))


def _rows(model: str, coupling: Coupling, swept: Sequence, delta: np.ndarray,
          drive: Tuple[str, np.ndarray], omega_n, eta) -> Iterator[tuple]:
    """The rows at these points as value tuples in CSV_COLUMNS order.

    Every column is computed over all points, and every point validated,
    before this returns; the tuples are then assembled chunk by chunk.
    ``drive`` is ("s0", values) or ("s", values), one per row; omega_n and
    eta are the coupling's own values or, when swept, one per row.  Each
    expression keeps the operation order of the scalar functions in
    :mod:`atomphase.phase` and :mod:`atomphase.atom`.
    """
    n = len(swept)
    # Python floats overflow to inf without a warning, and so do these
    # columns: (1+s)^1.5 (1+4 delta^2) may overflow where the phase tends to 0.
    with np.errstate(over="ignore"):
        # atom.detuned_drive's rules in its order, each over the whole grid
        lorentz = 1.0 + 4.0 * delta * delta
        name, values = drive
        _reject(~np.isfinite(delta), delta, values)
        _reject(~np.isfinite(lorentz), delta, values)
        s0 = values * lorentz if name == "s" else values
        _reject(~np.isfinite(s0), delta, s0)
        _reject(s0 < 0.0, delta, s0)
        s = s0 / lorentz
        onep = 1.0 + s
        # (1+s)^2 overflows somewhere iff it does at the largest 1 + s, and
        # detuned_drive decides that with the same math.pow as _pow below
        i = int(np.argmax(onep))
        detuned_drive(float(delta[i]), float(s0[i]))
        pow2 = _pow(onep, 2.0)
        ratio = 4.0 * omega_n * eta * eta / (lorentz * pow2)
        fraction = 1.0 / onep

        if model == "kerr":
            weight = 2.0 * omega_n * _pow(eta, 2.0)
            denom = lorentz - weight
            boundary = denom == 0.0
            phi = -2.0 * weight * delta / np.where(boundary, 1.0, denom) * (1.0 - 1.5 * s)
            code = np.where(boundary, 3, 0)
        else:
            if model == "asymmetric":
                if coupling.p == 0:
                    raise DomainError("p must be positive for a defined phase")
                weight = (2.0 * np.sqrt(omega_n * coupling.omega_n_prime)
                          * eta * coupling.eta_prime)
                real = math.sqrt(coupling.p) * _pow(onep, 1.5) * lorentz - weight
            else:
                weight = 2.0 * omega_n * _pow(eta, 2.0)
                real = _pow(onep, 1.5) * lorentz - weight
            # -0.0 + 0.0 == +0.0, so atan2 lands on +pi for the resonant pi branch
            imag = -2.0 * weight * delta + 0.0
            boundary = (real == 0.0) & (imag == 0.0)
            phi = np.array(list(map(math.atan2, imag.tolist(), real.tolist())))
            code = np.where(imag != 0.0, 0, np.where(real < 0.0, 1, 2))
            code[boundary] = 3

    columns = {
        "swept_value": swept, "delta": delta, "s0": s0, "s": s, "phi_rad": phi,
        "phi_deg": phi * _DEGREES, "branch": _BRANCHES[code],
        "p_sc_over_p": ratio, "coherent_fraction": fraction, "model": [model] * n,
    }
    return _tuples(columns, boundary, n)


def _tuples(columns: Dict[str, Sequence], boundary: np.ndarray, n: int) -> Iterator[tuple]:
    """Row tuples from the columns, converted to Python values one chunk at
    a time so that only the float64 arrays live for the whole grid."""
    for start in range(0, n, _CHUNK_ROWS):
        part = {name: column[start:start + _CHUNK_ROWS] for name, column in columns.items()}
        part = {name: column.tolist() if isinstance(column, np.ndarray) else column
                for name, column in part.items()}
        for i in np.flatnonzero(boundary[start:start + _CHUNK_ROWS]).tolist():
            part["phi_rad"][i] = part["phi_deg"][i] = None
        yield from zip(*[part[name] for name in CSV_COLUMNS])


def _sweep_rows(spec: SweepSpec) -> Iterator[tuple]:
    """The sweep's rows as value tuples, in ascending swept order."""
    grid = spec.range.grid()
    values = np.array(grid)
    var, fixed, coupling = spec.var, spec.fixed, spec.coupling
    if var in ("omega_n", "eta"):
        # the coupling's own range checks, on the smallest and largest value
        for value in (grid[0], grid[-1]):
            replace(coupling, **{var: value})
    delta = values if var == "delta" else np.full(len(grid), float(fixed["delta"]))
    if var in ("s0", "s"):
        drive = (var, values)
    else:
        name = "s0" if "s0" in fixed else "s"
        drive = (name, np.full(len(grid), float(fixed[name])))
    return _rows(spec.model, coupling, values, delta, drive,
                 values if var == "omega_n" else coupling.omega_n,
                 values if var == "eta" else coupling.eta)


def evaluate_point(
    model: str,
    coupling: Coupling,
    delta: float,
    s0: float,
    swept_value: Optional[float] = None,
    degenerate_ok: bool = True,
) -> ResultRow:
    """Evaluate one (delta, s0) point of the given model.

    Degenerate points (undefined phase, Kerr pole) become rows with branch
    'boundary' and empty phase fields; pass degenerate_ok=False to raise
    DegenerateResultError (PoleError for the Kerr model) instead.
    Non-finite or negative drive parameters raise DomainError.
    """
    _check_model_coupling(model, coupling)
    row = ResultRow(*next(_rows(
        model, coupling, [swept_value], np.array([delta], dtype=float),
        ("s0", np.array([s0], dtype=float)), coupling.omega_n, coupling.eta)))
    if row.branch == PhaseBranch.BOUNDARY.value and not degenerate_ok:
        if model == "kerr":
            raise PoleError(KERR_POLE_MESSAGE)
        raise DegenerateResultError(NULL_FIELD_MESSAGE)
    return row


def run_sweep(spec: SweepSpec) -> List[ResultRow]:
    """Evaluate the grid, one row per point, in ascending swept order."""
    return [ResultRow(*values) for values in _sweep_rows(spec)]


# ----------------------------------------------------------------- writers

_CHUNK_ROWS = 4096   # rows rendered per write
_CSV_ROW = ",".join("%s" if text else "%.17g" for text in _TEXT) + "\n"
# One object of json.dumps(rows, indent=2): %r spells a finite float, and
# "%s" a string that needs no escape, as JSON does.
_JSON_ROW = "  {\n" + ",\n".join(
    f"    {json.dumps(name)}: " + ('"%s"' if text else "%r")
    for name, text in zip(CSV_COLUMNS, _TEXT)) + "\n  }"
_JSON_ANY_ROW = "  {\n" + ",\n".join(
    f"    {json.dumps(name)}: %s" for name in CSV_COLUMNS) + "\n  }"


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(value, ".17g")


def _chunks(rows: Iterable[tuple]) -> Iterator[List[tuple]]:
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        yield chunk


def _csv_row(values: tuple) -> str:
    try:
        return _CSV_ROW % values
    except TypeError:   # an empty (None) phase field
        return ",".join(map(_format_value, values)) + "\n"


def _write_csv(write: Callable[[str], object], rows: Iterable[tuple],
               comments: Sequence[str] = ()) -> None:
    """Write CSV from value tuples in CSV_COLUMNS order, one '#' line per comment."""
    write("".join(f"# {comment}\n" for comment in comments) + ",".join(CSV_COLUMNS) + "\n")
    for chunk in _chunks(rows):
        try:
            text = "".join([_CSV_ROW % values for values in chunk])
        except TypeError:
            text = "".join([_csv_row(values) for values in chunk])
        write(text)


def _json_plain(values: Sequence, text: bool) -> bool:
    """True when _JSON_ROW spells every value as json.dumps does: finite
    numbers, or strings that JSON quotes without escapes.  A sum that
    overflows reads as not finite; those values take the slow path."""
    if text:
        return all(json.dumps(value) == f'"{value}"' for value in set(values))
    try:
        return math.isfinite(sum(values))
    except TypeError:   # None
        return False


def _json_row(values: tuple) -> str:
    if all(_json_plain((value,), text) for value, text in zip(values, _TEXT)):
        return _JSON_ROW % values
    return _JSON_ANY_ROW % tuple(map(json.dumps, values))


def _write_json(write: Callable[[str], object], rows: Iterable[tuple]) -> None:
    """Write the bytes of json.dumps([row objects], indent=2) + '\\n' from
    value tuples in CSV_COLUMNS order."""
    opening = "[\n"
    for chunk in _chunks(rows):
        if all(map(_json_plain, zip(*chunk), _TEXT)):
            body = ",\n".join([_JSON_ROW % values for values in chunk])
        else:
            body = ",\n".join([_json_row(values) for values in chunk])
        write(opening + body)
        opening = ",\n"
    write("[]\n" if opening == "[\n" else "\n]\n")


def rows_to_csv(rows: Sequence[ResultRow], comments: Sequence[str] = ()) -> str:
    """Render rows as deterministic CSV, one optional '#' comment per line."""
    out = io.StringIO()
    _write_csv(out.write, map(_row_values, rows), comments)
    return out.getvalue()


def rows_to_json(rows: Sequence[ResultRow]) -> str:
    """Render rows as a JSON array of row objects."""
    out = io.StringIO()
    _write_json(out.write, map(_row_values, rows))
    return out.getvalue()


@dataclass(frozen=True)
class FigureSeries:
    """One curve of a preset: a name, the sweep behind it, comment notes."""

    name: str
    spec: SweepSpec
    notes: Tuple[str, ...]


@dataclass(frozen=True)
class FigurePreset:
    """Named bundle of curves, one CSV file per series."""

    name: str
    series: Tuple[FigureSeries, ...]


FIGURE_PRESETS = ("fig2", "fig3", "fig4", "fig5")

_THRESHOLD_S0 = 4.0 ** (1.0 / 3.0) - 1.0  # critical s0 for full coupling


def _coupling_note(coupling: Coupling) -> str:
    if isinstance(coupling, AsymmetricCoupling):
        return (
            f"omega_n={coupling.omega_n:g} eta={coupling.eta:g} "
            f"omega_n_prime={coupling.omega_n_prime:g} "
            f"eta_prime={coupling.eta_prime:g} p={coupling.p:g}")
    return f"omega_n={coupling.omega_n:g} eta={coupling.eta:g}"


def _series(preset: str, name: str, spec: SweepSpec, extra: Sequence[str] = ()) -> FigureSeries:
    fixed = " ".join(f"{k}={spec.fixed[k]:.17g}" for k in sorted(spec.fixed))
    notes = (
        f"preset {preset}-{name}",
        f"model={spec.model} {_coupling_note(spec.coupling)}"
        + (f" fixed {fixed}" if fixed else ""),
        f"sweep {spec.var} from {spec.range.start:g} to {spec.range.stop:g}, "
        f"{spec.range.count} points, {spec.range.spacing}",
    ) + tuple(extra)
    return FigureSeries(name=name, spec=spec, notes=notes)


def _fig2() -> FigurePreset:
    rng = SweepRange(start=-5.0, stop=0.0, count=501)
    asym = AsymmetricCoupling(omega_n=0.94, eta=0.98, omega_n_prime=0.88,
                              eta_prime=0.99, p=0.97)
    series = (
        _series("fig2", "solid", SweepSpec(
            model="symmetric", coupling=SymmetricCoupling(1.0, 1.0),
            var="delta", range=rng, fixed={"s0": 0.0})),
        _series("fig2", "dashed", SweepSpec(
            model="symmetric", coupling=SymmetricCoupling(0.38, 1.0),
            var="delta", range=rng, fixed={"s0": 0.0})),
        _series("fig2", "dotted", SweepSpec(
            model="asymmetric", coupling=asym,
            var="delta", range=rng, fixed={"s0": 0.1})),
        _series("fig2", "dashdot", SweepSpec(
            model="asymmetric", coupling=asym,
            var="delta", range=rng, fixed={"s0": 10.0})),
    )
    return FigurePreset(name="fig2", series=series)


def _fig3() -> FigurePreset:
    # 2-D grid over (omega_n * eta^2, s0) realized as one omega_n sweep per
    # s0 value; eta is pinned to 1 so the swept value is the coupling weight.
    rng = SweepRange(start=0.0, stop=1.0, count=101)
    extra = ("rows at delta=0 classify the resonance branch",
             "eta=1 so the swept omega_n equals omega_n*eta^2")
    series = tuple(
        _series("fig3", f"s0-{s0:g}", SweepSpec(
            model="symmetric", coupling=SymmetricCoupling(1.0, 1.0),
            var="omega_n", range=rng, fixed={"delta": 0.0, "s0": s0}), extra)
        for s0 in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    )
    return FigurePreset(name="fig3", series=series)


def _fig4() -> FigurePreset:
    # The detuning window covers the pi-to-zero swing of every series;
    # the transitions sit at |delta| of a few 1e-3.
    rng = SweepRange(start=-0.02, stop=0.0, count=501)
    extra = ("detuning window [-0.02, 0] chosen to cover the branch transitions",)
    series = (
        _series("fig4", "solid", SweepSpec(
            model="symmetric", coupling=SymmetricCoupling(0.5 + 1e-4, 1.0),
            var="delta", range=rng, fixed={"s0": 0.0}), extra),
        _series("fig4", "dashed", SweepSpec(
            model="symmetric", coupling=SymmetricCoupling(0.5 - 1e-4, 1.0),
            var="delta", range=rng, fixed={"s0": 0.0}), extra),
        _series("fig4", "dotted", SweepSpec(
            model="symmetric", coupling=SymmetricCoupling(1.0, 1.0),
            var="delta", range=rng, fixed={"s0": _THRESHOLD_S0 - 1e-5}), extra),
        _series("fig4", "dashdot", SweepSpec(
            model="symmetric", coupling=SymmetricCoupling(1.0, 1.0),
            var="delta", range=rng, fixed={"s0": _THRESHOLD_S0 + 1e-5}), extra),
    )
    return FigurePreset(name="fig4", series=series)


def _fig5() -> FigurePreset:
    rng = SweepRange(start=0.0, stop=0.5, count=201)
    coupling = SymmetricCoupling(omega_n=0.94, eta=0.98)
    extra = ("abscissa is the detuned saturation parameter s",
             "range [0, 0.5] with 201 points")
    series = tuple(
        _series("fig5", f"{side}-{label}", SweepSpec(
            model=model, coupling=coupling,
            var="s", range=rng, fixed={"delta": delta}), extra)
        for side, delta in (("left", -10.0), ("right", -50.0))
        for label, model in (("full", "symmetric"), ("kerr", "kerr"))
    )
    return FigurePreset(name="fig5", series=series)


def figure_preset(name: str) -> FigurePreset:
    """Build the named preset bundle; unknown names raise ValueError."""
    builders = {"fig2": _fig2, "fig3": _fig3, "fig4": _fig4, "fig5": _fig5}
    if name not in builders:
        raise ValueError(
            f"unknown preset {name!r}; expected one of {FIGURE_PRESETS}")
    return builders[name]()
