"""Parameter sweeps over the phase model, with figure-style presets.

Rows carry the phase in radians and degrees next to the scattering ratio
and coherent fraction, so one pass over a grid reproduces a whole curve.
Degenerate grid points (where the phase is undefined) become flagged rows
with empty phase fields instead of aborting a scan.  CSV output is fully
deterministic: fixed column order, 17 significant digits, '\\n' endings.

``write_sweep`` is the streaming entry point, and the CLI's ``sweep`` and
``figures`` commands call it.  It makes two passes over the grid, in
chunks of a fixed number of rows.  The first checks every point, so a
sweep that fails writes nothing; the second computes each chunk's
columns, renders them as CSV or JSON and drops them, so memory does not
grow with the grid beyond the grid itself (8 bytes a point).
``run_sweep``, ``rows_to_csv`` and ``rows_to_json`` build the whole
result in memory instead.  ``evaluate_point`` hands its one point to the
second pass as plain numbers: ``atom.detuned_drive`` has checked it
already, so it takes no first pass.  The columns are bit-identical to
evaluating the scalar functions of :mod:`atomphase.phase` point by point
by construction: the kernel computes every column through the private
helpers of :mod:`atomphase.atom` and :mod:`atomphase.phase` that those
functions call, and adds only slicing, boundary masking, the arctangent
and column assembly.  The helpers keep every power on ``math.pow``, and
the kernel every arctangent on ``math.atan2``: the platform libm, where
numpy's vectorised ``power`` and ``arctan2`` differ by up to 4 ulp and may
vary with the CPU's instruction set, which would move printed digits.
"""

from __future__ import annotations

import io
import json
import math
from collections.abc import Callable, Iterable, Mapping
from dataclasses import dataclass, fields, replace
from functools import partial
from itertools import islice, repeat
from operator import attrgetter, index
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

import numpy as np

from . import _EXPORTS
from .atom import _coherent_fraction, _drive_terms, _power_ratio, detuned_drive
from .errors import DegenerateResultError, DomainError, PoleError, _check_real, _check_type
from .phase import (
    KERR_POLE_MESSAGE,
    NULL_FIELD_MESSAGE,
    _BRANCHES as _PHASE_BRANCHES,
    AsymmetricCoupling,
    PhaseBranch,
    SymmetricCoupling,
    _branch_code,
    _check_transmission,
    _cross_weight,
    _dispersive_phase,
    _imag_part,
    _kerr_phase,
    _real_part,
    _weight,
    critical_saturation,
)

__all__ = list(_EXPORTS["sweep"])

# The coupling class each model takes: the one list of models.
_MODEL_COUPLINGS = {"symmetric": SymmetricCoupling, "asymmetric": AsymmetricCoupling,
                    "kerr": SymmetricCoupling}
MODELS = tuple(_MODEL_COUPLINGS)
SWEEP_VARIABLES = ("delta", "s0", "s", "omega_n", "eta")
# the drive parameters a SweepSpec may hold fixed
_FIXED_PARAMETERS = ("delta", "s0", "s")

Coupling = Union[SymmetricCoupling, AsymmetricCoupling]

# The most points a sweep may have: its float64 grid is 800 MB.
MAX_COUNT = 10**8


@dataclass(frozen=True)
class SweepRange:
    """Inclusive grid: count points from start to stop, linear or log.

    count is an integer from 2 to MAX_COUNT, checked before any grid is
    built.
    """

    start: float
    stop: float
    count: int
    spacing: str = "linear"

    def __post_init__(self) -> None:
        _check_real("start", self.start)
        _check_real("stop", self.stop)
        try:
            count = index(self.count)
        except TypeError:
            raise DomainError(f"count must be an integer, got {self.count!r}") from None
        # a bool passes index() as 1 or 0, so it is refused here too
        if not 2 <= count <= MAX_COUNT:
            raise DomainError(f"count must be from 2 to {MAX_COUNT}, got {self.count!r}")
        if self.start == self.stop:
            raise DomainError("start and stop must differ")
        if self.spacing not in ("linear", "log"):
            raise DomainError(
                f"spacing must be 'linear' or 'log', got {self.spacing!r}")
        if self.spacing == "log" and not (self.start > 0 and self.stop > 0):
            raise DomainError("log spacing requires positive endpoints")
        # in floats: two ints in the float range may differ by more than it
        if self.spacing == "linear" and math.isinf(float(self.stop) - float(self.start)):
            raise DomainError(
                f"linear range from {self.start!r} to {self.stop!r} is wider than "
                "the floating-point range")

    def grid(self) -> List[float]:
        """Grid values in ascending order; log spacing is geometric."""
        return self._array().tolist()

    def _array(self) -> np.ndarray:
        lo, hi = sorted((float(self.start), float(self.stop)))
        if self.spacing == "log":
            return np.geomspace(lo, hi, self.count)
        # at the edge of the float range (hi - lo) / (count - 1) * (count - 1)
        # may round past it; numpy then overwrites that last point with hi
        with np.errstate(over="ignore"):
            return np.linspace(lo, hi, self.count)


@dataclass(frozen=True)
class SweepSpec:
    """One model, one coupling, one swept variable, fixed everything else.

    ``fixed`` supplies the non-swept drive parameters by name: ``delta``
    plus exactly one of ``s0`` or ``s`` (a fixed ``s`` is converted to s0
    per point via s0 = s (1 + 4 delta^2)).  It never holds the swept one.
    """

    model: str
    coupling: Coupling
    var: str
    range: SweepRange
    fixed: Dict[str, float]

    def __post_init__(self) -> None:
        _check_model_coupling(self.model, self.coupling)
        if self.var not in SWEEP_VARIABLES:
            raise DomainError(
                f"unknown sweep variable {self.var!r}; expected one of {SWEEP_VARIABLES}")
        _check_type("range", self.range, SweepRange)
        _check_type("fixed", self.fixed, Mapping)
        _check_fixed_names(self.fixed)
        for name, value in self.fixed.items():
            _check_real(f"fixed {name}", value)
        if self.var == "delta":
            if "delta" in self.fixed:
                raise DomainError("fixed 'delta' conflicts with sweeping delta")
        elif "delta" not in self.fixed:
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


def _check_fixed_names(fixed: Dict[str, float]) -> None:
    unknown = set(fixed) - set(_FIXED_PARAMETERS)
    if unknown:
        raise DomainError(f"unknown fixed parameters: {sorted(unknown)}")


def _check_model(model: str) -> type:
    # the model's coupling class; membership in the tuple, not the dict, so
    # that an unhashable model such as a list is refused too
    if model not in MODELS:
        raise DomainError(f"unknown model {model!r}; expected one of {MODELS}")
    return _MODEL_COUPLINGS[model]


def _check_model_coupling(model: str, coupling: Coupling) -> None:
    _check_type(f"coupling of model {model!r}", coupling, _check_model(model))


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
# Under postponed annotations a field's type is its source text, so no hint
# needs evaluating.
_TEXT = tuple(field.type == "str" for field in fields(ResultRow))


def row_to_dict(row: ResultRow) -> Dict[str, object]:
    _check_type("row", row, ResultRow)
    return dict(zip(CSV_COLUMNS, _row_values(row)))


# ------------------------------------------------------------------ kernel

_DEGREES = math.degrees(1.0)   # math.degrees(x) is x times this constant
_BRANCHES = np.array([branch.value for branch in _PHASE_BRANCHES], dtype=object)
_BOUNDARY = _PHASE_BRANCHES.index(PhaseBranch.BOUNDARY)

_CHUNK_ROWS = 1024   # rows computed, rendered and written at a time


def _column(values):
    """A chunk's column: a list of Python values, or one value for all rows."""
    return values.tolist() if isinstance(values, (np.ndarray, np.generic)) else values


def _each(values, m: int) -> Iterable:
    """m values: a list of an array's, or one number m times."""
    return values.tolist() if np.ndim(values) else repeat(values, m)


def _part(values, lo: int):
    """Rows [lo, lo + _CHUNK_ROWS) of a per-row input; a single number as is."""
    return values[lo:lo + _CHUNK_ROWS] if isinstance(values, (np.ndarray, list)) else values


def _validate(delta, drive: Tuple[str, object], n: int) -> None:
    """Pass 1: atom.detuned_drive's rules in its order, each over the whole
    grid, raising its error at the first point of the first rule that fails.

    Chunk by chunk, only the first failing point of each rule is kept, and
    the point where s is largest: (1+s)^2 overflows somewhere iff it does
    there, and detuned_drive decides that with the same math.pow as pass 2.
    """
    name, values = drive
    first: List[Optional[Tuple[float, float]]] = [None] * 4
    top = None   # (s, delta, s0) at the first largest s
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, _CHUNK_ROWS):
            d, v = _part(delta, lo), _part(values, lo)
            lorentz, s0, s = _drive_terms(d, name, v)
            rules = ((~np.isfinite(d), v), (~np.isfinite(lorentz), v),
                     (~np.isfinite(s0), s0), (s0 < 0.0, s0))
            for k, (bad, given) in enumerate(rules):
                if first[k] is None and np.any(bad):
                    i = int(np.argmax(bad))
                    first[k] = (_item(d, i), _item(given, i))
            i = int(np.argmax(s))
            if top is None or _item(s, i) > top[0]:
                top = (_item(s, i), _item(d, i), _item(s0, i))
    for point in first:
        if point is not None:
            detuned_drive(*point)
    detuned_drive(*top[1:])


def _item(values, i: int) -> float:
    return float(values[i]) if np.ndim(values) else float(values)


def _chunks(model: str, coupling: Coupling, swept: Sequence, delta, drive: Tuple[str, object],
            omega_n, eta) -> Iterator[list]:
    """Pass 2: the rows at these points as column chunks in CSV_COLUMNS
    order, computed as the iterator is consumed; the caller has checked
    every point.  ``swept`` holds one value per row.  delta, the drive
    values (``drive`` is ("s0", values) or ("s", values)), omega_n and eta
    are each an array with one value per row or one number for every row,
    and a number gives the same bits as an array of it: numpy and Python
    floats both round every + - * / and sqrt by IEEE 754, and each column
    comes from the helpers that the scalar functions of
    :mod:`atomphase.atom` and :mod:`atomphase.phase` call.

    A chunk's column is a list with one value per row, or a single value
    when every row shares it: delta, s0, s and coherent_fraction when
    their inputs are single numbers, and model.  Where delta or s0 is the
    swept array itself, that column is the very list of swept_value."""
    name, values = drive
    for lo in range(0, len(swept), _CHUNK_ROWS):
        w = _part(swept, lo)
        # an input that is the swept array itself gets the very same slice
        d, v, on, et = (w if x is swept else _part(x, lo) for x in (delta, values, omega_n, eta))
        m = len(w)
        # Python floats overflow to inf without a warning, and so do these
        # columns: (1+s)^1.5 (1+4 delta^2) may overflow where the phase tends to 0.
        with np.errstate(over="ignore"):
            lorentz, s0, s = _drive_terms(d, name, v)
            ratio = _power_ratio(on, et, lorentz, s)
            fraction = _coherent_fraction(s)
            if model == "asymmetric":
                weight = _cross_weight(on, et, coupling.omega_n_prime, coupling.eta_prime)
                real = _real_part(lorentz, s, weight, coupling.p)
            else:
                # the Kerr form divides by the weak-drive (s = 0) real part
                weight = _weight(on, et)
                real = _real_part(lorentz, 0.0 if model == "kerr" else s, weight)
            if model == "kerr":
                # a pole is a boundary row; every other Kerr row is generic
                pole = real == 0.0
                phi = np.broadcast_to(_kerr_phase(
                    _dispersive_phase(weight, d, np.where(pole, 1.0, real)), s), m)
                phi_rad = phi.tolist()
                code = _BOUNDARY * pole
            else:
                # -0.0 + 0.0 == +0.0, so atan2 lands on +pi for the resonant pi branch
                imag = _imag_part(weight, d) + 0.0
                phi_rad = list(map(math.atan2, _each(imag, m), _each(real, m)))
                phi = np.array(phi_rad)
                code = _branch_code(real, imag)
        code = np.broadcast_to(code, m)
        phi_deg = (phi * _DEGREES).tolist()
        for i in np.flatnonzero(code == _BOUNDARY).tolist():
            phi_rad[i] = phi_deg[i] = None
        swept_column = _column(w)
        yield [swept_column,
               swept_column if d is w else _column(d),
               swept_column if s0 is w else _column(s0),
               _column(s), phi_rad, phi_deg, _BRANCHES[code].tolist(),
               _column(ratio), _column(fraction), model]


def _sweep_rows(spec: SweepSpec) -> Iterator[list]:
    """The sweep's rows as column chunks (see _chunks), in ascending swept
    order, after every point is checked (pass 1).

    Only the grid spans the whole sweep; a fixed delta or drive stays one
    number.
    """
    _check_type("spec", spec, SweepSpec)
    values = spec.range._array()
    var, fixed, coupling = spec.var, spec.fixed, spec.coupling
    if var in ("omega_n", "eta"):
        # the coupling's own range checks, on the smallest and largest value
        for value in (values[0], values[-1]):
            replace(coupling, **{var: float(value)})
    delta = values if var == "delta" else float(fixed["delta"])
    if var in ("s0", "s"):
        drive = (var, values)
    else:
        name = "s0" if "s0" in fixed else "s"
        drive = (name, float(fixed[name]))
    _validate(delta, drive, len(values))
    if spec.model == "asymmetric":
        _check_transmission(coupling.p)
    return _chunks(spec.model, coupling, values, delta, drive,
                   values if var == "omega_n" else coupling.omega_n,
                   values if var == "eta" else coupling.eta)


def evaluate_point(
    model: str,
    coupling: Coupling,
    delta: float,
    s0: float,
    degenerate_ok: bool = True,
) -> ResultRow:
    """Evaluate one (delta, s0) point of the given model; the row's
    swept_value is None.

    Degenerate points (undefined phase, Kerr pole) become rows with branch
    'boundary' and empty phase fields; pass degenerate_ok=False to raise
    DegenerateResultError (PoleError for the Kerr model) instead.
    A model outside MODELS, or a coupling of the wrong type for the model,
    raises DomainError, as in SweepSpec.  Drive parameters that
    ``atom.detuned_drive`` rejects raise its DomainError before any
    arithmetic on them.
    """
    _check_model_coupling(model, coupling)
    detuned_drive(delta, s0)
    if model == "asymmetric":
        _check_transmission(coupling.p)
    row = ResultRow(*next(_tuples(_chunks(
        model, coupling, [None], float(delta), ("s0", float(s0)),
        coupling.omega_n, coupling.eta))))
    if row.branch == PhaseBranch.BOUNDARY.value and not degenerate_ok:
        if model == "kerr":
            raise PoleError(KERR_POLE_MESSAGE)
        raise DegenerateResultError(NULL_FIELD_MESSAGE)
    return row


def run_sweep(spec: SweepSpec) -> List[ResultRow]:
    """Evaluate the grid, one row per point, in ascending swept order."""
    return [ResultRow(*values) for values in _tuples(_sweep_rows(spec))]


# ----------------------------------------------------------------- writers

def _csv_line(pieces: Sequence[str]) -> str:
    return ",".join(pieces) + "\n"


def _json_object(pieces: Sequence[str]) -> str:
    """One object of json.dumps(rows, indent=2), with these value spellings."""
    return "  {\n" + ",\n".join(
        f"    {json.dumps(name)}: {piece}" for name, piece in zip(CSV_COLUMNS, pieces)) + "\n  }"


def _format_value(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return format(value, ".17g")


def _json_value(value) -> str:
    try:
        return json.dumps(value, allow_nan=False)
    except (TypeError, ValueError):   # not a JSON type, or not finite
        raise DomainError(f"JSON has no spelling for the value {value!r}") from None


def _row_chunks(rows: Iterable[ResultRow]) -> Iterator[list]:
    """Column chunks (see _chunks) of ResultRows; every column is a list."""
    _check_type("rows", rows, Iterable)
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK_ROWS)):
        try:
            values = list(map(_row_values, chunk))
        except AttributeError:   # an object that is not a row
            for row in chunk:
                _check_type("row", row, ResultRow)
            raise
        yield [list(column) for column in zip(*values)]


def _tuples(chunks: Iterable[list]) -> Iterator[tuple]:
    """Row tuples in CSV_COLUMNS order from column chunks."""
    for columns in chunks:
        yield from zip(*[c if isinstance(c, list) else repeat(c) for c in columns])


def _render(columns: list, placeholder: Callable[[list, bool], Optional[str]],
            spell: Callable[[object], str], row: Callable[[Sequence[str]], str]) -> List[str]:
    """A chunk's rows, by a %-template built from this chunk alone.

    A single-value column is spelled once, by ``spell``, into the template.
    A list column takes ``placeholder(values, is_text)``, which spells every
    one of its values; where that is None, ``spell`` spells the values one
    by one and the column takes "%s".  A list that two columns share
    (swept_value and the delta or s0 it sweeps) is spelled once, for both.
    """
    pieces, varying, spelled = [], [], {}
    for column, is_text in zip(columns, _TEXT):
        if not isinstance(column, list):
            pieces.append(spell(column).replace("%", "%%"))
            continue
        fit = placeholder(column, is_text)
        if fit is None or sum(other is column for other in columns) > 1:
            if id(column) not in spelled:
                spelled[id(column)] = ([fit % value for value in column] if fit
                                       else list(map(spell, column)))
            fit, column = "%s", spelled[id(column)]
        pieces.append(fit)
        varying.append(column)
    template = row(pieces)
    return [template % values for values in zip(*varying)]


def _csv_placeholder(values: list, is_text: bool) -> Optional[str]:
    """The CSV column's placeholder: %.17g spells a number, but not None,
    as _format_value does."""
    if is_text:
        return "%s"
    try:
        sum(values)
    except TypeError:   # an empty (None) phase field
        return None
    return "%.17g"


def _json_placeholder(values: list, is_text: bool) -> Optional[str]:
    """The JSON column's placeholder: %r spells a finite float, and "%s" in
    quotes a string that needs no escape, as json.dumps does.  A sum that
    overflows reads as not finite; those values are spelled one by one."""
    if is_text:
        return '"%s"' if all(json.dumps(value) == f'"{value}"' for value in set(values)) else None
    try:
        return "%r" if math.isfinite(sum(values)) else None
    except TypeError:   # None
        return None


def _row_placeholder(placeholder: Callable[[list, bool], Optional[str]],
                     values: list, is_text: bool) -> Optional[str]:
    """``placeholder`` for a caller's rows: a number column of anything but
    built-in floats (a bool or numpy float, which %r does not spell as
    json.dumps does) is spelled value by value.  The kernel's are floats."""
    if is_text or set(map(type, values)) == {float}:
        return placeholder(values, is_text)
    return None


def _check_comments(comments: Sequence[str]) -> None:
    # one '#' line each: a line break would start a data line
    _check_type("comments", comments, tuple, list)
    for comment in comments:
        _check_type("comment", comment, str)
        if "\n" in comment or "\r" in comment:
            raise DomainError(f"a comment must be one line, got {comment!r}")


def _write_csv(write: Callable[[str], object], chunks: Iterable[list],
               comments: Sequence[str] = (),
               placeholder: Callable[[list, bool], Optional[str]] = _csv_placeholder) -> None:
    """Write CSV from column chunks (see _chunks), one '#' line per comment."""
    write("".join(f"# {comment}\n" for comment in comments) + ",".join(CSV_COLUMNS) + "\n")
    for columns in chunks:
        write("".join(_render(columns, placeholder, _format_value, _csv_line)))


def _write_json(write: Callable[[str], object], chunks: Iterable[list],
                placeholder: Callable[[list, bool], Optional[str]] = _json_placeholder) -> None:
    """Write the bytes of json.dumps([row objects], indent=2) + '\\n' from
    column chunks (see _chunks).  A NaN or infinite value raises DomainError
    before its chunk is written."""
    opening = "[\n"
    for columns in chunks:
        write(opening + ",\n".join(_render(columns, placeholder, _json_value, _json_object)))
        opening = ",\n"
    write("[]\n" if opening == "[\n" else "\n]\n")


def rows_to_csv(rows: Sequence[ResultRow], comments: Sequence[str] = ()) -> str:
    """Render rows as deterministic CSV, one '#' line per comment (a tuple
    or list of strings without line breaks)."""
    _check_comments(comments)
    out = io.StringIO()
    _write_csv(out.write, _row_chunks(rows), comments,
               partial(_row_placeholder, _csv_placeholder))
    return out.getvalue()


def rows_to_json(rows: Sequence[ResultRow]) -> str:
    """Render rows as a JSON array of row objects, byte for byte what
    json.dumps(..., indent=2) prints.  The JSON is strict: a NaN or
    infinite field raises DomainError."""
    out = io.StringIO()
    _write_json(out.write, _row_chunks(rows), partial(_row_placeholder, _json_placeholder))
    return out.getvalue()


def write_sweep(spec: SweepSpec, write: Callable[[str], object], format: str = "csv",
                comments: Sequence[str] = ()) -> None:
    """Stream the sweep's rows to ``write`` as CSV or strict JSON.

    Every point is checked before the first call to ``write``, so a sweep
    that fails writes nothing; the rows are then computed, rendered and
    written chunk by chunk.  CSV starts with one '#' line per comment, of a
    tuple or list of strings without line breaks.  JSON has no comments:
    comments with format "json" raise DomainError, as does a NaN or
    infinite value, before its chunk is written.
    """
    _check_type("write", write, Callable)
    if format not in ("csv", "json"):
        raise DomainError(f"format must be 'csv' or 'json', got {format!r}")
    _check_comments(comments)
    if format == "json" and comments:
        raise DomainError("JSON output cannot carry comments")
    chunks = _sweep_rows(spec)
    if format == "json":
        _write_json(write, chunks)
    else:
        _write_csv(write, chunks, comments)


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


_THRESHOLD_S0 = critical_saturation(SymmetricCoupling(1.0, 1.0))


def _coupling_note(coupling: Coupling) -> str:
    return " ".join(f"{field.name}={getattr(coupling, field.name):g}"
                    for field in fields(coupling))


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


_FIGURE_BUILDERS = {"fig2": _fig2, "fig3": _fig3, "fig4": _fig4, "fig5": _fig5}
FIGURE_PRESETS = tuple(_FIGURE_BUILDERS)


def figure_preset(name: str) -> FigurePreset:
    """Build the named preset bundle; a name outside FIGURE_PRESETS,
    including one that is not a string, raises DomainError."""
    # the tuple, not the dict: an unhashable name such as a list is refused too
    if name not in FIGURE_PRESETS:
        raise DomainError(
            f"unknown preset {name!r}; expected one of {FIGURE_PRESETS}")
    return _FIGURE_BUILDERS[name]()
