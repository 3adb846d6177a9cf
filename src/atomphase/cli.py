"""Command-line front end.

Subcommands: ``eval`` (single point), ``sweep`` (JSON-configured grid to
stdout), ``figures`` (preset curve bundles to CSV files), ``geometry``
(cone and mirror coupling parameters as JSON).

Exit codes: 0 success, 1 domain or degenerate error, 2 usage or config
parse error, an I/O failure on the config or an output file, or any failed
write or flush of stdout or stderr (one ``error:`` line at most, none for
a closed pipe).  Negative option values are safest in the
``--opt=value`` form, e.g. ``--delta=-0.5``; a flag must be written in
full.  ``_keys`` owns every refusal of a missing or an unexpected key:
eval's coupling flags and a sweep config's top level, ``coupling``,
``sweep`` and ``fixed`` sections, each checked before any value is read.
"""

from __future__ import annotations

import argparse
import json
import os
import reprlib
import sys
from dataclasses import fields
from typing import List, Optional

from .errors import AtomPhaseError, DomainError
from .phase import AsymmetricCoupling, SymmetricCoupling
# sweep (and with it numpy) before geometry: where no bytecode is cached,
# the memory that compiling sweep.py takes is then freed before geometry
# loads scipy.integrate instead of stacking on top of it (~1.4 MB of an
# eval's peak RSS)
from .sweep import (
    FIGURE_PRESETS,
    MODELS,
    SweepRange,
    SweepSpec,
    _FIXED_PARAMETERS,
    _check_model,
    evaluate_point,
    figure_preset,
    row_to_dict,
    rows_to_csv,
    write_sweep,
)
from .geometry import (
    BeamProfile,
    ConeAperture,
    DipoleOrientation,
    ParabolicMirror,
    cone_weighted_solid_angle,
    mirror_coupling,
)

__all__ = ["main", "build_parser"]


class ConfigError(Exception):
    """A sweep configuration or CLI combination could not be validated."""


# eval takes each coupling parameter as a flag, omega_n as --omega-n; the
# symmetric models' parameters are required, the others only apply to the
# asymmetric model
_FLAGS = {field.name: "--" + field.name.replace("_", "-")
          for field in fields(AsymmetricCoupling)}
_REQUIRED = {field.name for field in fields(SymmetricCoupling)}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose failed writes raise, as every other output's
    do, and that takes no prefix of a flag for the flag; subparsers are of
    the same class (argparse's ``parser_class``)."""

    def __init__(self, *args, allow_abbrev=False, **kwargs):
        # add_parser passes no allow_abbrev down, so the default is this one
        super().__init__(*args, allow_abbrev=allow_abbrev, **kwargs)

    def _print_message(self, message, file=None):
        # argparse's own swallows an OSError: unbuffered, ``--help`` into a
        # full device would exit 0
        if message:
            (file or sys.stderr).write(message)


def _float(text: str) -> float:
    """A number flag's value as written: what float() reads, in ASCII, with
    no '_' digit separator and no surrounding whitespace.  nan and inf pass,
    and are refused as domain errors where they are used."""
    try:
        if text.isascii() and "_" not in text and text == text.strip():
            return float(text)
    except ValueError:
        pass
    # argparse's own words for a value that float() refuses
    raise argparse.ArgumentTypeError(f"invalid float value: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="atomphase",
        description="Phase shift of a focused beam driven through a single "
                    "two-level atom.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a single parameter point")
    p_eval.add_argument("--model", required=True, choices=MODELS)
    for key, flag in _FLAGS.items():
        p_eval.add_argument(flag, type=_float, required=key in _REQUIRED)
    p_eval.add_argument("--delta", type=_float, required=True)
    p_eval.add_argument("--s0", type=_float, required=True)
    p_eval.add_argument("--format", choices=("json", "csv"), default="json")
    p_eval.set_defaults(handler=_cmd_eval)

    p_sweep = sub.add_parser("sweep", help="run a sweep from a JSON config")
    p_sweep.add_argument("--config", required=True, metavar="FILE")
    p_sweep.add_argument("--format", choices=("json", "csv"), default="csv")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_fig = sub.add_parser("figures", help="emit a preset curve bundle as CSV files")
    p_fig.add_argument("--name", required=True, choices=FIGURE_PRESETS)
    p_fig.add_argument("--out", default=".", metavar="DIR")
    p_fig.set_defaults(handler=_cmd_figures)

    p_geom = sub.add_parser("geometry", help="coupling parameters of an aperture")
    geom_sub = p_geom.add_subparsers(dest="geometry_command", required=True)

    p_cone = geom_sub.add_parser("cone", help="lens cone solid-angle fraction")
    p_cone.add_argument("--alpha", type=_float, required=True,
                        help="half-angle in radians")
    p_cone.add_argument("--orientation", required=True,
                        choices=("axial", "transverse"))
    p_cone.set_defaults(handler=_cmd_geometry_cone)

    p_mirror = geom_sub.add_parser("mirror", help="parabolic mirror coupling")
    p_mirror.add_argument("--f", type=_float, required=True, dest="focal_length")
    p_mirror.add_argument("--R", type=_float, required=True, dest="aperture_radius")
    p_mirror.add_argument("--hole", type=_float, required=True, dest="hole_radius")
    p_mirror.add_argument("--profile", default=None,
                          metavar="flattop|doughnut:<w>|matched")
    p_mirror.set_defaults(handler=_cmd_geometry_mirror)

    return parser


def _keys(what: str, given, required, optional=(), spell=repr) -> dict:
    """``given`` if it is an object with every required key and no other than
    the optional ones; else one ConfigError naming each missing and unexpected key."""
    if not isinstance(given, dict):
        # reprlib: a long or deep value is shown by its head, on one short line
        raise ConfigError(f"{what} must be a JSON object, got {reprlib.repr(given)}")
    missing = [key for key in required if key not in given]
    unexpected = [key for key in given if key not in required and key not in optional]
    if missing or unexpected:
        takes = ", ".join(map(spell, required))
        if optional:
            extra = "optional " + ", ".join(map(spell, optional))
            takes = f"{takes} ({extra})" if takes else extra
        wrong = [f"{label} {', '.join(map(spell, keys))}" for label, keys
                 in (("missing", missing), ("unexpected", unexpected)) if keys]
        raise ConfigError(f"{what} takes {takes}; {'; '.join(wrong)}")
    return given


def _cmd_eval(args) -> int:
    coupling_type = _check_model(args.model)
    given = {key: value for key in _FLAGS if (value := getattr(args, key)) is not None}
    _keys(f"model {args.model!r}", given, [field.name for field in fields(coupling_type)],
          spell=_FLAGS.get)
    row = evaluate_point(args.model, coupling_type(**given), args.delta, args.s0,
                         degenerate_ok=False)
    if args.format == "json":
        _print_json(row_to_dict(row))
    else:
        sys.stdout.write(rows_to_csv([row]))
    return 0


def _print_json(payload: dict) -> None:
    # strict RFC 8259: a NaN or an infinity is an error, never a bare NaN
    try:
        text = json.dumps(payload, indent=2, allow_nan=False)
    except ValueError as exc:
        raise DomainError(f"result is not finite: {payload!r}") from exc
    sys.stdout.write(text + "\n")


def _spec_from_config(config) -> SweepSpec:
    try:
        # every section's keys before any value; the model picks the
        # coupling's keys, so it is read first
        _keys("config", config, ("model", "coupling", "sweep"), ("fixed",))
        model = config["model"]
        coupling_type = _check_model(model)
        coupling_cfg = _keys(f"coupling of model {model!r}", config["coupling"],
                             [field.name for field in fields(coupling_type)])
        sweep_cfg = _keys("sweep", config["sweep"], ("var", "start", "stop", "count"),
                          ("spacing",))
        fixed = _keys("fixed", config.get("fixed", {}), (), _FIXED_PARAMETERS)
        coupling = coupling_type(**{k: _number(k, v) for k, v in coupling_cfg.items()})
        start, stop = (_number(key, sweep_cfg[key]) for key in ("start", "stop"))
        # SweepRange refuses a count that is not an integer
        rng = SweepRange(start, stop, sweep_cfg["count"],
                         _string("spacing", sweep_cfg.get("spacing", "linear")))
        return SweepSpec(model, coupling, _string("var", sweep_cfg["var"]), rng,
                         {k: _number(k, v) for k, v in fixed.items()})
    except (AtomPhaseError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def _number(name: str, value) -> float:
    # JSON numbers only: a bool, a string or null is refused, not coerced
    if type(value) not in (int, float):
        raise ConfigError(f"{name} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"{name} is an integer past the floating-point range") from None


def _string(name: str, value) -> str:
    # JSON strings only, as _number takes JSON numbers only
    if type(value) is not str:
        raise ConfigError(f"{name} must be a JSON string, got {value!r}")
    return value


def _object(pairs) -> dict:
    # json keeps the last of a repeated key; a config refuses it
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"duplicate key {key!r}")
        obj[key] = value
    return obj


def _cmd_sweep(args) -> int:
    try:
        # a ValueError here is a path the OS refuses, such as one with a NUL
        fh = open(args.config, "r", encoding="utf-8")
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        with fh:
            config = json.load(fh, object_pairs_hook=_object)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON, bytes that are not UTF-8, an integer longer than Python
        # converts, a repeated key, or nesting past the recursion limit
        raise ConfigError(f"cannot parse config as JSON: {exc}") from exc
    # every point is validated before the first byte is written
    write_sweep(_spec_from_config(config), sys.stdout.write, args.format)
    return 0


def _cmd_figures(args) -> int:
    preset = figure_preset(args.name)
    try:
        os.makedirs(args.out, exist_ok=True)
    except ValueError as exc:   # a path the OS refuses, such as one with a NUL
        raise ConfigError(f"cannot write to --out {args.out!r}: {exc}") from exc
    paths = [os.path.join(args.out, f"{preset.name}-{series.name}.csv")
             for series in preset.series]
    for series, path in zip(preset.series, paths):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            write_sweep(series.spec, fh.write, comments=series.notes)
    # listed once every file is written: a failed call prints nothing
    sys.stdout.write("".join(path + "\n" for path in paths))
    return 0


def _cmd_geometry_cone(args) -> int:
    cone = ConeAperture(half_angle=args.alpha,
                        orientation=DipoleOrientation(args.orientation))
    payload = {"omega_n": cone_weighted_solid_angle(cone)}
    _print_json(payload)
    return 0


def _parse_profile(text: str) -> BeamProfile:
    if text == "flattop":
        return BeamProfile.flat_top()
    if text == "matched":
        return BeamProfile.dipole_matched()
    if text.startswith("doughnut:"):
        try:
            waist = _float(text.split(":", 1)[1])
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"bad doughnut waist in {text!r}") from exc
        return BeamProfile.doughnut(waist)
    raise ConfigError(
        f"unknown profile {text!r}; expected flattop, doughnut:<w> or matched")


def _cmd_geometry_mirror(args) -> int:
    mirror = ParabolicMirror(
        focal_length=args.focal_length,
        aperture_radius=args.aperture_radius,
        hole_radius=args.hole_radius,
    )
    if args.profile is None:
        # omega_n_prime is profile independent, and a dipole-matched beam's
        # integrals are the closed-form dipole norms that give both weights
        coupling = mirror_coupling(mirror, BeamProfile.dipole_matched())
        keys = ("omega_n", "omega_n_prime")
    else:
        coupling = mirror_coupling(mirror, _parse_profile(args.profile))
        keys = ("omega_n", "omega_n_prime", "eta", "eta_prime", "p")
    _print_json({key: getattr(coupling, key) for key in keys})
    return 0


def _finish(status: int, error: Optional[Exception] = None) -> int:
    """End a call: flush stdout, report ``error`` on one ``error:`` line,
    flush stderr, and return 2 if any of that failed, else ``status``.

    A closed pipe is the reader's choice, not an error to report.  A stdout
    that fails to flush is pointed at the null device, so no later flush
    fails again and a second call writes no second line.
    """
    try:
        sys.stdout.flush()
    except OSError as exc:
        status, error = 2, error or exc
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)
    try:
        if error is not None and not isinstance(error, BrokenPipeError):
            sys.stderr.write(f"error: {error}\n")
        sys.stderr.flush()
    except OSError:
        status = 2
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _finish(args.handler(args))
    except (ConfigError, OSError) as exc:
        return _finish(2, exc)
    except AtomPhaseError as exc:
        return _finish(1, exc)
