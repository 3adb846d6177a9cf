"""Command-line front end.

Subcommands: ``eval`` (single point), ``sweep`` (JSON-configured grid to
stdout), ``figures`` (preset curve bundles to CSV files), ``geometry``
(cone and mirror coupling parameters as JSON).

Exit codes: 0 success, 1 domain or degenerate error, 2 usage or config
parse error, an I/O failure on the config or an output file, or any failed
write or flush of stdout or stderr (one ``error:`` line at most, none for
a closed pipe).  Negative option values are safest in the
``--opt=value`` form, e.g. ``--delta=-0.5``.
"""

from __future__ import annotations

import argparse
import json
import os
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
    _check_fixed_names,
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
    mirror_weighted_solid_angle,
    overlap_eta,
    recollimation_parameters,
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
_PRIME_FLAGS = [flag for key, flag in _FLAGS.items() if key not in _REQUIRED]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomphase",
        description="Phase shift of a focused beam driven through a single "
                    "two-level atom.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a single parameter point")
    p_eval.add_argument("--model", required=True, choices=MODELS)
    for key, flag in _FLAGS.items():
        p_eval.add_argument(flag, type=float, required=key in _REQUIRED)
    p_eval.add_argument("--delta", type=float, required=True)
    p_eval.add_argument("--s0", type=float, required=True)
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
    p_cone.add_argument("--alpha", type=float, required=True,
                        help="half-angle in radians")
    p_cone.add_argument("--orientation", required=True,
                        choices=("axial", "transverse"))
    p_cone.set_defaults(handler=_cmd_geometry_cone)

    p_mirror = geom_sub.add_parser("mirror", help="parabolic mirror coupling")
    p_mirror.add_argument("--f", type=float, required=True, dest="focal_length")
    p_mirror.add_argument("--R", type=float, required=True, dest="aperture_radius")
    p_mirror.add_argument("--hole", type=float, required=True, dest="hole_radius")
    p_mirror.add_argument("--profile", default=None,
                          metavar="flattop|doughnut:<w>|matched")
    p_mirror.set_defaults(handler=_cmd_geometry_mirror)

    return parser


def _build_coupling(args):
    coupling_type = _check_model(args.model)
    given = {key: getattr(args, key) for key in _FLAGS}
    keys = [field.name for field in fields(coupling_type)]
    if any(given[key] is None for key in keys):
        raise ConfigError(f"model {args.model!r} requires "
                          f"{', '.join(_PRIME_FLAGS[:-1])} and {_PRIME_FLAGS[-1]}")
    if any(given[key] is not None for key in given.keys() - keys):
        raise ConfigError(f"{'/'.join(_PRIME_FLAGS)} only apply to the asymmetric model")
    return coupling_type(**{key: given[key] for key in keys})


def _cmd_eval(args) -> int:
    coupling = _build_coupling(args)
    row = evaluate_point(args.model, coupling, args.delta, args.s0,
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


def _spec_from_config(config: dict) -> SweepSpec:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - {"model", "coupling", "sweep", "fixed"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key in ("model", "coupling", "sweep"):
        # the two sections must be objects, not anything dict() accepts
        if key not in config or key != "model" and not isinstance(config[key], dict):
            raise ConfigError(f"missing or malformed config section: {key!r}")
    model, coupling_cfg = config["model"], config["coupling"]
    sweep_cfg = dict(config["sweep"])   # a copy: its keys are popped below
    fixed = config.get("fixed", {})
    if not isinstance(fixed, dict):
        raise ConfigError("'fixed' must be an object of parameter values")

    try:
        # the model picks the coupling's keys, so it is checked first
        coupling_type = _check_model(model)
        keys = [field.name for field in fields(coupling_type)]
        missing = [k for k in keys if k not in coupling_cfg]
        unexpected = sorted(set(coupling_cfg) - set(keys), key=repr)
        if missing or unexpected:
            raise ConfigError(f"model {model!r} takes coupling keys {keys}; "
                              f"missing {missing}, unexpected {unexpected}")
        coupling = coupling_type(**{k: _number(k, v) for k, v in coupling_cfg.items()})
        rng = SweepRange(
            start=_number("start", sweep_cfg.pop("start")),
            stop=_number("stop", sweep_cfg.pop("stop")),
            count=sweep_cfg.pop("count"),   # SweepRange refuses a non-integer
            spacing=_string("spacing", sweep_cfg.pop("spacing", "linear")),
        )
        var = _string("var", sweep_cfg.pop("var"))
        if sweep_cfg:
            raise ConfigError(f"unknown sweep keys: {sorted(sweep_cfg)}")
        # an unknown fixed key is named as such, whatever its value
        _check_fixed_names(fixed)
        return SweepSpec(model=model, coupling=coupling, var=var, range=rng,
                         fixed={k: _number(k, v) for k, v in fixed.items()})
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing sweep key: {exc}") from exc
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
        with open(args.config, "r", encoding="utf-8") as fh:
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
    os.makedirs(args.out, exist_ok=True)
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
            waist = float(text.split(":", 1)[1])
        except ValueError as exc:
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
    profile = None if args.profile is None else _parse_profile(args.profile)
    # omega_n_prime is profile independent; use a flat top when none given
    recol = recollimation_parameters(mirror, profile or BeamProfile.flat_top())
    payload = {
        "omega_n": mirror_weighted_solid_angle(mirror),
        "omega_n_prime": recol.omega_n_prime,
    }
    if profile is not None:
        payload["eta"] = overlap_eta(profile, mirror)
        payload["eta_prime"] = recol.eta_prime
        payload["p"] = recol.p
    _print_json(payload)
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
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    try:
        if error is not None and not isinstance(error, BrokenPipeError):
            sys.stderr.write(f"error: {error}\n")
        sys.stderr.flush()
    except OSError:
        status = 2
    return status


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _finish(args.handler(args))
    except (ConfigError, OSError) as exc:
        return _finish(2, exc)
    except AtomPhaseError as exc:
        return _finish(1, exc)
