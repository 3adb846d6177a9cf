"""Command-line front end.

Subcommands: ``eval`` (single point), ``sweep`` (JSON-configured grid to
stdout), ``figures`` (preset curve bundles to CSV files), ``geometry``
(cone and mirror coupling parameters as JSON).

Exit codes: 0 success, 1 domain or degenerate error, 2 usage or config
parse error.  Negative option values are safest in the ``--opt=value``
form, e.g. ``--delta=-0.5``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from .errors import AtomPhaseError, DomainError
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
from .phase import AsymmetricCoupling, SymmetricCoupling
from .sweep import (
    FIGURE_PRESETS,
    SweepRange,
    SweepSpec,
    _sweep_rows,
    _write_csv,
    _write_json,
    evaluate_point,
    figure_preset,
    row_to_dict,
    rows_to_csv,
)

__all__ = ["main", "build_parser"]


class ConfigError(Exception):
    """A sweep configuration or CLI combination could not be validated."""


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="atomphase",
        description="Phase shift of a focused beam driven through a single "
                    "two-level atom.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a single parameter point")
    p_eval.add_argument("--model", required=True,
                        choices=("symmetric", "asymmetric", "kerr"))
    p_eval.add_argument("--omega-n", type=float, required=True)
    p_eval.add_argument("--eta", type=float, required=True)
    p_eval.add_argument("--omega-n-prime", type=float, default=None)
    p_eval.add_argument("--eta-prime", type=float, default=None)
    p_eval.add_argument("--p", type=float, default=None)
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
    prime_flags = (args.omega_n_prime, args.eta_prime, args.p)
    if args.model == "asymmetric":
        if any(v is None for v in prime_flags):
            raise ConfigError(
                "model 'asymmetric' requires --omega-n-prime, --eta-prime and --p")
        return AsymmetricCoupling(
            omega_n=args.omega_n, eta=args.eta,
            omega_n_prime=args.omega_n_prime, eta_prime=args.eta_prime, p=args.p)
    if any(v is not None for v in prime_flags):
        raise ConfigError(
            "--omega-n-prime/--eta-prime/--p only apply to the asymmetric model")
    return SymmetricCoupling(omega_n=args.omega_n, eta=args.eta)


def _cmd_eval(args) -> int:
    coupling = _build_coupling(args)
    row = evaluate_point(args.model, coupling, args.delta, args.s0,
                         degenerate_ok=False)
    if args.format == "json":
        sys.stdout.write(json.dumps(row_to_dict(row), indent=2) + "\n")
    else:
        sys.stdout.write(rows_to_csv([row]))
    return 0


def _spec_from_config(config: dict) -> SweepSpec:
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - {"model", "coupling", "sweep", "fixed"}
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    try:
        model = config["model"]
        coupling_cfg = dict(config["coupling"])
        sweep_cfg = dict(config["sweep"])
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"missing or malformed config section: {exc}") from exc
    fixed = config.get("fixed", {})
    if not isinstance(fixed, dict):
        raise ConfigError("'fixed' must be an object of parameter values")

    try:
        coupling_type = AsymmetricCoupling if model == "asymmetric" else SymmetricCoupling
        coupling = coupling_type(**{k: _number(k, v) for k, v in coupling_cfg.items()})
        count = sweep_cfg.pop("count")
        if type(count) is not int:
            raise ConfigError(f"count must be a JSON integer, got {count!r}")
        rng = SweepRange(
            start=_number("start", sweep_cfg.pop("start")),
            stop=_number("stop", sweep_cfg.pop("stop")),
            count=count,
            spacing=str(sweep_cfg.pop("spacing", "linear")),
        )
        var = str(sweep_cfg.pop("var"))
        if sweep_cfg:
            raise ConfigError(f"unknown sweep keys: {sorted(sweep_cfg)}")
        return SweepSpec(model=model, coupling=coupling, var=var, range=rng,
                         fixed={k: _number(k, v) for k, v in fixed.items()})
    except ConfigError:
        raise
    except (AtomPhaseError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(str(exc)) from exc


def _number(name: str, value) -> float:
    # JSON numbers only: a bool, a string or null is refused, not coerced
    if type(value) not in (int, float):
        raise ConfigError(f"{name} must be a JSON number, got {value!r}")
    return float(value)


def _cmd_sweep(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    # every row is computed (and validated) before the first byte is written
    rows = _sweep_rows(_spec_from_config(config))
    if args.format == "json":
        _write_json(sys.stdout.write, rows)
    else:
        _write_csv(sys.stdout.write, rows)
    return 0


def _cmd_figures(args) -> int:
    preset = figure_preset(args.name)
    os.makedirs(args.out, exist_ok=True)
    for series in preset.series:
        rows = _sweep_rows(series.spec)
        path = os.path.join(args.out, f"{preset.name}-{series.name}.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            _write_csv(fh.write, rows, series.notes)
        sys.stdout.write(path + "\n")
    return 0


def _cmd_geometry_cone(args) -> int:
    cone = ConeAperture(half_angle=args.alpha,
                        orientation=DipoleOrientation(args.orientation))
    payload = {"omega_n": cone_weighted_solid_angle(cone)}
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
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
    sys.stdout.write(json.dumps(payload, indent=2) + "\n")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except AtomPhaseError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
