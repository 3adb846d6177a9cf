"""Child process of the benchmark that calls atomphase in process.

    python perfbench/worker.py geometry INPUT.json
    python perfbench/worker.py probe INPUT.json

``geometry`` runs the geometry-scan designs in rounds until the deadline in
the input and reports the computed values of the first round, per-design
timings, round walls and any run-to-run mismatch.  It times a reference task
next to every round and reports round walls over reference walls, one ratio
per cycle through the waist mirrors.  With ``"alternate": true`` it instead
alternates untraced and traced rounds so the caller can compute tracing
overhead.  ``probe`` times each layer's public functions on the inputs it is
given and returns the per-layer numbers and their spans.  Both print one
JSON object on stdout.  The inputs come from the benchmark's seed; this
file draws no random numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import statistics
import sys
import time
import tracemalloc
from dataclasses import replace

from scipy.integrate import quad

import atomphase
from atomphase import (
    FIGURE_PRESETS,
    AsymmetricCoupling,
    BeamProfile,
    ConeAperture,
    DegenerateResultError,
    DipoleOrientation,
    ParabolicMirror,
    SweepRange,
    SweepSpec,
    SymmetricCoupling,
    coherent_fraction,
    cone_weighted_solid_angle,
    figure_preset,
    kerr_linear_phase,
    kerr_phase,
    mirror_weighted_solid_angle,
    optimize_waist,
    overlap_eta,
    phase_asymmetric,
    phase_symmetric,
    recollimation_parameters,
    rows_to_csv,
    rows_to_json,
    run_sweep,
    saturation_at_detuning,
    scattered_power_ratio,
)
from atomphase import cli

from spans import Tracer, no_span

MB = 1024.0 * 1024.0
REFERENCE_TERMS = 40
REFERENCE_REPEAT = 18   # so that the reference task takes about as long as a round


# ----------------------------------------------------------------- geometry

def _custom(width: float) -> BeamProfile:
    return BeamProfile.custom(lambda x: math.exp(-(x / width) ** 2))


def build_profile(design: dict) -> BeamProfile:
    kind = design["profile"]
    if kind == "flattop":
        return BeamProfile.flat_top()
    if kind == "matched":
        return BeamProfile.dipole_matched()
    if kind == "doughnut":
        return BeamProfile.doughnut(design["w"])
    return _custom(design["w"])


def build_aperture(design: dict):
    if design["kind"] == "mirror":
        return ParabolicMirror(focal_length=design["f"], aperture_radius=design["R"],
                               hole_radius=design["h"])
    return ConeAperture(half_angle=design["alpha"],
                        orientation=DipoleOrientation(design["orientation"]))


def evaluate_design(aperture, profile, span) -> dict:
    """One design: omega, eta and, for a mirror, the recollimation triple."""
    if isinstance(aperture, ParabolicMirror):
        with span("geometry.mirror_weighted_solid_angle"):
            omega = mirror_weighted_solid_angle(aperture)
        with span("geometry.overlap_eta"):
            eta = overlap_eta(profile, aperture)
        with span("geometry.recollimation_parameters"):
            rc = recollimation_parameters(aperture, profile)
        return {"omega_n": omega, "omega_n_prime": rc.omega_n_prime, "eta": eta,
                "eta_prime": rc.eta_prime, "p": rc.p}
    with span("geometry.cone_weighted_solid_angle"):
        omega = cone_weighted_solid_angle(aperture)
    with span("geometry.overlap_eta"):
        eta = overlap_eta(profile, aperture)
    return {"omega_n": omega, "eta": eta}


def reference_task() -> float:
    """Quadratures of the benchmark's own integrands: the same kind of work
    as a geometry round, but no code of the checkout, so its wall follows
    only the speed of the host at that moment."""
    return sum(quad(lambda x, k=k: math.exp(-k * x * x) * math.cos(k * x), 0.0, 3.0)[0]
               for _ in range(REFERENCE_REPEAT) for k in range(1, REFERENCE_TERMS + 1))


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def geometry_scan(inp: dict) -> dict:
    designs = [(build_aperture(d), build_profile(d)) for d in inp["designs"]]
    waist_mirrors = [build_aperture(d) for d in inp["waist_mirrors"]]
    first, waist_first = [None] * len(designs), [None] * len(waist_mirrors)
    design_s, waist_s, errors = [], [], []
    mismatches = 0
    walls = {False: 0.0, True: 0.0}
    untraced_rounds = 0
    ratios, reference_s = [], 0.0
    cycle = [0.0, 0.0]   # round and reference walls since the last full waist cycle
    tracer = Tracer()
    deadline = time.perf_counter() + inp["seconds"]
    rounds = 0
    while True:
        traced = inp["alternate"] and rounds % 2 == 1
        span = tracer.span if traced else no_span
        # Untraced runs time the reference task next to each round, before
        # or after it in turn; round wall over reference wall cancels the
        # host's drift.
        ref_s = timed(reference_task) if rounds % 2 and not inp["alternate"] else 0.0
        t_round = time.perf_counter()
        with span("bench.round"):
            for i, (aperture, profile) in enumerate(designs):
                t0 = time.perf_counter()
                try:
                    with span("geometry.design"):
                        out = evaluate_design(aperture, profile, span)
                except Exception as exc:  # reported to the caller as a failed design
                    errors.append(f"design {i}: {type(exc).__name__}: {exc}")
                    continue
                design_s.append(time.perf_counter() - t0)
                if first[i] is None:
                    first[i] = out
                elif out != first[i]:
                    mismatches += 1
            k = rounds % len(waist_mirrors)
            t0 = time.perf_counter()
            try:
                with span("geometry.optimize_waist"):
                    best = optimize_waist(waist_mirrors[k])
            except Exception as exc:  # reported to the caller as a failed call
                errors.append(f"waist {k}: {type(exc).__name__}: {exc}")
            else:
                waist_s.append(time.perf_counter() - t0)
                out = {"waist": best.waist, "eta": best.eta}
                if waist_first[k] is None:
                    waist_first[k] = out
                elif out != waist_first[k]:
                    mismatches += 1
        round_s = time.perf_counter() - t_round
        walls[traced] += round_s
        untraced_rounds += not traced
        if not inp["alternate"]:
            ref_s = ref_s or timed(reference_task)
            reference_s += ref_s
            # One ratio per cycle through the waist mirrors, so that every
            # ratio covers the same mix of work.
            cycle = [cycle[0] + round_s, cycle[1] + ref_s]
            if k == len(waist_mirrors) - 1:
                ratios.append(cycle[0] / cycle[1])
                cycle = [0.0, 0.0]
        rounds += 1
        if time.perf_counter() >= deadline and (not inp["alternate"] or rounds % 2 == 0):
            break
    return {
        "designs": first, "waist": waist_first, "rounds": rounds,
        "design_count": len(design_s), "design_total_s": sum(design_s),
        "waist_count": len(waist_s), "waist_total_s": sum(waist_s),
        "mismatches": mismatches, "errors": errors,
        "untraced_s": walls[False], "untraced_rounds": untraced_rounds,
        "traced_s": walls[True], "reference_s": reference_s, "ratios": ratios,
        "spans": tracer.spans,
    }


# -------------------------------------------------------------------- probe

def build_spec(config: dict) -> SweepSpec:
    coupling_cls = AsymmetricCoupling if config["model"] == "asymmetric" else SymmetricCoupling
    sweep = config["sweep"]
    return SweepSpec(
        model=config["model"], coupling=coupling_cls(**config["coupling"]),
        var=sweep["var"],
        range=SweepRange(start=sweep["start"], stop=sweep["stop"], count=sweep["count"],
                         spacing=sweep.get("spacing", "linear")),
        fixed=dict(config["fixed"]))


def grid_points(spec: SweepSpec) -> list:
    """(coupling, delta, s0) of every grid point, as a sweep resolves them."""
    points = []
    for value in spec.range.grid():
        delta = value if spec.var == "delta" else spec.fixed["delta"]
        if spec.var == "s0":
            s0 = value
        elif spec.var == "s":
            s0 = value * (1.0 + 4.0 * delta * delta)
        else:
            s0 = spec.fixed.get("s0", 0.0)
        coupling = spec.coupling
        if spec.var in ("omega_n", "eta"):
            coupling = replace(coupling, **{spec.var: value})
        points.append((coupling, delta, s0))
    return points


def per_unit(tracer: Tracer, name: str, body, units: int, scale: float):
    with tracer.span(name):
        body()
    return tracer.durations(name)[-1] / units * scale


def _time_phase(fn, points):
    def body():
        for c, d, s0 in points:
            try:
                fn(c, d, s0)
            except DegenerateResultError:
                pass
    return body


def _row_terms(points):
    def body():
        for c, d, s0 in points:
            s = saturation_at_detuning(s0, d)
            scattered_power_ratio(c.omega_n, c.eta, d, s0)
            coherent_fraction(s)
    return body


def _kerr(points):
    terms = [(c, d, saturation_at_detuning(s0, d)) for c, d, s0 in points]

    def body():
        for c, d, s in terms:
            kerr_phase(kerr_linear_phase(c, d), s)
    return body


def _peak_mb(fn):
    """Peak traced allocation of fn() above what was live when it started."""
    tracemalloc.reset_peak()
    base = tracemalloc.get_traced_memory()[0]
    result = fn()
    return result, (tracemalloc.get_traced_memory()[1] - base) / MB


def _repeat_median(tracer, name, fn, repeat):
    for _ in range(repeat):
        with tracer.span(name):
            fn()
    return statistics.median(tracer.durations(name))


def probe(inp: dict) -> dict:
    tr = Tracer()
    m = {}
    errors = []
    with tr.span("bench.probe"):
        specs = {c["name"]: build_spec(c["config"]) for c in inp["cases"]}
        points = {name: grid_points(spec) for name, spec in specs.items()}
        everything = [p for pts in points.values() for p in pts]
        symmetric = points["symmetric-delta"] + points["symmetric-omega_n"]

        m["atom.row_terms_us"] = per_unit(tr, "atom.row_terms", _row_terms(everything),
                                          len(everything), 1e6)
        m["phase.symmetric_us"] = per_unit(tr, "phase.phase_symmetric",
                                           _time_phase(phase_symmetric, symmetric),
                                           len(symmetric), 1e6)
        m["phase.asymmetric_us"] = per_unit(
            tr, "phase.phase_asymmetric",
            _time_phase(phase_asymmetric, points["asymmetric-s0"]),
            len(points["asymmetric-s0"]), 1e6)
        m["phase.kerr_us"] = per_unit(tr, "phase.kerr", _kerr(points["kerr-s"]),
                                      len(points["kerr-s"]), 1e6)

        ranges = [spec.range for spec in specs.values()]
        m["sweep.grid_us"] = per_unit(tr, "sweep.grid", lambda: [r.grid() for r in ranges],
                                      sum(r.count for r in ranges), 1e6)

        rows = []
        for name, spec in specs.items():
            with tr.span("sweep.run_sweep"):
                case_rows = run_sweep(spec)
            m[f"sweep.run_sweep_us.{name}"] = (
                tr.durations("sweep.run_sweep")[-1] / len(case_rows) * 1e6)
            rows.extend(case_rows)
        m["sweep.csv_us"] = per_unit(tr, "sweep.rows_to_csv", lambda: rows_to_csv(rows),
                                     len(rows), 1e6)
        m["sweep.json_us"] = per_unit(tr, "sweep.rows_to_json", lambda: rows_to_json(rows),
                                      len(rows), 1e6)
        m["sweep.boundary_frac"] = sum(r.branch == "boundary" for r in rows) / len(rows)
        del rows

        with tr.span("bench.tracemalloc"):
            tracemalloc.start()
            try:
                spec = specs["symmetric-delta"]
                rows, m["sweep.run_sweep_peak_mb"] = _peak_mb(lambda: run_sweep(spec))
                m["sweep.csv_peak_mb"] = _peak_mb(lambda: rows_to_csv(rows))[1]
                m["sweep.json_peak_mb"] = _peak_mb(lambda: rows_to_json(rows))[1]
                del rows
            finally:
                tracemalloc.stop()

        def presets():
            for name in FIGURE_PRESETS:
                for series in figure_preset(name).series:
                    run_sweep(series.spec)
        m["sweep.figure_preset_ms"] = _repeat_median(tr, "sweep.figure_presets",
                                                     presets, 3) * 1e3

        geometry_probe(tr, inp, m)
        cli_probe(tr, inp, m, errors)

    return {"metrics": m, "errors": errors, "spans": tr.spans}


def geometry_probe(tr: Tracer, inp: dict, m: dict) -> None:
    mirrors = [build_aperture(d) for d in inp["mirrors"]]
    cones = [build_aperture(d) for d in inp["cones"]]

    def omegas():
        for mirror in mirrors:
            for _ in range(100):
                mirror_weighted_solid_angle(mirror)
    m["geometry.mirror_omega_us"] = per_unit(tr, "geometry.mirror_weighted_solid_angle",
                                             omegas, 100 * len(mirrors), 1e6)

    cone_profiles = [BeamProfile.flat_top(), BeamProfile.dipole_matched()] + [
        _custom(d["w"]) for d in inp["cones"]]

    def cone_overlaps():
        for cone in cones:
            for profile in cone_profiles:
                overlap_eta(profile, cone)
    m["geometry.cone_overlap_us"] = per_unit(tr, "geometry.overlap_eta.cone", cone_overlaps,
                                             len(cones) * len(cone_profiles), 1e6)

    for kind in ("flattop", "matched", "doughnut", "custom"):
        pairs = [(mirror, build_profile(dict(d, profile=kind)))
                 for mirror, d in zip(mirrors, inp["mirrors"])]
        m[f"geometry.overlap_eta_us.{kind}"] = per_unit(
            tr, f"geometry.overlap_eta.{kind}",
            lambda: [overlap_eta(p, mirror) for mirror, p in pairs], len(pairs), 1e6)
        m[f"geometry.recollimation_us.{kind}"] = per_unit(
            tr, f"geometry.recollimation_parameters.{kind}",
            lambda: [recollimation_parameters(mirror, p) for mirror, p in pairs],
            len(pairs), 1e6)

    waist = [build_aperture(d) for d in inp["waist_mirrors"]]
    m["geometry.optimize_waist_ms"] = per_unit(
        tr, "geometry.optimize_waist", lambda: [optimize_waist(w) for w in waist],
        len(waist), 1e3)


def cli_probe(tr: Tracer, inp: dict, m: dict, errors: list) -> None:
    for kind, argvs in inp["cli"].items():
        name = f"cli.main.{kind}"
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), tr.span(name):
                code = cli.main(argv)
            if code != 0:
                errors.append(f"cli.main({argv}) exited {code}")
        m[f"cli.main_ms.{kind}"] = statistics.median(tr.durations(name)) * 1e3


def main() -> int:
    mode, path = sys.argv[1], sys.argv[2]
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(atomphase.__file__).startswith(src + os.sep):
        sys.stderr.write(f"atomphase imported from {atomphase.__file__}, not {src}\n")
        return 3
    with open(path, encoding="utf-8") as fh:
        inp = json.load(fh)
    out = geometry_scan(inp) if mode == "geometry" else probe(inp)
    sys.stdout.write(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
