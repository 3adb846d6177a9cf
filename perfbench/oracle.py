"""Output checks that do not import atomphase.

Every quantity is recomputed from the formulas of PAPER.md and from plain
Simpson integrals, so a bug in the library cannot also hide in its check.
Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import cmath
import json
import math

COLUMNS = ("swept_value", "delta", "s0", "s", "phi_rad", "phi_deg", "branch",
           "p_sc_over_p", "coherent_fraction", "model")
BRANCHES = ("generic", "pi", "zero", "boundary")
PHI_TOL = 1e-9   # rad, compared modulo 2 pi
REL_TOL = 1e-12  # closed-form scalars recomputed with the same formula
QUAD_TOL = 1e-7  # library quadrature against the Simpson rule below
SIMPSON_INTERVALS = 2000


def close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def strict_json(text: str):
    """json.loads that rejects the non-standard NaN/Infinity literals."""
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")
    return json.loads(text, parse_constant=reject)


# --------------------------------------------------------------- phase rows

def expected_phase(model: str, coupling: dict, delta: float, s0: float):
    """(phi, branch) from PAPER.md; phi is None where the phase is undefined."""
    lorentz = 1.0 + 4.0 * delta * delta
    s = s0 / lorentz
    if model == "kerr":
        weight = 2.0 * coupling["omega_n"] * coupling["eta"] ** 2
        phi0 = -2.0 * weight * delta / (lorentz - weight)
        return phi0 * (1.0 - 1.5 * s), "generic"
    if model == "symmetric":
        cross = 2.0 * coupling["omega_n"] * coupling["eta"] ** 2
        direct = 1.0
    else:
        cross = (2.0 * math.sqrt(coupling["omega_n"] * coupling["omega_n_prime"])
                 * coupling["eta"] * coupling["eta_prime"])
        direct = math.sqrt(coupling["p"])
    amplitude = complex(direct * (1.0 + s) ** 1.5 * lorentz - cross,
                        -2.0 * cross * delta)
    if amplitude == 0:
        return None, "boundary"
    if amplitude.imag == 0.0:
        return cmath.phase(amplitude), "pi" if amplitude.real < 0 else "zero"
    return cmath.phase(amplitude), "generic"


def _number(value, name: str, problems: list):
    """A row field as float; '' (CSV) or None (JSON) become None."""
    if value is None or value == "":
        return None
    try:
        x = float(value)
    except (TypeError, ValueError):
        problems.append(f"{name}={value!r} is not a number")
        return None
    if not math.isfinite(x):
        problems.append(f"{name}={value!r} is not finite")
        return None
    return x


def check_row(row: dict, model: str, coupling: dict, swept_var=None) -> list:
    """Check one evaluated row against the oracle; swept_var names the
    coupling field the row's swept_value overrides, if any."""
    problems = []
    if tuple(row) != COLUMNS:
        return [f"columns {tuple(row)} != {COLUMNS}"]
    num = {k: _number(row[k], k, problems)
           for k in COLUMNS if k not in ("branch", "model")}
    if problems:
        return problems
    delta, s0, s = num["delta"], num["s0"], num["s"]
    if delta is None or s0 is None or s is None:
        return ["delta, s0 and s must be present"]
    if row["model"] != model:
        problems.append(f"model {row['model']!r} != {model!r}")
    coupling = dict(coupling)
    if swept_var in ("omega_n", "eta"):
        coupling[swept_var] = num["swept_value"]
    lorentz = 1.0 + 4.0 * delta * delta
    if not close(s, s0 / lorentz, REL_TOL):
        problems.append(f"s={s!r} != s0/(1+4 delta^2)")
    ratio = (4.0 * coupling["omega_n"] * coupling["eta"] ** 2
             / (lorentz * (1.0 + s) ** 2))
    if not close(num["p_sc_over_p"], ratio, REL_TOL):
        problems.append(f"p_sc_over_p={num['p_sc_over_p']!r} != {ratio!r}")
    if not close(num["coherent_fraction"], 1.0 / (1.0 + s), REL_TOL):
        problems.append(f"coherent_fraction={num['coherent_fraction']!r}")
    phi, branch = expected_phase(model, coupling, delta, s0)
    if row["branch"] != branch:
        problems.append(f"branch {row['branch']!r} != {branch!r} at delta={delta!r}")
    phi_rad, phi_deg = num["phi_rad"], num["phi_deg"]
    if row["branch"] == "boundary":
        if phi_rad is not None or phi_deg is not None:
            problems.append("boundary row carries a phase")
        return problems
    if phi_rad is None or phi_deg is None:
        return problems + ["phase fields empty on a non-boundary row"]
    if phi_deg != math.degrees(phi_rad):
        problems.append(f"phi_deg={phi_deg!r} != degrees(phi_rad)")
    if not -math.pi < phi_rad <= math.pi and model != "kerr":
        problems.append(f"phi_rad={phi_rad!r} outside (-pi, pi]")
    if phi is not None and abs(math.remainder(phi_rad - phi, 2.0 * math.pi)) > PHI_TOL:
        problems.append(f"phi_rad={phi_rad!r} != oracle {phi!r}")
    return problems


def parse_csv(text: str) -> tuple:
    """(comment lines, rows as dicts) of the CLI's CSV, or raise ValueError."""
    if not text.endswith("\n"):
        raise ValueError("CSV does not end with a newline")
    lines = text[:-1].split("\n")
    comments = []
    while lines and lines[0].startswith("# "):
        comments.append(lines.pop(0)[2:])
    if not lines or tuple(lines[0].split(",")) != COLUMNS:
        raise ValueError("CSV header missing or wrong")
    rows = []
    for line in lines[1:]:
        fields = line.split(",")
        if len(fields) != len(COLUMNS):
            raise ValueError(f"CSV row has {len(fields)} fields: {line[:80]!r}")
        rows.append(dict(zip(COLUMNS, fields)))
    return comments, rows


def parse_rows(text: str, fmt: str) -> list:
    if fmt == "csv":
        return parse_csv(text)[1]
    rows = strict_json(text)
    if isinstance(rows, dict):
        rows = [rows]
    if not isinstance(rows, list) or not all(isinstance(r, dict) for r in rows):
        raise ValueError("JSON output is not a row object or an array of them")
    return rows


def check_grid(values: list, start: float, stop: float, count: int,
               spacing: str) -> list:
    """The swept column is the inclusive ascending grid of the config."""
    if len(values) != count:
        return [f"{len(values)} rows, expected {count}"]
    lo, hi = sorted((start, stop))
    if values[0] != lo or values[-1] != hi:
        return [f"grid ends {values[0]!r}, {values[-1]!r} != {lo!r}, {hi!r}"]
    step = (hi - lo) / (count - 1)
    ratio = math.log(hi / lo) / (count - 1) if spacing == "log" else 0.0
    for i, x in enumerate(values):
        if i and not x > values[i - 1]:
            return [f"grid not ascending at row {i}"]
        want = lo * math.exp(i * ratio) if spacing == "log" else lo + i * step
        if abs(x - want) > 1e-9 * max(abs(lo), abs(hi)):
            return [f"grid value {x!r} at row {i}, expected ~{want!r}"]
    return []


def check_sweep(text: str, fmt: str, config: dict) -> tuple:
    """(branch counts, problems) of one `sweep` CLI output."""
    try:
        rows = parse_rows(text, fmt)
    except ValueError as exc:
        return {}, [str(exc)]
    sweep = config["sweep"]
    var = sweep["var"]
    coupling = config["coupling"]
    swept_var = var if var in ("omega_n", "eta") else None
    problems = []
    branches = dict.fromkeys(BRANCHES, 0)
    swept = []
    for i, row in enumerate(rows):
        row_problems = check_row(row, config["model"], coupling, swept_var)
        if row_problems:
            problems.extend(f"row {i}: {p}" for p in row_problems[:3])
            if len(problems) > 20:
                break
            continue
        branches[row["branch"]] += 1
        x = float(row["swept_value"])
        swept.append(x)
        fixed = config["fixed"]
        if var in ("delta", "s0") and x != float(row[var]):
            problems.append(f"row {i}: swept {var} {x!r} != column {row[var]!r}")
        if var == "s" and not close(x, float(row["s"]), REL_TOL):
            problems.append(f"row {i}: swept s {x!r} != column {row['s']!r}")
        if var != "delta" and float(row["delta"]) != fixed["delta"]:
            problems.append(f"row {i}: delta {row['delta']!r} != fixed")
        if var not in ("s0", "s") and "s0" in fixed and float(row["s0"]) != fixed["s0"]:
            problems.append(f"row {i}: s0 {row['s0']!r} != fixed")
    if not problems:
        problems = check_grid(swept, sweep["start"], sweep["stop"],
                              sweep["count"], sweep.get("spacing", "linear"))
    return branches, problems


# ----------------------------------------------------------------- geometry

def simpson(fn, lo: float, hi: float, n: int = SIMPSON_INTERVALS) -> float:
    if hi <= lo:
        return 0.0
    h = (hi - lo) / n
    total = fn(lo) + fn(hi)
    total += 4.0 * sum(fn(lo + (2 * k - 1) * h) for k in range(1, n // 2 + 1))
    total += 2.0 * sum(fn(lo + 2 * k * h) for k in range(1, n // 2))
    return total * h / 3.0


def pupil_dipole(d: float, f: float) -> float:
    """Axial-dipole amplitude in the pupil of a parabola of focal length f:
    sin(theta) / (1 + (d/2f)^2) with theta = pi - 2 atan(d/2f)."""
    u = d / (2.0 * f)
    return math.sin(2.0 * math.atan(u)) / (1.0 + u * u)


def mirror_omega(f: float, lo: float, hi: float) -> float:
    """Dipole-weighted solid-angle fraction of the pupil annulus [lo, hi]:
    A^2 d dd = f^2 sin^3(theta) dtheta, and omega = (3/4) int sin^3."""
    return 0.75 * simpson(lambda d: pupil_dipole(d, f) ** 2 * d, lo, hi) / (f * f)


def kept_interval(f: float, r: float, h: float) -> tuple:
    """Pupil radii whose ray hits the parabola twice and clears the hole."""
    return max(h, 4.0 * f * f / r), (r if h == 0.0 else min(r, 4.0 * f * f / h))


def cone_omega(alpha: float, orientation: str) -> float:
    sin3 = simpson(lambda t: math.sin(t) ** 3, 0.0, alpha)
    if orientation == "axial":
        return 0.75 * sin3
    return 0.75 * (1.0 - math.cos(alpha)) - 0.375 * sin3


def flattop_mirror_eta(f: float, lo: float, hi: float) -> float:
    cross = simpson(lambda d: pupil_dipole(d, f) * d, lo, hi)
    dip2 = simpson(lambda d: pupil_dipole(d, f) ** 2 * d, lo, hi)
    return cross / math.sqrt(0.5 * (hi * hi - lo * lo) * dip2)


def flattop_cone_eta(alpha: float) -> float:
    cross = simpson(lambda t: math.sin(t) ** 2, 0.0, alpha)
    dip2 = simpson(lambda t: math.sin(t) ** 3, 0.0, alpha)
    return cross / math.sqrt((1.0 - math.cos(alpha)) * dip2)


def _in_unit(value, name: str, problems: list, open_low=False) -> None:
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        problems.append(f"{name}={value!r} is not a finite number")
    elif not (0.0 < value if open_low else 0.0 <= value) or value > 1.0:
        problems.append(f"{name}={value!r} outside its range")


def check_mirror(design: dict, out: dict) -> list:
    """Check omega/eta/recollimation of one mirror design.

    design: f, R, h and profile (None, flattop, matched, doughnut, custom).
    out: omega_n, omega_n_prime and, with a profile, eta, eta_prime, p.
    """
    problems = []
    f, r, h = design["f"], design["R"], design["h"]
    profile = design.get("profile")
    keys = {"omega_n", "omega_n_prime"}
    if profile is not None:
        keys |= {"eta", "eta_prime", "p"}
    if set(out) != keys:
        return [f"keys {sorted(out)} != {sorted(keys)}"]
    for key in sorted(keys):
        _in_unit(out[key], key, problems, open_low=key in ("omega_n", "p"))
    if problems:
        return problems
    lo, hi = kept_interval(f, r, h)
    if not close(out["omega_n"], mirror_omega(f, h, r), QUAD_TOL):
        problems.append(f"omega_n={out['omega_n']!r} != {mirror_omega(f, h, r)!r}")
    if not close(out["omega_n_prime"], mirror_omega(f, lo, hi), QUAD_TOL):
        problems.append(f"omega_n_prime={out['omega_n_prime']!r}")
    if out["omega_n_prime"] > out["omega_n"] * (1.0 + 1e-12):
        problems.append("omega_n_prime exceeds omega_n")
    if profile == "matched" and abs(out["eta"] - 1.0) > 1e-9:
        problems.append(f"matched eta={out['eta']!r} != 1")
    if profile == "flattop":
        if not close(out["eta"], flattop_mirror_eta(f, h, r), QUAD_TOL):
            problems.append(f"flattop eta={out['eta']!r}")
        p = (hi * hi - lo * lo) / (r * r - h * h)
        if not close(out["p"], p, QUAD_TOL):
            problems.append(f"flattop p={out['p']!r} != {p!r}")
    return problems


def check_cone(design: dict, out: dict) -> list:
    """Check the omega (and, with a profile, eta) of one cone design."""
    problems = []
    alpha, profile = design["alpha"], design.get("profile")
    keys = {"omega_n"} | ({"eta"} if profile is not None else set())
    if set(out) != keys:
        return [f"keys {sorted(out)} != {sorted(keys)}"]
    for key in sorted(keys):
        _in_unit(out[key], key, problems, open_low=key == "omega_n")
    if problems:
        return problems
    omega = cone_omega(alpha, design["orientation"])
    if not close(out["omega_n"], omega, QUAD_TOL):
        problems.append(f"cone omega_n={out['omega_n']!r} != {omega!r}")
    if profile == "matched" and abs(out["eta"] - 1.0) > 1e-9:
        problems.append(f"matched eta={out['eta']!r} != 1")
    if profile == "flattop" and not close(out["eta"], flattop_cone_eta(alpha), QUAD_TOL):
        problems.append(f"flattop cone eta={out['eta']!r}")
    return problems
