"""Reference values for the pupil integrals of ``atomphase.geometry``.

Writes ``tests/reference.json``: 60-digit mpmath values, each rounded to
the nearest float, of

* the pupil dipole norm int A^2 u du, the flat-top cross term int A u du,
  the doughnut ring power int (b u)^2 exp(-2 (b u)^2) u du and the
  doughnut cross term int (b u) exp(-(b u)^2) A u du on pupil intervals
  [lo, hi] in u = d / 2f.  Seeded intervals have centres log-uniform from
  1e-4 to 1e4 and widths log-uniform from 1 ulp to 3 times the centre
  (cut at u = 0), on both sides of u = 1; more straddle it.  Each row
  carries its own b, with b times the centre log-uniform from 1e-2 to 16,
  and a few pinned rows have b down to 1e-150.  The ``series_boundary``
  rows start at u = 0.3, 1 and 2 and sit at 0.5, 1 and 2 times each edge
  of the doughnut cross term's series about the inner end, which runs
  where h <= c / 2 and a h <= 1 (h = t2 - t1, c = 1 + t1, t = u^2,
  a = b^2): at h / (c / 2) = k with b = 1/8, and at a h = k with b = 4.
  Both b are powers of two, so b = 2 (f / w) at f = (b / 2) w for any
  waist w;
* omega_n, eta, and the re-collimation triple (omega_n_prime, eta_prime,
  p) of every mirror in the golden geometry matrix of
  ``tests/test_golden.py``, plus a mirror whose kept interval is 1.03e-3
  of its outer end wide, where differencing the cross term's two E1 tails
  once put eta_prime 1.35e-12 off, for the flat-top, dipole-matched and
  doughnut profiles of that matrix;
* the waist of greatest doughnut overlap in [0.1 f, 20 f], and that
  overlap, on each golden mirror whose ``optimize_waist`` result the
  golden matrix pins (all but the three where the overlap is 1 to within
  an ulp over the whole bracket): the root of d eta / d b, b = 2f / w, by
  the secant method from the best of 64 log-spaced waists.

Every value is exact for the float inputs the library integrates: the
pupil ends 0.5 h / f and 0.5 R / f, the kept interval's ends (one of them
a rounded reciprocal) and b = 2 (f / w) are rounded as the library rounds
them, and only the integrals are exact.  Each integral is the difference
of its antiderivative at the two ends, taken from 0 below u = 1 (y = 1 for
the ring power, in y = 2 (b u)^2) and from infinity past it, so at least
30 of the 60 digits survive the cancellation on a 1-ulp interval.  The
doughnut cross term uses
int_t^inf s e^{-as} / (1+s)^2 ds = (1 + a) e^a E1(a (1 + t)) - e^{-at} / (1 + t).

Run from the repository root (needs mpmath; the package never imports
this script):

    python tools/reference.py            # rewrite tests/reference.json
    python tools/reference.py --check    # write nothing; exit 1 if it would change

Its output is a function of the mpmath version alone: running it twice
gives the same bytes, and ``--check`` verifies that the committed file is
that output (CI runs it with mpmath 1.3.0).
"""

import argparse
import json
import math
import os
import random
import sys

import mpmath as mp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
REFERENCE = os.path.join(ROOT, "tests", "reference.json")

DIGITS = 60
SEED = 2013
SEEDED = 1000           # intervals with log-uniform centres
STRADDLING = 200        # intervals with lo < 1 < hi
# the doughnut cross term's series runs where h <= SERIES_RATIO c and a h <= 1
# (geometry._INNER_SERIES_RATIO)
SERIES_RATIO = 0.5

# the golden geometry matrix's mirrors, name: (f, R, h), and one more
MIRRORS = {
    "hole-free": (1.0, 4.0, 0.0),
    "holed": (1.0, 4.0, 0.2),
    "deep": (1.0, 20.0, 0.4),
    "scaled": (1e-30, 7e-30, 3e-31),
    "hole-to-2f": (1.0, 4.0, math.nextafter(2.0, 0.0)),
    "rim-to-2f": (1.0, math.nextafter(2.0, 3.0), 0.0),
    "rim-2f-1e-9": (1.0, 2.0 + 2e-9, 0.5),
    "narrow-annulus": (1.0, 3.0, 3.0 * (1.0 - 1e-9)),
    "tiny": (1.0, 1e-6, 0.0),
    "tiny-holed": (1.0, 1e-6, 4e-7),
    "huge": (1.0, 1e8, 0.0),
    "huge-holed": (1.0, 1e8, 1.0),
}
# its kept interval is 1.03e-3 of its outer end wide, where the doughnut cross
# term's two E1 tails agree to three digits
EXTRA_MIRRORS = {"kept-past-the-cut": (1.0, 264771.2439068694, 1.9989720221612548)}
# doughnut waists in units of f, as in the golden matrix
WAISTS = (0.3, 1.3, 5.0)
# the golden mirrors that leave optimize_waist out of the matrix
# (test_golden.FLAT_OPTIMUM)
FLAT_OPTIMUM = ("narrow-annulus", "tiny", "tiny-holed")


def dipole_norm_head(u):
    t = u * u
    return t * t * (t + 3) / (3 * (1 + t) ** 3)


def flat_cross_head(u):
    return mp.atan(u) - u / (1 + u * u)


def flat_cross_partner_head(r):
    return mp.atan(r) + r / (1 + r * r)


def split(head, partner, lo, hi):
    """int over [lo, hi] of a density whose integral from 0 to u is
    head(u), and from u to infinity is partner(1 / u)."""
    lo, hi, one = mp.mpf(lo), mp.mpf(hi), mp.mpf(1)
    total = mp.mpf(0)
    if lo < 1:
        total += head(min(hi, one)) - head(lo)
    if hi > 1:
        total += partner(1 / max(lo, one)) - partner(1 / hi)
    return total


def dipole_norm(lo, hi):
    return split(dipole_norm_head, dipole_norm_head, lo, hi)


def flat_cross(lo, hi):
    return split(flat_cross_head, flat_cross_partner_head, lo, hi)


def flat_power(lo, hi):
    lo, hi = mp.mpf(lo), mp.mpf(hi)
    return (hi * hi - lo * lo) / 2


def ring_head(y):
    # int_0^y s e^{-s} ds = 1 - (1 + y) e^{-y}, from its series below y = 1,
    # where the closed form cancels to ~y^2
    if y >= 1:
        return 1 - (1 + y) * mp.exp(-y)
    total, term, k = mp.mpf(0), mp.mpf(1), 0      # term = (-y)^k / k!
    while abs(term) > mp.eps:
        total += term / (k + 2)
        k += 1
        term *= -y / k
    return y * y * total


def ring_power(b, lo, hi):
    # int_x1^x2 s^3 e^{-2 s^2} ds / b^2, with x = b u and y = 2 x^2
    b = mp.mpf(b)
    y1, y2 = (2 * (b * mp.mpf(u)) ** 2 for u in (lo, hi))
    if y1 < 1:
        integral = ring_head(y2) - ring_head(y1)
    else:
        integral = (1 + y1) * mp.exp(-y1) - (1 + y2) * mp.exp(-y2)
    return integral / (8 * b * b)


def doughnut_cross(b, lo, hi):
    # b int_t1^t2 s e^{-as} / (1+s)^2 ds with a = b^2 and t = u^2
    b = mp.mpf(b)
    a = b * b

    def tail(t):
        return (1 + a) * mp.exp(a) * mp.e1(a * (1 + t)) - mp.exp(-a * t) / (1 + t)
    t1, t2 = mp.mpf(lo) ** 2, mp.mpf(hi) ** 2
    return b * (tail(t1) - tail(t2))


def log_uniform(rng, lo, hi):
    # in mpmath, so the draws do not depend on the platform's pow and log10
    lo, hi = mp.log10(lo), mp.log10(hi)
    return float(mp.power(10, lo + (hi - lo) * rng.random()))


def seeded_intervals():
    """(lo, hi, b) rows: log-uniform centres, then intervals straddling 1."""
    rng = random.Random(SEED)
    rows = []
    for _ in range(SEEDED):
        centre = log_uniform(rng, 1e-4, 1e4)
        width = log_uniform(rng, math.ulp(centre), 3.0 * centre)
        lo = max(centre - 0.5 * width, 0.0)
        hi = max(centre + 0.5 * width, math.nextafter(lo, math.inf))
        rows.append((lo, hi, log_uniform(rng, 1e-2, 16.0) / centre))
    for _ in range(STRADDLING):
        lo = 1.0 - log_uniform(rng, 2.0 ** -53, 1.0)
        hi = 1.0 + log_uniform(rng, 2.0 ** -52, 3.0)
        rows.append((lo, hi, log_uniform(rng, 1e-2, 16.0)))
    return rows


def pinned_intervals():
    """(lo, hi, b) rows: the whole halves, rings a few ulp wide at 1, and b
    so small that b^2 times two small numbers would underflow."""
    rows = [(0.0, 1.0, 1.0), (0.0, 2.0, 1.0), (1.0, 2.0, 1.0), (0.0, 1e4, 0.1),
            (math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1.3)]
    for b in (1e-80, 1e-150):
        rows += [(1.0 - 5e-14, 1.0 + 5e-14, b), (0.5, 2.0, b), (0.0, 3.0, b)]
    return rows


def boundary_intervals():
    """(lo, hi, b, edge, k) rows at k = 0.5, 1 and 2 times each edge of the
    doughnut cross term's series: h / (SERIES_RATIO c) = k with a h below
    1/12, and a h = k with h / c below 1/8."""
    rows = []
    for u in (0.3, 1.0, 2.0):
        for k in (0.5, 1.0, 2.0):
            h = k * SERIES_RATIO * (1.0 + u * u)
            rows.append((u, math.sqrt(u * u + h), 0.125, "h/c", k))
            rows.append((u, math.sqrt(u * u + k / 16.0), 4.0, "a*h", k))
    return rows


def interval_row(lo, hi, b):
    values = (dipole_norm(lo, hi), flat_cross(lo, hi), ring_power(b, lo, hi),
              doughnut_cross(b, lo, hi))
    return [lo, hi, b] + [float(v) for v in values]


def kept_interval(u_h, u_r):
    # as geometry._kept_interval, in float
    lo = max(u_h, 1.0 / u_r)
    hi = u_r if u_h == 0.0 else min(u_r, 1.0 / u_h)
    return lo, hi


def mirror_rows(name, f, r, h):
    u_h, u_r = 0.5 * h / f, 0.5 * r / f
    lo, hi = kept_interval(u_h, u_r)
    dip_all, dip_kept = dipole_norm(u_h, u_r), dipole_norm(lo, hi)
    profiles = {
        "flattop": (flat_cross, flat_power),
        "matched": (dipole_norm, dipole_norm),
    }
    for w in WAISTS:
        b = 2.0 * (f / (w * f))
        profiles[f"doughnut-{w}"] = (
            lambda lo, hi, b=b: doughnut_cross(b, lo, hi),
            lambda lo, hi, b=b: ring_power(b, lo, hi))
    rows = []
    for profile, (cross, power) in profiles.items():
        eta = cross(u_h, u_r) / mp.sqrt(power(u_h, u_r) * dip_all)
        row = [name, profile, f, r, h, float(3 * dip_all), float(eta)]
        if lo < hi:
            kept = power(lo, hi)
            eta_prime = cross(lo, hi) / mp.sqrt(kept * dip_kept)
            row += [float(v) for v in (3 * dip_kept, eta_prime, kept / power(u_h, u_r))]
        else:
            row += [None] * 3     # no rays survive re-collimation
        rows.append(row)
    return rows


def waist_argmax_row(name, f, r, h):
    u_h, u_r = 0.5 * h / f, 0.5 * r / f
    dip = dipole_norm(u_h, u_r)

    def eta(b):
        return doughnut_cross(b, u_h, u_r) / mp.sqrt(ring_power(b, u_h, u_r) * dip)
    # b = 2f / w from 20 down to 0.1
    grid = [20 / mp.power(200, mp.mpf(i) / 63) for i in range(64)]
    b = mp.findroot(lambda b: mp.diff(eta, b), max(grid, key=eta))
    return [name, f, r, h, float(2 * mp.mpf(f) / b), float(eta(b))]


def dump(rows):
    return ",\n".join("  " + json.dumps(row) for row in rows)


def reference_json():
    intervals = [interval_row(*row) for row in seeded_intervals() + pinned_intervals()]
    boundary = [interval_row(lo, hi, b) + [edge, k]
                for lo, hi, b, edge, k in boundary_intervals()]
    mirrors = [row for name, design in {**MIRRORS, **EXTRA_MIRRORS}.items()
               for row in mirror_rows(name, *design)]
    argmax = [waist_argmax_row(name, *design) for name, design in MIRRORS.items()
              if name not in FLAT_OPTIMUM]
    return ("{\n"
            f' "about": "{DIGITS}-digit mpmath values rounded to floats; made by '
            'tools/reference.py",\n'
            ' "intervals_columns": ["lo", "hi", "b", "dipole_norm", "flat_cross", '
            '"ring_power", "doughnut_cross"],\n'
            ' "intervals": [\n' + dump(intervals) + "\n ],\n"
            ' "series_boundary_columns": ["lo", "hi", "b", "dipole_norm", "flat_cross", '
            '"ring_power", "doughnut_cross", "edge", "ratio"],\n'
            ' "series_boundary": [\n' + dump(boundary) + "\n ],\n"
            ' "mirrors_columns": ["name", "profile", "f", "R", "h", "omega_n", "eta", '
            '"omega_n_prime", "eta_prime", "p"],\n'
            ' "mirrors": [\n' + dump(mirrors) + "\n ],\n"
            ' "waist_argmax_columns": ["name", "f", "R", "h", "waist", "eta"],\n'
            ' "waist_argmax": [\n' + dump(argmax) + "\n ]\n}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 if tests/reference.json would change")
    args = parser.parse_args(argv)
    mp.mp.dps = DIGITS
    text = reference_json()
    json.loads(text)
    if args.check:
        try:
            with open(REFERENCE, encoding="utf-8") as fh:
                current = fh.read()
        except FileNotFoundError:
            current = None
        if current != text:
            print(f"out of date with tools/reference.py (mpmath {mp.__version__}): "
                  + os.path.relpath(REFERENCE, ROOT), file=sys.stderr)
            return 1
        return 0
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
