"""Fit the exponential-integral ratio Q used by ``atomphase.geometry``.

With S(x) = e^x E1(x), the doughnut cross terms need S and
Q(x) = x + 1 - 1/S(x), which lies in (0, 1).  ``geometry._scaled_e1``
evaluates Q on [0.25, 64) as one polynomial per binade [2^(e-1), 2^e) in
t = 4m - 3, where x = m 2^e with m in [0.5, 1) is ``math.frexp(x)``, so
t runs over [-1, 1) and is formed without rounding.  Each polynomial is a
Chebyshev interpolant of Q at 50 digits, truncated where the dropped
coefficients add up to less than 2^-56 of the smallest Q on the binade,
then rewritten in powers of t and rounded to floats.  Q itself is fitted,
not S: forming Q from S cancels x + 1 against 1/S.  The approach follows
W. J. Cody and H. C. Thacher, "Rational Chebyshev approximations for the
exponential integral E1(x)", Math. Comp. 22 (1968) 641-649.

Run from the repository root (needs mpmath; the package never imports
this script):

    python tools/fit_e1.py            # rewrite both files
    python tools/fit_e1.py --check    # write nothing; exit 1 if either would change

It rewrites the generated block of ``src/atomphase/geometry.py`` and
writes ``tests/e1_reference.json``: x, S(x) and Q(x) rounded to floats,
on 401 log-spaced points over [1e-3, 1e3], at each piece boundary 0.25,
0.5, ..., 64 and at the floats on either side of it.  The script fails if a fitted
polynomial, evaluated in float arithmetic as ``geometry._horner`` does,
is off by more than 2^-52 relative anywhere on its check grid.  Its
output is a function of the mpmath version alone: running it twice
gives the same bytes, and ``--check`` verifies that the committed files
are that output (CI runs it with mpmath 1.3.0).
"""

import argparse
import json
import math
import os
import sys

import mpmath as mp

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GEOMETRY = os.path.join(ROOT, "src", "atomphase", "geometry.py")
REFERENCE = os.path.join(ROOT, "tests", "e1_reference.json")
BEGIN = "# BEGIN E1 FIT: generated by tools/fit_e1.py, do not edit\n"
END = "# END E1 FIT\n"

DIGITS = 50
BINADES = range(-1, 7)          # [0.25, 0.5) ... [32, 64)
NODES = 41                      # Chebyshev nodes per binade before truncation
TAIL = mp.mpf(2) ** -56         # dropped coefficients, relative to min Q
CHECK_POINTS = 2000             # per binade, for the float-evaluation check
FIT_ERROR = 2.0 ** -52          # largest relative error the check accepts


def scaled_e1(x):
    """(S, Q) at the current mpmath precision for a float or mpf x > 0."""
    x = mp.mpf(x)
    s = mp.exp(x) * mp.e1(x)
    return s, x + 1 - 1 / s


def chebyshev_coefficients(fn, n):
    """Coefficients c_j of the degree n - 1 interpolant sum c_j T_j(t) of
    fn on [-1, 1] at the n Chebyshev points of the first kind."""
    angles = [mp.pi * (k + mp.mpf(1) / 2) / n for k in range(n)]
    values = [fn(mp.cos(a)) for a in angles]
    coeffs = [2 * mp.fsum(v * mp.cos(j * a) for v, a in zip(values, angles)) / n
              for j in range(n)]
    coeffs[0] /= 2
    return coeffs


def monomial(cheb):
    """Power-series coefficients of sum c_j T_j(t)."""
    t_prev, t_cur = [mp.mpf(1)], [mp.mpf(0), mp.mpf(1)]
    out = [mp.mpf(0)] * len(cheb)
    for j, c in enumerate(cheb):
        if j == 0:
            basis = t_prev
        elif j == 1:
            basis = t_cur
        else:
            basis = [mp.mpf(0)] + [2 * v for v in t_cur]
            for i, v in enumerate(t_prev):
                basis[i] -= v
            t_prev, t_cur = t_cur, basis
        for i, v in enumerate(basis):
            out[i] += c * v
    return out


def horner(coeffs, t):
    """Float evaluation in the order of ``geometry._horner``."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * t + c
    return acc


def fit_binade(e):
    """Float coefficients of Q on [2^(e-1), 2^e) in t = 4m - 3, and the
    largest relative error of their float evaluation on the check grid."""
    scale = mp.ldexp(mp.mpf(1), e - 2)          # x = 2^(e-2) (t + 3)
    cheb = chebyshev_coefficients(lambda t: scaled_e1(scale * (t + 3))[1], NODES)
    q_min = scaled_e1(4 * scale)[1]              # Q falls with x
    n = len(cheb)
    while n > 1 and mp.fsum(abs(c) for c in cheb[n - 1:]) < TAIL * q_min:
        n -= 1
    coeffs = tuple(float(c) for c in monomial(cheb[:n]))
    worst = 0.0
    for i in range(CHECK_POINTS + 1):
        m = 0.5 + 0.5 * i / CHECK_POINTS if i < CHECK_POINTS else math.nextafter(1.0, 0.0)
        q = scaled_e1(math.ldexp(m, e))[1]
        worst = max(worst, float(abs(horner(coeffs, 4.0 * m - 3.0) - q) / q))
    if worst > FIT_ERROR:
        raise SystemExit(f"binade {e}: fit error {worst:.3g} exceeds {FIT_ERROR:.3g}")
    return coeffs, worst


def fit_block():
    lo, hi = math.ldexp(1.0, BINADES[0] - 1), math.ldexp(1.0, BINADES[-1])
    lines = [
        BEGIN,
        "# Q on [_E1_FIT_LO, _E1_FIT_HI): row e + 1 holds the coefficients in\n",
        "# t = 4m - 3 of the binade [2^(e-1), 2^e), where (m, e) = frexp(x).\n",
        f"_E1_FIT_LO = {lo!r}\n",
        f"_E1_FIT_HI = {hi!r}\n",
        "_E1_FIT = (\n",
    ]
    for e in BINADES:
        coeffs, worst = fit_binade(e)
        lines.append(f"    # [{math.ldexp(1.0, e - 1)!r}, {math.ldexp(1.0, e)!r}): "
                     f"degree {len(coeffs) - 1}, float evaluation within "
                     f"{worst:.1e} relative\n")
        lines.append("    (\n")
        for i in range(0, len(coeffs), 3):
            lines.append("        " + " ".join(f"{c!r}," for c in coeffs[i:i + 3]) + "\n")
        lines.append("    ),\n")
    lines += [")\n", END]
    return "".join(lines)


def reference_points():
    xs = {float(mp.power(10, mp.mpf(-3) + mp.mpf(6) * i / 400)) for i in range(401)}
    for e in range(BINADES[0] - 1, BINADES[-1] + 1):
        b = math.ldexp(1.0, e)
        xs.update((b, math.nextafter(b, 0.0), math.nextafter(b, math.inf)))
    return sorted(xs)


def reference_json():
    rows = []
    for x in reference_points():
        s, q = scaled_e1(x)
        rows.append(f"  [{x!r}, {float(s)!r}, {float(q)!r}]")
    return ("{\n"
            f' "about": "x, S = exp(x) E1(x) and Q = x + 1 - 1/S, each rounded to the '
            f'nearest float from {DIGITS}-digit mpmath values; made by tools/fit_e1.py",\n'
            ' "points": [\n' + ",\n".join(rows) + "\n ]\n}\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="write nothing; exit 1 if a generated file would change")
    args = parser.parse_args(argv)
    mp.mp.dps = DIGITS
    with open(GEOMETRY, encoding="utf-8") as fh:
        source = fh.read()
    head, found, rest = source.partition(BEGIN)
    _, found_end, tail = rest.partition(END)
    if not (found and found_end):
        raise SystemExit(f"{GEOMETRY}: no generated E1 block between the markers")
    outputs = {GEOMETRY: head + fit_block() + tail, REFERENCE: reference_json()}
    json.loads(outputs[REFERENCE])
    if args.check:
        stale = []
        for path, text in outputs.items():
            try:
                with open(path, encoding="utf-8") as fh:
                    current = fh.read()
            except FileNotFoundError:
                current = None
            if current != text:
                stale.append(os.path.relpath(path, ROOT))
        if stale:
            print(f"out of date with tools/fit_e1.py (mpmath {mp.__version__}): "
                  + ", ".join(stale), file=sys.stderr)
            return 1
        return 0
    for path, text in outputs.items():
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
