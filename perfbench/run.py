"""atomphase benchmark: three seeded workloads, checked outputs, per-layer trace.

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The checkout's own ``src`` is measured:
every child runs ``sys.executable`` with ``PYTHONPATH=<checkout>/src`` and
the run stops if ``atomphase`` resolves anywhere else.  One benchmark process
runs one child at a time in a closed loop.  ``--trace 0`` prints the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics.
The last stdout line is the result object; the line before it is the run
record (seed, sample counts, the workload's named metrics and the sha256 of
every output).  Records and spans are also written to ``.perfbench-out/``.
See perfbench/README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import oracle
from spans import Tracer, no_span

ROOT = os.getcwd()
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench-out")
TMP = os.path.join(OUT, "tmp")
PY = sys.executable
ENV = dict(os.environ, PYTHONPATH=SRC)

BULK_POINTS = 25_001    # rows per sweep-bulk call; odd, so omega_n = 0.5 is on the grid
BULK_ROUND = 8          # sweep-bulk calls per round: four cases, each as CSV and JSON
PROBE_POINTS = 20_001   # rows per case in the per-layer probe
SETUP_EVERY_S = 5.0     # one set-up sample per this much measuring time
GEOMETRY_SEGMENT_S = 5.0
IMPORT_SAMPLES = 3
CALL_TIMEOUT_S = 60.0
RUN_BUDGET_S = 150.0    # no new operation starts after this; runs must end by 180 s
MODELS = ("symmetric", "asymmetric", "kerr")
PROFILES = ("flattop", "matched", "doughnut", "custom")
LAYERS = ("import", "atom", "phase", "sweep", "geometry", "cli", "bench")


# ------------------------------------------------------------------ children

class Child:
    """Outcome of one child process: wall time, its own peak RSS, output."""

    def __init__(self, argv, timeout=CALL_TIMEOUT_S):
        stdout_path = os.path.join(TMP, "stdout")
        stderr_path = os.path.join(TMP, "stderr")
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=ENV, cwd=ROOT)
        lock = threading.Lock()
        state = {"exited": False, "killed": False}

        def on_timeout():
            with lock:
                if not state["exited"]:
                    state["killed"] = True
                    os.kill(proc.pid, signal.SIGKILL)

        timer = threading.Timer(timeout, on_timeout)
        timer.start()
        try:
            # WNOWAIT leaves the child a zombie, so its pid cannot be reused
            # before the timer is disarmed.
            os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        except BaseException:
            with lock:
                state["exited"] = True
            timer.cancel()
            os.kill(proc.pid, signal.SIGKILL)
            os.wait4(proc.pid, 0)
            proc.returncode = -signal.SIGKILL
            raise
        self.wall_s = time.perf_counter() - start
        with lock:
            state["exited"] = True
        timer.cancel()
        # The child's own rusage: RUSAGE_CHILDREN would be a running maximum
        # over every child waited for so far.
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.timed_out = state["killed"]
        self.rss_mb = usage.ru_maxrss / 1024.0
        with open(stdout_path, "rb") as fh:
            self.stdout = fh.read()
        with open(stderr_path, "rb") as fh:
            self.stderr = fh.read().decode("utf-8", "replace")

    def problems(self) -> list:
        if self.timed_out:
            return ["timed out"]
        out = []
        if self.code != 0:
            out.append(f"exit code {self.code}: {self.stderr.strip()[-300:]}")
        if "Traceback" in self.stderr:
            out.append("traceback on stderr")
        return out


def cli_argv(args) -> list:
    return [PY, "-m", "atomphase"] + list(args)


class Run:
    """Counts, samples and the record of one benchmark run."""

    def __init__(self, workload, seed, seconds, trace):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.started = time.perf_counter()
        self.attempted = self.failed = 0
        self.problems = []
        self.outputs = []
        self.samples = {}
        self.tracer = Tracer()
        self.last_setup = None
        self.measure_start = None

    def over_budget(self) -> bool:
        return time.perf_counter() - self.started > RUN_BUDGET_S

    def start_measuring(self) -> None:
        self.measure_start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.measure_start

    def measuring(self) -> bool:
        """True until --seconds have passed since start_measuring.  The
        workload, its reference tasks and its set-up samples all count."""
        return self.elapsed() < self.seconds and not self.over_budget()

    def op(self, name: str, problems: list) -> bool:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 30:
                self.problems.append(f"{name}: " + "; ".join(problems[:3]))
        return not problems

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def output(self, name: str, data: bytes) -> None:
        self.outputs.append({"op": name, "sha256": hashlib.sha256(data).hexdigest()})


def verify_checkout() -> None:
    """Warm-up: import once (filling __pycache__ and the file cache) and make
    sure the package under test is this checkout's."""
    child = import_child()
    if child.problems() or not import_path_ok(child):
        sys.stderr.write(f"atomphase is not imported from {SRC}: "
                         f"{child.stdout!r} {child.stderr[-300:]}\n")
        sys.exit(2)


def import_child() -> Child:
    return Child([PY, "-c", "import atomphase, sys; sys.stdout.write(atomphase.__file__)"])


def import_path_ok(child: Child) -> bool:
    path = os.path.realpath(child.stdout.decode("utf-8", "replace"))
    return path.startswith(os.path.realpath(SRC) + os.sep)


def sample_setup(run: Run) -> None:
    """One set-up sample: wall of a fresh interpreter running `import atomphase`."""
    child = import_child()
    if run.op("setup", child.problems() or
              ([] if import_path_ok(child) else ["atomphase outside checkout"])):
        run.sample("setup_s", child.wall_s)
    run.last_setup = time.perf_counter()


def setup_tick(run: Run) -> None:
    """Take a set-up sample every SETUP_EVERY_S between operations, so that
    the median of set-up covers the whole run and not only its first seconds.
    Untraced runs only."""
    if not run.trace and time.perf_counter() - run.last_setup >= SETUP_EVERY_S:
        sample_setup(run)


# Imports of the third-party modules atomphase loads, in a fresh interpreter.
REFERENCE = "import numpy, scipy.constants, scipy.integrate"


def reference_wall() -> float:
    """Wall of the reference task.  It runs no code of the checkout, so its
    wall follows only the speed of the host at that moment."""
    child = Child([PY, "-c", REFERENCE])
    if child.problems():
        raise SystemExit("reference task failed: " + "; ".join(child.problems()))
    return child.wall_s


# ----------------------------------------------------------------- cli-mix

def _coupling(rng, model) -> dict:
    c = {"omega_n": rng.uniform(0.05, 1.0), "eta": rng.uniform(0.2, 1.0)}
    if model == "asymmetric":
        c.update(omega_n_prime=rng.uniform(0.05, 1.0), eta_prime=rng.uniform(0.2, 1.0),
                 p=rng.uniform(0.2, 1.0))
    return c


# Deep parabolic mirrors: log10 f, R/f, h/f and the beam width w/f.  R > 2f
# and h < 2f keep the recollimation interval non-empty.
LOG_F, R_OVER_F, H_OVER_F, W_OVER_F = (-3.0, 1.0), (2.1, 6.0), (0.05, 1.8), (0.5, 4.0)
CONE_ALPHA, CONE_WIDTH = (0.3, math.pi), (0.3, 2.0)


def mirror(log_f: float, r: float, h: float, w: float) -> dict:
    f = 10.0 ** log_f
    return {"kind": "mirror", "f": f, "R": f * r, "h": f * h, "w": f * w}


def mirror_design(rng) -> dict:
    hole = 0.0 if rng.random() < 0.3 else rng.uniform(*H_OVER_F)
    return mirror(rng.uniform(*LOG_F), rng.uniform(*R_OVER_F), hole, rng.uniform(*W_OVER_F))


def cone_design(rng, orientation="axial") -> dict:
    return {"kind": "cone", "alpha": rng.uniform(*CONE_ALPHA),
            "orientation": orientation, "w": rng.uniform(*CONE_WIDTH)}


class Op:
    """One CLI call and the check of its output."""

    def __init__(self, name, args, check):
        self.name, self.args, self.check = name, args, check


def eval_op(rng, model, fmt) -> Op:
    c = _coupling(rng, model)
    if model == "kerr":
        delta = rng.choice((-1.0, 1.0)) * rng.uniform(0.6, 10.0)
    else:
        delta = rng.uniform(-5.0, 5.0)
    s0 = rng.uniform(0.0, 3.0)
    args = ["eval", "--model", model, f"--omega-n={c['omega_n']!r}", f"--eta={c['eta']!r}"]
    if model == "asymmetric":
        args += [f"--omega-n-prime={c['omega_n_prime']!r}",
                 f"--eta-prime={c['eta_prime']!r}", f"--p={c['p']!r}"]
    args += [f"--delta={delta!r}", f"--s0={s0!r}", "--format", fmt]

    def check(child):
        rows = oracle.parse_rows(child.stdout.decode(), fmt)
        if len(rows) != 1:
            return [f"{len(rows)} rows"]
        problems = oracle.check_row(rows[0], model, c)
        if rows[0]["swept_value"] not in (None, ""):
            problems.append("eval row has a swept value")
        return problems
    return Op(f"eval-{model}-{fmt}", args, check)


def cone_op(rng) -> Op:
    design = cone_design(rng, rng.choice(("axial", "transverse")))
    design["profile"] = None
    args = ["geometry", "cone", f"--alpha={design['alpha']!r}",
            "--orientation", design["orientation"]]
    return Op("geometry-cone", args,
              lambda child: oracle.check_cone(design, oracle.strict_json(child.stdout.decode())))


def mirror_op(rng, profile) -> Op:
    design = mirror_design(rng)
    design["profile"] = profile
    args = ["geometry", "mirror", f"--f={design['f']!r}", f"--R={design['R']!r}",
            f"--hole={design['h']!r}"]
    if profile is not None:
        args.append("--profile=" + (f"doughnut:{design['w']!r}" if profile == "doughnut"
                                    else profile))
    return Op(f"geometry-mirror-{profile or 'none'}", args,
              lambda child: oracle.check_mirror(design, oracle.strict_json(child.stdout.decode())))


def figure_op(name: str, run: Run) -> Op:
    out_dir = os.path.join(TMP, "figures")

    def check(child):
        problems = []
        paths = child.stdout.decode().splitlines()
        if not paths:
            return ["no files written"]
        for path in paths:
            base = os.path.basename(path)
            if os.path.dirname(os.path.realpath(path)) != os.path.realpath(out_dir) \
                    or not base.startswith(name + "-") or not base.endswith(".csv"):
                problems.append(f"unexpected output path {path!r}")
                continue
            with open(path, "rb") as fh:
                data = fh.read()
            run.output(f"figures-{base}", data)
            problems += [f"{base}: {p}" for p in check_figure_csv(data.decode(), base[:-4])]
        return problems
    return Op(f"figures-{name}", ["figures", "--name", name, "--out", out_dir], check)


def check_figure_csv(text: str, series: str) -> list:
    """Rows of a figure series against the oracle, with the model, coupling
    and row count taken from the file's own '#' notes."""
    comments, rows = oracle.parse_csv(text)
    if len(comments) < 3 or comments[0] != f"preset {series}":
        return [f"notes {comments[:1]!r} do not name preset {series}"]
    tokens = comments[1].split(" fixed ")[0].split()   # model=M omega_n=.. eta=.. [fixed ..]
    model = tokens[0].split("=", 1)[1]
    coupling = {key: float(value) for key, value in (t.split("=", 1) for t in tokens[1:])}
    words = comments[2].replace(",", "").split()   # sweep VAR from A to B N points SPACING
    var, count = words[1], int(words[6])
    if len(rows) != count:
        return [f"{len(rows)} rows, notes say {count}"]
    swept = var if var in ("omega_n", "eta") else None
    problems = []
    for i, row in enumerate(rows):
        problems += [f"row {i}: {p}" for p in oracle.check_row(row, model, coupling, swept)]
        if len(problems) > 10:
            break
    return problems


CLI_KINDS = ([("eval", m, f) for m in MODELS for f in ("json", "csv")]
             + [("cone",)] + [("mirror", p) for p in (None, "flattop", "matched", "doughnut")]
             + [("figures", f"fig{k}") for k in (2, 3, 4, 5)])


def cli_mix_ops(rng, run):
    """Endless seeded call sequence: each round is every kind once, shuffled."""
    while True:
        kinds = list(CLI_KINDS)
        rng.shuffle(kinds)
        for kind in kinds:
            if kind[0] == "eval":
                yield eval_op(rng, kind[1], kind[2])
            elif kind[0] == "cone":
                yield cone_op(rng)
            elif kind[0] == "mirror":
                yield mirror_op(rng, kind[1])
            else:
                yield figure_op(kind[1], run)


def execute(run: Run, op: Op, span=no_span) -> Child:
    """Run one CLI call, check it and count it as one operation."""
    if op.name.startswith("figures"):
        shutil.rmtree(os.path.join(TMP, "figures"), ignore_errors=True)
    with span(f"cli.{op.name}"):
        child = Child(cli_argv(op.args))
    with span("bench.check"):
        problems = child.problems()
        if not problems:
            try:
                problems = op.check(child)
            except (ValueError, KeyError, TypeError, IndexError, OSError) as exc:
                problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
    if not op.name.startswith("figures"):
        run.output(op.name, child.stdout)
    run.op(op.name, problems)
    run.sample("call_s", [op.name, child.wall_s, child.rss_mb])
    return child


def cli_mix(run: Run, rng) -> tuple:
    ops = cli_mix_ops(rng, run)
    walls, refs, rss = [], [], []
    while run.measuring():
        # A reference import runs right before or right after each call, in
        # turn, and each call's wall is taken as a multiple of its own.
        if len(walls) % 2:
            ref = reference_wall()
            child = execute(run, next(ops))
        else:
            child = execute(run, next(ops))
            ref = reference_wall()
        walls.append(child.wall_s)
        refs.append(ref)
        rss.append(child.rss_mb)
        setup_tick(run)
    run.samples["reference_s"] = refs
    p50 = statistics.median(walls)
    named = {"cli_latency_p50_s": (p50, "s"), "cli_calls": (len(walls), "count"),
             "cli_throughput_per_s": (len(walls) / sum(walls), "1/s"),
             "cli_peak_rss_mb": (max(rss), "MB"),
             "reference_p50_s": (statistics.median(refs), "s")}
    return {"latency_per_ref": statistics.median(w / r for w, r in zip(walls, refs)),
            "peak_rss_mb": max(rss)}, named


# -------------------------------------------------------------- sweep-bulk

def bulk_cases(rng, count: int) -> list:
    """The four sweep-bulk configs.  The omega_n case sits on resonance with
    eta = 1 and s0 = 0, so its rows cover the zero, boundary and pi branches."""
    sym = _coupling(rng, "symmetric")
    asym = _coupling(rng, "asymmetric")
    kerr = _coupling(rng, "kerr")
    return [
        ("symmetric-delta", {
            "model": "symmetric", "coupling": sym, "fixed": {"s0": rng.uniform(0.0, 5.0)},
            "sweep": {"var": "delta", "start": -rng.uniform(2.0, 20.0),
                      "stop": rng.uniform(2.0, 20.0), "count": count, "spacing": "linear"}}),
        ("asymmetric-s0", {
            "model": "asymmetric", "coupling": asym, "fixed": {"delta": rng.uniform(-3.0, 3.0)},
            "sweep": {"var": "s0", "start": 10.0 ** rng.uniform(-4.0, -2.0),
                      "stop": 10.0 ** rng.uniform(1.0, 3.0), "count": count,
                      "spacing": "log"}}),
        ("kerr-s", {
            "model": "kerr", "coupling": kerr,
            "fixed": {"delta": rng.choice((-1.0, 1.0)) * rng.uniform(1.0, 20.0)},
            "sweep": {"var": "s", "start": 0.0, "stop": rng.uniform(0.2, 1.0),
                      "count": count, "spacing": "linear"}}),
        ("symmetric-omega_n", {
            "model": "symmetric", "coupling": {"omega_n": 0.5, "eta": 1.0},
            "fixed": {"delta": 0.0, "s0": 0.0},
            "sweep": {"var": "omega_n", "start": 0.0, "stop": 1.0, "count": count,
                      "spacing": "linear"}}),
    ]


def write_config(name: str, config: dict) -> str:
    path = os.path.join(TMP, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    return path


def sweep_op(name: str, config: dict, fmt: str, run: Run) -> Op:
    path = write_config(f"{name}-{config['sweep']['count']}", config)

    def check(child):
        branches, problems = oracle.check_sweep(child.stdout.decode(), fmt, config)
        for branch, n in branches.items():
            run.samples.setdefault("branches", {}).setdefault(f"{name}.{branch}", n)
        return problems
    return Op(f"sweep-{name}-{fmt}", ["sweep", "--config", path, "--format", fmt], check)


SMALL_EVAL = ["eval", "--model", "symmetric", "--omega-n", "0.5", "--eta", "0.9",
              "--delta=-0.25", "--s0", "0.5"]


def small_eval(run: Run, name: str, check=lambda rss_mb: []) -> float:
    """One small eval call, counted as an operation; returns its peak RSS."""
    child = Child(cli_argv(SMALL_EVAL))
    run.sample("small_eval_rss_mb", [name, child.rss_mb])
    run.op(name, child.problems() + check(child.rss_mb))
    return child.rss_mb


def rss_self_check(run: Run, before_mb: float, sweep_mb: float) -> None:
    """An eval right after a big sweep must read what an eval read before
    any sweep: its own peak, not a running maximum over earlier children.
    The check does not depend on how large the sweep's peak is."""
    def check(after_mb):
        if after_mb > 1.2 * before_mb or after_mb > 150.0:
            return [f"eval read {before_mb:.0f} MB before any sweep and "
                    f"{after_mb:.0f} MB after a {sweep_mb:.0f} MB sweep"]
        return []
    small_eval(run, "rss-self-check", check)


def sweep_bulk_rounds(run: Run, rng):
    cases = bulk_cases(rng, BULK_POINTS)
    while True:
        ops = [sweep_op(name, config, fmt, run)
               for name, config in cases for fmt in ("csv", "json")]
        rng.shuffle(ops)
        yield ops


def sweep_bulk(run: Run, rng) -> tuple:
    ops = (op for batch in sweep_bulk_rounds(run, rng) for op in batch)
    calls = {}   # op name -> [(wall, rss)]
    refs = []
    checked = False
    before_mb = small_eval(run, "eval-before-sweep")
    n = 0
    # At least one whole round, so that every case and format is measured.
    # A reference import runs before every second call: often enough to
    # follow the host's drift, while most of the run goes to sweeps.
    while run.measuring() or n < BULK_ROUND:
        op = next(ops)
        if n % 2 == 0:
            refs.append(reference_wall())
        child = execute(run, op)
        n += 1
        calls.setdefault(op.name, []).append((child.wall_s, child.rss_mb))
        if op.args[-1] == "json" and not checked:
            rss_self_check(run, before_mb, child.rss_mb)
            checked = True
        setup_tick(run)
    run.samples["reference_s"] = refs
    named = {}
    for fmt in ("csv", "json"):
        done = [c for name, cs in calls.items() if name.endswith(fmt) for c in cs]
        named[f"sweep_{fmt}_rows_per_s"] = (BULK_POINTS * len(done) /
                                            sum(w for w, _ in done), "1/s")
        named[f"sweep_{fmt}_peak_rss_mb"] = (max(r for _, r in done), "MB")
    named["sweep_calls"] = (n, "count")
    # Cases differ 2-4x in cost and a run may end inside a round, so each
    # case and format gets its own mean wall and all eight weigh the same.
    mean_wall = statistics.fmean(statistics.fmean(w for w, _ in cs) for cs in calls.values())
    return {"latency_per_ref": mean_wall / statistics.fmean(refs),
            "peak_rss_mb": max(r for cs in calls.values() for _, r in cs)}, named


# ------------------------------------------------------------ geometry-scan

def stratified(rng, n: int, bounds: tuple) -> list:
    """n draws, one from each of n equal slices of the range, shuffled."""
    lo, hi = bounds
    values = [lo + (k + rng.random()) * (hi - lo) / n for k in range(n)]
    rng.shuffle(values)
    return values


def geometry_inputs(rng) -> dict:
    """24 mirrors with four profiles each and 8 axial cones with three, in
    seeded order; optimize_waist runs on the first three mirrors in turn.

    Quadrature cost depends on the design: a hole-free mirror costs about
    twice a holed one and four times in optimize_waist.  Every third mirror
    is hole-free (so are the first waist mirror and a third of the probe's)
    and every parameter is drawn stratified, so one seed's mix costs about
    what another's does."""
    n = 24
    holes = iter(stratified(rng, n - n // 3, H_OVER_F))
    mirrors = [mirror(log_f, r, 0.0 if i % 3 == 0 else next(holes), w)
               for i, (log_f, r, w) in enumerate(zip(
                   stratified(rng, n, LOG_F), stratified(rng, n, R_OVER_F),
                   stratified(rng, n, W_OVER_F)))]
    cones = [{"kind": "cone", "alpha": alpha, "orientation": "axial", "w": w}
             for alpha, w in zip(stratified(rng, 8, CONE_ALPHA), stratified(rng, 8, CONE_WIDTH))]
    designs = [dict(m, profile=p) for m in mirrors for p in PROFILES]
    designs += [dict(c, profile=p) for c in cones for p in ("flattop", "matched", "custom")]
    rng.shuffle(designs)
    return {"designs": designs, "mirrors": mirrors, "cones": cones,
            "waist_mirrors": mirrors[:3]}


def run_worker(run: Run, mode: str, inp: dict, timeout: float) -> tuple:
    path = os.path.join(TMP, f"{mode}-input.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(inp, fh)
    child = Child([PY, os.path.join(BENCH_DIR, "worker.py"), mode, path], timeout=timeout)
    if child.problems():
        run.op(f"worker-{mode}", child.problems())
        return child, None
    return child, json.loads(child.stdout)


def check_geometry(run: Run, inp: dict, out: dict) -> None:
    """Charge each design or waist call that failed a check once per round."""
    for design, values in zip(inp["designs"], out["designs"]):
        if values is None:
            continue   # the worker reported its error
        check = oracle.check_mirror if design["kind"] == "mirror" else oracle.check_cone
        problems = check(design, values)
        if problems:
            run.failed += out["rounds"]
            run.problems.append(f"design {design}: {problems[:3]}")
    doughnut = {(d["f"], d["R"], d["h"]): v for d, v in zip(inp["designs"], out["designs"])
                if d["profile"] == "doughnut" and v is not None}
    for mirror, best in zip(inp["waist_mirrors"], out["waist"]):
        if best is None:
            continue
        f = mirror["f"]
        reference = doughnut[(f, mirror["R"], mirror["h"])]["eta"]
        if not (0.1 * f <= best["waist"] <= 20.0 * f and 0.0 < best["eta"] <= 1.0
                and best["eta"] >= reference - 1e-9):
            run.failed += math.ceil(out["rounds"] / len(inp["waist_mirrors"]))
            run.problems.append(f"optimize_waist {mirror}: {best} (doughnut eta {reference})")
    run.attempted += out["design_count"] + out["waist_count"] + len(out["errors"])
    run.failed += len(out["errors"]) + out["mismatches"]
    run.problems += out["errors"][:10]
    if out["mismatches"]:
        run.problems.append(f"{out['mismatches']} results changed between rounds")
    run.output("geometry-values", json.dumps([out["designs"], out["waist"]]).encode())


def merge_segment(total: dict, out: dict) -> None:
    """Add one worker segment to the totals of the first.  Results must not
    change between segments any more than between rounds."""
    for key in ("designs", "waist"):
        for i, (a, b) in enumerate(zip(total[key], out[key])):
            if a is None:
                total[key][i] = b
            elif b is not None and a != b:
                total["mismatches"] += 1
    for key in ("rounds", "design_count", "design_total_s", "waist_count",
                "waist_total_s", "mismatches", "untraced_s", "untraced_rounds", "traced_s",
                "reference_s", "errors", "ratios"):
        total[key] += out[key]


def geometry_scan(run: Run, rng, alternate=False) -> tuple:
    """The worker runs in segments of at most GEOMETRY_SEGMENT_S, each a
    fresh child, with set-up samples taken between them."""
    inp = geometry_inputs(rng)
    inp["alternate"] = alternate
    total, rss = None, []
    while total is None or run.measuring():
        # About a second of each segment goes to the child's own import.
        inp["seconds"] = min(GEOMETRY_SEGMENT_S, max(1.0, run.seconds - run.elapsed() - 1.0))
        child, out = run_worker(run, "geometry", inp, timeout=run.seconds + CALL_TIMEOUT_S)
        if out is None:
            raise SystemExit("geometry worker failed: " + "; ".join(run.problems))
        rss.append(child.rss_mb)
        run.tracer.adopt(out.pop("spans"), None)
        if total is None:
            total = out
        else:
            merge_segment(total, out)
        setup_tick(run)
    check_geometry(run, inp, total)
    run.sample("rounds", total["rounds"])
    return total, max(rss)


def geometry_metrics(run: Run, rng) -> tuple:
    total, rss = geometry_scan(run, rng)
    named = {"geometry_designs_per_s": (total["design_count"] / total["design_total_s"], "1/s"),
             "waist_opt_per_s": (total["waist_count"] / total["waist_total_s"], "1/s"),
             "geometry_designs": (total["design_count"], "count"),
             "geometry_round_s": (total["untraced_s"] / total["rounds"], "s"),
             "reference_s": (total["reference_s"] / total["rounds"], "s")}
    # Every waist cycle holds the same mix of designs and waist mirrors, so
    # the median over cycles does not depend on where their costs fall.
    return {"latency_per_ref": statistics.median(total["ratios"]), "peak_rss_mb": rss}, named


# ---------------------------------------------------------------- traced run

IMPORT_PROBES = (("import.interpreter_s", "pass"), ("import.numpy_s", "import numpy"),
                 ("import.scipy_constants_s", "import scipy.constants"),
                 ("import.scipy_integrate_s", "import scipy.integrate"))
COUNT_MODULES = ("import sys, atomphase; print(len(sys.modules), "
                 "sum(m == 'scipy' or m.startswith('scipy.') for m in sys.modules))")


def import_layer(run: Run, metrics: dict) -> None:
    """Fresh-interpreter import walls (median of IMPORT_SAMPLES, interleaved)
    and module counts after `import atomphase`."""
    tr = run.tracer
    walls = {name: [] for name, _ in IMPORT_PROBES}
    for _ in range(IMPORT_SAMPLES):
        for name, code in IMPORT_PROBES:
            with tr.span(name[:-2]):
                child = Child([PY, "-c", code])
            if run.op(name, child.problems()):
                walls[name].append(child.wall_s)
    for name, values in walls.items():
        metrics[name] = statistics.median(values)
    with tr.span("import.atomphase"):
        child = Child([PY, "-c", COUNT_MODULES])
    run.op("import.count", child.problems())
    loaded, scipy_loaded = child.stdout.split()
    metrics["import.modules_loaded"] = int(loaded)
    metrics["import.scipy_loaded"] = int(scipy_loaded)


def overhead_cli(run: Run, ops) -> float:
    """Each call runs twice, untraced and traced, in alternating order;
    returns the extra wall time of the traced calls in percent."""
    walls = {False: 0.0, True: 0.0}
    pairs = 0
    while run.measuring():
        op = next(ops)
        pairs += 1
        for traced in ((False, True) if pairs % 2 else (True, False)):
            t0 = time.perf_counter()
            execute(run, op, run.tracer.span if traced else no_span)
            walls[traced] += time.perf_counter() - t0
    return 100.0 * (walls[True] - walls[False]) / walls[False]


def probe_inputs(seed: int) -> dict:
    cases = bulk_cases(random.Random(f"sweep-bulk/{seed}"), PROBE_POINTS)
    geo = geometry_inputs(random.Random(f"geometry-scan/{seed}"))
    calls = {"eval": [], "geometry": [], "figures": []}
    ops = cli_mix_ops(random.Random(f"cli-mix/{seed}"), None)
    for _ in CLI_KINDS:
        op = next(ops)
        kind = op.name.split("-", 1)[0]
        if kind == "figures":
            op.args[-1] = os.path.join(TMP, "probe-figures")
        calls[kind].append(op.args)
    sweep_config = write_config("probe-sweep", cases[0][1])
    calls["sweep"] = [["sweep", "--config", sweep_config, "--format", fmt]
                      for fmt in ("csv", "json")]
    return {"cases": [{"name": n, "config": c} for n, c in cases],
            "mirrors": geo["mirrors"][:6], "cones": geo["cones"][:3],
            "waist_mirrors": geo["waist_mirrors"][:2], "cli": calls}


def traced_run(run: Run) -> dict:
    """Per-layer metrics.  Only traced work sits inside spans: the untraced
    half of the overhead pass is left out of the self times."""
    metrics = {}
    tr = run.tracer
    import_layer(run, metrics)
    rng = random.Random(f"{run.workload}/{run.seed}")
    run.start_measuring()
    if run.workload == "geometry-scan":
        out, _ = geometry_scan(run, rng, alternate=True)
        overhead = 100.0 * (out["traced_s"] - out["untraced_s"]) / out["untraced_s"]
    elif run.workload == "cli-mix":
        overhead = overhead_cli(run, cli_mix_ops(rng, run))
    else:
        overhead = overhead_cli(run, (op for ops in sweep_bulk_rounds(run, rng)
                                      for op in ops))
    with tr.span("bench.worker"):
        parent = tr.spans[-1]["id"]
        _, out = run_worker(run, "probe", probe_inputs(run.seed), timeout=120.0)
    if out is None:
        raise SystemExit("probe worker failed: " + "; ".join(run.problems))
    tr.adopt(out["spans"], parent)
    run.op("probe", out["errors"])
    metrics.update(out["metrics"])
    metrics["trace.overhead_pct"] = overhead
    self_s = tr.self_times()
    for layer in LAYERS:
        metrics[f"trace.self_s.{layer}"] = self_s.get(layer, 0.0)
    with open(os.path.join(OUT, f"trace-{run.workload}-seed{run.seed}.json"), "w") as fh:
        json.dump({"spans": tr.spans, "self_s": self_s}, fh)
    return metrics


# --------------------------------------------------------------------- main

WORKLOADS = {"cli-mix": cli_mix, "sweep-bulk": sweep_bulk, "geometry-scan": geometry_metrics}


def untraced_run(run: Run) -> tuple:
    run.start_measuring()
    sample_setup(run)
    rng = random.Random(f"{run.workload}/{run.seed}")
    metrics, named = WORKLOADS[run.workload](run, rng)
    sample_setup(run)
    setup = statistics.median(run.samples["setup_s"])
    metrics["setup_s"] = setup
    metrics["success_rate"] = 1.0 - run.failed / run.attempted
    named["setup_s"] = (setup, "s")
    named["error_rate"] = (run.failed / run.attempted, "ratio")
    return metrics, named


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(BENCH_DIR, os.pardir, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    if not os.path.isfile(os.path.join(SRC, "atomphase", "__init__.py")):
        sys.stderr.write(f"no atomphase package under {SRC}\n")
        return 2
    shutil.rmtree(TMP, ignore_errors=True)
    os.makedirs(TMP)
    run = Run(args.workload, args.seed, args.seconds, args.trace)
    verify_checkout()
    Child(cli_argv(["eval", "--model", "symmetric", "--omega-n", "1", "--eta", "1",
                    "--delta", "1", "--s0", "0"]))   # warm-up, discarded
    named = {}
    if args.trace:
        metrics = traced_run(run)
    else:
        metrics, named = untraced_run(run)
    shutil.rmtree(TMP, ignore_errors=True)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        sys.stderr.write(f"metrics not measured: {missing}\n")
        return 1
    record = {"workload": run.workload, "seed": run.seed, "seconds": run.seconds,
              "trace": run.trace, "wall_s": time.perf_counter() - run.started,
              "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named.items()},
              "samples": run.samples, "problems": run.problems, "outputs": run.outputs}
    with open(os.path.join(OUT, f"run-{run.workload}-seed{run.seed}-trace{run.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    for problem in run.problems:
        sys.stderr.write(f"FAILED {problem}\n")
    result = {"correct": run.failed == 0, "attempted": run.attempted, "failed": run.failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
