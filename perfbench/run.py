"""Benchmark of the yamabelab package, built and run from the sources in src/.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and BENCHMARK.json): verify_nonstiff,
expand_tail, postprocess, cli_sweep.  With --trace 0 the ops run untraced and
the end-to-end metrics are reported; with --trace 1 every op also runs a
second time through the package's public calls inside spans, and the
per-layer metrics are reported.  Every metric is printed by name with its
unit; the last line of standard output is the JSON result.  Spans are
written to perfbench/out/trace-<workload>-seed<N>.json.

Times are reported at a fixed reference host speed.  The speed of a shared
host drifts by up to 2x over minutes, and fixed calibration kernels that
share no code with yamabelab slow in step with it: a scipy RK45 solve for
work done in this process, the start of `python -c pass` for work done in
fresh interpreters (set-up and import probes, CLI sweeps).  The kernel is
timed between ops, and every time is reported as measured * reference /
(kernel time interpolated to the moment it was measured); rates are scaled
inversely.  The measured values are printed beside the results.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

from scipy.integrate import solve_ivp

from tracing import END, NAME, OP, START, Tracer, median_or_zero

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_SAMPLES = 5     # fresh interpreters timed per run for setup_s
IMPORT_SAMPLES = 3    # -X importtime subprocesses per traced run
COUNT_OPS = 5         # traced ops whose counts are reported, so counts repeat per seed
MIN_TAIL_BEYOND = 10  # samples that must lie beyond the reported tail percentile
CAL_EVERY = 0.5       # seconds between calibration samples in a timed loop


def _oscillator(t, y):
    return [y[1], -y[0]]


def solve_kernel() -> float:
    for _ in range(2):  # the second run finds its code and data in cache again
        t = time.perf_counter()
        solve_ivp(_oscillator, (0.0, 5.0), [1.0, 0.0], method="RK45", rtol=1e-10, atol=1e-12)
    return time.perf_counter() - t


def start_kernel() -> float:
    runs = []
    for _ in range(3):
        t = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        runs.append(time.perf_counter() - t)
    return statistics.median(runs)


# kernel and its reference time, about its median on a 2-core 2.1 GHz Xeon VM
IN_PROCESS = (solve_kernel, 0.0065)
FRESH_INTERPRETER = (start_kernel, 0.04)


class Calibration:
    """Timed runs of one calibration kernel, each with the moment it ended."""

    def __init__(self, kind: tuple):
        self.kernel, self.ref = kind
        self.at: list[float] = []
        self.samples: list[float] = []

    def sample(self, force: bool = False) -> float:
        """Time the kernel if forced or due; returns the scale it gives."""
        if force or not self.at or time.perf_counter() >= self.at[-1] + CAL_EVERY:
            self.samples.append(self.kernel())
            self.at.append(time.perf_counter())
        return self.ref / self.samples[-1]

    def scale_at(self, t: float) -> float:
        """Reference over the kernel time interpolated linearly to moment t."""
        j = bisect.bisect(self.at, t)
        if j == 0 or j == len(self.at):
            return self.ref / self.samples[min(j, len(self.at) - 1)]
        w = (t - self.at[j - 1]) / (self.at[j] - self.at[j - 1])
        return self.ref / ((1.0 - w) * self.samples[j - 1] + w * self.samples[j])

    @property
    def scale(self) -> float:
        return self.ref / statistics.median(self.samples)


def scaled(metrics: dict, cal: Calibration) -> dict:
    """(reported, unit, measured) per metric, times and rates at the
    reference speed of the whole phase (for values that are not per op)."""
    k = cal.scale
    factor = {"s": k, "1/s": 1.0 / k}
    return {name: (v * factor.get(unit, 1.0), unit, v) for name, (v, unit) in metrics.items()}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def attempt(fn, *args):
    """(result, None) or (None, error text) for one op or check."""
    try:
        return fn(*args), None
    except Exception as exc:  # an op that raises is a failed op, not a crash
        return None, f"{type(exc).__name__}: {exc}"


def timed_op(w, fn, i, *args):
    """Run one op, timing only the op; then its output check.  Returns
    (result, error text or None, seconds)."""
    t = time.perf_counter()
    res, err = attempt(fn, i, *args)
    dt = time.perf_counter() - t
    if err is None and res is not None:
        verdict, err = attempt(w.check, i, res)
        err = err or verdict
    return res, err, dt


# --- set-up and import probes -------------------------------------------------

def setup_seconds(wl, name: str, seed: int) -> tuple[float, float]:
    """(reported, measured) median wall time from launching a fresh
    interpreter to the end of the workload's set-up (for cli_sweep, to the
    exit of `yamabelab --help`)."""
    probe = name != "cli_sweep"
    if probe:
        cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name, "--seed", str(seed)]
    else:
        cmd = [sys.executable, "-m", "yamabelab", "--help"]
    cal, measured, reported = Calibration(FRESH_INTERPRETER), [], []
    for _ in range(SETUP_SAMPLES):
        scale = cal.sample(force=True)
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=wl.sub_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        first = proc.stdout.readline() if probe else ""
        t1 = time.perf_counter()
        _, err = proc.communicate(timeout=170)
        if not probe:
            t1 = time.perf_counter()
        if proc.returncode != 0 or (probe and first.strip() != "ready"):
            raise RuntimeError(f"set-up probe failed ({proc.returncode}): {err.strip()[-300:]}")
        measured.append(t1 - t0)
        reported.append((t1 - t0) * scale)
    return statistics.median(reported), statistics.median(measured)


def import_metrics(wl) -> dict:
    """Median cumulative import time of yamabelab and of the scipy subtrees it
    pulls in, from `python -X importtime -c "import yamabelab"`."""
    cal, runs = Calibration(FRESH_INTERPRETER), []
    for _ in range(IMPORT_SAMPLES):
        scale = cal.sample(force=True)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import yamabelab"],
                              cwd=ROOT, env=wl.sub_env(), capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import failed: {proc.stderr.strip()[-300:]}")
        runs.append((scale, parse_importtime(proc.stderr)))
    return {
        name: (statistics.median(k * t[j] for k, t in runs), "s", statistics.median(t[j] for _, t in runs))
        for j, name in enumerate(("import.yamabelab_s", "import.scipy_s"))
    }


def parse_importtime(text: str) -> tuple[float, float]:
    """-X importtime prints each module after the modules it imported, indented
    two spaces per level.  A scipy module whose importer is not part of scipy
    starts a scipy subtree; the cumulative times of those subtrees add up."""
    is_scipy = lambda name: name == "scipy" or name.startswith("scipy.")
    package = scipy = 0.0
    pending: list[tuple[int, str, float]] = []
    for line in text.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue
        cum = int(fields[1]) * 1e-6
        raw = fields[2].rstrip()
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip()) - 1) // 2
        while pending and pending[-1][0] > depth:
            _, child, child_cum = pending.pop()
            if is_scipy(child) and not is_scipy(name):
                scipy += child_cum
        pending.append((depth, name, cum))
        if depth == 0 and name == "yamabelab":
            package = cum
        if depth == 0 and is_scipy(name):
            scipy += cum
    return package, scipy


# --- runs ---------------------------------------------------------------------

def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least ten samples
    beyond it, or the median if that percentile would lie below it (20
    samples or fewer)."""
    xs = sorted(times)
    k = len(xs) - MIN_TAIL_BEYOND - 1
    if k + 1 <= len(xs) / 2:
        return statistics.median(xs), 50.0
    return xs[k], 100.0 * (k + 1) / len(xs)


def loop_kernel(w) -> tuple:
    """A CLI sweep op is mostly a fresh interpreter starting."""
    return FRESH_INTERPRETER if w.kind == "cli" else IN_PROCESS


def op_stats(times: list[float]) -> tuple[float, float, float, float]:
    """(ops per second, median, tail value, tail percentile) of op times."""
    if not times:
        return 0.0, 0.0, 0.0, 0.0
    return (len(times) / sum(times), statistics.median(times)) + tail(times)


def untraced_run(wl, w, args, workdir) -> tuple[dict, dict, list]:
    setup, setup_measured = setup_seconds(wl, args.workload, args.seed)
    w.setup(wl.OFF)
    cal, ops, errors, attempted = Calibration(loop_kernel(w)), [], [], 0
    start = time.perf_counter()
    while attempted < w.fixed_ops or time.perf_counter() - start < args.seconds:
        cal.sample()
        _, err, dt = timed_op(w, w.execute, attempted, wl.OFF)
        if err:
            errors.append(f"op {attempted}: {err}")
        else:
            ops.append((attempted, dt, time.perf_counter() - dt / 2))
        attempted += 1
    cal.sample(force=True)
    failed = len(errors)
    # rates use every op; the median and tail cover the ops every run
    # completes, so that runs of one seed time the same inputs
    rate, _, _, _ = op_stats([dt * cal.scale_at(mid) for _, dt, mid in ops])
    rate_measured, _, _, _ = op_stats([dt for _, dt, _ in ops])
    _, p50, tail_value, pct = op_stats([dt * cal.scale_at(mid) for i, dt, mid in ops if i < w.fixed_ops])
    _, p50_measured, tail_measured, _ = op_stats([dt for i, dt, _ in ops if i < w.fixed_ops])

    panel = type(w)(wl.ACCURACY_SEED, workdir)
    rel, err = attempt(lambda: max(wl.rel_err(p) for p in panel.accuracy_profiles()))
    if err:
        errors.append(f"accuracy check: {err}")
    elif rel > wl.ACCURACY_LIMIT:
        errors.append(f"accuracy check: relative error {rel:.3g} > {wl.ACCURACY_LIMIT:g}")
    rss = resource.getrusage(resource.RUSAGE_CHILDREN if w.kind == "cli" else resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": (setup, "s", setup_measured),
        "points_per_s": (rate, "1/s", rate_measured),
        "op_p50_s": (p50, "s", p50_measured),
        "op_tail_s": (tail_value, "s", tail_measured),
        "max_rel_err": (rel or 0.0, "rel", rel or 0.0),
        "peak_rss_mb": (rss, "MB", rss),
    }
    notes = [
        f"op_p50_s and op_tail_s (p{pct:.1f}) cover ops 0..{w.fixed_ops - 1}; {attempted} attempted, {failed} failed",
        "max_rel_err is the worst error over the fixed accuracy panel",
        f"{len(cal.samples)} calibration samples in the loop, median {statistics.median(cal.samples):.5f} s "
        f"(reference {cal.ref} s)",
    ]
    if w.kind == "cli":
        notes.append(f"sweep pool: min(8 points, os.cpu_count() = {os.cpu_count()}) workers")
    return {"correct": not errors, "attempted": attempted, "failed": failed, "errors": errors}, metrics, notes


def replay_op(w, i, tr, res):
    with tr.span("bench.op"):
        return w.replay(i, tr, res)


def traced_op(wl, w, i, tr, op_id) -> tuple[str | None, float | None]:
    """Op i untraced, then its replay inside spans tagged op_id.  Returns the
    error, if any, and the replay's wall time minus the untraced op's,
    leaving out spans the replay adds beyond the op's own work."""
    tr.op = op_id
    res, err, untraced = timed_op(w, w.execute, i, wl.OFF)
    if err:
        return err, None
    first = len(tr.spans)
    _, err, traced = timed_op(w, partial(replay_op, w), i, tr, res)
    extra = sum(s[END] - s[START] for s in tr.spans[first:] if s[NAME] in w.extra_spans)
    return err, traced - extra - untraced


def traced_run(wl, w, args, workdir) -> tuple[dict, dict, list]:
    tr = Tracer(enabled=True)
    cal = Calibration(loop_kernel(w))
    imports = import_metrics(wl)
    tr.op = "setup"
    w.setup(tr)
    errors, overheads, attempted = [], [], 0
    start = time.perf_counter()
    while attempted < COUNT_OPS or time.perf_counter() - start < args.seconds:
        cal.sample()
        err, overhead = traced_op(wl, w, attempted, tr, attempted)
        if err:
            errors.append(f"op {attempted}: {err}")
        if overhead is not None:
            overheads.append(overhead)
        attempted += 1
    # one op of every kind this workload lacks, so each layer is measured
    for kind, cls in wl.CENSUS.items():
        if kind == w.kind:
            continue
        other = cls(args.seed, workdir)
        cal.sample()
        tr.op = f"census-{kind}-setup"
        other.setup(tr)
        err, _ = traced_op(wl, other, 0, tr, f"census-{kind}")
        if err:
            errors.append(f"census {kind}: {err}")
        attempted += 1
    tr.dump(OUT / f"trace-{args.workload}-seed{args.seed}.json")

    counted = set(range(COUNT_OPS)) | {s[OP] for s in tr.spans if isinstance(s[OP], str)}
    span_in = lambda *names: (lambda name: name in names)
    layer = lambda prefix: (lambda name: name.startswith(prefix + "."))
    per_op = {
        "core_params.busy_s": layer("core_params"),
        "profile_solver.solve_s": span_in("profile_solver.solve_profile"),
        "profile_solver.residuals_s": span_in("profile_solver.residuals"),
        "profile_solver.io_s": span_in("profile_solver.write_profile_csv", "profile_solver.write_profile_json",
                                       "profile_solver.load_profile"),
        "profile_solver.self_s": layer("profile_solver"),
        "geometry.compute_s": span_in("geometry.compute_geometry"),
        "geometry.log_dynamics_s": span_in("geometry.log_handoff", "geometry.w_log_dynamics"),
        "geometry.pde_residual_s": span_in("geometry.pde_residual"),
        "geometry.export_s": span_in("geometry.write_geometry_csv"),
        "geometry.self_s": layer("geometry"),
        "analysis.w_defect_s": span_in("analysis.w_equation_defect"),
        "analysis.limits_s": span_in("analysis.estimate_limits"),
        "analysis.battery_s": span_in("analysis.invariant_battery"),
        "analysis.json_s": span_in("analysis.report_to_json"),
        "analysis.self_s": layer("analysis"),
        "cli.sweep_s": span_in("cli.sweep"),
    }
    metrics = {name: (median_or_zero(tr.per_op(match)), "s") for name, match in per_op.items()}

    def values(span, key, counted_only=False):
        return tr.attr_values(span, key, counted if counted_only else None)

    def verdicts(key):
        return sum(values("analysis.report_to_json", key, True)) + sum(values("cli.sweep", key, True))

    metrics.update({
        "profile_solver.steps": (median_or_zero(values("profile_solver.solve_profile", "steps")), "count"),
        "profile_solver.grid_points": (median_or_zero(values("profile_solver.solve_profile", "grid_points")), "count"),
        "profile_solver.io_bytes": (median_or_zero(values("profile_solver.load_profile", "bytes")), "bytes"),
        "profile_solver.ode_residual_max": (max(values("profile_solver.residuals", "ode_residual", True), default=0.0), "rel"),
        "geometry.export_bytes": (median_or_zero(values("geometry.write_geometry_csv", "bytes")), "bytes"),
        "geometry.k0_agreement_max": (max(values("geometry.compute_geometry", "k0_agreement", True), default=0.0), "rel"),
        "analysis.verdicts_pass": (verdicts("pass"), "count"),
        "analysis.verdicts_inconclusive": (verdicts("inconclusive"), "count"),
        "analysis.verdicts_fail": (verdicts("fail"), "count"),
        "analysis.battery_violations": (sum(values("analysis.invariant_battery", "violations", True)), "count"),
        "cli.rows": (median_or_zero(values("cli.sweep", "rows")), "count"),
        "cli.error_rows": (sum(values("cli.sweep", "error_rows", True)), "count"),
        "cli.csv_bytes": (median_or_zero(values("cli.sweep", "csv_bytes")), "bytes"),
        "trace.overhead_s": (median_or_zero(overheads), "s"),
    })
    metrics = scaled(metrics, cal) | imports
    notes = [
        f"{attempted} ops traced ({len(tr.spans)} spans), {len(errors)} failed; "
        f"counts and maxima cover ops 0..{COUNT_OPS - 1}, set-up and the census of other op kinds",
        f"trace.overhead_s is the median over {len(overheads)} ops of replay minus untraced op",
        f"time scale {cal.scale:.4f} ({len(cal.samples)} calibration samples)",
    ]
    failed = len(errors)
    return {"correct": not errors, "attempted": attempted, "failed": failed, "errors": errors}, metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "yamabelab" / "__init__.py").is_file():
        print(f"error: no yamabelab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl
    import yamabelab

    if Path(yamabelab.__file__).resolve().parent != SRC / "yamabelab":
        print(f"error: yamabelab imported from {yamabelab.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        w = wl.WORKLOADS[args.workload](args.seed, workdir)
        if args.setup_probe:
            w.setup(wl.OFF)
            print("ready", flush=True)
            return 0
        result, metrics, notes = (traced_run if args.trace else untraced_run)(wl, w, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for name, (value, unit, measured) in metrics.items():
        print(f"{name:34s} {value:<14.6g} {unit:6s} measured {measured:.6g}")
    for line in notes + result.pop("errors")[:10]:
        print(line)
    result["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
