"""Seeded inputs, timed ops, traced replays and output checks.

Points come in blocks, each a rank-1 lattice shifted at random modulo 1: in
every block each parameter takes each of its n strata exactly once, so the
fixed_ops ops every run completes have the same mix of cheap and expensive
points for every seed, and runs compare across seeds.  Within a block the
points are visited in an order that also spreads the first parameter, the
one that drives an op's cost most, over every prefix.  The seed sets the
shifts; the same seed gives the same points.  Points are never filtered: a
point whose op raises counts as failed.

The accuracy panel is the same design at a fixed seed (ACCURACY_SEED), so
max_rel_err is one deterministic number per workload, comparable across runs.

Each workload has
  fixed_ops            the number of ops every run completes, whatever --seconds,
  execute(i, tracer)   the op timed for the end-to-end metrics,
  replay(i, tracer, r) the same work split into calls of the package's public
                       functions, each inside a span (traced runs only),
  check(i, r)          the output check, run outside the timed region,
  accuracy_profiles()  profiles compared with the DOP853 reference.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp

import yamabelab as yl

from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

OFF = Tracer(enabled=False)

RTOL = 1e-9
VERIFY_R_MAX = 1e4
BOUND_SLACK = 1e-6  # the package's own slack on certified blow-up radii
OVERALLS = ("Pass", "Inconclusive", "Fail")

# C8 lattice of the acceptance suite for pde_residual
PDE_R = np.linspace(0.5, 3.0, 6)
PDE_T = np.linspace(0.8, 1.2, 3)
PDE_H = (3.2e-2, 1.6e-2, 8e-3, 4e-3, 2e-3)
BACKWARD_T = 2.0
SELF_SIMILAR = {-1.0: "Forward", 0.0: "Eternal", 1.0: "Backward"}

REF_RTOL = 1e-13
R0_SCALE = 1e-6  # solve_profile's default series-start scale
CHECK_RADII = (0.1, 1.0, 10.0, 100.0)
BLOWUP_FRACTIONS = (0.25, 0.5, 0.75)
ACCURACY_LIMIT = 1e-6  # worst relative error a correct run may show at rtol 1e-9
ACCURACY_SEED = 0

GOLDEN = (5 ** 0.5 - 1) / 2


def sub_env() -> dict:
    env = dict(os.environ)
    env.pop("YAMABELAB_OUTPUT_DIR", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def _coprime_near(n: int, x: float) -> int:
    return min((c for c in range(1, n) if math.gcd(c, n) == 1), key=lambda c: abs(c - x), default=1)


def _closest_pair(n: int, za: int, zb: int) -> float:
    """Smallest distance on the unit torus between two points of the 2-D
    lattice {k (za, zb) / n}; it depends only on the difference k."""
    k = np.arange(1, n)
    fold = lambda z: np.minimum(k * z % n, n - k * z % n) / n
    return float(np.min(np.hypot(fold(za), fold(zb))))


class Design:
    """Blocks of n points in [0, 1)^dims.

    The generating vector is built component by component, each new
    component keeping the closest pair of every 2-D projection as far apart
    as it can; each block gets its own shift from (seed, stream, block)."""

    def __init__(self, seed: int, stream: str, dims: int, n: int):
        self.seed, self.stream, self.n = seed, stream, n
        z = [1]
        for _ in range(1, dims):
            cands = [c for c in range(1, n) if math.gcd(c, n) == 1] or [1]
            z.append(max(cands, key=lambda c: min(_closest_pair(n, a, c) for a in z)))
        self.z = z
        self.step = _coprime_near(n, GOLDEN * n)
        self._shifts: dict[int, list[float]] = {}

    def __getitem__(self, i: int) -> list[float]:
        block, j = divmod(i, self.n)
        if block not in self._shifts:
            rng = random.Random(f"{self.seed}/{self.stream}/{block}")
            self._shifts[block] = [rng.random() for _ in self.z]
        k = j * self.step % self.n
        return [(k * zd / self.n + sd) % 1.0 for zd, sd in zip(self.z, self._shifts[block])]


def pick_n(u: float) -> int:
    return 3 + min(int(6 * u), 5)


def log_between(lo: float, hi: float, u: float) -> float:
    return lo * (hi / lo) ** u


def between(lo: float, hi: float, u: float) -> float:
    return lo + (hi - lo) * u


@dataclass(frozen=True)
class Point:
    n: int
    beta: float
    eta: float
    rho: float | None = None
    alpha: float | None = None
    r_max: float = VERIFY_R_MAX

    @property
    def blowup(self) -> bool:
        return self.rho is None

    def params(self):
        return yl.make_params(
            n=self.n, m=yl.soliton_exponent(self.n), beta=self.beta, eta=self.eta,
            rho=self.rho, alpha=self.alpha,
        )


# --- reference and accuracy -------------------------------------------------

def reference(params, radii) -> np.ndarray:
    """(v, v') at the given radii from DOP853 at rtol 1e-13, started from the
    same series data as the solver.  Never calls solve_profile."""
    n, m, alpha, beta = params.n, params.m, params.alpha, params.beta
    r0 = R0_SCALE * params.eta ** ((m - 1.0) / 2.0)

    def rhs(r, y):
        v, dv = y
        vpp = -(m - 1.0) * dv * dv / v - (n - 1) * dv / r - (alpha * v + beta * r * dv) * v ** (1.0 - m) / (n - 1)
        return [dv, vpp]

    sol = solve_ivp(
        rhs, (r0, radii[-1]), yl.series_start(params, r0), method="DOP853",
        rtol=REF_RTOL, atol=1e-30 * params.eta, t_eval=radii,
    )
    if sol.status != 0:
        raise RuntimeError(f"reference integration failed: {sol.message}")
    return sol.y


def rel_err(profile) -> float:
    """Worst relative error in v and v' at the check radii: fixed radii on a
    Global profile, fractions of r* on a blown-up one."""
    st = profile.status
    if st.kind == "BlowUp":
        radii = [f * st.radius for f in BLOWUP_FRACTIONS]
    else:
        radii = [r for r in CHECK_RADII if r <= 0.5 * st.radius]
    radii = np.array(radii)
    v_ref, dv_ref = reference(profile.params, radii)
    v, dv = profile.value_at(radii, derivative=True)
    return float(max(np.max(np.abs(v / v_ref - 1.0)), np.max(np.abs(dv - dv_ref) / np.abs(dv_ref))))


# --- verify_nonstiff and expand_tail ---------------------------------------

def _verdict_counts(overalls) -> dict:
    return {k.lower(): sum(o == k for o in overalls) for k in OVERALLS}


def traced_solve(tr: Tracer, params, r_max: float):
    with tr.span("profile_solver.solve_profile") as a:
        profile = yl.solve_profile(params, r_max=r_max, rtol=RTOL)
    a["steps"] = len(profile.step_indices)
    a["grid_points"] = len(profile.r)
    return profile


class VerifyWorkload:
    """Serial verify() on soliton points, certify-and-solve on blow-up points."""

    kind = "verify"
    extra_spans = ("profile_solver.residuals",)  # replayed beyond verify's own work

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self, tr: Tracer) -> None:
        pass

    def point(self, i: int) -> Point:
        raise NotImplementedError

    def execute(self, i: int, tr: Tracer):
        pt = self.point(i)
        if pt.blowup:
            p = pt.params()
            cert = yl.blowup_certificate(p)
            profile = yl.solve_profile(p, r_max=pt.r_max, rtol=RTOL)
            return cert, profile.status
        report = yl.verify(pt.params(), r_max=pt.r_max, rtol=RTOL)
        return report, yl.report_to_json(report)

    def replay(self, i: int, tr: Tracer, result) -> None:
        """verify's pipeline, one public call per span.  report_to_json
        serialises the report of the untraced op: the verdict table has no
        public entry point of its own."""
        pt = self.point(i)
        with tr.span("core_params.make_params"):
            p = pt.params()
        if pt.blowup:
            with tr.span("core_params.blowup_certificate"):
                yl.blowup_certificate(p)
            traced_solve(tr, p, pt.r_max)
            return None
        with tr.span("core_params.classify"):
            yl.classify(p)
        with tr.span("core_params.predictions"):
            yl.predictions(p, strict=False)
        profile = traced_solve(tr, p, pt.r_max)
        with tr.span("geometry.compute_geometry") as a:
            curves = yl.compute_geometry(profile)
        a["k0_agreement"] = curves.k0_agreement
        with tr.span("analysis.estimate_limits"):
            yl.estimate_limits(curves, profile)
        with tr.span("analysis.invariant_battery") as a:
            log = yl.invariant_battery(profile, curves)
        a["violations"] = sum(not rec.ok for rec in log)
        report = result[0]
        with tr.span("analysis.report_to_json") as a:
            yl.report_to_json(report)
        a.update(_verdict_counts([report.overall]))
        with tr.span("profile_solver.residuals") as a:
            rep = yl.residuals(profile)
        a["ode_residual"] = rep.max_ode_residual
        return None

    def check(self, i: int, result) -> str | None:
        pt = self.point(i)
        if pt.blowup:
            cert, status = result
            if status.kind != "BlowUp":
                return f"blow-up point ended {status.kind}"
            if cert.radius_bound is not None and status.radius > cert.radius_bound * (1.0 + BOUND_SLACK):
                return f"r* = {status.radius!r} exceeds the bound {cert.radius_bound!r}"
            return None
        overall = json.loads(result[1])["overall"]
        return None if overall in OVERALLS else f"overall {overall!r}"

    def accuracy_profiles(self):
        for i in range(self.accuracy_points):
            pt = self.point(i)
            yield yl.solve_profile(pt.params(), r_max=pt.r_max, rtol=RTOL)


class VerifyNonstiff(VerifyWorkload):
    """In every five ops: three shrinking, one steady, one blow-up point."""

    name = "verify_nonstiff"
    fixed_ops = 160
    accuracy_points = 20

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.soliton = Design(seed, "soliton", 4, self.fixed_ops * 4 // 5)
        self.blow = Design(seed, "blowup", 5, self.fixed_ops // 5)

    def point(self, i: int) -> Point:
        group, slot = divmod(i, 5)
        if slot == 4:
            u = self.blow[group]
            beta = 0.0 if u[4] < 0.25 else -between(0.05, 1.0, u[3])
            return Point(n=pick_n(u[1]), beta=beta, eta=log_between(1e-2, 1e2, u[0]),
                         alpha=-log_between(0.5, 4.0, u[2]))
        u = self.soliton[group * 4 + slot]
        n = pick_n(u[1])
        beta = log_between(0.5, 2.0, u[3])
        # rho/(beta (n-2)) >= 1 lies outside the theorems; verify still applies
        rho = 0.0 if slot == 3 else beta * (n - 2) * between(0.2, 1.5, u[2])
        return Point(n=n, beta=beta, eta=log_between(1e-2, 1e2, u[0]), rho=rho)


class ExpandTail(VerifyWorkload):
    """Expanding points with r_max log-spread over 1e3..1e5."""

    name = "expand_tail"
    fixed_ops = 40
    accuracy_points = 6

    def __init__(self, seed: int, workdir: Path):
        super().__init__(seed, workdir)
        self.design = Design(seed, "expand", 5, self.fixed_ops)

    def point(self, i: int) -> Point:
        u = self.design[i]
        beta = log_between(0.5, 2.0, u[4])
        # rho/beta in [-0.6, -0.25]: the step count still grows linearly in
        # r_max, but towards -2 (alpha -> 0) it grows so fast that a single
        # r_max = 1e5 point outlasts a run, and a few such points set the rate
        return Point(
            n=pick_n(u[3]), beta=beta, eta=log_between(1e-2, 1e2, u[1]),
            rho=-beta * between(0.25, 0.6, u[2]), r_max=log_between(1e3, 1e5, u[0]),
        )


# --- postprocess --------------------------------------------------------------

class Postprocess:
    """Check sets on the three self-similar profiles solved in set-up.

    One op runs the check set on all three, so that every op does the same
    mix of work whatever profiles the seed draws."""

    name = "postprocess"
    kind = "postprocess"
    fixed_ops = 12
    extra_spans = ()

    def __init__(self, seed: int, workdir: Path):
        self.design = Design(seed, "profiles", 3, len(SELF_SIMILAR))
        self.workdir = workdir
        self.profiles = []
        self.specs = []

    def setup(self, tr: Tracer) -> None:
        for k, rho in enumerate(SELF_SIMILAR):
            u = self.design[k]
            n = pick_n(u[2])
            tr.op = f"setup-{k}"
            with tr.span("core_params.make_params"):
                p = yl.make_params(n=n, m=yl.soliton_exponent(n), beta=log_between(1.5, 2.5, u[1]),
                                   eta=log_between(0.1, 10.0, u[0]), rho=rho)
            self.profiles.append(traced_solve(tr, p, VERIFY_R_MAX))
            kind = SELF_SIMILAR[rho]
            self.specs.append(yl.SelfSimilarSpec(kind, p, T=BACKWARD_T if kind == "Backward" else None))

    def execute(self, i: int, tr: Tracer):
        return [self._check_set(profile, spec, tr) for profile, spec in zip(self.profiles, self.specs)]

    def _check_set(self, profile, spec, tr: Tracer):
        with tr.span("geometry.compute_geometry") as a:
            curves = yl.compute_geometry(profile)
        a["k0_agreement"] = curves.k0_agreement
        with tr.span("profile_solver.residuals") as a:
            rep = yl.residuals(profile)
        a["ode_residual"] = rep.max_ode_residual
        defects = []
        for num in (1400, 2799):
            with tr.span("analysis.w_equation_defect"):
                defects.append(yl.w_equation_defect(profile, num_points=num))
        with tr.span("geometry.log_handoff"):
            s0, init = yl.log_handoff(profile, 10.0)
        with tr.span("geometry.w_log_dynamics"):
            dyn = yl.w_log_dynamics(profile.params, (s0, math.log(1e4)), init)
        pde = []
        for h in PDE_H:
            with tr.span("geometry.pde_residual"):
                pde.append(yl.pde_residual(spec, profile, PDE_R, PDE_T, h, h))
        csv_path, json_path = self.workdir / "profile.csv", self.workdir / "profile.json"
        geo_path = self.workdir / "geometry.csv"
        with tr.span("profile_solver.write_profile_csv"):
            yl.write_profile_csv(profile, csv_path)
        with tr.span("profile_solver.write_profile_json"):
            yl.write_profile_json(profile, json_path)
        with tr.span("profile_solver.load_profile") as a:
            loaded = yl.load_profile(csv_path, json_path)
        a["bytes"] = csv_path.stat().st_size + json_path.stat().st_size
        with tr.span("geometry.write_geometry_csv") as a:
            yl.write_geometry_csv(curves, geo_path)
        a["bytes"] = geo_path.stat().st_size
        return loaded, [curves.k0_agreement, rep.max_ode_residual, *defects, float(dyn.w_tilde[-1]), *pde]

    def replay(self, i: int, tr: Tracer, result):
        return self.execute(i, tr)

    def check(self, i: int, result) -> str | None:
        for profile, (loaded, values) in zip(self.profiles, result):
            for name in ("r", "v", "dv"):
                if not np.array_equal(getattr(loaded, name), getattr(profile, name)):
                    return f"load_profile changed {name}"
            if not np.all(np.isfinite(values)):
                return "non-finite check value"
        return None

    def accuracy_profiles(self):
        if not self.profiles:
            self.setup(OFF)
        return iter(self.profiles)


# --- cli_sweep ----------------------------------------------------------------

class CliSweep:
    """One fresh `python -m yamabelab sweep` per op.

    The grid is beta in {b1, -b2} x rho in {rho1 > 0, rho2 < 0} x eta in
    {e1, e2}: verify on a shrinking and an expanding point and certify four
    blow-up points (alpha < 0 since rho < 2 b2), each at two values of the
    gauge eta, so pairs of points share a normalised key."""

    name = "cli_sweep"
    kind = "cli"
    fixed_ops = 13  # prime, so the lattice has generators with independent columns
    extra_spans = ()
    r_max = 1e3

    def __init__(self, seed: int, workdir: Path):
        self.design = Design(seed, "sweep", 7, self.fixed_ops)
        self.workdir = workdir

    def setup(self, tr: Tracer) -> None:
        pass

    def grid(self, i: int) -> dict:
        u = self.design[i]
        n = pick_n(u[3])
        b1, b2 = log_between(0.5, 2.0, u[2]), between(0.5, 1.5, u[5])
        rho1 = between(0.2, 0.9, u[6]) * min(2.0 * b2, (n - 2) * b1)
        return {
            "n": [n], "m": [yl.soliton_exponent(n)], "beta": [b1, -b2],
            "rho": [rho1, -b1 * between(0.25, 0.75, u[0])],
            "eta": [log_between(1e-2, 1e2, u[1]), log_between(1e-2, 1e2, u[4])],
        }

    def execute(self, i: int, tr: Tracer):
        out = self.workdir / "sweep"
        cmd = [sys.executable, "-m", "yamabelab", "sweep", "--r-max", repr(self.r_max), "--output-dir", str(out)]
        for key, values in self.grid(i).items():
            cmd += [f"--{key}", ",".join(repr(v) for v in values)]
        (out / "sweep.csv").unlink(missing_ok=True)
        with tr.span("cli.sweep") as a:
            proc = subprocess.run(cmd, cwd=ROOT, env=sub_env(), capture_output=True, text=True, timeout=150)
        with open(out / "sweep.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        verified = [r["overall"] for r in rows if r["status"] == "Global"]
        a.update(rows=len(rows), error_rows=sum(bool(r["error"]) for r in rows),
                 csv_bytes=(out / "sweep.csv").stat().st_size, **_verdict_counts(verified))
        return proc.returncode, proc.stderr, rows

    def replay(self, i: int, tr: Tracer, result):
        return self.execute(i, tr)

    def check(self, i: int, result) -> str | None:
        code, stderr, rows = result
        if code not in (0, 1):  # 1 also reports a Fail verdict, which is lab output
            return f"sweep exited {code}: {stderr.strip()[-200:]}"
        if len(rows) != 8:
            return f"{len(rows)} rows"
        for row in rows:
            if row["error"]:
                return f"error row: {row['error']}"
            blowup = float(row["alpha"]) < 0.0
            want = ("BlowUp", ("Certified", "Detected")) if blowup else ("Global", OVERALLS)
            if row["status"] != want[0] or row["overall"] not in want[1]:
                return f"row ended {row['status']}/{row['overall']}"
        return None

    def accuracy_profiles(self):
        g = self.grid(0)
        for beta in g["beta"]:
            for rho in g["rho"]:
                for eta in g["eta"]:
                    pt = Point(n=g["n"][0], beta=beta, eta=eta, rho=rho)
                    yield yl.solve_profile(pt.params(), r_max=self.r_max, rtol=RTOL)


WORKLOADS = {cls.name: cls for cls in (VerifyNonstiff, ExpandTail, Postprocess, CliSweep)}
# the workload whose op stands in for a kind in another workload's census
CENSUS = {"verify": VerifyNonstiff, "postprocess": Postprocess, "cli": CliSweep}
