"""Command-line front end: flat key-value configs, subcommands, CSV/JSON
emission with fixed filenames.

Config files hold one `key = value` pair per line with exactly the keys
n, m, beta, rho, alpha, eta, r_max, rtol, atol, r0_scale, output_dir,
formats; unknown keys are errors so typos fail fast.  Flags override the
config; the YAMABELAB_OUTPUT_DIR environment variable overrides both for
the output directory.  Exit status: 0 success/Pass, 1 Fail or numeric
failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from itertools import product
from pathlib import Path

import numpy as np

from .analysis import STRICT_SLACK, report_to_json, verify
from .core_params import blowup_certificate, classify, make_params, soliton_exponent
from .geometry import (
    SelfSimilarSpec,
    _scaling_alpha,
    _self_similar_u,
    compute_geometry,
    write_geometry_csv,
)
from .profile_solver import DEFAULT_R0_SCALE, _write_csv, _write_sidecar, solve_profile
from .profile_solver import _check_numerics, write_profile_csv, write_profile_json

__all__ = ["main", "run"]

ENV_OUTPUT_DIR = "YAMABELAB_OUTPUT_DIR"
PARAM_KEYS = ("n", "m", "beta", "rho", "alpha", "eta")
NUMERIC_KEYS = ("r_max", "rtol", "atol", "r0_scale")
OUTPUT_KEYS = ("output_dir", "formats")
CONFIG_KEYS = frozenset(PARAM_KEYS + NUMERIC_KEYS + OUTPUT_KEYS)

SWEEP_COLUMNS = (
    "n", "m", "alpha", "beta", "rho", "eta",
    "variant", "validity", "status", "overall",
    "w", "R", "K0", "K1", "rvp_over_v", "w_over_logr", "r2v2k",
    "blowup_radius", "blowup_bound", "error",
)


class UsageError(Exception):
    pass


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _read_config(path: str) -> dict:
    """Flat key = value file; quotes stripped, # starts a comment."""
    cfg = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value, got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip().strip("\"'")
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg[key] = value
    return cfg


def _merge(args) -> dict:
    """Config values with flag overrides; raw strings/floats keyed by name."""
    cfg = _read_config(args.config) if getattr(args, "config", None) else {}
    merged = dict(cfg)
    for key in PARAM_KEYS + NUMERIC_KEYS + OUTPUT_KEYS:
        flag = getattr(args, key, None)
        if flag is not None:
            merged[key] = flag
    return merged


def _to_float(values: dict, key: str, default=None):
    raw = values.get(key)
    if raw is None:
        return default
    try:
        out = float(raw)
    except (TypeError, ValueError):
        raise UsageError(f"{key}: expected a number, got {raw!r}") from None
    return out


def _integer(key: str, raw, f: float) -> int:
    if not (math.isfinite(f) and f == int(f)):
        raise UsageError(f"{key}: expected an integer, got {raw!r}")
    return int(f)


def _to_int(values: dict, key: str):
    f = _to_float(values, key)
    return None if f is None else _integer(key, values[key], f)


def _build_params(values: dict, require=("n", "m", "beta", "eta")):
    for key in require:
        if values.get(key) is None:
            raise UsageError(f"missing required parameter {key!r}")
    for key in PARAM_KEYS:
        raw = values.get(key)
        if isinstance(raw, str) and "," in raw:
            raise UsageError(f"{key}: list values are only allowed in sweep")
    try:
        return make_params(
            n=_to_int(values, "n"),
            m=_to_float(values, "m"),
            beta=_to_float(values, "beta"),
            eta=_to_float(values, "eta"),
            rho=_to_float(values, "rho"),
            alpha=_to_float(values, "alpha"),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _numerics(values: dict) -> dict:
    out = {
        "r_max": _to_float(values, "r_max", 1e4),
        "rtol": _to_float(values, "rtol", 1e-9),
        "atol": _to_float(values, "atol"),
        "r0_scale": _to_float(values, "r0_scale", DEFAULT_R0_SCALE),
    }
    _check_numerics(**out)
    return out


def _formats(values: dict) -> set:
    raw = values.get("formats") or "csv,json"
    formats = {part.strip() for part in str(raw).split(",") if part.strip()}
    bad = formats - {"csv", "json"}
    if bad or not formats:
        raise UsageError(f"formats must be a subset of csv,json; got {raw!r}")
    return formats


def _output_dir(values: dict) -> Path:
    env = os.environ.get(ENV_OUTPUT_DIR)
    raw = env if env else values.get("output_dir", ".")
    path = Path(raw)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_solve(args) -> int:
    values = _merge(args)
    params = _build_params(values)
    num = _numerics(values)
    formats = _formats(values)
    out = _output_dir(values)
    profile = solve_profile(params, **num)
    if "csv" in formats:
        write_profile_csv(profile, out / "profile.csv")
    if "json" in formats:
        write_profile_json(profile, out / "profile.json")
    st = profile.status
    print(
        f"{st.kind} at r = {st.radius:.6g}, {len(profile.r)} grid points -> {out}"
    )
    return 0 if st.kind in ("Global", "BlowUp") else 1


def _cmd_geometry(args) -> int:
    values = _merge(args)
    params = _build_params(values)
    num = _numerics(values)
    formats = _formats(values)
    out = _output_dir(values)
    if params.rho is None:
        raise UsageError("geometry needs soliton parameters (m = (n-2)/(n+2))")
    if params.beta == 0.0:
        raise UsageError("sectional curvature needs beta != 0")
    profile = solve_profile(params, **num)
    if profile.status.kind == "StepFailure":
        print(f"solver stalled at r = {profile.status.radius:.6g}", file=sys.stderr)
        return 1
    curves = compute_geometry(profile)
    if "csv" in formats:
        write_geometry_csv(curves, out / "geometry.csv")
    if "json" in formats:
        _write_sidecar(profile, out / "geometry.json", k0_agreement=curves.k0_agreement)
    print(
        f"geometry on {len(curves.r)} points, K0 cross-check {curves.k0_agreement:.3g} -> {out}"
    )
    return 0


def _cmd_verify(args) -> int:
    values = _merge(args)
    params = _build_params(values)
    num = _numerics(values)
    out = _output_dir(values)
    report = verify(
        params, r_max=num["r_max"], rtol=num["rtol"], atol=num["atol"]
    )
    (out / "report.json").write_text(report_to_json(report) + "\n")
    print(f"{report.variant} ({report.validity}): overall {report.overall} -> {out}")
    return 0 if report.overall == "Pass" else 1


def _certify(params, num: dict):
    """Certificate, solver status, and whether a detected blow-up radius
    keeps within the certified bound (None without a blow-up or a bound)."""
    cert = blowup_certificate(params)
    status = solve_profile(params, **num).status
    within = None
    if status.kind == "BlowUp" and cert.radius_bound is not None:
        within = status.radius <= cert.radius_bound * (1.0 + STRICT_SLACK)
    return cert, status, within


def _cmd_certify_blowup(args) -> int:
    values = _merge(args)
    params = _build_params(values)
    num = _numerics(values)
    cert, status, within = _certify(params, num)
    if status.kind != "BlowUp":
        print(
            f"{cert.case_tag}: no blow-up detected before r = {num['r_max']:.6g} "
            f"({status.kind})"
        )
        return 1
    r_star = status.radius
    if within is None:
        print(f"{cert.case_tag}: detected r* = {r_star:.6g} (no certified bound)")
        return 0
    print(
        f"{cert.case_tag}: C1 = {cert.C1:.6g}, bound = {cert.radius_bound:.6g}, "
        f"detected r* = {r_star:.6g} "
        f"({'within bound' if within else 'EXCEEDS BOUND'})"
    )
    return 0 if within else 1


_SELF_SIMILAR_KINDS = {"forward": "Forward", "backward": "Backward", "eternal": "Eternal"}


def _cmd_selfsim(args) -> int:
    values = _merge(args)
    kind = _SELF_SIMILAR_KINDS[args.kind]
    for key in ("n", "m", "beta", "eta"):
        if values.get(key) is None:
            raise UsageError(f"missing required parameter {key!r}")
    n = _to_int(values, "n")
    m = _to_float(values, "m")
    beta = _to_float(values, "beta")
    alpha = _scaling_alpha(kind, m, beta)
    if values.get("alpha") is not None or values.get("rho") is not None:
        raise UsageError("selfsim derives alpha from the kind; do not pass alpha or rho")
    try:
        params = make_params(n=n, m=m, beta=beta, eta=_to_float(values, "eta"), alpha=alpha)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    spec = SelfSimilarSpec(kind=kind, params=params, T=args.T)
    try:
        spec.check()
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    num = _numerics(values)
    out = _output_dir(values)
    profile = solve_profile(params, **num)
    if profile.status.kind != "Global":
        print(
            f"profile is not global ({profile.status.kind} at r = "
            f"{profile.status.radius:.6g}); cannot evaluate",
            file=sys.stderr,
        )
        return 1
    xs = np.linspace(0.0, args.x_max, args.samples)
    t = args.t
    u = _self_similar_u(spec, profile, np.abs(xs), t)
    _write_csv(out / "selfsim.csv", "x,t,u", (xs, np.full_like(xs, t), u))
    print(f"{kind} solution at t = {t:.6g}: {len(xs)} samples -> {out}")
    return 0


def _parse_grid_value(key: str, raw) -> list:
    parts = [p.strip() for p in str(raw).split(",") if p.strip()]
    if not parts:
        raise UsageError(f"{key}: empty value")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"{key}: expected numbers, got {raw!r}") from None
    if key == "n":
        return [_integer(key, raw, v) for v in vals]
    return vals


def _sweep_point(task: tuple) -> dict:
    """One grid point: verify, or certify in the blow-up regime.

    Returns a complete row; any exception is captured in the error column
    so a bad point never aborts the sweep."""
    point, num = task
    row = {col: "" for col in SWEEP_COLUMNS}
    for key in ("n", "m", "beta", "eta", "rho", "alpha"):
        if point.get(key) is not None:
            row[key] = _fmt(float(point[key])) if key != "n" else str(point[key])
    try:
        params = make_params(
            n=point["n"],
            m=point["m"],
            beta=point["beta"],
            eta=point["eta"],
            rho=point.get("rho"),
            alpha=point.get("alpha"),
        )
        row["alpha"] = _fmt(params.alpha)
        if params.rho is not None:
            row["rho"] = _fmt(params.rho)
        cls = classify(params)
        row["variant"] = cls.variant
        row["validity"] = cls.validity

        if params.alpha < 0.0 and params.beta <= 0.0:
            cert, status, within = _certify(params, num)
            row["status"] = status.kind
            row["overall"] = "Fail"
            if status.kind == "BlowUp":
                row["blowup_radius"] = _fmt(status.radius)
                if within is None:
                    row["overall"] = "Detected"
                else:
                    row["blowup_bound"] = _fmt(cert.radius_bound)
                    row["overall"] = "Certified" if within else "Fail"
            return row

        report = verify(params, r_max=num["r_max"], rtol=num["rtol"], atol=num["atol"])
        row["status"] = "Global"
        row["overall"] = report.overall
        for name in ("w", "R", "K0", "K1", "rvp_over_v", "w_over_logr", "r2v2k"):
            if name in report.observed:
                row[name] = _fmt(report.observed[name].value)
    except Exception as exc:
        row["status"] = row["status"] or "Error"
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _cmd_sweep(args) -> int:
    values = _merge(args)
    num = _numerics(values)
    out = _output_dir(values)
    grids = {}
    for key in PARAM_KEYS:
        if values.get(key) is not None:
            grids[key] = _parse_grid_value(key, values[key])
    for key in ("n", "m", "beta", "eta"):
        if key not in grids:
            raise UsageError(f"missing required parameter {key!r}")
    if "rho" not in grids and "alpha" not in grids:
        raise UsageError("one of rho or alpha must be supplied")

    keys = list(grids)
    points = [dict(zip(keys, combo)) for combo in product(*(grids[k] for k in keys))]
    tasks = [(point, num) for point in points]
    workers = min(len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_point, tasks))
    else:
        rows = [_sweep_point(task) for task in tasks]

    with open(out / "sweep.csv", "w") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(row[col] for col in SWEEP_COLUMNS) + "\n")

    n_pass = sum(r["overall"] in ("Pass", "Certified", "Detected") for r in rows)
    n_inc = sum(r["overall"] == "Inconclusive" for r in rows)
    n_fail = sum(r["overall"] == "Fail" for r in rows)
    n_err = sum(bool(r["error"]) for r in rows)
    print(
        f"{len(rows)} points: {n_pass} ok, {n_inc} inconclusive, "
        f"{n_fail} Fail, {n_err} errors -> {out}"
    )
    return 0 if n_fail == 0 and n_err == 0 else 1


def _add_param_flags(sp, as_text: bool) -> None:
    sp.add_argument("--n", type=str if as_text else int)
    for name in ("m", "beta", "rho", "alpha", "eta"):
        sp.add_argument(f"--{name}", type=str if as_text else float)


def _add_common_flags(sp) -> None:
    sp.add_argument("--r-max", dest="r_max", type=float)
    sp.add_argument("--rtol", type=float)
    sp.add_argument("--atol", type=float)
    sp.add_argument("--r0-scale", dest="r0_scale", type=float)
    sp.add_argument("--config")
    sp.add_argument("--output-dir", dest="output_dir")
    sp.add_argument("--formats")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="yamabelab",
        description="Radial self-similar profiles: solve, curvature, verification, blow-up certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, listy in (
        ("solve", _cmd_solve, False),
        ("geometry", _cmd_geometry, False),
        ("verify", _cmd_verify, False),
        ("certify-blowup", _cmd_certify_blowup, False),
        ("sweep", _cmd_sweep, True),
    ):
        sp = sub.add_parser(name)
        _add_param_flags(sp, as_text=listy)
        _add_common_flags(sp)
        sp.set_defaults(func=handler)

    sp = sub.add_parser("selfsim")
    sp.add_argument("--kind", required=True, choices=sorted(_SELF_SIMILAR_KINDS))
    sp.add_argument("--T", type=float, default=None)
    sp.add_argument("--t", type=float, default=1.0)
    sp.add_argument("--x-max", dest="x_max", type=float, default=10.0)
    sp.add_argument("--samples", type=int, default=201)
    _add_param_flags(sp, as_text=False)
    _add_common_flags(sp)
    sp.set_defaults(func=_cmd_selfsim)

    return parser


def run(argv=None) -> int:
    """Dispatch argv to its subcommand; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
