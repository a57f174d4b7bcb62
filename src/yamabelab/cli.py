"""Command-line front end: flat key-value configs, subcommands, CSV/JSON
emission with fixed filenames.

Config files hold one `key = value` pair per line with exactly the keys
n, m, beta, rho, alpha, eta, r_max, rtol, atol, r0_scale, output_dir,
formats; unknown keys are errors so typos fail fast.  Flags override the
config; the YAMABELAB_OUTPUT_DIR environment variable overrides both for
the output directory.  Every subcommand takes the same shared flags; run
resolves them once (_settings) and every command hands the numeric
settings given on to the library, whose defaults, checks and geometry
guards are the only ones.  Parameter flags and config values share one
parser, _grid: a comma list per key for sweep, one value per key
elsewhere, and a malformed value is a usage error that names its key.
Exit status: 0 success/Pass, 1 Fail or numeric failure, 2 usage or
validation error (UsageError or any other ValueError).
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from itertools import product
from pathlib import Path

import numpy as np

from .analysis import STRICT_SLACK, report_to_json, verify
from .core_params import _blowup_regime, blowup_certificate, classify, make_params
from .geometry import _SCALING_RHO, SelfSimilarSpec, _require_geometry, _scaling_alpha
from .geometry import _self_similar_u, compute_geometry, write_geometry_csv
from .profile_solver import _check_numerics, _write_csv, _write_sidecar, solve_profile
from .profile_solver import write_profile_csv, write_profile_json

__all__ = ["main", "run"]

ENV_OUTPUT_DIR = "YAMABELAB_OUTPUT_DIR"
PARAM_KEYS = ("n", "m", "beta", "rho", "alpha", "eta")
NUMERIC_KEYS = ("r_max", "rtol", "atol", "r0_scale")
OUTPUT_KEYS = ("output_dir", "formats")
CONFIG_KEYS = frozenset(PARAM_KEYS + NUMERIC_KEYS + OUTPUT_KEYS)

# the limits estimate_limits reports, one sweep column each
LIMIT_COLUMNS = ("w", "R", "K0", "K1", "rvp_over_v", "w_over_logr", "r2v2k")
SWEEP_COLUMNS = ("n", "m", "alpha", "beta", "rho", "eta", "variant", "validity", "status",
                 "overall", *LIMIT_COLUMNS, "blowup_radius", "blowup_bound", "error")


class UsageError(ValueError):
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
        key, value = key.strip(), value.strip().strip("\"'")
        if key not in CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown config key {key!r}")
        cfg[key] = value
    return cfg


def _settings(args) -> tuple[dict, dict]:
    """Config values under flag overrides, and the numeric settings given as
    floats, checked by solve_profile's rule.  r_max is always set (solve_profile
    needs it), at verify's default; the other defaults stay solve_profile's."""
    values = _read_config(args.config) if args.config else {}
    values.update((k, v) for k, v in vars(args).items() if k in CONFIG_KEYS and v is not None)
    numerics = {"r_max": 1e4}
    for key in NUMERIC_KEYS:
        raw = values.get(key)
        if raw is None:
            continue
        try:
            numerics[key] = float(raw)
        except ValueError:
            raise UsageError(f"{key}: expected a number, got {raw!r}") from None
    _check_numerics(**numerics)
    return values, numerics


def _parse_grid_value(key: str, raw) -> list:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise UsageError(f"{key}: empty value")
    try:
        vals = [float(p) for p in parts]
    except ValueError:
        raise UsageError(f"{key}: expected a number, got {raw!r}") from None
    if key != "n":
        return vals
    if not all(math.isfinite(v) and v == int(v) for v in vals):
        raise UsageError(f"{key}: expected an integer, got {raw!r}")
    return [int(v) for v in vals]


def _grid(values: dict, sweep: bool = False) -> dict:
    """The parameter keys given, as make_params keywords: a list of values
    per key for a sweep, one value per key otherwise."""
    for key in ("n", "m", "beta", "eta"):
        if values.get(key) is None:
            raise UsageError(f"missing required parameter {key!r}")
    grid = {}
    for key in PARAM_KEYS:
        raw = values.get(key)
        if raw is None:
            continue
        if not sweep and "," in raw:
            raise UsageError(f"{key}: list values are only allowed in sweep")
        vals = _parse_grid_value(key, raw)
        grid[key] = vals if sweep else vals[0]
    return grid


def _formats(values: dict) -> set:
    raw = values.get("formats") or "csv,json"
    formats = {part.strip() for part in str(raw).split(",") if part.strip()}
    bad = formats - {"csv", "json"}
    if bad or not formats:
        raise UsageError(f"formats must be a subset of csv,json; got {raw!r}")
    return formats


def _output_dir(values: dict) -> Path:
    path = Path(os.environ.get(ENV_OUTPUT_DIR) or values.get("output_dir", "."))
    path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_solve(args, values: dict, numerics: dict) -> int:
    params = make_params(**_grid(values))
    formats = _formats(values)
    out = _output_dir(values)
    profile = solve_profile(params, **numerics)
    if "csv" in formats:
        write_profile_csv(profile, out / "profile.csv")
    if "json" in formats:
        write_profile_json(profile, out / "profile.json")
    st = profile.status
    print(f"{st.kind} at r = {st.radius:.6g}, {len(profile.r)} grid points -> {out}")
    return 0 if st.kind in ("Global", "BlowUp") else 1


def _cmd_geometry(args, values: dict, numerics: dict) -> int:
    params = make_params(**_grid(values))
    formats = _formats(values)
    out = _output_dir(values)
    _require_geometry(params)
    profile = solve_profile(params, **numerics)
    if profile.status.kind == "StepFailure":
        print(f"solver stalled at r = {profile.status.radius:.6g}", file=sys.stderr)
        return 1
    curves = compute_geometry(profile)
    if "csv" in formats:
        write_geometry_csv(curves, out / "geometry.csv")
    if "json" in formats:
        _write_sidecar(profile, out / "geometry.json", k0_agreement=curves.k0_agreement)
    print(f"geometry on {len(curves.r)} points, K0 cross-check {curves.k0_agreement:.3g} -> {out}")
    return 0


def _cmd_verify(args, values: dict, numerics: dict) -> int:
    params = make_params(**_grid(values))
    out = _output_dir(values)
    report = verify(params, **numerics)
    (out / "report.json").write_text(report_to_json(report) + "\n")
    print(f"{report.variant} ({report.validity}): overall {report.overall} -> {out}")
    return 0 if report.overall == "Pass" else 1


def _certify(params, numerics: dict):
    """Certificate, solver status and outcome: Certified when the detected
    blow-up radius keeps within the certified bound, Detected when there is
    no bound, Fail without a blow-up or beyond the bound."""
    cert = blowup_certificate(params)
    status = solve_profile(params, **numerics).status
    if status.kind != "BlowUp":
        outcome = "Fail"
    elif cert.radius_bound is None:
        outcome = "Detected"
    else:
        within = status.radius <= cert.radius_bound * (1.0 + STRICT_SLACK)
        outcome = "Certified" if within else "Fail"
    return cert, status, outcome


def _cmd_certify_blowup(args, values: dict, numerics: dict) -> int:
    params = make_params(**_grid(values))
    cert, status, outcome = _certify(params, numerics)
    if status.kind != "BlowUp":
        print(f"{cert.case_tag}: no blow-up detected before r = {numerics['r_max']:.6g} ({status.kind})")
    elif outcome == "Detected":
        print(f"{cert.case_tag}: detected r* = {status.radius:.6g} (no certified bound)")
    else:
        print(
            f"{cert.case_tag}: C1 = {cert.C1:.6g}, bound = {cert.radius_bound:.6g}, "
            f"detected r* = {status.radius:.6g} "
            f"({'within bound' if outcome == 'Certified' else 'EXCEEDS BOUND'})"
        )
    return 1 if outcome == "Fail" else 0


_SELF_SIMILAR_KINDS = {kind.lower(): kind for kind in _SCALING_RHO}


def _cmd_selfsim(args, values: dict, numerics: dict) -> int:
    kind = _SELF_SIMILAR_KINDS[args.kind]
    point = _grid(values)
    if "alpha" in point or "rho" in point:
        raise UsageError("selfsim derives alpha from the kind; do not pass alpha or rho")
    point["alpha"] = _scaling_alpha(kind, point["m"], point["beta"])
    params = make_params(**point)
    spec = SelfSimilarSpec(kind=kind, params=params, T=args.T)
    out = _output_dir(values)
    profile = solve_profile(params, **numerics)
    if profile.status.kind != "Global":
        st = profile.status
        print(f"profile is not global ({st.kind} at r = {st.radius:.6g}); cannot evaluate",
              file=sys.stderr)
        return 1
    xs = np.linspace(0.0, args.x_max, args.samples)
    u = _self_similar_u(spec, profile, np.abs(xs), args.t)
    _write_csv(out / "selfsim.csv", "x,t,u", (xs, np.full_like(xs, args.t), u))
    print(f"{kind} solution at t = {args.t:.6g}: {len(xs)} samples -> {out}")
    return 0


def _sweep_point(point: dict, numerics: dict) -> dict:
    """One grid point: verify, or certify in the blow-up regime.

    Returns a complete row; any exception is captured in the error column
    so a bad point never aborts the sweep."""
    row = {col: "" for col in SWEEP_COLUMNS}
    for key, value in point.items():
        row[key] = str(value) if key == "n" else _fmt(value)
    try:
        params = make_params(**point)
        row["alpha"] = _fmt(params.alpha)
        if params.rho is not None:
            row["rho"] = _fmt(params.rho)
        cls = classify(params)
        row.update(variant=cls.variant, validity=cls.validity)

        if _blowup_regime(params):
            cert, status, row["overall"] = _certify(params, numerics)
            row["status"] = status.kind
            if status.kind == "BlowUp":
                row["blowup_radius"] = _fmt(status.radius)
                if cert.radius_bound is not None:
                    row["blowup_bound"] = _fmt(cert.radius_bound)
            return row

        report = verify(params, **numerics)
        row["status"] = "Global"
        row["overall"] = report.overall
        for name in LIMIT_COLUMNS:
            if name in report.observed:
                row[name] = _fmt(report.observed[name].value)
    except Exception as exc:
        row["status"] = row["status"] or "Error"
        row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def _csv_field(text: str) -> str:
    """csv's minimal quoting: a field holding a comma, a quote, CR or LF is
    quoted, its quotes doubled; every other field is written as is."""
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def _cmd_sweep(args, values: dict, numerics: dict) -> int:
    out = _output_dir(values)
    grids = _grid(values, sweep=True)
    if "rho" not in grids and "alpha" not in grids:
        raise UsageError("one of rho or alpha must be supplied")

    points = [dict(zip(grids, combo)) for combo in product(*grids.values())]
    rows = [_sweep_point(point, numerics) for point in points]

    with open(out / "sweep.csv", "w") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        for row in rows:
            fh.write(",".join(_csv_field(row[col]) for col in SWEEP_COLUMNS) + "\n")

    n_pass = sum(r["overall"] in ("Pass", "Certified", "Detected") for r in rows)
    n_inc = sum(r["overall"] == "Inconclusive" for r in rows)
    n_fail = sum(r["overall"] == "Fail" for r in rows)
    n_err = sum(bool(r["error"]) for r in rows)
    print(f"{len(rows)} points: {n_pass} ok, {n_inc} inconclusive, {n_fail} Fail, "
          f"{n_err} errors -> {out}")
    return 0 if n_fail == 0 and n_err == 0 else 1


_COMMANDS = {"solve": _cmd_solve, "geometry": _cmd_geometry, "verify": _cmd_verify,
             "certify-blowup": _cmd_certify_blowup, "sweep": _cmd_sweep, "selfsim": _cmd_selfsim}


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    for key in PARAM_KEYS + NUMERIC_KEYS + ("config",) + OUTPUT_KEYS:
        kind = float if key in NUMERIC_KEYS else None  # parameters: text, parsed by _grid
        common.add_argument("--" + key.replace("_", "-"), type=kind)

    selfsim = argparse.ArgumentParser(add_help=False)  # ahead of the shared flags in help
    selfsim.add_argument("--kind", required=True, choices=sorted(_SELF_SIMILAR_KINDS))
    selfsim.add_argument("--T", type=float, default=None)
    selfsim.add_argument("--t", type=float, default=1.0)
    selfsim.add_argument("--x-max", dest="x_max", type=float, default=10.0)
    selfsim.add_argument("--samples", type=int, default=201)

    parser = argparse.ArgumentParser(
        prog="yamabelab",
        description="Radial self-similar profiles: solve, curvature, verification, blow-up certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in _COMMANDS.items():
        sp = sub.add_parser(name, parents=[selfsim, common] if name == "selfsim" else [common])
        # Python 3.11's argparse takes only -1 and -1.5 for negative numbers, so --alpha -1e-3
        # or --rho -1,0 read as a missing value; this is 3.13's rule.  parents= does not copy it.
        sp._negative_number_matcher = re.compile(r"-\.?\d")
        sp.set_defaults(func=handler)
    return parser


def run(argv=None) -> int:
    """Dispatch argv to its subcommand; returns the exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
    try:
        return args.func(args, *_settings(args))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())
