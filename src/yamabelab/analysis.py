"""Asymptotic verification: observed limits vs closed-form targets, plus the
invariant battery.

Limits are estimated by a Cauchy-tail criterion (value at the largest radius
plus the oscillation width over the last decade); no convergence rate is
assumed.  Verdicts are three-valued: Pass when the observed value is within
5% of the target, Inconclusive when it is not but the tail has visibly not
settled, Fail otherwise.  Strict pointwise inequalities get a 1e-6 relative
slack; any violation beyond that marks the whole report Fail.

Reports are plain data; verify() is a pure function of (params, numerics),
so identical inputs give identical reports.  report_to_json writes them as
compact JSON with sorted keys, byte-stable for a given report: no indent,
since an indent sends json.dumps to its pure-Python encoder instead of the C
one (about 3x slower on a report).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core_params import SolitonParams, TheoreticalPredictions, _blowup_regime, _require_soliton
from .core_params import blowup_certificate, classify, predictions
from .geometry import GeometryCurves, _psi_s_and_R, compute_geometry
from .profile_solver import RadialProfile, _fields, _w_tilde, solve_profile

__all__ = [
    "LimitEstimate",
    "InvariantRecord",
    "AsymptoticReport",
    "estimate_limits",
    "invariant_battery",
    "w_equation_defect",
    "verify",
    "report_to_json",
]

STRICT_SLACK = 1e-6      # relative slack on strict pointwise inequalities
LIMIT_TOLERANCE = 0.05   # relative tolerance on limit values at the tail


@dataclass(frozen=True)
class LimitEstimate:
    value: float
    tail_width: float  # max minus min over the last decade of radii
    converged: bool    # tail width below 10x the integration tolerance


@dataclass(frozen=True)
class InvariantRecord:
    name: str
    applicable: bool
    margin: float      # normalized violation; <= threshold means satisfied
    location: float    # radius of the worst point
    threshold: float
    ok: bool


@dataclass(frozen=True)
class Verdict:
    verdict: str       # Pass | Fail | Inconclusive
    rel_err: float | None


@dataclass(frozen=True)
class AsymptoticReport:
    params: SolitonParams
    variant: str
    validity: str
    observed: dict
    predicted: TheoreticalPredictions
    verdicts: dict
    invariant_log: tuple
    overall: str  # Pass | Inconclusive | Fail


def estimate_limits(curves: GeometryCurves, profile: RadialProfile) -> dict:
    """Tail values and Cauchy widths for the tracked quantities.

    Needs a Global profile reaching r >= 100 so a last-decade window exists
    away from the core."""
    if profile.status.kind != "Global":
        raise ValueError(f"limits need a Global profile, got {profile.status.kind}")
    r = profile.r
    if r[-1] < 100.0:
        raise ValueError("limits need a profile reaching r >= 100")
    tail = r >= r[-1] / 10.0

    quantities = {
        "w": curves.w,
        "R": curves.R,
        "K0": curves.K0,
        "K1": curves.K1,
        "rvp_over_v": profile.q,
    }
    safe_log = np.log(np.maximum(r, np.e))  # w/log r only meaningful at large r
    quantities["w_over_logr"] = curves.w / safe_log
    k = profile.params.k
    if k is not None:
        quantities["r2v2k"] = r * r * profile.v ** (2.0 * k)

    out = {}
    for name, curve in quantities.items():
        window = curve[tail]
        value = float(curve[-1])
        width = float(np.max(window) - np.min(window))
        converged = width <= 10.0 * profile.rtol * max(abs(value), 1e-300)
        out[name] = LimitEstimate(value=value, tail_width=width, converged=converged)
    return out


def _sup(a: np.ndarray) -> float:
    return max(float(np.max(np.abs(a))), 1e-300)


def _worst(values: np.ndarray, r: np.ndarray) -> tuple[float, float]:
    i = int(np.argmax(values))
    return float(values[i]), float(r[i])


def _range_margin(x: np.ndarray, low: float, high: float, scale: float, r: np.ndarray) -> tuple:
    # low <= x <= high: the worse of the two sides, and where
    hi = (np.max(x) - high) / scale
    lo = (low - np.min(x)) / scale
    return (hi, r[int(np.argmax(x))]) if hi >= lo else (lo, r[int(np.argmin(x))])


def _record(name, applicable, margin_of, threshold=STRICT_SLACK):
    margin, location = map(float, margin_of()) if applicable else (0.0, 0.0)
    return InvariantRecord(
        name=name,
        applicable=bool(applicable),
        margin=margin,
        location=location,
        threshold=threshold,
        ok=(not applicable) or margin <= threshold,
    )


def invariant_battery(profile: RadialProfile, curves: GeometryCurves | None) -> tuple:
    """Every pointwise monitor, with normalized margins and worst locations.

    Monitors that do not apply to the regime are recorded as not applicable
    rather than silently dropped.  One row per monitor, in report order:
    (name, applies, margin thunk -> (margin, radius)[, threshold])."""
    p = profile.params
    n, m, alpha, beta = p.n, p.m, p.alpha, p.beta
    r, v, dv, q, w = profile.r, profile.v, profile.dv, profile.q, profile.w

    ratio_ok = beta != 0.0 and m * alpha / beta <= (n - 2)
    neg_guard = alpha < 0.0 and ratio_ok
    pos_guard = alpha > 0.0 and (ratio_ok or alpha >= n * beta)
    signed = pos_guard or neg_guard  # alpha != 0 there, so k = beta/alpha exists
    w_global = alpha > 0.0 and alpha >= n * beta
    cls = classify(p)
    covered = cls.validity == "CoveredByTheorems"
    shrinking = cls.variant == "Shrinking"
    geo = covered and curves is not None
    lim = 2.0 / (1.0 - m)
    top = alpha * (1.0 - m)
    blowup = profile.status.kind == "BlowUp" and _blowup_regime(p)
    bound = blowup_certificate(p).radius_bound if blowup else None
    r_star = profile.status.radius

    monitors = (
        ("v-positive", True, lambda: (-np.min(v) / p.eta, r[int(np.argmin(v))])),
        ("dv-sign", signed, lambda: _worst((dv if pos_guard else -dv) / _sup(dv), r)),
        ("v-plus-krv-positive", signed, lambda: _worst(-(1.0 + p.k * q), r)),
        ("w-upper-global", w_global,
         lambda: _worst(w / (2.0 * n * (n - 1) / (alpha * (1.0 - m))) - 1.0, r)),
        ("w-q-combo", w_global, lambda: _worst(((alpha / (n * (n - 1))) * w + q) / _sup(q), r)),
        ("w-upper-shrinking", covered and shrinking,
         lambda: _worst(w / ((n - 1) * (n - 2) / p.rho) - 1.0, r)),
        ("rvp-range", covered, lambda: _range_margin(q, -lim, 0.0, lim, r)),
        ("psi-range", covered, lambda: _range_margin(_psi_s_and_R(p, q)[0], 0.0, 1.0, 1.0, r)),
        ("K0-positive", geo, lambda: _worst(-curves.K0 / _sup(curves.K0), r)),
        ("K1-positive", geo, lambda: _worst(-curves.K1 / _sup(curves.K1), r)),
        ("R-range", geo and alpha > 0.0, lambda: _range_margin(curves.R, 0.0, top, top, r)),
        ("R-monotone", geo, lambda: _worst_step(curves.R, r, 1.0)),
        ("w-monotone", geo, lambda: _worst_step(curves.w, r, -1.0)),
        ("wss-tail-vanishing", geo and shrinking, lambda: _a3_tail_margin(r, curves.w), 0.05),
        ("blowup-soundness", bound is not None, lambda: (r_star / bound - 1.0, r_star)),
    )
    return tuple(_record(*row) for row in monitors)


def _worst_step(y: np.ndarray, r: np.ndarray, sign: float) -> tuple[float, float]:
    # largest step of y between grid neighbours in the forbidden direction
    # (sign +1: rises, -1: falls), relative to the largest step
    d = np.diff(y)
    return _worst(sign * d / _sup(d), r[1:])


def _a3_tail_margin(r: np.ndarray, w: np.ndarray) -> tuple[float, float]:
    # second log-radius derivative of w must die out along the tail
    s = np.log(r)
    hl = s[1:-1] - s[:-2]
    hr = s[2:] - s[1:-1]
    wss = 2.0 * (w[:-2] * hr - w[1:-1] * (hl + hr) + w[2:] * hl) / (hl * hr * (hl + hr))
    tail = r[1:-1] >= r[-1] / 10.0
    vals = np.abs(wss[tail]) / _sup(wss)
    i = int(np.argmax(vals))
    return float(vals[i]), float(r[1:-1][tail][i])


def w_equation_defect(
    profile: RadialProfile,
    s_span: tuple[float, float] = (np.log(0.1), np.log(100.0)),
    num_points: int = 1400,
) -> float:
    """Finite-difference defect of the autonomous log-radius equation on a
    uniform s grid: a check that the stored profile also satisfies the
    equation the log-radius variable w~ = r^2 v^(1-m) obeys, written here in
    w~ itself, apart from the W = log w~ form the profile's alpha, beta > 0
    tail is solved on (profile_solver._log_wpp).

    (v, v') are read from the profile by value_at, so the defect measures the
    profile as stored: the O(h^2) truncation of the central difference plus
    the profile's own error, which shows at a loose rtol (expand, 2799
    points: 1.02e-6 at rtol 1e-9, 1.04e-6 at 1e-8, 5.13e-6 at 1e-6).  w~
    and w~_s are exact algebra in (v, v'); only w~_ss is differenced, so
    halving the spacing shrinks the defect about fourfold."""
    p = profile.params
    _require_soliton(p, "the log-radius equation")
    if num_points < 3:
        raise ValueError(f"num_points must be at least 3, got {num_points!r}")
    n, m, beta, rho = p.n, p.m, p.beta, p.rho
    one_m = 1.0 - m
    s = np.linspace(s_span[0], s_span[1], num_points)
    r = np.exp(s)
    if r[-1] > profile.r[-1]:
        raise ValueError("s_span reaches beyond the profile grid")
    v, dv = profile.value_at(r, derivative=True)
    wt, ws = _w_tilde(m, r, v, dv)
    h = s[1] - s[0]
    wss = (ws[2:] - ws[:-2]) / (2.0 * h)
    wm, wsm = wt[1:-1], ws[1:-1]
    rhs = (
        (1.0 - 2.0 * m) / one_m * wsm * wsm / wm
        - beta / (n - 1) * wm * wsm
        - rho / (n - 1) * wm * wm
        + 2.0 * (n - 2 - n * m) / one_m * wm
    )
    return float(np.max(np.abs(wss - rhs)) / max(np.max(np.abs(rhs)), 1e-300))


def _verdict(pred: float, est: LimitEstimate, curve_scale: float) -> Verdict:
    denom = max(abs(pred), 0.1 * curve_scale, 1e-12)
    rel_err = abs(est.value - pred) / denom
    if rel_err < LIMIT_TOLERANCE:
        return Verdict("Pass", rel_err)
    # Fail asserts a settled contradiction: the last decade's drift must be
    # well under the remaining gap, otherwise the curve may still be heading
    # for the target and the honest answer is Inconclusive.
    if est.tail_width <= 0.1 * abs(est.value - pred):
        return Verdict("Fail", rel_err)
    return Verdict("Inconclusive", rel_err)


def verify(params: SolitonParams, r_max: float = 1e4, **numerics) -> AsymptoticReport:
    """solve -> geometry -> limits -> verdicts -> battery, aggregated.

    numerics (rtol, atol, r0_scale) go to solve_profile as given, so its
    defaults apply.  Refuses the certified blow-up regime (alpha < 0,
    beta <= 0); that path goes through the certificate plus blow-up
    detection instead."""
    if _blowup_regime(params):
        raise ValueError(
            "no global solution exists for alpha < 0, beta <= 0; use the blow-up certificate path"
        )
    _require_soliton(params, "verification")
    cls = classify(params)
    profile = solve_profile(params, r_max, **numerics)
    if profile.status.kind != "Global":
        raise RuntimeError(
            f"solver did not reach r_max: {profile.status.kind} at r = {profile.status.radius}"
        )
    curves = compute_geometry(profile)
    observed = estimate_limits(curves, profile)
    pred = predictions(params, strict=False)

    sup = lambda a: float(np.max(np.abs(a)))
    pred_map = {
        "w": (pred.w_limit, sup(curves.w)),
        "R": (pred.R_limit, sup(curves.R)),
        "K0": (pred.K0_limit, sup(curves.K0)),
        "K1": (pred.K1_limit, sup(curves.K1)),
        "rvp_over_v": (pred.rvp_over_v_limit, sup(profile.q)),
        "w_over_logr": (pred.w_over_logr_limit, sup(curves.w)),
    }
    verdicts = {}
    for name, (target, scale) in pred_map.items():
        if target is not None and name in observed:
            verdicts[name] = _verdict(target, observed[name], scale)
    if "r2v2k" in observed and pred.r2v2k_limit_exists:
        est = observed["r2v2k"]
        rel_width = est.tail_width / max(abs(est.value), 1e-300)
        verdicts["r2v2k"] = Verdict(
            "Pass" if rel_width < LIMIT_TOLERANCE else "Inconclusive", rel_width
        )

    log = invariant_battery(profile, curves)
    bad_invariant = any(not rec.ok for rec in log)
    bad_verdict = any(v.verdict == "Fail" for v in verdicts.values())
    undecided = any(v.verdict == "Inconclusive" for v in verdicts.values())
    if bad_invariant or bad_verdict:
        overall = "Fail"
    elif undecided:
        overall = "Inconclusive"
    else:
        overall = "Pass"

    return AsymptoticReport(
        params=params,
        variant=cls.variant,
        validity=cls.validity,
        observed=observed,
        predicted=pred,
        verdicts=verdicts,
        invariant_log=log,
        overall=overall,
    )


def report_to_json(report: AsymptoticReport) -> str:
    """The report as one line of compact JSON with sorted keys, so the same
    report always gives the same bytes.  One dict per record, with no deep
    copy, and no indent, which keeps json.dumps on its C encoder."""
    doc = {
        "params": _fields(report.params),
        "variant": report.variant,
        "validity": report.validity,
        "observed": {name: _fields(est) for name, est in report.observed.items()},
        "predicted": _fields(report.predicted),
        "verdicts": {name: _fields(v) for name, v in report.verdicts.items()},
        "invariants": [_fields(rec) for rec in report.invariant_log],
        "overall": report.overall,
    }
    return json.dumps(doc, sort_keys=True)
