"""Limit estimation, the invariant battery, verdict aggregation, report
serialization, and the refusal paths of verify()."""

import json

import numpy as np
import pytest

import yamabelab as yl

# report order: the order of report.json's invariants list
MONITORS = (
    "v-positive",
    "dv-sign",
    "v-plus-krv-positive",
    "w-upper-global",
    "w-q-combo",
    "w-upper-shrinking",
    "rvp-range",
    "psi-range",
    "K0-positive",
    "K1-positive",
    "R-range",
    "R-monotone",
    "w-monotone",
    "wss-tail-vanishing",
    "blowup-soundness",
)


def test_estimate_limits_keys_and_values(shrink3_profile, shrink3_geometry):
    est = yl.estimate_limits(shrink3_geometry, shrink3_profile)
    expected = {"w", "R", "K0", "K1", "rvp_over_v", "w_over_logr", "r2v2k"}
    assert set(est) == expected  # k = beta/alpha exists, so r2v2k is present
    assert est["w"].value == pytest.approx(2.0, rel=0.05)
    assert est["R"].value == pytest.approx(1.0, rel=0.05)
    assert est["rvp_over_v"].value == pytest.approx(-2.5, rel=0.05)
    assert est["w"].tail_width < 0.1


def test_estimate_limits_guards(shrink3_geometry, shrink3_profile):
    p = yl.make_params(n=3, m=0.2, beta=1.0, rho=1.0, eta=1.0)
    short = yl.solve_profile(p, r_max=50.0, rtol=1e-9)
    with pytest.raises(ValueError, match="r >= 100"):
        yl.estimate_limits(yl.compute_geometry(short), short)
    blown = yl.solve_profile(
        yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=-1.0), r_max=10.0
    )
    with pytest.raises(ValueError, match="Global"):
        yl.estimate_limits(shrink3_geometry, blown)


def test_battery_covers_every_monitor(shrink3_profile, shrink3_geometry):
    records = yl.invariant_battery(shrink3_profile, shrink3_geometry)
    assert [rec.name for rec in records] == list(MONITORS)
    by_name = {rec.name: rec for rec in records}
    assert by_name["v-positive"].applicable and by_name["v-positive"].ok
    # boundary shrinking run is outside the theorems: covered-regime
    # monitors must be recorded as not applicable, not silently passed
    for name in ("w-upper-shrinking", "rvp-range", "psi-range", "K0-positive"):
        assert not by_name[name].applicable
        assert by_name[name].ok


def test_battery_clean_on_covered_steady_and_expanding(
    steady_profile, steady_geometry, expand_profile, expand_geometry
):
    for prof, geo in ((steady_profile, steady_geometry), (expand_profile, expand_geometry)):
        records = yl.invariant_battery(prof, geo)
        bad = [rec.name for rec in records if rec.applicable and not rec.ok]
        assert bad == []


def test_battery_flags_covered_shrinking_overshoot(shrink5_profile, shrink5_geometry):
    # the covered n=5 run approaches its limit through a damped oscillation;
    # the overshoot is a real violation of the strict pointwise statements
    records = yl.invariant_battery(shrink5_profile, shrink5_geometry)
    bad = {rec.name for rec in records if rec.applicable and not rec.ok}
    assert "w-upper-shrinking" in bad
    assert "rvp-range" in bad


def test_battery_blowup_soundness():
    p = yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=-1.0)
    prof = yl.solve_profile(p, r_max=10.0, rtol=1e-9)
    records = yl.invariant_battery(prof, None)
    by_name = {rec.name: rec for rec in records}
    rec = by_name["blowup-soundness"]
    assert rec.applicable and rec.ok


def test_verify_refusals():
    blowup = yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=-1.0)
    with pytest.raises(ValueError, match="blow-up certificate"):
        yl.verify(blowup)
    general = yl.make_params(n=3, m=0.15, beta=1.0, eta=1.0, alpha=1.0)
    with pytest.raises(ValueError, match="soliton"):
        yl.verify(general)


def test_verify_expanding_passes(expand_params):
    report = yl.verify(expand_params)
    assert report.variant == "Expanding"
    assert report.validity == "CoveredByTheorems"
    assert report.overall == "Pass"
    assert report.verdicts["rvp_over_v"].verdict == "Pass"
    assert report.verdicts["r2v2k"].verdict == "Pass"
    assert all(v.verdict == "Pass" for v in report.verdicts.values())


def test_verify_steady_is_inconclusive_not_fail(steady_params):
    # w/log r converges too slowly to settle by r = 1e4; the honest verdict
    # is Inconclusive, and no battery violation upgrades it to Fail
    report = yl.verify(steady_params)
    assert report.overall == "Inconclusive"
    assert all(rec.ok for rec in report.invariant_log)
    assert report.verdicts["w_over_logr"].verdict == "Inconclusive"


def test_verify_covered_shrinking_fails_on_battery(shrink5_params):
    report = yl.verify(shrink5_params)
    assert report.overall == "Fail"
    # the asymptotic verdicts themselves all pass; the failure comes from
    # the strict pointwise battery
    assert all(v.verdict == "Pass" for v in report.verdicts.values())
    assert any(not rec.ok for rec in report.invariant_log)


def test_verify_boundary_shrinking_passes(shrink3_params):
    report = yl.verify(shrink3_params)
    assert report.validity == "OutsideTheorems"
    assert report.overall == "Pass"
    assert report.verdicts["w"].verdict == "Pass"


def test_verify_is_deterministic(expand_params):
    a = yl.report_to_json(yl.verify(expand_params))
    b = yl.report_to_json(yl.verify(expand_params))
    assert a == b


def test_report_json_shape(expand_params):
    report = yl.verify(expand_params)
    doc = json.loads(yl.report_to_json(report))
    assert set(doc) == {
        "params",
        "variant",
        "validity",
        "observed",
        "predicted",
        "verdicts",
        "invariants",
        "overall",
    }
    assert doc["overall"] in {"Pass", "Inconclusive", "Fail"}
    assert doc["params"]["alpha"] == 1.25
    assert [rec["name"] for rec in doc["invariants"]] == list(MONITORS)
    for rec in doc["invariants"]:
        assert set(rec) == {"name", "applicable", "margin", "location", "threshold", "ok"}
    # compact, with sorted keys, so the document is byte-stable
    assert yl.report_to_json(report) == json.dumps(doc, sort_keys=True)


def test_verdict_fails_a_settled_contradiction():
    # Fail needs the last decade's drift under a tenth of the gap to the
    # target; a wider drift leaves the curve free to head for it
    from yamabelab.analysis import LimitEstimate, _verdict

    settled = LimitEstimate(value=2.0, tail_width=0.05, converged=False)
    assert _verdict(1.0, settled, 2.0).verdict == "Fail"
    drifting = LimitEstimate(value=2.0, tail_width=0.2, converged=False)
    assert _verdict(1.0, drifting, 2.0).verdict == "Inconclusive"
    assert _verdict(2.05, settled, 2.0).verdict == "Pass"


def test_verify_fails_on_a_failed_verdict(expand_params, monkeypatch):
    # the expanding run passes everything; against a target r v'/v it
    # settled far from (-1 for -1.25, over a last-decade drift of 7e-4), that
    # verdict is Fail, and so is the report, with every invariant ok
    from dataclasses import replace

    from yamabelab import analysis

    real = analysis.predictions

    def off_target(*args, **kwargs):
        return replace(real(*args, **kwargs), rvp_over_v_limit=-1.0)

    monkeypatch.setattr(analysis, "predictions", off_target)
    report = yl.verify(expand_params)
    assert report.verdicts["rvp_over_v"].verdict == "Fail"
    assert all(rec.ok for rec in report.invariant_log)
    assert report.overall == "Fail"
