"""Solver behavior: series start, statuses, blow-up detection, the step
budget, residual checks (including fault injection), serialization
round-trips, and the integration kernel, the Hermite evaluation and the
event root against scipy's integrators, spline and brentq."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import yamabelab as yl
from conftest import perturb_profile
from yamabelab import profile_solver as ps


def test_series_start_matches_equation_coefficient():
    p = yl.make_params(n=3, m=0.2, beta=1.0, rho=1.0, eta=1.0)
    v2 = -p.alpha * 1.0 / (3 * 2)  # eta = 1 so eta^(2-m) = 1
    v0, dv0 = yl.series_start(p, 1e-4)
    assert v0 == pytest.approx(1.0 + 0.5 * v2 * 1e-8, rel=1e-15)
    assert dv0 == pytest.approx(v2 * 1e-4, rel=1e-15)
    with pytest.raises(ValueError, match="r0 must be positive"):
        yl.series_start(p, 0.0)


def test_grid_structure(shrink3_profile):
    prof = shrink3_profile
    assert np.all(np.diff(prof.r) > 0.0)
    assert np.all(prof.v > 0.0)
    assert prof.status.kind == "Global"
    assert prof.status.radius == 1e4
    # series start radius r0 = r0_scale * eta^((m-1)/2)
    assert prof.r0 == pytest.approx(1e-6, rel=1e-12)
    # v'(0) = 0 forces dv = O(r0) at the first grid point
    v2 = abs(prof.params.alpha) / (3 * 2)
    assert abs(prof.dv[0]) <= 10.0 * v2 * prof.r0
    # the accepted integrator steps are a subset of the stored grid
    si = prof.step_indices
    assert np.all(np.diff(si) > 0)
    assert si[0] == 0 and si[-1] < len(prof.r)


def test_constant_solution_is_exact():
    p = yl.make_params(n=3, m=0.2, beta=0.0, eta=2.5, alpha=0.0)
    prof = yl.solve_profile(p, r_max=100.0, rtol=1e-9)
    assert prof.status.kind == "Global"
    assert np.all(prof.v == 2.5)
    assert np.all(prof.dv == 0.0)
    rep = yl.residuals(prof)
    assert rep.max_ode_residual == 0.0
    assert rep.max_integral_residual == 0.0


def test_blowup_detection_case2():
    p = yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=-1.0)
    prof = yl.solve_profile(p, r_max=100.0, rtol=1e-9)
    cert = yl.blowup_certificate(p)
    assert prof.status.kind == "BlowUp"
    assert prof.status.radius <= cert.radius_bound * (1.0 + 1e-6)
    # v must actually have grown to the cap
    assert prof.v[-1] > 1e11


def test_blowup_detection_case1():
    p = yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=-4.0)
    prof = yl.solve_profile(p, r_max=100.0, rtol=1e-9)
    cert = yl.blowup_certificate(p)
    assert prof.status.kind == "BlowUp"
    assert prof.status.radius <= cert.radius_bound * (1.0 + 1e-6)


def test_blowup_detection_case3_uncertified():
    p = yl.make_params(n=3, m=0.2, beta=0.0, eta=1.0, alpha=-1.0)
    prof = yl.solve_profile(p, r_max=100.0, rtol=1e-9)
    assert prof.status.kind == "BlowUp"
    assert math.isfinite(prof.status.radius)
    assert prof.status.radius < 100.0


def test_residuals_on_reference(shrink3_profile):
    rep = yl.residuals(shrink3_profile)
    assert rep.grid_points == len(shrink3_profile.r)
    assert rep.max_ode_residual < 1e-6
    assert rep.max_integral_residual < 1e-6


def test_residuals_detect_corruption(shrink3_profile):
    clean = yl.residuals(shrink3_profile)
    si = shrink3_profile.step_indices

    # a 1 ppm bump where the solution still has scale: the reconstructed
    # second derivative through that point blows the pointwise residual up
    bad = perturb_profile(shrink3_profile, int(si[len(si) // 4]), 1.0 + 1e-6)
    rep = yl.residuals(bad)
    assert rep.max_ode_residual > 100.0 * clean.max_ode_residual

    # deep in the tail the pointwise residual is floor-dominated and blind,
    # but the integral identity accumulates the defect and still fires
    bad_tail = perturb_profile(shrink3_profile, int(si[3 * len(si) // 4]), 1.0 + 1e-4)
    rep_tail = yl.residuals(bad_tail)
    assert rep_tail.max_integral_residual > 100.0 * clean.max_integral_residual


def test_value_at_series_and_interpolation(shrink3_profile):
    prof = shrink3_profile
    # below r0 the even series applies; at 0 it returns eta exactly
    assert prof.value_at(0.0) == prof.params.eta
    v, dv = prof.value_at(0.0, derivative=True)
    assert v == prof.params.eta and dv == 0.0
    # on-grid points reproduce stored values
    k = len(prof.r) // 3
    assert prof.value_at(prof.r[k]) == pytest.approx(prof.v[k], rel=1e-12)
    # vectorized call with derivatives
    rq = np.array([0.5, 1.0, 2.0])
    vq, dvq = prof.value_at(rq, derivative=True)
    assert vq.shape == rq.shape and dvq.shape == rq.shape
    with pytest.raises(ValueError, match="no extrapolation"):
        prof.value_at(prof.r[-1] * 1.5)
    with pytest.raises(ValueError, match="nonnegative"):
        prof.value_at(-1.0)
    for bad in (math.nan, math.inf, np.array([1.0, math.nan])):
        for derivative in (False, True):
            with pytest.raises(ValueError, match="finite"):
                prof.value_at(bad, derivative=derivative)


def _ulps(got, ref):
    """|got - ref| in units of the spacing of floats at ref."""
    return np.abs(np.asarray(got) - ref) / np.spacing(np.abs(ref))


@pytest.mark.parametrize("name", ["shrink3", "shrink5", "expand", "negcurv"])
def test_value_at_matches_scipy_spline(request, name):
    from scipy.interpolate import CubicHermiteSpline

    prof = request.getfixturevalue(f"{name}_profile")
    spline = CubicHermiteSpline(prof.r, prof.v, prof.dv)
    rng = np.random.default_rng(7)
    radii = np.concatenate((
        np.exp(rng.uniform(math.log(prof.r0), math.log(prof.r[-1]), 2000)),
        prof.r[::7],
        [prof.r0, prof.r[-1]],
    ))
    v, dv = prof.value_at(radii, derivative=True)
    worst = max(np.max(_ulps(v, spline(radii))), np.max(_ulps(dv, spline(radii, 1))))
    for x in radii[::97]:
        vx, dvx = prof.value_at(x, derivative=True)
        assert prof.value_at(x) == vx
        worst = max(worst, _ulps(vx, spline(x)), _ulps(dvx, spline(x, 1)))
    assert worst <= 4.0


def test_profile_constructor_guards():
    p = yl.make_params(n=3, m=0.2, beta=1.0, rho=1.0, eta=1.0)
    status = yl.ProfileStatus("Global", 1.0)
    r = np.array([0.1, 0.2, 0.2])
    ones = np.ones(3)
    with pytest.raises(ValueError, match="strictly increasing"):
        yl.RadialProfile(p, r, ones, ones, status, 1e-9, 1e-12, np.array([0]))
    r = np.array([0.1, 0.2, 0.3])
    v = np.array([1.0, -1.0, 1.0])
    with pytest.raises(ValueError, match="positive"):
        yl.RadialProfile(p, r, v, ones, status, 1e-9, 1e-12, np.array([0]))


def test_solve_profile_input_validation():
    p = yl.make_params(n=3, m=0.2, beta=1.0, rho=1.0, eta=1.0)
    with pytest.raises(ValueError, match="r_max must be positive"):
        yl.solve_profile(p, r_max=-1.0)
    with pytest.raises(ValueError, match="below r_max"):
        yl.solve_profile(p, r_max=1e-9)
    # unchecked, atol < 0 ends in a wrong Global, rtol < 0 runs silently at
    # 100 eps, rtol = nan raises IndexError and r_max = inf ends in StepFailure
    for numerics, name in (
        ({"atol": -1.0}, "atol"),
        ({"rtol": -1.0}, "rtol"),
        ({"rtol": math.nan}, "rtol"),
        ({"r_max": math.inf}, "r_max"),
        ({"r0_scale": 0.0}, "r0_scale"),
    ):
        kwargs = {"r_max": 1e3, **numerics}
        with pytest.raises(ValueError, match=f"^{name} must be positive and finite"):
            yl.solve_profile(p, **kwargs)
    with pytest.raises(ValueError, match="rtol must be positive and finite"):
        yl.verify(p, rtol=-1.0)
    with pytest.raises(ValueError, match="invalid parameters: dimension"):
        yl.SolitonParams(n=2, m=0.2, alpha=1.0, beta=0.0, eta=1.0)


def test_profile_arrays_are_readonly(shrink3_profile):
    with pytest.raises(ValueError):
        shrink3_profile.v[0] = 2.0
    with pytest.raises(ValueError):
        shrink3_profile.r[0] = 2.0


def test_csv_json_roundtrip(tmp_path, shrink3_profile):
    csv_path = tmp_path / "profile.csv"
    json_path = tmp_path / "profile.json"
    yl.write_profile_csv(shrink3_profile, csv_path)
    yl.write_profile_json(shrink3_profile, json_path)
    back = yl.load_profile(csv_path, json_path)
    # 17 significant digits reproduce doubles bit for bit
    assert np.array_equal(back.r, shrink3_profile.r)
    assert np.array_equal(back.v, shrink3_profile.v)
    assert np.array_equal(back.dv, shrink3_profile.dv)
    assert back.status == shrink3_profile.status
    assert back.rtol == shrink3_profile.rtol
    assert back.atol == shrink3_profile.atol
    assert np.array_equal(back.step_indices, shrink3_profile.step_indices)
    assert back.params == shrink3_profile.params


def test_solving_is_deterministic():
    p = yl.make_params(n=3, m=0.2, beta=1.0, rho=1.0, eta=1.0)
    a = yl.solve_profile(p, r_max=50.0, rtol=1e-9)
    b = yl.solve_profile(p, r_max=50.0, rtol=1e-9)
    assert np.array_equal(a.r, b.r)
    assert np.array_equal(a.v, b.v)
    assert np.array_equal(a.dv, b.dv)


def test_negative_curvature_regime_stays_global(negcurv_profile):
    assert negcurv_profile.status.kind == "Global"
    # alpha < 0 forces growth: v increases from eta
    assert negcurv_profile.v[-1] > negcurv_profile.params.eta


def _scipy_solve(profile, r_end, method, rtol, **options):
    """solve_ivp on the profile equation from the series start of profile,
    with its own right-hand side as an independent reference."""
    p = profile.params
    n, m, alpha, beta = p.n, p.m, p.alpha, p.beta

    def rhs(r, y):
        v, dv = y
        if v <= 0.0:
            return [dv, np.nan]
        vpp = (
            -(m - 1.0) * dv * dv / v
            - (n - 1) * dv / r
            - (alpha * v + beta * r * dv) * v ** (1.0 - m) / (n - 1)
        )
        return [dv, vpp]

    y0 = yl.series_start(p, profile.r0)
    return solve_ivp(
        rhs, (profile.r0, r_end), y0, method=method, rtol=rtol, atol=profile.atol, **options
    )


def _check_against_scipy(n, beta, k, log_eta, r_max):
    p = yl.make_params(n=n, m=yl.soliton_exponent(n), beta=beta, rho=k * beta, eta=10.0**log_eta)
    prof = yl.solve_profile(p, r_max=r_max, rtol=1e-9)
    steps = len(prof.step_indices) - 1
    # steep expanding points (k near -1.5) need more than STEP_BUDGET steps
    # to r_max = 1e5; those runs must stop exactly at the budget
    if prof.status.kind != "Global":
        assert prof.status.kind == "StepFailure" and steps == ps.STEP_BUDGET

    radii = np.array([0.1, 1.0, 10.0])
    v_ref, dv_ref = _scipy_solve(prof, 10.0, "DOP853", 1e-13, t_eval=radii).y
    v, dv = prof.value_at(radii, derivative=True)
    assert np.all(np.abs(v - v_ref) <= 1e-6 * v_ref)
    assert np.all(np.abs(dv - dv_ref) <= 1e-6 * np.abs(dv_ref))

    # same method and controller: the accepted steps match scipy's RK45
    rk45 = _scipy_solve(prof, prof.status.radius, "RK45", prof.rtol)
    assert abs(steps - (len(rk45.t) - 1)) <= 0.02 * steps


_cone = dict(
    n=st.integers(min_value=3, max_value=8),
    beta=st.floats(min_value=0.5, max_value=2.0),
    k=st.floats(min_value=-1.5, max_value=2.0),
    log_eta=st.floats(min_value=-2.0, max_value=2.0),
)


@given(**_cone)
@settings(max_examples=15, deadline=None)
def test_kernel_matches_scipy(n, beta, k, log_eta):
    _check_against_scipy(n, beta, k, log_eta, r_max=100.0)


@pytest.mark.slow
@given(**_cone, log_r_max=st.floats(min_value=1.0, max_value=5.0))
@settings(max_examples=200, deadline=None)
def test_kernel_matches_scipy_wide(n, beta, k, log_eta, log_r_max):
    _check_against_scipy(n, beta, k, log_eta, r_max=10.0**log_r_max)


@pytest.mark.parametrize(
    "alpha, beta", [(-1.0, -1.0), (-4.0, -1.0), (-1.0, 0.0)], ids=["case2", "case1", "case3"]
)
def test_blowup_radius_matches_scipy_event(alpha, beta):
    p = yl.make_params(n=3, m=0.2, beta=beta, eta=1.0, alpha=alpha)
    prof = yl.solve_profile(p, r_max=100.0, rtol=1e-9)
    cap = ps.BLOWUP_CAP * p.eta

    def hit_cap(r, y):
        return y[0] - cap

    hit_cap.terminal = True
    hit_cap.direction = 1
    ref = _scipy_solve(prof, 100.0, "RK45", 1e-9, events=hit_cap)
    assert prof.status.kind == "BlowUp" and ref.status == 1
    assert prof.status.radius == pytest.approx(ref.t_events[0][0], rel=1e-12, abs=0.0)


def _step_quartics(traj, every):
    """(t_old, t_new, v on the step) for every so-many steps of a run."""
    for k in range(0, len(traj.h), every):
        t0, h, y0, q = traj.t[k], traj.h[k], traj.y[:, k], traj.q[:, k]
        yield t0, t0 + h, lambda r: ps._quartic(t0, h, y0, q, r)[0]


@pytest.mark.parametrize(
    "alpha, beta, rho", [(-4.0, -1.0, None), (None, 1.0, 1.0), (None, 1.0, -1.0)],
    ids=["blowup", "shrink3", "expand"],
)
def test_bracketed_root_matches_brentq(alpha, beta, rho):
    from scipy.optimize import brentq

    p = yl.make_params(n=3, m=0.2, beta=beta, rho=rho, alpha=alpha, eta=1.0)
    r0 = 1e-6
    traj = ps._dopri5(
        ps._vpp(p.n, p.m, p.alpha, p.beta), r0, yl.series_start(p, r0), 100.0, 1e-9, 1e-30,
        lambda v, dv: v - ps.BLOWUP_CAP,
    )
    checked = 0
    for a, b, v_of in _step_quartics(traj, max(len(traj.h) // 40, 1)):
        # a level the quartic crosses inside the step, as a rising event;
        # skip steps where 4 eps absolute is not 1e-12 relative or v is
        # flat to roundoff, where neither root is determined that closely
        if a < 1e-2 or abs(v_of(b) - v_of(a)) < 1e-8 * abs(v_of(a)):
            continue
        sign = 1.0 if v_of(b) > v_of(a) else -1.0
        level = v_of(a + 0.37 * (b - a))
        event = lambda r: sign * (v_of(r) - level)
        got = ps._bracketed_root(event, a, b)
        ref = brentq(event, a, b, xtol=4 * ps._EPS, rtol=4 * ps._EPS)
        assert got == pytest.approx(ref, rel=1e-12, abs=0.0)
        checked += 1
    assert checked >= 20


def test_step_budget_ends_in_step_failure(monkeypatch):
    # alpha < 0 < beta stiffens as v grows: 1.58 M steps to r = 40
    monkeypatch.setattr(ps, "STEP_BUDGET", 50_000)
    p = yl.make_params(n=3, m=0.2, beta=1.0, alpha=-4.0, eta=1.0)
    prof = yl.solve_profile(p, r_max=40.0, rtol=1e-9)
    assert prof.status.kind == "StepFailure"
    assert prof.status.radius == prof.r[-1] < 40.0
    assert len(prof.step_indices) == 50_001
    # v is still rising, so a stall here would have counted as blow-up
    assert prof.dv[-1] > 0.0 and prof.v[-1] > p.eta


def test_stall_while_rising_is_blowup(monkeypatch):
    # without the cap the run goes on until the step size underflows
    monkeypatch.setattr(ps, "BLOWUP_CAP", math.inf)
    p = yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=-1.0)
    prof = yl.solve_profile(p, r_max=100.0, rtol=1e-9)
    assert prof.status.kind == "BlowUp"
    assert prof.v[-1] > 1e12 and prof.dv[-1] > 0.0
    assert prof.status.radius == prof.r[-1] <= math.sqrt(15.0)


def test_stall_at_touchdown_is_step_failure_and_rejects_nonpositive_stages(monkeypatch):
    # alpha > 0 > beta drives v down to zero at a finite radius, where
    # every trial step reaches v <= 0 until the step size underflows
    trial_v = []
    real_vpp = ps._vpp

    def recording_vpp(*args):
        f = real_vpp(*args)

        def g(r, v, dv):
            trial_v.append(v)
            return f(r, v, dv)

        return g

    monkeypatch.setattr(ps, "_vpp", recording_vpp)
    p = yl.make_params(n=3, m=0.2, alpha=1.0, beta=-2.5, eta=1.0)
    prof = yl.solve_profile(p, r_max=100.0, rtol=1e-9)
    assert prof.status.kind == "StepFailure"
    assert prof.status.radius == prof.r[-1] < 100.0
    assert prof.dv[-1] < 0.0
    ref = _scipy_solve(prof, 100.0, "RK45", 1e-9)
    assert ref.status == -1
    assert prof.status.radius == pytest.approx(ref.t[-1], rel=1e-12, abs=0.0)
    trial_v = np.array(trial_v)
    assert np.any(trial_v <= 0.0)
    # no rejected stage leaks into the stored profile
    assert np.all(np.isfinite(prof.v)) and np.all(prof.v > 0.0)


def test_positivity_truncation_gives_step_failure(monkeypatch):
    real = ps._dopri5

    def lowered(*args, **kwargs):
        # drop every interpolant by v(1), so the dense output of the
        # decreasing shrinking profile reaches zero at r = 1
        traj = real(*args, **kwargs)
        return traj._replace(y=traj.y - [[traj(np.array([1.0]))[0, 0]], [0.0]])

    monkeypatch.setattr(ps, "_dopri5", lowered)
    p = yl.make_params(n=3, m=yl.soliton_exponent(3), beta=1.0, rho=1.0, eta=1.0)
    prof = yl.solve_profile(p, r_max=100.0, rtol=1e-9)
    assert prof.status.kind == "StepFailure"
    assert prof.status.radius == prof.r[-1] < 1.0
    assert np.all(prof.v > 0.0)
    assert prof.step_indices[-1] < len(prof.r)


def _corrupt_header(csv, doc):
    lines = csv.read_text().splitlines(keepends=True)
    csv.write_text("r,dv,v\n" + "".join(lines[1:]))


def _drop_row(csv, doc):
    lines = csv.read_text().splitlines(keepends=True)
    csv.write_text("".join(lines[:-1]))


def _skip_first_step(csv, doc):
    doc["step_indices"][0] = 1


def _repeat_step(csv, doc):
    doc["step_indices"][2] = doc["step_indices"][1]


def _step_past_grid(csv, doc):
    doc["step_indices"][-1] = doc["grid_points"]


def _negative_eta(csv, doc):
    doc["params"]["eta"] = -1.0


def _dimension_two(csv, doc):
    doc["params"]["n"] = 2


@pytest.mark.parametrize(
    "corrupt, message",
    [
        (_corrupt_header, "CSV header"),
        (_drop_row, "grid_points"),
        (_skip_first_step, "start at 0"),
        (_repeat_step, "strictly increasing"),
        (_step_past_grid, "outside the grid"),
        (_negative_eta, "invalid parameters: eta-positive"),
        (_dimension_two, "invalid parameters: dimension"),
    ],
)
def test_load_profile_rejects_malformed_input(tmp_path, corrupt, message):
    p = yl.make_params(n=3, m=0.2, beta=1.0, rho=1.0, eta=1.0)
    prof = yl.solve_profile(p, r_max=10.0, rtol=1e-9)
    csv, sidecar = tmp_path / "profile.csv", tmp_path / "profile.json"
    yl.write_profile_csv(prof, csv)
    yl.write_profile_json(prof, sidecar)
    doc = json.loads(sidecar.read_text())
    corrupt(csv, doc)
    sidecar.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        yl.load_profile(csv, sidecar)
