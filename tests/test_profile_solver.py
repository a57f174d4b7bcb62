"""Solver behavior: series start, statuses, blow-up detection, the step
budget, residual checks (including fault injection), serialization
round-trips, the integration kernel, the Hermite evaluation and the event
root against scipy's integrators, spline and brentq, the kernel's step
points pinned to the bit, and its right-hand side and event fed Python
floats only, whatever numeric type the inputs came in as."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import yamabelab as yl
from conftest import R_MAX, RTOL, _params, perturb_profile
from yamabelab import analysis, geometry
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


@pytest.mark.parametrize("eta", [1.0, 7.0])
def test_core_is_thinned_below_r_c_only(eta, monkeypatch):
    # r_c = CORE_RADIUS * eta^((m-1)/2); from r_c up the grid, the stored
    # values and value_at are those of a solve without the core, to the bit
    p = yl.make_params(n=4, m=yl.soliton_exponent(4), beta=1.0, rho=1.0, eta=eta)
    thin = yl.solve_profile(p, r_max=1e3, rtol=1e-9)
    monkeypatch.setattr(ps, "CORE_RADIUS", 0.0)
    full = yl.solve_profile(p, r_max=1e3, rtol=1e-9)
    r_c = 1e-2 * eta ** ((p.m - 1.0) / 2.0)
    above, above_full = thin.r >= r_c, full.r >= r_c
    for a, b in ((thin.r, full.r), (thin.v, full.v), (thin.dv, full.dv)):
        assert np.array_equal(a[above], b[above_full])
    assert np.array_equal(thin.r[thin.step_indices], full.r[full.step_indices])
    radii = np.concatenate(([r_c], np.geomspace(r_c, 1e3, 997)[1:], [1e3]))
    for a, b in zip(thin.value_at(radii, derivative=True), full.value_at(radii, derivative=True)):
        assert np.array_equal(a, b)
    # the refinement below r_c: CORE_POINTS_PER_DECADE, and POINTS_PER_DECADE without the core
    decades = math.log10(r_c / thin.r0)
    assert decades == pytest.approx(4.0)
    for prof, points_per_decade in ((thin, 100), (full, 550)):
        refined = np.ones(len(prof.r), dtype=bool)
        refined[prof.step_indices] = False
        count = np.count_nonzero(refined & (prof.r < r_c))
        assert points_per_decade * decades - 1 <= count <= points_per_decade * decades + 1


def test_hermite_rule_is_exact_for_quintics():
    rng = np.random.default_rng(5)
    r = np.sort(rng.uniform(0.0, 1.0, 12))
    dr = np.diff(r)
    quintic = np.polynomial.Polynomial(rng.normal(size=6))
    weights = ps._hermite_weights(dr)
    left, right = ps._hermite_ends(weights, quintic(r), quintic.deriv()(r), quintic.deriv(2)(r))
    assert np.allclose(left + right, np.diff(quintic.integ()(r)), rtol=0.0, atol=1e-15)
    # on a degree-6 polynomial c6 x^6 + ... the segment error is exactly
    # c6 dr^7/140: it falls 128x per halving
    sextic = np.polynomial.Polynomial(rng.normal(size=7))
    for h in (0.4, 0.2, 0.1, 0.05):
        x = np.array([0.3, 0.3 + h])
        ends = ps._hermite_ends(
            ps._hermite_weights(np.diff(x)), sextic(x), sextic.deriv()(x), sextic.deriv(2)(x)
        )
        segment = np.add(*ends)
        error = segment[0] - np.diff(sextic.integ()(x))[0]
        assert error == pytest.approx(sextic.coef[6] * h**7 / 140.0, rel=1e-4)


@pytest.mark.parametrize("size", [3, 4, 9])
def test_quintic_vpp_is_exact_for_quintics(size):
    # the closed form is the quintic through (v, v') at three nodes, so it
    # reproduces a quintic's v'' at interior points and at both ends
    rng = np.random.default_rng(size)
    for _ in range(20):
        r = rng.uniform(-1.0, 1.0) + np.cumsum(rng.uniform(0.05, 1.0, size))
        quintic = np.polynomial.Polynomial(rng.normal(size=6))
        exact = quintic.deriv(2)(r)
        got = ps._quintic_vpp(r, quintic(r), quintic.deriv()(r))
        assert np.max(np.abs(got - exact)) <= 1e-10 * np.max(np.abs(exact))


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


# max_ode_residual as the batched 6x6 quintic solve gave it, which the
# closed form replaced; r0big is n=4, beta=1.2, rho=0.7, eta=3 to r_max 1e3
# from r0_scale 1e-2, whose first step triple is not flat
_ODE_RESIDUAL_PINS = {
    "shrink3": 6.028386144378151e-08,
    "shrink5": 4.1524557057975114e-09,
    "steady": 3.9802108240011006e-07,
    "expand": 2.8154941466019866e-08,
    "r0big": 6.487931038040662e-08,
}


@pytest.mark.parametrize("name", list(_ODE_RESIDUAL_PINS))
def test_ode_residual_is_pinned(request, name):
    if name == "r0big":
        p = _params(4, 1.2, 0.7).with_eta(3.0)
        prof = yl.solve_profile(p, r_max=1e3, rtol=RTOL, r0_scale=1e-2)
    else:
        prof = request.getfixturevalue(f"{name}_profile")
    got = yl.residuals(prof).max_ode_residual
    assert got == pytest.approx(_ODE_RESIDUAL_PINS[name], rel=1e-6, abs=0.0)


def test_residuals_need_three_step_points(shrink3_params):
    # past the 10-row minimum, but one accepted step after r0
    prof = yl.solve_profile(shrink3_params, r_max=2e-6, rtol=RTOL)
    assert len(prof.r) >= 10 and len(prof.step_indices) == 2
    with pytest.raises(ValueError, match="residuals need at least 3 accepted step points, got 2"):
        yl.residuals(prof)


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
    # v' is the cubic Hermite through (v', v''), v'' from the equation
    slope = CubicHermiteSpline(prof.r, prof.dv, ps._vpp_array(prof.params, prof.r, prof.v, prof.dv))
    rng = np.random.default_rng(7)
    radii = np.concatenate((
        np.exp(rng.uniform(math.log(prof.r0), math.log(prof.r[-1]), 2000)),
        prof.r[::7],
        [prof.r0, prof.r[-1]],
    ))
    v, dv = prof.value_at(radii, derivative=True)
    worst = max(np.max(_ulps(v, spline(radii))), np.max(_ulps(dv, slope(radii))))
    for x in radii[::97]:
        vx, dvx = prof.value_at(x, derivative=True)
        assert prof.value_at(x) == vx
        worst = max(worst, _ulps(vx, spline(x)), _ulps(dvx, slope(x)))
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
    prof = shrink3_profile
    with pytest.raises(ValueError):
        prof.v[0] = 2.0
    with pytest.raises(ValueError):
        prof.r[0] = 2.0
    # q and w are computed once, bit for bit by their formulas, and shared
    for name, formula in (
        ("q", prof.r * prof.dv / prof.v),
        ("w", prof.r * prof.r * prof.v ** (1.0 - prof.params.m)),
    ):
        got = getattr(prof, name)
        assert got is getattr(prof, name)
        assert np.array_equal(got, formula)
        with pytest.raises(ValueError):
            got[0] = 2.0


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


@pytest.mark.parametrize("name", ["shrink3", "shrink5", "steady", "expand"])
def test_value_at_slope_matches_reference(request, name):
    # v' from the Hermite through (v', v'') keeps the dense output's accuracy;
    # differentiating the (v, v') Hermite divides the noise in v by the knot
    # spacing and gave up to 2.7e-8
    prof = request.getfixturevalue(f"{name}_profile")
    radii = np.array([0.1, 1.0, 10.0, 100.0, 1000.0])
    dv_ref = _scipy_solve(prof, radii[-1], "DOP853", 1e-13, t_eval=radii).y[1]
    _, dv = prof.value_at(radii, derivative=True)
    assert np.max(np.abs(dv / dv_ref - 1.0)) < 5e-9


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
@settings(max_examples=200, deadline=None, derandomize=True)
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
        # _quartic takes the four coefficients along the first axis
        t0, h, y0, q = traj.t[k], traj.h[k], traj.y[:, k], traj.q[:, k].T
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


# One public call per case; each runs _dopri5 once.  The conftest profiles,
# the touch-down stall, a Case-2 blow-up and a log-radius continuation.
_KERNEL_RUNS = {
    "shrink3": lambda: yl.solve_profile(_params(3, 1.0, 1.0), r_max=R_MAX, rtol=RTOL),
    "shrink5": lambda: yl.solve_profile(_params(5, 1.0, 1.0), r_max=R_MAX, rtol=RTOL),
    "steady": lambda: yl.solve_profile(_params(3, 1.0, 0.0), r_max=R_MAX, rtol=RTOL),
    "expand": lambda: yl.solve_profile(_params(3, 1.0, -1.0), r_max=R_MAX, rtol=RTOL),
    "negcurv": lambda: yl.solve_profile(
        yl.make_params(n=3, m=0.2, beta=1.0, rho=-3.0, alpha=-1.25, eta=1.0), r_max=30.0, rtol=RTOL
    ),
    "touchdown": lambda: yl.solve_profile(
        yl.make_params(n=3, m=0.2, alpha=1.0, beta=-2.5, eta=1.0), r_max=100.0, rtol=RTOL
    ),
    "blowup": lambda: yl.solve_profile(
        yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=-1.0), r_max=100.0, rtol=RTOL
    ),
    "log_dynamics": lambda: yl.w_log_dynamics(
        _params(5, 1.0, 1.0), (math.log(10.0), math.log(1e6)), (1.0, 0.0)
    ),
}

# (accepted steps, status, {i: float.hex of (t, v, v') at step point i}, the
# same of the end point: r_end, the stall radius or the event root)
_KERNEL_PINS = {
    "shrink3": (
        702,
        0,
        {
            1: ("0x1.4407bf11f4e9fp-19", "0x1.fffffffffbfeap-1", "-0x1.9509aed66cc2bp-20"),
            351: ("0x1.629507b97299dp+6", "0x1.0319067172aa7p-15", "-0x1.e66a4a6df5836p-21"),
            701: ("0x1.36b598156b1a5p+13", "0x1.0ccd9c9d638abp-32", "-0x1.1514faf14ee51p-44"),
        },
        ("0x1.3880000000000p+13", "0x1.08f737101d8abp-32", "-0x1.0f916e322836fp-44"),
    ),
    "shrink5": (
        878,
        0,
        {
            1: ("0x1.4407bf11f3e40p-19", "0x1.fffffffffe516p-1", "-0x1.543b556c71a16p-21"),
            439: ("0x1.cb05fe44ee200p+6", "0x1.42b54dc79469cp-18", "-0x1.3bde1976019a4p-23"),
            877: ("0x1.375f61883ad0dp+13", "0x1.b91768b3b1662p-41", "-0x1.3d51698ad0ad3p-52"),
        },
        ("0x1.3880000000000p+13", "0x1.b38bfd684de10p-41", "-0x1.3832e8c8f15ddp-52"),
    ),
    "steady": (
        862,
        0,
        {
            1: ("0x1.4407bf11f451bp-19", "0x1.fffffffffd547p-1", "-0x1.0e06748ef3a6dp-20"),
            431: ("0x1.7589ff14f6893p+7", "0x1.b9bdcf1052b20p-15", "-0x1.5d29d569d340fp-21"),
            861: ("0x1.382c3d55a259fp+13", "0x1.39e69582830c0p-28", "-0x1.3281e42209548p-40"),
        },
        ("0x1.3880000000000p+13", "0x1.391e5ddc0826fp-28", "-0x1.316cd5184e505p-40"),
    ),
    "expand": (
        10861,
        0,
        {
            1: ("0x1.4407bf11f3b9ep-19", "0x1.fffffffffeaa4p-1", "-0x1.0e06748ef4218p-21"),
            5431: ("0x1.9d1a6ffcd2b72p+11", "0x1.0092aa4dfadafp-13", "-0x1.8d6bfa89508f8p-25"),
            10860: ("0x1.387aa4720ccebp+13", "0x1.0139281f573e9p-15", "-0x1.0765ecad9b01cp-28"),
        },
        ("0x1.3880000000000p+13", "0x1.0133a509a6cf4p-15", "-0x1.075bc3d519268p-28"),
    ),
    "negcurv": (
        1850,
        0,
        {
            1: ("0x1.4407bf11f289bp-19", "0x1.0000000000aaep+0", "0x1.0e06748ef5166p-21"),
            925: ("0x1.4543b565d54a8p+4", "0x1.47658fd0ac8c7p+4", "0x1.41ec67ff444dcp+0"),
            1849: ("0x1.dfe1305a7bc9ep+4", "0x1.0a21b3f2204dep+5", "0x1.62df1566bba6dp+0"),
        },
        ("0x1.e000000000000p+4", "0x1.0a370f1c382adp+5", "0x1.62e4c93915f36p+0"),
    ),
    "touchdown": (
        1077,
        -1,
        {
            1: ("0x1.4407bf11f22e8p-19", "0x1.fffffffffeee9p-1", "-0x1.b00a5417ef002p-22"),
            539: ("0x1.b04652690c13ap+2", "0x1.c327ce6ffc164p-52", "-0x1.dffc675642f5ep-43"),
            1076: ("0x1.b0dceb6f11c05p+2", "0x1.5addda153b2dcp-240", "-0x1.102cf2cadb4a3p-195"),
        },
        ("0x1.b0dceb6f11c31p+2", "0x1.937a595550af8p-242", "-0x1.93ceb63cc8aecp-197"),
    ),
    "blowup": (
        1075,
        1,
        {
            1: ("0x1.4407bf11f1d77p-19", "0x1.000000000088bp+0", "0x1.b00a5417ef6ffp-22"),
            538: ("0x1.86c004251c964p+1", "0x1.5dc6340c03351p+18", "0x1.c419dceb11053p+33"),
            1074: ("0x1.86c0fbb49a01cp+1", "0x1.c542b558afa6dp+39", "0x1.39cb1437d5d5fp+72"),
        },
        ("0x1.86c0fbb49c799p+1", "0x1.d1a8b10c299fap+39", "0x1.4969844678a0fp+72"),
    ),
    "log_dynamics": (
        332,
        0,
        {
            1: ("0x1.26be6297b2b4fp+1", "0x1.d871454eed0e4p-27", "0x1.205ad3be503f4p-12"),
            166: ("0x1.7e66849596b73p+2", "0x1.3faa618ac590ap+1", "0x1.48700fddcf5d6p-7"),
            331: ("0x1.b7db534060246p+3", "0x1.3e116da53275bp+1", "-0x1.369464a0585a1p-23"),
        },
        ("0x1.ba18a998fffa0p+3", "0x1.3e116d8e67c12p+1", "-0x1.52f13c68a1db0p-23"),
    ),
}


@pytest.mark.parametrize("case", list(_KERNEL_RUNS))
def test_kernel_bits_are_pinned(monkeypatch, case):
    """The step loop is bit-stable: any change to its arithmetic or its
    order moves these states.  Step points come from plain float arithmetic
    only (the dense fill goes through a numpy matmul, so it is not pinned
    here); the end point after an event is the root on the last quartic."""
    trajs = []

    def recording(kernel):
        def run(*args):
            trajs.append(kernel(*args))
            return trajs[-1]

        return run

    monkeypatch.setattr(ps, "_dopri5", recording(ps._dopri5))
    monkeypatch.setattr(geometry, "_dopri5", recording(geometry._dopri5))
    _KERNEL_RUNS[case]()
    (traj,) = trajs
    steps, status, points, end = _KERNEL_PINS[case]
    assert (len(traj.h), traj.status) == (steps, status)
    got = {i: tuple(float(x).hex() for x in (traj.t[i], *traj.y[:, i])) for i in points}
    assert got == points
    assert tuple(float(x).hex() for x in (traj.t[-1], *traj.y[:, -1])) == end


def _float_only(kernel, calls):
    """_dopri5 whose right-hand side and event assert that every argument
    and every returned value is exactly a Python float."""

    def checked(fn):
        def call(*args):
            out = fn(*args)
            assert all(type(x) is float for x in (*args, out)), [type(x) for x in (*args, out)]
            calls.append(fn)
            return out

        return call

    def run(f, r0, y0, r_end, rtol, atol, event=lambda v, dv: -1.0):
        return kernel(checked(f), r0, y0, r_end, rtol, atol, checked(event))

    return run


def _profile_outputs(prof):
    return [prof.r, prof.v, prof.dv, prof.status.radius]


def _dynamics_outputs(dyn):
    return [dyn.s, dyn.w_tilde, dyn.w_tilde_s, dyn.R]


def _shrink3_as(num):
    return yl.make_params(n=3, m=num(0.2), beta=num(1.0), rho=num(1.0), eta=num(1.0))


# Each case runs once on float inputs and once on numpy scalars (num is float
# or np.float64); parameters, radii and initial data all go through num.
_NUMPY_INPUT_RUNS = {
    "w_defect": lambda num: [
        yl.w_equation_defect(yl.solve_profile(_shrink3_as(num), num(R_MAX), num(RTOL)))
    ],
    "solve": lambda num: _profile_outputs(
        yl.solve_profile(_shrink3_as(num), r_max=num(R_MAX), rtol=num(RTOL))
    ),
    "log_dynamics": lambda num: _dynamics_outputs(yl.w_log_dynamics(
        yl.make_params(n=5, m=num(3 / 7), beta=num(1.0), rho=num(1.0), eta=num(1.0)),
        (num(math.log(10.0)), num(math.log(1e6))),
        (num(1.0), num(0.0)),
    )),
    "blowup": lambda num: _profile_outputs(yl.solve_profile(
        yl.make_params(n=3, m=num(0.2), beta=num(-1.0), eta=num(1.0), alpha=num(-1.0)),
        r_max=num(100.0),
        rtol=num(RTOL),
    )),
}


@pytest.mark.parametrize("case", list(_NUMPY_INPUT_RUNS))
def test_kernel_runs_on_floats_whatever_the_input(monkeypatch, case):
    """numpy-scalar parameters, radii and initial data never reach the step
    loop: the right-hand side and the event, the event root's bisection
    included, see and return Python floats only, and the outputs are the
    float inputs' outputs to the bit."""
    calls = []
    kernel = _float_only(ps._dopri5, calls)
    for module in (ps, analysis, geometry):
        monkeypatch.setattr(module, "_dopri5", kernel)
    outputs = [
        [x.hex() for a in _NUMPY_INPUT_RUNS[case](num) for x in np.ravel(a).tolist()]
        for num in (float, np.float64)
    ]
    assert calls
    assert outputs[0] == outputs[1]


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


def _fractional_dimension(csv, doc):
    doc["params"]["n"] = 3.7


def _fractional_step(csv, doc):
    doc["step_indices"][1] = 1.5


def _string_step(csv, doc):
    doc["step_indices"][1] = "4"


def _unknown_kind(csv, doc):
    doc["status"]["kind"] = "Converged"


def _nan_radius(csv, doc):
    doc["status"]["radius"] = math.nan


def _negative_rtol(csv, doc):
    doc["rtol"] = -1.0


def _missing_key(csv, doc):
    del doc["atol"]


def _null_atol(csv, doc):
    doc["atol"] = None


def _string_rtol(csv, doc):
    doc["rtol"] = "1e-9"


def _scalar_steps(csv, doc):
    doc["step_indices"] = 5


def _list_params(csv, doc):
    doc["params"] = [1]


def _string_status(csv, doc):
    doc["status"] = "Global"


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
        (_fractional_dimension, "invalid parameters: dimension"),
        (_fractional_step, "step_indices must be integers"),
        (_string_step, "step_indices must be integers"),
        (_unknown_kind, "status kind is 'Converged'"),
        (_nan_radius, "status_radius must be positive and finite, got nan"),
        (_negative_rtol, "rtol must be positive and finite, got -1.0"),
        (_missing_key, "sidecar has no key 'atol'"),
        (_null_atol, "sidecar field 'atol' has the wrong type: None"),
        (_string_rtol, "sidecar field 'rtol' has the wrong type: '1e-9'"),
        (_scalar_steps, "sidecar field 'step_indices' has the wrong type: 5"),
        (_list_params, r"sidecar field 'params' has the wrong type: \[1\]"),
        (_string_status, "sidecar field 'status' has the wrong type: 'Global'"),
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
