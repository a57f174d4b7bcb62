"""Solver behavior: series start, statuses, blow-up detection, the step
budget, the two-phase solves (the r-form, then the log-radius equation for
alpha, beta > 0 or the pressure equation for blow-ups) and their handoffs,
the eta gauge and the (alpha, beta) scaling, residual checks (including
fault injection), serialization round-trips, the integration kernel, the
Hermite evaluation and the event root against scipy's integrators, spline
and brentq, the kernel's step points pinned to the bit, and its right-hand
side and event fed Python floats only, whatever numeric type the inputs
came in as."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import yamabelab as yl
from conftest import R_MAX, RTOL, _params, perturb_profile
from yamabelab import profile_solver as ps
from yamabelab.core_params import _length_scale


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
def test_refinement_has_one_density(eta):
    # the points filled from dense output number POINTS_PER_DECADE in every
    # full decade from r0, before and after the handoff alike
    p = yl.make_params(n=4, m=yl.soliton_exponent(4), beta=1.0, rho=1.0, eta=eta)
    prof = yl.solve_profile(p, r_max=1e3, rtol=1e-9)
    refined = np.ones(len(prof.r), dtype=bool)
    refined[prof.step_indices] = False
    decades = int(math.log10(prof.r[-1] / prof.r0))
    assert decades >= 8
    for j in range(decades):
        lo, hi = prof.r0 * 10.0**j, prof.r0 * 10.0 ** (j + 1)
        count = np.count_nonzero(refined & (prof.r >= lo) & (prof.r < hi))
        assert abs(count - ps.POINTS_PER_DECADE) <= 1


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
# from r0_scale 1e-2, whose first step triple is not flat.  shrink5's
# maximum lies in its DOP853 log-radius tail, read on the refinement lattice
# (4.13e-8 on the DOPRI5 tail's steps, 4.15e-9 with the r-form to r_max)
_ODE_RESIDUAL_PINS = {
    "shrink3": 6.028386144378151e-08,
    "shrink5": 1.0238019561135276e-08,
    "steady": 3.9802108240011006e-07,
    "expand": 2.8154941466019866e-08,
    "r0big": 5.911252022865856e-08,
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
    from scipy.interpolate import BPoly

    prof = request.getfixturevalue(f"{name}_profile")
    # v is the quintic Hermite through (v, v', v''), v' the one through
    # (v', v'', v'''), v'' and v''' from the equation
    vpp = ps._vpp_array(prof.params, prof.r, prof.v, prof.dv)
    vppp = ps._vppp_array(prof.params, prof.r, prof.v, prof.dv, vpp)
    spline = BPoly.from_derivatives(prof.r, np.column_stack((prof.v, prof.dv, vpp)))
    slope = BPoly.from_derivatives(prof.r, np.column_stack((prof.dv, vpp, vppp)))
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
    # the Taylor-plus-correction form against scipy's Bernstein form: at
    # most 5 ulp on these four profiles
    assert worst <= 6.0


def test_vppp_is_the_derivative_of_the_equation():
    # v''' against sympy's derivative of the right side along the solution
    import sympy

    r, v, d, n, m, a, b = sympy.symbols("r v d n m alpha beta")
    rhs = (1 - m) * d * d / v - (n - 1) * d / r - (a * v + b * r * d) * v ** (1 - m) / (n - 1)
    third = sympy.diff(rhs, r) + sympy.diff(rhs, v) * d + sympy.diff(rhs, d) * rhs
    exact = sympy.lambdify((r, v, d, n, m, a, b), third)
    rng = np.random.default_rng(11)
    for _ in range(20):
        p = yl.SolitonParams(
            n=int(rng.integers(3, 9)), m=rng.uniform(0.1, 0.3), alpha=rng.normal(),
            beta=rng.normal(), eta=1.0,
        )
        x, y, dy = rng.uniform(0.1, 10.0), rng.uniform(0.1, 2.0), rng.normal()
        got = ps._vppp_array(p, x, y, dy, ps._vpp_array(p, x, y, dy))
        assert got == pytest.approx(exact(x, y, dy, p.n, p.m, p.alpha, p.beta), rel=1e-12)


def test_power_equation_is_the_profile_equation():
    # the profile equation in v = y^(1/gamma), solved for y'' by sympy with
    # gamma a symbol, against _power_pp at gamma = 1 (the r-form), m - 1 (the
    # pressure), m and a random value; and _from_power inverts _to_power
    import sympy

    x, y, dy, ddy, n, m, a, b = sympy.symbols("x y dy ddy n m alpha beta")
    r, g = sympy.Symbol("r", positive=True), sympy.Symbol("gamma", nonzero=True)
    f = sympy.Function("y")(r)
    v = f ** (1 / g)
    dv = v.diff(r)
    vpp = (1 - m) * dv * dv / v - (n - 1) * dv / r - (a * v + b * r * dv) * v ** (1 - m) / (n - 1)
    equation = (v.diff(r, 2) - vpp).subs({f.diff(r, 2): ddy, f.diff(r): dy, f: y}).subs(r, x)
    (exact,) = sympy.solve(equation, ddy)
    exact = sympy.lambdify((x, y, dy, n, m, a, b, g), exact)
    rng = np.random.default_rng(13)
    for _ in range(20):
        n_, m_ = int(rng.integers(3, 9)), rng.uniform(0.05, 0.7)
        a_, b_ = rng.normal(scale=2.0), rng.normal()
        x_, v_, dv_ = rng.uniform(0.1, 10.0), rng.uniform(0.1, 1e3), rng.normal(scale=10.0)
        for gamma in (1.0, m_ - 1.0, m_, rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)):
            y_, dy_ = ps._to_power(gamma, v_, dv_)
            got = ps._power_pp(n_, m_, a_, b_, gamma)(x_, y_, dy_)
            assert got == pytest.approx(exact(x_, y_, dy_, n_, m_, a_, b_, gamma), rel=1e-10)
            # y^(1/gamma) carries y's rounding times 1/|gamma|
            ulps = 4.0 * (1.0 + 1.0 / abs(gamma)) * np.finfo(float).eps
            back = ps._from_power(gamma, y_, dy_)
            assert back == pytest.approx((v_, dv_), rel=ulps, abs=0.0)
    # y <= 0 rejects the trial step, in the r-form and the pressure alike
    for gamma in (1.0, -0.8):
        assert math.isnan(ps._power_pp(3, 0.2, -1.0, -1.0, gamma)(1.0, 0.0, -1.0))


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
    # compact, with sorted keys, so the sidecar is byte-stable
    text = json_path.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True) + "\n"


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


# the C7 blow-up points (n=3, m=0.2) as (alpha, beta)
_C7_POINTS = {"case1": (-4.0, -1.0), "case2": (-1.0, -1.0), "case3": (-1.0, 0.0)}


@pytest.mark.parametrize("name", ["shrink3", "shrink5", "steady", "expand", *_C7_POINTS])
def test_value_at_slope_matches_reference(request, name):
    # v' from the Hermite through (v', v'') keeps the dense output's accuracy;
    # differentiating the (v, v') Hermite divides the noise in v by the knot
    # spacing and gave up to 2.7e-8.  Blow-up profiles are read at fractions
    # of r*, where v' is steep (up to 1.8e-9 measured)
    if name in _C7_POINTS:
        alpha, beta = _C7_POINTS[name]
        p = yl.make_params(n=3, m=0.2, beta=beta, eta=1.0, alpha=alpha)
        prof = yl.solve_profile(p, r_max=100.0, rtol=1e-9)
        assert prof.status.kind == "BlowUp"
        radii = np.array([0.25, 0.5, 0.75]) * prof.status.radius
    else:
        prof = request.getfixturevalue(f"{name}_profile")
        radii = np.array([0.1, 1.0, 10.0, 100.0, 1000.0])
    v_ref, dv_ref = _scipy_solve(prof, radii[-1], "DOP853", 1e-13, t_eval=radii).y
    v, dv = prof.value_at(radii, derivative=True)
    assert np.max(np.abs(v / v_ref - 1.0)) < 5e-9
    assert np.max(np.abs(dv / dv_ref - 1.0)) < 5e-9


def _scipy_log_solve(profile, r_h, s_end, method, rtol, **options):
    """solve_ivp on the log-radius equation in W = log w, s = log r, from the
    profile's state at r_h, with its own right-hand side."""
    p = profile.params
    n, m, alpha, beta = p.n, p.m, p.alpha, p.beta

    def rhs(s, y):
        W, Ws = y
        q = (Ws - 2.0) / (1.0 - m)  # r v'/v
        return [Ws, -m * (1.0 - m) * q * q - (n - 2) * (1.0 - m) * q
                - math.exp(W) * (1.0 - m) * (alpha + beta * q) / (n - 1)]

    v, dv = profile.value_at(r_h, derivative=True)
    y0 = [2.0 * math.log(r_h) + (1.0 - m) * math.log(v), 2.0 + (1.0 - m) * r_h * dv / v]
    return solve_ivp(rhs, (math.log(r_h), s_end), y0, method=method, rtol=rtol, atol=rtol, **options)


def _check_against_scipy(n, beta, k, log_eta, r_max):
    # k > -2 makes alpha = beta (2 + k)/(1 - m) positive: every point runs
    # the r-form to r_h = l <= 6.4 and the log-radius equation from there
    p = yl.make_params(n=n, m=yl.soliton_exponent(n), beta=beta, rho=k * beta, eta=10.0**log_eta)
    prof = yl.solve_profile(p, r_max=r_max, rtol=1e-9)
    r_h = p.eta ** ((p.m - 1.0) / 2.0)
    assert p.alpha > 0.0 and r_h < r_max
    head = np.count_nonzero(prof.r[prof.step_indices] <= r_h) - 1
    tail = len(prof.step_indices) - 1 - head
    # a log-radius phase that used up STEP_BUDGET steps stops exactly there
    if prof.status.kind != "Global":
        assert prof.status.kind == "StepFailure" and tail == ps.STEP_BUDGET

    radii = np.array([0.1, 1.0, 10.0])
    v_ref, dv_ref = _scipy_solve(prof, 10.0, "DOP853", 1e-13, t_eval=radii).y
    v, dv = prof.value_at(radii, derivative=True)
    assert np.all(np.abs(v - v_ref) <= 1e-6 * v_ref)
    assert np.all(np.abs(dv - dv_ref) <= 1e-6 * np.abs(dv_ref))

    # same method and controller: the accepted steps of each phase match
    # scipy's, RK45 on the r-form to r_h, and on the log-radius equation from
    # the state there, at LOG_TOL_FACTOR * rtol as rtol and atol, the method
    # the package's own rule picks: DOP853 for shrinking and steady tails,
    # RK45 for expanding ones
    rk45 = _scipy_solve(prof, r_h, "RK45", prof.rtol)
    assert abs(head - (len(rk45.t) - 1)) <= 0.02 * head
    method = "DOP853" if ps._log_kernel(p) is ps._dop853 else "RK45"
    assert (method == "DOP853") == (k >= 0.0)
    log_ref = _scipy_log_solve(
        prof, r_h, math.log(prof.status.radius), method, ps.LOG_TOL_FACTOR * prof.rtol
    )
    assert abs(tail - (len(log_ref.t) - 1)) <= 0.02 * tail


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


@given(**_cone, log_r_max=st.floats(min_value=2.0, max_value=4.0))
@settings(max_examples=8, deadline=None, derandomize=True)
def test_log_tail_matches_dop853(n, beta, k, log_eta, log_r_max):
    # the two-phase solve against the r-form at rtol 1e-13 out to r_max/2.
    # Over 40 random points of this cone the worst error in v and v' was
    # 6.2e-10, and 3.0e-9 with the r-form alone to r_max
    p = yl.make_params(n=n, m=yl.soliton_exponent(n), beta=beta, rho=k * beta, eta=10.0**log_eta)
    r_max = 10.0**log_r_max
    prof = yl.solve_profile(p, r_max=r_max, rtol=1e-9)
    assert prof.status.kind == "Global"
    radii = np.geomspace(0.05, r_max / 2.0, 9)
    v_ref, dv_ref = _scipy_solve(prof, radii[-1], "DOP853", 1e-13, t_eval=radii).y
    v, dv = prof.value_at(radii, derivative=True)
    assert np.max(np.abs(v / v_ref - 1.0)) <= 5e-9
    assert np.max(np.abs(dv / dv_ref - 1.0)) <= 5e-9


# The equation's two exact scaling symmetries, checked on alpha, beta > 0
# (rho/beta in [-0.6, 1.5(n-2)]) and on the blow-up regime alpha < 0,
# beta <= 0.  Left out: alpha > 0 > beta, whose ending depends on the atol
# floor, and alpha < 0 < beta, where a probed point ran the whole STEP_BUDGET
@st.composite
def _symmetry_point(draw):
    n = draw(st.integers(min_value=3, max_value=8))
    m, eta = yl.soliton_exponent(n), 10.0 ** draw(st.floats(min_value=-2.0, max_value=2.0))
    if draw(st.booleans()):
        beta = draw(st.floats(min_value=0.5, max_value=2.0))
        rho = beta * draw(st.floats(min_value=-0.6, max_value=1.5 * (n - 2)))
        return yl.make_params(n=n, m=m, beta=beta, rho=rho, eta=eta)
    alpha = draw(st.floats(min_value=-8.0, max_value=-0.5))
    beta = draw(st.floats(min_value=-2.0, max_value=0.0))
    return yl.make_params(n=n, m=m, alpha=alpha, beta=beta, eta=eta)


def _scaled_pair(p, p_scaled, lam, r_max=1e3):
    """Solves p to r_max and p_scaled to lam * r_max, and reads both at 40
    radii r and lam * r up to 0.9 of p's end radius: (profile, profile_scaled,
    (v, v'), (v, v') scaled)."""
    prof = yl.solve_profile(p, r_max=r_max)
    prof_scaled = yl.solve_profile(p_scaled, r_max=lam * r_max)
    length = p.eta ** ((p.m - 1.0) / 2.0)
    radii = np.geomspace(1e-2 * length, 0.9 * prof.status.radius, 40)
    return prof, prof_scaled, prof.value_at(radii, True), prof_scaled.value_at(lam * radii, True)


def _rel(got, ref):
    return float(np.max(np.abs(got / ref - 1.0)))


@given(p=_symmetry_point())
@settings(max_examples=25, deadline=None, derandomize=True)
# a blow-up whose v' disagreed by 1.13e-10 while the kernel ran at eta
@example(p=yl.make_params(n=6, m=0.5, alpha=-3.0, beta=0.0, eta=10.0))
def test_eta_is_a_gauge(p):
    # v_eta(r) = eta v_1(lam r), lam = eta^((1-m)/2); solve_profile solves
    # the eta = 1 problem and scales it, so the runs agree to roundoff (worst
    # of the 25 drawn examples, 7 of them blow-ups: 3.8e-15 in v', 2.2e-16
    # in the end radius)
    lam = p.eta ** ((1.0 - p.m) / 2.0)
    prof, prof_1, (v, dv), (v_1, dv_1) = _scaled_pair(p, p.with_eta(1.0), lam)
    assert _rel(p.eta * v_1, v) <= 1e-10
    assert _rel(p.eta * lam * dv_1, dv) <= 1e-10
    assert prof_1.status.kind == prof.status.kind
    assert prof_1.status.radius == pytest.approx(lam * prof.status.radius, rel=1e-14, abs=0.0)


@given(
    n=st.integers(min_value=3, max_value=8),
    m_frac=st.floats(min_value=0.1, max_value=1.0),
    alpha=st.floats(min_value=-4.0, max_value=-0.5),
    beta=st.floats(min_value=-1.5, max_value=0.0),
    log_eta=st.floats(min_value=-2.0, max_value=2.0),
)
@settings(max_examples=20, deadline=None, derandomize=True)
def test_blowup_across_the_cone(n, m_frac, alpha, beta, log_eta):
    # Theorem 1's regime at every m in (0, (n-2)/n]: the two-phase run (the
    # r-form, then the pressure) against DOP853 at rtol 1e-13 up to the cap.
    # Over 162 grid points of this cone the worst errors were 8.3e-11 in r*
    # and 3.5e-9 / 3.3e-8 / 3.1e-7 at 0.9 / 0.99 / 0.999 r*; the r-form alone
    # read 1.1e-10 and 6.7e-9 / 5.2e-8 / 3.9e-7
    p = yl.make_params(n=n, m=m_frac * (n - 2) / n, alpha=alpha, beta=beta, eta=10.0**log_eta)
    prof = yl.solve_profile(p, r_max=1e4)
    assert prof.status.kind == "BlowUp"
    r_star = prof.status.radius
    bound = yl.blowup_certificate(p).radius_bound
    assert bound is None or r_star <= bound * (1.0 + 1e-6)
    fractions = np.array([0.9, 0.99, 0.999])
    cap = _terminal(lambda r, y: y[0] - ps.BLOWUP_CAP * p.eta, 1)
    ref = _scipy_solve(prof, 1e4, "DOP853", 1e-13, events=cap, t_eval=fractions * r_star)
    assert r_star == pytest.approx(ref.t_events[0][0], rel=2e-10, abs=0.0)
    v, dv = prof.value_at(fractions * r_star, derivative=True)
    err = np.maximum(np.abs(v / ref.y[0] - 1.0), np.abs(dv / ref.y[1] - 1.0))
    assert np.all(err <= [1e-8, 1e-7, 8e-7])


@given(p=_symmetry_point(), log_c=st.floats(min_value=-0.7, max_value=0.7))
@settings(max_examples=25, deadline=None, derandomize=True)
def test_alpha_beta_scaling(p, log_c):
    # (alpha, beta) -> c (alpha, beta) maps v(r) to v(sqrt(c) r).  r0 does not
    # scale with c, so the runs take different steps (worst of these 25
    # examples, 12 of them blow-ups: 5.3e-10 in v', 3.6e-14 in the blow-up
    # radius)
    c = 10.0**log_c
    p_c = yl.make_params(n=p.n, m=p.m, alpha=c * p.alpha, beta=c * p.beta, eta=p.eta)
    lam = 1.0 / math.sqrt(c)
    prof, prof_c, (v, dv), (v_c, dv_c) = _scaled_pair(p, p_c, lam)
    assert _rel(v_c, v) <= 1e-8
    assert _rel(lam * dv_c, dv) <= 1e-8
    assert prof_c.status.kind == prof.status.kind
    if prof.status.kind == "BlowUp":
        assert prof_c.status.radius == pytest.approx(lam * prof.status.radius, rel=1e-12, abs=0.0)


_R_FORM, _TAIL = ("_dopri5",), ("_dopri5", "_dop853")


@pytest.mark.parametrize(
    "params, r_max, kernels",
    [
        (yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=-1.0), 100.0, _R_FORM * 2),
        (yl.make_params(n=3, m=0.2, alpha=1.0, beta=-2.5, eta=1.0), 100.0, _R_FORM),
        (yl.make_params(n=3, m=0.2, beta=1.0, rho=-3.0, alpha=-1.25, eta=1.0), 30.0, _R_FORM),
        (yl.make_params(n=3, m=0.2, alpha=1.0, beta=0.0, eta=1.0), 100.0, _R_FORM),
        (_params(3, 1.0, 1.0), 0.5, _R_FORM),
        (_params(3, 1.0, 1.0), 100.0, _TAIL),
        (_params(3, 1.0, 0.0).with_eta(7.0), 100.0, _TAIL),
        (_params(5, 1.0, -1.0).with_eta(0.01), 100.0, _R_FORM * 2),
    ],
    ids=["blowup", "touchdown", "negcurv", "beta0", "below-l", "shrink", "steady", "expand"],
)
def test_log_tail_only_for_positive_alpha_and_beta(monkeypatch, params, r_max, kernels):
    # alpha, beta > 0 with l = eta^((m-1)/2) < r_max: the r-form to l, then
    # the log-radius equation, on _dop853 for shrinking and steady tails and
    # on _dopri5 for expanding ones; a blow-up (alpha < 0, beta <= 0): the
    # r-form (gamma = 1), then the pressure (gamma = m - 1); every other run
    # is the r-form alone
    runs, made = _recording_kernels(monkeypatch), []

    def recording(make, phase):
        def run(*args):
            made.append((phase(*args), make(*args)))
            return made[-1][1]

        return run

    monkeypatch.setattr(ps, "_log_wpp", recording(ps._log_wpp, lambda params: "log"))
    monkeypatch.setattr(ps, "_power_pp", recording(ps._power_pp, lambda *args: args[-1]))
    prof = yl.solve_profile(params, r_max=r_max, rtol=1e-9)
    assert tuple(name for name, _ in runs) == kernels
    assert [f for _, f in runs] == [f for _, f in made]
    blowup = params.alpha < 0.0 and params.beta <= 0.0
    phases = [1.0, params.m - 1.0] if blowup else [1.0, "log"]
    assert [phase for phase, _ in made] == phases[: len(kernels)]
    if blowup:
        assert prof.status.kind == "BlowUp"
    elif len(kernels) == 2:
        assert prof.status == yl.ProfileStatus("Global", r_max) and prof.r[-1] == r_max
        # the handoff radius is a step point of both phases
        r_h = params.eta ** ((params.m - 1.0) / 2.0)
        assert r_h in prof.r[prof.step_indices]


def _recording_kernels(monkeypatch):
    """Patches both kernels to record (kernel name, right-hand side) per run
    into the returned list."""
    runs = []

    def recording(name):
        kernel = getattr(ps, name)

        def run(f, *args):
            runs.append((name, f))
            return kernel(f, *args)

        return run

    for name in ("_dopri5", "_dop853"):
        monkeypatch.setattr(ps, name, recording(name))
    return runs


def test_steady_tails_run_on_dop853(monkeypatch):
    # every steady point of the verify_nonstiff benchmark at seeds 0-3 (32
    # per seed): c = rho = 0 exactly, where (1-m) alpha - 2 beta rounded to
    # +-2.2e-16 or 4.4e-16 on 17 of the 128, 8 of them below zero
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    from workloads import VerifyNonstiff

    runs = _recording_kernels(monkeypatch)
    for seed in range(4):
        workload = VerifyNonstiff(seed, None)
        for i in range(3, workload.fixed_ops, 5):
            point = workload.point(i)
            assert point.rho == 0.0
            p = point.params()
            assert ps._log_c(p) == 0.0
            runs.clear()
            yl.solve_profile(p, r_max=point.r_max, rtol=1e-9)
            assert [name for name, _ in runs] == ["_dopri5", "_dop853"]


def test_dop853_tableau_is_scipys():
    from scipy.integrate._ivp import dop853_coefficients as ref

    for got, want in [
        (ps._A853, ref.A), (ps._B853, ref.B), (ps._C853, ref.C), (ps._E3_853, ref.E3),
        (ps._E5_853, ref.E5), (ps._D853, ref.D),
    ]:
        assert np.array_equal(got, want)
    # each node is its row's sum, to rounding
    assert np.allclose(ps._A853.sum(axis=1), ps._C853, rtol=0.0, atol=8 * ps._EPS)


def test_dop853_dense_output_is_scipys():
    # the folded stage -> coefficient matrix against scipy's nested form
    # x (F_0 + (1-x) (F_1 + x (F_2 + ...))) on random stages of one step
    from scipy.integrate._ivp import dop853_coefficients as ref
    from scipy.integrate._ivp.rk import Dop853DenseOutput

    rng = np.random.default_rng(7)
    K, h, y_old = rng.normal(size=(16, 2)), 0.3, np.array([1.5, -0.5])
    dy = h * K[:12].T @ ref.B
    F = np.vstack((dy, h * K[0] - dy, 2 * dy - h * (K[0] + K[12]), h * ref.D @ K))
    x = np.linspace(0.0, 1.0, 11)
    want = Dop853DenseOutput(0.0, h, y_old, F)(h * x)
    got = ps._dense(0.0, h, y_old[:, None], (K.T @ ps._P853).T[:, :, None], h * x)
    # F reaches 133 here, and the two forms differ by 8e-14
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(F))


@pytest.mark.parametrize("alpha", [-1.0, -4.0])
def test_blowup_residual_reads_the_pressure(alpha):
    # past the core l = 1 the blow-up profile is read in P = v^-(1-m): its
    # pressure steps read at most 3.0e-8 (alpha = -1) and 2.7e-8 (-4), and
    # the maximum, 8.2e-8 and 4.0e-7, sits at r-form steps near the origin.
    # In v every step read it 5.7e8 and 4.1e10
    p = yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=alpha)
    prof = yl.solve_profile(p, r_max=100.0, rtol=1e-9)
    assert prof.status.kind == "BlowUp"
    clean = yl.residuals(prof).max_ode_residual
    assert clean < 1e-6
    # a 1 ppm bump on a pressure step an eighth of the way from the handoff
    # to the cap reads 4.8e-5 and 6.1e-5 in P
    si = prof.step_indices
    handoff = int(np.flatnonzero(prof.v[si] < ps.PRESSURE_SWITCH)[-1])
    bump = int(si[handoff + (len(si) - handoff) // 8])
    bad = perturb_profile(prof, bump, 1.0 + 1e-6)
    assert yl.residuals(bad).max_ode_residual > 100.0 * clean


def test_blowup_fill_radius_an_ulp_from_a_step(monkeypatch):
    # a pressure-phase fill radius one ulp below an accepted step of the
    # eta = 1 problem, where l = eta^((m-1)/2) maps both to one float: the
    # profile keeps the step and drops the fill.  l = 0.693 keeps the steps
    # near r* = 3.05 in [2, 4), 0.693 ulp apart, and 17 of the pressure
    # phase's 42 steps round together with their lower neighbour
    p = yl.make_params(n=3, m=0.2, alpha=-1.0, beta=-1.0, eta=2.5)
    length = _length_scale(p)
    trajs, below, kernel, refinement = [], [], ps._dopri5, ps._refinement

    def recording(*args):
        trajs.append(kernel(*args))
        return trajs[-1]

    def with_neighbour(lo, hi):
        grid = refinement(lo, hi)
        if not below:
            # the grid's first refinement, once both phases have run
            for t in trajs[-1].t[1:-1].tolist():
                if length * math.nextafter(t, 0.0) == length * t:
                    below.append(math.nextafter(t, 0.0))
                    return np.union1d(grid, below)
        return grid

    monkeypatch.setattr(ps, "_dopri5", recording)
    monkeypatch.setattr(ps, "_refinement", with_neighbour)
    prof = yl.solve_profile(p, r_max=1e4, rtol=1e-9)
    assert prof.status.kind == "BlowUp" and len(trajs) == 2 and below
    assert np.all(np.diff(prof.r) > 0.0)
    head, tail = trajs
    steps = np.concatenate((head.t[:-1], tail.t[1:]))
    assert np.array_equal(prof.r[prof.step_indices], length * steps)


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@given(st.lists(_positive, min_size=1, max_size=8).flatmap(lambda shared: st.lists(
    st.lists(st.sampled_from(shared) | _positive, min_size=1, max_size=40),
    min_size=1, max_size=3)))
def test_sorted_union_is_union1d_bit_for_bit(parts):
    # the stored grid's merge of steps and fill lattices, which share values
    arrays = [np.array(part) for part in parts]
    expected = arrays[0]
    for array in arrays[1:]:
        expected = np.union1d(expected, array)
    assert ps._sorted_union(arrays).tobytes() == np.unique(expected).tobytes()


def _scipy_pressure_solve(profile, r_h, r_end, method, rtol, **options):
    """solve_ivp on the pressure equation in P = v^-(1-m) of an eta = 1
    profile, from its state at r_h, with its own right-hand side and the
    kernel's atol there (the profile's atol times P)."""
    p = profile.params
    n, m, alpha, beta = p.n, p.m, p.alpha, p.beta

    def rhs(r, y):
        P, dP = y
        if P <= 0.0:
            return [dP, np.nan]
        return [dP, dP * dP / ((1.0 - m) * P) - beta * r * dP / ((n - 1) * P)
                - (n - 1) * dP / r + (1.0 - m) * alpha / (n - 1)]

    v, dv = profile.value_at(r_h, derivative=True)
    P = v ** (m - 1.0)
    return solve_ivp(
        rhs, (r_h, r_end), [P, (m - 1.0) * P * dv / v], method=method, rtol=rtol,
        atol=profile.atol * P, **options
    )


def _terminal(event, direction):
    event.terminal, event.direction = True, direction
    return event


@pytest.mark.parametrize("alpha, beta", list(_C7_POINTS.values()), ids=list(_C7_POINTS))
def test_blowup_radius_matches_scipy_event(alpha, beta):
    # same method and controller, phase by phase (as _check_against_scipy
    # for the log tail): scipy's RK45 on the r-form to the handoff, the last
    # step below v = PRESSURE_SWITCH, and on the pressure equation from the
    # state there to the cap.  RK45 on the r-form alone to the cap read up to
    # 1.2e-11 from this two-phase radius (case3)
    p = yl.make_params(n=3, m=0.2, beta=beta, eta=1.0, alpha=alpha)
    prof = yl.solve_profile(p, r_max=100.0, rtol=1e-9)
    assert prof.status.kind == "BlowUp"
    switch = _terminal(lambda r, y: y[0] - ps.PRESSURE_SWITCH, 1)
    near = _scipy_solve(prof, 100.0, "RK45", 1e-9, events=switch)
    assert near.status == 1
    # after a terminal event solve_ivp ends on the root, so t[-2] is its last
    # step; the two controllers' steps drift apart by about 1e-9 there
    steps = prof.r[prof.step_indices]
    r_h = steps[np.argmin(np.abs(steps - near.t[-2]))]
    head = _scipy_solve(prof, r_h, "RK45", 1e-9)
    v, dv = prof.value_at(r_h, derivative=True)
    assert head.y[:, -1] == pytest.approx([v, dv], rel=1e-12, abs=0.0)
    cap = _terminal(lambda r, y: y[0] - ps.BLOWUP_CAP ** (p.m - 1.0), -1)
    tail = _scipy_pressure_solve(prof, r_h, 100.0, "RK45", 1e-9, events=cap)
    assert tail.status == 1
    assert prof.status.radius == pytest.approx(tail.t_events[0][0], rel=1e-12, abs=0.0)


def _step_quartics(traj, every):
    """(t_old, t_new, v on the step) for every so-many steps of a run."""
    for k in range(0, len(traj.h), every):
        # _dense takes the four coefficients along the first axis
        t0, h, y0, q = traj.t[k], traj.h[k], traj.y[:, k], traj.q[:, k].T
        yield t0, t0 + h, lambda r: ps._dense(t0, h, y0, q, r)[0]


@pytest.mark.parametrize(
    "alpha, beta, rho", [(-4.0, -1.0, None), (None, 1.0, 1.0), (None, 1.0, -1.0)],
    ids=["blowup", "shrink3", "expand"],
)
def test_bracketed_root_matches_brentq(alpha, beta, rho):
    from scipy.optimize import brentq

    p = yl.make_params(n=3, m=0.2, beta=beta, rho=rho, alpha=alpha, eta=1.0)
    r0 = 1e-6
    traj = ps._dopri5(
        ps._power_pp(p.n, p.m, p.alpha, p.beta, 1.0), r0, yl.series_start(p, r0), 100.0, 1e-9,
        1e-30, lambda v, dv: v - ps.BLOWUP_CAP,
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


# One public call per case.  The conftest profiles, the touch-down stall, a
# Case-2 blow-up and a log-radius continuation.
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

# per kernel run of the case, in call order: (accepted steps, status,
# {i: float.hex of (t, y, y') at step point i}, the same of the end point:
# r_end, the stall radius or the event root).  The alpha, beta > 0 profiles
# run twice, the r-form to r_h = l = 1, then (s, W, W_s) from log r_h
# to log R_MAX, on _dop853 for shrink3, shrink5 and steady and on _dopri5
# for expand; log_dynamics (rho = 1) runs on _dop853.  So does the blow-up
# run twice: the r-form up to its event v = 100, then (r, P, P') from the
# step before it (point 241) up to the cap.
_KERNEL_PINS = {
    "shrink3": (
        (
            61,
            0,
            {
                1: ("0x1.4407bf11f4e9fp-19", "0x1.fffffffffbfeap-1", "-0x1.9509aed66cc2bp-20"),
                30: ("0x1.3180b7e40d0a7p-3", "0x1.fc75f995429d1p-1", "-0x1.795982cc2678dp-4"),
                60: ("0x1.f2d1504d00e6cp-1", "0x1.8749ee89ce295p-1", "-0x1.88d9b7c6c33cdp-2"),
            },
            ("0x1.0000000000000p+0", "0x1.8238bc3108c76p-1", "-0x1.8a500d9c87d1cp-2"),
        ),
        (
            35,
            0,
            {
                1: ("0x1.87bd6b45879f1p-6", "-0x1.805801767124dp-3", "0x1.934e8f6a313f2p+0"),
                17: ("0x1.50961eeb7b762p+1", "0x1.f4f28937e53ecp-1", "-0x1.bc664793bc13ap-3"),
                34: ("0x1.20919b6382f75p+3", "0x1.685b4b1a76c0dp-1", "0x1.7d447d26c0440p-14"),
            },
            ("0x1.26bb1bbb55516p+3", "0x1.6844f9302938dp-1", "-0x1.d5fe8bc083965p-10"),
        ),
    ),
    "shrink5": (
        (
            85,
            0,
            {
                1: ("0x1.4407bf11f3e40p-19", "0x1.fffffffffe516p-1", "-0x1.543b556c71a16p-21"),
                42: ("0x1.28ef3993936ddp-3", "0x1.fe9723fc4db56p-1", "-0x1.3671ed315a3bfp-5"),
                84: ("0x1.f034cf9418ca8p-1", "0x1.c674abb54390cp-1", "-0x1.b0b54611c1868p-3"),
            },
            ("0x1.0000000000000p+0", "0x1.c315d54290e08p-1", "-0x1.b95567fdbfaebp-3"),
        ),
        (
            45,
            0,
            {
                1: ("0x1.7aaabe7a14834p-6", "-0x1.e2a6a022ec0fcp-6", "0x1.daa59dae7a556p+0"),
                22: ("0x1.47b852aea9ee5p+1", "0x1.3c273bf234ea5p+1", "0x1.ae9f9acd12800p-4"),
                44: ("0x1.1b4114dbb0a83p+3", "0x1.3e11370460785p+1", "0x1.b34f01d2cc41cp-17"),
            },
            ("0x1.26bb1bbb55516p+3", "0x1.3e1154906263bp+1", "0x1.dc0021dc4d41ap-18"),
        ),
    ),
    "steady": (
        (
            59,
            0,
            {
                1: ("0x1.4407bf11f451bp-19", "0x1.fffffffffd547p-1", "-0x1.0e06748ef3a6dp-20"),
                29: ("0x1.31c7a0d6120fdp-3", "0x1.fda1e9f56fb37p-1", "-0x1.f936268459e0dp-5"),
                58: ("0x1.f3a15c068cee6p-1", "0x1.aa72c4ba693f7p-1", "-0x1.27245f204fef9p-2"),
            },
            ("0x1.0000000000000p+0", "0x1.a6de1384190e8p-1", "-0x1.29ae9f77eaddbp-2"),
        ),
        (
            100,
            0,
            {
                1: ("0x1.81a82c95f5032p-6", "-0x1.cd9afb48ab178p-4", "0x1.b50092b968542p+0"),
                50: ("0x1.723d15c90ce9ap+2", "0x1.5490866eb698bp+1", "0x1.22d826041ddacp-3"),
                99: ("0x1.24b07fac442b9p+3", "0x1.864d66a6a0553p+1", "0x1.86f6c8f655517p-4"),
            },
            ("0x1.26bb1bbb55516p+3", "0x1.871451f290f93p+1", "0x1.849076aeea53ap-4"),
        ),
    ),
    "expand": (
        (
            57,
            0,
            {
                1: ("0x1.4407bf11f3b9ep-19", "0x1.fffffffffeaa4p-1", "-0x1.0e06748ef4218p-21"),
                28: ("0x1.391f15203467dp-3", "0x1.fec1c1e44a143p-1", "-0x1.03710accdf21ep-5"),
                56: ("0x1.fd510a3284ff3p-1", "0x1.d0f0448f45aa5p-1", "-0x1.51911d86236afp-3"),
            },
            ("0x1.0000000000000p+0", "0x1.d07ede6938e7ep-1", "-0x1.5292be11b7e7ep-3"),
        ),
        (
            5034,
            0,
            {
                1: ("0x1.3c8119837004ep-9", "-0x1.2cbbdf977ce08p-4", "0x1.da85b9d8e8cf0p+0"),
                2517: ("0x1.03c593f92c51cp+3", "0x1.20733e9db46cfp+3", "0x1.000bf6b290db7p+0"),
                5033: ("0x1.26bae3cebfe92p+3", "0x1.43698cdc25022p+3", "0x1.00040301c9255p+0"),
            },
            ("0x1.26bb1bbb55516p+3", "0x1.4369c4c99ac42p+3", "0x1.000402fac0a15p+0"),
        ),
    ),
    "negcurv": (
        (
            1850,
            0,
            {
                1: ("0x1.4407bf11f289bp-19", "0x1.0000000000aaep+0", "0x1.0e06748ef5166p-21"),
                925: ("0x1.4543b565d54a8p+4", "0x1.47658fd0ac8c7p+4", "0x1.41ec67ff444dcp+0"),
                1849: ("0x1.dfe1305a7bc9ep+4", "0x1.0a21b3f2204dep+5", "0x1.62df1566bba6dp+0"),
            },
            ("0x1.e000000000000p+4", "0x1.0a370f1c382adp+5", "0x1.62e4c93915f36p+0"),
        ),
    ),
    "touchdown": (
        (
            1077,
            -1,
            {
                1: ("0x1.4407bf11f22e8p-19", "0x1.fffffffffeee9p-1", "-0x1.b00a5417ef002p-22"),
                539: ("0x1.b04652690c13ap+2", "0x1.c327ce6ffc164p-52", "-0x1.dffc675642f5ep-43"),
                1076: ("0x1.b0dceb6f11c05p+2", "0x1.5addda153b2dcp-240", "-0x1.102cf2cadb4a3p-195"),
            },
            ("0x1.b0dceb6f11c31p+2", "0x1.937a595550af8p-242", "-0x1.93ceb63cc8aecp-197"),
        ),
    ),
    "blowup": (
        (
            242,
            1,
            {
                1: ("0x1.4407bf11f1d77p-19", "0x1.000000000088bp+0", "0x1.b00a5417ef6ffp-22"),
                121: ("0x1.5da3d9f7de43dp+1", "0x1.1bc9014fb3781p+2", "0x1.b7c4fd951f217p+3"),
                241: ("0x1.840cf9c2c065bp+1", "0x1.8ecd47239fc9ep+6", "0x1.68b30a5fc4508p+12"),
            },
            ("0x1.840eabf20d9b2p+1", "0x1.8fffffffffdbap+6", "0x1.6ab099d21b105p+12"),
        ),
        (
            43,
            1,
            {
                1: ("0x1.846653e74269dp+1", "0x1.684d026be4ad6p-6", "-0x1.2c24491e5f1bdp+0"),
                21: ("0x1.86ba888fa58ddp+1", "0x1.f7eb981c2cee2p-13", "-0x1.386fb5997d89ep+0"),
                42: ("0x1.86c0fbb496d06p+1", "0x1.27dfdd71981dap-32", "-0x1.389a62f3da692p+0"),
            },
            ("0x1.86c0fbb49ee06p+1", "0x1.142f23f5fa299p-32", "-0x1.389a62f4143c8p+0"),
        ),
    ),
    "log_dynamics": (
        (
            58,
            0,
            {
                1: ("0x1.26be6297b2b4fp+1", "0x1.d871454eed106p-27", "0x1.205ad3be503f7p-12"),
                29: ("0x1.747798fafba2ep+2", "0x1.3f58965e654eep+1", "0x1.78475c765ac54p-6"),
                57: ("0x1.b38f656616941p+3", "0x1.3e116dc97dfeep+1", "-0x1.bb4731c2e0608p-24"),
            },
            ("0x1.ba18a998fffa0p+3", "0x1.3e116d8e68093p+1", "-0x1.52f1529b4e52cp-23"),
        ),
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

    for kernel in ("_dopri5", "_dop853"):
        monkeypatch.setattr(ps, kernel, recording(getattr(ps, kernel)))
    _KERNEL_RUNS[case]()
    assert len(trajs) == len(_KERNEL_PINS[case])
    for traj, (steps, status, points, end) in zip(trajs, _KERNEL_PINS[case]):
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
    for kernel in ("_dopri5", "_dop853"):
        monkeypatch.setattr(ps, kernel, _float_only(getattr(ps, kernel), calls))
    outputs = [
        [x.hex() for a in _NUMPY_INPUT_RUNS[case](num) for x in np.ravel(a).tolist()]
        for num in (float, np.float64)
    ]
    assert calls
    assert outputs[0] == outputs[1]


def test_step_budget_ends_in_step_failure(monkeypatch):
    runs = _recording_kernels(monkeypatch)
    # (kernel of the run that uses up the budget, params, r_max, budget, step
    # points): alpha < 0 < beta stiffens as v grows, 1.58 M steps to r = 40;
    # a steady tail's steps grow like s^2, 5,177 of them to r = 1e100 after
    # the r-form's 59 to l = 1
    cases = [
        ("_dopri5", yl.make_params(n=3, m=0.2, beta=1.0, alpha=-4.0, eta=1.0), 40.0, 50_000,
         50_001),
        ("_dop853", _params(3, 1.0, 0.0), 1e100, 200, 59 + 1 + 200),
    ]
    for kernel, p, r_max, budget, steps in cases:
        monkeypatch.setattr(ps, "STEP_BUDGET", budget)
        runs.clear()
        prof = yl.solve_profile(p, r_max=r_max, rtol=1e-9)
        assert runs[-1][0] == kernel
        assert prof.status.kind == "StepFailure"
        assert prof.status.radius == prof.r[-1] < r_max
        assert len(prof.step_indices) == steps
        if kernel == "_dopri5":
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
    real_pp = ps._power_pp

    def recording_pp(*args):
        f = real_pp(*args)

        def g(r, v, dv):
            trial_v.append(v)
            return f(r, v, dv)

        return g

    monkeypatch.setattr(ps, "_power_pp", recording_pp)
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


@pytest.mark.parametrize("state", [(0.0, -0.3), (-1e-3, -0.3), (math.nan, -0.3), (0.5, math.inf)])
def test_bad_handoff_state_gives_step_failure(monkeypatch, state):
    # an r-form end state at r_h = l that is not positive and finite never
    # reaches the log form: the run stops there, typed
    runs = []
    real = ps._dopri5

    def spoiled(*args):
        traj = real(*args)
        runs.append(traj)
        traj.y[:, -1] = state
        return traj

    monkeypatch.setattr(ps, "_dopri5", spoiled)
    p = yl.make_params(n=3, m=yl.soliton_exponent(3), beta=1.0, rho=1.0, eta=1.0)
    prof = yl.solve_profile(p, r_max=100.0, rtol=1e-9)
    assert len(runs) == 1
    assert prof.status == yl.ProfileStatus("StepFailure", 1.0) and prof.r[-1] == 1.0
    assert np.all(prof.v > 0.0)


def _corrupt_header(csv, doc):
    lines = csv.read_text().splitlines(keepends=True)
    csv.write_text("r,dv,v\n" + "".join(lines[1:]))


def _drop_row(csv, doc):
    lines = csv.read_text().splitlines(keepends=True)
    csv.write_text("".join(lines[:-1]))


def _rewrite_rows(csv, edit):
    header, *rows = csv.read_text().splitlines()
    csv.write_text("\n".join([header, *map(edit, rows)]) + "\n")


def _extra_column(csv, doc):
    _rewrite_rows(csv, lambda row: row + ",0")


def _two_columns(csv, doc):
    _rewrite_rows(csv, lambda row: row.rsplit(",", 1)[0])


def _set_field(csv, col, text):
    header, *rows = csv.read_text().splitlines()
    fields = rows[5].split(",")
    fields[col] = text
    rows[5] = ",".join(fields)
    csv.write_text("\n".join([header, *rows]) + "\n")


def _nan_slope(csv, doc):
    _set_field(csv, 2, "nan")


def _inf_slope(csv, doc):
    _set_field(csv, 2, "inf")


def _inf_value(csv, doc):
    _set_field(csv, 1, "inf")


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
        (_extra_column, "rows of 4 columns, expected"),
        (_two_columns, "rows of 2 columns, expected"),
        (_nan_slope, "must be finite"),
        (_inf_slope, "must be finite"),
        (_inf_value, "must be finite"),
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
