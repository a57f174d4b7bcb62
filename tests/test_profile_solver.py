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
    # the first coefficient is v''(0)/2 = -alpha eta^(2-m) / (2 n (n-1)), and
    # the start sums the series: the next term, c_2 r^4 with c_2 = 0.084 at
    # shrink3, moves v' at 1e-4 by 5.4e-9 of itself
    p = yl.make_params(n=3, m=0.2, beta=1.0, rho=1.0, eta=1.0)
    c = ps._series(p)
    v2 = -p.alpha * 1.0 / (3 * 2)  # eta = 1 so eta^(2-m) = 1
    assert c[:2] == (1.0, pytest.approx(0.5 * v2, rel=1e-15))
    v0, dv0 = yl.series_start(p, 1e-4)
    assert v0 == pytest.approx(1.0 + 0.5 * v2 * 1e-8 + c[2] * 1e-16, rel=1e-15)
    assert dv0 == pytest.approx(v2 * 1e-4 + 4.0 * c[2] * 1e-12, rel=1e-15)
    with pytest.raises(ValueError, match="r0 must be positive"):
        yl.series_start(p, 0.0)


def test_grid_structure(shrink3_profile):
    prof = shrink3_profile
    assert np.all(np.diff(prof.r) > 0.0)
    assert np.all(prof.v > 0.0)
    assert prof.status.kind == "Global"
    assert prof.status.radius == 1e4
    # the series holds past l / 2 at shrink3, so the run starts there
    assert ps._series_reach(ps._series(prof.params), RTOL) > 0.5
    assert prof.r0 == 0.5
    # v'(0) = 0 forces dv = O(r0) at the first grid point
    v2 = abs(prof.params.alpha) / (3 * 2)
    assert abs(prof.dv[0]) <= 10.0 * v2 * prof.r0
    # the accepted integrator steps are a subset of the stored grid
    si = prof.step_indices
    assert np.all(np.diff(si) > 0)
    assert si[0] == 0 and si[-1] < len(prof.r)


@pytest.mark.parametrize("eta", [1.0, 7.0])
def test_refinement_has_one_density(eta):
    # the points filled between the steps number POINTS_PER_DECADE in every
    # full decade from the lattice's anchor 1e-6 l that lies past r0, before
    # and after the handoff alike
    p = yl.make_params(n=4, m=yl.soliton_exponent(4), beta=1.0, rho=1.0, eta=eta)
    prof = yl.solve_profile(p, r_max=1e3, rtol=1e-9)
    refined = np.ones(len(prof.r), dtype=bool)
    refined[prof.step_indices] = False
    anchor = 1e-6 * _length_scale(p)
    first = math.ceil(math.log10(prof.r0 / anchor))
    decades = int(math.log10(prof.r[-1] / anchor))
    assert decades - first >= 2
    for j in range(first, decades):
        lo, hi = anchor * 10.0**j, anchor * 10.0 ** (j + 1)
        count = np.count_nonzero(refined & (prof.r >= lo) & (prof.r < hi))
        assert abs(count - ps.POINTS_PER_DECADE) <= 1


@pytest.mark.parametrize("name", ["shrink3", "steady", "expand", "negcurv"])
def test_lattice_keeps_its_radii_past_the_start(request, name):
    # every stored point between the steps is a radius of the lattice from
    # 1e-6 l to the end, np.geomspace at POINTS_PER_DECADE, bit for bit: the
    # lattice of a start at 1e-6 l, cut below r0, and no point is missing
    prof = request.getfixturevalue(f"{name}_profile")
    length = _length_scale(prof.params)
    lattice = ps._refinement(1e-6, prof.status.radius / length)
    expected = length * lattice[lattice > prof.r0 / length]
    refined = np.ones(len(prof.r), dtype=bool)
    refined[prof.step_indices] = False
    assert prof.r0 > 1e-6 * length
    assert np.all(np.isin(prof.r[refined], expected))
    assert np.count_nonzero(refined) >= len(expected) - 2


def test_hermite_rule_is_exact_for_quintics():
    rng = np.random.default_rng(5)
    r = np.sort(rng.uniform(0.0, 1.0, 12))
    dr = np.diff(r)
    quintic = np.polynomial.Polynomial(rng.normal(size=6))
    left, right = ps._hermite_ends(dr, quintic(r), quintic.deriv()(r), quintic.deriv(2)(r))
    assert np.allclose(left + right, np.diff(quintic.integ()(r)), rtol=0.0, atol=1e-15)
    # on a degree-6 polynomial c6 x^6 + ... the segment error is exactly
    # c6 dr^7/140: it falls 128x per halving
    sextic = np.polynomial.Polynomial(rng.normal(size=7))
    for h in (0.4, 0.2, 0.1, 0.05):
        x = np.array([0.3, 0.3 + h])
        segment = np.add(*ps._hermite_ends(np.diff(x), sextic(x), sextic.deriv()(x), sextic.deriv(2)(x)))
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


# max_ode_residual of the runs from the series start; r0big is n=4,
# beta=1.2, rho=0.7, eta=3 to r_max 1e3 from an explicit r0_scale 1e-2, whose
# first step triple is not flat.  shrink5's maximum lies in its DOP853
# log-radius tail, read on the refinement lattice.  From the two-term start
# at 1e-6 l they read 6.03e-8, 9.92e-9, 3.98e-7, 2.82e-8 and 5.91e-8
_ODE_RESIDUAL_PINS = {
    "shrink3": 1.5404770118774653e-08,
    "shrink5": 9.921426477335594e-09,
    "steady": 8.437232880659248e-09,
    "expand": 6.579470487480423e-09,
    "r0big": 1.810100056055704e-08,
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


def test_a_raised_start_keeps_the_integral_defect():
    # the integral identity's 0-to-r0 stub sums the origin series, so a
    # start at 1e-2 l reads the default start's defect (8.3e-12, against 8.4e-12);
    # with the two-term stub it read 1.27e-5 there, against 2.1e-10 from 1e-6 l
    p = yl.make_params(n=3, m=0.2, alpha=1.0, beta=0.1, eta=1.0)
    default, raised = (yl.residuals(yl.solve_profile(p, r_max=1e3, **kw)).max_integral_residual
                       for kw in ({}, {"r0_scale": 1e-2}))
    assert raised < 1e-10 and default < 1e-10
    assert 0.5 < raised / default < 2.0


def test_residuals_need_ten_grid_points(shrink3_params):
    prof = yl.solve_profile(shrink3_params, r_max=1.1e-6, rtol=RTOL, r0_scale=1e-6)
    assert len(prof.r) == 5
    with pytest.raises(ValueError, match="residuals need at least 10 grid points"):
        yl.residuals(prof)


def test_residuals_need_three_step_points(shrink3_params):
    # past the 10-row minimum, but one accepted step after r0
    prof = yl.solve_profile(shrink3_params, r_max=2e-6, rtol=RTOL, r0_scale=1e-6)
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
    vpp, vppp = prof._rform_chain[2:]
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
    # the read's basis weights against scipy's Bernstein form: at most 5
    # ulp on these four profiles
    assert worst <= 6.0


@pytest.mark.parametrize("K", [2, 3, 5])
def test_read_is_the_two_point_hermite(K):
    # cubics for a plain callable, quintics in y = v^gamma, nonics in the
    # log-radius form: y through the first K of the chain, y' through the
    # last K, against scipy's Bernstein form on random data
    from scipy.interpolate import BPoly

    rng = np.random.default_rng(K)
    knots = np.sort(rng.uniform(0.0, 10.0, 12))
    chain = rng.normal(size=(K + 1, 12))
    x = np.concatenate((rng.uniform(knots[0], knots[-1], 500), knots[:-1]))
    for got, data in zip(ps._read_at(knots, chain, x), (chain[:K], chain[1:])):
        ref = BPoly.from_derivatives(knots, data.T)(x)
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


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
        rform = ps._power_pp(p.n, p.m, p.alpha, p.beta, 1.0)
        (got,) = ps._power_yppp(rform.values, x, y, dy, rform(x, y, dy))
        assert got == pytest.approx(exact(x, y, dy, p.n, p.m, p.alpha, p.beta), rel=1e-12)


def _sympy_power_ypp():
    """y'' of the profile equation in y = v^gamma, solved for by sympy from
    the equation in v = y^(1/gamma) with gamma a symbol: (symbols, y'')."""
    import sympy

    x, y, dy, ddy, n, m, a, b = sympy.symbols("x y dy ddy n m alpha beta")
    r, g = sympy.Symbol("r", positive=True), sympy.Symbol("gamma", nonzero=True)
    f = sympy.Function("y")(r)
    v = f ** (1 / g)
    dv = v.diff(r)
    vpp = (1 - m) * dv * dv / v - (n - 1) * dv / r - (a * v + b * r * dv) * v ** (1 - m) / (n - 1)
    equation = (v.diff(r, 2) - vpp).subs({f.diff(r, 2): ddy, f.diff(r): dy, f: y}).subs(r, x)
    (exact,) = sympy.solve(equation, ddy)
    return (x, y, dy, n, m, a, b, g), exact


def _power_points(seed):
    """20 random (n, m, alpha, beta, r, v, v'), each at gamma = 1 (the
    r-form), m - 1 (the pressure), m and a random value."""
    rng = np.random.default_rng(seed)
    for _ in range(20):
        n_, m_ = int(rng.integers(3, 9)), rng.uniform(0.05, 0.7)
        a_, b_ = rng.normal(scale=2.0), rng.normal()
        x_, v_, dv_ = rng.uniform(0.1, 10.0), rng.uniform(0.1, 1e3), rng.normal(scale=10.0)
        for gamma in (1.0, m_ - 1.0, m_, rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 3.0)):
            yield n_, m_, a_, b_, x_, v_, dv_, gamma


def test_power_equation_is_the_profile_equation():
    # _power_pp against sympy's y''; and _from_power inverts _to_power
    import sympy

    symbols, exact = _sympy_power_ypp()
    exact = sympy.lambdify(symbols, exact)
    for n_, m_, a_, b_, x_, v_, dv_, gamma in _power_points(13):
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


def test_power_yppp_is_the_derivative_of_the_equation():
    # y''' in y = v^gamma, which the r-form's and the pressure's reads take,
    # against sympy's y'' differentiated along the solution
    import sympy

    symbols, ypp = _sympy_power_ypp()
    x, y, dy = symbols[:3]
    third = sympy.diff(ypp, x) + sympy.diff(ypp, y) * dy + sympy.diff(ypp, dy) * ypp
    exact = sympy.lambdify(symbols, third)
    for n_, m_, a_, b_, x_, v_, dv_, gamma in _power_points(17):
        y_, dy_ = ps._to_power(gamma, v_, dv_)
        f = ps._power_pp(n_, m_, a_, b_, gamma)
        (got,) = ps._power_yppp(f.values, x_, y_, dy_, f(x_, y_, dy_))
        assert got == pytest.approx(exact(x_, y_, dy_, n_, m_, a_, b_, gamma), rel=1e-10)


def test_log_derivatives_are_the_equations():
    # W''', W'''' and W''''' of the log-radius equation, which the log
    # tail's read takes, against sympy's derivatives along the solution of
    # the equation in q = r v'/v = (W_s - 2)/(1-m), as _scipy_log_solve
    # writes it
    import sympy

    W, Ws, n, m, a, b = sympy.symbols("W Ws n m alpha beta")
    q = (Ws - 2) / (1 - m)
    F = -m * (1 - m) * q * q - (n - 2) * (1 - m) * q - sympy.exp(W) * (1 - m) * (a + b * q) / (n - 1)
    derivatives = [F]
    for _ in range(3):
        d = derivatives[-1]
        derivatives.append(sympy.diff(d, W) * Ws + sympy.diff(d, Ws) * F)
    exact = sympy.lambdify((W, Ws, n, m, a, b), derivatives[1:])
    rng = np.random.default_rng(19)
    for _ in range(30):
        n_ = int(rng.integers(3, 9))
        p = yl.SolitonParams(
            n=n_, m=rng.uniform(0.05, 1.0) * (n_ - 2) / n_, alpha=rng.normal(scale=2.0),
            beta=rng.normal(), eta=1.0,
        )
        f = ps._log_wpp(p)
        W_, Ws_ = rng.uniform(-5.0, 3.0), rng.uniform(-3.0, 5.0)
        got = ps._log_derivatives(f.values, 0.0, W_, Ws_, f(0.0, W_, Ws_))
        assert got == pytest.approx(exact(W_, Ws_, p.n, p.m, p.alpha, p.beta), rel=1e-10)


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
    # each of these was accepted once: value_at(1.0) read 1.0 on the short v,
    # and nan on the inf and one-point grids
    shape, first = "1-D arrays of one length, at least 2", np.array([0])
    for r, v, dv, steps, message in [
        (r, ones[:2], ones, first, shape),
        (r, ones, ones[:2], first, shape),
        (r[:1], ones[:1], ones[:1], first, shape),
        (np.stack((r, r)), np.ones((2, 3)), np.ones((2, 3)), first, shape),
        (np.array([0.1, 0.2, math.inf]), ones, ones, first, "positive and finite"),
        (np.array([-1.0, 0.2, 0.3]), ones, ones, first, "positive and finite"),
        (np.array([0.0, 0.2, 0.3]), ones, ones, first, "positive and finite"),
        (np.array([0.1, math.nan, 0.3]), ones, ones, first, "strictly increasing"),
        (r, ones, ones, np.array([0, 2, 1]), "step_indices must be strictly increasing"),
        (r, ones, ones, np.array([1, 2]), "step_indices must start at 0"),
        (r, ones, ones, np.array([], dtype=int), "step_indices must start at 0"),
        (r, ones, ones, np.array([0, 3]), "step_indices fall outside the grid"),
        (r, ones, ones, np.array([0.0, 1.5]), "step_indices must be a 1-D array of integers"),
        (r, ones, ones, np.array([[0, 1]]), "step_indices must be a 1-D array of integers"),
    ]:
        with pytest.raises(ValueError, match=message):
            yl.RadialProfile(p, r, v, dv, status, 1e-9, 1e-12, steps)
    prof = yl.RadialProfile(p, r, ones, ones, status, 1e-9, 1e-12, [0, 2])
    assert prof.step_indices.tolist() == [0, 2] and prof.step_indices.dtype == int


def test_solve_profile_input_validation():
    p = yl.make_params(n=3, m=0.2, beta=1.0, rho=1.0, eta=1.0)
    with pytest.raises(ValueError, match="r_max must be positive"):
        yl.solve_profile(p, r_max=-1.0)
    with pytest.raises(ValueError, match="below r_max"):
        yl.solve_profile(p, r_max=1e-9, r0_scale=1e-6)
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


def test_profile_copies_the_callers_arrays():
    # the profile freezes its own copies: the caller's r, v, v' and step
    # indices stay writeable and share no memory with it
    p = yl.make_params(n=3, m=0.2, beta=1.0, rho=1.0, eta=1.0)
    arrays = np.array([0.1, 0.2, 0.3]), np.ones(3), np.zeros(3), np.array([0, 2])
    prof = yl.RadialProfile(p, *arrays[:3], yl.ProfileStatus("Global", 0.3), 1e-9, 1e-12, arrays[3])
    for mine, theirs in zip(arrays, (prof.r, prof.v, prof.dv, prof.step_indices)):
        assert mine.flags.writeable and not theirs.flags.writeable
        assert not np.shares_memory(mine, theirs)
    arrays[0][0] = 0.05
    assert prof.r[0] == 0.1


def test_solve_profile_refuses_an_r_max_past_float_range():
    # r_max / r0 must be a float: steady n=3 at e^700 or 1.5e308 raised an
    # untyped OverflowError while building the stored grid
    p = _params(3, 1.0, 0.0)
    for r_max in (math.exp(700.0), 1.5e308):
        with pytest.raises(ValueError, match="^r_max = .* r_max / r0 is not a finite float"):
            yl.solve_profile(p, r_max=r_max)


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


def _scipy_solve(profile, r_end, method, rtol, r_start=None, **options):
    """solve_ivp on the profile equation from the series start at r_start,
    by default the profile's own r0, with its own right-hand side as an
    independent reference."""
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

    r_start = profile.r0 if r_start is None else r_start
    y0 = yl.series_start(p, r_start)
    return solve_ivp(rhs, (r_start, r_end), y0, method=method, rtol=rtol, atol=profile.atol, **options)


def _reference(profile, r_end, **options):
    """DOP853 at rtol 1e-13 from the series at 1e-6 l, far inside its reach,
    so that it also checks the profile's start and its reads below r0."""
    start = 1e-6 * _length_scale(profile.params)
    return _scipy_solve(profile, r_end, "DOP853", 1e-13, r_start=start, **options)


# the C7 blow-up points (n=3, m=0.2) as (alpha, beta)
_C7_POINTS = {"case1": (-4.0, -1.0), "case2": (-1.0, -1.0), "case3": (-1.0, 0.0)}


@pytest.mark.parametrize("name", ["shrink3", "shrink5", "steady", "expand", *_C7_POINTS])
def test_value_at_slope_matches_reference(request, name):
    # v' from the Hermite through (v', v'', v''') keeps the steps' accuracy;
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
    v_ref, dv_ref = _reference(prof, radii[-1], t_eval=radii).y
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
    v_ref, dv_ref = _reference(prof, 10.0, t_eval=radii).y
    v, dv = prof.value_at(radii, derivative=True)
    assert np.all(np.abs(v - v_ref) <= 1e-6 * v_ref)
    assert np.all(np.abs(dv - dv_ref) <= 1e-6 * np.abs(dv_ref))

    # same method and controller: the accepted steps of each phase match
    # scipy's, RK45 on the r-form to r_h at LOG_TOL_FACTOR * rtol, and on the
    # log-radius equation from the state there, at LOG_TOL_FACTOR * rtol as
    # rtol and atol, the method the package's own rule picks: DOP853 for
    # shrinking and steady tails, RK45 for expanding ones.  scipy's first
    # step is not invariant under the eta gauge (its h1 goes as l^(1/5)), and
    # an r-form from l / 2 takes a few dozen steps: the counts may differ by
    # one
    rk45 = _scipy_solve(prof, r_h, "RK45", ps.LOG_TOL_FACTOR * prof.rtol)
    assert abs(head - (len(rk45.t) - 1)) <= max(1.0, 0.02 * head)
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
    v_ref, dv_ref = _reference(prof, radii[-1], t_eval=radii).y
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
    ref = _reference(prof, 1e4, events=cap, t_eval=fractions * r_star)
    assert r_star == pytest.approx(ref.t_events[0][0], rel=2e-10, abs=0.0)
    v, dv = prof.value_at(fractions * r_star, derivative=True)
    err = np.maximum(np.abs(v / ref.y[0] - 1.0), np.abs(dv / ref.y[1] - 1.0))
    assert np.all(err <= [1e-8, 1e-7, 8e-7])


_DECADE_POINTS = (
    _params(3, 1.0, 1.0),
    yl.make_params(n=3, m=0.2, alpha=-1.0, beta=-1.0, eta=1.0),
    _params(5, 2.0, -1.2).with_eta(0.01),
)


def _decades(test):
    """test at each point of _DECADE_POINTS and every decade of c up to 1e14."""
    for p in _DECADE_POINTS:
        for log_c in range(1, 15):
            test = example(p=p, log_c=float(log_c))(test)
    return test


# (point, log c) of the decades where the two-term start passed its refusal
# with v' or r* off by more than test_alpha_beta_scaling allows: its v' =
# v''(0) r0 was off by O(r0^2), which grew like c (1.7e-7 and 5.4e-5 at
# shrink3 at c = 1e7 and 1e8).  The series start holds v' to its own reach.
_SLOPE_DRIFTS = [
    (_DECADE_POINTS[i], log_c) for i, log_c in ((0, 7.0), (0, 8.0), (1, 7.0), (1, 8.0), (2, 8.0))
]


def _scaling_runs(p, log_c):
    """_scaled_pair of p and p with (alpha, beta) -> c (alpha, beta), c =
    10^log_c, which maps v(r) to v(sqrt(c) r): (lam, *the pair)."""
    c = 10.0**log_c
    p_c = yl.make_params(n=p.n, m=p.m, alpha=c * p.alpha, beta=c * p.beta, eta=p.eta)
    lam = 1.0 / math.sqrt(c)
    return lam, *_scaled_pair(p, p_c, lam)


def _check_slope(lam, prof, prof_c, dv, dv_c):
    assert _rel(lam * dv_c, dv) <= 1e-8
    if prof.status.kind == "BlowUp":
        assert prof_c.status.radius == pytest.approx(lam * prof.status.radius, rel=1e-10, abs=0.0)


@given(p=_symmetry_point(), log_c=st.floats(min_value=-0.7, max_value=0.7))
@settings(max_examples=25, deadline=None, derandomize=True)
@_decades
def test_alpha_beta_scaling(p, log_c):
    # r0 is the series' reach, which scales like c^(-1/2), but at most l / 2:
    # where that cap holds for one run of the pair and not the other, the
    # runs start at different scaled radii and take different steps (worst
    # of these examples 1.9e-10 in v, 1.8e-9 in v' and 1.1e-11 in the
    # blow-up radius, all at the decade points).  No run is refused: the
    # series start holds at every c up to 1e14
    lam, prof, prof_c, (v, dv), (v_c, dv_c) = _scaling_runs(p, log_c)
    assert _rel(v_c, v) <= 1e-8
    assert prof_c.status.kind == prof.status.kind
    _check_slope(lam, prof, prof_c, dv, dv_c)


@pytest.mark.parametrize(("p", "log_c"), _SLOPE_DRIFTS)
def test_a_scaled_start_keeps_the_slope(p, log_c):
    lam, prof, prof_c, (v, dv), (v_c, dv_c) = _scaling_runs(p, log_c)
    # the scaled run starts at the scaled series reach, inside l / 2
    reach = ps._series_reach(ps._series(p), RTOL) * _length_scale(p)
    assert prof_c.r0 == pytest.approx(lam * reach, rel=1e-12)
    _check_slope(lam, prof, prof_c, dv, dv_c)


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


@pytest.mark.parametrize("r0_scale", [1.0, 2.0])
@pytest.mark.parametrize("alpha, beta", [(1e-9, 1.0), (1e-5, 1e-6)])
def test_a_start_at_or_past_l_runs_the_rform_alone(monkeypatch, r0_scale, alpha, beta):
    # the log tail takes over at l = eta^((m-1)/2) only from a series start
    # below it: the r-form from l to l raised ZeroDivisionError, and a tail
    # past l read a one-knot r-form run (IndexError).  The second point's
    # tail would run on _dop853, whose lattice points residuals read in
    # place of its steps; with no tail it reads the r-form's own steps
    runs = _recording_kernels(monkeypatch)
    p = yl.make_params(n=3, m=0.2, alpha=alpha, beta=beta, eta=1.0)
    prof = yl.solve_profile(p, r_max=100.0, r0_scale=r0_scale)
    assert [name for name, _ in runs] == ["_dopri5"]
    assert prof.status == yl.ProfileStatus("Global", 100.0)
    assert prof.r0 == r0_scale
    read = []
    quintic = ps._quintic_vpp
    monkeypatch.setattr(ps, "_quintic_vpp", lambda r, *vdv: read.append(r) or quintic(r, *vdv))
    yl.residuals(prof)
    assert [r.tolist() for r in read] == [prof.r[prof.step_indices].tolist()]


def test_a_series_start_past_rtol_is_refused(shrink3_params):
    # an explicit r0_scale holds up to the series' reach, where the terms it
    # drops reach a thousandth of rtol: 0.76 l at shrink3 and rtol 1e-9, 0.82 l
    # at rtol 1e-8
    reach = ps._series_reach(ps._series(shrink3_params), 1e-9)
    assert 0.5 < reach < 0.8 < ps._series_reach(ps._series(shrink3_params), 1e-8)
    for r0_scale in (1e-2, reach):
        assert yl.solve_profile(shrink3_params, r_max=100.0, r0_scale=r0_scale).status.kind == "Global"
    assert yl.solve_profile(shrink3_params, r_max=100.0, rtol=1e-8, r0_scale=0.8).status.kind == "Global"
    for r0_scale in (1.01 * reach, 0.8, 1.0, 2.0):
        with pytest.raises(ValueError, match=f"^r0_scale = {r0_scale!r} is too large"):
            yl.solve_profile(shrink3_params, r_max=100.0, r0_scale=r0_scale)
    # the coefficients grow like |(alpha, beta)|^k: at 1e18 the run starts at
    # 1.6e-9 l, and at 1e20 the last ones overflow, which is refused
    big, huge = (yl.make_params(n=3, m=0.2, alpha=c, beta=0.1 * c, eta=1.0) for c in (1e18, 1e20))
    assert yl.solve_profile(big, r_max=1.0).r0 == pytest.approx(1.6475e-9, rel=1e-4)
    with pytest.raises(ValueError, match="^the origin series overflows at alpha = 1e[+]20"):
        yl.solve_profile(huge, r_max=1.0)


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
    # the arrays the step-loop generator reads: the 12 stages and, as the last
    # row, the weights, whose stage is f at the new point; scipy's three
    # further stages serve its dense output only
    from scipy.integrate._ivp import dop853_coefficients as ref

    method = ps._DOP853
    assert method.a.shape == (13, 13) and ref.N_STAGES == 12
    for got, want in [
        (method.a, ref.A[:13, :13]), (method.a[12, :12], ref.B), (method.c, ref.C[:13]),
        (method.weights["e3"], ref.E3), (method.weights["e5"], ref.E5),
    ]:
        assert np.array_equal(got, want)
    # each node is its row's sum, to rounding
    assert np.allclose(method.a.sum(axis=1), method.c, rtol=0.0, atol=8 * ps._EPS)


def test_dopri5_tableau_is_scipys():
    from scipy.integrate import RK45

    method = ps._DOPRI5
    assert method.a.shape == (7, 7)
    assert np.array_equal(method.a[:6, :5], RK45.A) and np.array_equal(method.a[6, :6], RK45.B)
    assert np.array_equal(method.c, np.append(RK45.C, 1.0))
    assert np.array_equal(method.weights["e"], RK45.E)
    assert RK45.error_estimator_order == method.order


def test_accepted_steps_cost_their_stages_only():
    # a counting right side: two evaluations before the first step (f at
    # the start and scipy's initial-step probe), then 6 per accepted DOPRI5
    # step and 12 per accepted DOP853 step (15 with the three stages of
    # DOP853's dense output), the last stage being f at the new point, which
    # the next step reuses.  y'' = -y to r = 1 at rtol 1e-9 takes no rejected
    # step on either
    for kernel, stages in ((ps._dopri5, 6), (ps._dop853, 12)):
        calls = []

        def f(r, y, dy):
            calls.append(r)
            return -y

        traj = kernel(f, 0.0, (1.0, 0.0), 1.0, 1e-9, 1e-12)
        assert traj.status == 0 and len(traj.h) >= 5
        assert len(calls) == 2 + stages * len(traj.h)
        # the recorded y'' is that last stage, f at each step point
        assert np.array_equal(traj.ypp, -traj.y[0])


def _scipy_dense_on_steps(traj, fun, method):
    """scipy's own dense output (method, RK45 or DOP853) on each step of
    traj, each step taken from traj's state at its start: an OdeSolution over
    traj's step points."""
    from scipy.integrate import OdeSolution
    from scipy.integrate._ivp.rk import rk_step

    solver = method(fun, traj.t[0], traj.y[:, 0], traj.t[-1] + traj.h[-1])
    pieces = []
    for t, y, h in zip(traj.t[:-1].tolist(), traj.y.T[:-1].copy(), traj.h.tolist()):
        y_new, f_new = rk_step(solver.fun, t, y, solver.fun(t, y), h, solver.A, solver.B,
                               solver.C, solver.K)
        solver.t_old, solver.y_old, solver.t, solver.y = t, y, t + h, y_new
        solver.f, solver.h_previous = f_new, h
        pieces.append(solver._dense_output_impl())
    return OdeSolution(traj.t, pieces)


# the runs' phases: the r-form, then a DOP853 log tail (shrink3, steady), a
# DOPRI5 log tail (expand) or the pressure (blowup, case1; both phases end on
# an event), and w_log_dynamics on a shrinking tail and to its runaway and
# collapse stops
_FILL_RUNS = {
    "shrink3": lambda: yl.solve_profile(_params(3, 1.0, 1.0), r_max=R_MAX, rtol=RTOL),
    "steady": lambda: yl.solve_profile(_params(3, 1.0, 0.0), r_max=R_MAX, rtol=RTOL),
    "expand": lambda: yl.solve_profile(_params(3, 1.0, -1.0), r_max=100.0, rtol=RTOL),
    "blowup": lambda: yl.solve_profile(
        yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=-1.0), r_max=100.0, rtol=RTOL
    ),
    "case1": lambda: yl.solve_profile(
        yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=-4.0), r_max=100.0, rtol=RTOL
    ),
    "continuation": lambda: yl.w_log_dynamics(
        _params(5, 1.0, 1.0), (math.log(10.0), math.log(1e6)), (1.0, 0.0)
    ),
    "runaway": lambda: yl.w_log_dynamics(_params(5, 1.0, 1.0), (0.0, 5.0), (50.0, -400.0)),
    "collapse": lambda: yl.w_log_dynamics(
        _params(3, 1.0, 1.0), (0.0, 5.0), (math.exp(-59.9), -3.0 * math.exp(-59.9))
    ),
}


@pytest.mark.parametrize("case", list(_FILL_RUNS))
def test_fill_and_roots_are_closer_than_scipys_dense_output(monkeypatch, case):
    # every run of the case read between its steps by its right side's read
    # (_fill) and by scipy's own dense output on the same steps, from the
    # same states, both against DOP853 at rtol 1e-13 from the start of each
    # step: the error both share from the steps before is left out, as it
    # decides which one lands closer to a reference from the run's start
    # (the r-form's v there read 1.8e-11 against scipy's 9.1e-12 on shrink5,
    # and 2.5e-12 against 2.6e-11 step by step).  Event roots likewise, on
    # the last step, its end state's error left out too, up to the
    # bisection's width of 4 eps (1 + |r|).  The
    # pressure's P' may read up to 3x scipy's: near the cap P'' = f(r, P, P')
    # cancels terms of order P'^2/P, about 1e8 on case1's last steps (P < 3e-8),
    # so the step end's local error reaches the P'' the read is built from
    # times 1e8 (case1 9.6e-10 against 3.5e-10 there; blowup 2.3e-10 against
    # 3.2e-10)
    from scipy.integrate import DOP853, RK45
    from scipy.optimize import brentq

    runs = []
    for name, method in (("_dopri5", RK45), ("_dop853", DOP853)):
        def recording(f, *args, kernel=getattr(ps, name), method=method):
            runs.append((f, args, method, kernel(f, *args)))
            return runs[-1][-1]

        monkeypatch.setattr(ps, name, recording)
    _FILL_RUNS[case]()
    fractions = np.array([0.25, 0.5, 0.8])
    for i, (f, (r0, y0, r_end, rtol, atol, *event), method, traj) in enumerate(runs):
        pressure = i == 1 and f.equation is ps._POWER
        fun = lambda r, y, f=f: [y[1], f(r, y[0], y[1])]
        scipy_dense = _scipy_dense_on_steps(traj, fun, method)
        ours, theirs = [], []
        for k in range(len(traj.h)):
            a, b = traj.t[k], traj.t[k] + traj.h[k]
            x = a + fractions * (traj.t[k + 1] - a)
            ref = solve_ivp(fun, (a, b), traj.y[:, k], method="DOP853", rtol=1e-13,
                            atol=1e-3 * atol, dense_output=True).sol
            ours.append(np.abs(np.array(ps._fill(f, traj, x)) - ref(x)).max(axis=1))
            theirs.append(np.abs(scipy_dense(x) - ref(x)).max(axis=1))
        # (y, y') each, worst over the run
        slack = [1.0, 3.0 if pressure else 1.0]
        assert np.all(np.max(ours, axis=0) <= slack * np.max(theirs, axis=0))
        if traj.status == 1:
            # both reads pass through the last step's end state, whose local
            # error sets a root near that end: case1's r-form root lies at
            # 0.989 of its step, where that error moves both roots by
            # 2.36e-13.  So the reference is blended across the step from the
            # solution through its start state into the one through its end
            # state, which scipy's dense output holds at b
            a, b = traj.t[-2], traj.t[-2] + traj.h[-1]
            ends = [solve_ivp(fun, span, y, method="DOP853", rtol=1e-13, atol=1e-3 * atol,
                              dense_output=True).sol
                    for span, y in (((a, b), traj.y[:, -2]), ((b, a), scipy_dense(b)))]

            def ref(x):
                return ends[0](x) + (x - a) / (b - a) * (ends[1](x) - ends[0](x))

            def root(sol):
                return brentq(lambda r: event[0](*sol(r)), a, b, xtol=1e-300, rtol=4 * ps._EPS)

            width = 4 * ps._EPS * (1.0 + abs(b))
            assert abs(traj.t[-1] - root(ref)) <= abs(root(scipy_dense) - root(ref)) + width


@pytest.mark.parametrize("alpha", [-1.0, -4.0])
def test_blowup_residual_reads_the_pressure(alpha):
    # past the core l = 1 the blow-up profile is read in P = v^-(1-m): the
    # pressure steps read at most 7.5e-9 (alpha = -1) and 1.0e-8 (-4), the
    # handoff root, 0.3% and 1% in v past the r-form's last step, 9.9e-8 and
    # 1.3e-7, and the maximum, 9.9e-8 and 4.0e-7, sits at the root and at
    # r-form steps near the origin.  In v every step read it 1.5e9 and 1.9e9
    p = yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=alpha)
    prof = yl.solve_profile(p, r_max=100.0, rtol=1e-9)
    assert prof.status.kind == "BlowUp"
    clean = yl.residuals(prof).max_ode_residual
    assert clean < 1e-6
    # a 1 ppm bump on a pressure step an eighth of the way from the handoff
    # to the cap reads 5.2e-5 and 6.1e-5 in P
    si = prof.step_indices
    handoff = int(np.flatnonzero(prof.v[si] < ps.PRESSURE_SWITCH)[-1])
    bump = int(si[handoff + (len(si) - handoff) // 8])
    bad = perturb_profile(prof, bump, 1.0 + 1e-6)
    assert yl.residuals(bad).max_ode_residual > 100.0 * clean


def test_blowup_fill_radius_an_ulp_from_a_step(monkeypatch):
    # a pressure-phase fill radius one ulp below an accepted step of the
    # eta = 1 problem, where l = eta^((m-1)/2) maps both to one float: the
    # profile keeps the step and drops the fill.  l = 0.693 keeps the steps
    # near r* = 3.05 in [2, 4), 0.693 ulp apart, and 12 of the pressure
    # phase's 40 steps before the cap round together with their lower neighbour
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
    # the pressure phase starts at the r-form's end point, its event root
    steps = np.concatenate((head.t, tail.t[1:]))
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
    # for the log tail): scipy's RK45 on the r-form to the handoff, the root
    # v = PRESSURE_SWITCH, and on the pressure equation from the state there
    # to the cap.  RK45 on the r-form alone to the cap read up to 1.2e-11
    # from this two-phase radius (case3)
    p = yl.make_params(n=3, m=0.2, beta=beta, eta=1.0, alpha=alpha)
    prof = yl.solve_profile(p, r_max=100.0, rtol=1e-9)
    assert prof.status.kind == "BlowUp"
    switch = _terminal(lambda r, y: y[0] - ps.PRESSURE_SWITCH, 1)
    near = _scipy_solve(prof, 100.0, "RK45", 1e-9, events=switch)
    assert near.status == 1
    # after a terminal event solve_ivp ends on its root, so t[-2] is its last
    # step; the two controllers' steps drift apart by about 1e-9 there.  The
    # profile's root is the step point after that step, 2e-12 or less from
    # scipy's, which scipy reads from its quartic dense output
    steps = prof.r[prof.step_indices]
    k = int(np.argmin(np.abs(steps - near.t[-2])))
    head = _scipy_solve(prof, steps[k], "RK45", 1e-9)
    v, dv = prof.value_at(steps[k], derivative=True)
    assert head.y[:, -1] == pytest.approx([v, dv], rel=1e-12, abs=0.0)
    r_h = steps[k + 1]
    assert r_h == pytest.approx(near.t[-1], rel=1e-11, abs=0.0)
    cap = _terminal(lambda r, y: y[0] - ps.BLOWUP_CAP ** (p.m - 1.0), -1)
    tail = _scipy_pressure_solve(prof, r_h, 100.0, "RK45", 1e-9, events=cap)
    assert tail.status == 1
    assert prof.status.radius == pytest.approx(tail.t_events[0][0], rel=1e-12, abs=0.0)


def _step_reads(f, traj, every):
    """(t_old, t_new, v on the step as the run is read, in floats) for every
    so-many steps of a run."""
    for k in range(0, len(traj.h), every):
        t, h = traj.t[k : k + 2], traj.h[k]
        chain = [c.tolist() for c in ps._chain(f, t, *traj.y[:, k : k + 2], traj.ypp[k : k + 2])]
        yield t[0], t[0] + h, lambda r, chain=chain, t0=t[0], h=h: ps._read(chain, h, r - t0)[0]


@pytest.mark.parametrize(
    "alpha, beta, rho", [(-4.0, -1.0, None), (None, 1.0, 1.0), (None, 1.0, -1.0)],
    ids=["blowup", "shrink3", "expand"],
)
def test_bracketed_root_matches_brentq(alpha, beta, rho):
    from scipy.optimize import brentq

    p = yl.make_params(n=3, m=0.2, beta=beta, rho=rho, alpha=alpha, eta=1.0)
    r0 = 1e-6
    f = ps._power_pp(p.n, p.m, p.alpha, p.beta, 1.0)
    cap = lambda v, dv: v - ps.BLOWUP_CAP
    traj = ps._dopri5(f, r0, yl.series_start(p, r0), 100.0, 1e-9, 1e-30, cap)
    checked = 0
    for a, b, v_of in _step_reads(f, traj, max(len(traj.h) // 40, 1)):
        # a level the quintic crosses inside the step, as a rising event;
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


def test_a_root_takes_at_most_15_reads(monkeypatch):
    # both roots of each blow-up solve (the r-form's switch, the pressure's
    # cap), and levels near either end and inside every step of a run where
    # v is not flat to 1e-8: at most 15 reads of the step, the two ends
    # included (bisection took 17-43 on the blow-up roots)
    reads, real = [], ps._bracketed_root

    def counting(fun, a, b):
        reads.append(0)

        def counted(r):
            reads[-1] += 1
            return fun(r)

        return real(counted, a, b)

    monkeypatch.setattr(ps, "_bracketed_root", counting)
    for alpha in (-1.0, -4.0):
        p = yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=alpha)
        assert yl.solve_profile(p, r_max=100.0, rtol=1e-9).status.kind == "BlowUp"
    assert len(reads) == 4
    f = ps._power_pp(p.n, p.m, p.alpha, p.beta, 1.0)
    cap = lambda v, dv: v - ps.BLOWUP_CAP
    traj = ps._dopri5(f, 1e-6, yl.series_start(p, 1e-6), 100.0, 1e-9, 1e-30, cap)
    for a, b, v_of in _step_reads(f, traj, 1):
        if a < 1e-2 or abs(v_of(b) - v_of(a)) < 1e-8 * abs(v_of(a)):
            continue
        sign = 1.0 if v_of(b) > v_of(a) else -1.0
        for fraction in (1e-9, 0.01, 0.37, 0.99, 1.0 - 1e-9):
            level = v_of(a + fraction * (b - a))
            ps._bracketed_root(lambda r: sign * (v_of(r) - level), a, b)
    assert len(reads) > 100 and max(reads) <= 15


@given(lo=st.floats(1e-300, 1e300), decades=st.floats(0.0, 300.0))
@example(lo=1e-6, decades=0.0)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_refinement_is_geomspace_to_the_bit(lo, decades):
    # _refinement writes out np.geomspace's float operations, at the number
    # of points it draws for the pair
    hi = lo * 10.0**decades
    if not math.isfinite(hi):
        return
    num = max(int(np.ceil(max(np.log10(hi / lo), 1e-9) * ps.POINTS_PER_DECADE)), 2)
    assert ps._refinement(lo, hi).tobytes() == np.geomspace(lo, hi, num).tobytes()


def _recorded_runs(monkeypatch, solve):
    """(f, trajectory) of every kernel run of solve()."""
    runs = []
    for name in ("_dopri5", "_dop853"):
        def recording(f, *args, kernel=getattr(ps, name)):
            runs.append((f, kernel(f, *args)))
            return runs[-1][1]

        monkeypatch.setattr(ps, name, recording)
    solve()
    return runs


@pytest.mark.parametrize("case", ["shrink3", "blowup", "log_dynamics"])
def test_fill_reads_each_knot_once_and_keeps_the_states(monkeypatch, case):
    # the equation's higher derivatives are taken at no more knots than the
    # run has, however many points are read, and every step point, the run's
    # last included, reads the kernel's state to the bit
    for f, traj in _recorded_runs(monkeypatch, _KERNEL_RUNS[case]):
        knots, derivatives = [], f.derivatives

        def counting(t, *rest, f=f):
            knots.append(np.size(t))
            return derivatives(t, *rest)

        monkeypatch.setattr(f, "derivatives", counting)
        x = np.sort(np.concatenate((traj.t, np.linspace(traj.t[0], traj.t[-1], 3000))))
        ps._fill(f, traj, x)
        assert sum(knots) <= len(traj.t)
        y, dy = ps._fill(f, traj, traj.t)
        assert y.tobytes() == traj.y[0].tobytes() and dy.tobytes() == traj.y[1].tobytes()


@pytest.mark.parametrize("case", ["shrink3", "shrink5", "steady", "expand", "blowup", "case1"])
def test_each_step_point_stores_its_kernels_state(monkeypatch, case):
    # every accepted step of every phase is stored as its kernel's state,
    # mapped to (v, v'), to the bit: the r-form's as it is, the log tail's
    # (W, W_s) by _from_log at the stored radius, the pressure's (P, P') by
    # _from_power (eta = 1, so l = 1 and nothing is rescaled)
    solve = _KERNEL_RUNS.get(case, lambda: yl.solve_profile(
        yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=-4.0), r_max=100.0, rtol=RTOL))
    profiles = []
    (_, head), (_, tail) = _recorded_runs(monkeypatch, lambda: profiles.append(solve()))
    (prof,) = profiles
    m, si = prof.params.m, prof.step_indices
    assert len(si) == len(head.t) + len(tail.t) - 1
    tail_at = si[len(head.t):]
    if prof.status.kind == "BlowUp":
        assert prof.r[tail_at].tobytes() == tail.t[1:].tobytes()
        expected = ps._from_power(m - 1.0, *tail.y[:, 1:])
    else:
        expected = ps._from_log(m, prof.r[tail_at], *tail.y[:, 1:])
    assert prof.r[si[: len(head.t)]].tobytes() == head.t.tobytes()
    assert prof.v[si].tobytes() == np.concatenate((head.y[0], expected[0])).tobytes()
    assert prof.dv[si].tobytes() == np.concatenate((head.y[1], expected[1])).tobytes()


@pytest.mark.parametrize("eta", [1.0, 2.5])
def test_pressure_phase_starts_at_the_rform_root(monkeypatch, eta):
    # one handoff for both end phases, the r-form's last point: in a blow-up
    # its event root, where v = PRESSURE_SWITCH eta to within the root's
    # width 4 eps (1 + |r|) times v', and a stored step point
    p = yl.make_params(n=3, m=0.2, alpha=-1.0, beta=-1.0, eta=eta)
    profiles = []
    (_, head), (_, tail) = _recorded_runs(
        monkeypatch, lambda: profiles.append(yl.solve_profile(p, r_max=100.0, rtol=RTOL)))
    (prof,) = profiles
    r_h, (v, dv) = head.t[-1], head.y[:, -1]
    assert head.status == 1 and tail.t[0] == r_h
    assert tail.y[:, 0].tolist() == list(ps._to_power(p.m - 1.0, float(v), float(dv)))
    assert abs(v - ps.PRESSURE_SWITCH) <= dv * 4 * np.finfo(float).eps * (1.0 + r_h)
    length = _length_scale(p)
    i = prof.step_indices[len(head.t) - 1]
    assert (prof.r[i], prof.v[i], prof.dv[i]) == (length * r_h, eta * v, eta / length * dv)


def test_a_read_does_not_depend_on_the_calls_size(monkeypatch, shrink3_profile):
    # a radius read alone gets the bits it gets inside a 1,500-radius call,
    # by value_at and by _fill alike: the reads are sums in a fixed order,
    # where a basis matmul may round a 1-wide product differently
    rng = np.random.default_rng(7)
    radii = np.sort(rng.uniform(shrink3_profile.r[0], shrink3_profile.r[-1], 1500))
    picks = rng.choice(1500, 20, replace=False)
    v, dv = shrink3_profile.value_at(radii, derivative=True)
    for i in picks:
        assert shrink3_profile.value_at(radii[i], derivative=True) == (v[i], dv[i])
    for f, traj in _recorded_runs(monkeypatch, _KERNEL_RUNS["shrink3"]):
        x = np.sort(rng.uniform(traj.t[0], traj.t[-1], 1500))
        y, dy = ps._fill(f, traj, x)
        for i in picks:
            one = ps._fill(f, traj, x[i : i + 1])
            assert (one[0][0], one[1][0]) == (y[i], dy[i])


_C7_RUNS = {
    f"c7-alpha{alpha:g}": (yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=alpha), 100.0)
    for alpha in (-1.0, -4.0)
}


@pytest.mark.parametrize("case", ["shrink3", "shrink5", "steady", "expand", *_C7_RUNS, "eta12.5"])
def test_value_at_returns_every_stored_knot(request, case):
    # every grid point, the last included, reads its stored (v, v') to the
    # bit, in one call and alone
    if case in _C7_RUNS:
        p, r_max = _C7_RUNS[case]
        prof = yl.solve_profile(p, r_max=r_max, rtol=RTOL)
    elif case == "eta12.5":
        prof = yl.solve_profile(_params(5, 1.0, 1.0).with_eta(12.5), r_max=R_MAX, rtol=RTOL)
    else:
        prof = request.getfixturevalue(f"{case}_profile")
    v, dv = prof.value_at(prof.r, derivative=True)
    assert v.tobytes() == prof.v.tobytes()
    assert dv.tobytes() == prof.dv.tobytes()
    for i in (0, len(prof.r) // 2, len(prof.r) - 1):
        assert prof.value_at(prof.r[i], derivative=True) == (prof.v[i], prof.dv[i])


def test_a_profile_takes_its_chain_once(monkeypatch, shrink3_params):
    # v'' and v''' of a stored profile come from one chain over its grid,
    # taken on first use: value_at (scalar and array), geometry and the
    # residuals all read it
    prof = yl.solve_profile(shrink3_params, r_max=1e3, rtol=RTOL)
    calls = []
    chain = ps._chain
    monkeypatch.setattr(ps, "_chain", lambda f, t, *knots: calls.append(np.shape(t)) or chain(f, t, *knots))
    prof.value_at(5.0)
    prof.value_at(np.geomspace(1e-3, 900.0, 1400), derivative=True)
    yl.compute_geometry(prof)
    yl.residuals(prof)
    prof.value_at(0.5, derivative=True)
    assert calls == [prof.r.shape]


# One public call per case.  The conftest profiles, the touch-down, a Case-2
# blow-up and a log-radius continuation.
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
# r_end or the event root, which on the touch-down is where v falls through
# the atol floor).  The r-form starts at r0 = l / 2.  The alpha, beta > 0 profiles
# run twice, the r-form to r_h = l = 1, then (s, W, W_s) from log r_h
# to log R_MAX, on _dop853 for shrink3, shrink5 and steady and on _dopri5
# for expand; log_dynamics (rho = 1) runs on _dop853.  So does the blow-up
# run twice: the r-form up to its event v = 100, then (r, P, P') from that
# root, the r-form's end point, up to the cap.
_KERNEL_PINS = {
    "shrink3": (
        (
            37,
            0,
            {
                1: ("0x1.011ff0288b37bp-1", "0x1.da379d02113fbp-1", "-0x1.19b6e7058dd57p-2"),
                18: ("0x1.735c7d63a009fp-1", "0x1.b650d78215d6ep-1", "-0x1.636539968abffp-2"),
                36: ("0x1.f899a9fb316cbp-1", "0x1.85117eff9f1d8p-1", "-0x1.898ad29b90f90p-2"),
            },
            ("0x1.0000000000000p+0", "0x1.8238bc31ab6bfp-1", "-0x1.8a500d9e675e6p-2"),
        ),
        (
            35,
            0,
            {
                1: ("0x1.87bd6b458428ap-6", "-0x1.80580173cfc04p-3", "0x1.934e8f69de66dp+0"),
                17: ("0x1.509669d8160fap+1", "0x1.f4f2482f9ef8fp-1", "-0x1.bc66876ce2181p-3"),
                34: ("0x1.2091c2273624ap+3", "0x1.685b4b28e1057p-1", "0x1.7c6dacab4d680p-14"),
            },
            ("0x1.26bb1bbb55516p+3", "0x1.6844f930288bep-1", "-0x1.d5fe8bc15bff9p-10"),
        ),
    ),
    "shrink5": (
        (
            49,
            0,
            {
                1: ("0x1.01399932f48ddp-1", "0x1.ef776b3bc0869p-1", "-0x1.009f672939948p-3"),
                24: ("0x1.6fd0a03ecb99dp-1", "0x1.df10bd6a3a0a6p-1", "-0x1.5c350fbf4a55fp-3"),
                48: ("0x1.fc908936cfb69p-1", "0x1.c3d2f549f7374p-1", "-0x1.b77dbd6a0de61p-3"),
            },
            ("0x1.0000000000000p+0", "0x1.c315d542b8846p-1", "-0x1.b95567ffc510fp-3"),
        ),
        (
            45,
            0,
            {
                1: ("0x1.7aaabe7a165a9p-6", "-0x1.e2a6a01fe97eap-6", "0x1.daa59dae55f46p+0"),
                22: ("0x1.47b7f2740b46ep+1", "0x1.3c2731d4438c1p+1", "0x1.aea2e7f6f271ap-4"),
                44: ("0x1.1b4040e8aa160p+3", "0x1.3e1137018f9afp+1", "0x1.b360685e0daf4p-17"),
            },
            ("0x1.26bb1bbb55516p+3", "0x1.3e11549062637p+1", "0x1.dc0021dc4c2bfp-18"),
        ),
    ),
    "steady": (
        (
            36,
            0,
            {
                1: ("0x1.0130253991202p-1", "0x1.e65aa3b88e546p-1", "-0x1.85296ffbb22e5p-3"),
                18: ("0x1.7715070baf36ap-1", "0x1.cc3613360e8f7p-1", "-0x1.ff824de544ea0p-3"),
                35: ("0x1.fcac9f605a55ep-1", "0x1.a7d54d9122d8cp-1", "-0x1.2905ba618135bp-2"),
            },
            ("0x1.0000000000000p+0", "0x1.a6de1384885f9p-1", "-0x1.29ae9f7942eaep-2"),
        ),
        (
            100,
            0,
            {
                1: ("0x1.81a82c95f3740p-6", "-0x1.cd9afb456534cp-4", "0x1.b50092b929023p+0"),
                50: ("0x1.723da4601fe57p+2", "0x1.5490aeee919fap+1", "0x1.22d7c6e389e01p-3"),
                99: ("0x1.24b0bb7430e91p+3", "0x1.864d7d79aaef3p+1", "0x1.86f68240102ebp-4"),
            },
            ("0x1.26bb1bbb55516p+3", "0x1.871451f290b70p+1", "0x1.849076aeeb200p-4"),
        ),
    ),
    "expand": (
        (
            34,
            0,
            {
                1: ("0x1.013afa5034a8dp-1", "0x1.f2f16fa702d2bp-1", "-0x1.9351eb4d496e1p-4"),
                17: ("0x1.7407bccd33c13p-1", "0x1.e58e4392caeecp-1", "-0x1.116fa86e5aeaep-3"),
                33: ("0x1.f7f63ece7f284p-1", "0x1.d1d1887a33133p-1", "-0x1.4f87ca0504badp-3"),
            },
            ("0x1.0000000000000p+0", "0x1.d07ede69736e3p-1", "-0x1.5292be1330a7cp-3"),
        ),
        (
            5034,
            0,
            {
                1: ("0x1.3c8119836f1c8p-9", "-0x1.2cbbdf95e17c7p-4", "0x1.da85b9d8c4150p+0"),
                2517: ("0x1.03c593f527c0cp+3", "0x1.20733e99b001ap+3", "0x1.000bf6b2925c2p+0"),
                5033: ("0x1.26bae4e2d70a0p+3", "0x1.43698df040ca2p+3", "0x1.00040301a6c81p+0"),
            },
            ("0x1.26bb1bbb55516p+3", "0x1.4369c4c99b17ap+3", "0x1.000402fac0e74p+0"),
        ),
    ),
    "negcurv": (
        (
            1815,
            0,
            {
                1: ("0x1.0300251c7b152p-1", "0x1.06dcfc922440cp+0", "0x1.b49b57ac4c1a0p-4"),
                907: ("0x1.48c49b9b1cbdbp+4", "0x1.4bcef1e4e596cp+4", "0x1.42ca436c79590p+0"),
                1814: ("0x1.dfe6ee83a626ep+4", "0x1.0a25aeeea9d49p+5", "0x1.62e025836a545p+0"),
            },
            ("0x1.e000000000000p+4", "0x1.0a370f1c34456p+5", "0x1.62e4c939d6fc4p+0"),
        ),
    ),
    "touchdown": (
        (
            883,
            1,
            {
                1: ("0x1.02f9d507499c2p-1", "0x1.f4e5a6cf80f64p-1", "-0x1.65231c3ef4a6cp-4"),
                441: ("0x1.af8c17de44726p+2", "0x1.8de582754716cp-46", "-0x1.7b2cff913bf30p-38"),
                882: ("0x1.b0dcbbb0ad24dp+2", "0x1.4df9eee1add77p-100", "-0x1.1d330f8480ed2p-81"),
            },
            ("0x1.b0dcbbf55fdf3p+2", "0x1.4484bfebd101cp-100", "-0x1.16b84374acd30p-81"),
        ),
    ),
    "blowup": (
        (
            201,
            1,
            {
                1: ("0x1.02f35ccd11c80p-1", "0x1.059cd467b43dap+0", "0x1.6d3fa0a185311p-4"),
                100: ("0x1.6d045e7b869c2p+1", "0x1.cca0020bea75cp+2", "0x1.322b2bd0cfd3cp+5"),
                200: ("0x1.840cfd46bda56p+1", "0x1.8ecfc130f91d2p+6", "0x1.68b72671d945dp+12"),
            },
            ("0x1.840eabf20cbbcp+1", "0x1.9000000000034p+6", "0x1.6ab099d1344f1p+12"),
        ),
        (
            41,
            1,
            {
                1: ("0x1.8467f97de82b3p+1", "0x1.6755db0a8b50fp-6", "-0x1.2c2c2111dcb94p+0"),
                20: ("0x1.86b7b7e389883p+1", "0x1.69e422244d232p-12", "-0x1.385d995b20c2cp+0"),
                40: ("0x1.86c0fbb49cf1cp+1", "0x1.1599213923c79p-32", "-0x1.389a62f40fdd8p+0"),
            },
            ("0x1.86c0fbb49d85ep+1", "0x1.142f609020d5dp-32", "-0x1.389a62f414028p+0"),
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
    only (the fill goes through numpy, so it is not pinned here); the end
    point after an event is the root on the last step, read as _fill reads
    it."""
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


@given(
    n=st.integers(3, 8),
    m_frac=st.floats(0.05, 0.95),
    alpha=st.floats(-2.0, 2.0).filter(lambda a: abs(a) > 0.05),
    beta=st.floats(-2.0, 2.0).filter(lambda b: abs(b) > 0.05),
    form=st.sampled_from(["r-form", "pressure", "log"]),
    kernel=st.sampled_from(["_dopri5", "_dop853"]),
)
@settings(max_examples=60, deadline=None, derandomize=True)
def test_inlined_loop_takes_the_call_loops_steps(n, m_frac, alpha, beta, form, kernel):
    # the loop with the equation written into its stages against the loop
    # that calls it (the same f behind a plain function that reads its runs
    # as f does): the same steps, states, sizes and y'', to the bit, whatever
    # the ending, an event's root included
    m = m_frac * (n - 2) / n
    if form == "log":
        f, r0, y0, r_end = ps._log_wpp(yl.SolitonParams(n, m, alpha, beta, 1.0)), 0.0, (0.0, 2.5), 8.0
        event = lambda W, Ws: -1.0
    else:
        gamma = 1.0 if form == "r-form" else m - 1.0
        f, r0, r_end = ps._power_pp(n, m, alpha, beta, gamma), 1e-3, 30.0
        y0 = ps._to_power(gamma, 1.0, -alpha * r0 / (n * (n - 1)))
        cap = ps.BLOWUP_CAP**gamma
        event = (lambda y, dy: y - cap) if gamma > 0.0 else (lambda y, dy: cap - y)
    assert f.equation is not None

    def called(r, y, dy):
        return f(r, y, dy)

    called.derivatives = f.derivatives
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ps, "STEP_BUDGET", 3000)
        runs = [getattr(ps, kernel)(g, r0, y0, r_end, 1e-9, 1e-12, event) for g in (f, called)]
    inlined, called = runs
    assert inlined.status == called.status
    for a, b in zip(inlined[1:], called[1:]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


def test_generated_loops_are_readable():
    # each loop a run uses is in _GENERATED under "<method> <equation>"
    # ("call" for a plain f), and " event" after it for a run with an event;
    # its stages hold the equation's own text once per evaluation: 6 a DOPRI5
    # step, 12 a DOP853 one.  The compiled loop names its source, so a
    # traceback from it points to the lines there
    yl.solve_profile(_params(3, 1.0, 1.0), r_max=100.0)
    for name, equation, evaluations in [("dopri5 power event", ps._POWER, 6), ("dop853 log", ps._LOG, 12)]:
        source = ps._GENERATED[name]
        assert source.count(equation.body[-1]) == evaluations
        assert source.count("event(") == name.endswith(" event")
        assert ps._COMPILED[name].__code__.co_filename == f"<{name}>"
    assert "f(" not in ps._GENERATED["dop853 log"]
    ps._dopri5(lambda r, y, dy: -y, 0.0, (1.0, 0.0), 1.0, 1e-9, 1e-12)
    assert ps._GENERATED["dopri5 call"].count("= f(t + ") == 6


@pytest.mark.parametrize("kernel", ["_dopri5", "_dop853"])
def test_a_run_without_an_event_takes_the_same_steps(kernel):
    # a run with no event runs a loop without the event check, and takes the
    # steps the loop with a never-firing event takes, to the bit
    f = ps._log_wpp(_params(3, 1.0, 1.0))
    runs = [getattr(ps, kernel)(f, 0.0, (0.0, 2.5), 8.0, 1e-11, 1e-11, *event)
            for event in ((), (lambda W, Ws: -1.0,))]
    assert runs[0].status == runs[1].status == 0
    for a, b in zip(runs[0][1:], runs[1][1:]):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


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
    # the r-form's 36 from l / 2 to l = 1
    cases = [
        ("_dopri5", yl.make_params(n=3, m=0.2, beta=1.0, alpha=-4.0, eta=1.0), 40.0, 50_000,
         50_001),
        ("_dop853", _params(3, 1.0, 0.0), 1e100, 200, 36 + 1 + 200),
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


def test_touchdown_ends_at_the_atol_floor_and_rejects_nonpositive_stages():
    # alpha > 0 > beta drives v down to zero at a finite radius.  Below the
    # atol floor error control on v is absolute and v is not resolved, so
    # the r-form ends where v falls through it, a StepFailure at that root.
    # Run on past it, the ending turned on the start's last bits: from the
    # two-term start at 1e-6 it stalled at 6.7634839, from the series at
    # 1e-6 it came back to r_max, and from l / 2 it bounced and met the cap
    p = yl.make_params(n=3, m=0.2, alpha=1.0, beta=-2.5, eta=1.0)
    prof = yl.solve_profile(p, r_max=100.0, rtol=1e-9)
    assert prof.status.kind == "StepFailure"
    assert prof.status.radius == prof.r[-1] < 100.0
    assert prof.v[-1] == pytest.approx(prof.atol, rel=1e-6) and prof.dv[-1] < 0.0
    floor = _terminal(lambda r, y: y[0] - prof.atol, -1)
    ref = _scipy_solve(prof, 100.0, "RK45", 1e-9, events=floor)
    assert prof.status.radius == pytest.approx(ref.t_events[0][0], rel=1e-12, abs=0.0)
    # the kernel without the floor runs into the zero: trial steps reach
    # v <= 0, where the right side is NaN, so they are rejected, and no such
    # stage is stored
    f, trial_v = ps._power_pp(3, 0.2, 1.0, -2.5, 1.0), []

    def recording(r, v, dv):
        trial_v.append(v)
        return f(r, v, dv)

    traj = ps._dopri5(recording, prof.r0, yl.series_start(p, prof.r0), 100.0, 1e-9, prof.atol)
    assert traj.status == -1 and traj.t[-1] > prof.status.radius
    assert np.any(np.array(trial_v) <= 0.0)
    assert np.all(np.isfinite(traj.y)) and np.all(traj.y[0] > 0.0)


def test_positivity_truncation_gives_step_failure(monkeypatch):
    real = ps._fill

    def lowered(f, traj, x):
        # drop the r-form's filled v by a little more than v(1), so the
        # decreasing shrinking profile's stored v goes below zero before r = 1;
        # its steps, which the fill reads, stay as they are
        y, dy = real(f, traj, x)
        return (y - 1.000001 * traj.y[0, -1], dy) if f.equation is ps._POWER else (y, dy)

    monkeypatch.setattr(ps, "_fill", lowered)
    p = yl.make_params(n=3, m=yl.soliton_exponent(3), beta=1.0, rho=1.0, eta=1.0)
    prof = yl.solve_profile(p, r_max=100.0, rtol=1e-9)
    assert prof.status.kind == "StepFailure"
    assert prof.status.radius == prof.r[-1] < 1.0
    assert np.all(prof.v > 0.0)
    assert prof.step_indices[-1] < len(prof.r)


@pytest.mark.parametrize("state", [(0.0, -0.3), (-1e-3, -0.3), (math.nan, -0.3), (0.5, math.inf)])
def test_bad_handoff_state_gives_step_failure(monkeypatch, state):
    # an r-form end state at r_h = l that is not positive and finite never
    # reaches the log form: the run stops there, typed.  The state goes to
    # the handoff only; the fill reads the r-form's own steps
    runs = []
    real, start = ps._dopri5, ps._log_start

    def recording(*args):
        runs.append(real(*args))
        return runs[-1]

    monkeypatch.setattr(ps, "_dopri5", recording)
    monkeypatch.setattr(ps, "_log_start", lambda m, r, v, dv: start(m, r, *state))
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


def _steps_out_of_order(csv, doc):
    doc["step_indices"][1:3] = [5, 1]


def _set_radius(csv, row, text):
    header, *rows = csv.read_text().splitlines()
    rows[row] = text + rows[row][rows[row].index(","):]
    csv.write_text("\n".join([header, *rows]) + "\n")


def _inf_last_radius(csv, doc):
    _set_radius(csv, -1, "inf")


def _negative_first_radius(csv, doc):
    _set_radius(csv, 0, "-1")


def _huge_step(csv, doc):
    # no int64 holds it: an untyped OverflowError once
    doc["step_indices"][-1] = 2**70


def _single_row(csv, doc):
    header, first, *_ = csv.read_text().splitlines()
    csv.write_text(header + "\n" + first + "\n")
    doc["grid_points"], doc["step_indices"] = 1, [0]


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
        (_steps_out_of_order, "step_indices must be strictly increasing"),
        (_inf_last_radius, "grid radii must be positive and finite"),
        (_negative_first_radius, "grid radii must be positive and finite"),
        (_single_row, "at least 2"),
        (_huge_step, "step_indices must be a 1-D array of integers"),
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
