"""Curvature curves, the two-route K0 cross-check, log-radius continuation,
origin extrapolation, self-similar evaluation and its PDE residual."""

import math
import time

import numpy as np
import pytest

import yamabelab as yl
from conftest import R_MAX, RTOL, perturb_profile
from yamabelab import geometry
from yamabelab import profile_solver as ps


def test_scalar_curvature_identity(shrink3_profile, shrink3_geometry):
    p = shrink3_profile.params
    q = shrink3_profile.r * shrink3_profile.dv / shrink3_profile.v
    alt = (1.0 - p.m) * (p.alpha + p.beta * q)
    rel = np.max(np.abs(shrink3_geometry.R - alt)) / np.max(np.abs(alt))
    assert rel < 1e-12
    # R = rho + 2 beta psi_s holds bitwise by construction
    rebuilt = p.rho + 2.0 * p.beta * shrink3_geometry.psi_s
    assert np.array_equal(rebuilt, shrink3_geometry.R)


def test_k1_factored_form_matches_direct(shrink3_geometry):
    g = shrink3_geometry
    mask = g.r > 0.1  # away from the origin the direct form is well conditioned
    direct = (1.0 - g.psi_s[mask] ** 2) / g.w[mask]
    rel = np.max(np.abs(g.K1[mask] - direct)) / np.max(np.abs(direct))
    assert rel < 1e-10


def test_k0_two_routes_agree(shrink3_geometry, shrink5_geometry):
    assert shrink3_geometry.k0_agreement < 1e-4
    assert shrink5_geometry.k0_agreement < 1e-4
    scale = max(
        float(np.max(np.abs(shrink3_geometry.K0))),
        float(np.max(np.abs(shrink3_geometry.k0_quadrature))),
    )
    direct = float(
        np.max(np.abs(shrink3_geometry.K0 - shrink3_geometry.k0_quadrature)) / scale
    )
    assert direct == pytest.approx(shrink3_geometry.k0_agreement, rel=1e-12)


def test_origin_values(shrink3_origin):
    # the curves of the profile read from its origin series at small radii
    origin, g = shrink3_origin
    p, r = origin.params, origin.r
    R0 = yl.extrapolate_origin(r, g.R)
    assert R0 == pytest.approx(p.alpha * (1.0 - p.m), abs=1e-6)
    K0_0 = yl.extrapolate_origin(r, g.K0)
    K1_0 = yl.extrapolate_origin(r, g.K1)
    target = (2.0 * p.beta + p.rho) / (p.n * (p.n - 1))
    assert K0_0 == pytest.approx(target, abs=1e-6)
    assert K1_0 == pytest.approx(target, abs=1e-6)
    assert abs(K0_0 - K1_0) < 1e-6


def test_geometry_requires_soliton_setup():
    general = yl.make_params(n=3, m=0.15, beta=1.0, eta=1.0, alpha=1.0)
    prof = yl.solve_profile(general, r_max=10.0, rtol=1e-9)
    with pytest.raises(ValueError, match="soliton parameters"):
        yl.compute_geometry(prof)

    zero_beta = yl.make_params(n=3, m=0.2, beta=0.0, rho=1.0, eta=1.0)
    prof0 = yl.solve_profile(zero_beta, r_max=10.0, rtol=1e-9)
    with pytest.raises(ValueError, match="beta != 0"):
        yl.compute_geometry(prof0)


def test_compute_geometry_sectional_curvatures(shrink3_profile, shrink3_geometry):
    curves = yl.compute_geometry(shrink3_profile)
    assert np.array_equal(curves.K0, shrink3_geometry.K0)
    assert np.array_equal(curves.K1, shrink3_geometry.K1)


def _exponent_steps(profile):
    """Quintic Hermite segments dI of I(r) = beta/(n-1) int_0^r tau v^(1-m)
    dtau: dr/2 (f0 + f1) + dr^2/10 (f0' - f1') + dr^3/120 (f0'' + f1'') with
    f = r v^(1-m), v'' from the profile equation."""
    p = profile.params
    m = p.m
    r, v, dv = profile.r, profile.v, profile.dv
    vpp = profile._rform_chain[2]
    f = r * v ** (1.0 - m)
    df = v ** (1.0 - m) + (1.0 - m) * r * v ** (-m) * dv
    ddf = (1.0 - m) * (
        2.0 * v ** (-m) * dv - m * r * v ** (-m - 1.0) * dv**2 + r * v ** (-m) * vpp
    )
    dr = np.diff(r)
    return (p.beta / (p.n - 1)) * (
        0.5 * dr * (f[:-1] + f[1:])
        + dr**2 / 10.0 * (df[:-1] - df[1:])
        + dr**3 / 120.0 * (ddf[:-1] + ddf[1:])
    )


def _j_at_start(profile):
    """Oracle for J(r0) = int_0^r0 z^(n-1) Q(z) e^(I(z) - I(r0)) dz: scipy's
    adaptive quad, nested for I, over the profile's origin series, which
    value_at reads below r0, with R = (1-m)(alpha + beta z v'/v)."""
    from scipy.integrate import quad

    p = profile.params
    n, m, r0 = p.n, p.m, profile.r0

    def integrand(z):
        v, dv = profile.value_at(z, derivative=True)
        R = (1.0 - m) * (p.alpha + p.beta * z * dv / v)
        tail = quad(lambda t: t * profile.value_at(t) ** (1.0 - m), z, r0, epsabs=0.0, epsrel=1e-13)[0]
        return z ** (n - 1) * v ** (1.0 + m) * R * (R - p.rho) / (n - 1) * math.exp(-p.beta / (n - 1) * tail)

    return quad(integrand, 0.0, r0, epsabs=0.0, epsrel=1e-13)[0]


def _k0_quadrature_sequential(profile, R):
    """Oracle: the source-integral K0 as the plain one-point-at-a-time
    recurrence J_k = e^(-dI) (J_(k-1) + dr g_(k-1)/2 + dr^2 G'_(k-1)/10
    + dr^3 G''_(k-1)/120) + dr g_k/2 - dr^2 G'_k/10 + dr^3 G''_k/120, where
    G' = g' + g I' and G'' = g'' + 2 g' I' + g (I'' + I'^2) are the
    derivatives of g e^I over e^I, with R_r = -2 beta r v^(1-m) K0 from the
    trajectory route, R_rr from the R equation and v'' from the profile
    equation, from J(r0) by _j_at_start."""
    p = profile.params
    n, m, beta, rho = p.n, p.m, p.beta, p.rho
    r, v, dv = profile.r, profile.v, profile.dv
    vpp = profile._rform_chain[2]
    RR, D = R * (R - rho), 2.0 * R - rho
    Q = v ** (1.0 + m) * RR / (n - 1)
    g = r ** (n - 1) * Q
    tau = r * v ** (1.0 - m)
    R_r = -2.0 * beta * tau * geometry._k0_trajectory(profile)
    R_rr = -((n - 1) / r + 2.0 * m * dv / v + beta * tau / (n - 1)) * R_r - v ** (
        1.0 - m
    ) * RR / (n - 1)
    dQ = ((1.0 + m) * v**m * dv * RR + v ** (1.0 + m) * R_r * D) / (n - 1)
    ddQ = (
        (1.0 + m) * m * v ** (m - 1.0) * dv**2 * RR
        + (1.0 + m) * v**m * vpp * RR
        + 2.0 * (1.0 + m) * v**m * dv * R_r * D
        + v ** (1.0 + m) * (R_rr * D + 2.0 * R_r**2)
    ) / (n - 1)
    dg = (n - 1) * r ** (n - 2) * Q + r ** (n - 1) * dQ
    ddg = (
        (n - 1) * (n - 2) * r ** (n - 3) * Q + 2 * (n - 1) * r ** (n - 2) * dQ + r ** (n - 1) * ddQ
    )
    dI_dr = beta / (n - 1) * tau
    ddI_dr = beta / (n - 1) * (v ** (1.0 - m) + (1.0 - m) * r * v ** (-m) * dv)
    dG = dg + g * dI_dr
    ddG = ddg + 2.0 * dg * dI_dr + g * (ddI_dr + dI_dr**2)
    dI = _exponent_steps(profile)
    dr = np.diff(r)
    J = np.empty_like(r)
    J[0] = _j_at_start(profile)
    for k in range(1, len(r)):
        h, h2, h3 = 0.5 * dr[k - 1], dr[k - 1] ** 2 / 10.0, dr[k - 1] ** 3 / 120.0
        carried = J[k - 1] + h * g[k - 1] + h2 * dG[k - 1] + h3 * ddG[k - 1]
        J[k] = math.exp(-dI[k - 1]) * carried + h * g[k] - h2 * dG[k] + h3 * ddG[k]
    return J / (2.0 * beta * r**n * v ** (1.0 + m))


@pytest.fixture(scope="module")
def wide_expand_profile(expand_params):
    return yl.solve_profile(expand_params, r_max=1e5, rtol=1e-9)


@pytest.fixture(scope="module")
def negative_beta_profile():
    p = yl.make_params(n=5, m=yl.soliton_exponent(5), beta=-0.5, rho=-1.0, eta=1.0)
    return yl.solve_profile(p, r_max=1e4, rtol=1e-9)


@pytest.mark.parametrize("span", [None, 1.0], ids=["default-span", "span-1"])
@pytest.mark.parametrize(
    "fixture",
    ["shrink3_profile", "steady_profile", "wide_expand_profile", "negative_beta_profile"],
)
def test_k0_quadrature_matches_sequential_recurrence(fixture, span, request, monkeypatch):
    profile = request.getfixturevalue(fixture)
    if span is not None:  # many short blocks: every block seam is exercised
        monkeypatch.setattr(geometry, "_K0_BLOCK_SPAN", span)
    I_end = float(np.sum(_exponent_steps(profile)))
    if fixture == "wide_expand_profile":
        assert I_end > 709.0  # e^I alone would overflow
    if fixture == "negative_beta_profile":
        assert I_end < 0.0
    curves = yl.compute_geometry(profile)
    ref = _k0_quadrature_sequential(profile, curves.R)
    with np.errstate(over="raise", invalid="raise"):
        got = geometry._k0_quadrature(profile, curves.w, curves.R, curves.K0)
    assert np.max(np.abs(got - ref)) / np.max(np.abs(ref)) < 1e-12


@pytest.mark.parametrize("name", ["shrink3", "shrink5", "expand"])
def test_quadratures_hold_on_half_the_grid(name, request, monkeypatch):
    # the quintic Hermite rule is O(h^6) and the checks sit near 1e-9, where
    # the grid no longer sets them: halving the refinement moves the integral
    # defect and the K0 gap by less than 2x (plain trapezoids moved them 4x)
    params = request.getfixturevalue(f"{name}_params")

    def checks(points_per_decade):
        monkeypatch.setattr(ps, "POINTS_PER_DECADE", points_per_decade)
        prof = yl.solve_profile(params, r_max=R_MAX, rtol=RTOL)
        return yl.residuals(prof).max_integral_residual, yl.compute_geometry(prof).k0_agreement

    n = ps.POINTS_PER_DECADE
    for fine, coarse in zip(checks(2 * n), checks(n)):
        assert max(fine, coarse) < 2.0 * min(fine, coarse)


def test_w_equation_defect_converges(shrink3_profile):
    base = yl.w_equation_defect(shrink3_profile, num_points=700)
    halved = yl.w_equation_defect(shrink3_profile, num_points=1399)
    assert halved < base / 3.0  # second order: about 4x per halving
    with pytest.raises(ValueError, match="beyond the profile grid"):
        yl.w_equation_defect(shrink3_profile, s_span=(0.0, math.log(1e5)))
    for num in (0, 1, 2):
        with pytest.raises(ValueError, match="num_points"):
            yl.w_equation_defect(shrink3_profile, num_points=num)
    general = yl.make_params(n=3, m=0.15, beta=1.0, eta=1.0, alpha=1.0)
    prof = yl.solve_profile(general, r_max=150.0, rtol=1e-9)
    with pytest.raises(ValueError, match="soliton"):
        yl.w_equation_defect(prof)


def test_w_equation_defect_refuses_a_bad_span(shrink3_profile):
    # equal ends made the spacing 0 and the defect 0/0 = NaN; reversed ends
    # ran backwards and passed
    for s_span in [(1.0, 1.0), (2.0, 1.0), (math.nan, 1.0), (0.0, math.nan), (-math.inf, 1.0)]:
        with pytest.raises(ValueError, match="^s_span must be finite and increasing"):
            yl.w_equation_defect(shrink3_profile, s_span=s_span)


def test_w_equation_defect_reads_the_stored_profile(tmp_path, shrink3_profile):
    # one stored v near r = 10 off by 1e-6 shows in the defect, past C8's bound
    i = int(np.searchsorted(shrink3_profile.r, 10.0))
    bad = perturb_profile(shrink3_profile, i, 1.0 + 1e-6)
    assert yl.w_equation_defect(shrink3_profile) < 1e-4 < yl.w_equation_defect(bad)

    prof = yl.solve_profile(shrink3_profile.params, r_max=1e3, rtol=RTOL)
    pair = [yl.w_equation_defect(prof, num_points=num) for num in (1400, 2799)]
    csv_path, json_path = tmp_path / "p.csv", tmp_path / "p.json"
    yl.write_profile_csv(prof, csv_path)
    yl.write_profile_json(prof, json_path)
    loaded = yl.load_profile(csv_path, json_path)
    fresh = ps.RadialProfile(
        prof.params, prof.r, prof.v, prof.dv, prof.status, prof.rtol, prof.atol, prof.step_indices
    )
    fields = set(vars(fresh))
    for rebuilt in (loaded, fresh):
        again = [yl.w_equation_defect(rebuilt, num_points=num) for num in (1400, 2799)]
        assert [x.hex() for x in again] == [x.hex() for x in pair]

    # the checks leave nothing on the profile but the cached q, w and chain
    yl.compute_geometry(prof)
    yl.residuals(prof)
    assert set(vars(prof)) == fields | {"q", "w", "_rform_chain"}


def test_log_handoff_reads_the_profile_at_r_h(shrink3_params):
    prof = yl.solve_profile(shrink3_params, r_max=1e3, rtol=RTOL)
    for r_h in (1e6, math.nan, -1.0):
        with pytest.raises(ValueError):
            yl.log_handoff(prof, r_h)
    s0, (wt, ws) = yl.log_handoff(prof, 10.0)
    assert s0 == math.log(10.0)
    v, dv = prof.value_at(10.0, derivative=True)
    assert (wt, ws) == ps._w_tilde(prof.params.m, 10.0, v, dv)


def test_log_continuation_matches_direct_tail(shrink3_profile, shrink3_geometry):
    p = shrink3_profile.params
    s0, init = yl.log_handoff(shrink3_profile, 10.0)
    dyn = yl.w_log_dynamics(p, (s0, math.log(1e4)), init)
    assert dyn.status == "Completed"
    direct = shrink3_geometry.w[-1]
    assert dyn.w_tilde[-1] == pytest.approx(direct, rel=1e-6)
    # R from the continuation matches the direct curve at the endpoint
    assert dyn.R[-1] == pytest.approx(shrink3_geometry.R[-1], rel=1e-4)


def _solve_ivp_w_log_dynamics(params, s_range, w_init):
    """The continuation as it ran on scipy's solve_ivp, with two terminal
    events, before it moved onto the package's own kernels, on the method the
    package's rule picks: DOP853 for shrinking and steady (rho >= 0) tails,
    RK45 for expanding ones."""
    from scipy.integrate import solve_ivp

    n, m, alpha, beta = params.n, params.m, params.alpha, params.beta
    one_m = 1.0 - m

    def rhs(s, y):
        W, Ws = y
        e = math.exp(W)
        Wss = (
            -m * (Ws - 2.0) ** 2 / one_m
            - (n - 2) * (Ws - 2.0)
            - e * (one_m * alpha - 2.0 * beta + beta * Ws) / (n - 1)
        )
        return [Ws, Wss]

    def collapse(s, y):
        return y[0] + 60.0

    collapse.terminal = True
    collapse.direction = -1

    def runaway(s, y):
        return abs(y[1]) - 1e3

    runaway.terminal = True
    runaway.direction = 1

    s0, s1 = s_range
    wt0, wts0 = w_init
    method = "DOP853" if ps._log_kernel(params) is ps._dop853 else "RK45"
    assert (method == "DOP853") == (params.rho >= 0.0)
    sol = solve_ivp(
        rhs, (s0, s1), (math.log(wt0), wts0 / wt0), method=method, rtol=1e-10,
        atol=1e-12, dense_output=True, events=(collapse, runaway),
    )
    count = max(int(math.ceil((sol.t[-1] - s0) * 40)), 2)
    s = np.linspace(s0, sol.t[-1], count)
    W, Ws = sol.sol(s)
    wt = np.exp(W)
    status = "Completed" if sol.status == 0 else "Stopped"
    return geometry.LogDynamics(s, wt, wt * Ws, params.rho + params.beta * Ws, status)


# Stopped runs from s = 0 with beta = rho = 1: n, (w~, w~_s), stop abscissa
_LOG_STOPS = {
    "runaway": (5, (50.0, -400.0), 0.5235),  # |w~_s / w~| passes 1e3
    "collapse": (3, (math.exp(-59.9), -3.0 * math.exp(-59.9)), 0.0331),  # w~ hits e^-60
}


@pytest.mark.parametrize("name", ["shrink3", "steady", "expand", "runaway", "collapse"])
def test_w_log_dynamics_matches_solve_ivp(request, name):
    if name in _LOG_STOPS:
        n, w_init, s_stop = _LOG_STOPS[name]
        params = yl.make_params(n=n, m=yl.soliton_exponent(n), beta=1.0, rho=1.0, eta=1.0)
        s_range = (0.0, 5.0)
    else:
        profile = request.getfixturevalue(f"{name}_profile")
        s0, w_init = yl.log_handoff(profile, 10.0)
        params, s_stop = profile.params, None
        s_range = (s0, 30.0 if name == "steady" else math.log(1e4))
    dyn = yl.w_log_dynamics(params, s_range, w_init)
    ref = _solve_ivp_w_log_dynamics(params, s_range, w_init)
    assert dyn.status == ref.status == ("Completed" if s_stop is None else "Stopped")
    assert len(dyn.s) == len(ref.s)
    if s_stop is not None:
        assert ref.s[-1] == pytest.approx(s_stop, abs=1e-4)
    assert dyn.s[-1] == pytest.approx(ref.s[-1], rel=1e-12, abs=0.0)
    # the continuation reads its steps by the nonic pair (profile_solver's
    # _read), scipy by its 7th-order dense output, so they part by the
    # latter's interpolation error, 3.8e-10 on shrink3.  On the same steps
    # the nonic pair is the closer of the two to a tight reference
    # (test_fill_and_roots_are_closer_than_scipys_dense_output)
    assert np.max(np.abs(dyn.w_tilde / ref.w_tilde - 1.0)) <= 1e-9

    def sup_rel(a, b):
        return np.max(np.abs(a - b)) / np.max(np.abs(b))

    # 100 x the continuation's rtol
    assert sup_rel(dyn.w_tilde_s, ref.w_tilde_s) <= 1e-8
    assert sup_rel(dyn.R, ref.R) <= 1e-8
    if name == "collapse":
        assert math.log(dyn.w_tilde[-1]) == pytest.approx(-60.0, abs=1e-9)


def test_log_dynamics_guards(steady_params):
    with pytest.raises(ValueError, match="positive at handoff"):
        yl.w_log_dynamics(steady_params, (0.0, 1.0), (-1.0, 0.0))
    # reversed ends raised IndexError, equal ends ZeroDivisionError, and a NaN
    # end ran the kernel to STEP_BUDGET before failing to allocate its samples
    for s_range in [(1.0, 0.0), (1.0, 1.0), (0.0, math.nan), (math.nan, 1.0), (0.0, math.inf)]:
        start = time.perf_counter()
        with pytest.raises(ValueError, match="s_range"):
            yl.w_log_dynamics(steady_params, s_range, (1.0, 0.0))
        assert time.perf_counter() - start < 1.0
    general = yl.make_params(n=3, m=0.15, beta=1.0, eta=1.0, alpha=1.0)
    with pytest.raises(ValueError, match="soliton"):
        yl.w_log_dynamics(general, (0.0, 1.0), (1.0, 0.0))


def test_extrapolate_origin_exact_on_even_polynomial():
    r = np.geomspace(1e-4, 1.0, 400)
    y = 3.0 - 2.0 * r**2 + 0.5 * r**4
    assert yl.extrapolate_origin(r, y) == pytest.approx(3.0, abs=1e-10)
    with pytest.raises(ValueError, match="at least 3"):
        yl.extrapolate_origin(r[:2], y[:2])
    # grids spanning less than a decade fall back to their first three points
    for short in ([1.0, 2.0, 3.0], [1.0, 1.5, 2.0, 2.5]):
        r = np.array(short)
        assert yl.extrapolate_origin(r, 3.0 - 2.0 * r**2) == pytest.approx(3.0, abs=1e-12)


def test_self_similar_spec_check():
    # forward scaling fixes alpha = (2 beta - 1)/(1 - m)
    good = yl.make_params(n=3, m=0.2, beta=1.0, eta=1.0, alpha=1.25)
    yl.SelfSimilarSpec(kind="Forward", params=good)
    bad = yl.make_params(n=3, m=0.2, beta=1.0, eta=1.0, alpha=2.0)
    with pytest.raises(ValueError, match="requires alpha"):
        yl.SelfSimilarSpec(kind="Forward", params=bad)
    backward = yl.make_params(n=3, m=0.2, beta=1.0, eta=1.0, alpha=3.75)
    with pytest.raises(ValueError, match="horizon"):
        yl.SelfSimilarSpec(kind="Backward", params=backward)
    yl.SelfSimilarSpec(kind="Backward", params=backward, T=2.0)
    eternal = yl.make_params(n=3, m=0.2, beta=1.0, eta=1.0, alpha=2.5)
    yl.SelfSimilarSpec(kind="Eternal", params=eternal)
    with pytest.raises(ValueError, match="unknown kind"):
        yl.SelfSimilarSpec(kind="Sideways", params=good)


def test_self_similar_eval_forward_identity(expand_profile):
    # at t = 1 every power of t is 1, so u(x, 1) reproduces v(|x|) exactly
    spec = yl.SelfSimilarSpec(kind="Forward", params=expand_profile.params)
    for radius in (0.0, 0.37, 2.0, 9.5):
        assert yl.self_similar_eval(spec, expand_profile, radius, 1.0) == expand_profile.value_at(radius)
    # vector input uses the Euclidean radius
    vec = np.array([3.0, 4.0])
    assert yl.self_similar_eval(spec, expand_profile, vec, 1.0) == expand_profile.value_at(5.0)
    with pytest.raises(ValueError, match="t > 0"):
        yl.self_similar_eval(spec, expand_profile, 1.0, 0.0)


def test_self_similar_eval_backward_window(shrink3_profile):
    spec = yl.SelfSimilarSpec(kind="Backward", params=shrink3_profile.params, T=2.0)
    u = yl.self_similar_eval(spec, shrink3_profile, 1.0, 1.0)
    # at t = T - 1 the scaling factors are 1 again
    assert u == shrink3_profile.value_at(1.0)
    with pytest.raises(ValueError, match="t < T"):
        yl.self_similar_eval(spec, shrink3_profile, 1.0, 2.5)


def test_pde_residual_small_on_forward_solution(expand_profile):
    spec = yl.SelfSimilarSpec(kind="Forward", params=expand_profile.params)
    r_pts = np.linspace(0.5, 3.0, 6)
    t_pts = np.linspace(0.8, 1.2, 3)
    res = yl.pde_residual(spec, expand_profile, r_pts, t_pts, h_r=4e-3, h_t=4e-3)
    assert res < 1e-4


def _pde_residual_pointwise(spec, profile, r_points, t_points, h_r, h_t):
    """Oracle: the same stencil as five scalar self_similar_eval calls per
    lattice point."""
    n, m = spec.params.n, spec.params.m
    coef = (n - 1) / m
    res = []
    scale = []
    for t in np.asarray(t_points, dtype=float):
        for r in np.asarray(r_points, dtype=float):
            u_c = yl.self_similar_eval(spec, profile, r, t)
            u_tp = yl.self_similar_eval(spec, profile, r, t + h_t)
            u_tm = yl.self_similar_eval(spec, profile, r, t - h_t)
            u_rp = yl.self_similar_eval(spec, profile, r + h_r, t)
            u_rm = yl.self_similar_eval(spec, profile, r - h_r, t)
            ut = (u_tp - u_tm) / (2.0 * h_t)
            # u^m through numpy's pow, as pde_residual takes it on whole rows
            f_c, f_p, f_m = np.power((u_c, u_rp, u_rm), m)
            lap = (f_p - 2.0 * f_c + f_m) / h_r**2 + (n - 1) / r * (f_p - f_m) / (
                2.0 * h_r
            )
            res.append(ut - coef * lap)
            scale.append(abs(ut) + abs(coef * lap))
    top = float(np.max(np.abs(res)))
    bottom = float(np.max(scale))
    return top / bottom if bottom > 0.0 else 0.0


_PDE_CASES = [("Forward", "expand_profile"), ("Eternal", "steady_profile"), ("Backward", "shrink3_profile")]


def _spec(kind, profile):
    return yl.SelfSimilarSpec(kind=kind, params=profile.params, T=2.0 if kind == "Backward" else None)


@pytest.mark.parametrize("kind, fixture", _PDE_CASES)
def test_pde_residual_matches_pointwise_loop(kind, fixture, request, monkeypatch):
    # the whole lattice is one value_at call, and every sample sees the
    # same IEEE operations as in the scalar stencil, so the two agree to the
    # bit, down to h = 2e-3 where the residual nears roundoff
    profile = request.getfixturevalue(fixture)
    spec = _spec(kind, profile)
    r_pts = np.linspace(0.5, 3.0, 6)
    t_pts = np.linspace(0.8, 1.2, 3)
    value_at, calls = profile.value_at, []

    def counted(*args, **kwargs):
        calls.append(np.size(args[0]))
        return value_at(*args, **kwargs)

    monkeypatch.setattr(profile, "value_at", counted)
    for h in (3.2e-2, 1.6e-2, 8e-3, 4e-3, 2e-3, 1e-2):
        before = len(calls)
        got = yl.pde_residual(spec, profile, r_pts, t_pts, h, h)
        assert calls[before:] == [5 * 6 * 3]  # five stencil rows of 6 radii at 3 times
        ref = _pde_residual_pointwise(spec, profile, r_pts, t_pts, h, h)
        assert got.hex() == ref.hex()


@pytest.mark.parametrize("kind, fixture", _PDE_CASES)
def test_pde_residual_rejects_what_the_scaling_rejects(kind, fixture, request):
    profile = request.getfixturevalue(fixture)
    spec = _spec(kind, profile)
    r_pts = np.linspace(0.5, 3.0, 6)
    t_bad = {"Forward": 0.01, "Backward": 1.99}.get(kind)  # t - h_t <= 0, t + h_t >= T
    if t_bad is not None:
        with pytest.raises(ValueError, match=f"{kind} scaling needs"):
            yl.pde_residual(spec, profile, r_pts, np.array([1.0, t_bad]), 1e-2, 2e-2)
    t_one = np.array([0.0 if kind == "Eternal" else 1.0])  # radial factor 1
    far = np.array([1.0, profile.r[-1]])  # the r + h_r row leaves the grid
    with pytest.raises(ValueError, match="beyond profile grid"):
        yl.pde_residual(spec, profile, far, t_one, 1e-2, 1e-2)


@pytest.mark.parametrize("kind, fixture", _PDE_CASES)
def test_pde_residual_rejects_a_step_that_is_not_positive(kind, fixture, request):
    # a zero step made every difference 0/0, and the NaN ratio read as 0.0
    profile = request.getfixturevalue(fixture)
    spec = _spec(kind, profile)
    r_pts, t_pts = np.linspace(0.5, 3.0, 6), np.array([1.0])
    for h_r, h_t in [(0.0, 1e-2), (1e-2, 0.0), (-1e-2, 1e-2), (1e-2, math.nan), (math.inf, 1e-2)]:
        with pytest.raises(ValueError, match="must be positive and finite"):
            yl.pde_residual(spec, profile, r_pts, t_pts, h_r, h_t)


@pytest.mark.parametrize("kind, fixture", _PDE_CASES)
def test_pde_residual_rejects_bad_radii(kind, fixture, request):
    # r = 0 divided by zero in the Laplacian and returned NaN; no radius at
    # all failed in numpy's reshape
    profile = request.getfixturevalue(fixture)
    spec, t_pts = _spec(kind, profile), np.array([1.0])
    for r_pts in ([], [0.0, 1.0], [-1.0, 1.0], [1.0, math.nan], [1.0, math.inf]):
        with pytest.raises(ValueError, match="^r_points must be"):
            yl.pde_residual(spec, profile, np.array(r_pts), t_pts, 1e-2, 1e-2)


def test_backward_scaling_needs_positive_alpha():
    # Backward scaling's alpha = (2 beta + 1)/(1 - m) is 0 at beta = -1/2 and
    # negative below it
    for beta in (-0.5, -1.0):
        params = yl.make_params(n=3, m=0.2, beta=beta, eta=1.0, rho=1.0)
        assert params.alpha <= 0.0
        with pytest.raises(ValueError, match="Backward scaling requires alpha > 0"):
            yl.SelfSimilarSpec(kind="Backward", params=params, T=1.0)


def test_pde_residual_zero_on_constant():
    p = yl.make_params(n=3, m=0.2, beta=0.0, eta=1.0, alpha=0.0)
    prof = yl.solve_profile(p, r_max=20.0, rtol=1e-9)
    spec = yl.SelfSimilarSpec(kind="Eternal", params=p)
    res = yl.pde_residual(spec, prof, np.array([1.0, 2.0]), np.array([0.0]), 1e-2, 1e-2)
    assert res == 0.0


def test_geometry_csv_export(tmp_path, shrink3_geometry):
    path = tmp_path / "geometry.csv"
    yl.write_geometry_csv(shrink3_geometry, path)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == "r,v,w,R,K0,K1,psi_s"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (len(shrink3_geometry.r), 7)
    assert np.array_equal(data[:, 0], shrink3_geometry.r)
    assert np.array_equal(data[:, 4], shrink3_geometry.K0)


def test_csv_byte_format(tmp_path, shrink3_profile, shrink3_geometry):
    def line(columns, i):
        return ",".join(f"{c[i]:.17g}" for c in columns)

    prof, g = shrink3_profile, shrink3_geometry
    for write, obj, header, columns in (
        (yl.write_profile_csv, prof, "r,v,dv", (prof.r, prof.v, prof.dv)),
        (yl.write_geometry_csv, g, "r,v,w,R,K0,K1,psi_s", (g.r, g.v, g.w, g.R, g.K0, g.K1, g.psi_s)),
    ):
        path = tmp_path / "out.csv"
        write(obj, path)
        lines = path.read_text().split("\n")
        assert lines[-1] == ""  # newline-terminated
        assert len(lines) == len(prof.r) + 2
        assert lines[0] == header
        assert lines[1] == line(columns, 0)
        assert lines[-2] == line(columns, -1)
