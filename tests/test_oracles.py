"""Independent symbolic oracles for every closed-form identity in the package.

Each test re-derives a formula from the radial equation with sympy, without
importing the implementation's algebra, so a wrong sign or dropped term in
the package cannot silently agree with itself.
"""

import math

import sympy as sp

import yamabelab as yl

r, s = sp.symbols("r s", positive=True)
n, m, alpha, beta, rho, eta = sp.symbols("n m alpha beta rho eta", positive=False)


def _ode_vpp(v, dv, nn, mm, aa, bb):
    """v'' isolated from the radial equation."""
    return (
        -(mm - 1) * dv**2 / v
        - (nn - 1) * dv / r
        - (aa * v + bb * r * dv) * v ** (1 - mm) / (nn - 1)
    )


def test_explicit_form_matches_vm_form():
    """(n-1)/m ((v^m)'' + (n-1)/r (v^m)') + alpha v + beta r v' is
    (n-1) v^(m-1) times the explicit-form residual."""
    v = sp.Function("v", positive=True)(r)
    vm = v**m
    F1 = (n - 1) / m * (sp.diff(vm, r, 2) + (n - 1) / r * sp.diff(vm, r)) + alpha * v + beta * r * sp.diff(v, r)
    E = (
        sp.diff(v, r, 2)
        + (m - 1) * sp.diff(v, r) ** 2 / v
        + (n - 1) * sp.diff(v, r) / r
        + (alpha * v + beta * r * sp.diff(v, r)) * v ** (1 - m) / (n - 1)
    )
    assert sp.simplify(F1 - (n - 1) * v ** (m - 1) * E) == 0


def test_second_derivative_at_origin():
    """The even-series coefficient forced by the equation at r = 0."""
    c = sp.Symbol("c")
    v = eta + c * r**2
    E = (
        sp.diff(v, r, 2)
        + (m - 1) * sp.diff(v, r) ** 2 / v
        + (n - 1) * sp.diff(v, r) / r
        + (alpha * v + beta * r * sp.diff(v, r)) * v ** (1 - m) / (n - 1)
    )
    lead = sp.series(sp.expand(E), r, 0, 1).removeO().subs(r, 0)
    sol = sp.solve(sp.Eq(lead, 0), c)
    assert len(sol) == 1
    vpp0 = sp.simplify(2 * sol[0])
    target = -alpha * eta ** (2 - m) / (n * (n - 1))
    assert sp.simplify(vpp0 - target) == 0

    # and the implementation agrees at a concrete parameter set
    p = yl.make_params(n=3, m=0.2, beta=1.0, rho=1.0, eta=2.0)
    got = yl.series_start(p, 1e-3)
    v2 = float(target.subs({alpha: sp.Rational(15, 4), eta: 2, m: sp.Rational(1, 5), n: 3}))
    assert math.isclose(got[0], 2.0 + 0.5 * v2 * 1e-6, rel_tol=1e-15)
    assert math.isclose(got[1], v2 * 1e-3, rel_tol=1e-15)


def _third_derivative(v):
    """v''' by differentiating the isolated v'' and eliminating v''."""
    dv = sp.diff(v, r)
    vpp = _ode_vpp(v, dv, n, m, alpha, beta)
    vppp = sp.diff(vpp, r)
    return vppp.subs(sp.Derivative(v, (r, 2)), vpp)


def test_w_equation_follows_from_radial_equation():
    """w~ = r^2 v^(1-m) as a function of s = log r satisfies the autonomous
    second-order equation used for continuation and the defect check."""
    u = sp.Function("u", positive=True)(s)  # u(s) = v(e^s)
    wt = sp.exp(2 * s) * u ** (1 - m)
    wts = sp.diff(wt, s)
    wtss = sp.diff(wt, s, 2)
    G = (
        wtss
        - (1 - 2 * m) / (1 - m) * wts**2 / wt
        + beta / (n - 1) * wt * wts
        + rho / (n - 1) * wt**2
        - 2 * (n - 2 - n * m) / (1 - m) * wt
    )
    # radial equation in the log variable: u'' = u' + r^2 v'' with v' = u'/r
    rr = sp.exp(s)
    du = sp.diff(u, s)
    upp = du + rr**2 * _ode_vpp(u, du / rr, n, m, alpha, beta).subs(r, rr)
    G = G.subs(sp.Derivative(u, (s, 2)), upp)
    G = G.subs(rho, alpha * (1 - m) - 2 * beta)
    # the equation holds exactly at the soliton exponent, not for general m
    residue = sp.simplify(G)
    assert sp.simplify(residue.subs(m, (n - 2) / (n + 2))) == 0
    assert residue != 0


def test_log_state_equation_matches_w_equation():
    """The W = log w~ form integrated by the continuation routine is the
    same equation: Wss = -m(Ws-2)^2/(1-m) - (n-2)(Ws-2)
    - e^W ((1-m) alpha - 2 beta + beta Ws)/(n-1)."""
    W = sp.Function("W")(s)
    wt = sp.exp(W)
    wts = sp.diff(wt, s)
    wtss = sp.diff(wt, s, 2)
    rhs_wt = (
        (1 - 2 * m) / (1 - m) * wts**2 / wt
        - beta / (n - 1) * wt * wts
        - rho / (n - 1) * wt**2
        + 2 * (n - 2 - n * m) / (1 - m) * wt
    )
    Ws = sp.Derivative(W, s)
    claimed = (
        -m * (Ws - 2) ** 2 / (1 - m)
        - (n - 2) * (Ws - 2)
        - sp.exp(W) * ((1 - m) * alpha - 2 * beta + beta * Ws) / (n - 1)
    )
    solved = sp.solve(sp.Eq(wtss, rhs_wt), sp.Derivative(W, (s, 2)))
    assert len(solved) == 1
    diff = (solved[0] - claimed).subs(rho, alpha * (1 - m) - 2 * beta)
    # the compact coefficients absorb the soliton-exponent relation
    residue = sp.simplify(diff)
    assert sp.simplify(residue.subs(m, (n - 2) / (n + 2))) == 0


def test_scalar_curvature_identities():
    """rho + 2 beta psi_s = (1-m)(alpha + beta q) under the parameter
    relation, and R = rho + beta W_s along the log continuation."""
    q = sp.Symbol("q")
    psi_s = 1 + (1 - m) / 2 * q
    lhs = rho + 2 * beta * psi_s
    rhs = (1 - m) * (alpha + beta * q)
    assert sp.simplify((lhs - rhs).subs(rho, alpha * (1 - m) - 2 * beta)) == 0
    # W_s = w~_s/w~ = 2 + (1-m) q, so rho + beta W_s is the same R
    Ws = 2 + (1 - m) * q
    assert sp.simplify((rho + beta * Ws - rhs).subs(rho, alpha * (1 - m) - 2 * beta)) == 0


def test_k1_factored_form():
    """(1 - psi_s^2)/w equals the cancellation-free product form."""
    q, w = sp.symbols("q w")
    psi_s = 1 + (1 - m) / 2 * q
    direct = (1 - psi_s**2) / w
    factored = -(1 - m) * q * (1 + (1 - m) * q / 4) / w
    assert sp.simplify(direct - factored) == 0


def test_integral_identity_follows_from_radial_equation():
    """(n-1) r^(n-1) v^(m-1) v' = -beta r^n v + (n beta - alpha) * I(r),
    I(r) = integral_0^r z^(n-1) v: both sides vanish at r = 0 and their
    derivatives agree modulo the equation."""
    v = sp.Function("v", positive=True)(r)
    dv = sp.diff(v, r)
    lhs = (n - 1) * r ** (n - 1) * v ** (m - 1) * dv
    dlhs = sp.diff(lhs, r).subs(sp.Derivative(v, (r, 2)), _ode_vpp(v, dv, n, m, alpha, beta))
    # d/dr of the right side; the integral term differentiates to its integrand
    drhs = -beta * (n * r ** (n - 1) * v + r**n * dv) + (n * beta - alpha) * r ** (n - 1) * v
    assert sp.simplify(dlhs - drhs) == 0


def test_curvature_source_equation_needs_drift_term():
    """R = (1-m)(alpha + beta r v'/v) satisfies

        R'' + ((n-1)/r + 2m v'/v) R' + beta/(n-1) r v^(1-m) R'
            + v^(1-m) R (R - rho)/(n-1) = 0

    modulo the radial equation; dropping the 2m v'/v drift breaks it.  The
    source-integral evaluation of K0 integrates exactly this equation, so
    this oracle pins its correctness independent of the quadrature."""
    v = sp.Function("v", positive=True)(r)
    dv = sp.diff(v, r)
    vpp = _ode_vpp(v, dv, n, m, alpha, beta)
    vppp = _third_derivative(v)

    R_expr = (1 - m) * (alpha + beta * r * dv / v)
    Rp = sp.diff(R_expr, r)
    Rpp = sp.diff(R_expr, r, 2)
    # eliminate the highest derivative first
    Rpp = Rpp.subs(sp.Derivative(v, (r, 3)), vppp).subs(sp.Derivative(v, (r, 2)), vpp)
    Rp = Rp.subs(sp.Derivative(v, (r, 2)), vpp)

    def operator(drift):
        expr = (
            Rpp
            + ((n - 1) / r + drift) * Rp
            + beta / (n - 1) * r * v ** (1 - m) * Rp
            + v ** (1 - m) * R_expr * (R_expr - rho) / (n - 1)
        )
        return expr.subs(rho, alpha * (1 - m) - 2 * beta)

    good = operator(2 * m * dv / v)
    assert sp.simplify(good) == 0

    broken = operator(0)
    # not identically zero: evaluate at a concrete point/jet
    probe = {
        n: 3,
        m: sp.Rational(1, 5),
        alpha: sp.Rational(15, 4),
        beta: 1,
        r: 2,
        v: sp.Rational(1, 2),
        dv: sp.Rational(-1, 3),
    }
    val = sp.simplify(broken).subs(
        {sp.Derivative(v, r): probe.pop(dv), v: probe.pop(v)}
    ).subs(probe)
    assert val != 0


def test_end_correction_slopes():
    """The slopes that the end-corrected trapezoids take in closed form: of
    r^(n-1) v (the integral identity), of tau = r v^(1-m) (the exponent I of
    the K0 quadrature) and of g e^I, g = r^(n-1) Q, Q = v^(1+m) R (R - rho)/(n-1),
    I' = beta/(n-1) tau, with v'' from the radial equation.  g' is written
    through K0 = -(1-m)(v'/(r v) + v''/v - v'^2/v^2)/(2 v^(1-m)), so that
    R_r = -2 beta r v^(1-m) K0."""
    v = sp.Function("v", positive=True)(r)
    I = sp.Function("I")(r)
    dv = sp.diff(v, r)
    vpp = _ode_vpp(v, dv, n, m, alpha, beta)

    def slope(expr):
        d = sp.diff(expr, r).subs(sp.Derivative(v, (r, 2)), vpp)
        return d.subs(sp.Derivative(I, r), beta / (n - 1) * r * v ** (1 - m))

    f = r ** (n - 1) * v
    assert sp.simplify(slope(f) - ((n - 1) * f / r + r ** (n - 1) * dv)) == 0

    tau = r * v ** (1 - m)
    assert sp.simplify(slope(tau) - (v ** (1 - m) + (1 - m) * tau * dv / v)) == 0

    R = (1 - m) * (alpha + beta * r * dv / v)
    P = r ** (n - 1) * v ** (1 + m) / (n - 1)
    g = P * R * (R - rho)
    K0 = -(1 - m) * (dv / (r * v) + vpp / v - (dv / v) ** 2) / (2 * v ** (1 - m))
    dg = g * ((n - 1) / r + (1 + m) * dv / v) - 2 * beta * P * tau * K0 * (2 * R - rho)
    assert sp.simplify(slope(g) - dg) == 0
    G = g * sp.exp(I)
    assert sp.simplify(slope(G) - (dg + g * beta / (n - 1) * tau) * sp.exp(I)) == 0


def test_blowup_certificate_closed_forms():
    """Case constants from the differential inequality argument."""
    # case 2 (alpha <= n beta < 0): C1 = min(|alpha|/n, |beta|)/(n-1)
    p2 = yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=-1.0)
    cert2 = yl.blowup_certificate(p2)
    assert cert2.case_tag == "Case2"
    assert math.isclose(cert2.C1, (1.0 / 3.0) / 2.0, rel_tol=1e-15)
    assert math.isclose(cert2.radius_bound, math.sqrt(15.0), rel_tol=1e-14)

    p1 = yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=-4.0)
    cert1 = yl.blowup_certificate(p1)
    assert cert1.case_tag == "Case1"
    assert math.isclose(cert1.C1, 0.5, rel_tol=1e-15)
    assert math.isclose(cert1.radius_bound, math.sqrt(5.0), rel_tol=1e-14)

    p3 = yl.make_params(n=3, m=0.2, beta=0.0, eta=1.0, alpha=-1.0)
    cert3 = yl.blowup_certificate(p3)
    assert cert3.case_tag == "Case3"
    assert cert3.C1 is None and cert3.radius_bound is None

    # eta enters only through the closed-form power eta^((m-1)/2)
    scale = sp.Symbol("lam", positive=True)
    bound = sp.sqrt(2 / (sp.Symbol("C1", positive=True) * (1 - m))) * eta ** ((m - 1) / 2)
    ratio = sp.simplify(bound.subs(eta, scale * eta) / bound)
    assert sp.simplify(ratio - scale ** ((m - 1) / 2)) == 0


def test_steady_growth_constant():
    """2(n-1)(n-2-mn)/(beta(1-m)) evaluates to 2 at the steady reference."""
    expr = 2 * (n - 1) * (n - 2 - m * n) / (beta * (1 - m))
    val = expr.subs({n: 3, m: sp.Rational(1, 5), beta: 1})
    assert val == 2


def test_prediction_formula_reciprocity():
    """The shrinking w limit and K1 limit are exact reciprocals."""
    w_limit = (n - 1) * (n - 2) / rho
    K1_limit = rho / ((n - 1) * (n - 2))
    assert sp.simplify(w_limit * K1_limit) == 1
