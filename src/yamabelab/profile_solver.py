"""Adaptive integration of the radial profile equation.

The second-order equation is integrated in the explicit form

    v'' = -(m-1) v'^2 / v - (n-1) v'/r - (alpha v + beta r v') v^(1-m) / (n-1)

with state (v, v'), starting from a fourth-order series at a small radius
r0 = r0_scale * l, l = eta^((m-1)/2), because the origin is a regular
singular point of the r-form.  Every run solves the eta = 1 problem in
r / l and v / eta and scales it back (r = l r^, v = eta v^, v' = (eta/l) v^'):
eta is an exact gauge of the equation, so the eta factors of r0, the cap,
the default atol and the handoff radii drop out of the kernel calls, and
runs that differ only in eta take the same steps.  The steps come from a
scalar Dormand-Prince 5(4) kernel with Shampine's quartic dense output that
keeps the controller of scipy's RK45: initial step selection at error
order 4, RMS error norm with scale atol + max(|y|, |y_new|) * rtol, safety
factor 0.9, step factors clamped to [0.2, 10] (at most 1 right after a
rejection), and a minimum step of 10 ulp(r).  It runs on plain floats: it
converts its radii, initial state and tolerances with float() once per
call, and SolitonParams stores floats, so no numpy scalar reaches the step
loop, the right-hand side or the event root.  It is the package's only ODE
stepper: it runs any y'' = f(t, y, y') up to one terminal event g(y, y')
rising through zero, here the three phases below, and the log-radius
equation that geometry.w_log_dynamics runs up to a stop of its own.  Its
step loop is kept bit-stable: the same IEEE operations in the same order as
RK45's tableau, with the constants bound to locals once per call and no
min, max, abs or len call per step, so making a step cheaper never moves a
result (test_kernel_bits_are_pinned in tests/test_profile_solver.py holds
it to the bit).

The r-form runs from r0 up to the cap v = 1e12 (BLOWUP_CAP), and two kinds
of run hand it over to a second phase (in the units of the eta = 1 problem):

  * alpha > 0, beta > 0, when l lies below r_max: at r_h = l the
    autonomous equation of W = log w, w = r^2 v^(1-m), in s = log r
    (_log_wpp, valid for any m) carries the tail to log r_max.  The paper's
    limits are statements in s, and the power-law tails that cost the
    r-form about 200 accepted steps per decade are smooth there: the
    shrinking (n = 3, 5), steady and expanding reference runs to 1e4 take
    305, 359, 458 and 5,091 steps instead of 702, 878, 862 and 10,861.
    r_h = l because just past the core v is flat, W_s = 2 + (1-m) r v'/v is
    close to 2, and relative control of W_s loses r v'/v: handing over at
    0.1 l put the benchmark's worst error at 6e-9 (1.1e-9 at l; both on a
    grid of 550 points per decade).  The same loss, milder, sets the log
    phase's tolerance, LOG_TOL_FACTOR * rtol = rtol/100, as rtol and atol
    alike: at rtol/10 the worst gap between the two K0 routes of the
    expanding benchmark runs rose from 2.5e-9 to 2.0e-8, just past r_h at
    n = 8, where W_s - 2 is about -0.02; at rtol/30 it read 6.4e-9.  The
    variable Z = (1-m) log v, whose derivative is not pinned near 2, was
    measured too: at rtol/100 it saved 7-9% of the steps at unchanged
    accuracy, but at rtol/10 the expanding K0 gap still rose from 2.4e-9 to
    1.1e-8 near r/l = 4e4, so it does not lift the factor.  The phase fills
    its part of the grid from its own dense output,
    v = (e^W / r^2)^(1/(1-m)) and v' = (W_s - 2) v / ((1-m) r).
  * alpha < 0, beta <= 0, the blow-up regime of Theorem 1: near the blow-up
    radius R_b, v ~ (R_b - r)^(-1/(1-m)) holds the r-form's steps in
    proportion to the distance left, and 81% of its steps went to the climb
    from v = 10 to the cap.  In the pressure P = v^-(1-m) that stretch is a
    smooth approach to a zero, linear for beta < 0 and quadratic for
    beta = 0.  So the r-form stops at its last accepted step below
    v = PRESSURE_SWITCH = 100, and the equation of P (_pressure_pp) carries
    the run from that step's state, at the same rtol and at atol times P
    there, to the event P = BLOWUP_CAP^-(1-m): r* is still the radius where
    v reaches the cap.  The handoff is an accepted step, not the event root,
    so the pressure phase starts from the kernel's own state rather than
    from the quartic dense output, whose error is larger.  The phase fills
    its part of the grid from its own dense output, v = P^(-1/(1-m)) and
    v' = -v P' / ((1-m) P), and adds points log-uniform in r* - r at
    POINTS_PER_DECADE down to its last accepted step, since its steps
    shrink with r* - r: without them v' read 5e-3 off at 0.999 r*.  The
    switch sits at 100, not nearer 1, because the benchmark reads v' at
    0.75 r*, where a switch at v = 2 put the worst error at 3.8e-9 (1.3e-9
    at 100).  Over 162 points of the regime (n = 3, 5, 8, m from 0.1 to 1
    times (n-2)/n, eta 1e-2 to 1e2) the steps fell from 155,403 to 65,109,
    and r* moved closer to a DOP853 rtol-1e-13 reference (worst 8.3e-11,
    was 1.1e-10).  alpha < 0 < beta is not helped: the pressure form still
    ran out of steps there.

Every other run (touch-down alpha > 0 > beta; alpha < 0 < beta; beta = 0
with alpha >= 0) is the r-form alone.

The stored grid is the union of the accepted steps of both phases and a
log-uniform refinement at POINTS_PER_DECADE filled from the dense output.
The identity checks integrate over it with the quintic Hermite rule
(_hermite_ends, exact for quintics), which holds the integral defect and
the K0 gap near 1e-9 on that grid.  The pointwise check takes v'' at the
accepted steps in closed form (_quintic_vpp), with no linear solve.  Runs
end in one of three statuses:

    Global(r_max)       integration reached r_max,
    BlowUp(r_star)      v crossed the cap 1e12*eta, or the step size
                        underflowed while v was still rising,
    StepFailure(r_fail) the controller stalled without blow-up indicators,
                        a _dopri5 run used up STEP_BUDGET accepted steps,
                        or the state at r_h was not positive and finite.

Between grid points value_at reads v from the quintic Hermite through
(v, v', v'') and v' from the one through (v', v'', v'''), v'' and v''' from
the equation (_vpp_array, _vppp_array).  The log phase adds no knots near
the radii where values are checked, so a cubic's own interpolation error
would show: with the cubic through (v, v') on a grid of 550 points per
decade the expanding benchmark's worst error read 4.20e-10 where the
quintic read 3.50e-10.  Profiles are immutable; solving is a pure function
of (params, numerics).
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import asdict, dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core_params import SolitonParams, _blowup_regime

__all__ = [
    "ProfileStatus",
    "RadialProfile",
    "ResidualReport",
    "series_start",
    "solve_profile",
    "residuals",
    "write_profile_csv",
    "write_profile_json",
    "load_profile",
]

BLOWUP_CAP = 1e12          # v > cap * eta counts as blow-up
PRESSURE_SWITCH = 100.0    # blow-up runs go on in the pressure from v ~ this * eta
STEP_BUDGET = 10**6        # accepted steps before a _dopri5 run gives up
DEFAULT_R0_SCALE = 1e-6
# refinement density of the stored grid.  With the quintic value_at and the
# quintic Hermite rule, 100 points per decade hold the integral defect and
# the K0 gap of the reference runs within 1.4% of 200 per decade, and keep
# the step-halving order of pde_residual above 2.  The benchmark's worst v, v'
# error is not monotone in the density (set by which knots bracket a check
# radius): 2.9e-10 on the sweep panel at 100, 9.7e-10 at 200
POINTS_PER_DECADE = 100
# alpha, beta > 0 runs hand the r-form over to the log-radius equation at
# r_h = l = eta^((m-1)/2), which runs at LOG_TOL_FACTOR * rtol, as rtol and
# atol alike
LOG_TOL_FACTOR = 0.01

PROFILE_CSV_HEADER = "r,v,dv"


@dataclass(frozen=True)
class ProfileStatus:
    kind: str      # Global | BlowUp | StepFailure
    radius: float  # r_max, r_star or r_fail respectively


@dataclass(frozen=True)
class ResidualReport:
    max_ode_residual: float
    max_integral_residual: float
    grid_points: int


class RadialProfile:
    """Sampled solution (r, v, v') with status and tolerances.

    step_indices marks the subset of grid points that were accepted
    integrator steps; points between them were filled from dense output.
    Arrays are read-only and q and w are computed once, on first access;
    nothing else is stored on the profile after construction.
    """

    def __init__(
        self,
        params: SolitonParams,
        r: np.ndarray,
        v: np.ndarray,
        dv: np.ndarray,
        status: ProfileStatus,
        rtol: float,
        atol: float,
        step_indices: np.ndarray,
    ):
        r = np.asarray(r, dtype=float)
        v = np.asarray(v, dtype=float)
        dv = np.asarray(dv, dtype=float)
        if not np.all(np.diff(r) > 0.0):
            raise ValueError("grid radii must be strictly increasing")
        if not np.all(v > 0.0):
            raise ValueError("profile values must stay positive")
        self.params = params
        self.r = _frozen(r)
        self.v = _frozen(v)
        self.dv = _frozen(dv)
        self.status = status
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.step_indices = _frozen(np.asarray(step_indices, dtype=int))

    @property
    def r0(self) -> float:
        return float(self.r[0])

    @cached_property
    def q(self) -> np.ndarray:
        """q = r v'/v on the grid, computed on first access."""
        return _frozen(self.r * self.dv / self.v)

    @cached_property
    def w(self) -> np.ndarray:
        """The scale-invariant profile w = r^2 v^(1-m) on the grid, computed
        on first access."""
        return _frozen(_w(self.params.m, self.r, self.v))

    def value_at(self, radius, derivative: bool = False):
        """v at arbitrary radii: series below r0, the quintic Hermite through
        the stored (v, v') and v'' from the equation on the grid.  With
        derivative=True returns (v, v'), v' from the quintic Hermite through
        (v', v'', v'''), v''' from the differentiated equation at the knots,
        so v' never divides differences of v by the knot spacing.  Negative,
        non-finite and past-the-grid radii raise (no extrapolation)."""
        radius = np.asarray(radius, dtype=float)
        if not np.all(np.isfinite(radius)):
            raise ValueError("radius must be finite")
        if np.any(radius > self.r[-1] * (1.0 + 1e-12)):
            raise ValueError(f"radius beyond profile grid end {self.r[-1]!r}; no extrapolation")
        if np.any(radius < 0.0):
            raise ValueError("radius must be nonnegative")
        p, r, v, dv = self.params, self.r, self.v, self.dv
        x = np.clip(radius, r[0], r[-1])
        i = np.clip(np.searchsorted(r, x, side="right") - 1, 0, len(r) - 2)
        # the two knots of each interval along the first axis
        k = np.stack((i, i + 1))
        rk, vk, dvk = r[k], v[k], dv[k]
        h = rk[1] - rk[0]
        s = x - rk[0]
        vpp = _vpp_array(p, rk, vk, dvk)
        v2 = second_derivative_at_origin(p)
        small = radius < r[0]
        hermite = _quintic_hermite(h, s, vk, dvk, vpp)
        out = np.where(small, p.eta + 0.5 * v2 * radius**2, hermite)
        if not derivative:
            return float(out) if out.ndim == 0 else out
        slope = _quintic_hermite(h, s, dvk, vpp, _vppp_array(p, rk, vk, dvk, vpp))
        dout = np.where(small, v2 * radius, slope)
        if out.ndim == 0:
            return float(out), float(dout)
        return out, dout


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _quintic_hermite(h, s, y, d, dd):
    """The quintic through (y, y', y'') = (y[0], d[0], dd[0]) and (y[1], d[1],
    dd[1]) at the ends of an interval of length h, at offset s: the Taylor
    quadratic of the left end plus t^3 (c3 + c4 t + c5 t^2), t = s/h, whose
    coefficients make up what it misses of the right end's value, slope and
    curvature."""
    h2 = h * h
    a = y[1] - y[0] - h * d[0] - 0.5 * h2 * dd[0]
    b = h * (d[1] - d[0]) - h2 * dd[0]
    c = 0.5 * h2 * (dd[1] - dd[0])
    t = s / h
    c3 = 10.0 * a - 4.0 * b + c
    c4 = -15.0 * a + 7.0 * b - 2.0 * c
    c5 = 6.0 * a - 3.0 * b + c
    return y[0] + s * (d[0] + 0.5 * s * dd[0]) + t * t * t * (c3 + t * (c4 + t * c5))


def _w(m: float, r, v):
    """w = r^2 v^(1-m) at scalar or array (r, v)."""
    return r * r * v ** (1.0 - m)


def second_derivative_at_origin(params: SolitonParams) -> float:
    n = params.n
    return -params.alpha * params.eta ** (2.0 - params.m) / (n * (n - 1))


def series_start(params: SolitonParams, r0: float) -> tuple[float, float]:
    """Taylor start at r0: v = eta + v''(0) r0^2 / 2, v' = v''(0) r0.

    v''(0) = -alpha eta^(2-m) / (n (n-1)) follows from the equation at the
    origin with v'(0) = 0, where the v'/r term contributes (n-1) v''(0).
    Truncation error is O(r0^4) because the profile is even in r.
    """
    if not (r0 > 0.0):
        raise ValueError(f"r0 must be positive, got {r0!r}")
    v2 = second_derivative_at_origin(params)
    return params.eta + 0.5 * v2 * r0 * r0, v2 * r0


def _vpp(n: int, m: float, alpha: float, beta: float):
    """v'' of the profile equation as a function of (r, v, v')."""
    # one_m is also -(m - 1.0) to the bit; n - 1 is exact as a float
    nan, one_m, n1 = math.nan, 1.0 - m, float(n - 1)

    def f(r, v, dv):
        if v <= 0.0:
            # NaN makes the error norm NaN, so the trial step is rejected
            # instead of taking a complex power
            return nan
        return one_m * dv * dv / v - n1 * dv / r - (alpha * v + beta * r * dv) * v**one_m / n1

    return f


def _pressure_pp(n: int, m: float, alpha: float, beta: float):
    """P'' of the profile equation in the pressure P = v^-(1-m) as a function
    of (r, P, P'); v = P^(-1/(1-m)) blows up where P reaches zero."""
    nan, one_m, n1 = math.nan, 1.0 - m, float(n - 1)
    source = one_m * alpha / n1

    def f(r, P, dP):
        if P <= 0.0:
            return nan  # rejects the trial step, as in _vpp
        return dP / P * (dP / one_m - beta * r / n1) - n1 * dP / r + source

    return f


def _vpp_array(params: SolitonParams, r: np.ndarray, v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """v'' of the profile equation on arrays of (r, v, v')."""
    n, m = params.n, params.m
    return (
        -(m - 1.0) * dv * dv / v
        - (n - 1) * dv / r
        - (params.alpha * v + params.beta * r * dv) * v ** (1.0 - m) / (n - 1)
    )


def _vppp_array(params: SolitonParams, r, v, dv, vpp) -> np.ndarray:
    """v''' of the profile equation on arrays of (r, v, v', v''): the
    derivative of _vpp_array's right side along the solution."""
    n, m, alpha, beta = params.n, params.m, params.alpha, params.beta
    d = dv / v
    source = (alpha * (2.0 - m) + beta) * dv + beta * r * ((1.0 - m) * dv * d + vpp)
    return (
        (n - 1) * (dv / r - vpp) / r
        + (1.0 - m) * d * (2.0 * vpp - dv * d)
        - v ** (1.0 - m) * source / (n - 1)
    )


def _w_tilde(m: float, r, v, dv):
    """(w~, w~_s) = (w, w (2 + (1-m) r v'/v)) at scalar or array (r, v, v')."""
    wt = _w(m, r, v)
    return wt, wt * (2.0 + (1.0 - m) * r * dv / v)


def _log_wpp(n: int, m: float, alpha: float, beta: float):
    """W'' of the log-radius equation in W = log w~, s = log r, as a function
    of (s, W, W_s); it holds for any m, with e^W (c + beta W_s) =
    (1-m) r^2 v^(1-m) (alpha + beta r v'/v)."""
    exp, neg_m, one_m, n1, n2 = math.exp, -m, 1.0 - m, float(n - 1), float(n - 2)
    c = one_m * alpha - 2.0 * beta

    def f(s, W, Ws):
        d = Ws - 2.0
        return neg_m * (d * d) / one_m - n2 * d - exp(W) * (c + beta * Ws) / n1

    return f


def _log_start(m: float, r: float, v: float, dv: float):
    """(W, W_s) = (log w, 2 + (1-m) r v'/v) of the r-form state (v, v') at r,
    or None unless w is positive and finite and v' is finite."""
    w = _w(m, r, v) if v > 0.0 else 0.0  # a negative v would make w complex
    if not (0.0 < w < math.inf and math.isfinite(dv)):
        return None
    return math.log(w), 2.0 + (1.0 - m) * r * dv / v


def _from_log(m: float, r, W, Ws):
    """(v, v') at radii r from the log-radius state (W, W_s) there."""
    v = (np.exp(W) / (r * r)) ** (1.0 / (1.0 - m))
    return v, (Ws - 2.0) * v / ((1.0 - m) * r)


def _from_pressure(m: float, P, dP):
    """(v, v') from the pressure state (P, P')."""
    v = P ** (-1.0 / (1.0 - m))
    return v, -v * dP / ((1.0 - m) * P)


# Dormand & Prince (1980) 5(4) pair with Shampine's quartic dense output and
# the step controller of scipy.integrate.RK45 (Hairer, Norsett & Wanner,
# Solving ODEs I, II.4-II.6).
_C2, _C3, _C4, _C5 = 1 / 5, 3 / 10, 4 / 5, 8 / 9
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = (
    9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
)
_B1, _B3, _B4, _B5, _B6 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1, _E3, _E4, _E5, _E6, _E7 = (
    -71 / 57600, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40
)
_P = np.array([
    [1, -8048581381 / 2820520608, 8663915743 / 2820520608, -12715105075 / 11282082432],
    [0, 0, 0, 0],
    [0, 131558114200 / 32700410799, -68118460800 / 10900136933, 87487479700 / 32700410799],
    [0, -1754552775 / 470086768, 14199869525 / 1410260304, -10690763975 / 1880347072],
    [0, 127303824393 / 49829197408, -318862633887 / 49829197408, 701980252875 / 199316789632],
    [0, -282668133 / 205662961, 2019193451 / 616988883, -1453857185 / 822651844],
    [0, 40617522 / 29380423, -110615467 / 29380423, 69997945 / 29380423],
])
_SAFETY, _MIN_FACTOR, _MAX_FACTOR = 0.9, 0.2, 10.0
_ERR_EXPONENT = -1 / 5  # -1/(error estimator order + 1)
_EPS = float(np.finfo(float).eps)
_SQRT2 = 2**0.5


def _rms(a: float, b: float) -> float:
    # a * a, not a ** 2, which raises OverflowError on floats
    return math.sqrt(a * a + b * b) / _SQRT2


def _quartic(t0, h, y0, q, r):
    """Dense output y0 + h * sum_j q_j x^(j+1), x = (r - t0)/h, of one step;
    q holds q_0 .. q_3 along its first axis (floats or arrays)."""
    q0, q1, q2, q3 = q
    x = (r - t0) / h
    x2 = x * x
    x3 = x2 * x
    return y0 + h * (q0 * x + q1 * x2 + q2 * x3 + q3 * (x3 * x))


class _Trajectory(NamedTuple):
    """Accepted steps of a _dopri5 run and their interpolants.

    t[i] and y[:, i] = (v, v') are the accepted radii and states; step i
    starts at t[i], has size h[i] and quartic coefficients q[:, i] (2 x 4).
    After an event, t[-1] and y[:, -1] are the event's root, which lies
    inside the last step."""

    status: int  # 0 reached r_end, 1 event fired, -1 step underflow, -2 over budget
    t: np.ndarray
    y: np.ndarray
    h: np.ndarray
    q: np.ndarray

    def __call__(self, r: np.ndarray) -> np.ndarray:
        """(2, len(r)) states at the radii r; a radius equal to t[i] is taken
        from the step that ends there."""
        seg = np.clip(np.searchsorted(self.t, r) - 1, 0, len(self.h) - 1)
        q = np.moveaxis(self.q[:, seg], -1, 0)
        return _quartic(self.t[seg], self.h[seg], self.y[:, seg], q, r)


def _bracketed_root(fun, a: float, b: float) -> float:
    """The end with the smaller |fun| of a bracket [a, b], fun(a) <= 0 <= fun(b),
    bisected below 4 eps (1 + |b|), brentq's width at xtol = rtol = 4 eps."""
    fa, fb = fun(a), fun(b)
    while fa != 0.0 and fb != 0.0 and b - a > 4 * _EPS * (1.0 + abs(b)):
        mid = a + 0.5 * (b - a)
        fm = fun(mid)
        if fm < 0.0:
            a, fa = mid, fm
        else:
            b, fb = mid, fm
    return a if abs(fa) < abs(fb) else b


def _dopri5(f, r0, y0, r_end, rtol, atol, event=lambda v, dv: -1.0) -> _Trajectory:
    """Integrate v'' = f(r, v, v') from (v, v')(r0) = y0 towards r_end.

    Scalar Dormand-Prince 5(4) with scipy RK45's initial step selection,
    controller and error norm, so it accepts the same steps.  Stops early
    when the terminal event(v, v') goes from <= 0 to >= 0 across an accepted
    step (its root on that step's quartic by _bracketed_root), when the step
    size falls below 10 ulp(r), or after STEP_BUDGET accepted steps.

    The step loop does RK45's floating-point operations in RK45's order.
    abs, min, max and _rms are written out inline and give the builtins'
    values, NaN included; STEP_BUDGET is read once per call.  r0, y0, r_end,
    rtol and atol are converted with float() once per call, a lossless
    conversion that keeps numpy-scalar arithmetic (about 3x slower per
    step) out of the loop; f and event then see Python floats as long as
    their own constants are floats."""
    r_end, atol = float(r_end), float(atol)
    rtol = max(float(rtol), 100 * _EPS)
    t = float(r0)
    v, dv = map(float, y0)
    fv = f(t, v, dv)
    g = event(v, dv)

    # initial step, error estimator order 4
    sv = atol + abs(v) * rtol
    sd = atol + abs(dv) * rtol
    d0 = _rms(v / sv, dv / sd)
    d1 = _rms(dv / sv, fv / sd)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, r_end - t)
    dv1 = dv + h0 * fv
    f1 = f(t + h0, v + h0 * dv, dv1)
    d2 = _rms((dv1 - dv) / sv, (f1 - fv) / sd) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** -_ERR_EXPONENT
    h_abs = min(100 * h0, h1, r_end - t)

    sqrt, ulp, sqrt2, budget = math.sqrt, math.ulp, _SQRT2, STEP_BUDGET
    safety, min_factor, max_factor, exponent = _SAFETY, _MIN_FACTOR, _MAX_FACTOR, _ERR_EXPONENT
    c2, c3, c4, c5 = _C2, _C3, _C4, _C5
    a21, a31, a32, a41, a42, a43 = _A21, _A31, _A32, _A41, _A42, _A43
    a51, a52, a53, a54 = _A51, _A52, _A53, _A54
    a61, a62, a63, a64, a65 = _A61, _A62, _A63, _A64, _A65
    b1, b3, b4, b5, b6 = _B1, _B3, _B4, _B5, _B6
    e1, e3, e4, e5, e6, e7 = _E1, _E3, _E4, _E5, _E6, _E7
    ts, vs, dvs = array("d", [t]), array("d", [v]), array("d", [dv])
    hs, ks = array("d"), array("d")
    t_append, v_append, dv_append, h_append = ts.append, vs.append, dvs.append, hs.append
    k_extend = ks.extend
    steps = 0
    av, adv = abs(v), abs(dv)
    while True:
        min_step = 10 * ulp(t)
        if min_step > h_abs:
            h_abs = min_step
        rejected = False
        while h_abs >= min_step:
            t_new = t + h_abs
            if r_end < t_new:
                t_new = r_end
            h = t_new - t
            h_abs = h
            # stage 1 is (dv, fv)
            k2v = dv + h * (a21 * fv)
            k2d = f(t + c2 * h, v + h * (a21 * dv), k2v)
            k3v = dv + h * (a31 * fv + a32 * k2d)
            k3d = f(t + c3 * h, v + h * (a31 * dv + a32 * k2v), k3v)
            k4v = dv + h * (a41 * fv + a42 * k2d + a43 * k3d)
            k4d = f(t + c4 * h, v + h * (a41 * dv + a42 * k2v + a43 * k3v), k4v)
            k5v = dv + h * (a51 * fv + a52 * k2d + a53 * k3d + a54 * k4d)
            k5d = f(t + c5 * h, v + h * (a51 * dv + a52 * k2v + a53 * k3v + a54 * k4v), k5v)
            k6v = dv + h * (a61 * fv + a62 * k2d + a63 * k3d + a64 * k4d + a65 * k5d)
            k6d = f(
                t + h, v + h * (a61 * dv + a62 * k2v + a63 * k3v + a64 * k4v + a65 * k5v), k6v
            )
            v_new = v + h * (b1 * dv + b3 * k3v + b4 * k4v + b5 * k5v + b6 * k6v)
            dv_new = dv + h * (b1 * fv + b3 * k3d + b4 * k4d + b5 * k5d + b6 * k6d)
            f_new = f(t + h, v_new, dv_new)
            ev = h * (e1 * dv + e3 * k3v + e4 * k4v + e5 * k5v + e6 * k6v + e7 * dv_new)
            ed = h * (e1 * fv + e3 * k3d + e4 * k4d + e5 * k5d + e6 * k6d + e7 * f_new)
            # the scales use max(|y|, |y_new|), which is |y| when y_new is NaN
            av_new = -v_new if v_new < 0.0 else v_new
            adv_new = -dv_new if dv_new < 0.0 else dv_new
            ev /= atol + (av_new if av_new > av else av) * rtol
            ed /= atol + (adv_new if adv_new > adv else adv) * rtol
            err = sqrt(ev * ev + ed * ed) / sqrt2
            if err < 1.0:
                if err == 0.0:
                    factor = max_factor
                else:
                    factor = safety * err**exponent
                    if factor > max_factor:
                        factor = max_factor
                if rejected and factor > 1.0:
                    factor = 1.0
                h_abs *= factor
                break
            # a NaN error norm (a stage with v <= 0) shrinks by min_factor
            factor = safety * err**exponent
            h_abs *= factor if factor > min_factor else min_factor
            rejected = True
        else:
            status = -1
            break
        t_append(t_new)
        v_append(v_new)
        dv_append(dv_new)
        h_append(h)
        k_extend((dv, k2v, k3v, k4v, k5v, k6v, dv_new, fv, k2d, k3d, k4d, k5d, k6d, f_new))
        steps += 1
        g_new = event(v_new, dv_new)
        if g <= 0.0 <= g_new:
            status = 1
            break
        if t_new >= r_end:
            status = 0
            break
        if steps >= budget:
            status = -2
            break
        t, v, dv, fv, g, av, adv = t_new, v_new, dv_new, f_new, g_new, av_new, adv_new

    q = (np.frombuffer(ks).reshape(-1, 2, 7) @ _P).transpose(1, 0, 2)
    traj = _Trajectory(status, np.frombuffer(ts), np.array((vs, dvs)), np.frombuffer(hs), q)
    if status == 1:
        # the last step read back as floats, so the bisection is scalar
        t_old, h, v_old, dv_old = ts[-2], hs[-1], vs[-2], dvs[-2]
        qv, qd = q[:, -1].tolist()

        def state(r):
            return _quartic(t_old, h, v_old, qv, r), _quartic(t_old, h, dv_old, qd, r)

        root = _bracketed_root(lambda r: event(*state(r)), t_old, ts[-1])
        traj.t[-1] = root
        traj.y[:, -1] = state(root)
    return traj


def _check_numerics(**values) -> None:
    """Reject a numeric setting that is not finite and positive (a None
    atol selects the default)."""
    for name, value in values.items():
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _refinement(lo: float, hi: float) -> np.ndarray:
    """np.geomspace(lo, hi) at POINTS_PER_DECADE, both ends included."""
    decades = max(np.log10(hi / lo), 1e-9)
    return np.geomspace(lo, hi, max(int(np.ceil(decades * POINTS_PER_DECADE)), 2))


def solve_profile(
    params: SolitonParams,
    r_max: float,
    rtol: float = 1e-9,
    atol: float | None = None,
    r0_scale: float = DEFAULT_R0_SCALE,
) -> RadialProfile:
    """Integrate the profile equation from the series start to r_max.

    The kernel solves the eta = 1 problem in r / l and v / eta,
    l = eta^((m-1)/2), and the profile is scaled back.  With alpha > 0 and
    beta > 0 the r-form stops at r_h = l when that lies below r_max, and
    the log-radius equation carries the run on; with alpha < 0 and
    beta <= 0 it stops at its last accepted step below
    v = PRESSURE_SWITCH * eta, and the pressure equation carries the run to
    the cap (see the module docstring).  The returned grid unions the
    accepted adaptive steps with np.geomspace(r0, r_end) at
    POINTS_PER_DECADE, filled from dense output, so later geometry
    evaluations and quadratures work on stored points only.  atol is
    absolute in v (default 1e-30 * eta); the kernel applies atol / eta to
    both components of the eta = 1 state, so the tolerance on v' is
    atol / l, and the pressure phase scales it by P at the handoff.
    The solver reports whatever trajectory the initial data generates;
    it makes no uniqueness claim.
    """
    _check_numerics(r_max=r_max, rtol=rtol, atol=atol, r0_scale=r0_scale)
    eta = params.eta
    if atol is None:
        # far below v on runs that stay away from zero, so control stays
        # relative there; a touch-down run (alpha > 0 > beta) passes below it
        # (v ~ 3.5e-65 at n=3, alpha=0.5, beta=-1.5), and its ending depends on atol
        atol = 1e-30 * eta
    length = eta ** ((params.m - 1.0) / 2.0)
    if r0_scale * length >= r_max:
        raise ValueError(f"r0 = {r0_scale * length!r} must be below r_max = {r_max!r}")
    # the eta = 1 problem, in r / length and v / eta
    n, m, alpha, beta = params.n, params.m, params.alpha, params.beta
    r_stop, tol = r_max / length, atol / eta
    log_tail = alpha > 0.0 and beta > 0.0 and 1.0 < r_stop
    pressure = _blowup_regime(params)
    switch = PRESSURE_SWITCH if pressure else BLOWUP_CAP
    traj = _dopri5(
        _vpp(n, m, alpha, beta),
        r0_scale,
        series_start(params.with_eta(1.0), r0_scale),
        1.0 if log_tail else r_stop,
        rtol,
        tol,
        lambda v, dv: v - switch,
    )
    code, steps, tail = traj.status, traj.t, None
    v_end, dv_end = traj.y[:, -1].tolist()
    if log_tail and code == 0:
        r_h, start = 1.0, _log_start(m, 1.0, v_end, dv_end)
        if start is None:
            code = -3  # a handoff state the log form cannot take
        else:
            log_tol = LOG_TOL_FACTOR * rtol
            tail = _dopri5(
                _log_wpp(n, m, alpha, beta), 0.0, start, math.log(r_stop), log_tol, log_tol
            )
            code = tail.status
            r_tail = np.exp(tail.t[1:])
            if code == 0:
                r_tail[-1] = r_stop
            steps = np.concatenate((steps, r_tail))
            v_end, dv_end = map(float, _from_log(m, steps[-1], *tail.y[:, -1]))
    elif pressure and code == 1:
        # from the last accepted step below the switch, not the event root
        r_h, (v_h, dv_h) = float(steps[-2]), traj.y[:, -2].tolist()
        p_h = v_h ** (m - 1.0)
        cap = BLOWUP_CAP ** (m - 1.0)
        tail = _dopri5(
            _pressure_pp(n, m, alpha, beta),
            r_h,
            (p_h, (m - 1.0) * p_h * dv_h / v_h),
            r_stop,
            rtol,
            tol * p_h,
            lambda P, dP: cap - P,
        )
        code = tail.status
        steps = np.concatenate((steps[:-1], tail.t[1:]))
        v_end, dv_end = map(float, _from_pressure(m, *tail.y[:, -1]))

    r_end = steps[-1]
    if code == 1 or (code == -1 and dv_end > 0.0 and v_end > 1.0):
        # the cap, or a controller stall while v was still climbing
        status = ProfileStatus("BlowUp", float(length * r_end))
    elif code == 0:
        status = ProfileStatus("Global", float(r_max))
    else:
        # a stall without blow-up indicators, the step budget used up, or a
        # handoff state that is not positive and finite
        status = ProfileStatus("StepFailure", float(length * r_end))

    grid = np.union1d(steps, _refinement(r0_scale, r_end))
    if tail is None:
        v, dv = traj(grid)
    else:
        if not log_tail:
            # the pressure phase's steps shrink with r* - r; so does this fill
            gaps = _refinement(r_end - tail.t[-2], r_end - r_h)[1:-1]
            grid = np.union1d(grid, r_end - gaps)
        head = int(np.searchsorted(grid, r_h, side="right"))
        r = grid[head:]
        fill = _from_log(m, r, *tail(np.log(r))) if log_tail else _from_pressure(m, *tail(r))
        v, dv = np.concatenate((traj(grid[:head]), fill), axis=1)

    # defensive: truncate anything past a positivity loss
    bad = np.flatnonzero(v <= 0.0)
    if bad.size:
        cut = bad[0]
        if cut < 10:
            raise RuntimeError("profile lost positivity immediately; inspect parameters")
        grid, v, dv = grid[:cut], v[:cut], dv[:cut]
        status = ProfileStatus("StepFailure", float(length * grid[-1]))

    step_indices = np.searchsorted(grid, steps[steps <= grid[-1]])
    r = length * grid
    r[-1] = status.radius  # r_max / length * length can miss r_max by an ulp
    return RadialProfile(params, r, eta * v, eta / length * dv, status, rtol, atol, step_indices)


def _quintic_vpp(r: np.ndarray, v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """v'' at each point of a grid of at least 3 points, from the quintic
    through (v, v') at three consecutive points: centered at interior
    points, the first and last triple at the ends.  Closed form in the node
    gaps a, b and chord slopes sL, sR of each triple; truncation O(h^4)."""
    h = np.diff(r)
    s = np.diff(v) / h
    a, b, sl, sr = h[:-1], h[1:], s[:-1], s[1:]
    ab = a + b
    mid = 4.0 * (b - a) * dv[1:-1] / (a * b) + 2.0 * (
        b**3 * (ab * dv[:-2] - (5.0 * a + 3.0 * b) * sl)
        - a**3 * (ab * dv[2:] - (3.0 * a + 5.0 * b) * sr)
    ) / (a * b * ab**3)
    # the outer node r[0] of the first triple, and r[-1] of the last as the
    # outer node of the grid reflected by r -> -r, which reverses the gaps
    # and flips the signs of the slopes and of v'
    a, b = np.stack((h[:2], h[:-3:-1]), axis=1)
    sl, sr = np.stack((s[:2], -s[:-3:-1]), axis=1)
    d0, d1, d2 = np.stack((dv[:3], -dv[:-4:-1]), axis=1)
    ab = a + b
    ends = 2.0 * (
        b * b * ((10.0 * a * a + 10.0 * a * b + 3.0 * b * b) * sl - 2.0 * (2.0 * a + b) * ab * d0)
        + a**3 * ((2.0 * a + 5.0 * b) * sr - ab * d2)
        - ab**4 * d1
    ) / (a * b * b * ab * ab)
    return np.concatenate((ends[:1], mid, ends[1:]))


def _hermite_weights(dr: np.ndarray):
    """Weights (dr/2, dr^2/10, dr^3/120) of the quintic Hermite rule on
    segments of lengths dr; _hermite_ends applies them."""
    h2 = dr * dr / 10.0
    return 0.5 * dr, h2, h2 * dr / 12.0


def _hermite_ends(weights, f: np.ndarray, df: np.ndarray, ddf: np.ndarray):
    """The quintic Hermite rule on each segment of a grid, as the shares of
    its two ends: with weights (h, h2, h3) = _hermite_weights(dr), the
    segment integral dr/2 (f0 + f1) + dr^2/10 (f0' - f1')
    + dr^3/120 (f0'' + f1'') is left + right, left from (f0, f0', f0'') and
    right from (f1, f1', f1'').  The rule integrates the quintic Hermite
    through both ends, so it is exact for quintics and O(h^6) per unit
    length given exact f' and f''."""
    h, h2, h3 = weights
    return h * f[:-1] + h2 * df[:-1] + h3 * ddf[:-1], h * f[1:] - h2 * df[1:] + h3 * ddf[1:]


def residuals(profile: RadialProfile) -> ResidualReport:
    """Pointwise and integral-form defects of a stored profile.

    The pointwise residual takes v'' at the (at least 3) accepted step
    points from the quintic through (v, v') at each and its two neighbours
    (_quintic_vpp), or from the quadratic through v' where v is flat to 1e-9
    across them, and compares it with the equation's right side, normalized
    by |alpha v| + |beta r v'| plus a small floor.  On a BlowUp profile it
    is no check, and its value must not be read as one: its maximum sits at
    the pressure phase's last step points, where v grows by orders of
    magnitude across three of them and no quintic through (v, v') follows
    it (5.7e8 and 4.1e10 on the n=3, m=0.2, beta=-1, alpha=-1 or -4
    blow-ups of the test suite, whose integral defect reads 1.05e-9 and
    1.84e-9; 4.07e3 and 2.74e3 when the r-form ran to the cap, with steps
    1e-11 apart whose chord slopes carried little precision).  Taken in
    P = v^-(1-m) instead, with P'' from the quintic through (P, P') and
    normalised by the sum of the P equation's terms, the pressure phase's
    steps of those runs read at most 3.0e-8 and 2.7e-8.  The integral
    defect tests

        (n-1) r^(n-1) v^(m-1) v'  =  -beta r^n v + (n beta - alpha) * I(r),
        I(r) = integral of z^(n-1) v(z) from 0 to r,

    with the quintic Hermite rule over the stored grid (the integrand's
    derivatives are (n-1) r^(n-2) v + r^(n-1) v' and (n-1)(n-2) r^(n-3) v
    + 2(n-1) r^(n-2) v' + r^(n-1) v'', from the stored v' and v'' from the
    equation) and the 0-to-r0 stub integrated analytically from the series
    start; it is normalized by the largest participating term so total
    cancellations do not divide by zero.
    """
    p = profile.params
    r, v, dv = profile.r, profile.v, profile.dv
    if len(r) < 10:
        raise ValueError("residuals need at least 10 grid points")
    n, m, alpha, beta = p.n, p.m, p.alpha, p.beta

    si = profile.step_indices
    if len(si) < 3:
        raise ValueError(f"residuals need at least 3 accepted step points, got {len(si)}")
    vpp = _vpp_array(p, r, v, dv)
    rs, vs, dvs, vpp_ode = r[si], v[si], dv[si], vpp[si]
    # where v is flat to roundoff across a triple the closed form cancels
    # catastrophically; there dv still has full relative precision and the
    # local steps are tiny, so differentiate dv by the quadratic instead
    triples = np.lib.stride_tricks.sliding_window_view(vs, 3)
    span = (triples.max(axis=1) - triples.min(axis=1)) / np.abs(triples).max(axis=1)
    flat = np.pad(span, 1, mode="edge") < 1e-9
    vpp_data = np.where(flat, np.gradient(dvs, rs, edge_order=2), _quintic_vpp(rs, vs, dvs))
    floor = 1e-3 * p.eta * max(1.0, abs(alpha) + abs(beta))
    den = np.abs(alpha * vs) + np.abs(beta * rs * dvs) + floor
    max_ode = float(np.max(np.abs(vpp_data - vpp_ode) / den))

    rn1 = r ** (n - 1)
    lhs = (n - 1) * rn1 * v ** (m - 1.0) * dv
    integrand = rn1 * v
    rn2v, rn1dv = integrand / r, rn1 * dv
    slope = (n - 1) * rn2v + rn1dv
    curvature = (n - 1) * ((n - 2) * rn2v + 2.0 * rn1dv) / r + rn1 * vpp
    left, right = _hermite_ends(_hermite_weights(np.diff(r)), integrand, slope, curvature)
    v2 = second_derivative_at_origin(p)
    stub = p.eta * r[0] ** n / n + v2 * r[0] ** (n + 2) / (2 * (n + 2))
    integral = stub + np.concatenate(([0.0], np.cumsum(left + right)))
    term1 = -beta * r**n * v
    term2 = (n * beta - alpha) * integral
    rhs = term1 + term2
    den = np.maximum.reduce([np.abs(lhs), np.abs(rhs), np.abs(term1), np.abs(term2)])
    defect = np.where(den > 1e-280, np.abs(lhs - rhs) / np.where(den > 0, den, 1.0), 0.0)
    max_integral = float(np.max(defect))

    return ResidualReport(max_ode, max_integral, len(r))


def _write_csv(path, header: str, columns) -> None:
    """Equal-length columns under a header line; 17 significant digits, so
    every float reads back bit-for-bit.  Rows of Python floats through one
    %-template format about twice as fast as np.savetxt or per-value
    f-strings."""
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        fh.writelines(row % r for r in zip(*(c.tolist() for c in columns)))


def write_profile_csv(profile: RadialProfile, path) -> None:
    _write_csv(path, PROFILE_CSV_HEADER, (profile.r, profile.v, profile.dv))


def _write_sidecar(profile: RadialProfile, path, **fields) -> None:
    """JSON sidecar: the profile's params, status, rtol, atol, grid_points."""
    doc = {
        "params": asdict(profile.params),
        "status": asdict(profile.status),
        "rtol": profile.rtol,
        "atol": profile.atol,
        "grid_points": len(profile.r),
        **fields,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_profile_json(profile: RadialProfile, path) -> None:
    _write_sidecar(profile, path, step_indices=profile.step_indices.tolist())


def _sidecar_field(doc: dict, key: str, kind=(int, float)):
    """doc[key], if it is a JSON value of the given kind (a bool is no number)."""
    if key not in doc:
        raise ValueError(f"sidecar has no key {key!r}")
    value = doc[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValueError(f"sidecar field {key!r} has the wrong type: {value!r}")
    return value


def load_profile(csv_path, json_path) -> RadialProfile:
    """Rebuild a profile from its CSV and sidecar, bit-for-bit.

    Raises ValueError when the sidecar misses a key, holds a value of the
    wrong JSON type (naming its key) or invalid params, an unknown status
    kind, or a status radius, rtol or atol that is not positive and finite;
    when the CSV header is not r,v,dv or the row count is not grid_points;
    or when the step indices are not integers that start at 0, increase
    strictly and stay on the grid."""
    with open(json_path) as fh:
        doc = json.load(fh)
    pd, status = _sidecar_field(doc, "params", dict), _sidecar_field(doc, "status", dict)
    params = SolitonParams(
        **{key: _sidecar_field(pd, key) for key in ("n", "m", "alpha", "beta", "eta")},
        rho=_sidecar_field(pd, "rho", (int, float, type(None))),
    )
    kind, radius = _sidecar_field(status, "kind", str), _sidecar_field(status, "radius")
    rtol, atol = _sidecar_field(doc, "rtol"), _sidecar_field(doc, "atol")
    grid_points = _sidecar_field(doc, "grid_points", int)
    steps = _sidecar_field(doc, "step_indices", list)
    if kind not in ("Global", "BlowUp", "StepFailure"):
        raise ValueError(f"status kind is {kind!r}, expected Global, BlowUp or StepFailure")
    _check_numerics(status_radius=radius, rtol=rtol, atol=atol)
    with open(csv_path) as fh:
        header = fh.readline().strip()
        if header != PROFILE_CSV_HEADER:
            raise ValueError(f"CSV header is {header!r}, expected {PROFILE_CSV_HEADER!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if len(data) != grid_points:
        raise ValueError(f"CSV has {len(data)} rows but grid_points is {grid_points}")
    if not all(type(i) is int for i in steps):
        raise ValueError("step_indices must be integers")
    steps = np.asarray(steps, dtype=int)
    if steps.size == 0 or steps[0] != 0:
        raise ValueError("step_indices must start at 0")
    if np.any(np.diff(steps) <= 0):
        raise ValueError("step_indices must be strictly increasing")
    if steps[-1] >= len(data):
        raise ValueError("step_indices fall outside the grid")
    return RadialProfile(
        params, data[:, 0], data[:, 1], data[:, 2], ProfileStatus(kind, radius), rtol, atol, steps
    )
