"""Adaptive integration of the radial profile equation.

The second-order equation is integrated in the explicit form

    v'' = -(m-1) v'^2 / v - (n-1) v'/r - (alpha v + beta r v') v^(1-m) / (n-1)

with state (v, v'), starting from a fourth-order series at a small radius
r0 = r0_scale * eta^((m-1)/2) because the origin is a regular singular point
of the r-form.  The steps come from a scalar Dormand-Prince 5(4) kernel with
Shampine's quartic dense output that runs on plain floats and keeps the
controller of scipy's RK45: initial step selection at error order 4, RMS
error norm with scale atol + max(|y|, |y_new|) * rtol, safety factor 0.9,
step factors clamped to [0.2, 10] (at most 1 right after a rejection), and a
minimum step of 10 ulp(r).  It is the package's only ODE stepper: it runs
any y'' = f(t, y, y') up to one terminal event g(y, y') rising through zero,
here the cap v - 1e12*eta and in geometry.w_log_dynamics a stop of the
log-radius equation.  The stored grid is the union of the accepted steps and
a log-uniform refinement filled from the dense output, so that downstream
quadratures resolve the identity checks.  Runs end in one of three statuses:

    Global(r_max)       integration reached r_max,
    BlowUp(r_star)      v crossed the cap 1e12*eta, or the step size
                        underflowed while v was still rising,
    StepFailure(r_fail) the controller stalled without blow-up indicators,
                        or the run used up STEP_BUDGET accepted steps.

Between grid points value_at reads the cubic Hermite through (v, v').  Profiles
are immutable; solving is a pure function of (params, numerics).
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

from .core_params import SolitonParams

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
STEP_BUDGET = 10**6        # accepted steps before a _dopri5 run gives up
DEFAULT_R0_SCALE = 1e-6
POINTS_PER_DECADE = 1100  # refinement density; keeps trapezoid defects near 1e-7

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
    Arrays are read-only views.
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
        for a in (r, v, dv):
            a.setflags(write=False)
        self.params = params
        self.r = r
        self.v = v
        self.dv = dv
        self.status = status
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.step_indices = np.asarray(step_indices, dtype=int)
        self.step_indices.setflags(write=False)

    @property
    def r0(self) -> float:
        return float(self.r[0])

    @property
    def q(self) -> np.ndarray:
        """q = r v'/v on the grid."""
        return self.r * self.dv / self.v

    @property
    def w(self) -> np.ndarray:
        """The scale-invariant profile w = r^2 v^(1-m) on the grid."""
        return _w(self.params.m, self.r, self.v)

    def value_at(self, radius, derivative: bool = False):
        """v at arbitrary radii: series below r0, the cubic Hermite through
        the stored (v, v') on the grid.  Negative, non-finite and past-the-grid
        radii raise (no extrapolation).  With derivative=True returns (v, v')."""
        radius = np.asarray(radius, dtype=float)
        if not np.all(np.isfinite(radius)):
            raise ValueError("radius must be finite")
        if np.any(radius > self.r[-1] * (1.0 + 1e-12)):
            raise ValueError(f"radius beyond profile grid end {self.r[-1]!r}; no extrapolation")
        if np.any(radius < 0.0):
            raise ValueError("radius must be nonnegative")
        r, v, dv = self.r, self.v, self.dv
        x = np.clip(radius, r[0], r[-1])
        # the coefficients and power sums of scipy's CubicHermiteSpline, in
        # its order of operations, on the queried intervals only
        i = np.clip(np.searchsorted(r, x, side="right") - 1, 0, len(r) - 2)
        h = r[i + 1] - r[i]
        slope = (v[i + 1] - v[i]) / h
        t = (dv[i] + dv[i + 1] - 2 * slope) / h
        c3 = t / h
        c2 = (slope - dv[i]) / h - t
        s = x - r[i]
        s2 = s * s
        v2 = second_derivative_at_origin(self.params)
        small = radius < r[0]
        hermite = v[i] + dv[i] * s + c2 * s2 + c3 * (s2 * s)
        out = np.where(small, self.params.eta + 0.5 * v2 * radius**2, hermite)
        if not derivative:
            return float(out) if out.ndim == 0 else out
        dout = np.where(small, v2 * radius, dv[i] + c2 * s * 2 + c3 * s2 * 3)
        if out.ndim == 0:
            return float(out), float(dout)
        return out, dout


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
    one_m = 1.0 - m

    def f(r, v, dv):
        if v <= 0.0:
            # NaN makes the error norm NaN, so the trial step is rejected
            # instead of taking a complex power
            return math.nan
        return (
            -(m - 1.0) * dv * dv / v
            - (n - 1) * dv / r
            - (alpha * v + beta * r * dv) * v**one_m / (n - 1)
        )

    return f


def _vpp_array(params: SolitonParams, r: np.ndarray, v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """v'' of the profile equation on arrays of (r, v, v')."""
    n, m = params.n, params.m
    return (
        -(m - 1.0) * dv * dv / v
        - (n - 1) * dv / r
        - (params.alpha * v + params.beta * r * dv) * v ** (1.0 - m) / (n - 1)
    )


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
    """Dense output y0 + h * sum_j q_j x^(j+1), x = (r - t0)/h, of one step."""
    x = (r - t0) / h
    x2 = x * x
    x3 = x2 * x
    return y0 + h * (q[..., 0] * x + q[..., 1] * x2 + q[..., 2] * x3 + q[..., 3] * (x3 * x))


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
        return _quartic(self.t[seg], self.h[seg], self.y[:, seg], self.q[:, seg], r)


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
    size falls below 10 ulp(r), or after STEP_BUDGET accepted steps."""
    rtol = max(rtol, 100 * _EPS)
    t = r0
    v, dv = y0
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

    ts, vs, dvs = array("d", [t]), array("d", [v]), array("d", [dv])
    hs, ks = array("d"), array("d")
    status = None
    while status is None:
        min_step = 10 * math.ulp(t)
        h_abs = max(h_abs, min_step)
        rejected = False
        while h_abs >= min_step:
            t_new = min(t + h_abs, r_end)
            h = t_new - t
            h_abs = h
            k1v, k1d = dv, fv
            k2v = dv + h * (_A21 * k1d)
            k2d = f(t + _C2 * h, v + h * (_A21 * k1v), k2v)
            k3v = dv + h * (_A31 * k1d + _A32 * k2d)
            k3d = f(t + _C3 * h, v + h * (_A31 * k1v + _A32 * k2v), k3v)
            k4v = dv + h * (_A41 * k1d + _A42 * k2d + _A43 * k3d)
            k4d = f(t + _C4 * h, v + h * (_A41 * k1v + _A42 * k2v + _A43 * k3v), k4v)
            k5v = dv + h * (_A51 * k1d + _A52 * k2d + _A53 * k3d + _A54 * k4d)
            k5d = f(
                t + _C5 * h,
                v + h * (_A51 * k1v + _A52 * k2v + _A53 * k3v + _A54 * k4v),
                k5v,
            )
            k6v = dv + h * (_A61 * k1d + _A62 * k2d + _A63 * k3d + _A64 * k4d + _A65 * k5d)
            k6d = f(
                t + h,
                v + h * (_A61 * k1v + _A62 * k2v + _A63 * k3v + _A64 * k4v + _A65 * k5v),
                k6v,
            )
            v_new = v + h * (_B1 * k1v + _B3 * k3v + _B4 * k4v + _B5 * k5v + _B6 * k6v)
            dv_new = dv + h * (_B1 * k1d + _B3 * k3d + _B4 * k4d + _B5 * k5d + _B6 * k6d)
            f_new = f(t + h, v_new, dv_new)
            ev = h * (_E1 * k1v + _E3 * k3v + _E4 * k4v + _E5 * k5v + _E6 * k6v + _E7 * dv_new)
            ed = h * (_E1 * k1d + _E3 * k3d + _E4 * k4d + _E5 * k5d + _E6 * k6d + _E7 * f_new)
            err = _rms(
                ev / (atol + max(abs(v), abs(v_new)) * rtol),
                ed / (atol + max(abs(dv), abs(dv_new)) * rtol),
            )
            if err < 1.0:
                if err == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * err**_ERR_EXPONENT)
                h_abs *= min(1.0, factor) if rejected else factor
                break
            # a NaN error norm (a stage with v <= 0) shrinks by _MIN_FACTOR
            h_abs *= max(_MIN_FACTOR, _SAFETY * err**_ERR_EXPONENT)
            rejected = True
        else:
            status = -1
            break
        ts.append(t_new)
        vs.append(v_new)
        dvs.append(dv_new)
        hs.append(h)
        ks.extend((k1v, k2v, k3v, k4v, k5v, k6v, dv_new, k1d, k2d, k3d, k4d, k5d, k6d, f_new))
        g_new = event(v_new, dv_new)
        if g <= 0.0 <= g_new:
            status = 1
        elif t_new >= r_end:
            status = 0
        elif len(hs) >= STEP_BUDGET:
            status = -2
        t, v, dv, fv, g = t_new, v_new, dv_new, f_new, g_new

    q = (np.frombuffer(ks).reshape(-1, 2, 7) @ _P).transpose(1, 0, 2)
    traj = _Trajectory(status, np.frombuffer(ts), np.array((vs, dvs)), np.frombuffer(hs), q)
    if status == 1:
        t_old, h, y_old = traj.t[-2], traj.h[-1], traj.y[:, -2]
        root = _bracketed_root(
            lambda r: event(*_quartic(t_old, h, y_old, q[:, -1], r)), t_old, traj.t[-1]
        )
        traj.t[-1] = root
        traj.y[:, -1] = _quartic(t_old, h, y_old, q[:, -1], root)
    return traj


def _check_numerics(r_max, rtol, atol, r0_scale) -> None:
    """Reject a numeric setting that is not finite and positive (atol may
    be None, which selects the default)."""
    for name, value in (("r_max", r_max), ("rtol", rtol), ("atol", atol), ("r0_scale", r0_scale)):
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def solve_profile(
    params: SolitonParams,
    r_max: float,
    rtol: float = 1e-9,
    atol: float | None = None,
    r0_scale: float = DEFAULT_R0_SCALE,
) -> RadialProfile:
    """Integrate the profile equation from the series start to r_max.

    The returned grid unions the accepted adaptive steps with a log-uniform
    refinement (POINTS_PER_DECADE) filled from dense output, so later
    geometry evaluations and quadratures work on stored points only.
    The solver reports whatever trajectory the initial data generates;
    it makes no uniqueness claim.
    """
    _check_numerics(r_max, rtol, atol, r0_scale)
    eta = params.eta
    if atol is None:
        # far below any attainable profile scale (deep tails reach ~1e-13 eta),
        # so the error control stays effectively relative everywhere
        atol = 1e-30 * eta
    r0 = r0_scale * eta ** ((params.m - 1.0) / 2.0)
    if r0 >= r_max:
        raise ValueError(f"r0 = {r0!r} must be below r_max = {r_max!r}")
    cap = BLOWUP_CAP * eta
    traj = _dopri5(
        _vpp(params.n, params.m, params.alpha, params.beta),
        r0,
        series_start(params, r0),
        r_max,
        rtol,
        atol,
        lambda v, dv: v - cap,
    )

    steps = traj.t
    r_end = steps[-1]
    rising = traj.y[1, -1] > 0.0 and traj.y[0, -1] > eta
    if traj.status == 1 or (traj.status == -1 and rising):
        # the cap, or a controller stall while v was still climbing
        status = ProfileStatus("BlowUp", float(r_end))
    elif traj.status == 0:
        status = ProfileStatus("Global", float(r_max))
    else:
        # a stall without blow-up indicators, or the step budget used up
        status = ProfileStatus("StepFailure", float(r_end))

    decades = max(np.log10(r_end / r0), 1e-9)
    n_refine = max(int(np.ceil(decades * POINTS_PER_DECADE)), 2)
    refine = np.geomspace(r0, r_end, n_refine)
    grid = np.union1d(steps, refine)
    v, dv = traj(grid)

    # defensive: truncate anything past a positivity loss
    bad = np.flatnonzero(v <= 0.0)
    if bad.size:
        cut = bad[0]
        if cut < 10:
            raise RuntimeError("profile lost positivity immediately; inspect parameters")
        grid, v, dv = grid[:cut], v[:cut], dv[:cut]
        status = ProfileStatus("StepFailure", float(grid[-1]))

    step_indices = np.searchsorted(grid, steps[steps <= grid[-1]])
    return RadialProfile(params, grid, v, dv, status, rtol, atol, step_indices)


def _triple_indices(npts: int) -> np.ndarray:
    """(npts, 3) consecutive triples: centered for interior points, the
    first/last triple reused at the ends."""
    if npts < 3:
        raise ValueError("need at least 3 points")
    left = np.clip(np.arange(npts) - 1, 0, npts - 3)
    return left[:, None] + np.arange(3)[None, :]


def _quintic_second_derivative(r: np.ndarray, v: np.ndarray, dv: np.ndarray) -> np.ndarray:
    """v'' at each point of a grid, from the unique quintic matching (v, v')
    at three consecutive points.  Truncation O(h^4)."""
    npts = len(r)
    idx = _triple_indices(npts)
    rt = r[idx]
    scale = rt[:, 2] - rt[:, 0]
    xi = (rt - r[:, None]) / scale[:, None]  # eval point at xi = 0

    A = np.zeros((npts, 6, 6))
    B = np.zeros((npts, 6))
    powers = np.arange(6)
    for j in range(3):
        x = xi[:, j][:, None]
        A[:, 2 * j, :] = x**powers
        A[:, 2 * j + 1, 1:] = powers[1:] * x ** (powers[1:] - 1)
        B[:, 2 * j] = v[idx[:, j]]
        B[:, 2 * j + 1] = dv[idx[:, j]] * scale
    coeffs = np.linalg.solve(A, B[:, :, None])[:, :, 0]
    return 2.0 * coeffs[:, 2] / scale**2


def _quadratic_first_derivative(r: np.ndarray, f: np.ndarray) -> np.ndarray:
    """f' at each point from the Lagrange quadratic through its triple."""
    idx = _triple_indices(len(r))
    x0, x1, x2 = r[idx[:, 0]], r[idx[:, 1]], r[idx[:, 2]]
    f0, f1, f2 = f[idx[:, 0]], f[idx[:, 1]], f[idx[:, 2]]
    x = r
    return (
        f0 * (2.0 * x - x1 - x2) / ((x0 - x1) * (x0 - x2))
        + f1 * (2.0 * x - x0 - x2) / ((x1 - x0) * (x1 - x2))
        + f2 * (2.0 * x - x0 - x1) / ((x2 - x0) * (x2 - x1))
    )


def residuals(profile: RadialProfile) -> ResidualReport:
    """Pointwise and integral-form defects of a stored profile.

    The pointwise residual reconstructs v'' from (v, v') at the accepted
    step points and compares it with the equation's right side, normalized
    by |alpha v| + |beta r v'| plus a small floor.  The integral defect
    tests

        (n-1) r^(n-1) v^(m-1) v'  =  -beta r^n v + (n beta - alpha) * I(r),
        I(r) = integral of z^(n-1) v(z) from 0 to r,

    with composite trapezoid over the stored grid and the 0-to-r0 stub
    integrated analytically from the series start; it is normalized by the
    largest participating term so total cancellations do not divide by zero.
    """
    p = profile.params
    r, v, dv = profile.r, profile.v, profile.dv
    if len(r) < 10:
        raise ValueError("residuals need at least 10 grid points")
    n, m, alpha, beta = p.n, p.m, p.alpha, p.beta

    si = profile.step_indices
    rs, vs, dvs = r[si], v[si], dv[si]
    vpp_data = _quintic_second_derivative(rs, vs, dvs)
    # where v is flat to roundoff across a triple the quintic coefficients
    # cancel catastrophically; there dv still has full relative precision
    # and the local steps are tiny, so differentiate dv directly instead
    idx = _triple_indices(len(rs))
    span = (np.max(vs[idx], axis=1) - np.min(vs[idx], axis=1)) / np.max(
        np.abs(vs[idx]), axis=1
    )
    flat = span < 1e-9
    if np.any(flat):
        vpp_data = np.where(flat, _quadratic_first_derivative(rs, dvs), vpp_data)
    vpp_ode = _vpp_array(p, rs, vs, dvs)
    floor = 1e-3 * p.eta * max(1.0, abs(alpha) + abs(beta))
    den = np.abs(alpha * vs) + np.abs(beta * rs * dvs) + floor
    max_ode = float(np.max(np.abs(vpp_data - vpp_ode) / den))

    lhs = (n - 1) * r ** (n - 1) * v ** (m - 1.0) * dv
    integrand = r ** (n - 1) * v
    segs = 0.5 * np.diff(r) * (integrand[:-1] + integrand[1:])
    v2 = second_derivative_at_origin(p)
    stub = p.eta * r[0] ** n / n + v2 * r[0] ** (n + 2) / (2 * (n + 2))
    integral = stub + np.concatenate(([0.0], np.cumsum(segs)))
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


def load_profile(csv_path, json_path) -> RadialProfile:
    """Rebuild a profile from its CSV and sidecar, bit-for-bit.

    Raises ValueError when the CSV header is not r,v,dv, the row count is
    not the sidecar's grid_points, or the step indices do not start at 0,
    increase strictly and stay on the grid."""
    with open(json_path) as fh:
        doc = json.load(fh)
    pd = doc["params"]
    params = SolitonParams(
        n=int(pd["n"]), m=pd["m"], alpha=pd["alpha"], beta=pd["beta"], eta=pd["eta"], rho=pd["rho"]
    )
    with open(csv_path) as fh:
        header = fh.readline().strip()
        if header != PROFILE_CSV_HEADER:
            raise ValueError(f"CSV header is {header!r}, expected {PROFILE_CSV_HEADER!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if len(data) != doc["grid_points"]:
        raise ValueError(f"CSV has {len(data)} rows but grid_points is {doc['grid_points']}")
    steps = np.asarray(doc["step_indices"], dtype=int)
    if steps.size == 0 or steps[0] != 0:
        raise ValueError("step_indices must start at 0")
    if np.any(np.diff(steps) <= 0):
        raise ValueError("step_indices must be strictly increasing")
    if steps[-1] >= len(data):
        raise ValueError("step_indices fall outside the grid")
    return RadialProfile(
        params,
        data[:, 0],
        data[:, 1],
        data[:, 2],
        ProfileStatus(doc["status"]["kind"], doc["status"]["radius"]),
        doc["rtol"],
        doc["atol"],
        steps,
    )
