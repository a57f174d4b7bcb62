"""Adaptive integration of the radial profile equation.

The second-order equation is integrated in y = v^gamma (_power_pp), gamma != 0,

    y'' = (1 - m/gamma) y'^2/y - (n-1) y'/r
          - (gamma alpha y + beta r y') y^((1-m)/gamma) / (n-1),

with state (y, y').  The r-form is gamma = 1, y = v; it starts from a
fourth-order series at r0 = r0_scale * l, l = eta^((m-1)/2), since the origin
is a regular singular point.  Every run solves the eta = 1 problem in r / l
and v / eta and scales it back: eta is an exact gauge, so runs that differ
only in eta take the same steps.

Two scalar Runge-Kutta kernels take the steps, each with scipy's initial
step, error norm and controller, a minimum step of 10 ulp(r), at most
STEP_BUDGET accepted steps and one terminal event.  They run on plain floats
(inputs converted once per call), and their loops are bit-stable
(test_kernel_bits_are_pinned):

  * _dopri5, Dormand-Prince 5(4) with a quartic dense output (scipy's RK45):
    the r-form, the pressure phase and expanding log tails;
  * _dop853, Prince-Dormand 8(5,3) with a 7th-order dense output (scipy's
    DOP853): shrinking and steady log tails.

_log_kernel picks the log tail's kernel, for solve_profile and
geometry.w_log_dynamics alike, from the input alone: _dop853 where the tail
does not grow (beta > 0 and c = (1-m) alpha - 2 beta >= 0, c read as rho
for soliton parameters), _dopri5 otherwise.  At the tail's rtol / 100 the
eighth-order pair takes 6,141 steps on the shrinking and steady tails of the
verify_nonstiff benchmark's seed-3 ops 0-79, where _dopri5 took 28,672.  On
expanding tails its steps are coarser than the integrating factor of
geometry's K0 quadrature (worst K0 gap over expand_tail's seed-3 ops 0-39
2.4e-9 -> 6.5e-7), and on the r-form it saved no time and broke
pde_residual's step-halving order (1.9879 < 2), so both stay on _dopri5.

The r-form runs from r0 up to the cap v = 1e12 (BLOWUP_CAP).  Two kinds of
run hand it over (in the units of the eta = 1 problem):

  * alpha > 0, beta > 0, when l lies below r_max: at r_h = l the autonomous
    equation of W = log w, w = r^2 v^(1-m), in s = log r (_log_wpp, any m)
    carries the tail to log r_max at LOG_TOL_FACTOR * rtol.  The paper's
    limits are statements in s, and its power-law tails are smooth there.
    Just past the core W_s = 2 + (1-m) r v'/v is close to 2, and relative
    control of W_s loses r v'/v: that sets both r_h = l and the tolerance.
  * alpha < 0, beta <= 0 (Theorem 1's blow-up regime): near the blow-up
    radius v ~ (R_b - r)^(-1/(1-m)) holds the r-form's steps in proportion
    to the distance left, while P = v^-(1-m) goes smoothly to zero.  So from
    the r-form's last accepted step below v = PRESSURE_SWITCH the same
    equation at gamma = m - 1, in P, runs at atol times P there to the event
    P = BLOWUP_CAP^gamma: r* is still where v reaches the cap.  Its part of
    the grid adds points log-uniform in r* - r, as its steps shrink with it.

Every other run (touch-down alpha > 0 > beta; alpha < 0 < beta; beta = 0
with alpha >= 0) is the r-form alone.  The stored grid is the union of every
phase's accepted steps and a log-uniform refinement at POINTS_PER_DECADE,
each phase filled from its own dense output.  The identity checks integrate
over it with the quintic Hermite rule (_hermite_ends); the pointwise check
takes v'' from the quintic through three points (_quintic_vpp).  value_at
reads v and v' from quintic Hermites whose v'' and v''' come from the
equation (_vpp_array, _vppp_array).  Runs end in one of three statuses:

    Global(r_max)       integration reached r_max,
    BlowUp(r_star)      v crossed the cap 1e12*eta, or the step size
                        underflowed while v was still rising,
    StepFailure(r_fail) the controller stalled without blow-up indicators,
                        a kernel run used up STEP_BUDGET accepted steps,
                        or the state at r_h was not positive and finite.

Profiles are immutable; solving is a pure function of (params, numerics).
CHANGES.md keeps the measurements behind the handoffs and tolerances.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .core_params import SolitonParams, _blowup_regime, _length_scale

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
STEP_BUDGET = 10**6        # accepted steps before a kernel run gives up
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
        if not (np.isfinite(v).all() and np.isfinite(dv).all()):
            raise ValueError("profile values and derivatives must be finite")
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


def _power_pp(n: int, m: float, alpha: float, beta: float, gamma: float):
    """y'' of the profile equation in y = v^gamma (the module docstring's
    form) as a function of (r, y, y').  At gamma = 1 the folded constants are
    1 - m, alpha and 1 - m to the bit; n - 1 is exact as a float."""
    nan, a, ga, e, n1 = math.nan, 1.0 - m / gamma, gamma * alpha, (1.0 - m) / gamma, float(n - 1)

    def f(r, y, dy):
        if y <= 0.0:
            # NaN makes the error norm NaN, so the trial step is rejected
            # instead of taking a complex power
            return nan
        return a * dy * dy / y - n1 * dy / r - (ga * y + beta * r * dy) * y**e / n1

    return f


def _pressure_terms(params: SolitonParams, r, P, dP) -> np.ndarray:
    """The four terms of the pressure equation, _power_pp at gamma = m - 1,
    on arrays of (r, P, P'), stacked along the first axis: P'^2/((1-m) P),
    -beta r P'/((n-1) P), -(n-1) P'/r and (1-m) alpha/(n-1)."""
    one_m, n1 = 1.0 - params.m, params.n - 1
    source = np.full_like(P, one_m * params.alpha / n1)
    return np.stack((dP * dP / (one_m * P), -params.beta * r * dP / (n1 * P), -n1 * dP / r, source))


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


def _log_c(params: SolitonParams) -> float:
    """c = (1-m) alpha - 2 beta of the log-radius equation.  It is rho for
    soliton parameters, and rho is taken then: the difference rounds to
    +-2.2e-16 at rho = 0, so a steady tail would not solve the steady
    equation."""
    if params.rho is not None:
        return params.rho
    return (1.0 - params.m) * params.alpha - 2.0 * params.beta


def _log_kernel(params: SolitonParams):
    """The kernel of the log-radius equation, for solve_profile's tail and
    geometry.w_log_dynamics alike: _dop853 where the tail does not grow
    (beta > 0 and c = _log_c >= 0: shrinking and steady solitons), _dopri5
    otherwise (see the module docstring)."""
    return _dop853 if params.beta > 0.0 and _log_c(params) >= 0.0 else _dopri5


def _log_wpp(params: SolitonParams):
    """W'' of the log-radius equation in W = log w~, s = log r, as a function
    of (s, W, W_s); it holds for any m, with e^W (c + beta W_s) =
    (1-m) r^2 v^(1-m) (alpha + beta r v'/v), c = _log_c(params)."""
    n, m, beta, c = params.n, params.m, params.beta, _log_c(params)
    # -m/(1-m) and 1/(n-1) folded: f runs 6-15 times a step, so it multiplies
    exp, k, inv_n1, n2 = math.exp, -m / (1.0 - m), 1.0 / (n - 1), float(n - 2)

    def f(s, W, Ws):
        d = Ws - 2.0
        return k * (d * d) - n2 * d - exp(W) * (c + beta * Ws) * inv_n1

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


def _to_power(gamma: float, v, dv):
    """(y, y') = (v^gamma, gamma v^gamma v'/v) of the state (v, v')."""
    y = v**gamma
    return y, gamma * y * dv / v


def _from_power(gamma: float, y, dy):
    """(v, v') from the state (y, y') of y = v^gamma."""
    v = y ** (1.0 / gamma)
    return v, v * dy / (gamma * y)


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


def _sparse(shape, rows) -> np.ndarray:
    """An array of the given shape from {row: {column: value}}, its nonzero entries."""
    a = np.zeros(shape)
    for i, row in rows.items():
        a[i, list(row)] = list(row.values())
    return a


# Prince & Dormand's (1981) 8(5,3) pair with its 7th-order dense output, as
# scipy.integrate.DOP853 holds it (Hairer, Norsett & Wanner, Solving ODEs I,
# II.10).  Row 12 of A is the solution's weights b; stage 12 is f at the new
# point, and stages 13-15 serve the dense output only.
_A853 = _sparse((16, 16), {
    1: {0: 0.05260015195876773},
    2: {0: 0.0197250569845379, 1: 0.0591751709536137},
    3: {0: 0.02958758547680685, 2: 0.08876275643042054},
    4: {0: 0.2413651341592667, 2: -0.8845494793282861, 3: 0.924834003261792},
    5: {0: 0.037037037037037035, 3: 0.17082860872947386, 4: 0.12546768756682242},
    6: {0: 0.037109375, 3: 0.17025221101954405, 4: 0.06021653898045596, 5: -0.017578125},
    7: {0: 0.03709200011850479, 3: 0.17038392571223998, 4: 0.10726203044637328,
        5: -0.015319437748624402, 6: 0.008273789163814023},
    8: {0: 0.6241109587160757, 3: -3.3608926294469414, 4: -0.868219346841726, 5: 27.59209969944671,
        6: 20.154067550477894, 7: -43.48988418106996},
    9: {0: 0.47766253643826434, 3: -2.4881146199716677, 4: -0.590290826836843,
        5: 21.230051448181193, 6: 15.279233632882423, 7: -33.28821096898486,
        8: -0.020331201708508627},
    10: {0: -0.9371424300859873, 3: 5.186372428844064, 4: 1.0914373489967295,
        5: -8.149787010746927, 6: -18.52006565999696, 7: 22.739487099350505, 8: 2.4936055526796523,
        9: -3.0467644718982196},
    11: {0: 2.273310147516538, 3: -10.53449546673725, 4: -2.0008720582248625, 5: -17.9589318631188,
        6: 27.94888452941996, 7: -2.8589982771350235, 8: -8.87285693353063, 9: 12.360567175794303,
        10: 0.6433927460157636},
    12: {0: 0.054293734116568765, 5: 4.450312892752409, 6: 1.8915178993145003,
        7: -5.801203960010585, 8: 0.3111643669578199, 9: -0.1521609496625161,
        10: 0.20136540080403034, 11: 0.04471061572777259},
    13: {0: 0.056167502283047954, 6: 0.25350021021662483, 7: -0.2462390374708025,
        8: -0.12419142326381637, 9: 0.15329179827876568, 10: 0.00820105229563469,
        11: 0.007567897660545699, 12: -0.008298},
    14: {0: 0.03183464816350214, 5: 0.028300909672366776, 6: 0.053541988307438566,
        7: -0.05492374857139099, 10: -0.00010834732869724932, 11: 0.0003825710908356584,
        12: -0.00034046500868740456, 13: 0.1413124436746325},
    15: {0: -0.42889630158379194, 5: -4.697621415361164, 6: 7.683421196062599, 7: 4.06898981839711,
        8: 0.3567271874552811, 12: -0.0013990241651590145, 13: 2.9475147891527724,
        14: -9.15095847217987},
})
_C853 = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
    0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
    1.0, 1.0, 0.1, 0.2, 0.7777777777777778,
])
_D853 = _sparse((4, 16), {
    0: {0: -8.428938276109013, 5: 0.5667149535193777, 6: -3.0689499459498917, 7: 2.38466765651207,
        8: 2.117034582445028, 9: -0.871391583777973, 10: 2.2404374302607883,
        11: 0.6315787787694688, 12: -0.08899033645133331, 13: 18.148505520854727,
        14: -9.194632392478356, 15: -4.436036387594894},
    1: {0: 10.427508642579134, 5: 242.28349177525817, 6: 165.20045171727028, 7: -374.5467547226902,
        8: -22.113666853125306, 9: 7.733432668472264, 10: -30.674084731089398,
        11: -9.332130526430229, 12: 15.697238121770845, 13: -31.139403219565178,
        14: -9.35292435884448, 15: 35.81684148639408},
    2: {0: 19.985053242002433, 5: -387.0373087493518, 6: -189.17813819516758, 7: 527.8081592054236,
        8: -11.57390253995963, 9: 6.8812326946963, 10: -1.0006050966910838, 11: 0.7777137798053443,
        12: -2.778205752353508, 13: -60.19669523126412, 14: 84.32040550667716,
        15: 11.99229113618279},
    3: {0: -25.69393346270375, 5: -154.18974869023643, 6: -231.5293791760455, 7: 357.6391179106141,
        8: 93.40532418362432, 9: -37.45832313645163, 10: 104.0996495089623, 11: 29.8402934266605,
        12: -43.53345659001114, 13: 96.32455395918828, 14: -39.17726167561544,
        15: -149.72683625798564},
})
_E5_853 = _sparse((1, 13), {
    0: {0: 0.01312004499419488, 5: -1.2251564463762044, 6: -0.4957589496572502,
        7: 1.6643771824549864, 8: -0.35032884874997366, 9: 0.3341791187130175,
        10: 0.08192320648511571, 11: -0.022355307863886294},
})[0]
_B853 = _A853[12, :12]
_E3_853 = np.append(_B853, 0.0)
_E3_853[[0, 8, 11]] -= (0.2440944881889764, 0.7338466882816118, 0.022058823529411766)
# The dense output y_old + h sum_j (K P)_j x^(j+1), x = (r - t_old)/h, is
# linear in the 16 stages K: scipy's F_0 = dy = h sum b_i k_i, F_1 = h k_0 - dy,
# F_2 = 2 dy - h (k_0 + k_12) and F_3..F_6 = h D K, and the integer matrix
# expands its nested x (F_0 + (1-x) (F_1 + x (F_2 + (1-x) (...)))) in powers of x
_B16, (_K0, _K12) = np.append(_B853, np.zeros(4)), np.eye(16)[[0, 12]]
_P853 = (np.array([
    [1, 1, 0, 0, 0, 0, 0],
    [0, -1, 1, 1, 0, 0, 0],
    [0, 0, -1, -2, 1, 1, 0],
    [0, 0, 0, 1, -2, -3, 1],
    [0, 0, 0, 0, 1, 3, -3],
    [0, 0, 0, 0, 0, -1, 3],
    [0, 0, 0, 0, 0, 0, -1],
]) @ np.vstack((_B16, _K0 - _B16, 2.0 * _B16 - _K0 - _K12, _D853))).T
# the kernel's constants as floats: A's nonzero entries row by row (b in row 12)
_DOP853_CONSTANTS = (
    _A853[np.nonzero(_A853)].tolist(),
    _C853.tolist(),
    _E5_853[np.nonzero(_E5_853)].tolist(),
    _E3_853[np.nonzero(_E3_853)].tolist(),
)


def _dense(t0, h, y0, q, r):
    """Dense output y0 + h * sum_j q_j x^(j+1), x = (r - t0)/h, of one step;
    q holds q_0, q_1, ... along its first axis (floats or arrays): four on a
    _dopri5 step, seven on a _dop853 one.  The powers of x are summed in
    ascending order, so a quartic keeps the bits of the written-out sum."""
    x = (r - t0) / h
    power = x
    total = q[0] * x
    for qj in q[1:]:
        power = power * x
        total = total + qj * power
    return y0 + h * total


class _Trajectory(NamedTuple):
    """Accepted steps of a _dopri5 or _dop853 run and their interpolants.

    t[i] and y[:, i] = (v, v') are the accepted radii and states; step i
    starts at t[i], has size h[i] and dense-output coefficients q[:, i]
    (2 x 4 on _dopri5, 2 x 7 on _dop853).  After an event, t[-1] and
    y[:, -1] are the event's root, which lies inside the last step."""

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
        return _dense(self.t[seg], self.h[seg], self.y[:, seg], q, r)


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


def _initial_step(f, t, v, dv, fv, r_end, rtol, atol, order) -> float:
    """scipy's select_initial_step for an error estimator of the given order."""
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
        h1 = (0.01 / max(d1, d2)) ** (1 / (order + 1))
    return min(100 * h0, h1, r_end - t)


def _trajectory(status, ts, vs, dvs, hs, ks, P, event) -> _Trajectory:
    """The _Trajectory of a kernel's accepted steps: ks holds each step's
    stages, its v' components then its f ones, and P maps the stages to the
    dense-output coefficients.  After an event the last point is moved to the
    root on the last step's dense output."""
    q = (np.frombuffer(ks).reshape(-1, 2, len(P)) @ P).transpose(1, 0, 2)
    traj = _Trajectory(status, np.frombuffer(ts), np.array((vs, dvs)), np.frombuffer(hs), q)
    if status == 1:
        # the last step read back as floats, so the bisection is scalar
        t_old, h, v_old, dv_old = ts[-2], hs[-1], vs[-2], dvs[-2]
        qv, qd = q[:, -1].tolist()

        def state(r):
            return _dense(t_old, h, v_old, qv, r), _dense(t_old, h, dv_old, qd, r)

        root = _bracketed_root(lambda r: event(*state(r)), t_old, ts[-1])
        traj.t[-1] = root
        traj.y[:, -1] = state(root)
    return traj


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
    h_abs = _initial_step(f, t, v, dv, fv, r_end, rtol, atol, 4)

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

    return _trajectory(status, ts, vs, dvs, hs, ks, _P, event)


def _dop853(f, r0, y0, r_end, rtol, atol, event=lambda v, dv: -1.0) -> _Trajectory:
    """Integrate v'' = f(r, v, v') as _dopri5 does, on Prince & Dormand's
    8(5,3) pair.

    It keeps scipy DOP853's initial step selection (error order 7), its error
    norm h |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) N) over the scaled fifth- and
    third-order error estimates e5 and e3 of the N = 2 components, its
    controller (safety 0.9, factors in [0.2, 10], at most 1 right after a
    rejection, exponent -1/8) and its 7th-order dense output, whose three
    extra stages run once per accepted step.  _dopri5's rules hold: floats
    converted once per call, STEP_BUDGET read once per call, the 10-ulp
    minimum step, one terminal event, and a bit-stable step loop."""
    r_end, atol = float(r_end), float(atol)
    rtol = max(float(rtol), 100 * _EPS)
    t = float(r0)
    v, dv = map(float, y0)
    fv = f(t, v, dv)
    g = event(v, dv)
    h_abs = _initial_step(f, t, v, dv, fv, r_end, rtol, atol, 7)

    sqrt, ulp, budget = math.sqrt, math.ulp, STEP_BUDGET
    safety, min_factor, max_factor, exponent = _SAFETY, _MIN_FACTOR, _MAX_FACTOR, -1 / 8
    a, c, e5, e3 = _DOP853_CONSTANTS
    (a1_0, a2_0, a2_1, a3_0, a3_2, a4_0, a4_2, a4_3, a5_0, a5_3, a5_4, a6_0, a6_3, a6_4, a6_5,
     a7_0, a7_3, a7_4, a7_5, a7_6, a8_0, a8_3, a8_4, a8_5, a8_6, a8_7,
     a9_0, a9_3, a9_4, a9_5, a9_6, a9_7, a9_8, a10_0, a10_3, a10_4, a10_5, a10_6, a10_7, a10_8,
     a10_9, a11_0, a11_3, a11_4, a11_5, a11_6, a11_7, a11_8, a11_9, a11_10,
     b0, b5, b6, b7, b8, b9, b10, b11,
     a13_0, a13_6, a13_7, a13_8, a13_9, a13_10, a13_11, a13_12,
     a14_0, a14_5, a14_6, a14_7, a14_10, a14_11, a14_12, a14_13,
     a15_0, a15_5, a15_6, a15_7, a15_8, a15_12, a15_13, a15_14) = a
    _, c1, c2, c3, c4, c5, c6, c7, c8, c9, c10, c11, _, c13, c14, c15 = c
    e5_0, e5_5, e5_6, e5_7, e5_8, e5_9, e5_10, e5_11 = e5
    e3_0, e3_5, e3_6, e3_7, e3_8, e3_9, e3_10, e3_11 = e3
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
            # stage 0 is (dv, fv); stage k is (kkv, kkd)
            k1v = dv + h * (a1_0 * fv)
            k1d = f(t + c1 * h, v + h * (a1_0 * dv), k1v)
            k2v = dv + h * (a2_0 * fv + a2_1 * k1d)
            k2d = f(t + c2 * h, v + h * (a2_0 * dv + a2_1 * k1v), k2v)
            k3v = dv + h * (a3_0 * fv + a3_2 * k2d)
            k3d = f(t + c3 * h, v + h * (a3_0 * dv + a3_2 * k2v), k3v)
            k4v = dv + h * (a4_0 * fv + a4_2 * k2d + a4_3 * k3d)
            k4d = f(t + c4 * h, v + h * (a4_0 * dv + a4_2 * k2v + a4_3 * k3v), k4v)
            k5v = dv + h * (a5_0 * fv + a5_3 * k3d + a5_4 * k4d)
            k5d = f(t + c5 * h, v + h * (a5_0 * dv + a5_3 * k3v + a5_4 * k4v), k5v)
            k6v = dv + h * (a6_0 * fv + a6_3 * k3d + a6_4 * k4d + a6_5 * k5d)
            k6d = f(t + c6 * h, v + h * (a6_0 * dv + a6_3 * k3v + a6_4 * k4v + a6_5 * k5v), k6v)
            k7v = dv + h * (a7_0 * fv + a7_3 * k3d + a7_4 * k4d + a7_5 * k5d + a7_6 * k6d)
            k7d = f(
                t + c7 * h,
                v + h * (a7_0 * dv + a7_3 * k3v + a7_4 * k4v + a7_5 * k5v + a7_6 * k6v),
                k7v,
            )
            k8v = dv + h * (
                a8_0 * fv + a8_3 * k3d + a8_4 * k4d + a8_5 * k5d + a8_6 * k6d + a8_7 * k7d
            )
            k8d = f(
                t + c8 * h,
                v + h * (
                    a8_0 * dv + a8_3 * k3v + a8_4 * k4v + a8_5 * k5v + a8_6 * k6v + a8_7 * k7v
                ),
                k8v,
            )
            k9v = dv + h * (
                a9_0 * fv + a9_3 * k3d + a9_4 * k4d + a9_5 * k5d + a9_6 * k6d + a9_7 * k7d
                + a9_8 * k8d
            )
            k9d = f(
                t + c9 * h,
                v + h * (
                    a9_0 * dv + a9_3 * k3v + a9_4 * k4v + a9_5 * k5v + a9_6 * k6v + a9_7 * k7v
                    + a9_8 * k8v
                ),
                k9v,
            )
            k10v = dv + h * (
                a10_0 * fv + a10_3 * k3d + a10_4 * k4d + a10_5 * k5d + a10_6 * k6d
                + a10_7 * k7d + a10_8 * k8d + a10_9 * k9d
            )
            k10d = f(
                t + c10 * h,
                v + h * (
                    a10_0 * dv + a10_3 * k3v + a10_4 * k4v + a10_5 * k5v + a10_6 * k6v
                    + a10_7 * k7v + a10_8 * k8v + a10_9 * k9v
                ),
                k10v,
            )
            k11v = dv + h * (
                a11_0 * fv + a11_3 * k3d + a11_4 * k4d + a11_5 * k5d + a11_6 * k6d
                + a11_7 * k7d + a11_8 * k8d + a11_9 * k9d + a11_10 * k10d
            )
            k11d = f(
                t + c11 * h,
                v + h * (
                    a11_0 * dv + a11_3 * k3v + a11_4 * k4v + a11_5 * k5v + a11_6 * k6v
                    + a11_7 * k7v + a11_8 * k8v + a11_9 * k9v + a11_10 * k10v
                ),
                k11v,
            )
            v_new = v + h * (
                b0 * dv + b5 * k5v + b6 * k6v + b7 * k7v + b8 * k8v + b9 * k9v + b10 * k10v
                + b11 * k11v
            )
            dv_new = dv + h * (
                b0 * fv + b5 * k5d + b6 * k6d + b7 * k7d + b8 * k8d + b9 * k9d + b10 * k10d
                + b11 * k11d
            )
            f_new = f(t + h, v_new, dv_new)
            # the scales use max(|y|, |y_new|), which is |y| when y_new is NaN
            av_new = -v_new if v_new < 0.0 else v_new
            adv_new = -dv_new if dv_new < 0.0 else dv_new
            sv = atol + (av_new if av_new > av else av) * rtol
            sd = atol + (adv_new if adv_new > adv else adv) * rtol
            e5v = (
                e5_0 * dv + e5_5 * k5v + e5_6 * k6v + e5_7 * k7v + e5_8 * k8v + e5_9 * k9v
                + e5_10 * k10v + e5_11 * k11v
            ) / sv
            e5d = (
                e5_0 * fv + e5_5 * k5d + e5_6 * k6d + e5_7 * k7d + e5_8 * k8d + e5_9 * k9d
                + e5_10 * k10d + e5_11 * k11d
            ) / sd
            e3v = (
                e3_0 * dv + e3_5 * k5v + e3_6 * k6v + e3_7 * k7v + e3_8 * k8v + e3_9 * k9v
                + e3_10 * k10v + e3_11 * k11v
            ) / sv
            e3d = (
                e3_0 * fv + e3_5 * k5d + e3_6 * k6d + e3_7 * k7d + e3_8 * k8d + e3_9 * k9d
                + e3_10 * k10d + e3_11 * k11d
            ) / sd
            n5 = e5v * e5v + e5d * e5d
            n3 = e3v * e3v + e3d * e3d
            if n5 == 0.0 and n3 == 0.0:
                err = 0.0
            else:
                err = h * n5 / sqrt((n5 + 0.01 * n3) * 2.0)
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
            # a NaN error norm shrinks by min_factor
            factor = safety * err**exponent
            h_abs *= factor if factor > min_factor else min_factor
            rejected = True
        else:
            status = -1
            break
        # the dense output's stages, from the accepted step's (stage 12 is
        # (dv_new, f_new))
        k13v = dv + h * (
            a13_0 * fv + a13_6 * k6d + a13_7 * k7d + a13_8 * k8d + a13_9 * k9d + a13_10 * k10d
            + a13_11 * k11d + a13_12 * f_new
        )
        k13d = f(
            t + c13 * h,
            v + h * (
                a13_0 * dv + a13_6 * k6v + a13_7 * k7v + a13_8 * k8v + a13_9 * k9v
                + a13_10 * k10v + a13_11 * k11v + a13_12 * dv_new
            ),
            k13v,
        )
        k14v = dv + h * (
            a14_0 * fv + a14_5 * k5d + a14_6 * k6d + a14_7 * k7d + a14_10 * k10d
            + a14_11 * k11d + a14_12 * f_new + a14_13 * k13d
        )
        k14d = f(
            t + c14 * h,
            v + h * (
                a14_0 * dv + a14_5 * k5v + a14_6 * k6v + a14_7 * k7v + a14_10 * k10v
                + a14_11 * k11v + a14_12 * dv_new + a14_13 * k13v
            ),
            k14v,
        )
        k15v = dv + h * (
            a15_0 * fv + a15_5 * k5d + a15_6 * k6d + a15_7 * k7d + a15_8 * k8d
            + a15_12 * f_new + a15_13 * k13d + a15_14 * k14d
        )
        k15d = f(
            t + c15 * h,
            v + h * (
                a15_0 * dv + a15_5 * k5v + a15_6 * k6v + a15_7 * k7v + a15_8 * k8v
                + a15_12 * dv_new + a15_13 * k13v + a15_14 * k14v
            ),
            k15v,
        )
        t_append(t_new)
        v_append(v_new)
        dv_append(dv_new)
        h_append(h)
        k_extend((
            dv, k1v, k2v, k3v, k4v, k5v, k6v, k7v, k8v, k9v, k10v, k11v, dv_new, k13v, k14v, k15v,
            fv, k1d, k2d, k3d, k4d, k5d, k6d, k7d, k8d, k9d, k10d, k11d, f_new, k13d, k14d, k15d,
        ))
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

    return _trajectory(status, ts, vs, dvs, hs, ks, _P853, event)


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


def _sorted_union(parts) -> np.ndarray:
    """np.union1d over several arrays, bit for bit, without np.unique: in
    numpy 2.4 np.unique calls np.ma.is_masked, so its first call imports
    numpy.ma, about 11 ms of every fresh process that solves a profile."""
    grid = np.sort(np.concatenate(parts))
    return grid[np.append(True, grid[1:] != grid[:-1])]


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
    length = _length_scale(params)
    if r0_scale * length >= r_max:
        raise ValueError(f"r0 = {r0_scale * length!r} must be below r_max = {r_max!r}")
    # the eta = 1 problem, in r / length and v / eta
    n, m, alpha, beta = params.n, params.m, params.alpha, params.beta
    r_stop, tol = r_max / length, atol / eta
    log_tail = alpha > 0.0 and beta > 0.0 and 1.0 < r_stop
    pressure = _blowup_regime(params)
    switch = PRESSURE_SWITCH if pressure else BLOWUP_CAP
    traj = _dopri5(
        _power_pp(n, m, alpha, beta, 1.0),
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
            tail = _log_kernel(params)(
                _log_wpp(params), 0.0, start, math.log(r_stop), log_tol, log_tol
            )
            code = tail.status
            r_tail = np.exp(tail.t[1:])
            if code == 0:
                r_tail[-1] = r_stop
            steps = np.concatenate((steps, r_tail))
            v_end, dv_end = map(float, _from_log(m, steps[-1], *tail.y[:, -1]))
    elif pressure and code == 1:
        # from the last accepted step below the switch, not the event root
        r_h, gamma = float(steps[-2]), m - 1.0
        p_h, dp_h = _to_power(gamma, *traj.y[:, -2].tolist())
        cap = BLOWUP_CAP**gamma
        tail = _dopri5(
            _power_pp(n, m, alpha, beta, gamma),
            r_h,
            (p_h, dp_h),
            r_stop,
            rtol,
            tol * p_h,
            lambda P, dP: cap - P,
        )
        code = tail.status
        steps = np.concatenate((steps[:-1], tail.t[1:]))
        v_end, dv_end = map(float, _from_power(gamma, *tail.y[:, -1]))

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

    lattices = [steps, _refinement(r0_scale, r_end)]
    if tail is not None and not log_tail:
        # the pressure phase's steps shrink with r* - r; so does this fill
        lattices.append(r_end - _refinement(r_end - tail.t[-2], r_end - r_h)[1:-1])
    grid = _sorted_union(lattices)
    if tail is None:
        v, dv = traj(grid)
    else:
        head = int(np.searchsorted(grid, r_h, side="right"))
        r = grid[head:]
        fill = _from_log(m, r, *tail(np.log(r))) if log_tail else _from_power(gamma, *tail(r))
        v, dv = np.concatenate((traj(grid[:head]), fill), axis=1)

    # defensive: truncate anything past a positivity loss
    bad = np.flatnonzero(v <= 0.0)
    if bad.size:
        cut = bad[0]
        if cut < 10:
            raise RuntimeError("profile lost positivity immediately; inspect parameters")
        grid, v, dv = grid[:cut], v[:cut], dv[:cut]
        status = ProfileStatus("StepFailure", float(length * grid[-1]))

    fill = np.ones(len(grid), dtype=bool)
    fill[np.searchsorted(grid, steps[steps <= grid[-1]])] = False
    r = length * grid
    r[-1] = status.radius  # r_max / length * length can miss r_max by an ulp
    # a fill radius an ulp from an accepted step can round onto the step's
    # float in r: keep a fill point only where r rises on both sides of it
    rises = np.diff(r) > 0.0
    keep = np.concatenate(([True], rises[:-1] & rises[1:], [True])) | ~fill
    v, dv, step_indices = eta * v[keep], eta / length * dv[keep], np.flatnonzero(~fill[keep])
    return RadialProfile(params, r[keep], v, dv, status, rtol, atol, step_indices)


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
    by |alpha v| + |beta r v'| plus a small floor.  Two kinds of profile are
    read elsewhere past the core r = l = eta^((m-1)/2):

      * a log tail on _dop853 (_log_kernel) at its refinement lattice points,
        not at its steps, which lie 4-7x farther apart than _dopri5's, so
        that the quintic through three of them is truncation-limited (C8's
        n = 3 and n = 5 profiles read 7.8e-5 and 2.2e-5 at the steps, 6.0e-8
        and 1.0e-8 at the lattice).  Its steps are then checked by the
        integral identity only.
      * a BlowUp profile in the blow-up regime, from l, or from the pressure
        handoff (the last step point below PRESSURE_SWITCH * eta) if that
        comes first, in P = v^-(1-m): P'' from the quintic through (P, P')
        against the gamma = m - 1 equation, normalised by the sum of its terms'
        magnitudes (_pressure_terms).  In v the pressure phase's last steps,
        across which v grows by orders of magnitude, read 5.7e8 and 4.1e10
        on the n=3, m=0.2, beta=-1, alpha=-1 or -4 blow-ups of the test
        suite; in P they read at most 3.0e-8 and 2.7e-8, and the r-form's
        steps past l, at 1.6e-8 or less, where in v they read up to 1.0e-5.
        Those profiles read 8.2e-8 and 4.0e-7, at r-form steps near r0.

    The integral defect tests

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
    length, points = _length_scale(p), si
    if _log_kernel(p) is _dop853:
        # the r-form's steps up to l, then the tail's lattice points
        lattice = np.ones(len(r), dtype=bool)
        lattice[si] = False
        points = np.concatenate((si[r[si] <= length], np.flatnonzero(lattice & (r > length))))
    rs, vs, dvs, vpp_ode = r[points], v[points], dv[points], vpp[points]
    # where v is flat to roundoff across a triple the closed form cancels
    # catastrophically; there dv still has full relative precision and the
    # local steps are tiny, so differentiate dv by the quadratic instead
    triples = np.lib.stride_tricks.sliding_window_view(vs, 3)
    span = (triples.max(axis=1) - triples.min(axis=1)) / np.abs(triples).max(axis=1)
    flat = np.pad(span, 1, mode="edge") < 1e-9
    vpp_data = np.where(flat, np.gradient(dvs, rs, edge_order=2), _quintic_vpp(rs, vs, dvs))
    floor = 1e-3 * p.eta * max(1.0, abs(alpha) + abs(beta))
    den = np.abs(alpha * vs) + np.abs(beta * rs * dvs) + floor
    defect = np.abs(vpp_data - vpp_ode) / den
    if profile.status.kind == "BlowUp" and _blowup_regime(p):
        # past the core r = l, or from the pressure handoff (the last step
        # point below the switch) if that comes first, in P = v^-(1-m)
        handoff = np.flatnonzero(vs < PRESSURE_SWITCH * p.eta)[-1]
        k = min(int(np.count_nonzero(rs <= length)), int(handoff))
        P, dP = _to_power(m - 1.0, vs, dvs)
        terms = _pressure_terms(p, rs, P, dP)
        in_p = np.abs(_quintic_vpp(rs, P, dP) - terms.sum(axis=0)) / np.abs(terms).sum(axis=0)
        defect = np.concatenate((defect[:k], in_p[k:]))
    max_ode = float(np.max(defect))

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


def _fields(record) -> dict:
    """A dataclass of plain values as a dict, one level deep: asdict would
    deep-copy every value."""
    return {f.name: getattr(record, f.name) for f in fields(record)}


def _write_sidecar(profile: RadialProfile, path, **extra) -> None:
    """JSON sidecar: the profile's params, status, rtol, atol, grid_points,
    as one line of compact JSON with sorted keys.  json.dumps with no indent
    runs on the C encoder; an indent, or json.dump to a file, runs the
    pure-Python one."""
    doc = {
        "params": _fields(profile.params),
        "status": _fields(profile.status),
        "rtol": profile.rtol,
        "atol": profile.atol,
        "grid_points": len(profile.r),
        **extra,
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")


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
    when the CSV header is not r,v,dv, the row count is not grid_points, a
    row is not three columns wide or v or v' is not finite; or when the
    step indices are not integers that start at 0, increase strictly and
    stay on the grid."""
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
    if data.shape != (grid_points, 3):
        raise ValueError(f"CSV has {len(data)} rows of {data.shape[1]} columns, "
                         f"expected grid_points = {grid_points} rows of 3")
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
