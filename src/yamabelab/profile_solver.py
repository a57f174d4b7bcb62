"""Adaptive integration of the radial profile equation.

The second-order equation is integrated in y = v^gamma (_power_pp), gamma != 0,

    y'' = (1 - m/gamma) y'^2/y - (n-1) y'/r
          - (gamma alpha y + beta r y') y^((1-m)/gamma) / (n-1),

with state (y, y').  The r-form is gamma = 1, y = v.  The origin is a
regular singular point where the profile is even and analytic, so the r-form
starts from the origin series v = sum c_k r^(2k), its coefficients by
recurrence (_series) and summed to _SERIES_TERMS terms, at r0: by default
the largest radius up to l / 2, l = eta^((m-1)/2), at which the terms the
series drops stay within _SERIES_TOL_FACTOR * rtol (_series_reach), so r0
scales like |(alpha, beta)|^(-1/2); below r0 a profile reads the series.
Every run solves the eta = 1 problem in r / l and v / eta and scales it
back: eta is an exact gauge, so runs that differ only in eta take the same
steps.

Two scalar Runge-Kutta pairs take the steps on plain floats, with scipy's
initial step, error norm and controller, a 10 ulp(r) minimum step, at most
STEP_BUDGET accepted steps and one terminal event: _dopri5 (Dormand-Prince
5(4), scipy's RK45) on the r-form, the pressure phase and expanding log
tails, whose steps must resolve geometry's K0 quadrature; _dop853
(Prince-Dormand 8(5,3), scipy's DOP853) on log tails that do not grow
(_log_kernel).  Both run one step-loop template (_LOOP), filled in from the
method's tableau (_Method) and generated once per (method, equation) on
first use (_loop_source).  Each right side has one home, a template with
named constants (_Equation); the generated stages write it out, so no stage
pays a Python call, and a plain callable gets the same loop with stages
that call it: the two take the same steps to the bit.  The kernels keep no
dense output: each accepted step records (r, y, y', h, y''), y'' its last
stage.  A run is read between its steps (_fill), a stored profile between
its grid points (value_at), both by _read_at, and an event's root found
(_bracketed_root), by one rule in the run's own variable (_read): y''' and
up from the equation once per knot (_chain), then at each point one set of
two-point Hermite basis weights (_end) that y and y' share.

The r-form runs from r0 up to the cap v = 1e12 (BLOWUP_CAP).  Two kinds of
run hand it over at its last point r_h (in the units of the eta = 1 problem):

  * alpha > 0, beta > 0, when r0 < l < r_max: at r_h = l the autonomous
    equation of W = log w, w = r^2 v^(1-m), in s = log r (_log_wpp, any m)
    carries the tail to log r_max at LOG_TOL_FACTOR * rtol.  The paper's
    limits are statements in s, and its power-law tails are smooth there.
    Just past the core W_s = 2 + (1-m) r v'/v is close to 2, and relative
    control of W_s loses r v'/v: that sets both r_h = l and the tolerance.
    The r-form of such a run, from r0 <= l / 2 to l, runs at the same
    tolerance: from l / 2 at rtol its error reached the PDE check's central
    differences (C8's step-halving order read 1.9999 on the expanding
    reference).
  * alpha < 0, beta <= 0 (Theorem 1's blow-up regime): near the blow-up
    radius v ~ (R_b - r)^(-1/(1-m)) holds the r-form's steps in proportion
    to the distance left, while P = v^-(1-m) goes smoothly to zero.  So from
    the r-form's event root v = PRESSURE_SWITCH, r_h, the same equation at
    gamma = m - 1, in P, runs at atol times P there to the event
    P = BLOWUP_CAP^gamma: r* is still where v reaches the cap.  Its part of
    the grid adds points log-uniform in r* - r, as its steps shrink with it.

Every other run (touch-down alpha > 0 > beta; alpha < 0 < beta; beta = 0
with alpha >= 0; a series start at or past l) is the r-form alone.  The
stored grid is the union of every phase's accepted steps and, past r0, a
log-uniform refinement at POINTS_PER_DECADE from 1e-6 l, each phase filled
from its own steps (_fill).  value_at reads it as the r-form's steps are
read, from one chain (v, v', v'', v''') per profile, which also gives the
identity checks their v'' (_hermite_ends, the quintic Hermite rule); the
pointwise check takes v'' from the quintic through three points
(_quintic_vpp).  Runs end in one of three statuses:

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
from dataclasses import dataclass, fields
from functools import cache, cached_property, lru_cache, partial
from struct import Struct
from typing import Callable, NamedTuple

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
# the origin series is summed to _SERIES_TERMS terms, and a run starts where
# the terms it drops are at most _SERIES_TOL_FACTOR * rtol of eta
_SERIES_TERMS = 16
_SERIES_TOL_FACTOR = 1e-3
# the refinement lattice runs from this radius (in units of l) or from the
# start, whichever is smaller, and is stored past the start only
_LATTICE_ANCHOR = 1e-6
# refinement density of the stored grid.  With the quintic value_at and the
# quintic Hermite rule, 100 points per decade hold the integral defect and
# the K0 gap of the reference runs within 1.4% of 200 per decade, and keep
# the step-halving order of pde_residual above 2
POINTS_PER_DECADE = 100
# alpha, beta > 0 runs hand the r-form over to the log-radius equation at
# r_h = l = eta^((m-1)/2); both run at LOG_TOL_FACTOR * rtol, the tail as
# rtol and atol alike
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
    integrator steps; points between them were filled from the steps of
    their phase (_fill).  The constructor checks the shape: 1-D r, v and v'
    of one length, at least 2; r finite, positive and strictly increasing,
    v positive, v' finite; integer step indices that start at 0, rise
    strictly and stay on the grid.  The arrays are the profile's own
    read-only copies; q, w and the r-form chain on the grid are computed
    once, on first access, and nothing else is stored after construction.
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
        r, v, dv = (np.array(a, dtype=float) for a in (r, v, dv))  # copies, frozen below
        steps = np.asarray(step_indices)
        if r.ndim != 1 or v.shape != r.shape or dv.shape != r.shape or len(r) < 2:
            raise ValueError("r, v and v' must be 1-D arrays of one length, at least 2")
        # with strict increase, a positive first and a finite last radius
        # make every radius positive and finite
        if not (r[0] > 0.0 and math.isfinite(r[-1])):
            raise ValueError("grid radii must be positive and finite")
        if not np.all(np.diff(r) > 0.0):
            raise ValueError("grid radii must be strictly increasing")
        if not np.all(v > 0.0):
            raise ValueError("profile values must stay positive")
        if not (np.isfinite(v).all() and np.isfinite(dv).all()):
            raise ValueError("profile values and derivatives must be finite")
        if steps.ndim != 1 or (steps.size and steps.dtype.kind not in "iu"):
            raise ValueError("step_indices must be a 1-D array of integers")
        if steps.size == 0 or steps[0] != 0:
            raise ValueError("step_indices must start at 0")
        if np.any(np.diff(steps) <= 0):
            raise ValueError("step_indices must be strictly increasing")
        if steps[-1] >= len(r):
            raise ValueError("step_indices fall outside the grid")
        self.params = params
        self.r = _frozen(r)
        self.v = _frozen(v)
        self.dv = _frozen(dv)
        self.status = status
        self.rtol = float(rtol)
        self.atol = float(atol)
        self.step_indices = _frozen(steps.astype(int))

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

    @cached_property
    def _rform_chain(self) -> np.ndarray:
        """(v, v', v'', v''') on the grid, v'' and v''' from the profile
        equation (_chain), computed on first access."""
        p, r, v, dv = self.params, self.r, self.v, self.dv
        rform = _power_pp(p.n, p.m, p.alpha, p.beta, 1.0)
        a, alpha, e, n1, beta = rform.values
        vpp = a * dv * dv / v - n1 * dv / r - (alpha * v + beta * r * dv) * v**e / n1
        return _frozen(np.array(_chain(rform, r, v, dv, vpp)))

    def value_at(self, radius, derivative: bool = False):
        """v, or (v, v') with derivative=True, at any radii: the origin series
        below r0, elsewhere the stored (v, v') read as r-form steps (_read_at)
        from the chain at the two grid points around each radius, so v' never
        divides differences of v by the knot spacing and a grid point reads
        its own (v, v').  Negative, non-finite and past-the-grid radii raise."""
        radius = np.asarray(radius, dtype=float)
        if not np.all(np.isfinite(radius)):
            raise ValueError("radius must be finite")
        if np.any(radius > self.r[-1] * (1.0 + 1e-12)):
            raise ValueError(f"radius beyond profile grid end {self.r[-1]!r}; no extrapolation")
        if np.any(radius < 0.0):
            raise ValueError("radius must be nonnegative")
        r = self.r
        v, dv = _read_at(r, self._rform_chain, np.clip(radius, r[0], r[-1]))
        small = radius < r[0]
        if small.any():
            v[small], dv[small] = _series_at(self.params, _series(self.params), radius[small])
        if not derivative:
            return float(v) if v.ndim == 0 else v
        if v.ndim == 0:
            return float(v), float(dv)
        return v, dv


def _frozen(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _end(K: int, x, far, d, start: int = 0) -> list:
    """The weights of one end's y^(j), j = start .. K - 1, at points of
    intervals of length h: with x and far = 1 - x the points' distances from
    this end and from the other in units of h, and d their offset from this
    end, (d^j / j!) far^K S_j(x), where S_j holds the first K - j terms of
    (1 - x)^-K = sum_i binom(K - 1 + i, i) x^i.  Plain arithmetic, so it
    takes floats and arrays alike, and an array's entries do not depend on
    its size."""
    sums = [1.0]  # S_(K-1) down to S_start
    for i in range(1, K - start):
        power = x if i == 1 else power * x
        sums.append(sums[-1] + math.comb(K - 1 + i, i) * power)
    scale = far  # far^K d^j / j!
    for _ in range(K - 1):
        scale = scale * far
    weights = []
    for j in range(K):
        if j >= start:
            weights.append(scale if j == K - 1 else scale * sums[K - 1 - j])
        if j < K - 1:
            scale = scale * d if j == 0 else scale * d / (j + 1)
    return weights


def _read(chain, h, s):
    """(y, y') at offsets s on intervals of length h: value_at's rule.  chain
    is (y, y', y'', ..) at the intervals' ends, K + 1 items, each indexed [0]
    at the left end and [1] at the right; y is the two-point Hermite of
    degree 2K - 1 through the first K of them, y' the one through the last
    K.  Both are read through one set of basis weights (_end), as the left
    end's value plus a sum in a fixed order, with y1 - y0 in place of y1 (the
    left end's y0 has weight 1 - that of y1): exact at the left end and on a
    constant, and a point reads the same bits in a call of any size.
    Quintics in the profile equation, which gives y''', nonics in the
    log-radius form, cubics for a plain callable."""
    K, t = len(chain) - 1, s / h
    u = 1.0 - t
    right = _end(K, u, t, s - h)
    weights = [w for pair in zip(_end(K, t, u, s, 1), right[1:]) for w in pair]

    def hermite(c):
        total = right[0] * (c[0][1] - c[0][0])
        for w, end in zip(weights, (end for d in c[1:] for end in d)):
            total = total + w * end
        return c[0][0] + total

    return hermite(chain[:K]), hermite(chain[1:])


def _chain(f, t, y, dy, ypp) -> tuple:
    """(y, y', y'', ..) at knots (t, y, y', y''): the higher derivatives from
    f's equation (f.derivatives), none for a plain callable."""
    return (y, dy, ypp, *getattr(f, "derivatives", lambda *knots: ())(t, y, dy, ypp))


def _read_at(t: np.ndarray, chain: np.ndarray, x):
    """(y, y') at the points x of [t[0], t[-1]] from chain, (y, y', y'', ..)
    on the knots t: each read (_read) on the interval of t that holds it.  A
    knot reads its state to the bit."""
    i = np.searchsorted(t[1:-1], x, side="right")
    k = np.stack((i, i + 1))
    tk = t[k]
    h, s = tk[1] - tk[0], x - tk[0]
    chain = chain[:, k]
    y, dy = _read(chain, h, s)
    end = s == h  # the last knot, at the right end of its interval
    return np.where(end, chain[0, 1], y), np.where(end, chain[1, 1], dy)


def _fill(f, traj, x):
    """(y, y') of a run of the right side f at the points x of [t[0], t[-1]],
    read (_read_at) from the run's chain (_chain), taken once per step point."""
    return _read_at(traj.t, np.array(_chain(f, traj.t, *traj.y, traj.ypp)), x)


def _w(m: float, r, v):
    """w = r^2 v^(1-m) at scalar or array (r, v)."""
    return r * r * v ** (1.0 - m)


@lru_cache(maxsize=256)
def _series(params: SolitonParams) -> tuple[float, ...]:
    """The coefficients C_0 .. C_(_SERIES_TERMS + 1) of the origin series of
    the eta = 1 problem, v = sum C_k x^k in x = (r / l)^2: the profile is
    even and analytic at 0, with C_0 = 1.  Written as a divergence,
    (n-1)/m Lap(v^m) = -(alpha v + beta r v'), the equation gives the
    coefficients of u = v^m one order up, u_(k+1) = -m (alpha + 2k beta)
    C_k / ((n-1)(2k+2)(2k+n)), and J.C.P. Miller's recurrence for a power of
    a power series (Knuth, TAOCP vol. 2, 4.7) takes u to C = u^(1/m):
    C_(k+1) = sum_(j=1..k+1) ((1/m + 1) j - k - 1) u_j C_(k+1-j) / (k+1).
    The last two are the first terms the series drops.  Coefficients that
    overflow raise ValueError.  Cached per params: a run and every reader of
    its profile below r0 share one set."""
    n, m, alpha, beta = params.n, params.m, params.alpha, params.beta
    c, u, power = [1.0], [1.0], 1.0 / m + 1.0
    for k in range(_SERIES_TERMS + 1):
        u.append(-m * (alpha + 2 * k * beta) * c[k] / ((n - 1) * (2 * k + 2) * (2 * k + n)))
        total = 0.0
        for j in range(1, k + 2):
            total += (power * j - k - 1) * u[j] * c[k + 1 - j]
        c.append(total / (k + 1))
    if not all(map(math.isfinite, c)):
        raise ValueError(f"the origin series overflows at alpha = {alpha!r}, beta = {beta!r}")
    return tuple(c)


def _series_reach(c: tuple[float, ...], rtol: float) -> float:
    """The largest r / l at which each term the series drops, k = _SERIES_TERMS
    and the next, is at most _SERIES_TOL_FACTOR * rtol (of eta) in r v', so
    also in v: 2k |C_k| x^k <= tol, in closed form.  Where both vanish
    (alpha = 0: v = eta exactly) it is infinite."""
    tol = _SERIES_TOL_FACTOR * rtol
    dropped = (_SERIES_TERMS, _SERIES_TERMS + 1)
    return min([(tol / (2 * k * abs(c[k]))) ** (0.5 / k) for k in dropped if c[k]], default=math.inf)


def _series_at(params: SolitonParams, c: tuple[float, ...], r):
    """(v, v') of the origin series c (_series) at radii r, summed to
    _SERIES_TERMS terms in x = (r / l)^2 by Horner's rule, which carries the
    sum's x-derivative along; at r = 0 exactly (eta, 0).  r is a float or
    an array, and a float stays a float: numpy scalars made the start 40x
    slower (75 against 1.8 us)."""
    length = _length_scale(params)
    rho = r / length
    x = rho * rho
    v, dv = c[_SERIES_TERMS - 1], 0.0
    for a in c[_SERIES_TERMS - 2 :: -1]:
        dv *= x
        dv += v
        v *= x
        v += a
    return params.eta * v, 2.0 * params.eta / length * rho * dv


def series_start(params: SolitonParams, r0: float) -> tuple[float, float]:
    """(v, v') at r0 > 0 from the origin series (_series), summed to
    _SERIES_TERMS terms.  Within the series' reach (_series_reach) the first
    dropped term is at most _SERIES_TOL_FACTOR * rtol of eta, in v and in
    r v'."""
    if not (r0 > 0.0):
        raise ValueError(f"r0 must be positive, got {r0!r}")
    return _series_at(params, _series(params), float(r0))


class _Equation(NamedTuple):
    """A right side y'' = f(r, y, y') as source, its one home: statements
    over the argument names (_ for one it does not read) and the named
    constants, the last of them an expression whose value is y''.  _rhs
    makes the function that evaluates it, and the generated step loops write
    the same statements, in the same order, into every stage.
    derivatives(values, r, y, y', y'') gives y''' and the higher derivatives
    from the equation on arrays, as many as its runs are read with (_read)."""

    name: str
    args: tuple[str, str, str]
    constants: tuple[str, ...]
    body: tuple[str, ...]
    derivatives: Callable


def _power_yppp(values, r, y, dy, ypp):
    """(y''',) of the profile equation in y = v^gamma at _POWER's constants
    (a, ga, e, n1, beta), on arrays of (r, y, y', y''): its right side
    differentiated along the solution."""
    a, ga, e, n1, beta = values
    d = dy / y
    source = (ga * (1.0 + e) + beta) * dy + beta * r * (e * dy * d + ypp)
    return (n1 * (dy / r - ypp) / r + a * d * (2.0 * ypp - dy * d) - y**e * source / n1,)


def _log_derivatives(values, s, W, Ws, Wpp):
    """(W''', W'''', W''''') of the log-radius equation W'' = k d^2 - n2 d
    - E g, d = W_s - 2, g = c + beta W_s, E = e^W inv_n1, at _LOG's constants,
    on arrays of (s, W, W_s, W''), differentiated along the solution."""
    k, n2, c, beta, inv_n1 = values
    g, E, lin = c + beta * Ws, np.exp(W) * inv_n1, 2.0 * k * (Ws - 2.0) - n2
    gb = g + beta * Ws
    g1 = Ws * g + beta * Wpp  # (E g)' / E, as (E G)' = E (W_s G + G')
    W3 = lin * Wpp - E * g1
    dg1 = Wpp * gb + beta * W3
    g2 = Ws * g1 + dg1  # (E g1)' / E
    W4 = 2.0 * k * Wpp * Wpp + lin * W3 - E * g2
    dg2 = Wpp * g1 + Ws * dg1 + W3 * gb + beta * (2.0 * Wpp * Wpp + W4)
    return W3, W4, 6.0 * k * Wpp * W3 + lin * W4 - E * (Ws * g2 + dg2)


# the profile equation in y = v^gamma.  At y <= 0 it is NaN, which makes the
# error norm NaN, so the trial step is rejected instead of taking a complex power
_POWER = _Equation("power", ("r", "y", "dy"), ("a", "ga", "e", "n1", "beta"), (
    "nan if y <= 0.0 else a * dy * dy / y - n1 * dy / r - (ga * y + beta * r * dy) * y**e / n1",
), _power_yppp)
# the log-radius equation in W = log w~, s = log r (_log_wpp)
_LOG = _Equation("log", ("_", "W", "Ws"), ("k", "n2", "c", "beta", "inv_n1"), (
    "d = Ws - 2.0",
    "k * (d * d) - n2 * d - exp(W) * (c + beta * Ws) * inv_n1",
), _log_derivatives)


def _rhs(equation: _Equation, *values):
    """equation's right side as a function of its three arguments, at these
    values of its constants; it carries equation and values, so a kernel can
    write it into its stages."""

    def source():
        return "\n".join([
            f"def make({', '.join(equation.constants)}):",
            "    exp, nan = math.exp, math.nan",
            f"    def f({', '.join(equation.args)}):",
            *("        " + line for line in equation.body[:-1]),
            f"        return {equation.body[-1]}",
            "    return f",
        ])

    f = _generated(equation.name, source)(*values)
    f.equation, f.values = equation, values
    f.derivatives = partial(equation.derivatives, values)
    return f


def _power_pp(n: int, m: float, alpha: float, beta: float, gamma: float):
    """y'' of the profile equation in y = v^gamma (the module docstring's
    form) as a function of (r, y, y').  At gamma = 1 the folded constants are
    1 - m, alpha and 1 - m to the bit; n - 1 is exact as a float."""
    return _rhs(_POWER, 1.0 - m / gamma, gamma * alpha, (1.0 - m) / gamma, float(n - 1), beta)


def _pressure_terms(params: SolitonParams, r, P, dP) -> np.ndarray:
    """The four terms of the pressure equation, _power_pp at gamma = m - 1,
    on arrays of (r, P, P'), stacked along the first axis: P'^2/((1-m) P),
    -beta r P'/((n-1) P), -(n-1) P'/r and (1-m) alpha/(n-1)."""
    one_m, n1 = 1.0 - params.m, params.n - 1
    source = np.full_like(P, one_m * params.alpha / n1)
    return np.stack((dP * dP / (one_m * P), -params.beta * r * dP / (n1 * P), -n1 * dP / r, source))


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
    (1-m) r^2 v^(1-m) (alpha + beta r v'/v), c = _log_c(params).  -m/(1-m)
    and 1/(n-1) are folded, so each stage multiplies."""
    n, m = params.n, params.m
    return _rhs(_LOG, -m / (1.0 - m), float(n - 2), _log_c(params), params.beta, 1.0 / (n - 1))


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


def _sparse(shape, rows) -> np.ndarray:
    """An array of the given shape from {row: {column: value}}, its nonzero entries."""
    a = np.zeros(shape)
    for i, row in rows.items():
        a[i, list(row)] = list(row.values())
    return a


class _Method(NamedTuple):
    """An explicit Runge-Kutta pair as _loop_source reads it.  Stage 0 is f
    at the step's start; the last row of a holds the weights b, and the last
    stage is f at the new point, y'' there, which the next step reuses and
    the step record keeps.  error sets err from sums {key}v, {key}d of the
    stages' y' and f parts under weights[key]; order is the error
    estimator's (the exponent is -1/(order + 1))."""

    name: str
    a: np.ndarray
    c: np.ndarray
    order: int
    error: str
    weights: dict


# Dormand & Prince (1980) 5(4) pair with the error norm of scipy.integrate.RK45
# (Hairer, Norsett & Wanner, Solving ODEs I, II.4-II.6)
_DOPRI5 = _Method(
    "dopri5",
    _sparse((7, 7), {
        1: {0: 1 / 5},
        2: {0: 3 / 40, 1: 9 / 40},
        3: {0: 44 / 45, 1: -56 / 15, 2: 32 / 9},
        4: {0: 19372 / 6561, 1: -25360 / 2187, 2: 64448 / 6561, 3: -212 / 729},
        5: {0: 9017 / 3168, 1: -355 / 33, 2: 46732 / 5247, 3: 49 / 176, 4: -5103 / 18656},
        6: {0: 35 / 384, 2: 500 / 1113, 3: 125 / 192, 4: -2187 / 6784, 5: 11 / 84},
    }),
    np.array([0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1, 1]),
    4,
    """ev = h * ({ev}) / sv
ed = h * ({ed}) / sd
err = sqrt(ev * ev + ed * ed) / 1.4142135623730951""",
    {"e": np.array([-71 / 57600, 0, 71 / 16695, -71 / 1920, 17253 / 339200, -22 / 525, 1 / 40])},
)

# Prince & Dormand's (1981) 8(5,3) pair as scipy.integrate.DOP853 holds it
# (Hairer, Norsett & Wanner, Solving ODEs I, II.10)
_A853 = _sparse((13, 13), {
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
})
_E5_853 = np.array([
    0.01312004499419488, 0, 0, 0, 0, -1.2251564463762044, -0.4957589496572502, 1.6643771824549864,
    -0.35032884874997366, 0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0,
])
_E3_853 = np.append(_A853[12, :12], 0.0)
_E3_853[[0, 8, 11]] -= (0.2440944881889764, 0.7338466882816118, 0.022058823529411766)
_DOP853 = _Method(
    "dop853",
    _A853,
    np.array([
        0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274, 0.2816496580927726,
        0.3333333333333333, 0.25, 0.3076923076923077, 0.6512820512820513, 0.6, 0.8571428571428571,
        1.0, 1.0,
    ]),
    7,
    # scipy's h |e5|^2 / sqrt((|e5|^2 + 0.01 |e3|^2) N) over the scaled fifth-
    # and third-order estimates of the N = 2 components
    """e5v = ({e5v}) / sv
e5d = ({e5d}) / sd
e3v = ({e3v}) / sv
e3d = ({e3d}) / sd
n5 = e5v * e5v + e5d * e5d
n3 = e3v * e3v + e3d * e3d
err = 0.0 if n5 == 0.0 and n3 == 0.0 else h * n5 / sqrt((n5 + 0.01 * n3) * 2.0)""",
    {"e5": _E5_853, "e3": _E3_853},
)

# The step loop of every method and right side, with scipy's controller (safety
# 0.9, factors in [0.2, 10], at most 1 after a rejection); _loop_source fills in
# the stages, the error norm and the event check (_EVENT) of a run that has an
# event.  Each accepted step records (t, y, y', h, y'') at its new point, y''
# the last stage
_LOOP = """def loop(f, event, t, v, dv, fv, g, h_abs, r_end, rtol, atol{constants}):
    sqrt, ulp, exp, nan, budget = math.sqrt, math.ulp, math.exp, math.nan, STEP_BUDGET
    record, pack = bytearray(), Struct("5d").pack
    steps, av, adv = 0, abs(v), abs(dv)
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
            h_abs = h{stages}
            # the scales use max(|y|, |y_new|), which is |y| when y_new is NaN
            av_new = -v_new if v_new < 0.0 else v_new
            adv_new = -dv_new if dv_new < 0.0 else dv_new
            sv = atol + (av_new if av_new > av else av) * rtol
            sd = atol + (adv_new if adv_new > adv else adv) * rtol{error}
            if err < 1.0:
                factor = 10.0 if err == 0.0 else 0.9 * err ** {exponent!r}
                if factor > 10.0:
                    factor = 10.0
                if rejected and factor > 1.0:
                    factor = 1.0
                h_abs *= factor
                break
            # a NaN error norm (a stage where y'' is NaN) shrinks by 0.2
            factor = 0.9 * err ** {exponent!r}
            h_abs *= factor if factor > 0.2 else 0.2
            rejected = True
        else:
            status = -1
            break
        record += pack(t_new, v_new, dv_new, h, f_new)
        steps += 1{event}
        if t_new >= r_end:
            status = 0
            break
        if steps >= budget:
            status = -2
            break
        t, v, dv, fv, av, adv = t_new, v_new, dv_new, f_new, av_new, adv_new
    return status, record
"""
# the event check of a loop that has one
_EVENT = """g_new = event(v_new, dv_new)
if g <= 0.0 <= g_new:
    status = 1
    break
g = g_new"""


def _weighted(weights: np.ndarray, names) -> str:
    """sum_j weights[j] * names[j] over the nonzero weights, in stage order."""
    terms = [f"{w!r} * {name}" for w, name in zip(weights.tolist(), names) if w != 0.0]
    return " + ".join(terms).replace(" + -", " - ")


def _apply(equation: _Equation | None, args, out: str) -> list[str]:
    """Statements that set out to the right side at the argument expressions:
    a call of f, or the equation's body with its arguments bound (all but
    those it names _, which it does not read)."""
    if equation is None:
        return [f"{out} = f({', '.join(args)})"]
    bind = [f"{name} = {x}" for name, x in zip(equation.args, args) if name != "_"]
    return [*bind, *equation.body[:-1], f"{out} = {equation.body[-1]}"]


def _loop_source(method: _Method, equation: _Equation | None, event: bool) -> str:
    """The step loop of method, its stages calling f (equation None) or
    writing out equation's body, with the event check if event."""
    a, c, last = method.a, method.c.tolist(), len(method.a) - 1
    names = [(f"k{i}v", f"k{i}d") for i in range(len(a))]
    names[0], names[last] = ("dv", "fv"), ("dv_new", "f_new")
    ys, fs = zip(*names)

    def stage(i):
        head, r, y = [], f"t + {c[i]!r} * h", f"v + h * ({_weighted(a[i], ys)})"
        if i == last:  # the new point: its v is kept
            head, r, y = [f"v_new = {y}"], "t + h", "v_new"
        dy = f"{ys[i]} = dv + h * ({_weighted(a[i], fs)})"
        return [*head, dy, *_apply(equation, (r, y, ys[i]), fs[i])]

    def block(lines, indent):
        return "".join("\n" + " " * indent + line for line in lines)

    sums = {}
    for key, w in method.weights.items():
        sums[key + "v"], sums[key + "d"] = _weighted(w, ys), _weighted(w, fs)
    return _LOOP.format(
        constants="".join(", " + name for name in equation.constants) if equation else "",
        stages=block([line for i in range(1, last + 1) for line in stage(i)], 12),
        error=block(method.error.format(**sums).splitlines(), 12),
        event=block(_EVENT.splitlines(), 8) if event else "",
        exponent=-1 / (method.order + 1),
    )


# the source of every generated function by name, added on first use
_GENERATED: dict[str, str] = {}
_COMPILED: dict = {}


def _generated(name: str, build):
    """The function that the source build() defines, generated and compiled
    once, on first use.  It runs in this module's globals, so a loop reads
    STEP_BUDGET as it is when the loop is called."""
    if name not in _COMPILED:
        _GENERATED[name] = source = build()
        namespace = {}
        exec(compile(source, f"<{name}>", "exec"), globals(), namespace)
        _COMPILED[name] = namespace.popitem()[1]
    return _COMPILED[name]


_EPS = float(np.finfo(float).eps)
_SQRT2 = 2**0.5


def _rms(a: float, b: float) -> float:
    # a * a, not a ** 2, which raises OverflowError on floats
    return math.sqrt(a * a + b * b) / _SQRT2


class _Trajectory(NamedTuple):
    """Accepted steps of a kernel run: radii t[i], states y[:, i] = (y, y')
    and y''[i] = ypp[i] from the equation; step i starts at t[i] and has
    size h[i].  _fill reads the run between them, from these knots and the
    higher derivatives _chain adds.  After an event, t[-1], y[:, -1] and
    ypp[-1] are the event's root, inside the last step."""

    status: int  # 0 reached r_end, 1 event fired, -1 step underflow, -2 over budget
    t: np.ndarray
    y: np.ndarray
    h: np.ndarray
    ypp: np.ndarray


def _bracketed_root(fun, a: float, b: float) -> float:
    """The end with the smaller |fun| of a bracket [a, b], fun(a) <= 0 <= fun(b),
    narrowed below 4 eps (1 + |b|), brentq's width at xtol = rtol = 4 eps.
    Each trial is the secant through the ends by the Illinois rule (an end
    kept twice in a row has its fun halved in the secant), held half that
    width inside the bracket so that a trial next to the root closes it, or
    the midpoint where the last two trials have not halved the bracket."""
    fa, fb = fun(a), fun(b)
    ga, gb, kept, widths = fa, fb, 0, [math.inf, math.inf]
    while fa != 0.0 and fb != 0.0 and b - a > (tol := 4 * _EPS * (1.0 + abs(b))):
        if b - a > 0.5 * widths[-2]:
            x = a + 0.5 * (b - a)
        else:  # a NaN secant takes the lower bound
            x = max(a + 0.5 * tol, min(a + (b - a) * (ga / (ga - gb)), b - 0.5 * tol))
        widths.append(b - a)
        fx = fun(x)
        if fx < 0.0:
            gb *= 0.5 if kept > 0 else 1.0
            a, fa, ga, kept = x, fx, fx, 1
        else:
            ga *= 0.5 if kept < 0 else 1.0
            b, fb, gb, kept = x, fx, fx, -1
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


def _trajectory(start, status, record, f, event) -> _Trajectory:
    """The _Trajectory of a kernel's accepted steps from start = (t, v, v',
    0, v''): record holds a row (t, v, v', h, v'') of floats per step.  After
    an event the last point is moved to the root on the last step, read as
    _fill reads it but in float arithmetic, and v'' there is f's."""
    rows = np.frombuffer(record).reshape(-1, 5)
    ends = np.column_stack((start, rows.T))
    traj = _Trajectory(status, ends[0], ends[1:3], ends[3, 1:], ends[4])
    if status == 1:
        # the last step's chain as lists of floats, so the root search is scalar
        t, y, dy, _, ypp = ends[:, -2:]
        (t_old, t_new), h = t.tolist(), float(t[1] - t[0])
        chain = [c.tolist() for c in _chain(f, t, y, dy, ypp)]

        def state(r):
            return _read(chain, h, r - t_old)

        root = _bracketed_root(lambda r: event(*state(r)), t_old, t_new)
        v, dv = state(root)
        traj.t[-1], traj.y[:, -1], traj.ypp[-1] = root, (v, dv), f(root, v, dv)
    return traj


def _integrate(method: _Method, f, r0, y0, r_end, rtol, atol, event=None):
    """Integrate v'' = f(r, v, v') from (v, v')(r0) = y0 towards r_end on
    method's generated loop (with f's equation in its stages if f carries
    one), taking scipy's steps with scipy's operations in scipy's order.
    Stops early when the terminal event(v, v'), if given, goes from <= 0 to
    >= 0 across an accepted step (its root on that step's Hermite), when the
    step size falls below 10 ulp(r), or after STEP_BUDGET accepted steps.  A
    run without an event runs a loop that has no event check.  The inputs go
    through float() once: numpy scalars made a step 3x slower."""
    r_end, atol = float(r_end), float(atol)
    rtol = max(float(rtol), 100 * _EPS)
    t = float(r0)
    v, dv = map(float, y0)
    fv = f(t, v, dv)
    g = event(v, dv) if event else -1.0
    h_abs = _initial_step(f, t, v, dv, fv, r_end, rtol, atol, method.order)
    equation = getattr(f, "equation", None)
    name = f"{method.name} {equation.name if equation else 'call'}{' event' if event else ''}"
    loop = _generated(name, lambda: _loop_source(method, equation, bool(event)))
    run = loop(f, event, t, v, dv, fv, g, h_abs, r_end, rtol, atol, *getattr(f, "values", ()))
    return _trajectory((t, v, dv, 0.0, fv), *run, f, event)


# Dormand-Prince 5(4) as scipy's RK45, Prince-Dormand 8(5,3) as its DOP853;
# each is called as (f, r0, y0, r_end, rtol, atol[, event])
_dopri5, _dop853 = partial(_integrate, _DOPRI5), partial(_integrate, _DOP853)


def _check_numerics(**values) -> None:
    """Reject a numeric setting that is not finite and positive (a None
    atol selects the default)."""
    for name, value in values.items():
        if value is not None and not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _refinement(lo: float, hi: float) -> np.ndarray:
    """np.geomspace(lo, hi) at POINTS_PER_DECADE, both ends included, bit
    for bit: its float operations on positive ends, written out, which
    skips its sign, complex and result_type handling."""
    num = max(int(np.ceil(max(np.log10(hi / lo), 1e-9) * POINTS_PER_DECADE)), 2)
    log_lo, log_hi = np.log10(lo), np.log10(hi)
    exponents = np.arange(num, dtype=float) * ((log_hi - log_lo) / (num - 1)) + log_lo
    exponents[-1] = log_hi
    lattice = np.power(10.0, exponents)
    lattice[0], lattice[-1] = lo, hi
    return lattice


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
    r0_scale: float | None = None,
) -> RadialProfile:
    """Integrate the profile equation from the series start to r_max, in the
    phases the module docstring describes, as the eta = 1 problem in r / l
    and v / eta scaled back.  The run starts from the origin series at
    r0 = r0_scale * l; by default r0 is the series' reach at rtol
    (_series_reach), at most l / 2 and r_max / 2, and an explicit r0_scale
    past that reach raises ValueError.  The returned grid unions the
    accepted steps with np.geomspace(1e-6 l, r_end) at POINTS_PER_DECADE
    (from r0 if that is smaller) past r0, filled from each phase's own steps
    (_fill), so geometry and quadratures work on stored points only.  atol
    is absolute in v (default 1e-30 * eta): the kernel applies atol / eta to
    both components of the eta = 1 state, so atol / l to v', and the
    pressure phase scales it by P at the handoff.  r0 must lie below r_max,
    and r_max over the lattice's first radius must be a finite float, or it
    raises ValueError.  The solver reports whatever trajectory the initial
    data generates; it makes no uniqueness claim.
    """
    _check_numerics(r_max=r_max, rtol=rtol, atol=atol, r0_scale=r0_scale)
    eta = params.eta
    if atol is None:
        # far below v on runs that stay away from zero, so control stays
        # relative there; a touch-down run (alpha > 0 > beta) ends where v
        # falls through it
        atol = 1e-30 * eta
    length = _length_scale(params)
    # the eta = 1 problem, in r / length and v / eta
    n, m, alpha, beta = params.n, params.m, params.alpha, params.beta
    r_stop, tol = r_max / length, atol / eta
    series = _series(params)
    reach = _series_reach(series, rtol)
    if r0_scale is None:
        r0 = min(reach, 0.5, 0.5 * r_stop)
    elif r0_scale > reach:
        raise ValueError(f"r0_scale = {r0_scale!r} is too large: the origin series holds to "
                         f"rtol = {rtol!r} up to {reach:.3g} l")
    else:
        r0 = r0_scale
    if r0 >= r_stop:
        raise ValueError(f"r0 = {r0 * length!r} must be below r_max = {r_max!r}")
    anchor = min(_LATTICE_ANCHOR, r0)
    if not math.isfinite(r_stop / anchor):
        raise ValueError(f"r_max = {r_max!r} is too far out: r_max / r0 is not a finite float "
                         f"for the lattice's r0 = {anchor * length!r}")
    log_tail = alpha > 0.0 and beta > 0.0 and r0 < 1.0 < r_stop
    # a run with a log tail runs both phases at the tail's tolerance
    log_tol = LOG_TOL_FACTOR * rtol
    pressure = _blowup_regime(params)
    switch = PRESSURE_SWITCH if pressure else BLOWUP_CAP
    rform = _power_pp(n, m, alpha, beta, 1.0)
    # the r-form's event: v rises through switch, or falls through the atol
    # floor, below which error control is absolute and v is not resolved (a
    # touch-down, alpha > 0 > beta, passes there: the run ends StepFailure)
    traj = _dopri5(rform, r0, _series_at(params.with_eta(1.0), series, float(r0)), 1.0 if log_tail else r_stop,
                   log_tol if log_tail else rtol, tol, lambda v, dv: v - switch if v > 1.0 else tol - v)
    # both end phases start at the r-form's last point: l, or the root v = switch
    code, steps, tail = traj.status, traj.t, None
    r_h, state = float(steps[-1]), traj.y[:, -1].tolist()
    if log_tail and code == 0:
        start = _log_start(m, r_h, *state)
        if start is None:
            code = -3  # a handoff state the log form cannot take
        else:
            tail_rhs = _log_wpp(params)
            tail = _log_kernel(params)(tail_rhs, 0.0, start, math.log(r_stop), log_tol, log_tol)
            code = tail.status
            r_tail = np.exp(tail.t[1:])
            if code == 0:
                r_tail[-1] = r_stop
            steps = np.concatenate((steps, r_tail))
    elif pressure and code == 1:
        gamma = m - 1.0
        p_h, dp_h = _to_power(gamma, *state)
        cap, tail_rhs = BLOWUP_CAP**gamma, _power_pp(n, m, alpha, beta, gamma)
        tail = _dopri5(tail_rhs, r_h, (p_h, dp_h), r_stop, rtol, tol * p_h, lambda P, dP: cap - P)
        code = tail.status
        steps = np.concatenate((steps, tail.t[1:]))

    r_end = steps[-1]
    lattice = _refinement(anchor, r_end)
    lattices = [steps, lattice[lattice > r0]]
    if tail is not None and not log_tail:
        # the pressure phase's steps shrink with r* - r; so does this fill
        lattices.append(r_end - _refinement(r_end - tail.t[-2], r_end - r_h)[1:-1])
    grid = _sorted_union(lattices)
    at = np.searchsorted(grid, steps)  # the steps' rows
    # each phase from the Hermite of its own steps, in its own variable
    if tail is None:
        v, dv = _fill(rform, traj, grid)
    else:
        head = int(np.searchsorted(grid, r_h, side="right"))
        r = grid[head:]
        if log_tail:
            s = np.log(r)
            s[at[len(traj.t):] - head] = tail.t[1:]  # each step at its own knot
            fill = _from_log(m, r, *_fill(tail_rhs, tail, s))
        else:
            fill = _from_power(gamma, *_fill(tail_rhs, tail, r))
        v, dv = np.concatenate((_fill(rform, traj, grid[:head]), fill), axis=1)

    # the ending, from the stored last state unless a positivity loss cuts it
    bad = np.flatnonzero(v <= 0.0)
    if bad.size:
        cut = bad[0]
        if cut < 10:
            raise RuntimeError("profile lost positivity immediately; inspect parameters")
        grid, v, dv = grid[:cut], v[:cut], dv[:cut]
        kind = "StepFailure"
    elif (code == 1 or code == -1 and dv[-1] > 0.0) and v[-1] > 1.0:
        kind = "BlowUp"  # the cap, or a controller stall while v was still climbing
    else:
        # StepFailure: a stall without blow-up indicators, the step budget
        # used up, or a handoff state that is not positive and finite
        kind = "Global" if code == 0 else "StepFailure"
    status = ProfileStatus(kind, float(r_max if kind == "Global" else length * grid[-1]))

    fill = np.ones(len(grid), dtype=bool)
    fill[at[steps <= grid[-1]]] = False
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


def _hermite_ends(dr: np.ndarray, f: np.ndarray, df: np.ndarray, ddf: np.ndarray):
    """The quintic Hermite rule on segments of lengths dr, as the shares of
    each segment's two ends: the segment integral dr/2 (f0 + f1)
    + dr^2/10 (f0' - f1') + dr^3/120 (f0'' + f1'') is left + right, left
    from (f0, f0', f0'') and right from (f1, f1', f1'').  The rule
    integrates the quintic Hermite through both ends, so it is exact for
    quintics and O(h^6) per unit length given exact f' and f''."""
    h2 = dr * dr / 10.0
    h, h3 = 0.5 * dr, h2 * dr / 12.0
    return h * f[:-1] + h2 * df[:-1] + h3 * ddf[:-1], h * f[1:] - h2 * df[1:] + h3 * ddf[1:]


def residuals(profile: RadialProfile) -> ResidualReport:
    """Pointwise and integral-form defects of a stored profile.

    The pointwise residual takes v'' at the (at least 3) accepted step
    points from the quintic through (v, v') at each and its two neighbours
    (_quintic_vpp), or from the quadratic through v' where v is flat to 1e-9
    across them, and compares it with the equation's right side, normalized
    by |alpha v| + |beta r v'| plus a small floor.  Two kinds of profile are
    read elsewhere past the core r = l = eta^((m-1)/2):

      * a log tail on _dop853 (_log_kernel; a start r0 < l has one) at its
        refinement lattice points: its steps lie 4-7x farther apart than
        _dopri5's, too far for the quintic through three of them.  Its steps
        are then checked by the integral identity only.
      * a BlowUp profile in the blow-up regime, from l, or from the last
        step point below PRESSURE_SWITCH * eta (the handoff root or the step
        before it) if that comes first, in P = v^-(1-m): P'' from the quintic
        through (P, P') against the gamma = m - 1 equation, normalised by
        the sum of its terms' magnitudes (_pressure_terms).  In v the last
        steps read up to 1.9e9, in P 1.3e-7 or less.

    The integral defect tests

        (n-1) r^(n-1) v^(m-1) v'  =  -beta r^n v + (n beta - alpha) * I(r),
        I(r) = integral of z^(n-1) v(z) from 0 to r,

    with the quintic Hermite rule over the stored grid (the integrand's
    derivatives are (n-1) r^(n-2) v + r^(n-1) v' and (n-1)(n-2) r^(n-3) v
    + 2(n-1) r^(n-2) v' + r^(n-1) v'', from the stored v' and v'' from the
    equation) and the 0-to-r0 stub I(r0) = sum_k c_k r0^(2k+n) / (2k+n) of
    the origin series; it is normalized by the largest participating term
    so total cancellations do not divide by zero.
    """
    p = profile.params
    r, v, dv = profile.r, profile.v, profile.dv
    if len(r) < 10:
        raise ValueError("residuals need at least 10 grid points")
    n, m, alpha, beta = p.n, p.m, p.alpha, p.beta

    si = profile.step_indices
    if len(si) < 3:
        raise ValueError(f"residuals need at least 3 accepted step points, got {len(si)}")
    vpp = profile._rform_chain[2]
    length, points = _length_scale(p), si
    if _log_kernel(p) is _dop853 and r[0] < length:
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
        # past the core r = l, or from the last step point below the switch
        # (at or just before the handoff) if that comes first, in P = v^-(1-m)
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
    left, right = _hermite_ends(np.diff(r), integrand, slope, curvature)
    # I(r0) = sum_k c_k r0^(2k+n) / (2k+n) from the origin series
    k, c = np.arange(_SERIES_TERMS), np.asarray(_series(p)[:_SERIES_TERMS])
    stub = p.eta * r[0] ** n * float(np.sum(c * ((r[0] / length) ** 2) ** k / (2 * k + n)))
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


@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _fields(record) -> dict:
    """A dataclass of plain values as a dict, one level deep: asdict would
    deep-copy every value.  The field names are looked up once per class."""
    return {name: getattr(record, name) for name in _field_names(type(record))}


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
    row is not three columns wide, or when the step indices are not JSON
    integers; RadialProfile checks the rest of the shape."""
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
    return RadialProfile(
        params, data[:, 0], data[:, 1], data[:, 2], ProfileStatus(kind, radius), rtol, atol, steps
    )
