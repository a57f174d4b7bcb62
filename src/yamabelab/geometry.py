"""Curvature quantities of the conformal metric carried by a profile.

For soliton runs (m = (n-2)/(n+2), rho present) the metric v^(4/(n+2)) dx^2
has, along the radial profile,

    q     = r v'/v,
    w     = r^2 v^(1-m),
    psi_s = 1 + (1-m)/2 * q                (radial derivative of psi = w^(1/2)
                                            with respect to the arclength-like
                                            coordinate s~),
    R     = rho + 2 beta psi_s             (= (1-m)(alpha + beta q)),
    K1    = (1 - psi_s^2)/w                (tangent 2-planes),
    K0    = -R_r / (2 beta r v^(1-m))      (radial 2-planes).

Each formula has one home.  q and w are the properties RadialProfile.q and
RadialProfile.w, which hold for any m.  psi_s and R come from _psi_s_and_R,
shared by compute_geometry and the invariant battery.
K1 is evaluated in compute_geometry in the algebraically identical factored
form -(1-m) q (1 + (1-m) q / 4)/w, which avoids the 1-(1+x)^2 cancellation
near the origin.  K0's numerator R_r is taken along the trajectory in
_k0_trajectory (the v'' needed comes from the profile equation, through
the profile's r-form chain, which cancels beta), and a second, independent
evaluation of R_r through its source-integral representation, _k0_quadrature,
is recorded as a cross-check.  Its quintic Hermite rule takes the first and
second derivatives in closed form and borrows R_r from the first route only
in the O(h^2) corrections, so the routes agree to about 1e-9 yet stay
independent at leading order.

As a function of s = log r, w~(s) = w(e^s) obeys an autonomous second-order
equation; w_log_dynamics integrates it from initial data (w~, w~_s) at any
s0 (log_handoff reads them from a profile) with the equation, kernel and
read of solve_profile's own alpha, beta > 0 tail: W = log w~ through
profile_solver's _log_wpp, _log_kernel and _fill.  It stops at one terminal
event when w~ collapses or W_s runs away.
analysis.w_equation_defect keeps its own copy of the equation, in w~ rather
than W and in array arithmetic: it is the reference the stored profile,
W-form tail included, is checked against, so it must not share _log_wpp's
formula.  log_handoff and the defect both read (v, v') from the profile by
value_at and build (w~, w~_s) with profile_solver._w_tilde.

Self-similar solutions of u_t = (n-1)/m * Laplacian(u^m) are evaluated from
the profile by the Forward/Backward/Eternal scalings.  Each kind forces rho
= -1, 0 or +1 (_SCALING_RHO), so its alpha, _scaling_alpha, is core_params'
alpha rule at that rho; SelfSimilarSpec checks it when it is built and the
selfsim command derives alpha from it.  The time scaling, u = amplitude *
v(radial factor * |x|), is _self_similar_scale; _self_similar_u applies it
for self_similar_eval and the selfsim command, and pde_residual applies it to
its whole stencil, which it reads from the profile in one value_at call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core_params import SolitonParams, _length_scale, _require_soliton, _soliton_alpha
from .profile_solver import (
    RadialProfile,
    _check_numerics,
    _fill,
    _hermite_ends,
    _log_kernel,
    _log_wpp,
    _SERIES_TERMS,
    _series,
    _w_tilde,
    _write_csv,
)

__all__ = [
    "GeometryCurves",
    "LogDynamics",
    "SelfSimilarSpec",
    "compute_geometry",
    "w_log_dynamics",
    "log_handoff",
    "extrapolate_origin",
    "self_similar_eval",
    "pde_residual",
    "write_geometry_csv",
]

GEOMETRY_CSV_HEADER = "r,v,w,R,K0,K1,psi_s"

# e^100 ~ 1e43 keeps g e^(I - I_a) far below overflow, in blocks long
# enough that their Python steps cost little next to the array work
_K0_BLOCK_SPAN = 100.0

# log-radius continuation: tolerances on (W, W_s) and samples per unit of s
_LOG_RTOL, _LOG_ATOL = 1e-10, 1e-12
_LOG_SAMPLES_PER_UNIT = 40


@dataclass(frozen=True)
class GeometryCurves:
    """Derived curves on the profile grid.

    k0_quadrature is the independent source-integral evaluation of K0;
    k0_agreement is the sup-norm-normalized discrepancy between the two
    (pointwise relative error is meaningless where K0 crosses zero)."""

    params: SolitonParams
    r: np.ndarray
    v: np.ndarray
    w: np.ndarray
    R: np.ndarray
    K0: np.ndarray
    K1: np.ndarray
    psi_s: np.ndarray
    k0_quadrature: np.ndarray
    k0_agreement: float


def _require_geometry(params: SolitonParams) -> None:
    """compute_geometry's preconditions: soliton parameters and beta != 0."""
    _require_soliton(params, "geometry")
    if params.beta == 0.0:
        raise ValueError("sectional curvature needs beta != 0")


def _psi_s_and_R(params: SolitonParams, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """psi_s = 1 + (1-m) q/2 and R = (1-m)(alpha + beta q) from q = r v'/v.

    R is arranged as rho + 2 beta psi_s so that identity holds bitwise.
    The r -> 0 limit of R is alpha (1-m) = 2 beta + rho."""
    psi_s = 1.0 + 0.5 * (1.0 - params.m) * q
    return psi_s, params.rho + 2.0 * params.beta * psi_s


def _k0_trajectory(profile: RadialProfile) -> np.ndarray:
    # K0 = -R_r/(2 beta r v^(1-m)); R_r = (1-m) beta (q'), and substituting
    # v'' from the equation cancels beta, leaving a formula finite at r -> 0.
    r, (v, dv, vpp) = profile.r, profile._rform_chain[:3]
    one_m = 1.0 - profile.params.m
    lv = dv / v
    return -one_m * (lv / r + vpp / v - lv * lv) / (2.0 * v**one_m)


def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights on [0, 1], from the eigenvectors of
    the Jacobi matrix of the Legendre recurrence (Golub-Welsch)."""
    k = np.arange(1.0, count)
    x, vectors = np.linalg.eigh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    return 0.5 * (1.0 + x), vectors[0] ** 2


# the nodes of _k0_stub's integrals over [0, r0]: 12 hold J(r0) within
# 4.2e-15 of 40 at r0 = l / 2, n = 3..8
_GAUSS_NODES, _GAUSS_WEIGHTS = _gauss_legendre(12)
# the stub's radii over r0, the nodes t and then t_i t_j for each [0, z_i],
# and their powers t^(2k): the series at them is one product with its terms
_GAUSS_RADII = np.concatenate((_GAUSS_NODES, np.outer(_GAUSS_NODES, _GAUSS_NODES).ravel()))
_GAUSS_POWERS = _GAUSS_RADII[:, None] ** (2.0 * np.arange(_SERIES_TERMS))


def _k0_stub(profile: RadialProfile) -> float:
    """J(r0) = int_0^r0 z^(n-1) Q(z) e^(I(z) - I(r0)) dz of _k0_quadrature
    from the origin series: Gauss-Legendre nodes z on [0, r0] for J, and on
    each [0, z] for I(z).  Q's R comes from the series' q = r v'/v, so the
    stub borrows nothing from the trajectory route."""
    p = profile.params
    n, m, r0 = p.n, p.m, profile.r0
    weights, k, order = _GAUSS_WEIGHTS, len(_GAUSS_WEIGHTS), np.arange(_SERIES_TERMS)
    # the series' terms at r0, c_k (r0 / l)^(2k): v / eta and r v' / eta
    # at t r0 are the powers t^(2k) times these and 2k times these
    terms = np.array(_series(p)[:_SERIES_TERMS]) * ((r0 / _length_scale(p)) ** 2) ** order
    series = _GAUSS_POWERS @ terms
    q = _GAUSS_POWERS[:k] @ (2.0 * order * terms) / series[:k]
    radii, z, v = r0 * _GAUSS_RADII, r0 * _GAUSS_NODES, p.eta * series
    tau = radii * v ** (1.0 - m)
    # I(z) on the rows of nested nodes, and I(r0) on the nodes z themselves
    I = p.beta / (n - 1) * np.append(z, r0) * (np.vstack((tau[k:].reshape(k, k), tau[:k])) @ weights)
    v, R = v[:k], _psi_s_and_R(p, q)[1]
    g = z ** (n - 1) * v ** (1.0 + m) * R * (R - p.rho) / (n - 1)
    return float(r0 * (weights @ (g * np.exp(I[:k] - I[k]))))


def _k0_quadrature(
    profile: RadialProfile, w: np.ndarray, R: np.ndarray, K0: np.ndarray
) -> np.ndarray:
    """K0 via the source-integral representation of R_r, given w, R and the
    trajectory route's K0 on the grid.

    R satisfies the elliptic equation (n-1) Lap_g R + beta r R_r
    + R(R - rho) = 0 with Lap_g the Laplacian of the metric
    v^(4/(n+2)) dx^2; written out in the Euclidean radial variable,

        R_rr + ((n-1)/r + 2m v'/v) R_r + (beta/(n-1)) r v^(1-m) R_r
            = -(1/(n-1)) v^(1-m) R (R - rho),

    whose integrating factor is r^(n-1) v^(2m) e^I.  Hence

    R_r(r) = -J(r)/r^(n-1) / v(r)^(2m) where
    J(r) = int_0^r z^(n-1) Q(z) e^(I(z)-I(r)) dz,
    Q = v^(1+m) R (R - rho)/(n-1),
    I(r) = beta/(n-1) int_0^r tau v^(1-m) dtau.

    Both integrals use the quintic Hermite rule (profile_solver's
    _hermite_ends, exact for quintics) over the grid, from J(r0) of the
    origin series (_k0_stub; r0 g(r0) / n is off by O(r0^2), 5% at n = 3,
    beta = rho = 1 and r0 = l / 2).  The derivatives come in closed form:
    tau' = v^(1-m) (1 + (1-m) q) and tau'' = (1-m) (tau' v'/v + v^(1-m) q')
    for tau = r v^(1-m) = w/r and q = r v'/v; with g = r^(n-1) Q and
    G = g e^I, G' = (g' + g I') e^I and G'' = (g'' + 2 g' I'
    + g (I'' + I'^2)) e^I, I' = beta/(n-1) tau.  g' needs R_r, and g'' needs R_rr, which the R
    equation above gives in terms of R_r.  R_r is the trajectory route's
    -2 beta tau K0 (K0 as _k0_trajectory gives it), and v'' enters only
    through q' = R_r/((1-m) beta); all of these enter only the O(h^2)
    corrections, so the two routes stay independent at leading order.

    J e^I is the cumulative sum of the segments of g e^I, but I is monotone
    with the sign of beta and reaches the thousands on expanding tails, far
    past exp's overflow at 709.  So the grid is cut into blocks over which I
    moves less than _K0_BLOCK_SPAN; within a block the sum is taken of
    g e^(I - I_a), I_a the value at the block's first point a, and J =
    e^(I_a - I) times that sum.  Every factor stays within e^(+-span) for
    either sign of beta.  The rule's segment of G e^(-I_a) is
    left e^(I_(k-1) - I_a) + right e^(I_k - I_a), left and right the shares
    of its two ends in (g, G' e^(-I), G'' e^(-I)).  Each block's first point
    is one step of the recurrence J_k = e^(-dI) (J_(k-1) + left) + right
    from the previous block, which is the same quadrature."""
    p = profile.params
    n, m, beta, rho = p.n, p.m, p.beta, p.rho
    r, v, dv = profile.r, profile.v, profile.dv
    c = beta / (n - 1)
    inv_r = 1.0 / r
    lv = dv / v
    mlv = (1.0 - m) * lv
    tau = w * inv_r
    vp = tau * inv_r
    P = r ** (n - 1) * (v * v / vp) / (n - 1)
    RR, D = R * (R - rho), 2.0 * R - rho
    R_r = -2.0 * beta * tau * K0
    dq = R_r / ((1.0 - m) * beta)  # q' for q = r v'/v, as R = (1-m)(alpha + beta q)
    dtau = vp + tau * mlv
    ddtau = mlv * dtau + (1.0 - m) * vp * dq
    L = (n - 1) * inv_r + (1.0 + m) * lv + c * tau  # (P e^I)' / (P e^I)
    A = L * RR + D * R_r  # G' e^(-I) / P
    # (L' + L^2) RR + D (2 L R_r + R_rr) + 2 R_r^2 = G'' e^(-I) / P, with
    # R_rr = -(L - (1-m) v'/v) R_r - v^(1-m) R (R - rho)/(n-1) and
    # (v'/v)' = (q' - v'/v)/r
    dL = ((1.0 + m) * (dq - lv) - (n - 1) * inv_r) * inv_r + c * dtau
    B = L * A + RR * (dL - D * vp / (n - 1)) + R_r * (mlv * D + 2.0 * R_r)
    g = P * RR
    dr = np.diff(r)
    dI = c * np.add(*_hermite_ends(dr, tau, dtau, ddtau))
    # the rule's end shares of g, G' e^(-I) and G'' e^(-I) on each segment
    left, right = _hermite_ends(dr, g, P * A, P * B)
    level = np.floor(np.cumsum(dI) / _K0_BLOCK_SPAN)
    starts = np.flatnonzero(np.diff(level, prepend=0.0)) + 1
    bounds = np.concatenate(([0], starts, [len(r)]))

    J = np.empty_like(r)
    J_a = _k0_stub(profile)
    for a, b in zip(bounds[:-1], bounds[1:]):
        if a > 0:  # one step of the recurrence carries J across the seam
            J_a = math.exp(-dI[a - 1]) * (J[a - 1] + left[a - 1]) + right[a - 1]
        eE = np.exp(np.concatenate(([0.0], np.cumsum(dI[a : b - 1]))))
        S = left[a : b - 1] * eE[:-1] + right[a : b - 1] * eE[1:]
        J[a:b] = np.cumsum(np.concatenate(([J_a], S))) / eE
    # K0 = -R_r/(2 beta r v^(1-m)); the v^(2m) from the integrating factor
    # combines with v^(1-m) into v^(1+m), and r^n v^(1+m) = (n-1) r P
    return J / (2.0 * beta * (n - 1) * r * P)


def compute_geometry(profile: RadialProfile) -> GeometryCurves:
    """All curvature curves plus the K0 cross-check in one pass."""
    p = profile.params
    _require_geometry(p)
    one_m = 1.0 - p.m
    q, w = profile.q, profile.w
    psi_s, R = _psi_s_and_R(p, q)
    # factored (1 - psi_s^2)/w, exact in the small-q regime
    K1 = -one_m * q * (1.0 + 0.25 * one_m * q) / w
    K0 = _k0_trajectory(profile)
    K0_quad = _k0_quadrature(profile, w, R, K0)
    scale = max(float(np.max(np.abs(K0))), float(np.max(np.abs(K0_quad))), 1e-300)
    agreement = float(np.max(np.abs(K0 - K0_quad)) / scale)

    return GeometryCurves(
        params=p,
        r=profile.r,
        v=profile.v,
        w=w,
        R=R,
        K0=K0,
        K1=K1,
        psi_s=psi_s,
        k0_quadrature=K0_quad,
        k0_agreement=agreement,
    )


@dataclass(frozen=True)
class LogDynamics:
    """Continuation of w (called w~ in log-radius form) along s = log r."""

    s: np.ndarray
    w_tilde: np.ndarray
    w_tilde_s: np.ndarray
    R: np.ndarray
    status: str  # Completed | Stopped


def log_handoff(profile: RadialProfile, r_h: float) -> tuple[float, tuple[float, float]]:
    """Initial data (s0, (w~, w~_s)) for w_log_dynamics read from a profile
    at r_h by value_at, which rejects radii past the grid, negative or
    non-finite."""
    v, dv = profile.value_at(r_h, derivative=True)
    return math.log(r_h), _w_tilde(profile.params.m, r_h, v, dv)


def _log_stop(W, Ws):
    # rises through zero when w~ falls below e^-60 or |W_s| passes 1e3
    return max(-60.0 - W, abs(Ws) - 1e3)


def w_log_dynamics(
    params: SolitonParams,
    s_range: tuple[float, float],
    w_init: tuple[float, float],
) -> LogDynamics:
    """Integrate the autonomous log-radius equation

        w~_ss = (1-2m)/(1-m) w~_s^2/w~ - beta/(n-1) w~ w~_s
                - rho/(n-1) w~^2 + 2(n-2-nm)/(1-m) w~

    from (w~, w~_s) at s_range[0] to s_range[1].  Internally the state is
    W = log w~ (positivity is structural and the stiff quadratic terms are
    tamed); the equation requires soliton parameters.  Integration stops
    with status Stopped if w~ collapses toward 0, w~_s diverges or the
    kernel's step budget runs out.
    """
    _require_soliton(params, "log-radius dynamics")
    wt0, wts0 = w_init
    if not (wt0 > 0.0):
        raise ValueError(f"w~ must be positive at handoff, got {wt0!r}")
    s0, s1 = s_range
    # a non-finite end would run the kernel to STEP_BUDGET
    if not (math.isfinite(s0) and math.isfinite(s1) and s0 < s1):
        raise ValueError(f"s_range must be finite and increasing, got {s_range!r}")
    log_rhs, start = _log_wpp(params), (math.log(wt0), wts0 / wt0)
    traj = _log_kernel(params)(log_rhs, s0, start, s1, _LOG_RTOL, _LOG_ATOL, _log_stop)
    s_end = traj.t[-1]
    count = max(int(math.ceil((s_end - s0) * _LOG_SAMPLES_PER_UNIT)), 2)
    s = np.linspace(s0, s_end, count)
    W, Ws = _fill(log_rhs, traj, s)
    wt = np.exp(W)
    return LogDynamics(
        s=s,
        w_tilde=wt,
        w_tilde_s=wt * Ws,
        R=params.rho + params.beta * Ws,
        status="Completed" if traj.status == 0 else "Stopped",
    )


def extrapolate_origin(r: np.ndarray, y: np.ndarray) -> float:
    """Limit of an even curve at r = 0 from three small-radius samples.

    Fits y = c0 + c1 r^2 + c2 r^4 through points near r[0]*{1, sqrt(10), 10}
    (spread over a decade for conditioning; the first three points on a
    grid spanning less than that) and returns c0."""
    if len(r) < 3:
        raise ValueError("need at least 3 grid points")
    targets = r[0] * np.array([1.0, math.sqrt(10.0), 10.0])
    idx = np.minimum(np.searchsorted(r, targets), len(r) - 1)
    if not idx[0] < idx[1] < idx[2]:  # a grid spanning less than a decade
        idx = np.arange(3)
    ri, yi = r[idx], y[idx]
    x = (ri / ri[-1]) ** 2
    A = np.vander(x, 3, increasing=True)
    c = np.linalg.solve(A, yi)
    return float(c[0])


@dataclass(frozen=True)
class SelfSimilarSpec:
    """One of the three time-scaled solution families built from a profile,
    valid by construction: building a spec whose params or T break its
    kind's requirements raises ValueError.

    Forward:  u(x,t) = t^(-a) v(x t^(-b)),        needs a = (2b-1)/(1-m), t > 0
    Backward: u(x,t) = (T-t)^a v(x (T-t)^b),      needs a = (2b+1)/(1-m) > 0, t < T
    Eternal:  u(x,t) = e^(-a t) v(x e^(-b t)),    needs a = 2b/(1-m)
    """

    kind: str  # Forward | Backward | Eternal
    params: SolitonParams
    T: float | None = None

    def __post_init__(self) -> None:
        alpha = self.params.alpha
        target = _scaling_alpha(self.kind, self.params.m, self.params.beta)
        if abs(alpha - target) > 1e-9 * max(1.0, abs(target)):
            raise ValueError(
                f"{self.kind} scaling requires alpha = {target!r}, got {alpha!r}"
            )
        if self.kind == "Backward":
            if not (alpha > 0.0):
                raise ValueError("Backward scaling requires alpha > 0")
            if self.T is None or not (self.T > 0.0):
                raise ValueError("Backward scaling requires a positive horizon T")


# the soliton constant rho each kind's time scaling forces on the profile
_SCALING_RHO = {"Forward": -1.0, "Eternal": 0.0, "Backward": 1.0}


def _scaling_alpha(kind: str, m: float, beta: float) -> float:
    """The alpha that the kind's time scaling requires of the profile:
    alpha*(1-m) = 2*beta + rho with the kind's rho."""
    if kind not in _SCALING_RHO:
        raise ValueError(f"unknown kind {kind!r}")
    return _soliton_alpha(m, beta, _SCALING_RHO[kind])


def _self_similar_scale(spec: SelfSimilarSpec, t: float) -> tuple[float, float]:
    """(amplitude, radial factor) of the kind's time scaling at t, so that
    u(x, t) = amplitude * v(radial factor * |x|)."""
    alpha, beta = spec.params.alpha, spec.params.beta
    if spec.kind == "Forward":
        if not (t > 0.0):
            raise ValueError("Forward scaling needs t > 0")
        return t ** (-alpha), t ** (-beta)
    if spec.kind == "Backward":
        if not (t < spec.T):
            raise ValueError("Backward scaling needs t < T")
        tau = spec.T - t
        return tau**alpha, tau**beta
    return math.exp(-alpha * t), math.exp(-beta * t)


def _self_similar_u(spec: SelfSimilarSpec, profile: RadialProfile, radius, t: float):
    """u(x, t) at |x| = radius, a nonnegative scalar or array."""
    amplitude, factor = _self_similar_scale(spec, t)
    return amplitude * profile.value_at(radius * factor)


def self_similar_eval(spec: SelfSimilarSpec, profile: RadialProfile, x, t: float):
    """u(x, t) by radial interpolation of the profile; x is a scalar radius
    or a coordinate vector.  Scaled radii beyond the stored grid raise."""
    xr = np.asarray(x, dtype=float)
    radius = float(np.sqrt(np.sum(xr * xr))) if xr.ndim else abs(float(xr))
    return _self_similar_u(spec, profile, radius, t)


def pde_residual(
    spec: SelfSimilarSpec,
    profile: RadialProfile,
    r_points: np.ndarray,
    t_points: np.ndarray,
    h_r: float,
    h_t: float,
) -> float:
    """Normalized defect of u_t = (n-1)/m * Laplacian(u^m) on an (r, t)
    lattice, by central differences in both variables; radial Laplacian
    f'' + (n-1)/r f'.  The whole stencil, each row scaled by
    _self_similar_scale at its own time, is read in one value_at call.
    Sup-norm normalized; returns 0 for an identically flat lattice.  The
    radii and the steps h_r and h_t must be positive and finite."""
    _check_numerics(h_r=h_r, h_t=h_t)
    n, m = spec.params.n, spec.params.m
    coef = (n - 1) / m
    r = np.array(r_points, dtype=float, ndmin=1)
    if not (r.size and np.all((r > 0.0) & (r < math.inf))):
        raise ValueError("r_points must be a nonempty set of positive, finite radii")
    ts = np.array(t_points, dtype=float, ndmin=1)
    k, nr = len(ts), len(r)
    times = np.concatenate((ts + h_t, ts - h_t, np.repeat(ts, 3)))
    amplitude, factor = np.array([_self_similar_scale(spec, t) for t in times]).T
    # the profile is even in r, so a stencil reaching past the origin reflects
    radii = np.concatenate([r] * (2 * k) + [r, r + h_r, np.abs(r - h_r)] * k)
    u = amplitude[:, None] * profile.value_at(radii * np.repeat(factor, nr)).reshape(-1, nr)
    ut = (u[:k] - u[k : 2 * k]) / (2.0 * h_t)
    f_c, f_p, f_m = (u[2 * k :] ** m).reshape(k, 3, nr).transpose(1, 0, 2)
    lap = (f_p - 2.0 * f_c + f_m) / h_r**2 + (n - 1) / r * (f_p - f_m) / (2.0 * h_r)
    top = float(np.max(np.abs(ut - coef * lap)))
    bottom = float(np.max(np.abs(ut) + np.abs(coef * lap)))
    return top / bottom if bottom > 0.0 else 0.0


def write_geometry_csv(curves: GeometryCurves, path) -> None:
    c = curves
    _write_csv(path, GEOMETRY_CSV_HEADER, (c.r, c.v, c.w, c.R, c.K0, c.K1, c.psi_s))
