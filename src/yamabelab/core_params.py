"""Parameter space for the radial profile laboratory.

Conventions
-----------
A parameter set (n, m, alpha, beta, eta) drives the radial profile equation

    (n-1)/m * ((v^m)'' + (n-1)/r * (v^m)') + alpha*v + beta*r*v' = 0,
    v(0) = eta > 0,  v'(0) = 0,

with integer dimension n >= 3 and exponent 0 < m <= (n-2)/n.  The soliton
case is m = (n-2)/(n+2) together with the constant rho defined through
alpha*(1-m) = 2*beta + rho; the sign of rho selects shrinking (rho > 0),
steady (rho = 0) or expanding (rho < 0).  Runs with general m carry no rho
and no curvature interpretation.  SolitonParams checks all of this when it
is built and raises ValueError("invalid parameters: ...") naming each rule
broken, so every parameter set in the package is valid.

All containers here are frozen; they can be shared between threads and
processes freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

__all__ = [
    "SolitonParams",
    "SolitonClass",
    "TheoreticalPredictions",
    "BlowupCertificate",
    "soliton_exponent",
    "make_params",
    "classify",
    "predictions",
    "blowup_certificate",
]

# tolerance for recognizing m = (n-2)/(n+2) and the alpha/beta/rho relation
# after decimal round-trips through config files
_CONSISTENCY_TOL = 1e-9


def soliton_exponent(n: int) -> float:
    """The exponent value (n-2)/(n+2) at which curvature quantities exist."""
    return (n - 2) / (n + 2)


def _valid_dimension(n) -> bool:
    return isinstance(n, int) and n >= 3


@dataclass(frozen=True)
class SolitonParams:
    """Immutable parameter tuple for one profile run, valid by construction.

    rho is None for general-exponent runs; k = beta/alpha is defined only
    when alpha is nonzero.
    """

    n: int
    m: float
    alpha: float
    beta: float
    eta: float
    rho: float | None = None

    def __post_init__(self) -> None:
        bad = _violations(self)
        if bad:
            raise ValueError("invalid parameters: " + "; ".join(bad))

    @property
    def k(self) -> float | None:
        return self.beta / self.alpha if self.alpha != 0.0 else None

    def with_eta(self, eta: float) -> "SolitonParams":
        return replace(self, eta=eta)


def _violations(params: SolitonParams) -> list[str]:
    """Every broken hypothesis of the module docstring, one tagged line each."""
    bad: list[str] = []
    n, m = params.n, params.m
    for name in ("m", "alpha", "beta", "eta", "rho"):
        value = getattr(params, name)
        if value is not None and not math.isfinite(value):
            bad.append(f"finite: {name} must be finite, got {value!r}")
    if not _valid_dimension(n):
        bad.append(f"dimension: n must be an integer >= 3, got {n!r}")
    elif not (0.0 < m <= (n - 2) / n):
        bad.append(f"exponent-range: need 0 < m <= (n-2)/n = {(n - 2) / n!r}, got m = {m!r}")
    if not (params.eta > 0.0):
        bad.append(f"eta-positive: need eta > 0, got {params.eta!r}")
    if params.rho is None or not _valid_dimension(n):
        return bad
    lhs, rhs = params.alpha * (1.0 - m), 2.0 * params.beta + params.rho
    if abs(m - soliton_exponent(n)) > _CONSISTENCY_TOL:
        bad.append(f"soliton-exponent: rho given but m = {m!r} is not the soliton exponent "
                   f"(n-2)/(n+2) = {soliton_exponent(n)!r}")
    elif abs(lhs - rhs) > _CONSISTENCY_TOL * max(abs(lhs), abs(rhs), 1.0):
        bad.append(f"soliton-consistency: inconsistent pair: alpha*(1-m) = {lhs!r} "
                   f"but 2*beta+rho = {rhs!r}")
    return bad


@dataclass(frozen=True)
class SolitonClass:
    variant: str  # Shrinking | Steady | Expanding | NonSoliton
    validity: str  # CoveredByTheorems | OutsideTheorems
    reason: str


@dataclass(frozen=True)
class TheoreticalPredictions:
    """Closed-form targets for the asymptotic verification battery.

    Fields are None when no formula applies to the regime.  The limit
    formulas are proven for covered regimes; outside them they are reported
    as the natural extension and the verdict machinery treats them as
    targets to test, not as guarantees.
    """

    w_limit: float | None = None            # limit of r^2 v^(1-m), shrinking
    w_over_logr_limit: float | None = None  # limit of r^2 v^(1-m) / log r, steady
    r2v2k_limit_exists: bool = False        # finite limit of r^2 v^(2k), expanding
    rvp_over_v_limit: float | None = None   # limit of r v'/v
    R_at_zero: float | None = None          # scalar curvature at the origin
    R_limit: float | None = None            # scalar curvature limit at infinity
    K_at_zero: float | None = None          # common origin value of K0 and K1
    K0_limit: float | None = None
    K1_limit: float | None = None
    R_upper: float | None = None            # global bound alpha*(1-m) when alpha > 0
    w_upper: float | None = None            # global bound 2n(n-1)/(alpha(1-m)) when alpha >= n*beta > 0


@dataclass(frozen=True)
class BlowupCertificate:
    """Certified finite existence radius for alpha < 0, beta <= 0.

    case_tag Case1 covers 0 > n*beta > alpha, Case2 covers 0 > alpha >= n*beta,
    Case3 covers alpha < 0 with beta = 0.  Cases 1 and 2 carry the constant
    C1 = min(|alpha|/n, |beta|)/(n-1) and the closed-form radius bound
    sqrt(2/(C1*(1-m))) * eta^((m-1)/2); the Case3 argument is non-constructive
    so only numerical detection applies there.
    """

    case_tag: str
    C1: float | None = None
    radius_bound: float | None = None


def make_params(
    n: int,
    m: float,
    beta: float,
    eta: float,
    rho: float | None = None,
    alpha: float | None = None,
) -> SolitonParams:
    """Build a parameter set, deriving alpha or rho from the other.

    Exactly one of rho/alpha may be omitted.  With alpha alone, rho is
    derived at the soliton exponent only; SolitonParams checks the rest,
    including that a given pair satisfies alpha*(1-m) = 2*beta + rho.
    """
    if alpha is None and rho is None:
        raise ValueError("one of rho or alpha must be supplied")
    if alpha is None:
        # m = 1 is outside the exponent range; leave alpha for the check to flag
        alpha = (2.0 * beta + rho) / (1.0 - m) if m != 1.0 else math.nan
    elif rho is None and _valid_dimension(n) and abs(m - soliton_exponent(n)) <= _CONSISTENCY_TOL:
        rho = alpha * (1.0 - m) - 2.0 * beta
    return SolitonParams(n=n, m=m, alpha=float(alpha), beta=float(beta), eta=float(eta), rho=rho)


def classify(params: SolitonParams) -> SolitonClass:
    """Regime of a valid parameter set.

    Covered regimes are shrinking with beta > rho/(n-2) (strict, the
    boundary itself is outside) and steady/expanding with alpha > 0.
    Classification never looks at eta.
    """
    rho = params.rho
    if rho is None:
        return SolitonClass("NonSoliton", "OutsideTheorems", "no soliton constant rho")
    n = params.n
    if rho > 0.0:
        threshold = rho / (n - 2)
        if params.beta > threshold:
            return SolitonClass(
                "Shrinking", "CoveredByTheorems", f"beta = {params.beta} > rho/(n-2) = {threshold}"
            )
        return SolitonClass(
            "Shrinking",
            "OutsideTheorems",
            f"beta = {params.beta} <= rho/(n-2) = {threshold} (strict inequality required)",
        )
    variant = "Steady" if rho == 0.0 else "Expanding"
    if params.alpha > 0.0:
        return SolitonClass(variant, "CoveredByTheorems", f"alpha = {params.alpha} > 0")
    return SolitonClass(variant, "OutsideTheorems", f"alpha = {params.alpha} <= 0")


def predictions(params: SolitonParams, strict: bool = False) -> TheoreticalPredictions:
    """Closed-form asymptotic targets for a soliton parameter set.

    With strict=True, parameter sets outside the covered regimes are
    rejected.  The default fills every formula whose inputs are defined,
    which is what the verification battery compares against.
    """
    cls = classify(params)
    if cls.variant == "NonSoliton":
        raise ValueError("predictions need a soliton parameter set (rho present)")
    if strict and cls.validity != "CoveredByTheorems":
        raise ValueError(f"parameters outside covered regimes: {cls.reason}")

    n, m = params.n, params.m
    alpha, beta, rho = params.alpha, params.beta, params.rho
    pred = TheoreticalPredictions(
        R_at_zero=alpha * (1.0 - m),
        K_at_zero=(2.0 * beta + rho) / (n * (n - 1)),
        K0_limit=0.0,
    )
    if cls.variant == "Shrinking":
        pred = replace(
            pred,
            w_limit=(n - 1) * (n - 2) / rho,
            K1_limit=rho / ((n - 1) * (n - 2)),
            R_limit=rho,
            rvp_over_v_limit=-2.0 / (1.0 - m),
        )
    elif cls.variant == "Steady":
        pred = replace(
            pred,
            w_over_logr_limit=(
                2.0 * (n - 1) * (n - 2 - m * n) / (beta * (1.0 - m)) if beta != 0.0 else None
            ),
            K1_limit=0.0,
            R_limit=0.0,
            rvp_over_v_limit=-2.0 / (1.0 - m),
        )
    else:  # Expanding
        k = params.k
        pred = replace(
            pred,
            r2v2k_limit_exists=True,
            K1_limit=0.0,
            R_limit=0.0,
            rvp_over_v_limit=(-1.0 / k) if k is not None else None,
        )
    if alpha > 0.0:
        pred = replace(pred, R_upper=alpha * (1.0 - m))
        if alpha >= n * beta:
            pred = replace(pred, w_upper=2.0 * n * (n - 1) / (alpha * (1.0 - m)))
    return pred


def blowup_certificate(params: SolitonParams) -> BlowupCertificate:
    """Certificate of finite existence radius for alpha < 0, beta <= 0."""
    alpha, beta = params.alpha, params.beta
    if not (alpha < 0.0 and beta <= 0.0):
        raise ValueError(
            f"certificate requires alpha < 0 and beta <= 0, got alpha = {alpha!r}, beta = {beta!r}"
        )
    n, m = params.n, params.m
    if beta == 0.0:
        return BlowupCertificate(case_tag="Case3")
    case_tag = "Case1" if n * beta > alpha else "Case2"
    C1 = min(abs(alpha) / n, abs(beta)) / (n - 1)
    radius_bound = math.sqrt(2.0 / (C1 * (1.0 - m))) * params.eta ** ((m - 1.0) / 2.0)
    return BlowupCertificate(case_tag=case_tag, C1=C1, radius_bound=radius_bound)
