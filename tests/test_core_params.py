"""Parameter construction and its checks, classification, predictions,
certificates; property tests for the algebraic relations between them."""

import json
import math
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import yamabelab as yl
from yamabelab.core_params import _blowup_regime

finite = st.floats(allow_nan=False, allow_infinity=False)
dims = st.integers(min_value=3, max_value=12)
etas = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)
betas = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)
rhos = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_soliton_exponent_values():
    assert yl.soliton_exponent(3) == pytest.approx(0.2, abs=0)
    assert yl.soliton_exponent(5) == pytest.approx(3.0 / 7.0, abs=0)
    assert yl.soliton_exponent(6) == 0.5


def test_make_params_derives_alpha():
    p = yl.make_params(n=3, m=0.2, beta=1.0, rho=1.0, eta=1.0)
    assert p.alpha == pytest.approx((2.0 + 1.0) / 0.8, rel=1e-15)
    assert p.rho == 1.0
    assert p.k == pytest.approx(1.0 / p.alpha, rel=1e-15)


def test_make_params_derives_rho():
    p = yl.make_params(n=3, m=0.2, beta=1.0, eta=1.0, alpha=1.25)
    assert p.rho == pytest.approx(1.25 * 0.8 - 2.0, rel=1e-12)


def test_make_params_general_exponent_has_no_rho():
    p = yl.make_params(n=3, m=0.15, beta=1.0, eta=1.0, alpha=2.0)
    assert p.rho is None


def test_make_params_rejects_bad_combinations():
    with pytest.raises(ValueError, match="one of rho or alpha"):
        yl.make_params(n=3, m=0.2, beta=1.0, eta=1.0)
    with pytest.raises(ValueError, match="soliton exponent"):
        yl.make_params(n=3, m=0.15, beta=1.0, rho=1.0, eta=1.0)
    with pytest.raises(ValueError, match="inconsistent pair"):
        yl.make_params(n=3, m=0.2, beta=1.0, rho=1.0, eta=1.0, alpha=2.0)


def test_make_params_accepts_consistent_pair():
    p = yl.make_params(n=3, m=0.2, beta=1.0, rho=-1.0, eta=1.0, alpha=1.25)
    assert p.alpha == 1.25 and p.rho == -1.0


def test_fields_are_stored_as_floats():
    # ints and numpy scalars come out as Python floats, so the kernel's
    # closures hold floats; n stays an int and a missing rho stays None
    f64 = np.float64
    built = (
        yl.SolitonParams(n=3, m=f64(0.2), alpha=f64(2.5), beta=1, eta=np.int64(2), rho=0),
        yl.make_params(n=3, m=f64(0.2), beta=f64(1.0), eta=2, rho=0),
        yl.make_params(n=4, m=0.3, beta=1, eta=f64(2.0), alpha=np.float32(0.5)).with_eta(3),
    )
    for p in built:
        assert type(p.n) is int
        for name in ("m", "alpha", "beta", "eta"):
            assert type(getattr(p, name)) is float, name
    assert [type(p.rho) for p in built] == [float, float, type(None)]
    assert json.dumps(asdict(built[0]), sort_keys=True) == (
        '{"alpha": 2.5, "beta": 1.0, "eta": 2.0, "m": 0.2, "n": 3, "rho": 0.0}'
    )
    # make_params derives the missing one of rho/alpha in float arithmetic,
    # and violation messages print plain floats, not numpy reprs
    assert yl.make_params(n=3, m=0.2, beta=1.0, eta=2.0, alpha=np.float32(0.5)).rho == -1.6
    with pytest.raises(ValueError, match=r"eta-positive: need eta > 0, got -2\.0$"):
        yl.make_params(n=3, m=0.2, beta=1.0, eta=np.float32(-2.0), rho=1.0)


def _violations_of(**fields) -> str:
    with pytest.raises(ValueError, match="^invalid parameters: ") as info:
        yl.SolitonParams(**fields)
    return str(info.value)


def test_validate_flags_each_violation():
    # a valid set constructs; each broken hypothesis raises with its tag
    yl.SolitonParams(n=3, m=0.2, alpha=1.25, beta=1.0, eta=1.0, rho=-1.0)

    assert "dimension: " in _violations_of(n=2, m=0.2, alpha=1.0, beta=0.0, eta=1.0)
    assert "exponent-range: " in _violations_of(n=3, m=0.5, alpha=1.0, beta=0.0, eta=1.0)
    assert "eta-positive: " in _violations_of(n=3, m=0.2, alpha=1.0, beta=0.0, eta=0.0)
    assert "soliton-consistency: " in _violations_of(
        n=3, m=0.2, alpha=1.0, beta=1.0, eta=1.0, rho=1.0
    )
    assert "soliton-exponent: " in _violations_of(
        n=3, m=0.15, alpha=1.0, beta=1.0, eta=1.0, rho=1.0
    )

    for name in ("m", "alpha", "beta", "eta", "rho"):
        for value in (math.nan, math.inf, -math.inf):
            fields = dict(n=3, m=0.2, alpha=1.25, beta=1.0, eta=1.0, rho=-1.0)
            fields[name] = value
            assert f"finite: {name} must be finite, got {value!r}" in _violations_of(**fields)


def test_every_construction_path_checks():
    # a negative eta in the blow-up regime would give a complex radius bound
    with pytest.raises(ValueError, match="invalid parameters: eta-positive"):
        yl.make_params(n=3, m=0.2, alpha=-1.0, beta=-1.0, eta=-1.0)
    p = yl.make_params(n=3, m=0.2, alpha=-1.0, beta=-1.0, eta=1.0)
    with pytest.raises(ValueError, match="invalid parameters: eta-positive"):
        p.with_eta(-1.0)
    with pytest.raises(ValueError, match="invalid parameters: dimension"):
        yl.make_params(n=2, m=0.2, alpha=1.0, beta=1.0, eta=1.0)
    # m = 1 would divide by zero while deriving alpha; the message names only
    # the cause, not the NaN alpha or the soliton exponent that follow from it
    with pytest.raises(ValueError, match="invalid parameters: exponent-range") as info:
        yl.make_params(n=3, m=1.0, beta=1.0, rho=1.0, eta=1.0)
    assert ";" not in str(info.value) and "alpha" not in str(info.value)


def test_classify_regimes():
    covered = yl.classify(yl.make_params(n=3, m=0.2, beta=2.0, rho=1.0, eta=1.0))
    assert (covered.variant, covered.validity) == ("Shrinking", "CoveredByTheorems")

    # the boundary beta = rho/(n-2) itself requires strict inequality
    boundary = yl.classify(yl.make_params(n=3, m=0.2, beta=1.0, rho=1.0, eta=1.0))
    assert (boundary.variant, boundary.validity) == ("Shrinking", "OutsideTheorems")

    below = yl.classify(yl.make_params(n=3, m=0.2, beta=0.5, rho=1.0, eta=1.0))
    assert (below.variant, below.validity) == ("Shrinking", "OutsideTheorems")

    steady = yl.classify(yl.make_params(n=3, m=0.2, beta=1.0, rho=0.0, eta=1.0))
    assert (steady.variant, steady.validity) == ("Steady", "CoveredByTheorems")

    expanding = yl.classify(yl.make_params(n=3, m=0.2, beta=1.0, rho=-1.0, eta=1.0))
    assert (expanding.variant, expanding.validity) == ("Expanding", "CoveredByTheorems")

    neg_alpha = yl.classify(yl.make_params(n=3, m=0.2, beta=1.0, rho=-3.0, eta=1.0))
    assert (neg_alpha.variant, neg_alpha.validity) == ("Expanding", "OutsideTheorems")

    general = yl.classify(yl.make_params(n=3, m=0.15, beta=1.0, eta=1.0, alpha=1.0))
    assert (general.variant, general.validity) == ("NonSoliton", "OutsideTheorems")


def test_predictions_shrinking_values():
    p = yl.make_params(n=3, m=0.2, beta=2.0, rho=1.0, eta=1.0)
    pred = yl.predictions(p)
    assert pred.w_limit == pytest.approx(2.0, rel=1e-15)
    assert pred.K1_limit == pytest.approx(0.5, rel=1e-15)
    assert pred.R_limit == 1.0
    assert pred.R_at_zero == pytest.approx(p.alpha * 0.8, rel=1e-15)
    assert pred.K_at_zero == pytest.approx(5.0 / 6.0, rel=1e-15)
    assert pred.K0_limit == 0.0
    assert pred.rvp_over_v_limit == pytest.approx(-2.5, rel=1e-15)
    assert pred.R_upper == pytest.approx(p.alpha * 0.8, rel=1e-15)
    # alpha = 6.25 < n*beta = 6 is false: 6.25 >= 6, so the bound applies
    assert pred.w_upper == pytest.approx(12.0 / (p.alpha * 0.8), rel=1e-15)


def test_predictions_steady_and_expanding():
    steady = yl.predictions(yl.make_params(n=3, m=0.2, beta=1.0, rho=0.0, eta=1.0))
    assert steady.w_over_logr_limit == pytest.approx(2.0, rel=1e-15)
    assert steady.R_limit == 0.0 and steady.K1_limit == 0.0
    assert not steady.r2v2k_limit_exists

    expanding = yl.predictions(yl.make_params(n=3, m=0.2, beta=1.0, rho=-1.0, eta=1.0))
    assert expanding.r2v2k_limit_exists
    assert expanding.rvp_over_v_limit == pytest.approx(-1.25, rel=1e-15)


def test_predictions_strict_rejects_uncovered():
    p = yl.make_params(n=3, m=0.2, beta=1.0, rho=1.0, eta=1.0)  # boundary
    with pytest.raises(ValueError, match="outside covered"):
        yl.predictions(p, strict=True)
    # non-strict fills the natural extension values
    pred = yl.predictions(p)
    assert pred.w_limit == pytest.approx(2.0, rel=1e-15)


def test_predictions_need_soliton():
    p = yl.make_params(n=3, m=0.15, beta=1.0, eta=1.0, alpha=1.0)
    with pytest.raises(ValueError, match="soliton"):
        yl.predictions(p)


def test_blowup_certificate_cases():
    case2 = yl.blowup_certificate(yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=-1.0))
    assert case2.case_tag == "Case2"
    assert case2.radius_bound == pytest.approx(math.sqrt(15.0), rel=1e-14)

    case1 = yl.blowup_certificate(yl.make_params(n=3, m=0.2, beta=-1.0, eta=1.0, alpha=-4.0))
    assert case1.case_tag == "Case1"
    assert case1.radius_bound == pytest.approx(math.sqrt(5.0), rel=1e-14)

    case3 = yl.blowup_certificate(yl.make_params(n=3, m=0.2, beta=0.0, eta=1.0, alpha=-1.0))
    assert case3.case_tag == "Case3" and case3.radius_bound is None

    with pytest.raises(ValueError, match="alpha < 0 and beta <= 0"):
        yl.blowup_certificate(yl.make_params(n=3, m=0.2, beta=1.0, rho=1.0, eta=1.0))


@pytest.mark.parametrize(
    "alpha, beta", [(-1.0, -1.0), (-1.0, 0.0), (-1.0, 0.5), (0.0, -1.0), (1.0, -1.0), (1.0, 1.0)]
)
def test_blowup_regime_is_one_rule(alpha, beta):
    # the certificate takes exactly the points verify refuses
    p = yl.make_params(n=3, m=0.2, beta=beta, eta=1.0, alpha=alpha)
    blows_up = alpha < 0.0 and beta <= 0.0
    assert _blowup_regime(p) is blows_up
    if blows_up:
        yl.blowup_certificate(p)
        with pytest.raises(ValueError, match="no global solution exists for alpha < 0, beta <= 0"):
            yl.verify(p)
    else:
        with pytest.raises(ValueError, match="certificate requires alpha < 0 and beta <= 0"):
            yl.blowup_certificate(p)


@given(n=dims, beta=betas, rho=rhos, eta1=etas, eta2=etas)
@settings(max_examples=200)
def test_classification_ignores_eta(n, beta, rho, eta1, eta2):
    m = yl.soliton_exponent(n)
    p1 = yl.make_params(n=n, m=m, beta=beta, rho=rho, eta=eta1)
    p2 = p1.with_eta(eta2)
    assert yl.classify(p1) == yl.classify(p2)


@given(n=dims, beta=betas, rho=rhos, eta=etas)
@settings(max_examples=200)
def test_derived_alpha_satisfies_relation(n, beta, rho, eta):
    m = yl.soliton_exponent(n)
    p = yl.make_params(n=n, m=m, beta=beta, rho=rho, eta=eta)
    scale = max(abs(p.alpha), abs(beta), abs(rho), 1.0)
    assert abs(p.alpha * (1.0 - m) - 2.0 * beta - rho) <= 1e-12 * scale


@given(n=dims, rho=st.floats(min_value=1e-3, max_value=10.0, allow_nan=False))
@settings(max_examples=200)
def test_shrinking_limits_are_reciprocal(n, rho):
    m = yl.soliton_exponent(n)
    beta = 2.0 * rho / (n - 2)  # safely inside the covered cone
    pred = yl.predictions(yl.make_params(n=n, m=m, beta=beta, rho=rho, eta=1.0))
    assert pred.w_limit * pred.K1_limit == pytest.approx(1.0, rel=1e-12)


@given(
    n=dims,
    alpha=st.floats(min_value=-50.0, max_value=-1e-3, allow_nan=False),
    beta=st.floats(min_value=-50.0, max_value=-1e-3, allow_nan=False),
    eta=etas,
)
@settings(max_examples=200)
def test_certificate_eta_scaling(n, alpha, beta, eta):
    m = yl.soliton_exponent(n)
    base = yl.make_params(n=n, m=m, beta=beta, eta=eta, alpha=alpha)
    doubled = base.with_eta(2.0 * eta)
    b1 = yl.blowup_certificate(base).radius_bound
    b2 = yl.blowup_certificate(doubled).radius_bound
    assert b2 / b1 == pytest.approx(2.0 ** ((m - 1.0) / 2.0), rel=1e-14)


@given(n=dims, beta=betas, rho=rhos)
@settings(max_examples=100)
def test_covered_shrinking_needs_strict_cone(n, beta, rho):
    m = yl.soliton_exponent(n)
    cls = yl.classify(yl.make_params(n=n, m=m, beta=beta, rho=rho, eta=1.0))
    if cls.validity == "CoveredByTheorems" and cls.variant == "Shrinking":
        assert rho > 0.0 and beta > rho / (n - 2)
