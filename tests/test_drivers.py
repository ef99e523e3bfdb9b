"""Driver right-hand sides: close-out algebra, affine structure of the
default-free-mark convention, monotonicity of the semilinear one, the
capital kill switch, and the source-term sign convention."""

import numpy as np
import pytest

from xvadg.black_scholes import bs_value
from xvadg.capital import capital_requirement
from xvadg.config import CapitalParams, MarketParams, OptionSpec
from xvadg.drivers import (ALL_DRIVER_KINDS, closeout_value, collateral_amount,
                           driver_level, driver_value, source_term)

CALL = OptionSpec(kind="call", strike=15.0, maturity=1.0)
PUT = OptionSpec(kind="put", strike=15.0, maturity=1.0)
MARKET = MarketParams()
CAP = CapitalParams()

NO_CAPITAL = lambda t, s, m: 0.0 * m


def _mark_fn(option):
    return lambda t, s: bs_value(option, s, t, MARKET)


def test_closeout_value_cases():
    # partial recovery on the uncollateralized gap
    assert closeout_value(10.0, 9.0, 0.78) == pytest.approx(9.78)
    # over-collateralized: excess returned in full, close-out is the mark
    assert closeout_value(5.0, 8.0, 0.78) == pytest.approx(5.0)
    # full recovery reproduces the mark
    assert closeout_value(10.0, 3.0, 1.0) == pytest.approx(10.0)
    arr = closeout_value(np.array([10.0, 5.0]), np.array([9.0, 8.0]), 0.78)
    assert np.allclose(arr, [9.78, 5.0])


def test_collateral_amount():
    assert collateral_amount(2.0, 0.9) == pytest.approx(1.8)
    assert np.allclose(collateral_amount(np.array([1.0, -2.0]), 0.5), [0.5, -1.0])


def test_spread_and_intensity_forms_agree():
    # the loss coefficient can be built either as a bond-repo spread or as
    # intensity times loss-given-default; the validated parameter set makes
    # the two expressions identical, so the driver is form-independent
    assert MARKET.cpty_spread == pytest.approx(
        MARKET.cpty_intensity * (1.0 - MARKET.cpty_recovery), rel=1e-12)
    assert MARKET.cpty_spread == pytest.approx(
        MARKET.cpty_bond_yield - MARKET.cpty_repo_rate, rel=1e-12)


def test_linear_driver_is_affine_in_v():
    spot = np.linspace(1.0, 40.0, 9)
    mark = _mark_fn(PUT)
    args = dict(option=PUT, market=MARKET, capital=CAP, riskfree_fn=mark)
    v0 = np.zeros_like(spot)
    v1 = np.full_like(spot, 1.0)
    v2 = np.full_like(spot, 2.0)
    f0 = driver_value("linear", 0.3, spot, v0, **args)
    f1 = driver_value("linear", 0.3, spot, v1, **args)
    f2 = driver_value("linear", 0.3, spot, v2, **args)
    # second difference vanishes and the slope is rB + lamC
    assert np.allclose(f2 - 2.0 * f1 + f0, 0.0, atol=1e-12)
    slope = MARKET.issuer_funding_rate + MARKET.cpty_intensity
    assert np.allclose(f1 - f0, slope, atol=1e-12)
    assert slope == pytest.approx(0.060399 + 0.0103, rel=1e-10)


def test_linear_driver_value_reconstructed_by_hand():
    spot = np.array([15.0])
    t = 0.25
    mark = bs_value(PUT, spot, t, MARKET)
    v = np.array([0.7])
    got = driver_value("linear", t, spot, v, PUT, MARKET, CAP,
                       riskfree_fn=_mark_fn(PUT))
    from xvadg.capital import capital_requirement
    coll = MARKET.collateral_fraction * mark
    k = capital_requirement(t, spot, mark, PUT, MARKET, CAP).k_total
    rb = MARKET.issuer_funding_rate
    expect = ((rb + MARKET.cpty_intensity) * v - MARKET.cpty_intensity * mark
              + MARKET.cpty_spread * np.maximum(mark - coll, 0.0)
              + (MARKET.collateral_rate - rb) * coll
              + (MARKET.capital_hurdle - MARKET.capital_funding_fraction * rb) * k)
    assert np.allclose(got, expect, rtol=1e-14)


def test_nonlinear_driver_monotone_increment():
    # the semilinear driver's v-increment is bounded between rB and
    # rB + spread*(1-fraction) + collateral and capital slopes: check the
    # one-sided Lipschitz property (F(v2)-F(v1))(v2-v1) bounded by C(v2-v1)^2
    rng = np.random.default_rng(7)
    spot = rng.uniform(0.5, 50.0, 64)
    v1 = rng.uniform(-2.0, 8.0, 64)
    v2 = v1 + rng.uniform(0.0, 3.0, 64)
    args = dict(option=CALL, market=MARKET, capital=CAP)
    f1 = driver_value("nonlinear", 0.4, spot, v1, **args)
    f2 = driver_value("nonlinear", 0.4, spot, v2, **args)
    dv = v2 - v1
    ratio = (f2 - f1) / np.where(dv == 0.0, 1.0, dv)
    assert np.all(np.abs(ratio) < 0.5)
    assert np.all(np.isfinite(ratio))


def test_garcia_and_reference_forms():
    spot = np.linspace(2.0, 40.0, 7)
    v = np.linspace(-1.0, 1.0, 7)
    mark = _mark_fn(CALL)
    from xvadg.capital import capital_requirement
    m = mark(0.2, spot)
    k = capital_requirement(0.2, spot, m, CALL, MARKET, CAP).k_total
    rb = MARKET.issuer_funding_rate
    got = driver_value("garcia", 0.2, spot, v, CALL, MARKET, CAP, riskfree_fn=mark)
    expect = (MARKET.capital_hurdle + MARKET.cpty_intensity) * v \
        + (MARKET.capital_hurdle - rb) * k
    assert np.allclose(got, expect, rtol=1e-14)
    got_ref = driver_value("garcia_ref", 0.2, spot, v, CALL, MARKET, CAP,
                           riskfree_fn=mark)
    expect_ref = (rb + MARKET.cpty_intensity) * v \
        + (MARKET.capital_hurdle - MARKET.capital_funding_fraction * rb) * k
    assert np.allclose(got_ref, expect_ref, rtol=1e-14)


@pytest.mark.parametrize("option", [PUT, CALL], ids=["put", "call"])
def test_driver_value_equals_hand_built_formulas_bitwise(option):
    # driver_value is the (t, S) level part followed by the evaluation in v;
    # both keep the arithmetic of the one-line formulas, so every kind
    # matches them bit for bit, including the nonlinear capital stack split
    # at the add-on, and one level serves any number of v
    spot = np.linspace(0.5, 45.0, 13)
    v = np.linspace(-1.5, 4.0, 13)
    t = 0.35
    mark = bs_value(option, spot, t, MARKET)
    k_mark = capital_requirement(t, spot, mark, option, MARKET, CAP).k_total
    rb = MARKET.issuer_funding_rate
    lam = MARKET.cpty_intensity
    loss = MARKET.cpty_spread
    hurdle = MARKET.capital_hurdle
    phi = MARKET.capital_funding_fraction
    coll_mark = MARKET.collateral_fraction * mark

    def nonlinear(v):
        coll = MARKET.collateral_fraction * v
        k = capital_requirement(t, spot, v, option, MARKET, CAP).k_total
        return (rb * v + loss * np.maximum(v - coll, 0.0)
                + (MARKET.collateral_rate - rb) * coll + (hurdle - phi * rb) * k)

    hand = {
        "linear": lambda v: ((rb + lam) * v - lam * mark
                             + loss * np.maximum(mark - coll_mark, 0.0)
                             + (MARKET.collateral_rate - rb) * coll_mark
                             + (hurdle - phi * rb) * k_mark),
        "nonlinear": nonlinear,
        "garcia": lambda v: (hurdle + lam) * v + (hurdle - rb) * k_mark,
        "garcia_ref": lambda v: (rb + lam) * v + (hurdle - phi * rb) * k_mark,
        "riskfree": lambda v: MARKET.risk_free_rate * v,
    }
    assert set(hand) == set(ALL_DRIVER_KINDS)
    for kind, formula in hand.items():
        args = (option, MARKET, CAP, _mark_fn(option))
        assert np.array_equal(driver_value(kind, t, spot, v, *args), formula(v)), kind
        level = driver_level(kind, t, spot, *args)
        for w in (v, 2.0 * v - 1.0):
            assert np.array_equal(level(w), formula(w)), kind


def test_riskfree_driver():
    v = np.array([0.0, 1.0, -3.0])
    got = driver_value("riskfree", 0.9, np.ones(3), v, CALL, MARKET, CAP)
    assert np.allclose(got, MARKET.risk_free_rate * v)


def test_capital_kill_switch():
    # with capital off and full collateralization at the adjusted value,
    # the nonlinear driver collapses to rB v + (rX - rB) X
    spot = np.linspace(1.0, 30.0, 5)
    v = np.linspace(0.0, 4.0, 5)
    got = driver_value("nonlinear", 0.1, spot, v, CALL, MARKET, CAP,
                       capital_fn=NO_CAPITAL)
    coll = MARKET.collateral_fraction * v
    rb = MARKET.issuer_funding_rate
    expect = rb * v + MARKET.cpty_spread * np.maximum(v - coll, 0.0) \
        + (MARKET.collateral_rate - rb) * coll
    assert np.allclose(got, expect, rtol=1e-14)


def test_missing_mark_function_raises():
    v = np.ones(3)
    s = np.ones(3)
    for kind in ("linear", "garcia", "garcia_ref"):
        with pytest.raises(ValueError, match="default-free mark"):
            driver_value(kind, 0.0, s, v, CALL, MARKET, CAP)


def test_unknown_kind_raises():
    with pytest.raises(ValueError, match="unknown driver kind"):
        driver_value("exotic", 0.0, np.ones(2), np.ones(2), CALL, MARKET, CAP)
    assert set(ALL_DRIVER_KINDS) == {"linear", "nonlinear", "garcia",
                                     "garcia_ref", "riskfree"}


def test_source_term_sign_convention():
    # marching runs in time-to-maturity; the source is the conservative-form
    # zeroth-order remainder minus the driver at the reflected time
    spot = np.linspace(5.0, 25.0, 5)
    v = np.linspace(0.5, 2.5, 5)
    tau = 0.3
    mark = _mark_fn(PUT)
    f = driver_value("linear", PUT.maturity - tau, spot, v, PUT, MARKET, CAP,
                     riskfree_fn=mark)
    got = source_term("linear", tau, spot, v, PUT, MARKET, CAP, riskfree_fn=mark)
    expect = (MARKET.sigma ** 2 - MARKET.drift) * v - f
    assert np.allclose(got, expect, rtol=1e-14)
