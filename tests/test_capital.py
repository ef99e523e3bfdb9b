"""Regulatory capital chain: supervisory delta, maturity factor, multiplier
limits, exposure flooring, component identities, Lipschitz and monotonicity
properties."""

import numpy as np
import pytest
from scipy.special import erf

from xvadg.capital import (capital_requirement, capital_requirement_parts,
                           maturity_factor, supervisory_delta)
from xvadg.config import CapitalParams, MarketParams, OptionSpec

CALL = OptionSpec(kind="call", strike=15.0, maturity=1.0)
PUT = OptionSpec(kind="put", strike=15.0, maturity=1.0)
CAP = CapitalParams()
MARKET = MarketParams()


def test_maturity_factor_values():
    assert maturity_factor(0.0, 1.0, CAP) == pytest.approx(1.0, abs=0.0)
    # at expiry only the 10-business-day window remains
    assert maturity_factor(1.0, 1.0, CAP) == pytest.approx(np.sqrt(10.0 / 360.0))
    t = np.linspace(0.0, 1.0, 7)
    mf = maturity_factor(t, 1.0, CAP)
    assert np.all(np.diff(mf) <= 0.0)
    assert np.all((mf > 0.0) & (mf <= 1.0))


def test_supervisory_delta_at_the_money_reference_value():
    # at S = K the log shift cancels and the delta is Phi(vol/2) exactly;
    # the 1.5-vol variant reproduces the published 0.77337 figure
    printed = CapitalParams(supervisory_vol=1.5)
    d = supervisory_delta(CALL, 15.0, 0.0, printed.supervisory_vol)
    assert d == pytest.approx(0.7733726476231317, abs=1e-12)
    d_put = supervisory_delta(PUT, 15.0, 0.0, printed.supervisory_vol)
    assert d_put == pytest.approx(d - 1.0, abs=1e-12)
    # default vol: same identity at its own value
    assert supervisory_delta(CALL, 15.0, 0.0, CAP.supervisory_vol) == pytest.approx(
        0.5 * (1.0 + erf(0.5 * 1.2 / np.sqrt(2.0))), abs=1e-14)


def test_supervisory_delta_against_spreadsheet_formula():
    """Independent erf recomputation of the shifted Black delta."""
    rng = np.random.default_rng(11)
    spots = rng.uniform(0.0, 60.0, 40)
    times = rng.uniform(0.0, 1.0, 40)
    h = np.maximum(1.0 - times, 1.0 / 360.0)
    arg = (np.log((spots + 0.01) / 15.01) + 0.5 * 1.2 ** 2 * h) / (1.2 * np.sqrt(h))
    expect_call = 0.5 * (1.0 + erf(arg / np.sqrt(2.0)))
    got_call = supervisory_delta(CALL, spots, times, 1.2)
    assert np.allclose(got_call, expect_call, atol=1e-14)
    got_put = supervisory_delta(PUT, spots, times, 1.2)
    assert np.allclose(got_put, -(1.0 - expect_call), atol=1e-14)


def test_supervisory_delta_bounds_and_monotonicity():
    s = np.linspace(0.0, 60.0, 121)
    for t in (0.0, 0.5, 0.999, 1.0):
        d_call = supervisory_delta(CALL, s, t, CAP.supervisory_vol)
        d_put = supervisory_delta(PUT, s, t, CAP.supervisory_vol)
        # near expiry the one-day floor leaves deep tails that round to the
        # endpoints in floating point, so the bounds are closed there
        assert np.all((d_call >= 0.0) & (d_call <= 1.0))
        assert np.all((d_put >= -1.0) & (d_put <= 0.0))
        assert np.all(np.diff(d_call) >= 0.0)
        assert np.allclose(d_put, d_call - 1.0, atol=1e-15)
    mid = supervisory_delta(CALL, s, 0.5, CAP.supervisory_vol)
    assert np.all((mid > 0.0) & (mid < 1.0))


def test_multiplier_slope_variants_at_zero_gap():
    # uncollateralized positive mark, gap = mark - collateral = 0 case:
    # the regulation's slope gives multiplier exactly 1, the 0.095 variant
    # would freeze it at 0.145
    mark = 2.0
    parts = capital_requirement_parts(mark, mark, 20.0, 0.0, CALL, CAP)
    assert parts.multiplier == pytest.approx(1.0, abs=0.0)
    odd = CapitalParams(multiplier_slope=0.095)
    parts_odd = capital_requirement_parts(mark, mark, 20.0, 0.0, CALL, odd)
    assert parts_odd.multiplier == pytest.approx(0.145, abs=1e-15)


def test_multiplier_floor_and_cap_limits():
    # heavily over-collateralized: multiplier decays to the floor
    parts = capital_requirement_parts(0.0, 1e6, 20.0, 0.0, CALL, CAP)
    assert parts.multiplier == pytest.approx(CAP.multiplier_floor, abs=1e-12)
    # huge positive gap with a small add-on: exponent guard keeps it finite
    with np.errstate(over="raise"):
        parts = capital_requirement_parts(1e8, 0.0, 0.5, 0.0, CALL, CAP)
    assert parts.multiplier == 1.0
    # range property on a sampled grid
    rng = np.random.default_rng(5)
    marks = rng.uniform(-5.0, 10.0, 200)
    parts = capital_requirement_parts(marks, 0.9 * marks, 18.0, 0.3, CALL, CAP)
    assert np.all((parts.multiplier > 0.0) & (parts.multiplier <= 1.0))


def test_zero_spot_and_zero_mark_cases():
    # S = 0 kills the add-on exactly, so EAD = alpha * RC
    parts = capital_requirement_parts(2.0, 1.8, 0.0, 0.0, CALL, CAP)
    assert parts.addon == 0.0
    assert parts.pfe == 0.0
    assert parts.ead == pytest.approx(CAP.saccr_alpha * 0.2, rel=1e-14)
    # no position at all: no capital
    parts = capital_requirement_parts(0.0, 0.0, 0.0, 0.0, CALL, CAP)
    assert parts.k_total == 0.0


def test_capital_ratio_scales_risk_components_only():
    doubled = CapitalParams(capital_ratio=0.16)
    base = capital_requirement_parts(1.5, 1.35, 20.0, 0.2, CALL, CAP)
    big = capital_requirement_parts(1.5, 1.35, 20.0, 0.2, CALL, doubled)
    assert big.k_ccr == pytest.approx(2.0 * base.k_ccr, rel=1e-14)
    assert big.k_cva == pytest.approx(2.0 * base.k_cva, rel=1e-14)
    assert big.k_lr == pytest.approx(base.k_lr, rel=1e-14)


def test_put_negative_addon_can_zero_the_exposure():
    # collateralized at-the-money put: the signed add-on nets RC + PFE
    # below zero, the floored exposure vanishes and only the leverage
    # branch remains
    mark = 1.334
    parts = capital_requirement_parts(mark, 0.9 * mark, 15.0, 0.0, PUT, CAP)
    assert parts.addon < 0.0
    assert parts.ead == 0.0
    assert parts.k_ccr == 0.0 and parts.k_cva == 0.0
    assert parts.k_total == pytest.approx(parts.k_lr)
    assert parts.k_total >= 0.0


def test_total_is_max_structure_and_nonnegative():
    rng = np.random.default_rng(99)
    spots = rng.uniform(0.0, 60.0, 300)
    times = rng.uniform(0.0, 1.0, 300)
    marks = rng.uniform(-3.0, 12.0, 300)
    for option in (CALL, PUT):
        parts = capital_requirement_parts(marks, 0.9 * marks, spots, times,
                                          option, CAP)
        assert np.allclose(parts.k_total,
                           np.maximum(parts.k_ccr + parts.k_cva, parts.k_lr),
                           atol=0.0)
        assert np.all(parts.k_total >= 0.0)
        assert np.all(parts.ead >= 0.0)
        assert np.allclose(parts.ead,
                           CAP.saccr_alpha
                           * np.maximum(parts.replacement_cost + parts.pfe, 0.0),
                           rtol=1e-14)
        assert np.allclose(parts.rwa_ccr, CAP.ccr_risk_weight * 12.5 * parts.ead,
                           rtol=1e-14)
        assert np.allclose(parts.k_ccr, CAP.capital_ratio * parts.rwa_ccr,
                           rtol=1e-14)


def test_call_capital_monotone_in_mark():
    marks = np.linspace(0.0, 10.0, 201)
    for t in (0.0, 0.5):
        parts = capital_requirement_parts(marks, 0.9 * marks, 20.0, t, CALL, CAP)
        assert np.all(np.diff(parts.k_total) >= -1e-12)


def test_capital_lipschitz_in_mark():
    rng = np.random.default_rng(1234)
    spots = rng.uniform(0.1, 60.0, 500)
    times = rng.uniform(0.0, 1.0, 500)
    marks = rng.uniform(-2.0, 10.0, 500)
    h = 1e-6
    for option in (CALL, PUT):
        lo = capital_requirement_parts(marks, 0.9 * marks, spots, times,
                                       option, CAP).k_total
        hi = capital_requirement_parts(marks + h, 0.9 * (marks + h), spots,
                                       times, option, CAP).k_total
        assert np.all(np.abs(hi - lo) / h < 1.0)


def test_capital_requirement_defaults_collateral_fraction():
    direct = capital_requirement(0.25, 18.0, 2.2, CALL, MARKET, CAP)
    explicit = capital_requirement_parts(2.2, MARKET.collateral_fraction * 2.2,
                                         18.0, 0.25, CALL, CAP)
    assert direct.k_total == pytest.approx(explicit.k_total, rel=1e-15)


def test_scalar_inputs_give_scalar_outputs():
    parts = capital_requirement_parts(1.0, 0.9, 20.0, 0.1, CALL, CAP)
    for name in ("delta", "mat_factor", "replacement_cost", "addon",
                 "multiplier", "pfe", "ead", "k_total"):
        assert isinstance(getattr(parts, name), float)
