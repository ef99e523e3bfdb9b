"""Metamorphic identities of the pricing model, checked on the PDE and the
quadrature without a reference solver: the `nonlinear` and `linear`
conventions agree to first order in the costs, and the model is homogeneous
of degree 1 in (S, K, v) except for the capital's shifted log-moneyness."""

import dataclasses

import numpy as np
import pytest

from kernels_reference import capital_off
from xvadg.cli import SWEEP_SPOTS
from xvadg.config import MarketParams, benchmark_config, config_from_dict
from xvadg.solver import solve, xva_breakdown

SPOTS = np.arange(5.0, 31.0)
BASE = MarketParams()


def _cost_scaled_xva(option_kind, driver, degree, eps):
    """xva at ``SPOTS`` with both intensities, r_X - r and gamma_K - r_B
    scaled by ``eps``; ``config_from_dict`` derives the credit rates."""
    config = config_from_dict({
        "kind": option_kind, "driver": driver, "degree": degree, "cells": 640,
        "issuer_intensity": eps * BASE.issuer_intensity,
        "cpty_intensity": eps * BASE.cpty_intensity,
        "collateral_rate": BASE.risk_free_rate
        + eps * (BASE.collateral_rate - BASE.risk_free_rate)})
    market = config.market
    hurdle = market.issuer_funding_rate + eps * (BASE.capital_hurdle - BASE.issuer_funding_rate)
    config = dataclasses.replace(config, market=dataclasses.replace(market,
                                                                    capital_hurdle=hurdle))
    return solve(config).xva(SPOTS)


@pytest.mark.parametrize("degree", (1, 2))
@pytest.mark.parametrize("option_kind", ("put", "call"))
def test_nonlinear_minus_linear_is_second_order_in_the_costs(option_kind, degree):
    # each adjustment is first order in eps and the two conventions differ
    # only where a cost reads the adjusted value in place of the mark, so
    # their gap falls 4x per halving; measured 3.955-4.011 at 640 cells.
    # An issuer spread added to the nonlinear collateral coefficient is
    # first order and drops the ratios towards 2
    gaps = np.array([np.max(np.abs(_cost_scaled_xva(option_kind, "nonlinear", degree, eps)
                                   - _cost_scaled_xva(option_kind, "linear", degree, eps)))
                     for eps in (1.0, 0.5, 0.25, 0.125)])
    ratios = gaps[:-1] / gaps[1:]
    assert np.all((ratios >= 3.8) & (ratios <= 4.2)), ratios


def _strike_scale_gap(option_kind, driver, degree, spots, capital=True):
    """The strike-150 xva read at 10x ``spots`` and divided by 10, minus
    the strike-15 xva at ``spots``, and the latter, both on 320 cells; with
    ``capital`` false, on the market whose hurdle switches capital off."""
    base = benchmark_config(option_kind, driver, cells=320, degree=degree)
    if not capital:
        base = dataclasses.replace(base, market=capital_off(base.market))
    big = dataclasses.replace(base, option=dataclasses.replace(base.option, strike=150.0))
    small = solve(base).xva(spots)
    return solve(big).xva(10.0 * spots) / 10.0 - small, small


@pytest.mark.parametrize("driver, degree, option_kind, bound", [
    ("linear", 1, "put", 1e-10), ("linear", 2, "put", 1e-10),
    ("nonlinear", 1, "put", 1e-10), ("nonlinear", 2, "put", 1e-10),
    ("linear", 1, "call", 1e-8), ("nonlinear", 1, "call", 1e-8)])
def test_capital_off_the_model_scales_with_the_strike(driver, degree, option_kind, bound):
    # with no capital the model is homogeneous in (S, K, v) and the mesh
    # (s_max = 4K) scales with the strike: measured at most 1.3e-11
    # relative for puts and 9.5e-10 (linear), 1.12e-9 (nonlinear) for
    # degree-1 calls.  Degree-2 calls read 2.5e-7-5.7e-7, the rounding
    # noise of their s_max boundary closure (ROADMAP item 2), so they are
    # left out
    gap, xva = _strike_scale_gap(option_kind, driver, degree, SPOTS, capital=False)
    assert np.max(np.abs(gap)) <= bound * np.max(np.abs(xva))


@pytest.mark.parametrize("option_kind", ("put", "call"))
def test_capital_off_garcia_scales_with_the_strike_exactly(option_kind):
    # garcia with no capital has no source: both adjustments are exactly 0
    gap, xva = _strike_scale_gap(option_kind, "garcia", 1, SPOTS, capital=False)
    assert not np.any(gap) and not np.any(xva)


@pytest.mark.parametrize("degree", (1, 2))
@pytest.mark.parametrize("option_kind, lowest, highest", [("put", 2.0e-5, 2.5e-5),
                                                          ("call", 3.3e-5, 3.8e-5)])
def test_capital_on_the_strike_gap_is_the_supervisory_shift(option_kind, lowest, highest,
                                                           degree):
    # the capital's log((S + 0.01)/(K + 0.01)) is not homogeneous, so the
    # strike identity misses by the shift's effect.  The quadrature, which
    # has no mesh, misses by the same amount: max |gap| 2.24e-5 (put) and
    # 3.50e-5 (call) at the sweep spots, and the PDE gap agrees with it
    # spot by spot to 6.4e-7 at 320 cells, so the gap is the model's
    spots = np.asarray(SWEEP_SPOTS)
    gap, _ = _strike_scale_gap(option_kind, "linear", degree, spots)
    config = benchmark_config(option_kind)
    big = dataclasses.replace(config.option, strike=150.0)
    quad = np.array([xva_breakdown(10.0 * s, big, config.market, config.capital).total / 10.0
                     - xva_breakdown(s, config.option, config.market, config.capital).total
                     for s in spots])
    for g in (gap, quad):
        assert lowest <= np.max(np.abs(g)) <= highest
    assert np.max(np.abs(gap - quad)) <= 1e-6
