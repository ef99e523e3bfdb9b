"""Analytic layer vs independent oracles.

The closed-form prices are checked against a binomial tree and a direct
integration of the payoff against the lognormal density; both oracles live
only in this file.  Parity, boundary behavior, finite-difference greeks,
the pricing PDE residual and the quadrature kernel's moment identities
complete the suite.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

import kernels_reference as ref
from kernels_reference import bits
from xvadg.black_scholes import (LognormalKernel, bs_delta, bs_gamma,
                                 bs_value, lognormal_expectation, mark_at,
                                 mark_space, mark_times, norm_cdf)
from xvadg.config import MarketParams, OptionSpec, payoff

MARKET = MarketParams()
CALL = OptionSpec(kind="call", strike=15.0, maturity=1.0)
PUT = OptionSpec(kind="put", strike=15.0, maturity=1.0)
SPOTS = np.array([5.0, 10.0, 14.0, 15.0, 16.0, 20.0, 30.0, 60.0])

# market with a nonzero repo/dividend basis, so drift != risk-free rate
BASIS_MARKET = MarketParams(stock_repo_rate=0.07, dividend_yield=0.02)


def _binomial_value(option, spot, market, steps=2000):
    """Recombining-tree oracle: stock compounds at the drift, discounting
    at the risk-free rate."""
    dt = option.maturity / steps
    up = np.exp(market.sigma * np.sqrt(dt))
    down = 1.0 / up
    prob_up = (np.exp(market.drift * dt) - down) / (up - down)
    disc = np.exp(-market.risk_free_rate * dt)
    j = np.arange(steps + 1)
    vals = payoff(option, spot * up ** j * down ** (steps - j))
    for _ in range(steps):
        vals = disc * (prob_up * vals[1:] + (1.0 - prob_up) * vals[:-1])
    return float(vals[0])


def _density_value(option, spot, market, points=200001):
    """Direct trapezoid integration of the discounted payoff against the
    lognormal terminal density."""
    tau = option.maturity
    mu = np.log(spot) + (market.drift - 0.5 * market.sigma ** 2) * tau
    sd = market.sigma * np.sqrt(tau)
    x = np.linspace(mu - 14.0 * sd, mu + 14.0 * sd, points)
    dens = np.exp(-0.5 * ((x - mu) / sd) ** 2) / (sd * np.sqrt(2.0 * np.pi))
    vals = payoff(option, np.exp(x)) * dens
    return float(np.exp(-market.risk_free_rate * tau) * np.trapezoid(vals, x))


@pytest.mark.parametrize("option", [CALL, PUT], ids=["call", "put"])
@pytest.mark.parametrize("market", [MARKET, BASIS_MARKET], ids=["flat", "basis"])
def test_value_against_binomial_tree(option, market):
    for s in (5.0, 10.0, 15.0, 20.0, 30.0):
        ref = _binomial_value(option, s, market)
        got = bs_value(option, s, 0.0, market)
        assert got == pytest.approx(ref, abs=2e-3, rel=2e-3)


@pytest.mark.parametrize("option", [CALL, PUT], ids=["call", "put"])
def test_value_against_density_quadrature(option):
    for s in (5.0, 15.0, 30.0):
        ref = _density_value(option, s, MARKET)
        got = bs_value(option, s, 0.0, MARKET)
        assert got == pytest.approx(ref, abs=1e-8)


@pytest.mark.parametrize("market", [MARKET, BASIS_MARKET], ids=["flat", "basis"])
def test_put_call_parity_to_machine_precision(market):
    tau = 1.0
    for t in (0.0, 0.4):
        fwd_disc = np.exp((market.drift - market.risk_free_rate) * (tau - t))
        k_disc = 15.0 * np.exp(-market.risk_free_rate * (tau - t))
        for s in SPOTS:
            lhs = bs_value(CALL, s, t, market) - bs_value(PUT, s, t, market)
            rhs = s * fwd_disc - k_disc
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_expiry_and_boundary_values():
    assert bs_value(CALL, 20.0, 1.0, MARKET) == pytest.approx(5.0, abs=0.0)
    assert bs_value(PUT, 20.0, 1.0, MARKET) == 0.0
    assert bs_value(CALL, 0.0, 0.0, MARKET) == 0.0
    assert bs_value(PUT, 0.0, 0.0, MARKET) == pytest.approx(
        15.0 * np.exp(-0.06), rel=1e-14)
    assert bs_delta(CALL, 20.0, 1.0, MARKET) == 1.0
    assert bs_delta(PUT, 20.0, 1.0, MARKET) == 0.0
    assert bs_gamma(CALL, 20.0, 1.0, MARKET) == 0.0


_SPOT = st.one_of(st.sampled_from([0.0, 1e-300, 15.0, 60.0]), st.floats(0.0, 100.0))


@st.composite
def _march_times(draw):
    """A vector of times as a march meets them: 0, maturity, times beyond
    it, drawn times, and the floats adjacent to maturity and to a drawn
    time."""
    drawn = draw(st.lists(st.floats(0.0, 1.5), min_size=1, max_size=5))
    near = drawn[0]
    return np.array([0.0, 1.0, 1.25, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                     np.nextafter(near, -1.0), np.nextafter(near, 2.0), *drawn])


@settings(max_examples=60)
@given(option=st.sampled_from([CALL, PUT]), market=st.sampled_from([MARKET, BASIS_MARKET]),
       spot=st.one_of(_SPOT, st.lists(_SPOT, min_size=1, max_size=12).map(np.array)),
       times=_march_times())
def test_mark_time_table_rows_equal_the_formula_bitwise(option, market, spot, times):
    # the space part built once, the time table over every time at once and
    # the joint work at one row give the one-line closed form at that
    # scalar time bit for bit, the payoff at and beyond maturity, and so
    # does bs_value, which is the three parts at one time
    space = mark_space(option, spot)
    table = mark_times(option, times, market)
    for i, t in enumerate(times):
        want = bits(ref.bs_value(option, spot, float(t), market))
        assert np.array_equal(bits(mark_at(option, space, table[i])), want), t
        assert np.array_equal(bits(bs_value(option, spot, float(t), market)), want), t


@pytest.mark.parametrize("option", [CALL, PUT], ids=["call", "put"])
def test_greeks_match_finite_differences(option):
    for s in (10.0, 15.0, 22.0):
        h = 1e-5 * s
        fd_delta = (bs_value(option, s + h, 0.0, MARKET)
                    - bs_value(option, s - h, 0.0, MARKET)) / (2.0 * h)
        assert bs_delta(option, s, 0.0, MARKET) == pytest.approx(fd_delta, abs=1e-8)
        fd_gamma = (bs_delta(option, s + h, 0.0, MARKET)
                    - bs_delta(option, s - h, 0.0, MARKET)) / (2.0 * h)
        assert bs_gamma(option, s, 0.0, MARKET) == pytest.approx(fd_gamma, abs=1e-7)


@pytest.mark.parametrize("option", [CALL, PUT], ids=["call", "put"])
@pytest.mark.parametrize("market", [MARKET, BASIS_MARKET], ids=["flat", "basis"])
def test_closed_form_solves_the_pricing_pde(option, market):
    """V_t + 0.5 sigma^2 S^2 V_SS + drift S V_S - r V = 0 (theta by FD)."""
    t, eps = 0.5, 1e-6
    for s in (8.0, 15.0, 25.0):
        theta = (bs_value(option, s, t + eps, market)
                 - bs_value(option, s, t - eps, market)) / (2.0 * eps)
        residual = (theta
                    + 0.5 * market.sigma ** 2 * s ** 2 * bs_gamma(option, s, t, market)
                    + market.drift * s * bs_delta(option, s, t, market)
                    - market.risk_free_rate * bs_value(option, s, t, market))
        assert abs(residual) < 1e-6


def test_norm_cdf_reference_values():
    # published table values, machine-checkable through erf
    assert norm_cdf(0.0) == pytest.approx(0.5, abs=0.0)
    assert norm_cdf(0.75) == pytest.approx(0.7733726476231317, abs=1e-12)
    assert norm_cdf(1.96) == pytest.approx(0.9750021048517795, abs=1e-12)
    assert norm_cdf(-1.0) == pytest.approx(0.15865525393145707, abs=1e-12)
    x = np.linspace(-6, 6, 41)
    assert np.allclose(norm_cdf(x) + norm_cdf(-x), 1.0, atol=1e-15)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.int64)


_EDGE = 6.0 * np.sqrt(2.0)   # |x| where erf(x / sqrt(2)) saturates


@pytest.mark.parametrize("saturated", [0.0, 0.1, 0.5, 0.9])
def test_norm_cdf_is_bitwise_plain_erf(saturated):
    # the saturation cut (erf only where |x/sqrt2| < 6, the sign elsewhere)
    # and the plain path agree with 0.5 (1 + erf(x/sqrt2)) on every bit:
    # a few ulps around +-6 sqrt2, on [5.5, 6.5] sqrt2 and [6, 40] sqrt2,
    # at +-0, +-inf and NaN,
    # with the saturated share on either side of the quarter that picks
    # the path
    rng = np.random.default_rng(5)
    near = np.concatenate([_EDGE + np.arange(-40, 41) * np.spacing(_EDGE),
                           np.sqrt(2.0) * np.linspace(5.5, 6.5, 2001)])
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, _EDGE, -_EDGE])
    inner = np.concatenate([near, -near, special, rng.uniform(-9.0, 9.0, 4000)])
    n_out = int(saturated * inner.size / (1.0 - saturated))
    outer = np.sqrt(2.0) * rng.uniform(6.0, 40.0, n_out) * rng.choice([-1.0, 1.0], n_out)
    x = rng.permutation(np.concatenate([inner, outer]))
    want = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
    assert np.array_equal(_bits(norm_cdf(x)), _bits(want))
    grid = np.sqrt(2.0) * np.linspace(6.0, 40.0, 100_001)
    for sign in (1.0, -1.0):
        assert np.array_equal(_bits(norm_cdf(sign * grid)),
                              _bits(0.5 * (1.0 + erf(sign * grid / np.sqrt(2.0)))))
    for v in (0.0, -0.0, _EDGE, -_EDGE, 9.0, -9.0, np.inf, -np.inf, np.nan):
        assert np.ndim(norm_cdf(v)) == 0
        assert _bits(norm_cdf(v)) == _bits(0.5 * (1.0 + erf(v / np.sqrt(2.0))))
    assert norm_cdf(np.empty(0)).shape == (0,)


def test_kernel_moment_identities():
    for spot, sigma, h in [(15.0, 0.3, 1.0), (5.0, 0.3, 0.25), (30.0, 0.05, 1.0)]:
        kernel = LognormalKernel(spot=spot, drift=0.06, sigma=sigma, horizon=h)
        one = lognormal_expectation(lambda s: np.ones_like(s), kernel)
        mean = lognormal_expectation(lambda s: s, kernel)
        second = lognormal_expectation(lambda s: s * s, kernel)
        assert one == pytest.approx(1.0, rel=1e-13)
        assert mean == pytest.approx(spot * np.exp(0.06 * h), rel=1e-10)
        assert second == pytest.approx(
            spot ** 2 * np.exp((2 * 0.06 + sigma ** 2) * h), rel=1e-10)


def test_kernel_zero_horizon_is_point_mass():
    kernel = LognormalKernel(spot=12.0, drift=0.06, sigma=0.3, horizon=0.0)
    assert lognormal_expectation(lambda s: s ** 3, kernel) == pytest.approx(12.0 ** 3)


@pytest.mark.parametrize("option", [CALL, PUT], ids=["call", "put"])
def test_kernel_tower_property(option):
    """Discounted kernel expectation of the mid-horizon value reproduces the
    time-zero value: the identity the decomposition quadrature is built on."""
    for s in (5.0, 15.0, 30.0):
        for u, tol in ((0.25, 1e-12), (0.5, 1e-12), (0.9, 1e-6)):
            kernel = LognormalKernel(spot=s, drift=MARKET.drift,
                                     sigma=MARKET.sigma, horizon=u)
            disc = np.exp(-MARKET.risk_free_rate * u)
            got = disc * lognormal_expectation(
                lambda x: bs_value(option, x, u, MARKET), kernel)
            assert got == pytest.approx(bs_value(option, s, 0.0, MARKET), abs=tol)
