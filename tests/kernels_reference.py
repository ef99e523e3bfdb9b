"""The normal CDF, the closed-form mark, the capital stack and the drivers
as one-line numpy expressions at one time, each operation on fresh arrays
in the order the formulas are written, and the two IMEX steps written out
by hand.  The split, level-hoisted, in-place and table-driven kernels of
``xvadg`` must give these values bit for bit; the tests compare them with
``.view(np.int64)`` or ``np.array_equal``.

Two test seams into the drivers sit here too: ``capital_off`` is the market
whose hurdle is the funded rate, where the model prices no capital cost,
and ``use_capital_profile`` puts a capital profile of a test's own where
every driver level reads its capital."""

import dataclasses
from types import SimpleNamespace

import numpy as np
from scipy.special import erf

from xvadg import drivers
from xvadg.config import payoff
from xvadg.imex import ALPHA1, ALPHA2, BETA1, BETA2, GAMMA2, GAMMA3, KAPPA2

_SQRT2 = np.sqrt(2.0)


def norm_cdf(x):
    return 0.5 * (1.0 + erf(np.asarray(x, dtype=float) / _SQRT2))


def bs_value(option, spot, t, market):
    s = np.asarray(spot, dtype=float)
    tau = option.maturity - t
    if tau <= 0.0:
        return payoff(option, s)
    vol = market.sigma * np.sqrt(tau)
    # S/K underflows to 0 below S ~ 7e-323: log gives -inf, as in the engine
    with np.errstate(divide="ignore"):
        logm = np.log(np.where(s > 0.0, s, 1.0) / option.strike)
    d1 = (logm + (market.drift + 0.5 * market.sigma ** 2) * tau) / vol
    d2 = d1 - vol
    growth = np.exp((market.drift - market.risk_free_rate) * tau)
    disc_k = option.strike * np.exp(-market.risk_free_rate * tau)
    if option.kind == "call":
        return np.where(s > 0.0, s * growth * norm_cdf(d1) - disc_k * norm_cdf(d2), 0.0)
    return np.where(s > 0.0, disc_k * norm_cdf(-d2) - s * growth * norm_cdf(-d1), disc_k)


def supervisory_delta(option, spot, t, sigma_r):
    s = np.asarray(spot, dtype=float)
    h = np.maximum(option.maturity - np.asarray(t, dtype=float), 1.0 / 360.0)
    root = sigma_r * np.sqrt(h)
    arg = (np.log((s + 0.01) / (option.strike + 0.01)) + 0.5 * sigma_r ** 2 * h) / root
    return norm_cdf(arg) if option.kind == "call" else -norm_cdf(-arg)


def capital_parts(mark, collateral, spot, t, option, capital) -> dict:
    """Every intermediate of the capital stack, by ``CapitalBreakdown`` field."""
    delta = supervisory_delta(option, spot, t, capital.supervisory_vol)
    rem = option.maturity - np.asarray(t, dtype=float)
    mf = np.sqrt(np.clip(rem + capital.addon_days / capital.days_per_year, 0.0, 1.0))
    addon = capital.supervisory_factor * np.asarray(spot, dtype=float) * mf * delta
    m_ = np.asarray(mark, dtype=float)
    gap = m_ - np.asarray(collateral, dtype=float)
    rc = np.maximum(gap, 0.0)
    nonzero = addon != 0.0
    safe = np.where(nonzero, addon, 1.0)
    expo = np.clip(gap / (2.0 * (1.0 - capital.multiplier_floor) * safe), None, 50.0)
    m = np.minimum(1.0, capital.multiplier_floor + capital.multiplier_slope * np.exp(expo))
    mult = np.where(nonzero, m, 1.0)
    pfe = np.where(nonzero, mult * addon, 0.0)
    ead = capital.saccr_alpha * np.maximum(rc + pfe, 0.0)
    rwa_ccr = capital.ccr_risk_weight * 12.5 * ead
    m_eff = np.clip(rem, 0.0, 1.0)
    x = 0.05 * m_eff
    small = x < 5e-8
    xs = np.where(small, 1.0, x)
    ratio = np.where(small, 1.0 - 0.5 * x, (1.0 - np.exp(-xs)) / xs)
    rwa_cva = (12.5 * 0.65 / capital.saccr_alpha) * capital.cva_risk_weight \
        * m_eff * ead * ratio
    k_ccr = capital.capital_ratio * rwa_ccr
    k_cva = capital.capital_ratio * rwa_cva
    k_lr = capital.leverage_ratio * (np.maximum(m_, 0.0) + addon)
    return dict(delta=delta, mat_factor=mf, replacement_cost=rc, addon=addon,
                multiplier=mult, pfe=pfe, ead=ead, rwa_ccr=rwa_ccr, rwa_cva=rwa_cva,
                k_ccr=k_ccr, k_cva=k_cva, k_lr=k_lr,
                k_total=np.maximum(k_ccr + k_cva, k_lr))


def driver(kind, t, spot, v, option, market, capital):
    """F(t, S, v) of every driver kind under the default capital stack."""
    rb = market.issuer_funding_rate
    lam_c = market.cpty_intensity
    loss_c = market.cpty_spread
    hurdle = market.capital_hurdle
    phi = market.capital_funding_fraction
    frac = market.collateral_fraction
    if kind == "riskfree":
        return market.risk_free_rate * v
    if kind == "nonlinear":
        coll = frac * v
        k = capital_parts(v, coll, spot, t, option, capital)["k_total"]
        return (rb * v + loss_c * np.maximum(v - coll, 0.0)
                + (market.collateral_rate - rb) * coll + (hurdle - phi * rb) * k)
    mark = np.asarray(bs_value(option, spot, t, market), dtype=float)
    k = capital_parts(mark, frac * mark, spot, t, option, capital)["k_total"]
    if kind == "linear":
        coll = frac * mark
        return (rb + lam_c) * v + (-lam_c * mark + loss_c * np.maximum(mark - coll, 0.0)
                                   + (market.collateral_rate - rb) * coll
                                   + (hurdle - phi * rb) * k)
    if kind == "garcia":
        return (hurdle + lam_c) * v + (hurdle - rb) * k
    return (rb + lam_c) * v + (hurdle - phi * rb) * k


def step_order2(u, tau, delta, mass, apply_l, solve_shifted, explicit_fn):
    """One step of the second-order pair; ``solve_shifted`` solves
    (M - delta*GAMMA2*L) x = rhs."""
    g = GAMMA2
    t0, t1 = (tau + c * delta for c in (0.0, GAMMA2))
    e0 = explicit_fn(u, t0)
    base = mass * u
    u1 = solve_shifted(base + delta * g * e0)
    lu1 = apply_l(u1)
    e1 = explicit_fn(u1, t1)
    rhs = base + delta * ((1.0 - g) * lu1 + KAPPA2 * e0 + (1.0 - KAPPA2) * e1)
    return solve_shifted(rhs)


def step_order3(u, tau, delta, mass, apply_l, solve_shifted, explicit_fn):
    """One step of the third-order pair; ``solve_shifted`` solves
    (M - delta*GAMMA3*L) x = rhs."""
    g = GAMMA3
    c2 = 0.5 * (1.0 + GAMMA3)
    t0, t1, t2, t3 = (tau + c * delta for c in (0.0, GAMMA3, c2, 1.0))
    base = mass * u
    e0 = explicit_fn(u, t0)
    u1 = solve_shifted(base + delta * g * e0)
    l1 = apply_l(u1)
    e1 = explicit_fn(u1, t1)

    rhs2 = base + delta * (0.5 * (1.0 - g) * l1
                           + (c2 - ALPHA1) * e0 + ALPHA1 * e1)
    u2 = solve_shifted(rhs2)
    l2 = apply_l(u2)
    e2 = explicit_fn(u2, t2)

    rhs3 = base + delta * (BETA1 * l1 + BETA2 * l2
                           + (1.0 - ALPHA2) * e1 + ALPHA2 * e2)
    u3 = solve_shifted(rhs3)
    l3 = apply_l(u3)
    e3 = explicit_fn(u3, t3)

    acc = base + delta * (BETA1 * (l1 + e1) + BETA2 * (l2 + e2) + g * (l3 + e3))
    return acc / mass


def bits(x) -> np.ndarray:
    """The float64 bit patterns of ``x``, for bitwise comparison."""
    return np.asarray(x, dtype=float).view(np.int64)


def capital_off(market):
    """``market`` at hurdle = capital_funding_fraction * issuer_funding_rate:
    the capital coefficient (gK - phi rB) of ``linear``, ``nonlinear`` and
    ``garcia_ref`` is exactly 0 there, and at phi = 1 so is the (gK - rB) of
    ``garcia``."""
    return dataclasses.replace(market, capital_hurdle=market.capital_funding_fraction
                               * market.issuer_funding_rate)


def use_capital_profile(monkeypatch, profile):
    """Price every driver level with ``profile(t, spot, mark)`` in place of the
    capital stack: ``xvadg.drivers.capital_levels`` is patched so that the
    ``total(mark, gap, rc)`` of level i returns ``profile(times[i], spot,
    mark)``, ``times[i]`` as a float and ``spot`` as the driver got it.
    Inside a hypothesis test, pass the patcher of a
    ``pytest.MonkeyPatch.context()`` block."""
    def capital_levels(option, spot, times, capital):
        def level(i):
            t = float(times[i])
            return SimpleNamespace(total=lambda mark, gap, rc: profile(t, spot, mark))
        return level
    monkeypatch.setattr(drivers, "capital_levels", capital_levels)
