"""Regulatory capital profile of the hedged position.

The capital demanded against the trade at time ``t``, stock ``S`` and mark
``M`` is assembled from three binding constraints:

* counterparty credit risk, risk-weighting the SA-CCR exposure-at-default,
* the standardized CVA charge on the same exposure,
* the leverage-ratio backstop on gross mark plus add-on.

The SA-CCR exposure for a single equity option nets the replacement cost
``(M - X)^+`` against the collateral ``X`` and adds a potential-future-
exposure term ``multiplier * addon``.  The add-on is *signed* through the
supervisory delta (negative for puts), so an out-of-the-money put can net to
a nonpositive exposure; the exposure is floored at zero before the alpha
scaling, which keeps every capital number built from it nonnegative.  The
leverage term ``LR * (max(M, 0) + addon)`` is kept raw (it can be negative
for puts and then never binds, since the CCR+CVA branch is >= 0).

Everything is vectorized over ``t``, ``spot`` and ``mark`` with numpy
broadcasting; the total is what the pricing drivers consume, the breakdown
is exposed for audit.  The stack splits at the add-on: ``saccr_addon``
holds what depends on (t, S) alone and ``capital_on_addon`` the rest, so a
caller that prices many marks at one (t, S) computes the add-on once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CapitalParams, MarketParams, OptionSpec
from .black_scholes import norm_cdf

# cap on the PFE-multiplier exponent: exp(50) already saturates min(1, .)
# for every admissible slope, and larger arguments would only overflow
_EXP_CAP = 50.0

#: floor on the supervisory delta's time to maturity: one business day
_MIN_HORIZON = 1.0 / 360.0


def supervisory_delta(option: OptionSpec, spot: np.ndarray | float, t: np.ndarray | float,
                      sigma_r: float) -> np.ndarray | float:
    """Signed supervisory option delta.

    Black-style delta at the supervisory volatility ``sigma_r``, with spot
    and strike both shifted by 0.01 so the formula survives ``spot == 0``,
    and the time to maturity floored at one business day (``_MIN_HORIZON``).
    Calls map to (0, 1), puts to (-1, 0).
    """
    s = np.asarray(spot, dtype=float)
    h = np.maximum(option.maturity - np.asarray(t, dtype=float), _MIN_HORIZON)
    root = sigma_r * np.sqrt(h)
    arg = (np.log((s + 0.01) / (option.strike + 0.01)) + 0.5 * sigma_r ** 2 * h) / root
    if option.kind == "call":
        out = norm_cdf(arg)
    else:
        out = -norm_cdf(-arg)
    return out if np.ndim(out) else float(out)


def maturity_factor(t: np.ndarray | float, maturity: float,
                    capital: CapitalParams) -> np.ndarray | float:
    """SA-CCR maturity factor sqrt(min(remaining + addon horizon, 1))."""
    rem = maturity - np.asarray(t, dtype=float)
    window = np.clip(rem + capital.addon_days / capital.days_per_year, 0.0, 1.0)
    out = np.sqrt(window)
    return out if np.ndim(out) else float(out)


@dataclass(frozen=True, eq=False)
class CapitalBreakdown:
    """All intermediate quantities of one capital evaluation (broadcast shapes)."""

    delta: np.ndarray | float
    mat_factor: np.ndarray | float
    replacement_cost: np.ndarray | float
    addon: np.ndarray | float
    multiplier: np.ndarray | float
    pfe: np.ndarray | float
    ead: np.ndarray | float
    rwa_ccr: np.ndarray | float
    rwa_cva: np.ndarray | float
    k_ccr: np.ndarray | float
    k_cva: np.ndarray | float
    k_lr: np.ndarray | float
    k_total: np.ndarray | float


def _pfe_multiplier(gap: np.ndarray, addon: np.ndarray,
                    capital: CapitalParams) -> np.ndarray:
    """min(1, floor + slope * exp(gap / (2 (1-floor) addon))), 1 where addon == 0."""
    nonzero = addon != 0.0
    safe = np.where(nonzero, addon, 1.0)
    expo = np.clip(gap / (2.0 * (1.0 - capital.multiplier_floor) * safe), None, _EXP_CAP)
    m = np.minimum(1.0, capital.multiplier_floor + capital.multiplier_slope * np.exp(expo))
    return np.where(nonzero, m, 1.0)


def capital_requirement_parts(mark, collateral, spot, t, option: OptionSpec,
                              capital: CapitalParams) -> CapitalBreakdown:
    """Full capital stack for explicit collateral; see ``capital_requirement``."""
    return capital_on_addon(mark, collateral, t, option, capital,
                            saccr_addon(spot, t, option, capital))


def saccr_addon(spot, t, option: OptionSpec, capital: CapitalParams) -> tuple:
    """The mark-free part of the capital stack at (t, S): the supervisory
    delta, the maturity factor and the signed SA-CCR add-on
    ``supervisory_factor * S * maturity_factor * delta``."""
    delta = supervisory_delta(option, spot, t, capital.supervisory_vol)
    mf = maturity_factor(t, option.maturity, capital)
    addon = capital.supervisory_factor * np.asarray(spot, dtype=float) * mf * delta
    return delta, mf, addon


def capital_on_addon(mark, collateral, t, option: OptionSpec, capital: CapitalParams,
                     addon_parts: tuple) -> CapitalBreakdown:
    """Capital stack on a mark and collateral, given the ``saccr_addon``
    of the same (t, S); the rest of ``capital_requirement_parts``."""
    delta, mf, addon = addon_parts
    m_ = np.asarray(mark, dtype=float)
    x_ = np.asarray(collateral, dtype=float)
    gap = m_ - x_

    rc = np.maximum(gap, 0.0)
    mult = _pfe_multiplier(np.asarray(gap, dtype=float), np.asarray(addon, dtype=float),
                           capital)
    pfe = np.where(addon != 0.0, mult * addon, 0.0)
    ead = capital.saccr_alpha * np.maximum(rc + pfe, 0.0)

    rwa_ccr = capital.ccr_risk_weight * 12.5 * ead

    m_eff = np.clip(option.maturity - np.asarray(t, dtype=float), 0.0, 1.0)
    x = 0.05 * m_eff
    # (1 - exp(-x))/x, switching to its series below 5e-8 to dodge 0/0
    small = x < 5e-8
    xs = np.where(small, 1.0, x)
    ratio = np.where(small, 1.0 - 0.5 * x, (1.0 - np.exp(-xs)) / xs)
    rwa_cva = (12.5 * 0.65 / capital.saccr_alpha) * capital.cva_risk_weight \
        * m_eff * ead * ratio

    k_ccr = capital.capital_ratio * rwa_ccr
    k_cva = capital.capital_ratio * rwa_cva
    k_lr = capital.leverage_ratio * (np.maximum(m_, 0.0) + addon)
    k_total = np.maximum(k_ccr + k_cva, k_lr)

    if np.ndim(k_total) == 0:
        return CapitalBreakdown(*(float(v) for v in
                                  (delta, mf, rc, addon, mult, pfe, ead, rwa_ccr,
                                   rwa_cva, k_ccr, k_cva, k_lr, k_total)))
    return CapitalBreakdown(delta, mf, rc, addon, mult, pfe, ead, rwa_ccr,
                            rwa_cva, k_ccr, k_cva, k_lr, k_total)


def capital_requirement(t, spot, mark, option: OptionSpec, market: MarketParams,
                        capital: CapitalParams, collateral=None) -> CapitalBreakdown:
    """Capital stack at time ``t``, stock ``spot``, mark-to-market ``mark``.

    ``collateral`` defaults to the contractual fraction of the mark.  The
    binding requirement is ``k_total = max(k_ccr + k_cva, k_lr)``; with the
    exposure floored at zero the first branch is nonnegative, so ``k_total``
    is too.
    """
    if collateral is None:
        collateral = market.collateral_fraction * np.asarray(mark, dtype=float)
    return capital_requirement_parts(mark, collateral, spot, t, option, capital)
