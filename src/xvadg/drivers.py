"""Pricing-equation right-hand sides for the supported mark conventions.

Writing the adjusted value equation as  dV/dt + A V = F(t, S, V)  with A the
generator at the stock's repo-minus-dividend drift, the driver F collects
default, funding, collateral and capital costs.  Three conventions are
priced:

``linear``
    Close-out and capital are computed on the default-free mark, so F is
    affine in the unknown:
    F = (rB + lamC) v - lamC V + lamC (1-RC) (V-X)^+ + (rX-rB) X
        + (gK - phi rB) K(t,S,V),          X = fraction * V.

``nonlinear``
    The trade is marked at the adjusted value itself; the same costs read
    on v make F semilinear:
    F = rB v + lamC (1-RC) (v-X)^+ + (rX-rB) X + (gK - phi rB) K(t,S,v),
        X = fraction * v.

``garcia``
    Reduced capital-adjustment equation with zero terminal data:
    F = (gK + lamC) v + (gK - rB) K(t,S,V).

Two more kinds exist for validation: ``garcia_ref`` (the capital term alone
priced with the issuer-funding kernel, the comparison object of the scaling
check) and ``riskfree`` (F = r v, turning the solver into a plain
default-free pricer with an exact analytic solution).

The counterparty loss coefficient is carried as the bond-repo spread
``cpty_spread``, which the configuration pins to intensity*(1-recovery); the
driver is identical whichever of the two expressions is used to build it.

Each driver is built in two parts: :func:`driver_level` does the work that
depends on (t, S) only (the closed-form mark and the capital total on it
for the mark kinds, the SA-CCR add-on for ``nonlinear``) and returns the
evaluation in v, which applies the rest.  :func:`driver_value` is the two
in a row, so the PDE, which meets each (t, S) once, and the regression
Monte Carlo, which reuses a level for two steps, share one definition of
each formula.

The time-reversed source consumed by the marching scheme is
``source_term = (sigma^2 - drift) v - F(maturity - tau, S, v)``, the
zeroth-order remainder of rewriting the generator in conservative form.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .capital import capital_on_addon, capital_requirement, saccr_addon
from .config import CapitalParams, MarketParams, OptionSpec

#: kinds accepted by driver_value / source_term (superset of the public
#: RunConfig drivers; the last two are validation hooks)
ALL_DRIVER_KINDS = ("linear", "nonlinear", "garcia", "garcia_ref", "riskfree")

#: kinds whose unknown is the adjustment itself (zero terminal data); every
#: other kind carries the full price, and its adjustment is the value minus
#: the closed-form mark
ADJUSTMENT_KINDS = ("garcia", "garcia_ref")

#: kinds that price against the closed-form default-free mark (riskfree_fn)
MARK_KINDS = ("linear", "garcia", "garcia_ref")

RiskfreeFn = Callable[[float, np.ndarray], np.ndarray]
CapitalFn = Callable[[float, np.ndarray, np.ndarray], np.ndarray]
DriverEval = Callable[[np.ndarray], np.ndarray]


def collateral_amount(mark: np.ndarray | float, fraction: float) -> np.ndarray | float:
    """Collateral posted against a mark-to-market: ``fraction * mark``."""
    return fraction * np.asarray(mark, dtype=float) if np.ndim(mark) else fraction * mark


def closeout_value(mark, collateral, recovery: float):
    """Amount recovered at counterparty default:
    collateral plus ``recovery`` on the uncollateralized exposure, with any
    over-collateralization returned in full:
    ``X + recovery*(M-X)^+ + (M-X)^-``.
    """
    m = np.asarray(mark, dtype=float)
    x = np.asarray(collateral, dtype=float)
    gap = m - x
    out = x + recovery * np.maximum(gap, 0.0) + np.minimum(gap, 0.0)
    return out if np.ndim(out) else float(out)


def _capital_total(option: OptionSpec, market: MarketParams,
                   capital: CapitalParams) -> CapitalFn:
    def k_total(t, spot, mark):
        return capital_requirement(t, spot, mark, option, market, capital).k_total
    return k_total


def driver_level(kind: str, t: float, spot: np.ndarray, option: OptionSpec,
                 market: MarketParams, capital: CapitalParams,
                 riskfree_fn: RiskfreeFn | None = None,
                 capital_fn: CapitalFn | None = None) -> DriverEval:
    """The driver F(t, S, .) at one (t, S) level, as a function of v.

    The work that depends on (t, S) only is done here, once: the closed-form
    mark and the capital on it for the mark kinds, the SA-CCR add-on for
    ``nonlinear`` under the default capital stack, nothing for
    ``riskfree``.  The returned function applies the rest in v, with the
    arithmetic of :func:`driver_value` (which is this function applied once).
    """
    if kind not in ALL_DRIVER_KINDS:
        raise ValueError(f"unknown driver kind {kind!r}")
    r = market.risk_free_rate
    if kind == "riskfree":
        return lambda v: r * np.asarray(v, dtype=float)

    rb = market.issuer_funding_rate
    lam_c = market.cpty_intensity
    loss_c = market.cpty_spread
    hurdle = market.capital_hurdle
    phi = market.capital_funding_fraction

    if kind == "nonlinear":
        if capital_fn is None:
            addon = saccr_addon(spot, t, option, capital)
            capital_on = lambda v, coll: capital_on_addon(
                v, coll, t, option, capital, addon).k_total
        else:
            capital_on = lambda v, coll: capital_fn(t, spot, v)

        def nonlinear(v):
            v = np.asarray(v, dtype=float)
            coll = market.collateral_fraction * v
            k = capital_on(v, coll)
            return (rb * v + loss_c * np.maximum(v - coll, 0.0)
                    + (market.collateral_rate - rb) * coll
                    + (hurdle - phi * rb) * k)
        return nonlinear

    if riskfree_fn is None:
        raise ValueError(f"driver kind {kind!r} needs the default-free mark (riskfree_fn)")
    mark = np.asarray(riskfree_fn(t, spot), dtype=float)
    if capital_fn is None:
        capital_fn = _capital_total(option, market, capital)
    k = capital_fn(t, spot, mark)

    if kind == "linear":
        def linear(v):
            coll = market.collateral_fraction * mark
            return ((rb + lam_c) * v - lam_c * mark
                    + loss_c * np.maximum(mark - coll, 0.0)
                    + (market.collateral_rate - rb) * coll
                    + (hurdle - phi * rb) * k)
        return linear
    if kind == "garcia":
        return lambda v: (hurdle + lam_c) * v + (hurdle - rb) * k
    # garcia_ref
    return lambda v: (rb + lam_c) * v + (hurdle - phi * rb) * k


def driver_value(kind: str, t: float, spot: np.ndarray, v: np.ndarray,
                 option: OptionSpec, market: MarketParams, capital: CapitalParams,
                 riskfree_fn: RiskfreeFn | None = None,
                 capital_fn: CapitalFn | None = None) -> np.ndarray:
    """Evaluate the driver F(t, S, v) for the given mark convention.

    ``riskfree_fn(t, S)`` supplies the default-free mark where the
    convention needs it (linear, garcia, garcia_ref).  ``capital_fn``
    overrides the regulatory capital profile; the default is the full
    SA-CCR/CVA/leverage stack.  Passing ``capital_fn=lambda t, s, m: 0.0 * m``
    switches capital costs off, which several validation cases use.
    """
    return driver_level(kind, t, spot, option, market, capital, riskfree_fn,
                        capital_fn)(v)


def source_term(kind: str, tau: float, spot: np.ndarray, v: np.ndarray,
                option: OptionSpec, market: MarketParams, capital: CapitalParams,
                riskfree_fn: RiskfreeFn | None = None,
                capital_fn: CapitalFn | None = None) -> np.ndarray:
    """Zeroth-order source of the time-reversed conservative-form equation.

    ``tau`` is time to maturity; the driver is evaluated at calendar time
    ``maturity - tau``.
    """
    fwd = driver_value(kind, option.maturity - tau, spot, v, option, market,
                       capital, riskfree_fn, capital_fn)
    return (market.sigma ** 2 - market.drift) * np.asarray(v, dtype=float) - fwd
