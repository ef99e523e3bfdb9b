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

This module alone decides what a kind means.  :func:`is_adjustment_kind`
validates a kind and says whether it marches the adjustment from zero
terminal data (``garcia``, ``garcia_ref``) or the full price, whose
adjustment is the value minus the closed-form mark; the PDE and the Monte
Carlo route ask it once.  ``linear``, ``garcia`` and ``garcia_ref`` read
the closed-form default-free mark, which the driver computes itself.

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

from .black_scholes import bs_value
from .capital import capital_on_addon, capital_requirement, saccr_addon
from .config import CapitalParams, MarketParams, OptionSpec

#: driver kind -> whether it marches the adjustment itself from zero
#: terminal data (True) or the full price (False); a superset of the public
#: RunConfig drivers, the last two kinds being validation hooks
_MARCHES_ADJUSTMENT = {"linear": False, "nonlinear": False, "garcia": True,
                       "garcia_ref": True, "riskfree": False}

#: kinds accepted by driver_value / source_term
ALL_DRIVER_KINDS = tuple(_MARCHES_ADJUSTMENT)

CapitalFn = Callable[[float, np.ndarray, np.ndarray], np.ndarray]
DriverEval = Callable[[np.ndarray], np.ndarray]


def is_adjustment_kind(kind: str) -> bool:
    """Whether ``kind`` marches the adjustment from zero terminal data
    rather than the full price from the payoff; an unknown kind raises
    ``ValueError``."""
    try:
        return _MARCHES_ADJUSTMENT[kind]
    except KeyError:
        raise ValueError(f"unknown driver kind {kind!r}") from None


def driver_level(kind: str, t: float, spot: np.ndarray, option: OptionSpec,
                 market: MarketParams, capital: CapitalParams,
                 capital_fn: CapitalFn | None = None) -> DriverEval:
    """The driver F(t, S, .) at one (t, S) level, as a function of v.

    The work that depends on (t, S) only is done here, once: the closed-form
    mark and the capital on it for the mark kinds, the SA-CCR add-on for
    ``nonlinear`` under the default capital stack, nothing for
    ``riskfree``.  The returned function applies the rest in v, with the
    arithmetic of :func:`driver_value` (which is this function applied once).
    """
    is_adjustment_kind(kind)
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

    mark = np.asarray(bs_value(option, spot, t, market), dtype=float)
    if capital_fn is None:
        k = capital_requirement(t, spot, mark, option, market, capital).k_total
    else:
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
                 capital_fn: CapitalFn | None = None) -> np.ndarray:
    """Evaluate the driver F(t, S, v) for the given mark convention.

    ``capital_fn`` overrides the regulatory capital profile; the default is
    the full SA-CCR/CVA/leverage stack.  Passing
    ``capital_fn=lambda t, s, m: 0.0 * m`` switches capital costs off,
    which several validation cases use.
    """
    return driver_level(kind, t, spot, option, market, capital, capital_fn)(v)


def source_term(kind: str, tau: float, spot: np.ndarray, v: np.ndarray,
                option: OptionSpec, market: MarketParams, capital: CapitalParams,
                capital_fn: CapitalFn | None = None) -> np.ndarray:
    """Zeroth-order source of the time-reversed conservative-form equation.

    ``tau`` is time to maturity; the driver is evaluated at calendar time
    ``maturity - tau``.
    """
    fwd = driver_value(kind, option.maturity - tau, spot, v, option, market,
                       capital, capital_fn)
    return (market.sigma ** 2 - market.drift) * np.asarray(v, dtype=float) - fwd
