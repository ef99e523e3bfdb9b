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

Each driver is built in two parts: a level does the work that depends on
(t, S) only and returns the evaluation in v, which applies the rest.  A
level reaches its capital through one callable K(mark, gap, rc) at its
time, :meth:`xvadg.capital.CapitalLevel.total` by default; ``capital_fn``
only chooses the callable, the override at that time.  A level holds,
beyond scalars, the closed-form mark and the capital on it times its cost
coefficient for ``linear`` (``garcia`` and ``garcia_ref`` need only the
latter), and the callable for ``nonlinear``.  A ``nonlinear`` evaluation
forms the collateral, the gap ``v - X`` and the replacement cost
``(v - X)^+`` once, for both the loss term and the capital, and takes the
capital total without building its audit breakdown; a ``linear`` one
forms them from the mark, which its level keeps in their place.  Each sums
its terms in place, in the order of the formulas above, so every output
keeps the bits of the one-line formulas.

:func:`driver_levels` builds the levels of one spot array at many times,
and its (t, S) work splits again into three parts: the space part of the
mark and of the capital stack (:func:`xvadg.black_scholes.mark_space`,
:func:`xvadg.capital.capital_space`), built once per call; their time
tables over every time at once (:func:`xvadg.black_scholes.mark_times`,
:func:`xvadg.capital.capital_times`); and the joint (t, S) arrays, built
when a level is asked for by its index.  :func:`driver_level` is
:func:`driver_levels` at one time, and :func:`driver_value` a level
applied once, so the PDE, which builds one level per distinct stage time
of its march, and the regression Monte Carlo, which builds one per chunk
of paths and reuses it for two steps, share one definition of each
formula.  Evaluations allocate their buffers per call, since the Monte
Carlo runs them in pool threads.

The time-reversed source consumed by the marching scheme is
``source_term = (sigma^2 - drift) v - F(maturity - tau, S, v)``, the
zeroth-order remainder of rewriting the generator in conservative form;
:func:`source_on` forms it from a level.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .black_scholes import mark_at, mark_space, mark_times
from .capital import capital_level_at, capital_space, capital_times
# not called here; it stays a name of this module for tools that wrap the
# capital stack where each module looks it up (bench/tracing.py)
from .capital import capital_requirement  # noqa: F401
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


def driver_levels(kind: str, times, spot: np.ndarray, option: OptionSpec,
                  market: MarketParams, capital: CapitalParams,
                  capital_fn: CapitalFn | None = None) -> Callable[[int], DriverEval]:
    """The driver F(t, S, .) on ``spot`` at each time of ``times``, as a
    function of the index ``i`` that builds the level at ``times[i]``.

    The space part and the time tables of the closed-form mark and of the
    capital stack are built here, once, for what the kind reads: the mark
    for the mark kinds, the capital stack unless ``capital_fn`` replaces
    it, nothing for ``riskfree``.  Each call of the returned function does
    the joint (t, S) work of one time afresh and returns the level, a
    function of v with the arithmetic of :func:`driver_value`; the caller
    keeps the levels it reuses.
    """
    is_adjustment_kind(kind)
    times = np.asarray(times, dtype=float)
    r = market.risk_free_rate
    if kind == "riskfree":
        return lambda i: lambda v: r * np.asarray(v, dtype=float)

    rb = market.issuer_funding_rate
    lam_c = market.cpty_intensity
    loss_c = market.cpty_spread
    hurdle = market.capital_hurdle
    frac = market.collateral_fraction
    rx_rb = market.collateral_rate - rb
    k_coef = hurdle - market.capital_funding_fraction * rb

    # the capital callable K(mark, gap, rc) at times[i]; gap is scratch
    if capital_fn is None:
        cap_space = capital_space(spot, option, capital)
        cap_times = capital_times(times, option, capital)

        def capital_at(i: int) -> Callable:
            return capital_level_at(option, cap_space, cap_times[i], capital).total
    else:
        def capital_at(i: int) -> Callable:
            t_i = float(times[i])
            return lambda mark, gap, rc: capital_fn(t_i, spot, mark)
    # the spots' shape at zero stride: a level must not keep the spots
    like_spot = np.broadcast_to(0.0, np.shape(spot))

    if kind == "nonlinear":
        def nonlinear_level(i: int) -> DriverEval:
            capital_on = capital_at(i)

            def nonlinear(v):
                v = np.asarray(v, dtype=float)
                shape = np.broadcast(v, like_spot, rx_rb, k_coef).shape
                coll, gap, rc = _exposure(v, frac, shape)
                k = capital_on(v, gap, rc)
                # rb v + lamC (1-RC) rc + (rX - rB) X + (gK - phi rB) K, in place
                out = np.multiply(v, rb, out=gap)
                out += np.multiply(rc, loss_c, out=rc)
                out += np.multiply(coll, rx_rb, out=coll)
                out += np.multiply(k, k_coef, out=rc)
                return out
            return nonlinear
        return nonlinear_level

    m_space = mark_space(option, spot)
    m_times = mark_times(option, times, market)

    def mark_level(i: int) -> DriverEval:
        mark = np.asarray(mark_at(option, m_space, m_times[i]), dtype=float)
        _, gap, rc = _exposure(mark, frac, np.broadcast(mark, like_spot).shape)
        k = capital_at(i)(mark, gap, rc)

        if kind == "garcia":
            k_term = (hurdle - rb) * k
            return lambda v: (hurdle + lam_c) * v + k_term
        k_term = k_coef * k
        if kind == "garcia_ref":
            return lambda v: (rb + lam_c) * v + k_term
        mark_shape = np.broadcast(mark, rx_rb).shape

        def linear(v):
            v = np.asarray(v, dtype=float)
            out = np.multiply(v, rb + lam_c, out=np.empty(np.broadcast(v, mark, rx_rb, k_term).shape))
            coll, gap, rc = _exposure(mark, frac, mark_shape)
            out -= np.multiply(mark, lam_c, out=gap)
            out += np.multiply(rc, loss_c, out=rc)
            out += np.multiply(coll, rx_rb, out=coll)
            out += k_term
            return out
        return linear
    return mark_level


def driver_level(kind: str, t: float, spot: np.ndarray, option: OptionSpec,
                 market: MarketParams, capital: CapitalParams,
                 capital_fn: CapitalFn | None = None) -> DriverEval:
    """The driver F(t, S, .) at one (t, S) level, as a function of v:
    :func:`driver_levels` at the one time ``t``.

    The work that depends on (t, S) only is done here, once: for the mark
    kinds the closed-form mark and the capital on it, scaled by its cost
    coefficient; for ``nonlinear`` the capital callable; nothing for
    ``riskfree``.  The returned function applies the rest in v, with the
    arithmetic of :func:`driver_value` (which is this function applied once).
    """
    return driver_levels(kind, (t,), spot, option, market, capital, capital_fn)(0)


def _exposure(v: np.ndarray, frac, shape: tuple) -> tuple:
    """The collateral ``frac * v``, the gap ``v - collateral`` and the
    replacement cost ``max(gap, 0)``, each a new array of ``shape`` (the
    broadcast shape of everything the caller combines them with)."""
    coll = np.multiply(v, frac, out=np.empty(shape))
    gap = np.subtract(v, coll, out=np.empty(shape))
    return coll, gap, np.maximum(gap, 0.0)


def driver_value(kind: str, t: float, spot: np.ndarray, v: np.ndarray,
                 option: OptionSpec, market: MarketParams, capital: CapitalParams,
                 capital_fn: CapitalFn | None = None) -> np.ndarray:
    """Evaluate the driver F(t, S, v) for the given mark convention.

    ``capital_fn`` chooses the capital callable of the level: the override
    at ``t`` in place of the full SA-CCR/CVA/leverage stack.  Passing
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
    return source_on(driver_level(kind, option.maturity - tau, spot, option, market,
                                  capital, capital_fn), v, market)


def source_on(level: DriverEval, v: np.ndarray, market: MarketParams) -> np.ndarray:
    """The source ``(sigma^2 - drift) v - F(v)`` of the driver level F."""
    fwd = level(v)
    return (market.sigma ** 2 - market.drift) * np.asarray(v, dtype=float) - fwd
