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
level reaches its capital through :meth:`xvadg.capital.CapitalLevel.total`
at its time, K(mark, gap, rc).  Capital costs switch off in the model
itself: at a hurdle equal to the funded rate, ``capital_hurdle =
capital_funding_fraction * issuer_funding_rate``, the coefficient
(gK - phi rB) of ``linear``, ``nonlinear`` and ``garcia_ref`` is exactly
zero, and so is the (gK - rB) of ``garcia`` at phi = 1.  The three mark
kinds are affine in v, F = rate v + rest(t, S): their level is an
:class:`AffineLevel`, whose fields are the coefficient ``rate`` (rB + lamC
for ``linear`` and ``garcia_ref``, gK + lamC for ``garcia``) and the one
array ``rest``, the terms free of v summed left to right in the order of
the formulas above, and whose evaluation is ``rate * v + rest``.  The
regression Monte Carlo reads those fields to tabulate ``rest`` over the
spot.  A ``nonlinear`` level holds its capital level; its evaluation
forms the collateral, the gap ``v - X`` and the replacement cost
``(v - X)^+`` once, for both the loss term and the capital, takes the
capital total without building its audit breakdown, and sums its terms in
place in the order of its formula.

:func:`driver_levels` builds the levels of one spot array at many times
from one level builder per kernel, :func:`xvadg.black_scholes.mark_levels`
and :func:`xvadg.capital.capital_levels`, each made once per call; each
builder keeps to itself how it splits its (t, S) work.  It is the one
builder of a level: :func:`driver_value` is a level at one time applied
once, so the PDE, which builds one level per distinct stage time of its
march, and the regression Monte Carlo, which builds a mark kind's level
once per time on a log-spot table and any other kind's once per chunk of
paths at one time, each reused for two steps, share one definition of
each formula; the PDE passes it a batch's ``BATCHED_FIELDS`` as arrays.
Evaluations allocate their buffers per call, since the Monte Carlo runs
them in pool threads.  The PDE's conservative-form source, which reads F
from a level, is defined in :mod:`xvadg.solver`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .black_scholes import mark_levels
from .capital import capital_levels
# not called here; it stays a name of this module for tools that wrap the
# capital stack where each module looks it up (bench/tracing.py)
from .capital import capital_requirement  # noqa: F401
from .config import CapitalParams, MarketParams, OptionSpec

#: driver kind -> whether it marches the adjustment itself from zero
#: terminal data (True) or the full price (False); a superset of the public
#: RunConfig drivers, the last two kinds being for validation
_MARCHES_ADJUSTMENT = {"linear": False, "nonlinear": False, "garcia": True,
                       "garcia_ref": True, "riskfree": False}

#: kinds accepted by driver_levels / driver_value
ALL_DRIVER_KINDS = tuple(_MARCHES_ADJUSTMENT)

#: market fields that enter F only as coefficients; driver_levels takes
#: them as keyword arguments of these names
BATCHED_FIELDS = ("capital_hurdle", "collateral_rate")

DriverEval = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class AffineLevel:
    """The level of a mark kind, F = rate * v + rest: ``rate`` is the
    coefficient of v (a scalar, or a batch's (B, 1, 1) array where it reads
    the capital hurdle) and ``rest`` the terms free of v at the level's
    (t, S)."""

    rate: float | np.ndarray
    rest: np.ndarray

    def __call__(self, v) -> np.ndarray:
        return self.rate * v + self.rest


def is_adjustment_kind(kind: str) -> bool:
    """Whether ``kind`` marches the adjustment from zero terminal data
    rather than the full price from the payoff; an unknown kind raises
    ``ValueError``."""
    try:
        return _MARCHES_ADJUSTMENT[kind]
    except KeyError:
        raise ValueError(f"unknown driver kind {kind!r}") from None


def driver_levels(kind: str, times, spot: np.ndarray, option: OptionSpec,
                  market: MarketParams, capital: CapitalParams, *,
                  capital_hurdle=None, collateral_rate=None) -> Callable[[int], DriverEval]:
    """The driver F(t, S, .) on ``spot`` at each time of ``times``, as a
    function of the index ``i`` that builds the level at ``times[i]``.

    The level builders of the closed-form mark and of the capital stack
    are made here, once, for what the kind reads: the mark for the mark
    kinds, the capital stack for every kind but ``riskfree``, which reads
    neither.  Each call of the returned function builds the kernels'
    levels at one time afresh and returns the driver's level, a
    function of v with the arithmetic of :func:`driver_value`; the caller
    keeps the levels it reuses.  A mark kind's level is the
    :class:`AffineLevel` of its ``rate`` and ``rest(t, S)``.

    The two ``BATCHED_FIELDS`` default to the market's numbers; v and they
    broadcast against ``spot``.  The Monte Carlo passes (n,) spots and (n,)
    values.  The PDE passes spots of shape (cells, degree+1), values of
    shape (B, cells, degree+1) and its batch's two coefficients as (B, 1, 1)
    arrays, so the (t, S) arrays of a level broadcast along the leading
    batch axis and every elementwise loop runs over whole contiguous rows.
    """
    is_adjustment_kind(kind)
    times = np.asarray(times, dtype=float)
    r = market.risk_free_rate
    if kind == "riskfree":
        return lambda i: lambda v: r * np.asarray(v, dtype=float)

    rb = market.issuer_funding_rate
    lam_c = market.cpty_intensity
    loss_c = market.cpty_spread
    hurdle = market.capital_hurdle if capital_hurdle is None else capital_hurdle
    frac = market.collateral_fraction
    rx_rb = (market.collateral_rate if collateral_rate is None else collateral_rate) - rb
    k_coef = hurdle - market.capital_funding_fraction * rb

    # K(mark, gap, rc) at times[i] is capital_at(i).total; gap is scratch
    capital_at = capital_levels(option, spot, times, capital)
    # the spots' shape at zero stride: a level must not keep the spots
    like_spot = np.broadcast_to(0.0, np.shape(spot))

    if kind == "nonlinear":
        def nonlinear_level(i: int) -> DriverEval:
            capital_on = capital_at(i).total

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

    mark_of = mark_levels(option, spot, times, market)
    # every mark kind is affine: F = rate v + rest(t, S)
    rate, k_coef = (hurdle + lam_c, hurdle - rb) if kind == "garcia" else (rb + lam_c, k_coef)

    def mark_level(i: int) -> AffineLevel:
        mark = np.asarray(mark_of(i), dtype=float)
        coll, gap, rc = _exposure(mark, frac, np.broadcast(mark, like_spot).shape)
        rest = k_coef * capital_at(i).total(mark, gap, rc)
        if kind == "linear":
            # -lamC M + lamC (1-RC) (M-X)^+ + (rX-rB) X + (gK - phi rB) K
            rest = -lam_c * mark + loss_c * rc + rx_rb * coll + rest
        return AffineLevel(rate, rest)
    return mark_level


def _exposure(v: np.ndarray, frac, shape: tuple) -> tuple:
    """The collateral ``frac * v``, the gap ``v - collateral`` and the
    replacement cost ``max(gap, 0)``, each a new array of ``shape`` (the
    broadcast shape of everything the caller combines them with)."""
    coll = np.multiply(v, frac, out=np.empty(shape))
    gap = np.subtract(v, coll, out=np.empty(shape))
    return coll, gap, np.maximum(gap, 0.0)


def driver_value(kind: str, t: float, spot: np.ndarray, v: np.ndarray,
                 option: OptionSpec, market: MarketParams,
                 capital: CapitalParams) -> np.ndarray:
    """Evaluate the driver F(t, S, v) for the given mark convention: the
    level of :func:`driver_levels` at ``t``, applied once."""
    return driver_levels(kind, (t,), spot, option, market, capital)(0)(v)
