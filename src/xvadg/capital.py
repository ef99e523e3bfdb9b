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
broadcasting.  The stack splits at the mark: :func:`capital_levels` builds
the mark-free part of one spot array at many times as a function of the
time's index, each level a :class:`CapitalLevel`.  It builds what depends
on S alone (the supervisory log-moneyness ``log((S + 0.01)/(K + 0.01))``
and ``S * supervisory_factor``) and what depends on t alone (the
supervisory delta's ``sigma_r^2 h / 2`` and ``sigma_r sqrt(h)`` at the
floored horizon h, the maturity factor, and the CVA term's ratio
``(1 - exp(-x))/x`` and scalar head, both of the CVA maturity ``m_eff``)
once, and at each level the joint (t, S) work: the supervisory delta, the
signed add-on, the PFE denominator ``2 (1 - floor) addon`` (with the mask
of the add-ons that are exactly zero, only where there are any), the
ratio and the head.  ``CapitalLevel.total`` applies the rest to a mark in
place and returns the binding requirement alone;
``capital_requirement_parts`` takes its level from the builder at its one
time (or one row of per-point times), applies the same formula helpers to
fresh arrays and returns every intermediate as a ``CapitalBreakdown`` for
audit.  So there is one code path: a caller that prices many marks at one
(t, S), as the drivers do, builds the level once, and one that prices the
same spots at many times (the PDE) builds the spot and time terms once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .config import CapitalParams, MarketParams, OptionSpec
from .black_scholes import norm_cdf

# cap on the PFE-multiplier exponent: exp(50) already saturates min(1, .)
# for every admissible slope, and larger arguments would only overflow
_EXP_CAP = 50.0

#: floor on the supervisory delta's time to maturity: one business day
_MIN_HORIZON = 1.0 / 360.0


def _new(*operands) -> np.ndarray:
    """An uninitialised float array of the operands' broadcast shape (0-d
    for scalars), for a chain of in-place operations to write into."""
    return np.empty(np.broadcast(*operands).shape)


def _delta_coefficients(maturity: float, t, sigma_r: float) -> tuple:
    """``sigma_r^2 h / 2`` and ``sigma_r sqrt(h)`` at the horizon
    ``h = max(T - t, _MIN_HORIZON)``."""
    h = np.maximum(maturity - np.asarray(t, dtype=float), _MIN_HORIZON)
    return 0.5 * sigma_r ** 2 * h, sigma_r * np.sqrt(h)


def _log_moneyness(option: OptionSpec, spot) -> np.ndarray:
    """The supervisory ``log((S + 0.01)/(K + 0.01))``."""
    return np.log((np.asarray(spot, dtype=float) + 0.01) / (option.strike + 0.01))


def _delta(option: OptionSpec, log_moneyness, half, root) -> np.ndarray | float:
    """The signed supervisory delta ``N(+-(log_moneyness + half)/root)``."""
    arg = (log_moneyness + half) / root
    return norm_cdf(arg) if option.kind == "call" else -norm_cdf(-arg)


def supervisory_delta(option: OptionSpec, spot: np.ndarray | float, t: np.ndarray | float,
                      sigma_r: float) -> np.ndarray | float:
    """Signed supervisory option delta.

    Black-style delta at the supervisory volatility ``sigma_r``, with spot
    and strike both shifted by 0.01 so the formula survives ``spot == 0``,
    and the time to maturity floored at one business day (``_MIN_HORIZON``).
    Calls map to (0, 1), puts to (-1, 0).
    """
    half, root = _delta_coefficients(option.maturity, t, sigma_r)
    out = _delta(option, _log_moneyness(option, spot), half, root)
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


@dataclass(frozen=True, eq=False)
class CapitalLevel:
    """The mark-free part of the capital stack at one (t, S) beyond the
    supervisory delta: the add-on, the PFE denominator
    ``2 (1 - floor) addon`` with 1 in place of an add-on that is exactly
    ±0, the mask of those add-ons (``None`` when there is none), and, with
    the CVA maturity ``m_eff = clip(T - t, 0, 1)``, the CVA term's ratio
    ``(1 - exp(-x))/x`` at ``x = 0.05 m_eff`` and its scalar head
    ``(12.5 * 0.65 / alpha) * cva_rw * m_eff``.

    Each formula helper below writes into ``out`` and returns it, so
    ``total`` runs the chain in place and ``capital_requirement_parts`` on
    fresh arrays, with the same arithmetic.
    """

    capital: CapitalParams
    addon: np.ndarray
    denominator: np.ndarray
    zero: np.ndarray | None
    ratio: np.ndarray | float
    cva_head: np.ndarray | float

    def multiplier(self, gap, out: np.ndarray) -> np.ndarray:
        """min(1, floor + slope * exp(min(gap / denominator, _EXP_CAP))),
        1 where the add-on is 0."""
        np.divide(gap, self.denominator, out=out)
        np.minimum(out, _EXP_CAP, out=out)
        np.exp(out, out=out)
        out *= self.capital.multiplier_slope
        out += self.capital.multiplier_floor
        np.minimum(out, 1.0, out=out)
        if self.zero is not None:
            np.copyto(out, 1.0, where=self.zero)
        return out

    def pfe(self, multiplier, out: np.ndarray) -> np.ndarray:
        """multiplier * addon, 0 where the add-on is 0."""
        np.multiply(multiplier, self.addon, out=out)
        if self.zero is not None:
            np.copyto(out, 0.0, where=self.zero)
        return out

    def ead(self, rc, pfe, out: np.ndarray) -> np.ndarray:
        """alpha * max(rc + pfe, 0)."""
        np.add(rc, pfe, out=out)
        np.maximum(out, 0.0, out=out)
        out *= self.capital.saccr_alpha
        return out

    def rwa_ccr(self, ead, out: np.ndarray) -> np.ndarray:
        return np.multiply(ead, self.capital.ccr_risk_weight * 12.5, out=out)

    def rwa_cva(self, ead, out: np.ndarray) -> np.ndarray:
        np.multiply(ead, self.cva_head, out=out)
        out *= self.ratio
        return out

    def charge(self, rwa, out: np.ndarray) -> np.ndarray:
        """The capital ratio times a risk-weighted asset."""
        return np.multiply(rwa, self.capital.capital_ratio, out=out)

    def k_lr(self, mark, out: np.ndarray) -> np.ndarray:
        """leverage_ratio * (max(mark, 0) + addon)."""
        np.maximum(mark, 0.0, out=out)
        out += self.addon
        out *= self.capital.leverage_ratio
        return out

    def total(self, mark: np.ndarray, gap: np.ndarray, rc: np.ndarray) -> np.ndarray:
        """``k_total`` on a mark, given its ``gap = mark - collateral`` and
        ``rc = max(gap, 0)``, in a new array: ``max(k_ccr + k_cva, k_lr)``.

        ``gap`` is scratch and is overwritten; it must have the broadcast
        shape of the mark and the level.  ``rc`` and the mark are read only.
        """
        ead = self.ead(rc, self.pfe(self.multiplier(gap, gap), gap), gap)
        k = self.rwa_ccr(ead, np.empty_like(ead))
        self.charge(k, k)
        k += self.charge(self.rwa_cva(ead, ead), ead)
        return np.maximum(k, self.k_lr(mark, ead), out=k)


def capital_levels(option: OptionSpec, spot, times,
                   capital: CapitalParams) -> Callable[[int], CapitalLevel]:
    """The :class:`CapitalLevel` on ``spot`` at each time of ``times``, as a
    function of the index ``i`` that builds the level at ``times[i]``.

    ``times[i]`` is one time, or one per point (an array that broadcasts
    against ``spot``).  The terms of the spots alone and of the times alone
    are built here, once; each call forms the signed SA-CCR add-on
    ``(S * supervisory_factor) * maturity_factor * delta`` of one time
    afresh, and what is built on it.
    """
    s = np.asarray(spot, dtype=float)
    logm = _log_moneyness(option, s)
    scaled_spot = s * capital.supervisory_factor
    times = np.asarray(times, dtype=float)
    half, root = _delta_coefficients(option.maturity, times, capital.supervisory_vol)
    mat_factor = maturity_factor(times, option.maturity, capital)
    m_eff = np.clip(option.maturity - times, 0.0, 1.0)
    x = 0.05 * m_eff
    # (1 - exp(-x))/x, switching to its series below 5e-8 to dodge 0/0
    small = x < 5e-8
    xs = np.where(small, 1.0, x)
    ratio = np.where(small, 1.0 - 0.5 * x, (1.0 - np.exp(-xs)) / xs)
    cva_head = (12.5 * 0.65 / capital.saccr_alpha) * capital.cva_risk_weight * m_eff

    def at(i: int) -> CapitalLevel:
        addon = scaled_spot * mat_factor[i] * _delta(option, logm, half[i], root[i])
        zero = addon == 0.0
        if zero.any():
            safe = np.where(zero, 1.0, addon)
        else:
            zero, safe = None, addon
        return CapitalLevel(
            capital=capital, addon=addon,
            denominator=2.0 * (1.0 - capital.multiplier_floor) * safe, zero=zero,
            ratio=ratio[i], cva_head=cva_head[i])
    return at


def capital_requirement_parts(mark, collateral, spot, t, option: OptionSpec,
                              capital: CapitalParams) -> CapitalBreakdown:
    """Full capital stack for explicit collateral, with every intermediate
    in a fresh array; see ``capital_requirement``."""
    # one row of times: the one time, or the (1, ...) row of one per point
    level = capital_levels(option, spot, np.asarray(t, dtype=float)[np.newaxis], capital)(0)
    delta = supervisory_delta(option, spot, t, capital.supervisory_vol)
    mf = maturity_factor(t, option.maturity, capital)
    addon = level.addon
    m_ = np.asarray(mark, dtype=float)
    gap = m_ - np.asarray(collateral, dtype=float)
    rc = np.maximum(gap, 0.0)
    mult = level.multiplier(gap, _new(gap, level.denominator))
    pfe = level.pfe(mult, _new(mult, addon))
    ead = level.ead(rc, pfe, _new(rc, pfe))
    rwa_ccr = level.rwa_ccr(ead, _new(ead))
    rwa_cva = level.rwa_cva(ead, _new(ead, level.cva_head, level.ratio))
    k_ccr = level.charge(rwa_ccr, _new(rwa_ccr))
    k_cva = level.charge(rwa_cva, _new(rwa_cva))
    k_lr = level.k_lr(m_, _new(m_, addon))
    k_total = np.maximum(k_ccr + k_cva, k_lr)

    if np.ndim(k_total) == 0:
        return CapitalBreakdown(*(float(v) for v in
                                  (delta, mf, rc, addon, mult, pfe, ead, rwa_ccr,
                                   rwa_cva, k_ccr, k_cva, k_lr, k_total)))
    return CapitalBreakdown(delta, mf, rc, addon, mult, pfe, ead, rwa_ccr,
                            rwa_cva, k_ccr, k_cva, k_lr, k_total)


def capital_requirement(t, spot, mark, option: OptionSpec, market: MarketParams,
                        capital: CapitalParams) -> CapitalBreakdown:
    """Capital stack at time ``t``, stock ``spot``, mark-to-market ``mark``.

    The collateral is the contractual fraction of the mark
    (``capital_requirement_parts`` takes any other).  The binding
    requirement is ``k_total = max(k_ccr + k_cva, k_lr)``; with the
    exposure floored at zero the first branch is nonnegative, so
    ``k_total`` is too.
    """
    collateral = market.collateral_fraction * np.asarray(mark, dtype=float)
    return capital_requirement_parts(mark, collateral, spot, t, option, capital)
