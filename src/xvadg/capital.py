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
broadcasting.  The stack splits at the mark, and its mark-free part splits
again into three.  :func:`capital_space` holds what depends on S alone: the
supervisory log-moneyness ``log((S + 0.01)/(K + 0.01))`` and
``S * supervisory_factor``.  :func:`capital_times` holds what depends on t
alone, one entry per time of any array of times (or per point): the
supervisory delta's ``sigma_r^2 h / 2`` and ``sigma_r sqrt(h)`` at the
floored horizon h, the maturity factor, and the CVA term's ratio
``(1 - exp(-x))/x`` and scalar head, both of the CVA maturity ``m_eff``.
:func:`saccr_addon_at` does the joint (t, S) work at one row of that table
(the supervisory delta and the add-on), and :func:`capital_level_at` turns
it into a :class:`CapitalLevel`: the add-on, the PFE denominator
``2 (1 - floor) addon`` (with the mask of the add-ons that are exactly
zero, only where there are any), the ratio and the head.
``CapitalLevel.total`` applies the rest to a mark in place and returns the
binding requirement alone; ``capital_requirement_parts`` applies the same
formula helpers to fresh arrays and returns every intermediate as a
``CapitalBreakdown`` for audit.  The public functions of (t, S) are the
three parts at their own times, so there is one code path: a caller that
prices many marks at one (t, S), as the drivers do, builds the level once,
and one that prices the same spots at many times (the PDE) builds the
space part and the time table once each.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import CapitalParams, MarketParams, OptionSpec
from .black_scholes import TimeTable, norm_cdf

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
    """The supervisory ``log((S + 0.01)/(K + 0.01))``, in a new array."""
    s = np.asarray(spot, dtype=float)
    arg = np.add(s, 0.01, out=_new(s))
    arg /= option.strike + 0.01
    return np.log(arg, out=arg)


def _delta(option: OptionSpec, log_moneyness, half, root) -> np.ndarray | float:
    """The signed supervisory delta ``N(+-(log_moneyness + half)/root)``."""
    arg = np.add(log_moneyness, half, out=_new(log_moneyness, half, root))
    arg /= root
    if option.kind == "call":
        return norm_cdf(arg)
    out = norm_cdf(np.negative(arg, out=arg))
    return np.negative(out, out=out) if np.ndim(out) else -out


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
class CapitalSpace:
    """The S-only part of the capital stack: the supervisory log-moneyness
    ``log((S + 0.01)/(K + 0.01))`` and ``S * supervisory_factor``."""

    log_moneyness: np.ndarray
    scaled_spot: np.ndarray


def capital_space(spot, option: OptionSpec, capital: CapitalParams) -> CapitalSpace:
    """The :class:`CapitalSpace` of ``spot``."""
    s = np.asarray(spot, dtype=float)
    return CapitalSpace(log_moneyness=_log_moneyness(option, s),
                        scaled_spot=np.multiply(s, capital.supervisory_factor, out=_new(s)))


@dataclass(frozen=True, eq=False)
class CapitalTimes(TimeTable):
    """The t-only part of the capital stack at each time: the supervisory
    delta's ``half = sigma_r^2 h / 2`` and ``root = sigma_r sqrt(h)``, the
    maturity factor, and, with the CVA maturity ``m_eff = clip(T - t, 0,
    1)``, the CVA term's ratio ``(1 - exp(-x))/x`` at ``x = 0.05 m_eff`` and
    its head ``(12.5 * 0.65 / alpha) * cva_rw * m_eff``."""

    half: np.ndarray | float
    root: np.ndarray | float
    mat_factor: np.ndarray | float
    ratio: np.ndarray | float
    cva_head: np.ndarray | float


def capital_times(t, option: OptionSpec, capital: CapitalParams) -> CapitalTimes:
    """The :class:`CapitalTimes` of every time in ``t`` (any shape)."""
    half, root = _delta_coefficients(option.maturity, t, capital.supervisory_vol)
    m_eff = np.clip(option.maturity - np.asarray(t, dtype=float), 0.0, 1.0)
    x = 0.05 * m_eff
    # (1 - exp(-x))/x, switching to its series below 5e-8 to dodge 0/0
    small = x < 5e-8
    xs = np.where(small, 1.0, x)
    return CapitalTimes(
        half=half, root=root, mat_factor=maturity_factor(t, option.maturity, capital),
        ratio=np.where(small, 1.0 - 0.5 * x, (1.0 - np.exp(-xs)) / xs),
        cva_head=(12.5 * 0.65 / capital.saccr_alpha) * capital.cva_risk_weight * m_eff)


def saccr_addon_at(option: OptionSpec, space: CapitalSpace, row: CapitalTimes) -> tuple:
    """The supervisory delta and the signed SA-CCR add-on
    ``(S * supervisory_factor) * maturity_factor * delta`` on the spots of
    ``space`` at the times of ``row`` (one time, or one per point)."""
    delta = _delta(option, space.log_moneyness, row.half, row.root)
    addon = np.multiply(space.scaled_spot, row.mat_factor,
                        out=_new(space.scaled_spot, row.mat_factor, delta))
    addon *= delta
    return delta, addon


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


def capital_level_at(option: OptionSpec, space: CapitalSpace, row: CapitalTimes,
                     capital: CapitalParams) -> CapitalLevel:
    """The :class:`CapitalLevel` on the spots of ``space`` at the times of
    ``row``."""
    return _level_on_addon(saccr_addon_at(option, space, row)[1], row, capital)


def _level_on_addon(addon, row: CapitalTimes, capital: CapitalParams) -> CapitalLevel:
    addon = np.asarray(addon, dtype=float)
    zero = addon == 0.0
    if zero.any():
        safe = np.where(zero, 1.0, addon)
    else:
        zero, safe = None, addon
    return CapitalLevel(
        capital=capital, addon=addon,
        denominator=2.0 * (1.0 - capital.multiplier_floor) * safe, zero=zero,
        ratio=row.ratio, cva_head=row.cva_head)


def capital_requirement_parts(mark, collateral, spot, t, option: OptionSpec,
                              capital: CapitalParams) -> CapitalBreakdown:
    """Full capital stack for explicit collateral, with every intermediate
    in a fresh array; see ``capital_requirement``."""
    times = capital_times(t, option, capital)
    delta, addon = saccr_addon_at(option, capital_space(spot, option, capital), times)
    mf = times.mat_factor
    level = _level_on_addon(addon, times, capital)
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
