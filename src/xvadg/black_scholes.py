"""Closed-form default-free pricing and lognormal expectation quadrature.

The default-free value of the contract solves the constant-coefficient
backward equation with stock drift ``beta = repo - dividend`` and discount
rate ``r``; its solution is the usual lognormal formula with forward
``S * exp(beta * tau)``.  These functions back three independent uses:

* the mark-to-market entering the linear driver and the capital profile,
* the analytic oracle for the PDE engine's risk-free test hook,
* the kernel quadrature behind the adjustment term decomposition, where
  expectations E[h(S_u) | S_t] are integrated against the lognormal
  transition density with Gauss-Hermite nodes.

The mark is built in three parts.  :func:`mark_space` holds what depends on
S alone: the spots, the log-moneyness ``log(S/K)`` and the mask of the
spots ``S <= 0``.  :func:`mark_times` holds what depends on t alone, one
entry per time of any array of times: tau, ``vol = sigma sqrt(tau)``, the
carry ``(beta + sigma^2/2) tau``, the growth ``exp((beta - r) tau)`` and the
discounted strike.  :func:`mark_at` does the joint (t, S) work at one row of
that table.  ``bs_value`` is the three on one time, so a caller that
prices the same spots at many times (the PDE, at every stage of its march)
builds the space part once and the time table once, and each operation
keeps the operands and grouping of the one-line formula.

The normal CDF is evaluated through ``scipy.special.erf`` (machine
accurate, error below 1e-15), which also serves the supervisory delta in
the capital module.  On an array it forms the result in place, in the
buffer of the scaled argument x / sqrt(2).  Beyond ``_ERF_SATURATES`` in
magnitude erf is ±1 in float64, so on an array with many such points
``erf`` runs only on the others and the sign of the argument stands in for
it, bit for bit.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import erf

from .config import MarketParams, OptionSpec, payoff

_SQRT2 = np.sqrt(2.0)
_INV_SQRTPI = 1.0 / np.sqrt(np.pi)

#: |z| from which scipy's erf(z) is exactly ±1: cephes takes erf as
#: 1 - erfc for |z| > 1, and erfc(6) ~ 2.2e-17 is below half an ulp of 1
#: (2**-54 ~ 5.6e-17); erf reads ±1.0 at ±6 and on a dense grid of [6, 30]
_ERF_SATURATES = 6.0


def norm_cdf(x: np.ndarray | float) -> np.ndarray | float:
    """Standard normal distribution function.

    Where |x|/sqrt(2) >= ``_ERF_SATURATES`` erf is exactly ±1, so for an
    array with at least a quarter of its points there, erf runs only on
    the others and the sign of x/sqrt(2) stands in elsewhere (NaN stays
    NaN).  Below a quarter, copying the points in and out costs more than
    the skipped erf calls save (3% saturated: 1.3x the time of plain erf on
    32k and on 3840 points), so erf runs on the whole array.  Either way
    the result is bitwise 0.5 * (1 + erf(x / sqrt(2))), formed in place in
    the buffer of x / sqrt(2): erf, then ``+= 1`` and ``*= 0.5``.  A
    scalar takes erf directly.

    erf is never called with ``where=``: on scipy 1.17.1,
    ``erf(z, out=z, where=mask)`` returned wrong bits and then aborted with
    heap corruption, so the saturated branch gathers the inner points
    instead.
    """
    z = np.asarray(x, dtype=float) / _SQRT2
    if z.ndim == 0:
        return 0.5 * (1.0 + erf(z))
    inner = np.abs(z) < _ERF_SATURATES
    if 4 * np.count_nonzero(inner) > 3 * z.size:
        erf(z, out=z)
    else:
        e = erf(z[inner])
        np.sign(z, out=z)
        z[inner] = e
    z += 1.0
    z *= 0.5
    return z


def norm_pdf(x: np.ndarray | float) -> np.ndarray | float:
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def _shape_like(out: np.ndarray, spot) -> np.ndarray | float:
    return float(out) if np.ndim(spot) == 0 else out


@dataclass(frozen=True, eq=False)
class TimeTable:
    """Coefficients that depend on the time alone, each field an array with
    one entry per time (or a scalar for one time).  ``table[i]`` is the
    table of the one time ``i``, each field indexed."""

    def __getitem__(self, i) -> "TimeTable":
        return type(self)(*(getattr(self, name)[i] for name in self.__dataclass_fields__))


@dataclass(frozen=True, eq=False)
class MarkSpace:
    """The S-only part of the closed-form mark: the spots, their
    log-moneyness ``log(S/K)`` (``log(1/K)`` where S <= 0) and the mask of
    the spots S <= 0 (``None`` when there is none)."""

    spot: np.ndarray
    log_moneyness: np.ndarray
    nonpositive: np.ndarray | None


def mark_space(option: OptionSpec, spot: np.ndarray | float) -> MarkSpace:
    """The :class:`MarkSpace` of ``spot``."""
    s = np.asarray(spot, dtype=float)
    positive = s > 0.0
    with np.errstate(divide="ignore"):
        logm = np.log(np.where(positive, s, 1.0) / option.strike)
    return MarkSpace(spot=s, log_moneyness=logm,
                     nonpositive=None if positive.all() else ~positive)


@dataclass(frozen=True, eq=False)
class MarkTimes(TimeTable):
    """The t-only part of the closed-form mark at each time: ``tau = T - t``,
    ``vol = sigma sqrt(tau)``, ``carry = (beta + sigma^2/2) tau``,
    ``growth = exp((beta - r) tau)`` and ``disc_k = K exp(-r tau)``.  At a
    time with tau <= 0 the mark is the payoff, and every field but tau holds
    a placeholder."""

    tau: np.ndarray | float
    vol: np.ndarray | float
    carry: np.ndarray | float
    growth: np.ndarray | float
    disc_k: np.ndarray | float


def mark_times(option: OptionSpec, t: np.ndarray | float,
               market: MarketParams) -> MarkTimes:
    """The :class:`MarkTimes` of every time in ``t`` (any shape)."""
    tau = option.maturity - np.asarray(t, dtype=float)
    # the payoff's times compute nothing of their own: no sqrt of tau < 0
    live = np.where(tau <= 0.0, 1.0, tau)
    return MarkTimes(
        tau=tau, vol=market.sigma * np.sqrt(live),
        carry=(market.drift + 0.5 * market.sigma ** 2) * live,
        growth=np.exp((market.drift - market.risk_free_rate) * live),
        disc_k=option.strike * np.exp(-market.risk_free_rate * live))


def _d1(space: MarkSpace, row: MarkTimes) -> np.ndarray:
    """``d1 = (log-moneyness + carry) / vol`` at one time, in a new array."""
    d1 = np.add(space.log_moneyness, row.carry, out=np.empty(np.shape(space.log_moneyness)))
    d1 /= row.vol
    return d1


def mark_at(option: OptionSpec, space: MarkSpace, row: MarkTimes) -> np.ndarray:
    """The default-free value on the spots of ``space`` at the one time of
    ``row``, in a new array of the spots' shape; see :func:`bs_value`."""
    s = space.spot
    if row.tau <= 0.0:
        return payoff(option, s)
    d1 = _d1(space, row)
    d2 = np.subtract(d1, row.vol, out=np.empty(d1.shape))
    # s * growth * N(+-d1) and disc_k * N(+-d2), each product in place
    held = np.multiply(s, row.growth, out=np.empty(d1.shape))
    if option.kind == "call":
        held *= norm_cdf(d1)
        owed = norm_cdf(d2)
        owed *= row.disc_k
        held -= owed
        out, boundary = held, 0.0
    else:
        owed = norm_cdf(np.negative(d2, out=d2))
        owed *= row.disc_k
        held *= norm_cdf(np.negative(d1, out=d1))
        owed -= held
        out, boundary = owed, row.disc_k
    if space.nonpositive is not None:
        out = np.where(space.nonpositive, boundary, out)
    return out


def bs_value(option: OptionSpec, spot: np.ndarray | float, t: float,
             market: MarketParams) -> np.ndarray | float:
    """Default-free value at time ``t`` and stock level ``spot``.

    At ``t >= maturity`` this is the payoff; at ``spot == 0`` the absorbing
    boundary value (0 for a call, discounted strike for a put).
    """
    return _shape_like(mark_at(option, mark_space(option, spot),
                               mark_times(option, t, market)), spot)


def bs_delta(option: OptionSpec, spot: np.ndarray | float, t: float,
             market: MarketParams) -> np.ndarray | float:
    """Derivative of ``bs_value`` in the stock level."""
    s = np.asarray(spot, dtype=float)
    row = mark_times(option, t, market)
    if row.tau <= 0.0:
        if option.kind == "call":
            out = np.where(s > option.strike, 1.0, 0.0)
        else:
            out = np.where(s < option.strike, -1.0, 0.0)
        return _shape_like(out, spot)
    d1 = _d1(mark_space(option, s), row)
    growth = row.growth
    if option.kind == "call":
        out = growth * norm_cdf(d1)
        out = np.where(s > 0.0, out, 0.0)
    else:
        out = growth * (norm_cdf(d1) - 1.0)
        out = np.where(s > 0.0, out, -growth)
    return _shape_like(out, spot)


def bs_gamma(option: OptionSpec, spot: np.ndarray | float, t: float,
             market: MarketParams) -> np.ndarray | float:
    """Second derivative of ``bs_value`` in the stock level (same for both kinds)."""
    s = np.asarray(spot, dtype=float)
    row = mark_times(option, t, market)
    if row.tau <= 0.0:
        return _shape_like(np.zeros_like(s), spot)
    d1 = _d1(mark_space(option, s), row)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(s > 0.0, row.growth * norm_pdf(d1) / (s * row.vol), 0.0)
    return _shape_like(out, spot)


@dataclass(frozen=True)
class LognormalKernel:
    """Lognormal transition law: S_h = spot * exp((drift - sigma^2/2) h + sigma W_h)."""

    spot: float
    drift: float
    sigma: float
    horizon: float

    def __post_init__(self) -> None:
        if not self.spot >= 0.0:
            raise ValueError("kernel spot must be nonnegative")
        if not self.sigma >= 0.0:
            raise ValueError("kernel sigma must be nonnegative")
        if not self.horizon >= 0.0:
            raise ValueError("kernel horizon must be nonnegative")


@functools.lru_cache(maxsize=8)
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights, built once per order and shared read-only."""
    x, w = np.polynomial.hermite.hermgauss(order)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def lognormal_expectation(fn: Callable[[np.ndarray], np.ndarray],
                          kernel: LognormalKernel, order: int = 64) -> float:
    """E[fn(S_h)] under ``kernel`` by Gauss-Hermite quadrature.

    ``fn`` must accept a vector of stock levels.  A zero horizon is the
    point mass at ``spot``.  The rule integrates polynomials in the normal
    increment exactly up to degree ``2*order - 1``; 64 nodes leave the
    moment identities E[S_h] = spot*exp(drift*h) and E[S_h^2] accurate to
    relative 1e-13 for the vol/horizon ranges used here.
    """
    if order < 1:
        raise ValueError("quadrature order must be at least 1")
    if kernel.horizon == 0.0 or kernel.sigma == 0.0:
        drift_move = kernel.spot * np.exp(kernel.drift * kernel.horizon)
        return float(np.asarray(fn(np.asarray([drift_move])), dtype=float)[0])
    x, w = _hermite_rule(order)
    m = (kernel.drift - 0.5 * kernel.sigma ** 2) * kernel.horizon
    scale = kernel.sigma * np.sqrt(kernel.horizon) * _SQRT2
    levels = kernel.spot * np.exp(m + scale * x)
    vals = np.asarray(fn(levels), dtype=float)
    return float(np.dot(w, vals) * _INV_SQRTPI)
