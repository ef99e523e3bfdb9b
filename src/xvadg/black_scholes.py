"""Closed-form default-free pricing and lognormal expectation quadrature.

The default-free value of the contract solves the constant-coefficient
backward equation with stock drift ``beta = repo - dividend`` and discount
rate ``r``; its solution is the usual lognormal formula with forward
``S * exp(beta * tau)``.  These functions back three independent uses:

* the mark-to-market entering the linear driver and the capital profile,
* the analytic oracle of the ``riskfree`` kind, on the PDE and the Monte Carlo,
* the kernel quadrature behind the adjustment term decomposition, where
  expectations E[h(S_u) | S_t] are integrated against the lognormal
  transition density with Gauss-Hermite nodes.

The mark of one spot array at many times is :func:`mark_levels`, a
function of the time's index.  It builds what depends on S alone (the
log-moneyness ``log(S/K)`` and the mask of the spots ``S <= 0``) and what
depends on t alone (tau, ``vol = sigma sqrt(tau)``, the carry
``(beta + sigma^2/2) tau``, the growth ``exp((beta - r) tau)`` and the
discounted strike) once, and does the joint (t, S) work when a time is
asked for, with the operands and grouping of the one-line formula.  So a
caller that prices the same spots at many times (the PDE, at every stage
of its march) pays for the spot and time terms once; ``bs_value`` is the
builder at one time.

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

#: Gauss-Hermite nodes of every lognormal expectation
_HERMITE_ORDER = 64


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


def _spot_terms(option: OptionSpec, s: np.ndarray) -> tuple:
    """What the mark needs of the spots alone: the log-moneyness
    ``log(S/K)`` (``log(1/K)`` where S <= 0) and the mask of the spots
    S <= 0 (``None`` when there is none)."""
    positive = s > 0.0
    with np.errstate(divide="ignore"):
        logm = np.log(np.where(positive, s, 1.0) / option.strike)
    return logm, None if positive.all() else ~positive


def _time_terms(option: OptionSpec, t, market: MarketParams) -> tuple:
    """What the mark needs of the times alone, one entry per time of ``t``
    (any shape): ``tau = T - t``, ``vol = sigma sqrt(tau)``, the carry
    ``(beta + sigma^2/2) tau``, the growth ``exp((beta - r) tau)`` and the
    discounted strike ``K exp(-r tau)``.  At a time with tau <= 0 the mark
    is the payoff, and every entry but tau holds a placeholder."""
    tau = option.maturity - np.asarray(t, dtype=float)
    # the payoff's times compute nothing of their own: no sqrt of tau < 0
    live = np.where(tau <= 0.0, 1.0, tau)
    return (tau, market.sigma * np.sqrt(live),
            (market.drift + 0.5 * market.sigma ** 2) * live,
            np.exp((market.drift - market.risk_free_rate) * live),
            option.strike * np.exp(-market.risk_free_rate * live))


def mark_levels(option: OptionSpec, spot: np.ndarray | float, times,
                market: MarketParams) -> Callable[[int], np.ndarray]:
    """The default-free value on ``spot`` at each time of ``times``, as a
    function of the index ``i`` that prices at ``times[i]``; see
    :func:`bs_value`.

    The terms of the spots alone and of the times alone are built here,
    once; each call does the joint (t, S) work of one time afresh.
    """
    s = np.asarray(spot, dtype=float)
    logm, nonpositive = _spot_terms(option, s)
    tau, vol, carry, growth, disc_k = _time_terms(option, times, market)

    def at(i: int) -> np.ndarray:
        if tau[i] <= 0.0:
            return payoff(option, s)
        d1 = (logm + carry[i]) / vol[i]
        d2 = d1 - vol[i]
        if option.kind == "call":
            out = s * growth[i] * norm_cdf(d1) - disc_k[i] * norm_cdf(d2)
            boundary = 0.0
        else:
            out = disc_k[i] * norm_cdf(-d2) - s * growth[i] * norm_cdf(-d1)
            boundary = disc_k[i]
        if nonpositive is not None:
            out = np.where(nonpositive, boundary, out)
        return out
    return at


def bs_value(option: OptionSpec, spot: np.ndarray | float, t: float,
             market: MarketParams) -> np.ndarray | float:
    """Default-free value at time ``t`` and stock level ``spot``.

    At ``t >= maturity`` this is the payoff; at ``spot == 0`` the absorbing
    boundary value (0 for a call, discounted strike for a put).
    """
    return _shape_like(mark_levels(option, spot, (t,), market)(0), spot)


def bs_delta(option: OptionSpec, spot: np.ndarray | float, t: float,
             market: MarketParams) -> np.ndarray | float:
    """Derivative of ``bs_value`` in the stock level."""
    s = np.asarray(spot, dtype=float)
    tau, vol, carry, growth, _ = _time_terms(option, t, market)
    if tau <= 0.0:
        if option.kind == "call":
            out = np.where(s > option.strike, 1.0, 0.0)
        else:
            out = np.where(s < option.strike, -1.0, 0.0)
        return _shape_like(out, spot)
    d1 = (_spot_terms(option, s)[0] + carry) / vol
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
    tau, vol, carry, growth, _ = _time_terms(option, t, market)
    if tau <= 0.0:
        return _shape_like(np.zeros_like(s), spot)
    d1 = (_spot_terms(option, s)[0] + carry) / vol
    with np.errstate(divide="ignore", invalid="ignore"):
        out = np.where(s > 0.0, growth * norm_pdf(d1) / (s * vol), 0.0)
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


@functools.cache
def _hermite_rule() -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights, built on first use, shared read-only."""
    x, w = np.polynomial.hermite.hermgauss(_HERMITE_ORDER)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


def lognormal_expectation(fn: Callable[[np.ndarray], np.ndarray],
                          kernel: LognormalKernel) -> float | np.ndarray:
    """E[fn(S_h)] under ``kernel`` by Gauss-Hermite quadrature.

    ``fn`` must accept a vector of stock levels and return one value per
    level (a float expectation) or a stack of k rows of them (k expectations
    on one node set).  Each row is a dot product of its own, bit for bit a
    one-row call; a matrix product would sum in another order.  A zero
    horizon is the point mass at ``spot``.  The rule of ``_HERMITE_ORDER``
    nodes integrates polynomials in the normal increment exactly up to
    degree ``2 * _HERMITE_ORDER - 1``; 64 nodes leave the moment identities
    E[S_h] = spot*exp(drift*h) and E[S_h^2] accurate to relative 1e-13 for
    the vol/horizon ranges used here.
    """
    if kernel.horizon == 0.0 or kernel.sigma == 0.0:
        drift_move = kernel.spot * np.exp(kernel.drift * kernel.horizon)
        vals = np.asarray(fn(np.asarray([drift_move])), dtype=float)[..., 0]
        return float(vals) if vals.ndim == 0 else vals
    x, w = _hermite_rule()
    m = (kernel.drift - 0.5 * kernel.sigma ** 2) * kernel.horizon
    scale = kernel.sigma * np.sqrt(kernel.horizon) * _SQRT2
    levels = kernel.spot * np.exp(m + scale * x)
    vals = np.ascontiguousarray(fn(levels), dtype=float)
    sums = np.array([np.dot(w, row) for row in np.atleast_2d(vals)]) * _INV_SQRTPI
    return float(sums[0]) if vals.ndim == 1 else sums
