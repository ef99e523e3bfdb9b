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

The normal CDF is evaluated through ``scipy.special.erf`` (machine accurate,
error below 1e-15), which also serves the supervisory delta in the capital
module.  Beyond ``_ERF_SATURATES`` in magnitude erf is ±1 in float64, so
on an array with many such points ``erf`` runs only on the others and the
sign of the argument stands in for it, bit for bit.
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
    the result is bitwise 0.5 * (1 + erf(x / sqrt(2))).  A scalar takes
    erf directly.
    """
    z = np.asarray(x, dtype=float) / _SQRT2
    if z.ndim == 0:
        return 0.5 * (1.0 + erf(z))
    inner = np.abs(z) < _ERF_SATURATES
    if 4 * np.count_nonzero(inner) > 3 * z.size:
        return 0.5 * (1.0 + erf(z))
    e = np.sign(z)
    e[inner] = erf(z[inner])
    return 0.5 * (1.0 + e)


def norm_pdf(x: np.ndarray | float) -> np.ndarray | float:
    x = np.asarray(x, dtype=float)
    return np.exp(-0.5 * x * x) / np.sqrt(2.0 * np.pi)


def _shape_like(out: np.ndarray, spot) -> np.ndarray | float:
    return float(out) if np.ndim(spot) == 0 else out


def _d1_d2(option: OptionSpec, s: np.ndarray, tau: float, market: MarketParams):
    vol = market.sigma * np.sqrt(tau)
    with np.errstate(divide="ignore"):
        logm = np.log(np.where(s > 0.0, s, 1.0) / option.strike)
    d1 = (logm + (market.drift + 0.5 * market.sigma ** 2) * tau) / vol
    return d1, d1 - vol


def bs_value(option: OptionSpec, spot: np.ndarray | float, t: float,
             market: MarketParams) -> np.ndarray | float:
    """Default-free value at time ``t`` and stock level ``spot``.

    At ``t >= maturity`` this is the payoff; at ``spot == 0`` the absorbing
    boundary value (0 for a call, discounted strike for a put).
    """
    s = np.asarray(spot, dtype=float)
    tau = option.maturity - t
    if tau <= 0.0:
        return _shape_like(payoff(option, s), spot)
    d1, d2 = _d1_d2(option, s, tau, market)
    growth = np.exp((market.drift - market.risk_free_rate) * tau)
    disc_k = option.strike * np.exp(-market.risk_free_rate * tau)
    if option.kind == "call":
        out = s * growth * norm_cdf(d1) - disc_k * norm_cdf(d2)
        out = np.where(s > 0.0, out, 0.0)
    else:
        out = disc_k * norm_cdf(-d2) - s * growth * norm_cdf(-d1)
        out = np.where(s > 0.0, out, disc_k)
    return _shape_like(out, spot)


def bs_delta(option: OptionSpec, spot: np.ndarray | float, t: float,
             market: MarketParams) -> np.ndarray | float:
    """Derivative of ``bs_value`` in the stock level."""
    s = np.asarray(spot, dtype=float)
    tau = option.maturity - t
    if tau <= 0.0:
        if option.kind == "call":
            out = np.where(s > option.strike, 1.0, 0.0)
        else:
            out = np.where(s < option.strike, -1.0, 0.0)
        return _shape_like(out, spot)
    d1, _ = _d1_d2(option, s, tau, market)
    growth = np.exp((market.drift - market.risk_free_rate) * tau)
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
    tau = option.maturity - t
    if tau <= 0.0:
        return _shape_like(np.zeros_like(s), spot)
    d1, _ = _d1_d2(option, s, tau, market)
    growth = np.exp((market.drift - market.risk_free_rate) * tau)
    vol = market.sigma * np.sqrt(tau)
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
