"""End-to-end PDE pricing: march the LDG-IMEX scheme and expose results.

``solve`` integrates the time-reversed conservative-form equation from the
terminal data down to valuation time and returns a ``SolveResult`` wrapping
the terminal-time-zero solution field, its LDG gradient (the delta field)
and accessors for value, delta, gamma and the valuation adjustment.

Two families of unknowns occur, flagged by ``is_adjustment``:

* ``linear`` / ``nonlinear`` / ``riskfree`` march the full contract value;
  the adjustment is recovered by subtracting the closed-form default-free
  value at the query points.
* ``garcia`` / ``garcia_ref`` march the adjustment itself from zero
  terminal data; the contract value is the closed-form mark plus the field.

The scheme order is tied to the local degree (degree 1 -> second-order
stepping, degree 2 -> third order) and the step count to the explicit CFL
bound, both fixed at construction from the configuration.

``xva_breakdown`` prices the adjustment a second, independent way: each
cost component of the linear convention is integrated against the lognormal
law of the stock and the issuer-plus-counterparty discount kernel
(Gauss-Hermite in space, composite Simpson in time).  ``garcia_scaling_check``
quantifies how far the reduced capital equation is from a constant-factor
rescaling of the issuer-kernel one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from . import imex
from .black_scholes import LognormalKernel, bs_delta, bs_gamma, bs_value, \
    lognormal_expectation
from .capital import capital_requirement
from .config import CapitalParams, MarketParams, OptionSpec, RunConfig
from .drivers import (ADJUSTMENT_KINDS, ALL_DRIVER_KINDS, MARK_KINDS, CapitalFn,
                      source_term)
from .ldg import Basis, DGField, FluxVariant, ImplicitOperator, Mesh, \
    assemble_form_matrix, assemble_implicit, convection_form, gradient_form, \
    make_basis, project_payoff, source_form, variant_for_option

__all__ = [
    "SolveResult", "SolverDivergedError", "XVABreakdown", "GarciaScalingCheck",
    "solve", "xva_breakdown", "garcia_scaling_check", "sample_grid",
]


class SolverDivergedError(RuntimeError):
    """The march lost finiteness; carries where (step, tau, cell) it happened."""

    def __init__(self, step: int, steps: int, tau: float, cell: int):
        super().__init__(
            f"solution lost finiteness at step {step}/{steps} "
            f"(tau={tau:.6g}, first affected cell {cell})")
        self.step = step
        self.tau = tau
        self.cell = cell


@dataclass(eq=False)
class SolveResult:
    """Solution of one pricing run at valuation time zero."""

    config: RunConfig
    kind: str
    variant: FluxVariant
    mesh: Mesh
    basis: Basis
    value_field: DGField
    q_field: DGField
    time_grid: imex.TimeGrid
    is_adjustment: bool
    runtime: float

    def _mark(self, s, fn):
        return fn(self.config.option, s, 0.0, self.config.market)

    def value(self, s: np.ndarray | float) -> np.ndarray | float:
        out = self.value_field.evaluate(s)
        if self.is_adjustment:
            out = out + self._mark(s, bs_value)
        return out

    def delta(self, s: np.ndarray | float) -> np.ndarray | float:
        """First derivative in the stock, read from the LDG gradient field."""
        out = self.q_field.evaluate(s)
        if self.is_adjustment:
            out = out + self._mark(s, bs_delta)
        return out

    def gamma(self, s: np.ndarray | float) -> np.ndarray | float:
        """Second derivative: in-cell slope of the gradient field."""
        out = self.q_field.derivative(s)
        if self.is_adjustment:
            out = out + self._mark(s, bs_gamma)
        return out

    def xva(self, s: np.ndarray | float) -> np.ndarray | float:
        """Adjustment over the default-free mark."""
        if self.is_adjustment:
            return self.value_field.evaluate(s)
        return self.value_field.evaluate(s) - self._mark(s, bs_value)

    @property
    def meta(self) -> dict:
        return {
            "kind": self.kind,
            "option": self.config.option.kind,
            "cells": self.mesh.cells,
            "degree": self.basis.degree,
            "variant": self.variant.value,
            "steps": self.time_grid.steps,
            "delta_tau": self.time_grid.delta,
            "runtime_seconds": self.runtime,
        }


def solve(config: RunConfig, kind: str | None = None,
          capital_fn: CapitalFn | None = None) -> SolveResult:
    """March the configured problem to valuation time zero.

    ``kind`` overrides the configured driver; it also admits the two
    validation kinds (``garcia_ref``, ``riskfree``) that ``RunConfig``
    does not expose.  ``capital_fn`` replaces the regulatory capital stack
    (``lambda t, s, m: 0.0 * m`` prices without capital costs).
    """
    kind = config.driver if kind is None else kind
    if kind not in ALL_DRIVER_KINDS:
        raise ValueError(f"unknown driver kind {kind!r}")
    option, market, capital = config.option, config.market, config.capital
    mesh = Mesh(config.s_max, config.cells)
    basis = make_basis(config.degree)
    variant = variant_for_option(option)
    speed = market.sigma ** 2 - market.drift

    def diffusion(s):
        return 0.5 * market.sigma ** 2 * np.asarray(s) ** 2

    grid = imex.select_time_grid(mesh, config.degree, speed, option.maturity,
                                 config.cfl_constant)
    order = config.degree + 1
    coef = grid.delta * imex.implicit_coefficient(order)
    op: ImplicitOperator = assemble_implicit(mesh, basis, variant, coef, diffusion)
    convection = assemble_form_matrix(mesh, basis,
                                      lambda u: convection_form(u, speed))

    if kind in ADJUSTMENT_KINDS:
        u0 = np.zeros((mesh.cells, basis.n_nodes))
    else:
        u0 = project_payoff(option, mesh, basis).coeffs

    quad = mesh.quad_points(basis)
    riskfree_fn = ((lambda t, s: bs_value(option, s, t, market))
                   if kind in MARK_KINDS else None)

    def explicit_fn(u_flat: np.ndarray, tau: float) -> np.ndarray:
        u = u_flat.reshape(mesh.cells, basis.n_nodes)
        h_vals = source_term(kind, tau, quad, u, option, market, capital,
                             riskfree_fn, capital_fn)
        return convection @ u_flat + source_form(h_vals, mesh, basis).ravel()

    started = time.perf_counter()
    u = u0.ravel()
    tau = 0.0
    for n in range(grid.steps):
        u = imex.step(order, u, tau, grid.delta, op.mass, op.apply_diffusion,
                      op.solve, explicit_fn)
        tau += grid.delta
        if not np.all(np.isfinite(u)):
            cell = int(np.flatnonzero(~np.isfinite(u))[0]) // basis.n_nodes
            raise SolverDivergedError(n + 1, grid.steps, tau, cell)
    elapsed = time.perf_counter() - started

    value_field = DGField(mesh, basis, u.reshape(mesh.cells, basis.n_nodes))
    q_field = gradient_form(value_field, variant)
    return SolveResult(config=config, kind=kind, variant=variant, mesh=mesh,
                       basis=basis, value_field=value_field, q_field=q_field,
                       time_grid=grid, is_adjustment=kind in ADJUSTMENT_KINDS,
                       runtime=elapsed)


def sample_grid(result: SolveResult) -> np.ndarray:
    """Default reporting grid: the solution's own quadrature nodes, flattened."""
    return result.mesh.quad_points(result.basis).ravel()


# ---------------------------------------------------------------------------
# independent term-by-term decomposition of the linear-convention adjustment
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XVABreakdown:
    """Adjustment components, each nonnegative except the funding benefit.

    The total reproduces the linear-convention adjustment:
    ``-cva + fbva - fcva - cra - kva``.
    """

    cva: float
    fbva: float
    fcva: float
    cra: float
    kva: float

    @property
    def total(self) -> float:
        return -self.cva + self.fbva - self.fcva - self.cra - self.kva


def xva_breakdown(spot: float, option: OptionSpec, market: MarketParams,
                  capital: CapitalParams,
                  quadrature: tuple[int, int] = (200, 64)) -> XVABreakdown:
    """Decompose the linear-convention adjustment at ``spot``, time zero.

    Each component is E of a running cost discounted by the issuer-funding
    plus counterparty-intensity kernel.  Expectations over the stock at
    horizon u use Gauss-Hermite quadrature of the lognormal law; the time
    integral is composite Simpson on ``quadrature[0]`` intervals (rounded up
    to even) with ``quadrature[1]`` Hermite nodes.
    """
    time_intervals, hermite_order = quadrature
    n = max(2, time_intervals + (time_intervals % 2))
    maturity = option.maturity
    times = np.linspace(0.0, maturity, n + 1)
    decay = market.issuer_funding_rate + market.cpty_intensity
    frac = market.collateral_fraction

    def component_values(u: float) -> np.ndarray:
        kernel = LognormalKernel(spot=spot, drift=market.drift,
                                 sigma=market.sigma, horizon=u)

        def for_each(fn):
            return lognormal_expectation(fn, kernel, hermite_order)

        def mark(z):
            return bs_value(option, z, u, market)

        exposure = for_each(lambda z: np.maximum((1.0 - frac) * mark(z), 0.0))
        shortfall = for_each(lambda z: np.maximum(-(1.0 - frac) * mark(z), 0.0))
        coll = for_each(lambda z: frac * mark(z))
        cap = for_each(lambda z: capital_requirement(
            u, z, mark(z), option, market, capital).k_total)
        disc = np.exp(-decay * u)
        return disc * np.array([
            market.cpty_spread * exposure,            # counterparty loss
            -market.issuer_spread * shortfall,        # funding benefit
            market.issuer_spread * exposure,          # funding cost
            (market.collateral_rate - market.risk_free_rate) * coll,
            (market.capital_hurdle
             - market.capital_funding_fraction * market.issuer_funding_rate) * cap,
        ])

    vals = np.array([component_values(u) for u in times])  # (n+1, 5)
    h = maturity / n
    w = np.ones(n + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    integrals = (h / 3.0) * w @ vals
    return XVABreakdown(cva=float(integrals[0]), fbva=float(integrals[1]),
                        fcva=float(integrals[2]), cra=float(integrals[3]),
                        kva=float(integrals[4]))


# ---------------------------------------------------------------------------
# reduced capital-equation rescaling check
# ---------------------------------------------------------------------------


@dataclass(eq=False)
class GarciaScalingCheck:
    """Both capital-adjustment solves and the rescaling discrepancy."""

    reduced: SolveResult        # the reduced equation's adjustment
    reference: SolveResult      # issuer-kernel capital adjustment
    factor: float               # exp(-(hurdle - funding rate) * maturity)
    max_abs_diff: float

    def lhs(self, s):
        return self.reduced.value_field.evaluate(s)

    def rhs(self, s):
        return self.factor * self.reference.value_field.evaluate(s)


def garcia_scaling_check(config: RunConfig) -> GarciaScalingCheck:
    """Compare the reduced capital adjustment against the rescaled reference.

    The conjectured relation multiplies the issuer-kernel adjustment by
    exp(-(hurdle - funding rate) * remaining maturity); it requires capital
    fully usable as funding (funding fraction 1), so anything else raises.
    The returned ``max_abs_diff`` is the largest nodal gap at time zero.
    """
    market = config.market
    if market.capital_funding_fraction != 1.0:
        raise ValueError("the rescaling relation requires capital_funding_fraction == 1")
    reduced = solve(config, kind="garcia")
    reference = solve(config, kind="garcia_ref")
    factor = float(np.exp(-(market.capital_hurdle - market.issuer_funding_rate)
                          * config.option.maturity))
    diff = reduced.value_field.coeffs - factor * reference.value_field.coeffs
    return GarciaScalingCheck(reduced=reduced, reference=reference, factor=factor,
                              max_abs_diff=float(np.max(np.abs(diff))))
