"""End-to-end PDE pricing: march the LDG-IMEX scheme and expose results.

``solve`` integrates the time-reversed conservative-form equation from the
terminal data down to valuation time and returns a ``SolveResult`` wrapping
the terminal-time-zero solution field, its LDG gradient (the delta field)
and accessors for value, delta, gamma and the valuation adjustment.

Two families of unknowns occur, flagged by ``is_adjustment`` as
:func:`xvadg.drivers.is_adjustment_kind` decides: a full-price kind
marches the contract value from the payoff, and its adjustment is the
value minus the closed-form default-free value; an adjustment kind
marches the adjustment from zero terminal data, and its value is the
closed-form mark plus the field.  The driver, its mark included, comes
whole from :mod:`xvadg.drivers`: the march asks
:func:`xvadg.drivers.driver_levels` once for every distinct stage time of
the schedule :func:`xvadg.imex.stage_times` gives, so the space part of
the driver's (t, S) work is built once per solve and its time table once
per march.  Each stage looks its level up by its exact stage time (a stage
time off the schedule is a ``KeyError``) and builds the joint (t, S) part
when the time is new; the last level is kept, so third order, whose last
stage time is the next step's first, builds 3 steps + 1 levels for its
4 steps evaluations.  ``meta`` reports both counts.

The scheme order is tied to the local degree (degree 1 -> second-order
stepping, degree 2 -> third order) and the step count to the explicit CFL
bound, both fixed at construction from the configuration.

``solve_many`` prices several configurations at once.  Configurations that
differ only in the market fields of ``BATCHED_FIELDS`` (the capital hurdle
and the collateral rate, which enter the driver as scalar coefficients)
form one group; everything else -- option, mesh, degree, CFL constant,
volatility, drift, every other rate and capital parameter, and the driver
kind -- must match exactly.  A group shares one operator assembly, one
banded factorisation, one convection matrix and one time grid, and marches
its B scenarios as one (N, B) state, N = cells * (degree+1), column b
holding scenario b's nodal values cell by cell.  The group's market carries
the batched fields as (B,) arrays, so each driver formula broadcasts them
over the last axis and evaluates its (t, S)-only part (closed-form mark,
SA-CCR add-on) once per stage time for the whole group.  ``solve`` is
``solve_many`` on one configuration, so one march loop serves both.

``xva_breakdown`` prices the adjustment a second, independent way: each
cost component of the linear convention is integrated against the lognormal
law of the stock and the issuer-plus-counterparty discount kernel
(Gauss-Hermite in space, composite Simpson in time).  ``garcia_scaling_check``
quantifies how far the reduced capital equation is from a constant-factor
rescaling of the issuer-kernel one.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import imex
from .black_scholes import LognormalKernel, bs_delta, bs_gamma, bs_value, \
    lognormal_expectation
from .capital import capital_requirement
from .config import CapitalParams, MarketParams, OptionSpec, RunConfig, \
    config_to_dict
from .drivers import CapitalFn, driver_levels, is_adjustment_kind, source_on
# not called here; it stays a name of this module for tools that wrap the
# driver where each module looks it up (bench/tracing.py)
from .drivers import source_term  # noqa: F401
from .ldg import Basis, DGField, FluxVariant, ImplicitOperator, Mesh, \
    assemble_form_matrix, assemble_implicit, convection_form, gradient_form, \
    make_basis, project_payoff, source_form, variant_for_option

__all__ = [
    "BATCHED_FIELDS", "SolveResult", "SolverDivergedError", "XVABreakdown",
    "GarciaScalingCheck", "solve", "solve_many", "scenario_groups",
    "xva_breakdown", "garcia_scaling_check", "sample_grid",
]

#: market fields that enter the driver only as scalar coefficients: the
#: configurations of one ``solve_many`` group may differ in these alone
BATCHED_FIELDS = ("capital_hurdle", "collateral_rate")

#: ``xva_breakdown`` quadrature: composite-Simpson time intervals (even) and
#: Gauss-Hermite nodes per lognormal expectation
_SIMPSON_INTERVALS = 200
_HERMITE_ORDER = 64


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
    """Solution of one pricing run at valuation time zero.

    ``runtime`` and the counters describe the march of the whole group the
    run was batched in (``batch_width`` scenarios, see ``solve_many``).
    """

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
    batch_width: int
    implicit_solves: int
    driver_evaluations: int
    driver_levels: int

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
            "cfl_number": self.time_grid.cfl,
            "batch_width": self.batch_width,
            "implicit_solves": self.implicit_solves,
            "driver_evaluations": self.driver_evaluations,
            "driver_levels": self.driver_levels,
            "runtime_seconds": self.runtime,
        }


def solve(config: RunConfig, kind: str | None = None,
          capital_fn: CapitalFn | None = None) -> SolveResult:
    """March the configured problem to valuation time zero.

    ``kind`` overrides the configured driver; it also admits the two
    validation kinds (``garcia_ref``, ``riskfree``) that ``RunConfig``
    does not expose.  ``capital_fn`` replaces the regulatory capital stack
    (``lambda t, s, m: 0.0 * m`` prices without capital costs); it is called
    with spots of shape (cells, degree+1, 1) and marks that broadcast
    against them, (cells, degree+1, B) for a batch of B scenarios.
    """
    return solve_many([config], kind, capital_fn)[0]


def solve_many(configs: Sequence[RunConfig], kind: str | None = None,
               capital_fn: CapitalFn | None = None) -> list[SolveResult]:
    """``solve`` for each configuration, in input order, marching each group
    of ``scenario_groups`` as one batch; ``kind`` and ``capital_fn`` apply
    to every configuration.  Each result equals its ``solve`` bit for bit.
    """
    results: list = [None] * len(configs)
    for members in scenario_groups(configs, kind):
        group = [configs[i] for i in members]
        for i, result in zip(members, _march_group(group, kind, capital_fn)):
            results[i] = result
    return results


def scenario_groups(configs: Sequence[RunConfig],
                    kind: str | None = None) -> list[list[int]]:
    """Indices of the configurations that march together, in order of first
    appearance: equal in every field but ``BATCHED_FIELDS``, and in kind."""
    groups: dict = {}
    for i, config in enumerate(configs):
        fields = config_to_dict(config)
        for name in BATCHED_FIELDS:
            del fields[name]
        key = (config.driver if kind is None else kind, tuple(sorted(fields.items())))
        groups.setdefault(key, []).append(i)
    return list(groups.values())


def _march_group(group: list[RunConfig], kind: str | None,
                 capital_fn: CapitalFn | None) -> list[SolveResult]:
    """One march of a ``scenario_groups`` group; one result per member."""
    config = group[0]
    kind = config.driver if kind is None else kind
    is_adjustment = is_adjustment_kind(kind)
    option, capital, market = config.option, config.capital, config.market
    width = len(group)
    market = dataclasses.replace(market, **{
        name: np.array([getattr(c.market, name) for c in group])
        for name in BATCHED_FIELDS})
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

    shape = (mesh.cells, basis.n_nodes, width)
    if is_adjustment:
        u = np.zeros(shape)
    else:
        u = np.repeat(project_payoff(option, mesh, basis).coeffs[..., None],
                      width, axis=2)
    u = u.reshape(-1, width)

    # (cells, nodes, 1): the driver's (t, S) part broadcasts over the batch
    spots = mesh.quad_points(basis)[..., None]
    stage_taus = imex.stage_times(order, grid)
    stage_index = {tau: i for i, tau in enumerate(stage_taus)}
    level_at = driver_levels(kind, [option.maturity - tau for tau in stage_taus],
                             spots, option, market, capital, capital_fn)
    last = {}   # the level of the last stage time met, by its index
    counts = {"implicit_solves": 0, "driver_evaluations": 0, "driver_levels": 0}

    def explicit_fn(state: np.ndarray, tau: float) -> np.ndarray:
        i = stage_index[tau]
        if i not in last:
            last.clear()
            last[i] = level_at(i)
            counts["driver_levels"] += 1
        counts["driver_evaluations"] += 1
        h_vals = source_on(last[i], state.reshape(shape), market)
        return convection @ state + source_form(h_vals, mesh, basis).reshape(state.shape)

    def solve_shifted(rhs: np.ndarray) -> np.ndarray:
        counts["implicit_solves"] += 1
        return op.solve(rhs)

    mass = op.mass[:, None]
    started = time.perf_counter()
    tau = 0.0
    for n in range(grid.steps):
        u = imex.step(order, u, tau, grid.delta, mass, op.apply_diffusion,
                      solve_shifted, explicit_fn)
        tau += grid.delta
        finite = np.isfinite(u)
        if not finite.all():
            row = int(np.flatnonzero(~finite.all(axis=1))[0])
            raise SolverDivergedError(n + 1, grid.steps, tau, row // basis.n_nodes)
    elapsed = time.perf_counter() - started

    results = []
    for b, member in enumerate(group):
        coeffs = np.ascontiguousarray(u[:, b]).reshape(mesh.cells, basis.n_nodes)
        value_field = DGField(mesh, basis, coeffs)
        results.append(SolveResult(
            config=member, kind=kind, variant=variant, mesh=mesh, basis=basis,
            value_field=value_field, q_field=gradient_form(value_field, variant),
            time_grid=grid, is_adjustment=is_adjustment,
            runtime=elapsed, batch_width=width, **counts))
    return results


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
                  capital: CapitalParams) -> XVABreakdown:
    """Decompose the linear-convention adjustment at ``spot``, time zero.

    Each component is E of a running cost discounted by the issuer-funding
    plus counterparty-intensity kernel.  Expectations over the stock at
    horizon u use Gauss-Hermite quadrature of the lognormal law; the time
    integral is composite Simpson on ``_SIMPSON_INTERVALS`` intervals with
    ``_HERMITE_ORDER`` Hermite nodes.
    """
    n = _SIMPSON_INTERVALS
    maturity = option.maturity
    times = np.linspace(0.0, maturity, n + 1)
    decay = market.issuer_funding_rate + market.cpty_intensity
    frac = market.collateral_fraction

    def component_values(u: float) -> np.ndarray:
        kernel = LognormalKernel(spot=spot, drift=market.drift,
                                 sigma=market.sigma, horizon=u)

        def for_each(fn):
            return lognormal_expectation(fn, kernel, _HERMITE_ORDER)

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
