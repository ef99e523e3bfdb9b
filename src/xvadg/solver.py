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
closed-form mark plus the field.  The march's linear operator L is one
form, written once here: the LDG diffusion, the convection and the
mass-weighted zeroth-order term ``(sigma^2 - drift) v`` that rewriting the
generator in conservative form leaves.  It is implicit, and the explicit
stage is the driver alone, ``-M F(maturity - tau, S, v)``; the driver, its
mark included, comes whole from :mod:`xvadg.drivers`.  The march asks
:func:`xvadg.drivers.driver_levels` once for every distinct stage time of
the schedule :func:`xvadg.imex.stage_times` gives, so the kernels' level
builders make their spot and time terms once per march.  Each stage looks
its level up by its exact stage time (a stage time off the schedule is a
``KeyError``) and builds the joint (t, S) part when the time is new; the
last level is kept, so third order, whose last stage time is the next
step's first, builds 3 steps + 1 levels for its 4 steps evaluations.
``meta`` reports both counts.

The scheme order is tied to the local degree (degree 1 -> second-order
stepping, degree 2 -> third order) and the step to the mesh width
(:func:`xvadg.imex.select_time_grid`), both fixed from the configuration.

``solve_many`` prices several configurations at once.  Configurations that
differ only in the market fields of :data:`xvadg.drivers.BATCHED_FIELDS`
(the capital hurdle and the collateral rate, which enter the driver as
coefficients) form one group; everything else -- option, mesh, degree,
CFL constant, volatility, drift, every other rate and capital parameter,
and the driver kind -- must match exactly.  A group shares one operator
assembly, one banded factorisation and one time grid, and marches its B
scenarios as one C-contiguous (B, N) state, N = cells * (degree+1), row b
holding scenario b's nodal values cell by cell.  The driver sees that
state as (B, cells, degree+1) on spots of shape (cells, degree+1), and
the march passes it the group's two coefficients as (B, 1, 1) arrays
beside a market of numbers, so each driver formula broadcasts its
(t, S)-only part (closed-form mark, SA-CCR add-on), built once per stage
time for the whole group, along the batch axis in front, and every
elementwise loop runs over whole contiguous rows.
``solve`` marches its one configuration as a group of one: one march
loop, in one layout, serves both, B = 1 included.

``xva_breakdown`` prices the adjustment a second, independent way: each
cost component of the linear convention is integrated against the lognormal
law of the stock and the issuer-plus-counterparty discount kernel
(Gauss-Hermite in space by :func:`xvadg.black_scholes.lognormal_expectation`,
composite Simpson in time).  ``garcia_scaling_check`` quantifies how far the
reduced capital equation is from a constant-factor rescaling of the
issuer-kernel one.
"""

from __future__ import annotations

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
from .drivers import BATCHED_FIELDS, driver_levels, is_adjustment_kind
from .ldg import DGField, Mesh, assemble_implicit, convection_form, \
    diffusion_form, gradient_form, make_basis, mass_diag, project_payoff, \
    variant_for_option

#: ``xva_breakdown`` quadrature: composite-Simpson time intervals (even)
_SIMPSON_INTERVALS = 200


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

    ``meta`` is the run's record, filled by the march: the driver kind,
    option, cells, degree, flux variant, the time grid's ``steps``, step
    ``delta_tau`` and Courant number ``cfl_number``, and the
    ``runtime_seconds``, ``implicit_solves``, ``driver_evaluations`` and
    ``driver_levels`` of the march of the whole group the run was batched
    in (``batch_width`` scenarios, see ``solve_many``).  Each member of a
    group holds its own copy.
    """

    config: RunConfig
    value_field: DGField
    q_field: DGField
    is_adjustment: bool
    meta: dict

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


def solve(config: RunConfig, kind: str | None = None) -> SolveResult:
    """March the configured problem to valuation time zero.

    ``kind`` overrides the configured driver; it also admits the two
    validation kinds (``garcia_ref``, ``riskfree``) that ``RunConfig``
    does not expose.  A run without capital costs is a market whose hurdle
    is the funded rate (see :mod:`xvadg.drivers`), not another driver.
    """
    return _march_group([config], kind)[0]


def solve_many(configs: Sequence[RunConfig]) -> list[SolveResult]:
    """``solve`` for each configuration, in input order, marching each group
    of ``scenario_groups`` as one batch.  Each result equals its ``solve``
    bit for bit.
    """
    results: list = [None] * len(configs)
    for members in scenario_groups(configs):
        group = [configs[i] for i in members]
        for i, result in zip(members, _march_group(group, None)):
            results[i] = result
    return results


def scenario_groups(configs: Sequence[RunConfig]) -> list[list[int]]:
    """Indices of the configurations that march together, in order of first
    appearance: equal in every field, the driver included, but
    ``BATCHED_FIELDS``."""
    groups: dict = {}
    for i, config in enumerate(configs):
        key = sorted(item for item in config_to_dict(config).items()
                     if item[0] not in BATCHED_FIELDS)
        groups.setdefault(tuple(key), []).append(i)
    return list(groups.values())


def _march_group(group: list[RunConfig], kind: str | None) -> list[SolveResult]:
    """One march of a ``scenario_groups`` group; one result per member."""
    config = group[0]
    kind = config.driver if kind is None else kind
    is_adjustment = is_adjustment_kind(kind)
    option, capital, market = config.option, config.capital, config.market
    width = len(group)
    coefficients = {name: np.array([getattr(c.market, name) for c in group])
                    .reshape(width, 1, 1) for name in BATCHED_FIELDS}
    mesh = Mesh(config.s_max, config.cells)
    basis = make_basis(config.degree)
    variant = variant_for_option(option)
    speed = market.sigma ** 2 - market.drift
    grid = imex.select_time_grid(mesh, config.degree, speed, option.maturity,
                                 config.cfl_constant)
    order = config.degree + 1

    def linear_form(u: DGField) -> np.ndarray:
        # L u: diffusion, convection and the zeroth-order (sigma^2 - drift) u
        return (diffusion_form(gradient_form(u, variant), variant,
                               lambda s: 0.5 * market.sigma ** 2 * s ** 2)
                + convection_form(u, speed) + speed * mass_diag(mesh, basis) * u.coeffs)

    op = assemble_implicit(mesh, basis, grid.delta * imex.implicit_coefficient(order),
                           linear_form)

    shape = (width, mesh.cells, basis.n_nodes)
    if is_adjustment:
        u = np.zeros((width, op.mass.size))
    else:
        u = np.repeat(project_payoff(option, mesh, basis).coeffs.reshape(1, -1),
                      width, axis=0)

    # (cells, nodes): the driver's (t, S) part broadcasts along the batch axis
    spots = mesh.quad_points(basis)
    stage_taus = imex.stage_times(order, grid)
    stage_index = {tau: i for i, tau in enumerate(stage_taus)}
    level_at = driver_levels(kind, [option.maturity - tau for tau in stage_taus],
                             spots, option, market, capital, **coefficients)
    last = {}   # the level of the last stage time met, by its index
    meta = {"kind": kind, "option": option.kind, "cells": mesh.cells,
            "degree": basis.degree, "variant": variant.value, "steps": grid.steps,
            "delta_tau": grid.delta, "cfl_number": grid.cfl, "batch_width": width,
            "implicit_solves": 0, "driver_evaluations": 0, "driver_levels": 0}

    def explicit_fn(state: np.ndarray, tau: float) -> np.ndarray:
        i = stage_index[tau]
        if i not in last:
            last.clear()
            last[i] = level_at(i)
            meta["driver_levels"] += 1
        meta["driver_evaluations"] += 1
        return -op.mass * last[i](state.reshape(shape)).reshape(state.shape)

    def solve_shifted(rhs: np.ndarray) -> np.ndarray:
        meta["implicit_solves"] += 1
        return op.solve(rhs)

    started = time.perf_counter()
    tau = 0.0
    for n in range(grid.steps):
        u = imex.step(order, u, tau, grid.delta, op.mass, op.apply_diffusion,
                      solve_shifted, explicit_fn)
        tau += grid.delta
        finite = np.isfinite(u)
        if not finite.all():
            node = int(np.flatnonzero(~finite.all(axis=0))[0])
            raise SolverDivergedError(n + 1, grid.steps, tau, node // basis.n_nodes)
    meta["runtime_seconds"] = time.perf_counter() - started

    results = []
    for member, coeffs in zip(group, u.reshape(shape)):
        value_field = DGField(mesh, basis, coeffs)
        results.append(SolveResult(
            config=member, value_field=value_field,
            q_field=gradient_form(value_field, variant),
            is_adjustment=is_adjustment, meta=dict(meta)))
    return results


def source_term(kind: str, tau: float, spot: np.ndarray, v: np.ndarray,
                option: OptionSpec, market: MarketParams,
                capital: CapitalParams) -> np.ndarray:
    """Zeroth-order source ``(sigma^2 - drift) v - F(maturity - tau, S, v)``
    of the time-reversed conservative-form equation.

    ``tau`` is time to maturity; the driver is evaluated at calendar time
    ``maturity - tau``.  The march splits this source: its linear part is in
    the implicit operator, and its explicit stage is ``-F`` alone.
    """
    fwd = driver_levels(kind, (option.maturity - tau,), spot, option, market, capital)(0)(v)
    return (market.sigma ** 2 - market.drift) * np.asarray(v, dtype=float) - fwd


def sample_grid(result: SolveResult) -> np.ndarray:
    """Default reporting grid: the solution's own quadrature nodes, flattened."""
    field = result.value_field
    return field.mesh.quad_points(field.basis).ravel()


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
    plus counterparty-intensity kernel.  At each time node u of composite
    Simpson on ``_SIMPSON_INTERVALS`` intervals, one closed-form mark on the
    Gauss-Hermite nodes of the lognormal law gives all four cost
    integrands, and one :func:`xvadg.black_scholes.lognormal_expectation`
    call integrates them.
    """
    n = _SIMPSON_INTERVALS
    maturity = option.maturity
    times = np.linspace(0.0, maturity, n + 1)
    decay = market.issuer_funding_rate + market.cpty_intensity
    frac = market.collateral_fraction

    def component_values(u: float) -> np.ndarray:
        def integrands(z: np.ndarray) -> np.ndarray:  # the four costs on one mark
            mark = bs_value(option, z, u, market)
            return np.array([np.maximum((1.0 - frac) * mark, 0.0),
                             np.maximum(-(1.0 - frac) * mark, 0.0), frac * mark,
                             capital_requirement(u, z, mark, option, market, capital).k_total])

        kernel = LognormalKernel(spot, market.drift, market.sigma, horizon=u)
        exposure, shortfall, coll, cap = lognormal_expectation(integrands, kernel)
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
    return XVABreakdown(*(float(v) for v in integrals))  # cva, fbva, fcva, cra, kva


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
