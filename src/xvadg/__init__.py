"""XVA/KVA valuation adjustments for European options.

The package prices the valuation-adjustment component of a European call
or put under counterparty default risk, funding, collateral and regulatory
capital costs. Four independent computational routes are provided and are
meant to cross-check each other:

* an analytic Black-Scholes layer (:mod:`xvadg.black_scholes`),
* a local discontinuous Galerkin space discretization with IMEX
  Runge-Kutta time stepping for the linear and semilinear pricing PDEs
  (:mod:`xvadg.ldg`, :mod:`xvadg.imex`, :mod:`xvadg.solver`),
* a term-by-term decomposition of the adjustment computed by direct
  quadrature of lognormal expectations (:func:`xvadg.solver.xva_breakdown`),
* a stratified least-squares regression Monte Carlo solver for the
  equivalent backward SDE (:mod:`xvadg.fbsde`).

Regulatory capital (the SA-CCR exposure chain through risk-weighted
assets and a leverage ratio) lives in :mod:`xvadg.capital`; the driver
zoo that assembles default, funding, collateral and capital costs into
PDE right-hand sides lives in :mod:`xvadg.drivers`.
"""

from .black_scholes import bs_delta, bs_gamma, bs_value, norm_cdf
from .capital import (
    CapitalBreakdown,
    capital_requirement,
    capital_requirement_parts,
    maturity_factor,
    supervisory_delta,
)
from .config import (
    CapitalParams,
    MarketParams,
    OptionSpec,
    RunConfig,
    benchmark_config,
    config_from_dict,
    config_to_dict,
    load_config,
    payoff,
    save_config,
)
from .drivers import (
    ALL_DRIVER_KINDS,
    driver_level,
    driver_levels,
    driver_value,
    source_term,
)
from .fbsde import (
    BackwardSolution,
    PathEnsemble,
    RegressionGrid,
    simulate_forward,
    solve_backward,
)
from .solver import (
    GarciaScalingCheck,
    SolveResult,
    SolverDivergedError,
    XVABreakdown,
    garcia_scaling_check,
    sample_grid,
    solve,
    solve_many,
    xva_breakdown,
)

__version__ = "0.1.0"

__all__ = [
    "ALL_DRIVER_KINDS",
    "BackwardSolution",
    "CapitalBreakdown",
    "CapitalParams",
    "GarciaScalingCheck",
    "MarketParams",
    "OptionSpec",
    "PathEnsemble",
    "RegressionGrid",
    "RunConfig",
    "SolveResult",
    "SolverDivergedError",
    "XVABreakdown",
    "benchmark_config",
    "bs_delta",
    "bs_gamma",
    "bs_value",
    "capital_requirement",
    "capital_requirement_parts",
    "config_from_dict",
    "config_to_dict",
    "driver_level",
    "driver_levels",
    "driver_value",
    "garcia_scaling_check",
    "load_config",
    "maturity_factor",
    "norm_cdf",
    "payoff",
    "sample_grid",
    "save_config",
    "simulate_forward",
    "solve",
    "solve_backward",
    "solve_many",
    "source_term",
    "supervisory_delta",
    "xva_breakdown",
    "__version__",
]
