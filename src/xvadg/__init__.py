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
the right-hand side F(t, S, v) lives in :mod:`xvadg.drivers`.

The modules are the API: each name is imported from the module that
defines it, and the package itself re-exports nothing.
"""
