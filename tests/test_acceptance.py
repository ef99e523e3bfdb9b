"""Acceptance gate: every primary requirement of the engine, one test and
one printed pass/fail line each.

The criteria:

 1. second-order spatial convergence of the degree-1 scheme for all four
    option/driver combinations, with frozen fine-mesh error anchors
 2. third-order convergence of the degree-2 scheme at both the benchmark
    and the small volatility, finite everywhere, bounded delta overshoot
 3. the twenty benchmark adjustment values at the fine-mesh budget
 4. regression Monte Carlo cross-check of the same adjustments at the
    standard path budget, within error bars
 5. analytic oracles: the risk-free hook reproduces the closed form,
    parity and kernel moments hold to near machine precision
 6. the quadrature term decomposition reproduces the at-the-money
    adjustment of the marched linear equation
 7. the reduced capital equation versus the rescaled issuer-kernel
    reference (expected red: the relation does not hold at these
    parameters; see "Known negative result" in README.md)
 8. regulatory capital chain identities
 9. adjustment monotonicity across parameter sweeps, with the labeled
    baseline rows
10. discrete operator and integrator invariants near machine precision
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from xvadg.black_scholes import bs_delta, bs_value, LognormalKernel, \
    lognormal_expectation
from xvadg.capital import capital_requirement_parts, supervisory_delta
from xvadg.cli import run_convergence, run_sweep, run_table3
from xvadg.config import CapitalParams, MarketParams, OptionSpec, \
    benchmark_config
from xvadg.fbsde import RegressionGrid
from xvadg.solver import garcia_scaling_check, sample_grid, solve, \
    xva_breakdown

COMBOS = tuple((okind, drv) for okind in ("put", "call")
               for drv in ("linear", "nonlinear"))

# frozen fine-mesh anchors: finest-level errors of the degree-1 ladder ...
FINEST_ERRORS = {
    ("put", "linear"): (1.055e-04, 4.837e-05),
    ("put", "nonlinear"): (1.055e-04, 4.837e-05),
    ("call", "linear"): (1.576e-04, 5.095e-05),
    ("call", "nonlinear"): (1.573e-04, 5.095e-05),
}

# ... and the adjustment table at the reporting spots
XVA_TABLE = {
    ("put", "linear"): {5: -1.266e-01, 10: -5.004e-02, 15: -1.395e-02,
                        20: -3.016e-03, 30: -1.134e-04},
    ("put", "nonlinear"): {5: -1.260e-01, 10: -5.000e-02, 15: -1.395e-02,
                           20: -3.017e-03, 30: -1.134e-04},
    ("call", "linear"): {5: -2.557e-02, 10: -1.127e-01, 15: -2.624e-01,
                         20: -4.571e-01, 30: -8.774e-01},
    ("call", "nonlinear"): {5: -2.555e-02, 10: -1.123e-01, 15: -2.615e-01,
                            20: -4.555e-01, 30: -8.742e-01},
}

MC_SEED = 20260818
MC_SPOTS = (5.0, 10.0, 15.0, 20.0, 30.0)


def test_criterion_01_second_order_convergence(criterion_report):
    started = time.perf_counter()
    details = []
    ok = True
    for okind, drv in COMBOS:
        report = run_convergence(
            benchmark_config(option_kind=okind, driver=drv),
            ladder=(10, 20, 40, 80, 160, 320, 640), ref_cells=1280)
        tail = report.rows[-3:]
        orders = [r.eoc_l2 for r in tail] + [r.eoc_linf for r in tail]
        in_band = all(1.8 < e < 2.7 for e in orders)
        l2_ref, linf_ref = FINEST_ERRORS[(okind, drv)]
        finest = report.rows[-1]
        anchored = (l2_ref / 3.0 < finest.err_l2 < 3.0 * l2_ref
                    and linf_ref / 3.0 < finest.err_linf < 3.0 * linf_ref)
        ok = ok and in_band and anchored
        details.append(f"{okind}/{drv} eoc [{min(orders):.2f},{max(orders):.2f}]"
                       f" linf {finest.err_linf:.2e}")
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 300.0
    criterion_report(1, ok, "degree-1 scheme is second order on all four "
                     f"combinations ({'; '.join(details)}; {elapsed:.0f}s)")
    assert ok


def test_criterion_02_third_order_convergence(criterion_report):
    started = time.perf_counter()
    anchors = {0.3: (1.816e-07, 7.698e-08), 0.05: (1.936e-06, 1.726e-06)}
    details = []
    ok = True
    for sigma, (l2_ref, linf_ref) in anchors.items():
        cfg = replace(benchmark_config(option_kind="put", driver="nonlinear"),
                      degree=2, market=MarketParams(sigma=sigma))
        report = run_convergence(cfg, ladder=(40, 80, 160, 320, 640),
                                 ref_cells=1280)
        finite = all(np.isfinite([r.err_l2, r.err_linf]).all()
                     for r in report.rows)
        tail = report.rows[-3:]
        orders = [r.eoc_l2 for r in tail] + [r.eoc_linf for r in tail]
        in_band = all(2.6 < e < 3.4 for e in orders)
        finest = report.rows[-1]
        anchored = (l2_ref / 3.0 < finest.err_l2 < 3.0 * l2_ref
                    and linf_ref / 3.0 < finest.err_linf < 3.0 * linf_ref)
        ok = ok and finite and in_band and anchored
        details.append(f"sigma={sigma} eoc [{min(orders):.2f},{max(orders):.2f}]")
    # steep small-volatility call: the gradient field must not oscillate
    # beyond a twentieth of the unit delta range
    cfg = replace(benchmark_config(option_kind="call", driver="linear",
                                   cells=320),
                  degree=2, market=MarketParams(sigma=0.05))
    sol = solve(cfg)
    d = sol.delta(sample_grid(sol))
    overshoot = max(float(d.max()) - 1.0, -float(d.min()), 0.0)
    ok = ok and overshoot <= 0.05
    elapsed = time.perf_counter() - started
    ok = ok and elapsed < 600.0
    criterion_report(2, ok, "degree-2 scheme is third order at both "
                     f"volatilities ({'; '.join(details)}; delta overshoot "
                     f"{overshoot:.3f}; {elapsed:.0f}s)")
    assert ok


def test_criterion_03_adjustment_table_fine_mesh(criterion_report):
    worst = 0.0
    for okind, drv in COMBOS:
        sol = solve(benchmark_config(option_kind=okind, driver=drv, cells=1280))
        for spot, ref in XVA_TABLE[(okind, drv)].items():
            gap = abs(float(sol.xva(float(spot))) - ref)
            worst = max(worst, gap / max(2e-3, 0.02 * abs(ref)))
    ok = worst < 1.0
    criterion_report(3, ok, "all twenty fine-mesh adjustments match the "
                     f"frozen table within max(2e-3, 2%) "
                     f"(worst |gap|/tol {worst:.2f})")
    assert ok


def test_criterion_04_monte_carlo_cross_check(criterion_report):
    started = time.perf_counter()
    table = run_table3(benchmark_config(), spots=MC_SPOTS, pde_cells=1280,
                       with_mc=True, grid=RegressionGrid(), seed=MC_SEED)
    worst = 0.0
    for okind, drv, spot, xva_pde, xva_mc, stderr in table["rows"]:
        tol = max(3.0 * stderr, 0.05 * abs(xva_pde))
        worst = max(worst, abs(xva_mc - xva_pde) / tol)
    elapsed = time.perf_counter() - started
    ok = worst < 1.0 and elapsed < 600.0
    criterion_report(4, ok, "regression Monte Carlo confirms all twenty "
                     f"adjustments within max(3 stderr, 5%) "
                     f"(worst ratio {worst:.2f}; {elapsed:.0f}s)")
    assert ok


def test_criterion_05_analytic_oracles(criterion_report):
    cfg_call = benchmark_config(option_kind="call", cells=640)
    cfg_put = benchmark_config(option_kind="put", cells=640)
    s = np.linspace(0.5, 30.0, 241)
    market = cfg_call.market
    worst_v = worst_d = 0.0
    for cfg in (cfg_call, cfg_put):
        sol = solve(cfg, kind="riskfree")
        worst_v = max(worst_v, float(np.max(np.abs(
            sol.value(s) - bs_value(cfg.option, s, 0.0, market)))))
        worst_d = max(worst_d, float(np.max(np.abs(
            sol.delta(s) - bs_delta(cfg.option, s, 0.0, market)))))
    hook_ok = worst_v < 1e-3 and worst_d < 5e-3
    # put-call parity at valuation time
    call = bs_value(cfg_call.option, s, 0.0, market)
    put = bs_value(cfg_put.option, s, 0.0, market)
    forward = s * math.exp(market.drift - market.risk_free_rate) \
        - 15.0 * math.exp(-market.risk_free_rate)
    parity = float(np.max(np.abs(call - put - forward) / np.maximum(1.0, s)))
    # lognormal kernel moments
    kernel = LognormalKernel(spot=15.0, drift=market.drift,
                             sigma=market.sigma, horizon=1.0)
    m0 = lognormal_expectation(lambda z: np.ones_like(z), kernel)
    m1 = lognormal_expectation(lambda z: z, kernel)
    m2 = lognormal_expectation(lambda z: z * z, kernel)
    mom = max(abs(m0 - 1.0),
              abs(m1 / (15.0 * math.exp(market.drift)) - 1.0),
              abs(m2 / (15.0 ** 2 * math.exp(2.0 * market.drift
                                             + market.sigma ** 2)) - 1.0))
    ok = hook_ok and parity < 1e-12 and mom < 1e-10
    criterion_report(5, ok, "risk-free hook, parity and kernel moments hold "
                     f"(value {worst_v:.1e}, delta {worst_d:.1e}, "
                     f"parity {parity:.1e}, moments {mom:.1e})")
    assert ok


def test_criterion_06_term_decomposition(criterion_report):
    cfg = benchmark_config(option_kind="put", driver="linear", cells=640)
    parts = xva_breakdown(15.0, cfg.option, cfg.market, cfg.capital)
    pde = float(solve(cfg).xva(15.0))
    gap = abs(parts.total - pde)
    ok = gap < 2e-3
    criterion_report(6, ok, "independent quadrature decomposition matches the "
                     f"marched adjustment at the money (|gap| {gap:.2e})")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the constant-factor rescaling of the reduced capital equation "
           "does not hold at the benchmark parameters: the put-side gap "
           "plateaus at 5.695e-03 (5.700e-03 at double resolution), far "
           "above the 1e-3 bar; see \"Known negative result\" in README.md")
def test_criterion_07_reduced_equation_rescaling(criterion_report):
    chk = garcia_scaling_check(benchmark_config(option_kind="put",
                                                driver="garcia", cells=640))
    ok = chk.max_abs_diff < 1e-3
    criterion_report(7, ok, "reduced capital equation equals the rescaled "
                     f"issuer-kernel reference within 1e-3 "
                     f"(measured {chk.max_abs_diff:.6e}; expected red, "
                     "see README.md, Known negative result)")
    assert ok


def test_criterion_08_capital_chain(criterion_report):
    from xvadg.capital import maturity_factor
    cap = CapitalParams()
    call = OptionSpec(kind="call", strike=15.0, maturity=1.0)
    checks = [
        abs(maturity_factor(0.0, 1.0, cap) - 1.0) < 1e-15,
        abs(supervisory_delta(call, 15.0, 0.0, 1.5)
            - 0.7733726476231317) < 1e-12,
        capital_requirement_parts(2.0, 2.0, 20.0, 0.0, call, cap).multiplier
        == 1.0,
        abs(capital_requirement_parts(
            2.0, 2.0, 20.0, 0.0, call,
            CapitalParams(multiplier_slope=0.095)).multiplier - 0.145) < 1e-15,
    ]
    parts = capital_requirement_parts(2.0, 1.8, 0.0, 0.0, call, cap)
    checks.append(parts.ead == pytest.approx(cap.saccr_alpha * 0.2, rel=1e-14))
    rng = np.random.default_rng(1)
    marks = rng.uniform(-3.0, 10.0, 200)
    spots = rng.uniform(0.0, 60.0, 200)
    sample = capital_requirement_parts(marks, 0.9 * marks, spots, 0.3, call, cap)
    checks.append(bool(np.all(sample.k_total
                              == np.maximum(sample.k_ccr + sample.k_cva,
                                            sample.k_lr))))
    checks.append(bool(np.all(sample.ead >= 0.0)))
    ok = all(checks)
    criterion_report(8, ok, "capital chain identities hold (maturity factor, "
                     "supervisory delta, multiplier variants, exposure floor, "
                     "total structure)")
    assert ok


def test_criterion_09_sweep_monotonicity(criterion_report):
    cfg = benchmark_config(option_kind="put", driver="nonlinear", cells=320)
    results = {}
    for param in ("sigma", "capital-hurdle", "collateral-rate"):
        results[param] = run_sweep(cfg, param)
    monotone = all(r["xva_nonincreasing"] for r in results.values())
    labels = {row[2] for row in results["capital-hurdle"]["rows"]}
    labeled = "no-KVA" in labels
    ok = monotone and labeled
    criterion_report(9, ok, "adjustment is pointwise nonincreasing along all "
                     "three sweeps and the zero-excess-return baseline is "
                     f"labeled (monotone={monotone}, baseline={labeled})")
    assert ok


def test_criterion_10_discrete_invariants(criterion_report):
    from xvadg import imex
    from xvadg.ldg import (DGField, FluxVariant, Mesh, assemble_diffusion_matrix,
                           diffusion_form, gradient_form, make_basis, mass_diag)
    rng = np.random.default_rng(5)
    mesh = Mesh(s_max=60.0, cells=16)
    a0 = 0.4
    const_a = lambda s: np.full_like(np.asarray(s, dtype=float), a0)
    quad_a = lambda s: 0.045 * np.asarray(s, dtype=float) ** 2
    worst_energy = worst_equiv = 0.0
    for deg in (1, 2):
        basis = make_basis(deg)
        u = DGField(mesh, basis, rng.standard_normal((mesh.cells, basis.n_nodes)))
        md = mass_diag(mesh, basis)
        for variant in FluxVariant:
            q = gradient_form(u, variant)
            res = diffusion_form(q, variant, const_a)
            lhs = float(np.sum(u.coeffs * res))
            energy = a0 * float(np.sum(md * q.coeffs ** 2))
            if variant is FluxVariant.UPWIND_LEFT:
                bnd = a0 * u.right_traces()[-1] * q.right_traces()[-1]
            else:
                bnd = -a0 * u.left_traces()[0] * q.left_traces()[0]
            worst_energy = max(worst_energy, abs(lhs - (-energy + bnd)))
            mat = assemble_diffusion_matrix(mesh, basis, variant, quad_a)
            qq = gradient_form(u, variant)
            worst_equiv = max(worst_equiv, float(np.max(np.abs(
                (mat @ u.coeffs.ravel()).reshape(u.coeffs.shape)
                - diffusion_form(qq, variant, quad_a)))))
    tableau = max(
        abs(imex.BETA1 + imex.BETA2 + imex.GAMMA3 - 1.0),
        abs((1.0 - imex.KAPPA2) * imex.GAMMA2 - 0.5),
        abs(6.0 * imex.GAMMA3 ** 3 - 18.0 * imex.GAMMA3 ** 2
            + 9.0 * imex.GAMMA3 - 1.0))
    ok = worst_energy < 1e-10 and worst_equiv < 1e-11 and tableau < 1e-13
    criterion_report(10, ok, "operator and integrator invariants hold "
                     f"(energy identity {worst_energy:.1e}, matrix/form "
                     f"equivalence {worst_equiv:.1e}, tableau {tableau:.1e})")
    assert ok
