"""End-to-end PDE solver: analytic-solution hook, adjustment anchors at a
mid-size mesh, accessor identities, the quadrature decomposition, the
reduced-equation rescaling check, and failure paths."""

from dataclasses import replace

import numpy as np
import pytest

from xvadg.black_scholes import bs_delta, bs_gamma, bs_value
from xvadg.config import MarketParams, benchmark_config
from xvadg.solver import (GarciaScalingCheck, SolverDivergedError, XVABreakdown,
                          garcia_scaling_check, sample_grid, solve,
                          xva_breakdown)

# adjustment values at the reporting spots, frozen from the N=1280 runs
# that the acceptance suite reproduces (keys: option, driver, spot)
XVA_ANCHORS = {
    ("put", "linear"): {5: -1.266e-01, 10: -5.004e-02, 15: -1.395e-02,
                        20: -3.016e-03, 30: -1.134e-04},
    ("put", "nonlinear"): {5: -1.260e-01, 10: -5.000e-02, 15: -1.395e-02,
                           20: -3.017e-03, 30: -1.134e-04},
    ("call", "linear"): {5: -2.557e-02, 10: -1.127e-01, 15: -2.624e-01,
                         20: -4.571e-01, 30: -8.774e-01},
    ("call", "nonlinear"): {5: -2.555e-02, 10: -1.123e-01, 15: -2.615e-01,
                            20: -4.555e-01, 30: -8.742e-01},
}


@pytest.mark.parametrize("option_kind", ["call", "put"])
def test_riskfree_hook_matches_analytic_solution(option_kind):
    # pricing with F = r v must reproduce the closed form; checks the whole
    # spatial/temporal stack against an exact solution
    config = benchmark_config(option_kind=option_kind, cells=320)
    sol = solve(config, kind="riskfree")
    s = np.linspace(0.5, 30.0, 241)
    market = config.market
    assert np.max(np.abs(sol.value(s) - bs_value(config.option, s, 0.0, market))) < 1e-3
    assert np.max(np.abs(sol.delta(s) - bs_delta(config.option, s, 0.0, market))) < 5e-3
    assert np.max(np.abs(sol.gamma(s) - bs_gamma(config.option, s, 0.0, market))) < 1e-2
    # the adjustment of the default-free price over itself is resolution noise
    assert np.max(np.abs(sol.xva(s))) < 1e-3


@pytest.mark.parametrize("option_kind,driver", sorted(XVA_ANCHORS))
def test_adjustment_anchors_mid_resolution(option_kind, driver):
    sol = solve(benchmark_config(option_kind=option_kind, driver=driver, cells=320))
    for spot, ref in XVA_ANCHORS[(option_kind, driver)].items():
        got = sol.xva(float(spot))
        assert got == pytest.approx(ref, abs=max(2e-3, 0.02 * abs(ref)))


def test_accessor_identities_both_families():
    s = np.linspace(1.0, 59.0, 23)
    cfg = benchmark_config(option_kind="put", driver="linear", cells=80)
    full = solve(cfg)
    mark = bs_value(cfg.option, s, 0.0, cfg.market)
    assert np.allclose(full.value(s) - full.xva(s), mark, atol=1e-12)
    assert not full.is_adjustment
    adj = solve(cfg, kind="garcia")
    assert adj.is_adjustment
    assert np.allclose(adj.value(s) - adj.xva(s), mark, atol=1e-12)
    assert np.allclose(adj.xva(s), adj.value_field.evaluate(s), atol=0.0)
    meta = full.meta
    assert meta["cells"] == 80 and meta["degree"] == 1
    assert meta["steps"] == 14  # CFL count at this resolution
    assert meta["kind"] == "linear" and meta["option"] == "put"


def test_put_query_outside_domain_raises():
    result = solve(benchmark_config(option_kind="put", cells=40))
    for accessor in (result.value, result.delta, result.gamma, result.xva):
        with pytest.raises(ValueError, match="outside the solution domain"):
            accessor(-5.0)


def test_call_delta_has_no_oscillation():
    # total variation of the call delta stays within a whisker of its range,
    # so the gradient field is monotone up to quadrature wiggle
    sol = solve(benchmark_config(option_kind="call", driver="linear", cells=320))
    d = sol.delta(sample_grid(sol))
    tv = float(np.sum(np.abs(np.diff(d))))
    rng = float(d.max() - d.min())
    assert tv <= 1.05 * rng


def test_solve_is_deterministic():
    cfg = benchmark_config(option_kind="call", driver="nonlinear", cells=80)
    a = solve(cfg)
    b = solve(cfg)
    assert np.array_equal(a.value_field.coeffs, b.value_field.coeffs)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown driver kind"):
        solve(benchmark_config(), kind="exotic")


def test_sample_grid_is_sorted_interior():
    sol = solve(benchmark_config(cells=40))
    grid = sample_grid(sol)
    assert grid.shape == (40 * 2,)
    assert np.all(np.diff(grid) > 0.0)
    assert grid[0] > 0.0 and grid[-1] < sol.config.s_max


def test_finiteness_guard_raises_with_location():
    # a capital profile that evaluates to infinity poisons the first step;
    # the march must stop immediately and report where
    cfg = benchmark_config(option_kind="call", driver="nonlinear", cells=40)
    bad = lambda t, s, m: np.full_like(np.asarray(m, dtype=float), np.inf)
    with np.errstate(all="ignore"):
        with pytest.raises(SolverDivergedError, match="finiteness") as exc:
            solve(cfg, capital_fn=bad)
    assert exc.value.step == 1
    assert exc.value.tau > 0.0
    assert isinstance(exc.value, RuntimeError)


def test_quadrature_decomposition_matches_pde():
    # independent Feynman-Kac evaluation of the linear-convention
    # adjustment: component integrals against the lognormal law agree with
    # the marched solution at the money
    cfg = benchmark_config(option_kind="put", driver="linear", cells=160)
    bd = xva_breakdown(15.0, cfg.option, cfg.market, cfg.capital)
    pde = solve(cfg).xva(15.0)
    assert isinstance(bd, XVABreakdown)
    assert abs(bd.total - pde) < 2e-3
    assert bd.total == pytest.approx(-bd.cva + bd.fbva - bd.fcva - bd.cra - bd.kva,
                                     abs=1e-18)
    # a put's mark is nonnegative, so there is no funding benefit leg
    assert bd.cva > 0.0 and bd.fcva > 0.0 and bd.cra > 0.0 and bd.kva > 0.0
    assert bd.fbva == pytest.approx(0.0, abs=1e-15)


def test_decomposition_degenerate_markets():
    option = benchmark_config().option
    cap = benchmark_config().capital
    # collateral carried at the risk-free rate: no collateral-rate cost
    m0 = MarketParams(collateral_rate=0.06)
    assert xva_breakdown(15.0, option, m0, cap).cra == 0.0
    # issuer funding at the risk-free rate with zero default intensity:
    # both funding legs vanish
    m1 = MarketParams(issuer_funding_rate=0.06, issuer_intensity=0.0)
    bd = xva_breakdown(15.0, option, m1, cap)
    assert bd.fbva == 0.0 and bd.fcva == 0.0
    assert bd.cva > 0.0 and bd.kva > 0.0


def test_capital_switch_off_zeroes_reduced_equation():
    # the reduced capital adjustment marches from zero terminal data, so
    # removing the capital source keeps it identically zero
    cfg = benchmark_config(option_kind="put", driver="garcia", cells=40)
    sol = solve(cfg, capital_fn=lambda t, s, m: 0.0 * m)
    assert np.all(sol.value_field.coeffs == 0.0)


def test_garcia_check_degenerate_hurdle():
    # hurdle equal to the issuer funding rate kills both capital sources
    # and makes the rescaling factor one: the check is exact
    market = MarketParams(capital_hurdle=0.060399)
    cfg = replace(benchmark_config(option_kind="put", driver="garcia", cells=40),
                  market=market)
    chk = garcia_scaling_check(cfg)
    assert chk.factor == pytest.approx(1.0, abs=1e-15)
    assert chk.max_abs_diff < 1e-15


def test_garcia_check_structure_and_domination():
    chk = garcia_scaling_check(benchmark_config(option_kind="put",
                                                driver="garcia", cells=160))
    assert isinstance(chk, GarciaScalingCheck)
    # the reduced adjustment never exceeds the issuer-kernel one in size
    assert np.all(np.abs(chk.reduced.value_field.coeffs)
                  <= np.abs(chk.reference.value_field.coeffs) + 1e-12)
    # lhs/rhs accessors are the nodal fields behind max_abs_diff
    s = sample_grid(chk.reduced)
    gap = np.max(np.abs(chk.lhs(s) - chk.rhs(s)))
    assert gap == pytest.approx(chk.max_abs_diff, rel=1e-10)
    # the discrepancy at this resolution is genuine, not noise
    assert 1e-3 < chk.max_abs_diff < 1e-2


def test_garcia_check_requires_full_funding_fraction():
    market = MarketParams(capital_funding_fraction=0.5)
    cfg = replace(benchmark_config(driver="garcia", cells=40), market=market)
    with pytest.raises(ValueError, match="funding_fraction"):
        garcia_scaling_check(cfg)
