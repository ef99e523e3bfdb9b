"""End-to-end PDE solver: the `riskfree` kind against the closed form,
adjustment anchors at a mid-size mesh, accessor identities, capital off as
a market, the quadrature decomposition, the reduced-equation rescaling
check, and failure paths."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kernels_reference import capital_off, use_capital_profile
from xvadg import imex, ldg, solver
from xvadg.black_scholes import bs_delta, bs_gamma, bs_value
from xvadg.config import MarketParams, benchmark_config, config_from_dict
from xvadg.drivers import ALL_DRIVER_KINDS, BATCHED_FIELDS, driver_levels, is_adjustment_kind
from xvadg.ldg import (DGField, Mesh, assemble_implicit, convection_form, diffusion_form,
                       gradient_form, make_basis, mass_diag, project_payoff,
                       variant_for_option)
from xvadg.solver import (GarciaScalingCheck, SolverDivergedError,
                          XVABreakdown, garcia_scaling_check, sample_grid,
                          scenario_groups, solve, solve_many, xva_breakdown)

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


def _riskfree_error(config):
    s = np.linspace(0.5, 30.0, 241)
    sol = solve(config, kind="riskfree")
    return float(np.max(np.abs(sol.value(s) - bs_value(config.option, s, 0.0,
                                                         config.market))))


def _market_at_rate(sigma, rate, repo, dividend):
    """Benchmark credit data moved onto another risk-free rate."""
    base = MarketParams()
    return MarketParams(
        sigma=sigma, risk_free_rate=rate, stock_repo_rate=repo,
        dividend_yield=dividend,
        issuer_funding_rate=rate + base.issuer_intensity * (1.0 - base.issuer_recovery),
        cpty_repo_rate=rate,
        cpty_bond_yield=rate + base.cpty_intensity * (1.0 - base.cpty_recovery))


@given(sigma=st.floats(0.2, 0.5), rate=st.floats(0.0, 0.1),
       repo=st.floats(0.0, 0.1), dividend=st.floats(0.0, 0.05),
       option_kind=st.sampled_from(["put", "call"]),
       mesh=st.sampled_from([(1, 320), (2, 80), (2, 160)]))
def test_riskfree_hook_matches_analytic_solution_over_markets(
        sigma, rate, repo, dividend, option_kind, mesh):
    # the tolerance of test_riskfree_hook_matches_analytic_solution, over
    # volatilities, rates and carries (including vanishing convection speed)
    degree, cells = mesh
    config = replace(benchmark_config(option_kind=option_kind, cells=cells),
                     market=_market_at_rate(sigma, rate, repo, dividend),
                     degree=degree)
    assert _riskfree_error(config) < 1e-3


def test_riskfree_hook_error_is_continuous_at_zero_speed():
    # sigma^2 = 0.0625 exactly: repo 0.0625 gives convection speed 0, repo
    # 0.0624 speed 1e-4; the step floor keeps the two runs alike
    def config(repo):
        return replace(benchmark_config(option_kind="put", cells=160),
                       market=MarketParams(sigma=0.25, stock_repo_rate=repo))
    at_zero, near_zero = config(0.0625), config(0.0624)
    assert solve(near_zero).meta["steps"] >= solve(at_zero).meta["steps"]
    assert _riskfree_error(near_zero) <= 2.0 * _riskfree_error(at_zero)


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
    assert set(meta) == {"kind", "option", "cells", "degree", "variant", "steps",
                         "delta_tau", "cfl_number", "batch_width", "implicit_solves",
                         "driver_evaluations", "driver_levels", "runtime_seconds"}
    assert meta["cells"] == 80 and meta["degree"] == 1
    assert meta["steps"] == 14  # CFL count at this resolution
    assert meta["kind"] == "linear" and meta["option"] == "put"


# one scenario of a batch test: volatility (separates groups), capital
# hurdle and collateral rate (batched within a group)
_SCENARIO = st.tuples(st.sampled_from([0.2, 0.3]),
                      st.sampled_from([0.06, 0.15, 0.25]),
                      st.sampled_from([0.06, 0.07, 0.1]))


@given(scenarios=st.lists(_SCENARIO, min_size=1, max_size=5),
       option_kind=st.sampled_from(["put", "call"]),
       driver=st.sampled_from(["linear", "nonlinear", "garcia"]),
       degree=st.sampled_from([1, 2]), cells=st.sampled_from([8, 20, 40]))
def test_solve_many_equals_solve_bitwise(scenarios, option_kind, driver,
                                         degree, cells):
    base = replace(benchmark_config(option_kind=option_kind, driver=driver,
                                    cells=cells), degree=degree)
    configs = [replace(base, market=replace(base.market, sigma=sigma,
                                            capital_hurdle=hurdle,
                                            collateral_rate=rate))
               for sigma, hurdle, rate in scenarios]
    results = solve_many(configs)
    width = {i: len(g) for g in scenario_groups(configs) for i in g}
    assert len(results) == len(configs)
    for i, (config, result) in enumerate(zip(configs, results)):
        assert result.config is config
        assert result.meta["batch_width"] == width[i]
        single = solve(config)
        assert single.meta["batch_width"] == 1
        assert np.array_equal(result.value_field.coeffs, single.value_field.coeffs)
        assert np.array_equal(result.q_field.coeffs, single.q_field.coeffs)


def test_scenario_groups_follow_the_operator():
    base = benchmark_config(option_kind="put", driver="nonlinear", cells=40)

    def market(**fields):
        return replace(base, market=replace(base.market, **fields))
    hurdles = [market(capital_hurdle=h) for h in (0.06, 0.15, 0.25)]
    rates = [market(collateral_rate=r) for r in (0.06, 0.1)]
    sigmas = [market(sigma=s) for s in (0.2, 0.3, 0.4)]
    assert scenario_groups(hurdles + rates) == [[0, 1, 2, 3, 4]]
    assert scenario_groups(sigmas) == [[0], [1], [2]]
    assert scenario_groups([hurdles[0], sigmas[0], hurdles[1]]) == [[0, 2], [1]]
    assert scenario_groups([replace(c, driver="garcia") for c in hurdles]) == [[0, 1, 2]]
    # every other field separates: driver, degree, a capital parameter
    assert scenario_groups([base, replace(base, driver="linear"),
                            replace(base, degree=2),
                            replace(base, capital=replace(base.capital,
                                                          leverage_ratio=0.04))]
                           ) == [[0], [1], [2], [3]]


def test_the_driver_splits_the_groups():
    # the grouping key holds each configuration's driver: the hurdles of
    # one driver march as one batch, and two configurations that differ
    # only in the driver march apart
    base = benchmark_config(option_kind="put", driver="nonlinear", cells=20)
    hurdles = [replace(base, market=replace(base.market, capital_hurdle=h))
               for h in (0.06, 0.1, 0.15, 0.2, 0.25)]
    linear = replace(base, driver="linear")
    configs = hurdles + [linear]
    assert scenario_groups(configs) == [[0, 1, 2, 3, 4], [5]]
    results = solve_many(configs)
    assert [r.meta["batch_width"] for r in results] == [5, 5, 5, 5, 5, 1]
    pair = solve_many([base, linear])
    assert [r.meta["batch_width"] for r in pair] == [1, 1]
    assert [r.meta["kind"] for r in pair] == ["nonlinear", "linear"]


@pytest.mark.parametrize("degree,solves,evaluations", [(1, 2, 2), (2, 3, 4)])
def test_batched_march_meta_and_columns(degree, solves, evaluations):
    base = replace(benchmark_config(option_kind="put", driver="nonlinear",
                                    cells=40), degree=degree)
    configs = [replace(base, market=replace(base.market, capital_hurdle=h))
               for h in (0.06, 0.15, 0.25)]
    results = solve_many(configs)
    meta = results[0].meta
    steps = meta["steps"]
    assert meta["batch_width"] == 3
    assert meta["implicit_solves"] == solves * steps
    assert meta["driver_evaluations"] == evaluations * steps
    assert 0.0 < meta["cfl_number"] <= 0.5 * (steps + 1) / steps
    assert all(r.meta == meta for r in results)
    # each member holds its own copy of the group's record
    assert len({id(r.meta) for r in results}) == len(results)
    # each column prices its own hurdle: capital costs more as it rises
    xva = [r.xva(15.0) for r in results]
    assert xva[0] > xva[1] > xva[2]


@pytest.mark.parametrize("degree", [1, 2])
def test_levels_are_built_once_per_distinct_stage_time(degree):
    # second order meets 2 new stage times a step; third order 3 and the
    # last stage time of the step before, so a group of any width builds
    # one driver level per distinct stage time, for all its columns at once
    base = replace(benchmark_config(option_kind="put", driver="nonlinear", cells=40),
                   degree=degree)
    single = solve(base).meta
    group = solve_many([replace(base, market=replace(base.market, capital_hurdle=h))
                        for h in (0.06, 0.1, 0.15, 0.2, 0.25)])[0].meta
    steps = single["steps"]
    assert group["batch_width"] == 5 and group["steps"] == steps
    levels = 2 * steps if degree == 1 else 3 * steps + 1
    assert single["driver_levels"] == group["driver_levels"] == levels
    assert single["driver_evaluations"] == group["driver_evaluations"] == (
        2 if degree == 1 else 4) * steps


def test_a_stage_time_off_the_schedule_is_an_error(monkeypatch):
    # a stage time the schedule does not list is a bug, never a level built
    # afresh
    full = imex.stage_times
    monkeypatch.setattr(imex, "stage_times", lambda order, grid: full(order, grid)[:-1])
    with pytest.raises(KeyError):
        solve(benchmark_config(cells=40))


def _march_afresh(configs, kind) -> np.ndarray:
    """The (B, N) state at time zero of one ``solve_many`` group, marched
    with the driver built afresh at every stage by a one-time
    ``driver_levels``, given the group's (B, 1, 1) coefficients.  A group
    of one keeps its market's numbers here: it is the batch-of-one
    reference that pins the solver's (1, 1, 1) coefficients to the scalar
    march, bit for bit."""
    config = configs[0]
    option, capital, market = config.option, config.capital, config.market
    width = len(configs)
    coefs = {}
    if width > 1:
        coefs = {name: np.array([getattr(c.market, name) for c in configs])
                 .reshape(width, 1, 1) for name in BATCHED_FIELDS}
    mesh, basis = Mesh(config.s_max, config.cells), make_basis(config.degree)
    speed = market.sigma ** 2 - market.drift
    grid = imex.select_time_grid(mesh, config.degree, speed, option.maturity,
                                 config.cfl_constant)
    order = config.degree + 1
    variant = variant_for_option(option)
    # the driver and the zeroth-order term, weighted by the mass diagonal
    weights = mass_diag(mesh, basis)
    op = assemble_implicit(
        mesh, basis, grid.delta * imex.implicit_coefficient(order),
        lambda u: (diffusion_form(gradient_form(u, variant), variant,
                                  lambda s: 0.5 * market.sigma ** 2 * s ** 2)
                   + convection_form(u, speed) + speed * weights * u.coeffs))
    shape = (width, mesh.cells, basis.n_nodes)
    u = np.zeros(shape) if is_adjustment_kind(kind) else np.repeat(
        project_payoff(option, mesh, basis).coeffs[None], width, axis=0)
    u = u.reshape(width, -1)
    spots = mesh.quad_points(basis)

    def explicit_fn(state, tau):
        fwd = driver_levels(kind, (option.maturity - tau,), spots, option, market, capital,
                            **coefs)(0)(state.reshape(shape))
        return (-weights * fwd).reshape(state.shape)

    tau = 0.0
    for _ in range(grid.steps):
        u = imex.step(order, u, tau, grid.delta, op.mass, op.apply_diffusion,
                      op.solve, explicit_fn)
        tau += grid.delta
    return u


@pytest.mark.parametrize("width", [1, 2])
@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("option_kind", ["put", "call"])
@pytest.mark.parametrize("kind", ALL_DRIVER_KINDS)
def test_levels_built_once_equal_a_march_built_afresh_bitwise(kind, option_kind, degree,
                                                              width):
    # the solver's levels, built once per distinct stage time from one
    # driver_levels call, march exactly as the driver built afresh at every
    # stage does, in every column of a batch
    base = replace(benchmark_config(option_kind=option_kind, cells=20), degree=degree)
    configs = [replace(base, market=replace(base.market, capital_hurdle=h,
                                            collateral_rate=r))
               for h, r in ((0.1, 0.04), (0.2, 0.07))[:width]]
    want = _march_afresh(configs, kind)
    for b, result in enumerate(solver._march_group(configs, kind)):
        got = result.value_field.coeffs.ravel()
        assert np.array_equal(got.view(np.int64), want[b].view(np.int64)), b


def test_levels_with_a_capital_profile_equal_a_march_built_afresh_bitwise(monkeypatch):
    # a capital profile is called with each level's own time, as afresh
    use_capital_profile(monkeypatch,
                        lambda t, s, m: (0.01 + 0.02 * t) * np.abs(m) + 1e-3 * s)
    configs = [replace(benchmark_config(option_kind="call", driver="nonlinear", cells=20),
                       degree=2)]
    for kind in ("nonlinear", "linear"):
        want = _march_afresh(configs, kind)
        got = solve(configs[0], kind).value_field.coeffs.ravel()
        assert np.array_equal(got.view(np.int64), want[0].view(np.int64)), kind


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("option_kind", ["put", "call"])   # both flux variants
@pytest.mark.parametrize("carry,speed", [({}, 0.03), ({"stock_repo_rate": 0.14}, -0.05),
                                         ({"dividend_yield": 0.36}, 0.39)])
def test_the_implicit_operator_is_the_whole_linear_part(monkeypatch, carry, speed,
                                                        option_kind, degree):
    # the march's L is diffusion(gradient(u)) + convection(u) + (sigma^2 - drift) M u,
    # so its explicit stage holds the driver alone
    built = []

    def keep(*args):
        built.append(assemble_implicit(*args))
        return built[-1]

    monkeypatch.setattr(solver, "assemble_implicit", keep)
    base = replace(benchmark_config(option_kind=option_kind, cells=20), degree=degree)
    config = replace(base, market=replace(base.market, **carry))
    solve(config)
    (op,) = built
    market = config.market
    c = market.sigma ** 2 - market.drift
    assert c == pytest.approx(speed, abs=1e-15)
    mesh, basis = Mesh(config.s_max, config.cells), make_basis(degree)
    variant = variant_for_option(config.option)
    rng = np.random.default_rng(5)
    u = DGField(mesh, basis, rng.standard_normal((mesh.cells, basis.n_nodes)))
    terms = (diffusion_form(gradient_form(u, variant), variant,
                            lambda s: 0.5 * market.sigma ** 2 * np.asarray(s) ** 2),
             convection_form(u, c), c * mass_diag(mesh, basis) * u.coeffs)
    got = op.apply_diffusion(u.coeffs.ravel()).reshape(u.coeffs.shape)
    # componentwise, against the magnitude of the terms that sum there
    scale = sum(np.abs(term) for term in terms)
    assert np.all(np.abs(got - sum(terms)) <= 1e-12 * scale)


def test_large_steps_stay_accurate_when_convection_is_fast():
    # a linear put at dividend yield 0.3 (convection speed 0.33): with every
    # linear term implicit, 19 steps at a Courant number of 8 stay within 3e-4
    # of 316 steps at 0.5
    base = benchmark_config(option_kind="put", driver="linear", cells=160)
    fast = replace(base, market=replace(base.market, dividend_yield=0.3))
    coarse, fine = solve(replace(fast, cfl_constant=8.0)), solve(fast)
    assert (coarse.meta["steps"], fine.meta["steps"]) == (19, 316)
    spots = np.array([5.0, 10.0, 15.0, 20.0, 30.0])
    assert np.max(np.abs(coarse.xva(spots) - fine.xva(spots))) < 3e-4


def test_nonfinite_column_stops_the_batch(monkeypatch):
    # a capital profile of 1e300 right of S = 30, at the last stage time of
    # the first step alone: third order's last stage enters the new state
    # through the explicit combination only, so the nonfinite nodes stay
    # where the driver overflowed, and only in the column whose hurdle
    # takes 1e300 past the largest float
    base = replace(benchmark_config(option_kind="put", driver="linear", cells=40),
                   degree=2)
    delta = solve(base).meta["delta_tau"]
    maturity = base.option.maturity
    use_capital_profile(monkeypatch, lambda t, s, m: np.where(
        (t <= maturity - 0.9 * delta) & (s > 30.0), 1e300, 0.0 * m))
    poisoned = replace(base, market=replace(base.market, capital_hurdle=1e10))
    with np.errstate(all="ignore"):
        with pytest.raises(SolverDivergedError, match="finiteness") as exc:
            solve_many([base, poisoned])
    assert exc.value.step == 1
    spots = Mesh(base.s_max, base.cells).quad_points(make_basis(base.degree))
    first = int(np.flatnonzero((spots > 30.0).any(axis=1))[0])
    assert first == 20
    assert exc.value.cell == first


def test_batched_march_layout(monkeypatch):
    # the gathered (B, N) state reaches both dtbtrs sweeps as its
    # F-contiguous (N, B) transpose, beside F-contiguous bands, and the
    # driver as a C-contiguous (B, cells, degree+1) array, so neither side
    # copies it into another order
    rhs_seen, states_seen = [], []
    dtbtrs = ldg.dtbtrs

    def record_dtbtrs(ab, b, *args, **kwargs):
        rhs_seen.append((b.shape, b.flags.f_contiguous, ab.flags.f_contiguous))
        return dtbtrs(ab, b, *args, **kwargs)

    levels = solver.driver_levels

    def record_levels(*args, **kwargs):
        build = levels(*args, **kwargs)

        def level_at(i):
            level = build(i)

            def recorded(v):
                states_seen.append((v.shape, v.flags.c_contiguous))
                return level(v)
            return recorded
        return level_at

    monkeypatch.setattr(ldg, "dtbtrs", record_dtbtrs)
    monkeypatch.setattr(solver, "driver_levels", record_levels)
    base = replace(benchmark_config(option_kind="put", driver="nonlinear", cells=20),
                   degree=2)
    results = solve_many([replace(base, market=replace(base.market, capital_hurdle=h))
                          for h in (0.06, 0.15, 0.25)])
    meta = results[0].meta
    assert len(rhs_seen) == 2 * meta["implicit_solves"] > 0
    assert len(states_seen) == meta["driver_evaluations"] > 0
    assert set(rhs_seen) == {((20 * 3, 3), True, True)}
    assert set(states_seen) == {((3, 20, 3), True)}


@pytest.mark.parametrize("kind, mark_shape", [("nonlinear", (2, 20, 3)),
                                              ("linear", (20, 3))])
def test_capital_fn_sees_spots_and_batch_major_marks(kind, mark_shape, monkeypatch):
    # a level's capital is built on spots (cells, degree+1) and reads marks
    # that broadcast against them: the marched values of a batch of B
    # scenarios as (B, cells, degree+1), or a mark kind's closed-form mark
    # on the spots' shape
    seen = set()

    def profile(t, s, m):
        seen.add((s.shape, m.shape))
        return 0.01 * np.abs(m) + 0.0 * s

    use_capital_profile(monkeypatch, profile)
    base = replace(benchmark_config(option_kind="call", driver=kind, cells=20), degree=2)
    solve_many([replace(base, market=replace(base.market, capital_hurdle=h))
                for h in (0.06, 0.15)])
    assert seen == {((20, 3), mark_shape)}


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 13: the driver's decay rate stays explicit, so a "
                          "high counterparty intensity makes the linear put blow up")
def test_high_counterparty_intensity_gives_a_bounded_put():
    # (intensity, cells) = (20, 40) prints 73.54 at spot 5 and (200, 160)
    # 2.4e35, each with exit status 0 and no RuntimeWarning
    spots = np.arange(5.0, 31.0)
    values = np.concatenate([
        solve(config_from_dict({"cpty_intensity": lam, "cells": cells})).value(spots)
        for lam, cells in ((20.0, 40), (200.0, 160))])
    assert np.all(np.isfinite(values)) and np.all(values < 15.0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: the fixed domain [0, 4 K] truncates the "
                          "lognormal law of a high-volatility trade")
def test_high_volatility_adjustment_matches_the_breakdown():
    # at sigma 1.5 the put prints -0.319 against -0.106 and the call +0.950
    # against -0.395, the same at 320 cells, each with exit status 0
    misses = []
    for option_kind in ("put", "call"):
        config = benchmark_config(option_kind=option_kind, driver="linear", cells=160)
        config = replace(config, market=replace(config.market, sigma=1.5))
        pde = float(solve(config).xva(15.0))
        quad = xva_breakdown(15.0, config.option, config.market, config.capital).total
        if abs(pde - quad) > max(2e-3, 0.02 * abs(quad)):
            misses.append((option_kind, pde, quad))
    assert misses == []


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


def test_finiteness_guard_raises_with_location(monkeypatch):
    # a capital profile that evaluates to infinity poisons the first step;
    # the march must stop immediately and report where
    cfg = benchmark_config(option_kind="call", driver="nonlinear", cells=40)
    use_capital_profile(monkeypatch,
                        lambda t, s, m: np.full_like(np.asarray(m, dtype=float), np.inf))
    with np.errstate(all="ignore"):
        with pytest.raises(SolverDivergedError, match="finiteness") as exc:
            solve(cfg)
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


@pytest.mark.parametrize("option_kind", ["put", "call"])
def test_pde_and_quadrature_agree_on_the_adjustments_delta(option_kind):
    # the adjustment's delta by two routes: the LDG gradient field minus the
    # closed-form delta, and a central difference of the quadrature total at
    # S (1 +- 1e-3), whose fixed Gauss-Hermite nodes carry no sampling noise
    cfg = benchmark_config(option_kind=option_kind, driver="linear", cells=1280, degree=1)
    sol = solve(cfg)
    for s in (5.0, 10.0, 15.0, 20.0, 30.0):
        pde = float(sol.delta(s) - bs_delta(cfg.option, s, 0.0, cfg.market))
        up, down = (xva_breakdown(x, cfg.option, cfg.market, cfg.capital).total
                    for x in (s * (1.0 + 1e-3), s * (1.0 - 1e-3)))
        quad = (up - down) / (2e-3 * s)
        assert abs(pde - quad) <= max(1e-4, 0.02 * abs(quad)), s


# xva_breakdown(15.0, ·) at the benchmark configuration as hex floats: how
# the quadrature shares its nodes and marks must not move a bit
BREAKDOWN_AT_15 = {
    "put": dict(cva="0x1.3b4d77c146c65p-12", fbva="-0x1.aac5e849f86e1p-79",
                fcva="0x1.bc26a102b3ab3p-15", cra="0x1.875869897a797p-7",
                kva="0x1.92d74bf817555p-10"),
    "call": dict(cva="0x1.04e07d621431dp-11", fbva="-0x1.2a326cb47e0fdp-80",
                 fcva="0x1.6f7bf1eb8aecfp-14", cra="0x1.43cb29f8521efp-6",
                 kva="0x1.e976c6d41c948p-3"),
}


@pytest.mark.parametrize("option_kind", ["put", "call"])
def test_decomposition_keeps_its_bits(option_kind):
    cfg = benchmark_config(option_kind=option_kind)
    bd = xva_breakdown(15.0, cfg.option, cfg.market, cfg.capital)
    assert {name: getattr(bd, name).hex() for name in BREAKDOWN_AT_15[option_kind]} \
        == BREAKDOWN_AT_15[option_kind]


def test_decomposition_evaluates_each_simpson_node_once(monkeypatch):
    # one closed-form mark, one capital stack and one expectation of the
    # four cost integrands per node, on 200 Simpson intervals
    counts = dict.fromkeys(("bs_value", "lognormal_expectation",
                            "capital_requirement"), 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(solver, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(solver, name, counted)
    cfg = benchmark_config()
    xva_breakdown(15.0, cfg.option, cfg.market, cfg.capital)
    assert counts == dict.fromkeys(counts, 201)


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
    # the market that removes the capital source keeps it identically zero
    cfg = benchmark_config(option_kind="put", driver="garcia", cells=40)
    sol = solve(replace(cfg, market=capital_off(cfg.market)))
    assert np.all(sol.value_field.coeffs == 0.0)


@pytest.mark.parametrize("option_kind", ["put", "call"])
@pytest.mark.parametrize("driver", ["linear", "nonlinear", "garcia"])
def test_capital_off_market_equals_a_zero_capital_profile_bitwise(driver, option_kind,
                                                                  monkeypatch):
    # at hurdle = phi rB the capital coefficient is exactly 0, so the march
    # is the one with the capital stack replaced by zero, bit for bit, and
    # the quadrature's capital term is exactly 0
    cfg = benchmark_config(option_kind=option_kind, driver=driver, cells=320)
    off = replace(cfg, market=capital_off(cfg.market))
    got = solve(off).value_field.coeffs
    assert not np.array_equal(got, solve(cfg).value_field.coeffs)
    assert xva_breakdown(15.0, off.option, off.market, off.capital).kva == 0.0
    use_capital_profile(monkeypatch, lambda t, s, m: 0.0 * m)
    want = solve(cfg).value_field.coeffs
    assert np.array_equal(got.view(np.int64), want.view(np.int64))


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
    # the reduced field and the rescaled reference are the nodal fields
    # behind max_abs_diff
    s = sample_grid(chk.reduced)
    gap = np.max(np.abs(chk.reduced.value_field.evaluate(s)
                        - chk.factor * chk.reference.value_field.evaluate(s)))
    assert gap == pytest.approx(chk.max_abs_diff, rel=1e-10)
    # the discrepancy at this resolution is genuine, not noise
    assert 1e-3 < chk.max_abs_diff < 1e-2


def test_garcia_check_requires_full_funding_fraction():
    market = MarketParams(capital_funding_fraction=0.5)
    cfg = replace(benchmark_config(driver="garcia", cells=40), market=market)
    with pytest.raises(ValueError, match="funding_fraction"):
        garcia_scaling_check(cfg)
