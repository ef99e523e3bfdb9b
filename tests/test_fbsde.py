"""Regression Monte Carlo cross-checker: stratified forward simulation,
analytic backward oracles, error-bar scaling, neighbor borrowing, the
per-level cache against the per-step reference loop at any chunking and
worker count, errors raised in pool threads, the memory guard, and input
validation.  All randomness is seeded; every assertion is deterministic."""

import os
import threading
from collections import defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from xvadg import fbsde
from xvadg.black_scholes import bs_value
from xvadg.config import CapitalParams, MarketParams, OptionSpec, benchmark_config, payoff
from xvadg.drivers import ADJUSTMENT_KINDS, ALL_DRIVER_KINDS, MARK_KINDS, driver_value
from xvadg.fbsde import (BackwardSolution, PathEnsemble, RegressionGrid,
                         simulate_forward, solve_backward)

PUT = OptionSpec(kind="put", strike=15.0, maturity=1.0)
CALL = OptionSpec(kind="call", strike=15.0, maturity=1.0)
MARKET = MarketParams()
SPOTS = np.array([5.0, 10.0, 15.0, 20.0, 30.0])

# small but honest budget: everything below runs in well under a second
GRID = RegressionGrid(strata=150, paths_per_stratum=600, steps=10)

ZERO_DRIVER = lambda t, s, v: 0.0 * v
DISCOUNT_DRIVER = lambda t, s, v: 0.06 * np.asarray(v)


@pytest.fixture(scope="module")
def ensemble():
    return simulate_forward(GRID, MARKET, maturity=1.0, seed=7)


def test_grid_validation_and_geometry():
    with pytest.raises(ValueError, match="strata"):
        RegressionGrid(strata=0)
    with pytest.raises(ValueError, match="paths_per_stratum"):
        RegressionGrid(paths_per_stratum=1)
    with pytest.raises(ValueError, match="steps"):
        RegressionGrid(steps=0)
    with pytest.raises(ValueError, match="log_lo"):
        RegressionGrid(log_lo=1.0, log_hi=1.0)
    grid = RegressionGrid(strata=10, paths_per_stratum=5, steps=3,
                          log_lo=-1.0, log_hi=1.0)
    assert grid.n_paths == 50
    edges = grid.log_edges
    assert edges.shape == (11,)
    assert edges[0] == -1.0 and edges[-1] == 1.0
    centers = grid.centers
    assert np.allclose(np.log(centers), 0.5 * (edges[:-1] + edges[1:]))


def test_stratum_lookup_clips_and_bins():
    grid = RegressionGrid(strata=10, paths_per_stratum=5, steps=3,
                          log_lo=-1.0, log_hi=1.0)
    # far outside the band clips to the end bins; zero spot is safe
    assert grid.stratum_of(np.array([1e-9]))[0] == 0
    assert grid.stratum_of(np.array([1e9]))[0] == 9
    assert grid.stratum_of(np.array([0.0]))[0] == 0
    interior = np.exp(0.5 * (grid.log_edges[:-1] + grid.log_edges[1:]))
    assert np.array_equal(grid.stratum_of(interior), np.arange(10))


def test_forward_simulation_shapes_and_stratification(ensemble):
    assert isinstance(ensemble, PathEnsemble)
    assert ensemble.spots.shape == (GRID.steps + 1, GRID.n_paths)
    assert ensemble.spots.dtype == np.float32
    assert ensemble.times.shape == (GRID.steps + 1,)
    assert ensemble.times[0] == 0.0 and ensemble.times[-1] == 1.0
    # each path starts inside its own stratum
    start_bins = GRID.stratum_of(ensemble.spots[0].astype(float))
    expect = np.repeat(np.arange(GRID.strata), GRID.paths_per_stratum)
    assert np.array_equal(start_bins, expect)


def test_forward_simulation_lognormal_moments(ensemble):
    # log increments over the full horizon: mean (drift - sigma^2/2) T and
    # variance sigma^2 T within a few standard errors of the sample stats
    logret = np.log(ensemble.spots[-1].astype(float)
                    / ensemble.spots[0].astype(float))
    n = logret.size
    mean_se = MARKET.sigma / np.sqrt(n)
    assert abs(logret.mean() - (MARKET.drift - 0.5 * MARKET.sigma ** 2)) \
        < 4.0 * mean_se
    var_se = MARKET.sigma ** 2 * np.sqrt(2.0 / (n - 1))
    assert abs(logret.var(ddof=1) - MARKET.sigma ** 2) < 4.0 * var_se


def test_forward_simulation_seed_determinism():
    a = simulate_forward(GRID, MARKET, 1.0, seed=42)
    b = simulate_forward(GRID, MARKET, 1.0, seed=42)
    c = simulate_forward(GRID, MARKET, 1.0, seed=43)
    assert np.array_equal(a.spots, b.spots)
    assert not np.array_equal(a.spots, c.spots)


def test_tiny_volatility_paths_are_nearly_deterministic():
    market = MarketParams(sigma=1e-8)
    grid = RegressionGrid(strata=20, paths_per_stratum=50, steps=5)
    ens = simulate_forward(grid, market, 1.0, seed=1)
    s0 = ens.spots[0].astype(float)
    s1 = ens.spots[-1].astype(float)
    assert np.max(np.abs(s1 / (s0 * np.exp(market.drift)) - 1.0)) < 1e-5


def test_zero_driver_oracle(ensemble):
    # with no running cost the backward recursion is the plain conditional
    # expectation of the payoff; since the simulated drift equals the
    # risk-free rate this is e^{rT} times the closed form
    sol = solve_backward(ensemble, "linear", PUT, driver_override=ZERO_DRIVER)
    ref = np.exp(0.06) * bs_value(PUT, SPOTS, 0.0, MARKET)
    err = np.abs(sol.value(SPOTS) - ref)
    tol = np.maximum(4.0 * sol.stderr(SPOTS), 2e-3 * (1.0 + np.abs(ref)))
    assert np.all(err < tol), (err, tol)


def test_discount_driver_oracle(ensemble):
    # F = r y integrates to the risk-free discount: the recursion must
    # reproduce the closed-form option value itself
    sol = solve_backward(ensemble, "linear", PUT, driver_override=DISCOUNT_DRIVER)
    ref = bs_value(PUT, SPOTS, 0.0, MARKET)
    err = np.abs(sol.value(SPOTS) - ref)
    tol = np.maximum(4.0 * sol.stderr(SPOTS), 2e-3 * (1.0 + np.abs(ref)))
    assert np.all(err < tol), (err, tol)


def test_full_driver_tracks_pde_within_noise(ensemble):
    from xvadg.solver import solve
    sol = solve_backward(ensemble, "linear", PUT)
    pde = solve(benchmark_config(option_kind="put", driver="linear", cells=320))
    diff = np.abs(sol.xva(SPOTS) - pde.xva(SPOTS))
    tol = np.maximum(5.0 * sol.stderr(SPOTS),
                     0.05 * np.abs(pde.xva(SPOTS)) + 5e-4)
    assert np.all(diff < tol), (diff, tol)


def test_stderr_shrinks_with_path_count(ensemble):
    # quadrupling the paths per stratum halves the regression error bars
    big = RegressionGrid(strata=150, paths_per_stratum=2400, steps=10)
    ens4 = simulate_forward(big, MARKET, 1.0, seed=7)
    se1 = solve_backward(ensemble, "linear", PUT,
                         driver_override=ZERO_DRIVER).stderr(SPOTS)
    se4 = solve_backward(ens4, "linear", PUT,
                         driver_override=ZERO_DRIVER).stderr(SPOTS)
    ratio = se1 / se4
    assert np.all((ratio > 1.7) & (ratio < 2.4)), ratio


def test_backward_solution_accessors(ensemble):
    sol = solve_backward(ensemble, "linear", PUT, driver_override=ZERO_DRIVER)
    assert isinstance(sol, BackwardSolution)
    # scalar in, scalar out
    assert isinstance(sol.value(15.0), float)
    assert isinstance(sol.stderr(15.0), float)
    assert sol.stderr(15.0) > 0.0
    # value-family runs report the adjustment net of the closed form
    assert sol.xva(15.0) == pytest.approx(
        sol.value(15.0) - bs_value(PUT, 15.0, 0.0, MARKET), abs=1e-12)
    meta = sol.meta
    assert meta["kind"] == "linear" and meta["option"] == "put"
    assert meta["strata"] == 150 and meta["paths_per_stratum"] == 600
    assert meta["steps"] == 10 and meta["seed"] == 7


def test_adjustment_kind_reports_value_as_xva(ensemble):
    sol = solve_backward(ensemble, "garcia", PUT)
    assert sol.is_adjustment
    s = np.array([8.0, 15.0, 25.0])
    assert np.array_equal(sol.xva(s), sol.value(s))
    # the reduced adjustment is a cost: nonpositive up to regression noise
    assert np.all(sol.value(s) < 1e-3)


def test_empty_strata_borrow_neighbor_fits(caplog):
    # a sparse ensemble leaves far-tail strata unpopulated after rebinning;
    # the fit borrows the nearest populated stratum and says so
    grid = RegressionGrid(strata=80, paths_per_stratum=4, steps=8)
    ens = simulate_forward(grid, MARKET, 1.0, seed=3)
    with caplog.at_level("WARNING", logger="xvadg.fbsde"):
        sol = solve_backward(ens, "linear", PUT, driver_override=ZERO_DRIVER)
    assert sol.borrowed_strata > 0
    assert any("borrowed" in rec.message for rec in caplog.records)
    assert np.isfinite(sol.value(15.0))


def test_backward_input_validation(ensemble):
    with pytest.raises(ValueError, match="unknown driver kind"):
        solve_backward(ensemble, "exotic", PUT)
    short = OptionSpec(kind="put", strike=15.0, maturity=0.5)
    with pytest.raises(ValueError, match="maturity"):
        solve_backward(ensemble, "linear", short)


def test_linear_pass_evaluates_capital_once_per_level(ensemble):
    # the mark and the capital on it depend on (t, S) only: one evaluation
    # per time level t_i serves the corrector of step i and the predictor of
    # step i-1.  The hook is called once per chunk of paths, from the pool
    # threads, so at each level its calls must see every path exactly once
    seen = defaultdict(list)
    lock = threading.Lock()

    def counting(t, spot, mark):
        with lock:
            seen[t].append(spot.copy())
        return 0.0 * mark

    sol = solve_backward(ensemble, "linear", PUT, capital_fn=counting)
    assert sorted(seen) == list(ensemble.times)
    for i, t in enumerate(ensemble.times):
        assert sum(s.size for s in seen[t]) == GRID.n_paths
        assert np.array_equal(np.sort(np.concatenate(seen[t])),
                              np.sort(ensemble.spots[i].astype(np.float64)))
    meta = sol.meta
    assert meta["levels_filled"] == GRID.steps + 1
    assert meta["driver_evaluations"] == 2 * GRID.steps
    assert meta["driver_points"] == 2 * GRID.steps * GRID.n_paths
    chunks = -(-GRID.n_paths // fbsde._CHUNK)
    assert meta["chunks"] == chunks
    assert meta["workers"] == min(len(os.sched_getaffinity(0)), chunks)


def _cpus(n):
    """Patch the CPU set the backward pass sizes its pool by to n CPUs."""
    return mock.patch.object(fbsde.os, "sched_getaffinity",
                             return_value=set(range(n)))


def _reference_backward(ensemble, kind, option, capital_fn=None,
                        driver_override=None):
    """The per-step backward loop the level cache replaced: every driver
    evaluation recomputes its (t, S) work, every step upcasts both levels
    and every fit accumulates its own regressor moments."""
    market, grid, times = ensemble.market, ensemble.grid, ensemble.times
    capital = CapitalParams()
    dt = times[1] - times[0]
    riskfree_fn = None
    if driver_override is None and kind in MARK_KINDS:
        riskfree_fn = lambda t, s: bs_value(option, s, t, market)

    def driver_at(t, spot, v):
        if driver_override is not None:
            return driver_override(t, spot, v)
        return driver_value(kind, t, spot, v, option, market, capital,
                            riskfree_fn, capital_fn)

    def fit_at(bins, spot, y):
        dx = spot - grid.centers[bins]
        return fbsde._fit_strata(bins, dx, fbsde._moments(bins, dx, grid.strata),
                                 y, grid)[0]

    s_term = ensemble.spots[-1].astype(np.float64)
    y = np.zeros_like(s_term) if kind in ADJUSTMENT_KINDS else payoff(option, s_term)
    for i in range(grid.steps - 1, -1, -1):
        s_next = ensemble.spots[i + 1].astype(np.float64)
        f_right = driver_at(float(times[i + 1]), s_next, y)
        s_now = ensemble.spots[i].astype(np.float64)
        bins = grid.stratum_of(s_now)
        y_star = fit_at(bins, s_now, y - dt * f_right).predict(
            bins, s_now - grid.centers[bins])
        f_left = driver_at(float(times[i]), s_now, y_star)
        fit = fit_at(bins, s_now, y - 0.5 * dt * (f_right + f_left))
        y = fit.predict(bins, s_now - grid.centers[bins])
    return fit


@pytest.mark.parametrize("option", [PUT, CALL], ids=["put", "call"])
@pytest.mark.parametrize("kind", ALL_DRIVER_KINDS)
@given(strata=st.integers(1, 20), paths=st.integers(2, 20),
       steps=st.integers(1, 4), seed=st.integers(0, 2 ** 32 - 1),
       hook=st.sampled_from(["none", "capital_fn", "driver_override"]),
       chunk=st.sampled_from([fbsde._CHUNK, 7]), workers=st.sampled_from([1, 2]))
def test_level_cache_equals_per_step_reference(kind, option, strata, paths,
                                                steps, seed, hook, chunk, workers):
    # the cached pass reorders no arithmetic: every fit array is identical
    # to the per-step loop's, also across chunk boundaries and on one or two
    # pool threads, with a capital override, with a driver override and
    # with borrowed empty strata
    grid = RegressionGrid(strata=strata, paths_per_stratum=paths, steps=steps)
    ens = simulate_forward(grid, MARKET, 1.0, seed=seed)
    hooks = {
        "none": {},
        "capital_fn": {"capital_fn": lambda t, s, m: 0.01 * np.abs(m) + 1e-3 * s * t},
        "driver_override": {"driver_override": lambda t, s, v: 0.05 * v + 0.01 * s * t},
    }[hook]
    with mock.patch.object(fbsde, "_CHUNK", chunk), _cpus(workers):
        sol = solve_backward(ens, kind, option, **hooks)
    assert sol.meta["workers"] == min(workers, sol.meta["chunks"])
    want = _reference_backward(ens, kind, option, **hooks)
    for name in ("intercept", "slope", "counts", "mean_dx", "sxx", "resid_var"):
        assert np.array_equal(getattr(sol.fit, name), getattr(want, name)), name


class _ChunkFailure(RuntimeError):
    pass


@pytest.mark.parametrize("hook", ["driver_override", "capital_fn"])
def test_error_in_one_chunk_leaves_the_pass(ensemble, hook):
    # a hook that fails on one chunk (the short last one) of the first
    # level it meets: the pass raises that same exception, and no pool
    # thread outlives it
    chunk = 7000
    def failing(t, spot, v):
        if spot.size < chunk:
            raise _ChunkFailure(t)
        return 0.0 * v

    before = threading.active_count()
    with mock.patch.object(fbsde, "_CHUNK", chunk), _cpus(2), \
            pytest.raises(_ChunkFailure) as info:
        solve_backward(ensemble, "linear", PUT, **{hook: failing})
    assert info.value.args == (1.0,)
    assert threading.active_count() == before


def test_memory_guard_rejects_budget_before_allocating(monkeypatch):
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    assert RegressionGrid().memory_bytes < physical
    huge = RegressionGrid(strata=100_000, paths_per_stratum=1_000_000)
    assert huge.memory_bytes > physical
    # with numpy unreachable from the module, any allocation would raise
    # AttributeError; the guard must reject the budget first
    monkeypatch.setattr(fbsde, "np", None)
    with pytest.raises(ValueError, match="strata.*paths_per_stratum"):
        simulate_forward(huge, MARKET, 1.0, seed=0)
