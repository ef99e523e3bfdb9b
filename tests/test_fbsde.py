"""Regression Monte Carlo cross-checker: stratified forward simulation
(pooled against the serial loop), the analytic backward oracles of the
`riskfree` kind, error-bar scaling, strata without paths (never read
inside a pass, refused at t = 0), the per-chunk stratum sums of a phase,
the per-level cache against the per-step reference loop at any chunking and
worker count, the sums of y^2 formed only where they are read, errors
raised in pool threads, the pool size where the platform has no CPU
affinity call, the memory guard, queries outside the strata's span, and
input validation.  All randomness is
seeded; every assertion is deterministic."""

import dataclasses
import functools
import os
import re
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kernels_reference import use_capital_profile
from xvadg import fbsde
from xvadg.black_scholes import bs_value
from xvadg.config import CapitalParams, MarketParams, OptionSpec, benchmark_config, \
    config_from_dict, payoff
from xvadg.drivers import ALL_DRIVER_KINDS, driver_value, is_adjustment_kind
from xvadg.fbsde import (LOG_SPOT_HI, LOG_SPOT_LO, BackwardSolution, PathEnsemble,
                         RegressionGrid, simulate_forward, solve_backward)

PUT = OptionSpec(kind="put", strike=15.0, maturity=1.0)
CALL = OptionSpec(kind="call", strike=15.0, maturity=1.0)
MARKET = MarketParams()
SPOTS = np.array([5.0, 10.0, 15.0, 20.0, 30.0])

# small but honest budget: everything below runs in well under a second
GRID = RegressionGrid(strata=150, paths_per_stratum=600, steps=10)

# the market of F = 0: the `riskfree` kind at a zero risk-free rate
ZERO_RATE = config_from_dict({"risk_free_rate": 0.0}).market


@pytest.fixture(scope="module")
def ensemble():
    return simulate_forward(GRID, MARKET, maturity=1.0, seed=7)


def _zero_driver(ens):
    """A pass with F = 0 on the paths of ``ens``: `riskfree` at a zero rate."""
    return solve_backward(dataclasses.replace(ens, market=ZERO_RATE), "riskfree", PUT)


def test_grid_validation_and_geometry():
    with pytest.raises(ValueError, match="strata"):
        RegressionGrid(strata=0)
    with pytest.raises(ValueError, match="paths_per_stratum"):
        RegressionGrid(paths_per_stratum=1)
    with pytest.raises(ValueError, match="steps"):
        RegressionGrid(steps=0)
    grid = RegressionGrid(strata=10, paths_per_stratum=5, steps=3)
    assert grid.n_paths == 50
    edges = grid.log_edges
    assert edges.shape == (11,)
    assert (LOG_SPOT_LO, LOG_SPOT_HI) == (-5.0, 5.0)
    assert edges[0] == LOG_SPOT_LO and edges[-1] == LOG_SPOT_HI
    centers = grid.centers
    assert np.allclose(np.log(centers), 0.5 * (edges[:-1] + edges[1:]))


def test_stratum_lookup_clips_and_bins():
    grid = RegressionGrid(strata=10, paths_per_stratum=5, steps=3)
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


def _serial_forward_spots(grid, market, maturity, seed):
    """The one-stratum-at-a-time loop the pooled simulation replaced."""
    dt = maturity / grid.steps
    drift_term = (market.drift - 0.5 * market.sigma ** 2) * dt
    vol_term = market.sigma * np.sqrt(dt)
    edges, pps = grid.log_edges, grid.paths_per_stratum
    spots = np.empty((grid.steps + 1, grid.n_paths), dtype=np.float32)
    block = np.empty((grid.steps + 1, pps))
    streams = np.random.SeedSequence(seed).spawn(grid.strata)
    for j, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        block[0] = rng.uniform(edges[j], edges[j + 1], size=pps)
        z = rng.standard_normal((grid.steps, pps))
        np.cumsum(drift_term + vol_term * z, axis=0, out=block[1:])
        block[1:] += block[0]
        spots[:, j * pps:(j + 1) * pps] = np.exp(block)
    return spots


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("chunk", [1, 100, fbsde._CHUNK])
def test_pooled_forward_equals_serial_loop(workers, chunk):
    # blocks of max(1, chunk // paths_per_stratum) strata: one stratum per
    # task, three per task, and all 37 in one task
    grid = RegressionGrid(strata=37, paths_per_stratum=30, steps=6)
    with mock.patch.object(fbsde, "_CHUNK", chunk), _cpus(workers):
        ens = simulate_forward(grid, MARKET, 1.0, seed=99)
    assert np.array_equal(ens.spots, _serial_forward_spots(grid, MARKET, 1.0, 99))
    tasks = -(-grid.strata // max(1, chunk // grid.paths_per_stratum))
    assert ens.meta == {"runtime_seconds": round(ens.meta["runtime_seconds"], 3),
                        "workers": min(workers, tasks), "tasks": tasks}


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
    sol = _zero_driver(ensemble)
    ref = np.exp(0.06) * bs_value(PUT, SPOTS, 0.0, MARKET)
    err = np.abs(sol.value(SPOTS) - ref)
    tol = np.maximum(4.0 * sol.stderr(SPOTS), 2e-3 * (1.0 + np.abs(ref)))
    assert np.all(err < tol), (err, tol)


def test_discount_driver_oracle(ensemble):
    # F = r y integrates to the risk-free discount: the recursion must
    # reproduce the closed-form option value itself
    sol = solve_backward(ensemble, "riskfree", PUT)
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
    se1 = _zero_driver(ensemble).stderr(SPOTS)
    se4 = _zero_driver(ens4).stderr(SPOTS)
    ratio = se1 / se4
    assert np.all((ratio > 1.7) & (ratio < 2.4)), ratio


def test_backward_solution_accessors(ensemble):
    sol = solve_backward(ensemble, "linear", PUT)
    assert isinstance(sol, BackwardSolution)
    # scalar in, scalar out
    assert isinstance(sol.value(15.0), float)
    assert isinstance(sol.stderr(15.0), float)
    assert sol.stderr(15.0) > 0.0
    # value-family runs report the adjustment net of the closed form
    assert sol.xva(15.0) == pytest.approx(
        sol.value(15.0) - bs_value(PUT, 15.0, 0.0, MARKET), abs=1e-12)
    meta = sol.meta
    assert set(meta) == {"kind", "option", "strata", "paths_per_stratum", "steps",
                         "seed", "levels_filled", "driver_evaluations",
                         "driver_points", "workers", "chunks", "runtime_seconds"}
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


_FIT_LINES = ("intercept", "slope", "mean_dx", "sxx", "resid_var")


def test_empty_strata_are_never_read(monkeypatch):
    # a sparse ensemble leaves far-tail strata without paths after
    # rebinning.  A level's fit is read only at that level's own paths, so
    # poisoning the lines of those strata with NaN changes no bit
    grid = RegressionGrid(strata=80, paths_per_stratum=4, steps=8)
    ens = simulate_forward(grid, MARKET, 1.0, seed=3)
    plain = _zero_driver(ens)
    fit_strata = fbsde._fit_strata
    empties = []

    def poisoned(moments, sums):
        fit = fit_strata(moments, sums)
        empty = moments[0] < 1.0
        empties.append(int(empty.sum()))
        return fbsde._StrataFit(counts=fit.counts, **{
            name: np.where(empty, np.nan, getattr(fit, name)) for name in _FIT_LINES})

    monkeypatch.setattr(fbsde, "_fit_strata", poisoned)
    sol = _zero_driver(ens)
    assert sum(empties) > 0
    for name in ("counts", *_FIT_LINES):
        assert getattr(sol.fit, name).tobytes() == getattr(plain.fit, name).tobytes(), name
    assert np.isfinite(sol.value(15.0))


def test_query_in_a_stratum_empty_at_time_zero_raises():
    # every stratum launches its own paths, so only float32 rounding across
    # an edge can empty one at t = 0; built by hand here, stratum 2 of 4
    # (log-spot 0 to 2.5) holds no path and its zero line must not be
    # reported as a value
    grid = RegressionGrid(strata=4, paths_per_stratum=2, steps=1)
    start = np.exp([-4.5, -3.5, -2.0, -1.0, 3.0, 3.5, 4.0, 4.5])
    ens = PathEnsemble(grid=grid, market=MARKET, maturity=1.0, seed=0,
                       times=np.array([0.0, 1.0]),
                       spots=np.array([start, 1.1 * start], dtype=np.float32),
                       meta={})
    sol = _zero_driver(ens)
    hole = float(grid.centers[2])
    # a line through the 2 paths of strata 0 and 1 leaves no residual
    # degree of freedom, so only stratum 3 has an error bar
    for query, spots in ((sol.value, [0.02, 0.3, 60.0]), (sol.stderr, [60.0]),
                         (sol.xva, [0.02, 0.3, 60.0])):
        assert np.all(np.isfinite(query(np.array(spots))))
        for spot in (hole, np.array([60.0, hole])):
            with pytest.raises(ValueError, match=re.escape(
                    f"query spot {hole!r} lies in a Monte Carlo stratum that "
                    f"holds no path at t = 0")):
                query(spot)
    assert np.array_equal(sol.fit.counts, [2.0, 2.0, 0.0, 4.0])


def test_stderr_without_residual_freedom_raises():
    # a line through 2 paths fits them exactly: its residual variance has
    # no degree of freedom behind it, so the error bar there is unknown and
    # the query is refused, where 3 paths give a finite, positive one
    spots = np.array([5.0, 15.0])
    sol = {paths: solve_backward(simulate_forward(
        RegressionGrid(strata=40, paths_per_stratum=paths, steps=4), MARKET, 1.0,
        seed=7), "linear", PUT) for paths in (2, 3)}
    assert np.all(sol[3].stderr(spots) > 0.0)
    assert np.all(np.isfinite(sol[2].value(spots)))
    for spot in (15.0, spots[::-1]):
        with pytest.raises(ValueError, match=re.escape(
                "query spot 15.0 lies in a Monte Carlo stratum whose fit at "
                "t = 0 leaves no residual degree of freedom")):
            sol[2].stderr(spot)


def test_queries_outside_the_strata_span_raise(ensemble):
    # the fitted surface ends with the strata at
    # [exp(LOG_SPOT_LO), exp(LOG_SPOT_HI)]: both ends are read, anything
    # beyond them or not finite raises and names the spot
    sol = solve_backward(ensemble, "linear", PUT)
    lo, hi = np.exp(LOG_SPOT_LO), np.exp(LOG_SPOT_HI)
    for query in (sol.value, sol.stderr, sol.xva):
        assert np.all(np.isfinite(query(np.array([lo, hi]))))
        assert np.isfinite(query(lo)) and np.isfinite(query(hi))
        for bad in (np.nextafter(lo, 0.0), np.nextafter(hi, np.inf),
                    np.nan, np.inf, -1.0):
            for spot in (bad, np.array([15.0, bad])):
                with pytest.raises(ValueError, match=re.escape(
                        f"query spot {float(bad)!r} lies outside the Monte "
                        f"Carlo strata's span")):
                    query(spot)


def test_backward_input_validation(ensemble):
    with pytest.raises(ValueError, match="unknown driver kind"):
        solve_backward(ensemble, "exotic", PUT)
    short = OptionSpec(kind="put", strike=15.0, maturity=0.5)
    with pytest.raises(ValueError, match="maturity"):
        solve_backward(ensemble, "linear", short)


def test_linear_pass_evaluates_capital_once_per_level(ensemble, monkeypatch):
    # the mark and the capital on it depend on (t, S) only: one evaluation
    # per time level t_i serves the corrector of step i and the predictor of
    # step i-1.  A level's capital is built once per chunk of paths, in the
    # pool threads, so at each level its calls must see every path exactly
    # once
    seen = defaultdict(list)
    lock = threading.Lock()

    def counting(t, spot, mark):
        with lock:
            seen[t].append(spot.copy())
        return 0.0 * mark

    use_capital_profile(monkeypatch, counting)
    sol = solve_backward(ensemble, "linear", PUT)
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


def _chunked(n, chunk):
    return [slice(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def _reference_backward(ensemble, kind, option):
    """The per-step backward loop the level cache replaced: every driver
    evaluation recomputes its (t, S) work, every step upcasts both levels
    and every fit accumulates its own regressor moments, each sum with one
    bincount per ``fbsde._CHUNK`` slice of the whole path array, added in
    chunk order."""
    market, grid, times = ensemble.market, ensemble.grid, ensemble.times
    capital = CapitalParams()
    dt = times[1] - times[0]

    def driver_at(t, spot, v):
        return driver_value(kind, t, spot, v, option, market, capital)

    def fit_at(bins, spot, y):
        # path-length products summed chunk by chunk, apart from the pass's
        # chunk tasks; the count is one exact whole-array bincount
        m = grid.strata
        dx = spot - grid.centers[bins]

        def chunk_sums(w):
            total = np.zeros(m)
            for sl in _chunked(bins.size, fbsde._CHUNK):
                total += np.bincount(bins[sl], weights=w[sl], minlength=m)
            return total

        moments = (np.bincount(bins, minlength=m).astype(float),
                   chunk_sums(dx), chunk_sums(dx * dx))
        sums = (chunk_sums(y), chunk_sums(dx * y), chunk_sums(y * y))
        return fbsde._fit_strata(moments, sums)

    s_term = ensemble.spots[-1].astype(np.float64)
    y = np.zeros_like(s_term) if is_adjustment_kind(kind) else payoff(option, s_term)
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
       profile=st.booleans(), chunk=st.sampled_from([fbsde._CHUNK, 7]),
       workers=st.sampled_from([1, 2]))
def test_level_cache_equals_per_step_reference(kind, option, strata, paths,
                                                steps, seed, profile, chunk, workers):
    # the cached pass reorders no arithmetic: every fit array is identical
    # to the per-step loop's, also across chunk boundaries and on one or two
    # pool threads, with the capital stack and with a capital profile of
    # (t, S, mark)
    grid = RegressionGrid(strata=strata, paths_per_stratum=paths, steps=steps)
    ens = simulate_forward(grid, MARKET, 1.0, seed=seed)
    with pytest.MonkeyPatch.context() as patch, \
            mock.patch.object(fbsde, "_CHUNK", chunk), _cpus(workers):
        if profile:
            use_capital_profile(patch, lambda t, s, m: 0.01 * np.abs(m) + 1e-3 * s * t)
        sol = solve_backward(ens, kind, option)
        want = _reference_backward(ens, kind, option)
    assert sol.meta["workers"] == min(workers, sol.meta["chunks"])
    _assert_same_fit(sol.fit, want)


def _parent_fit_strata(moments, sums):
    """The fit of the parent pass, which summed y^2 for every fit and formed
    every residual variance."""
    n, sx, sxx_raw = moments
    sy, sxy, syy = sums
    n_safe = np.maximum(n, 1.0)
    mean_x = sx / n_safe
    mean_y = sy / n_safe
    cxx = sxx_raw - n * mean_x * mean_x
    cyy = np.maximum(syy - n * mean_y * mean_y, 0.0)
    cxy = sxy - n * mean_x * mean_y
    linear = (n >= 2.0) & (cxx > 1e-300)
    slope = np.where(linear, cxy / np.where(linear, cxx, 1.0), 0.0)
    intercept = mean_y - slope * mean_x
    ssr = np.maximum(np.where(linear, cyy - slope * cxy, cyy), 0.0)
    dof = np.maximum(np.where(linear, n - 2.0, n - 1.0), 1.0)
    return fbsde._StrataFit(intercept=intercept, slope=slope, counts=n,
                            mean_dx=mean_x, sxx=cxx, resid_var=ssr / dof)


def _recording(fits, fit_strata):
    def record(moments, sums):
        fits.append(fit_strata(moments, sums))
        return fits[-1]
    return record


@pytest.mark.parametrize("option", [PUT, CALL], ids=["put", "call"])
@pytest.mark.parametrize("kind", ["linear", "nonlinear"])
@pytest.mark.parametrize("chunk", [7, fbsde._CHUNK])
def test_unread_square_sums_change_no_fit_bit(kind, option, chunk):
    # the pass sums y^2 only for the time-zero corrector fit: every other
    # fit has no residual variance, and every intercept and slope, the
    # time-zero residual variance and the stderr read from it keep the bits
    # of the parent's fits, which summed y^2 at every fit
    grid = RegressionGrid(strata=40, paths_per_stratum=30, steps=6)
    ens = simulate_forward(grid, MARKET, 1.0, seed=5)
    got, want = [], []
    with mock.patch.object(fbsde, "_CHUNK", chunk):
        with mock.patch.object(fbsde, "_fit_strata", _recording(got, fbsde._fit_strata)):
            sol = solve_backward(ens, kind, option)
        with mock.patch.object(fbsde, "_fit_strata", _recording(want, _parent_fit_strata)):
            _reference_backward(ens, kind, option)
    assert len(got) == len(want) == 2 * grid.steps
    for g, w in zip(got, want):
        assert np.array_equal(g.intercept.view(np.int64), w.intercept.view(np.int64))
        assert np.array_equal(g.slope.view(np.int64), w.slope.view(np.int64))
    assert all(g.resid_var is None for g in got[:-1])
    assert np.array_equal(got[-1].resid_var.view(np.int64), want[-1].resid_var.view(np.int64))
    spots = np.geomspace(5.0, 30.0, 9)
    parent = dataclasses.replace(sol, fit=want[-1])
    assert np.array_equal(sol.stderr(spots).view(np.int64), parent.stderr(spots).view(np.int64))


def _assert_same_fit(got, want):
    for name in ("intercept", "slope", "counts", "mean_dx", "sxx", "resid_var"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


def test_production_chunks_do_not_depend_on_the_worker_count(ensemble):
    # GRID's 90,000 paths are three chunks of the real _CHUNK: one and two
    # pool threads give the per-step reference's fit, bit for bit
    want = _reference_backward(ensemble, "nonlinear", CALL)
    for workers in (1, 2):
        with _cpus(workers):
            sol = solve_backward(ensemble, "nonlinear", CALL)
        assert (sol.meta["workers"], sol.meta["chunks"]) == (workers, 3)
        _assert_same_fit(sol.fit, want)


@given(data=st.data(), strata=st.integers(1, 12), n=st.integers(0, 60),
       chunk=st.sampled_from([1, 7, fbsde._CHUNK]))
def test_phase_sums_add_chunk_bincounts_in_chunk_order(data, strata, n, chunk):
    # every chunk's rows are its own bincounts, added in chunk order once
    # the phase has ended: the same bits on one and on two pool threads,
    # also with empty strata (n may be 0, one empty chunk, and strata are
    # drawn from a subset), -0.0 and magnitudes that round against each
    # other; the path count, the row of a None weight, is exact.  The task's
    # weights fix the rows, for tasks of 1, 3 and 5 weights with and without
    # the count row, and the sum started from chunk 0's rows has the bits
    # of one started from zeros
    used = data.draw(st.lists(st.integers(0, strata - 1), min_size=1, unique=True))
    bins = np.array(data.draw(st.lists(st.sampled_from(used), min_size=n, max_size=n)),
                    dtype=np.int64)
    value = st.one_of(st.sampled_from([0.0, -0.0, 1e16, -1e16, 1.0, 1e-300]),
                      st.floats(-1e6, 1e6))
    drawn = tuple(np.array(data.draw(st.lists(value, min_size=n, max_size=n)),
                           dtype=float) for _ in range(5))
    chunks = _chunked(n, chunk) or [slice(0, 0)]
    for rows in (1, 3, 5):
        for counted in (False, True):
            weights = ((None,) if counted else ()) + drawn[:rows - counted]
            results = []
            for workers in (1, 2):
                with ThreadPoolExecutor(workers) as pool:
                    results.append(fbsde._phase_sums(
                        pool, chunks,
                        lambda k, sl: (bins[sl], tuple(w if w is None else w[sl]
                                                       for w in weights)),
                        strata))
            sums, sums_2 = results
            assert sums.shape == (rows, strata) and sums.dtype == np.float64
            assert np.array_equal(sums.view(np.int64), sums_2.view(np.int64))
            for row, w in zip(sums, weights):
                want = np.zeros(strata)
                for sl in chunks:
                    want += np.bincount(bins[sl], weights=None if w is None else w[sl],
                                        minlength=strata)
                assert np.array_equal(row.view(np.int64), want.view(np.int64))
            if counted:
                assert np.array_equal(sums[0], np.bincount(bins, minlength=strata))


class _ChunkFailure(RuntimeError):
    pass


@pytest.mark.parametrize("workers", [1, 2])
def test_phase_sums_raise_the_first_chunks_error_first(workers):
    # the sum starts from chunk 0's rows, so chunk 0's error is the one
    # raised, also when a later chunk failed before it (on two threads,
    # chunk 0 fails only once chunk 2 has), and only once every task ended
    chunks = _chunked(30, 7)
    later_failed = threading.Event()
    ended = []

    def task(k, sl):
        try:
            if k == 0:
                if workers > 1:
                    assert later_failed.wait(timeout=60)
                raise _ChunkFailure(k)
            if k == 2:
                later_failed.set()
                raise _ChunkFailure(k)
            return np.zeros(sl.stop - sl.start, dtype=np.int64), (None,)
        finally:
            ended.append(k)

    with ThreadPoolExecutor(workers) as pool, pytest.raises(_ChunkFailure) as info:
        fbsde._phase_sums(pool, chunks, task, 3)
    assert info.value.args == (0,)
    assert sorted(ended) == list(range(len(chunks)))


def test_the_pools_fall_back_to_the_cpu_count_without_an_affinity_call(monkeypatch):
    # os.sched_getaffinity is Linux-only: without it, a forward and a
    # backward pass size their pools by os.cpu_count(), and by one thread
    # where that is unknown too
    monkeypatch.delattr(fbsde.os, "sched_getaffinity")
    monkeypatch.setattr(fbsde, "_CHUNK", 8)
    grid = RegressionGrid(strata=4, paths_per_stratum=10, steps=2)
    ens = simulate_forward(grid, MARKET, 1.0, seed=7)
    sol = solve_backward(ens, "linear", PUT)
    tasks, chunks = ens.meta["tasks"], sol.meta["chunks"]
    assert (tasks, chunks) == (4, 5)
    assert ens.meta["workers"] == min(os.cpu_count(), tasks)
    assert sol.meta["workers"] == min(os.cpu_count(), chunks)
    monkeypatch.setattr(fbsde.os, "cpu_count", lambda: None)
    assert simulate_forward(grid, MARKET, 1.0, seed=7).meta["workers"] == 1
    assert solve_backward(ens, "linear", PUT).meta["workers"] == 1


@pytest.mark.parametrize("hook", ["driver_override", "capital_fn"])
def test_error_in_one_chunk_leaves_the_pass(ensemble, hook):
    # a driver that fails on one chunk (the first, a middle one or the short
    # last one) of one level: at maturity and at t_{steps-1}, while the
    # other chunks of the phase go on to their sums.  It fails where it is
    # evaluated, as a driver put in place of the pass's driver_levels
    # ("driver_override"), or where its level is built, as a capital
    # profile ("capital_fn").  The pass raises that same exception once
    # every task has ended, and no pool thread outlives the pass
    chunk = 7000
    chunks = _chunked(GRID.n_paths, chunk)
    for i in (GRID.steps, GRID.steps - 1):
        for k in (0, len(chunks) // 2, len(chunks) - 1):
            target = ensemble.spots[i, chunks[k]].astype(np.float64)

            def failing(t, spot, v):
                if spot.size == target.size and np.array_equal(spot, target):
                    raise _ChunkFailure(t, k)
                return 0.0 * v

            def failing_driver(kind, times, spot, *args):
                return lambda j: functools.partial(failing, float(times[j]), spot)

            before = threading.active_count()
            with pytest.MonkeyPatch.context() as patch, \
                    mock.patch.object(fbsde, "_CHUNK", chunk), _cpus(2), \
                    pytest.raises(_ChunkFailure) as info:
                if hook == "capital_fn":
                    use_capital_profile(patch, failing)
                else:
                    patch.setattr(fbsde, "driver_levels", failing_driver)
                solve_backward(ensemble, "linear", PUT)
            assert info.value.args == (ensemble.times[i], k)
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
