"""Stratified regression Monte Carlo for the backward form of the pricing
equation.

The adjusted value solves a backward SDE along the stock paths: with
``dS = drift * S dt + sigma * S dW`` and the driver F of
:mod:`xvadg.drivers`, Ito's formula on the PDE solution gives

    -dY = -F(t, S_t, Y_t) dt - Z_t dW_t,      Y_T = payoff (or 0),

so marching the time grid backwards with an explicit predictor-corrector
(trapezoidal) evaluation of the driver,

    Y*  = E[ Y_{i+1} - dt * F(t_{i+1}, S_{i+1}, Y_{i+1}) | S_i ],
    Y_i = E[ Y_{i+1} - dt/2 * (F(t_{i+1}, S_{i+1}, Y_{i+1})
                               + F(t_i, S_i, Y*)) | S_i ],

with the conditional expectation replaced by a least-squares fit that is
piecewise linear in S over a log-uniform stratification of the spot axis.
The corrector matters: cost integrands here are strongly time-varying
(regulatory capital in particular peaks at valuation time and dies at
maturity), so a right-endpoint-only evaluation leaves an O(dt) quadrature
bias that is visible against the PDE at a 20-step budget; the trapezoidal
stage removes it without any per-stratum nonlinear solve.
Sampling is stratified the same way: every stratum launches its own batch
of paths from log-uniform initial points, so the time-zero regression is
supported on the whole axis and the fitted function can be read off at any
query spot, not just at a single launch point.  Paths are re-binned by
their current spot at every step (they drift across strata), and the
geometric Brownian motion is stepped exactly, so the only discretization
errors are the driver's explicit time stepping and the regression bias.

The backward pass works level by level.  Every driver splits into a part
that depends only on (t, S) (the closed-form mark and the capital on it,
or the add-on and PFE denominator of the capital stack; see
:func:`xvadg.drivers.driver_levels`) and an evaluation in Y.  The pass
builds that part, the float64 spots, their strata and offsets once per
time level t_i, uses them for the corrector of step i and, with the same
spots, for the predictor of step i-1, and then overwrites them: 21 levels
serve the 40 driver evaluations of a 20-step pass.  All per-path work runs
in cache-sized chunks of ``_CHUNK`` paths, one task per chunk on a thread
pool with one worker per available CPU that lives for one pass, in two
phases per step.  The first predicts the values at t_{i+1} from the
previous fit, evaluates the driver on them and builds the level at t_i
with the predictor's regression target and its products; the second
predicts the values at t_i, evaluates the driver on them and forms the
corrector's target and products.  scipy's ``erf`` and the capital chain
release the GIL, so the chunks run side by side.  Each of those operations
is elementwise with a scalar t, so chunk boundaries and worker count do
not change a bit.
The per-stratum sums of the fits are the one reduction: each chunk's task
ends with one ``bincount`` per product, without waiting for other chunks,
and once every task of the phase has ended the chunk rows are added in
chunk order.  The first phase sums the path count, dx, dx^2, the target g
and dx g; the second sums g and dx g, and g^2 only in the last step,
because the residual variance is read only from the time-zero fit (its
``stderr``) and the intercepts and slopes never read it.  ``_CHUNK`` fixes
the chunks, so the results do not depend on the worker count; they are not
bitwise a ``bincount`` over the whole path array.  Only that add and the
per-stratum solves between the phases are serial.  The results are those
of evaluating the driver and the moments afresh at every use and summing
them chunk by chunk, bit for bit.
A level's fit is read only at that level's own paths: the predictor at the
strata and offsets it was fitted on, the corrector in the next step's
first phase, before those are overwritten.  So a stratum that no path
reaches at some t_i > 0 keeps a zero line that nothing reads.  The
time-zero surface is read only inside the strata's span
[exp(log_lo), exp(log_hi)] and only in strata where paths started; a query
spot outside the span, or in a stratum with no paths at t = 0, raises.

The forward ensemble is simulated on a pool as well, in blocks of strata;
each stratum draws from its own stream, so the paths do not depend on the
blocking either.

This route shares with the PDE engine only :mod:`xvadg.drivers`: the
driver, the closed-form mark it computes, and whether a kind starts from
the payoff or from zero (:func:`xvadg.drivers.is_adjustment_kind`); the
discretization, the state storage and the expectation operator are all
different, which is what makes the cross-check meaningful.
"""

from __future__ import annotations

import functools
import os
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .black_scholes import bs_value
from .config import CapitalParams, MarketParams, OptionSpec, payoff
from .drivers import CapitalFn, DriverEval, driver_levels, is_adjustment_kind
# not called here; it stays a name of this module for tools that wrap the
# driver where each module looks it up (bench/tracing.py)
from .drivers import driver_value  # noqa: F401

#: paths per chunk of per-path work: a float64 temporary of 32k paths is
#: 256 KiB, so a chunk's driver chain stays in cache (16k and 64k chunks
#: ran the table3 passes slower), and the driver scratch in flight is
#: bounded by workers x chunk
_CHUNK = 1 << 15

#: float64 path-length arrays a backward pass holds at its peak, with a
#: margin of 2 or more (tracemalloc reads 6.6 at 1M paths on two workers
#: for the linear put and for the nonlinear call): the values y, the
#: driver on them, one level's strata, offsets and driver parts (one
#: array, rest(t, S), for the linear driver; two, the add-on and the PFE
#: denominator, for the nonlinear one, which sets the count); the
#: predictor's values, the second driver evaluation, the regression
#: targets and their products are chunk-local, as is the driver's
#: scratch
_BACKWARD_ARRAYS = 10

DriverFn = Callable[[float, np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RegressionGrid:
    """Stratification and path budget of the regression Monte Carlo.

    ``strata`` cells log-uniform on [exp(log_lo), exp(log_hi)], each
    launching ``paths_per_stratum`` paths from log-uniform initial spots,
    stepped on ``steps`` uniform intervals of [0, T].
    """

    strata: int = 500
    paths_per_stratum: int = 10000
    steps: int = 20
    log_lo: float = -5.0
    log_hi: float = 5.0

    def __post_init__(self) -> None:
        if self.strata < 1:
            raise ValueError(f"strata must be >= 1, got {self.strata}")
        if self.paths_per_stratum < 2:
            raise ValueError(
                f"paths_per_stratum must be >= 2, got {self.paths_per_stratum}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if not self.log_lo < self.log_hi:
            raise ValueError(
                f"need log_lo < log_hi, got {self.log_lo} >= {self.log_hi}")

    @property
    def n_paths(self) -> int:
        return self.strata * self.paths_per_stratum

    @property
    def log_edges(self) -> np.ndarray:
        return np.linspace(self.log_lo, self.log_hi, self.strata + 1)

    @property
    def centers(self) -> np.ndarray:
        """Geometric midpoints of the strata (regression is centered here)."""
        e = self.log_edges
        return np.exp(0.5 * (e[:-1] + e[1:]))

    @property
    def memory_bytes(self) -> int:
        """Estimated peak memory of a forward ensemble and one backward pass:
        float32 spots at every level plus the ``_BACKWARD_ARRAYS``
        path-length arrays of the backward pass.  The chunk-local work of
        the pass (targets, products, the driver's scratch: workers x
        ``_CHUNK`` points each) does not grow with the budget and is not
        counted."""
        return (4 * (self.steps + 1) + 8 * _BACKWARD_ARRAYS) * self.n_paths

    def stratum_of(self, spot: np.ndarray | float) -> np.ndarray:
        """Stratum index of each spot, clipped to the grid (vectorized)."""
        s = np.asarray(spot, dtype=float)
        dlog = (self.log_hi - self.log_lo) / self.strata
        x = np.floor((np.log(np.maximum(s, 1e-300)) - self.log_lo) / dlog)
        return np.clip(x, 0, self.strata - 1).astype(np.int64)

    def locate(self, spot) -> tuple[np.ndarray, np.ndarray]:
        """The query spots as floats and their strata; a spot outside the
        span [exp(log_lo), exp(log_hi)], or not finite, raises
        ``ValueError``."""
        s = np.asarray(spot, dtype=float)
        lo, hi = np.exp(self.log_lo), np.exp(self.log_hi)
        outside = ~((s >= lo) & (s <= hi))
        if np.any(outside):
            raise ValueError(f"query spot {float(s[outside][0])!r} lies outside "
                             f"the Monte Carlo strata's span [{lo:g}, {hi:g}]")
        return s, self.stratum_of(s)


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Forward ensemble: one shared set of exact GBM paths.

    ``spots`` has shape (steps+1, n_paths) and is stored in float32 (the
    full benchmark budget is 21 x 5e6 samples); slices are upcast where
    they are consumed.  The same ensemble backs any number of backward
    passes, which prices different drivers on identical noise.
    ``meta`` is the simulation's record: its wall time
    (``runtime_seconds``, to the millisecond), its pool threads
    (``workers``) and its blocks of strata (``tasks``).
    """

    grid: RegressionGrid
    market: MarketParams
    maturity: float
    seed: int
    times: np.ndarray
    spots: np.ndarray
    meta: dict


def simulate_forward(grid: RegressionGrid, market: MarketParams,
                     maturity: float, seed: int) -> PathEnsemble:
    """Simulate the stratified forward ensemble.

    Initial log-spots are uniform within each stratum; increments use the
    exact lognormal step.  Each stratum draws from its own spawned
    SeedSequence stream, so the ensemble is reproducible and strata are
    independent.  The strata run in blocks of about ``_CHUNK`` paths, one
    task per block on a thread pool with one worker per available CPU that
    lives for this call; the streams make ``spots`` the same bits at any
    blocking and worker count.  A budget whose ``grid.memory_bytes``
    exceeds the physical memory raises ``ValueError`` before anything is
    allocated.
    """
    started = time.perf_counter()
    if not maturity > 0.0:
        raise ValueError(f"maturity must be positive, got {maturity}")
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if grid.memory_bytes > physical:
        raise ValueError(
            f"a Monte Carlo budget of {grid.strata} strata x "
            f"{grid.paths_per_stratum} paths_per_stratum over {grid.steps} steps "
            f"needs about {grid.memory_bytes / 2**30:.1f} GiB, more than the "
            f"{physical / 2**30:.1f} GiB of physical memory; lower strata or "
            f"paths_per_stratum")
    times = np.linspace(0.0, maturity, grid.steps + 1)
    dt = maturity / grid.steps
    drift_term = (market.drift - 0.5 * market.sigma ** 2) * dt
    vol_term = market.sigma * np.sqrt(dt)
    edges = grid.log_edges
    pps = grid.paths_per_stratum

    spots = np.empty((grid.steps + 1, grid.n_paths), dtype=np.float32)
    streams = np.random.SeedSequence(seed).spawn(grid.strata)
    per_task = max(1, _CHUNK // pps)
    blocks = [range(lo, min(lo + per_task, grid.strata))
              for lo in range(0, grid.strata, per_task)]

    def simulate(strata: range) -> None:
        block = np.empty((grid.steps + 1, pps))
        for j in strata:
            rng = np.random.default_rng(streams[j])
            block[0] = rng.uniform(edges[j], edges[j + 1], size=pps)
            z = rng.standard_normal((grid.steps, pps))
            np.cumsum(drift_term + vol_term * z, axis=0, out=block[1:])
            block[1:] += block[0]
            spots[:, j * pps:(j + 1) * pps] = np.exp(block)

    workers = min(len(os.sched_getaffinity(0)), len(blocks))
    with ThreadPoolExecutor(workers) as pool:
        list(pool.map(simulate, blocks))
    return PathEnsemble(grid=grid, market=market, maturity=maturity,
                        seed=seed, times=times, spots=spots, meta={
                            "runtime_seconds": round(time.perf_counter() - started, 3),
                            "workers": workers, "tasks": len(blocks)})


# ---------------------------------------------------------------------------
# per-stratum least squares


@dataclass(frozen=True, eq=False)
class _StrataFit:
    """Piecewise-linear fit y ~ a + b (S - center_j), one (a, b) per stratum,
    with the first and second moments needed for prediction errors (the
    residual variance only on a fit given sum y^2, see ``_fit_strata``)."""

    intercept: np.ndarray
    slope: np.ndarray
    counts: np.ndarray
    mean_dx: np.ndarray
    sxx: np.ndarray
    resid_var: np.ndarray | None

    def predict(self, bins: np.ndarray, dx: np.ndarray) -> np.ndarray:
        """Fitted value at offsets ``dx = S - center`` in strata ``bins``."""
        return self.intercept[bins] + self.slope[bins] * dx


def _phase_sums(pool: ThreadPoolExecutor, chunks: list, task, strata: int,
                rows: int) -> np.ndarray:
    """Run ``task(k, chunk)`` for every chunk on ``pool`` and return the
    phase's ``rows`` per-stratum sums, shape (rows, strata).

    A task returns its chunk's strata and a tuple of ``rows`` weights; in
    the same pool task each becomes one ``bincount`` row of the chunk, and a
    weight of ``None`` gives the integer path count.  Once every task has
    ended, the first error in chunk order is raised, or the chunk rows are
    added in chunk order, in float64.  A count row is exact; the weighted
    sums depend on the partition into chunks, which ``_CHUNK`` fixes, and
    never on the worker count.
    """
    def run(k: int, chunk) -> list:
        bins, weights = task(k, chunk)
        return [np.bincount(bins, weights=w, minlength=strata) for w in weights]

    futures = [pool.submit(run, k, chunk) for k, chunk in enumerate(chunks)]
    wait(futures)
    sums = np.zeros((rows, strata))
    for future in futures:
        sums += future.result()
    return sums


def _linear(n, cxx):
    """Where a stratum's fit is a line, not a constant: at least 2 paths,
    with spread."""
    return (n >= 2.0) & (cxx > 1e-300)


def _residual_dof(n, cxx):
    """Residual degrees of freedom of each stratum's fit: n - 2 for a line,
    n - 1 for a constant, below 1 where the fit leaves none."""
    return np.where(_linear(n, cxx), n - 2.0, n - 1.0)


def _fit_strata(moments: tuple, sums: tuple) -> _StrataFit:
    """Ordinary least squares of y on {1, S} within each stratum.

    ``moments`` holds the regressor sums (n, sum dx, sum dx^2) of each
    stratum, with dx = S minus its stratum's center, shared by every fit
    on the same spots; ``sums`` holds the response sums (sum y, sum dx y)
    and, only where the residual variance is wanted, sum y^2 last; without
    it ``resid_var`` is ``None``, and the intercepts and slopes never read
    it.  The regressor is centered on the stratum midpoint, which
    keeps the normal equations conditioned even though a stratum spans
    only ~2% of its own scale.  A stratum with 1 path or zero spread gets
    a constant fit, and one with no paths the zero line.  The pass reads a
    fit only at the paths it was fitted on, so that zero line is never
    read inside the pass; at t = 0 the solution refuses a query in such a
    stratum.  The residual variance divides by the residual degrees of
    freedom clamped to at least 1, so a fit that leaves none (a line
    through 2 paths, a constant on 1) reads 0 there; the solution's
    ``stderr`` refuses a query in such a stratum.
    """
    n, sx, sxx_raw = moments
    sy, sxy, *syy = sums

    n_safe = np.maximum(n, 1.0)
    mean_x = sx / n_safe
    mean_y = sy / n_safe
    cxx = sxx_raw - n * mean_x * mean_x
    cxy = sxy - n * mean_x * mean_y

    linear = _linear(n, cxx)
    slope = np.where(linear, cxy / np.where(linear, cxx, 1.0), 0.0)
    intercept = mean_y - slope * mean_x
    resid_var = None
    if syy:
        cyy = np.maximum(syy[0] - n * mean_y * mean_y, 0.0)
        ssr = np.maximum(np.where(linear, cyy - slope * cxy, cyy), 0.0)
        resid_var = ssr / np.maximum(_residual_dof(n, cxx), 1.0)
    return _StrataFit(intercept=intercept, slope=slope, counts=n,
                      mean_dx=mean_x, sxx=cxx, resid_var=resid_var)


# ---------------------------------------------------------------------------
# backward pass


@dataclass(frozen=True, eq=False)
class BackwardSolution:
    """Time-zero regression surface of one backward pass.

    ``value`` evaluates the fitted conditional expectation at query spots
    in the strata's span [exp(log_lo), exp(log_hi)]; ``stderr`` its
    pointwise prediction standard error (of the regression mean, from the
    time-zero fit); ``xva`` the adjustment, i.e. value minus the
    closed-form mark for full-price kinds and the value itself for reduced
    adjustment kinds.  A spot outside the span, or not finite, or in a
    stratum that holds no path at t = 0 raises ``ValueError``: the surface
    has no paths there to extrapolate from.  Every stratum launches its
    own paths, so the last case needs float32 rounding to carry all of a
    stratum's launch spots across its edge.  ``stderr`` also raises at a
    spot whose stratum's time-zero fit leaves no residual degree of
    freedom (2 paths under a line, 1 under a constant): the fit passes
    through every path there, and its error is unknown, not 0.

    ``meta`` is the pass's record, filled as it runs: the driver kind,
    option, regression grid and ensemble seed, the driver levels built
    (``levels_filled``), the phases and path points the driver was
    evaluated on (``driver_evaluations``, ``driver_points``), the pool's
    ``workers`` and ``chunks``, and its wall time (``runtime_seconds``, to
    the millisecond).
    """

    option: OptionSpec
    market: MarketParams
    grid: RegressionGrid
    is_adjustment: bool
    fit: _StrataFit
    meta: dict

    def _locate(self, spot) -> tuple[np.ndarray, np.ndarray]:
        """The query spots as floats and their strata; a spot outside the
        strata's span, or in a stratum with no paths at t = 0, raises."""
        s, bins = self.grid.locate(spot)
        empty = self.fit.counts[bins] < 1.0
        if np.any(empty):
            raise ValueError(f"query spot {float(s[empty][0])!r} lies in a Monte "
                             f"Carlo stratum that holds no path at t = 0")
        return s, bins

    def value(self, spot: np.ndarray | float) -> np.ndarray | float:
        s, bins = self._locate(spot)
        out = self.fit.predict(bins, s - self.grid.centers[bins])
        return float(out) if np.ndim(spot) == 0 else out

    def stderr(self, spot: np.ndarray | float) -> np.ndarray | float:
        """Standard error of the fitted mean at the query spot:
        s * sqrt(1/n + (x - xbar)^2 / Sxx) from the time-zero stratum fit."""
        s, bins = self._locate(spot)
        f = self.fit
        unknown = _residual_dof(f.counts[bins], f.sxx[bins]) < 1.0
        if np.any(unknown):
            raise ValueError(f"query spot {float(s[unknown][0])!r} lies in a Monte "
                             f"Carlo stratum whose fit at t = 0 leaves no residual "
                             f"degree of freedom, so its standard error is unknown")
        dx = s - self.grid.centers[bins] - f.mean_dx[bins]
        lever = 1.0 / np.maximum(f.counts[bins], 1.0)
        sxx = f.sxx[bins]
        lever = lever + np.where(sxx > 0.0, dx * dx / np.where(sxx > 0.0, sxx, 1.0), 0.0)
        out = np.sqrt(f.resid_var[bins] * lever)
        return float(out) if np.ndim(spot) == 0 else out

    def xva(self, spot: np.ndarray | float) -> np.ndarray | float:
        value = self.value(spot)
        if self.is_adjustment:
            return value
        return value - bs_value(self.option, spot, 0.0, self.market)


def solve_backward(ensemble: PathEnsemble, kind: str, option: OptionSpec,
                   capital: CapitalParams | None = None,
                   driver_override: DriverFn | None = None,
                   capital_fn: CapitalFn | None = None) -> BackwardSolution:
    """Run one backward regression pass over a forward ensemble.

    ``driver_override(t, S, y)``, when given, replaces the driver entirely
    (the analytic test oracles use F = 0 and F = r*y); ``capital_fn``
    passes through to :func:`xvadg.drivers.driver_levels`.  Both are called
    once per chunk of paths, from the pass's pool threads, possibly side by
    side: they must be pure, elementwise functions of their arguments.
    """
    started = time.perf_counter()
    is_adjustment = is_adjustment_kind(kind)
    if abs(option.maturity - ensemble.maturity) > 1e-12:
        raise ValueError(
            f"option maturity {option.maturity} does not match the ensemble's "
            f"{ensemble.maturity}")
    market = ensemble.market
    if capital is None:
        capital = CapitalParams()
    grid = ensemble.grid
    times = ensemble.times
    dt = times[1] - times[0]
    centers = grid.centers

    n_paths = ensemble.spots.shape[1]
    chunks = [slice(lo, min(lo + _CHUNK, n_paths))
              for lo in range(0, n_paths, _CHUNK)]
    workers = min(len(os.sched_getaffinity(0)), len(chunks))
    meta = {"kind": kind, "option": option.kind, "strata": grid.strata,
            "paths_per_stratum": grid.paths_per_stratum, "steps": grid.steps,
            "seed": ensemble.seed, "levels_filled": 0, "driver_evaluations": 0,
            "driver_points": 0, "workers": workers, "chunks": len(chunks)}

    def driver_for(i: int, sl: slice) -> tuple[np.ndarray, DriverEval]:
        """The float64 spots of one chunk at t_i and the driver on them."""
        t = float(times[i])
        spot = ensemble.spots[i, sl].astype(np.float64)
        if driver_override is not None:
            return spot, functools.partial(driver_override, t, spot)
        return spot, driver_levels(kind, (t,), spot, option, market, capital,
                                   capital_fn)(0)

    # the path-length state of the pass: the values y at t_{i+1}, the driver
    # on them, and the level at t_i (strata, offsets, driver parts per chunk),
    # each overwritten in place one chunk at a time
    y = (np.zeros(n_paths) if is_adjustment
         else payoff(option, ensemble.spots[-1].astype(np.float64)))
    f_right = np.empty(n_paths)
    bins = np.empty(n_paths, dtype=np.int64)
    dx = np.empty(n_paths)
    drivers: list[DriverEval] = [None] * len(chunks)
    fit = None

    def right_and_level(k: int, sl: slice) -> tuple[np.ndarray, tuple]:
        # the values at t_{i+1} and the driver on them (the level at
        # maturity is built here, in the first step), then the level at t_i
        # over the chunk's part of the one at t_{i+1}
        if fit is None:
            driver = driver_for(grid.steps, sl)[1]
        else:
            y[sl] = fit.predict(bins[sl], dx[sl])
            driver = drivers[k]
        f_right[sl] = driver(y[sl])
        spot, drivers[k] = driver_for(i, sl)
        b = bins[sl] = grid.stratum_of(spot)
        d = dx[sl] = spot - centers[b]
        g = y[sl] - dt * f_right[sl]
        return b, (None, d, d * d, g, d * g)

    def left(k: int, sl: slice) -> tuple[np.ndarray, tuple]:
        # sum g^2 feeds only the residual variance of the time-zero fit
        b, d = bins[sl], dx[sl]
        f_left = drivers[k](fit_pred.predict(b, d))
        g = y[sl] - 0.5 * dt * (f_right[sl] + f_left)
        return b, (g, d * g) if i else (g, d * g, g * g)

    def evaluate(phase, levels: int, rows: int) -> np.ndarray:
        meta["levels_filled"] += levels
        meta["driver_evaluations"] += 1
        meta["driver_points"] += n_paths
        return _phase_sums(pool, chunks, phase, grid.strata, rows)

    with ThreadPoolExecutor(workers) as pool:
        for i in range(grid.steps - 1, -1, -1):
            count, sx, sxx_raw, *response = evaluate(
                right_and_level, 2 if fit is None else 1, 5)
            moments = (count, sx, sxx_raw)
            fit_pred = _fit_strata(moments, response)
            fit = _fit_strata(moments, evaluate(left, 0, 2 if i else 3))

    meta["runtime_seconds"] = round(time.perf_counter() - started, 3)
    return BackwardSolution(option=option, market=market, grid=grid,
                            is_adjustment=is_adjustment, fit=fit, meta=meta)
