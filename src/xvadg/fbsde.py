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
or the SA-CCR add-on; see :func:`xvadg.drivers.driver_level`) and an
evaluation in Y.  The pass builds that part, the float64 spots, their
strata and the regressor moments once per time level t_i, uses them for
the corrector of step i and, with the same spots, for the predictor of
step i-1, and then frees them: 21 levels serve the 40 driver evaluations
of a 20-step pass.  The per-path work of a level (the float64 upcast,
the strata, the offsets and the driver parts) and every driver evaluation
run in cache-sized chunks of ``_CHUNK`` paths, one task per chunk on a
thread pool with one worker per available CPU that lives for one pass;
scipy's ``erf`` and the capital chain release the GIL, so the chunks run
side by side.  Each of those operations is elementwise with a scalar t, so
chunk boundaries and worker count do not change a bit; the ``bincount``
reductions of the fits stay serial and in path order, because their
summation order fixes the bits.  The results are those of evaluating the
driver and the moments afresh at every use, bit for bit.

This route shares with the PDE engine only the driver evaluation and the
closed-form mark; the discretization, the state storage and the
expectation operator are all different, which is what makes the
cross-check meaningful.
"""

from __future__ import annotations

import functools
import logging
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .black_scholes import bs_value
from .config import CapitalParams, MarketParams, OptionSpec, payoff
from .drivers import (ADJUSTMENT_KINDS, ALL_DRIVER_KINDS, MARK_KINDS, CapitalFn,
                      DriverEval, driver_level)
# not called here; it stays a name of this module for tools that wrap the
# driver where each module looks it up (bench/tracing.py)
from .drivers import driver_value  # noqa: F401

_log = logging.getLogger(__name__)

#: paths per chunk of per-path work: a float64 temporary of 32k paths is
#: 256 KiB, so a chunk's driver chain stays in cache (16k and 64k chunks
#: ran the table3 passes slower), and the driver scratch in flight is
#: bounded by workers x chunk
_CHUNK = 1 << 15

#: float64 path-length arrays a backward pass holds at its peak, with a
#: margin (tracemalloc reads 10 at 1M paths): the values, the predictor,
#: two driver evaluations, one level's strata, offsets and driver parts,
#: and the regression temporaries; the driver's chunk scratch is not
#: path-length
_BACKWARD_ARRAYS = 12

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
        float32 spots at every level plus the path-length arrays of the
        backward pass.  The driver's chunk scratch (workers x ``_CHUNK``
        points) does not grow with the budget and is not counted."""
        return (4 * (self.steps + 1) + 8 * _BACKWARD_ARRAYS) * self.n_paths

    def stratum_of(self, spot: np.ndarray | float) -> np.ndarray:
        """Stratum index of each spot, clipped to the grid (vectorized)."""
        s = np.asarray(spot, dtype=float)
        dlog = (self.log_hi - self.log_lo) / self.strata
        with np.errstate(divide="ignore"):
            x = np.floor((np.log(np.maximum(s, 1e-300)) - self.log_lo) / dlog)
        return np.clip(x, 0, self.strata - 1).astype(np.int64)


@dataclass(frozen=True, eq=False)
class PathEnsemble:
    """Forward ensemble: one shared set of exact GBM paths.

    ``spots`` has shape (steps+1, n_paths) and is stored in float32 (the
    full benchmark budget is 21 x 5e6 samples); slices are upcast where
    they are consumed.  The same ensemble backs any number of backward
    passes, which prices different drivers on identical noise.
    """

    grid: RegressionGrid
    market: MarketParams
    maturity: float
    seed: int
    times: np.ndarray
    spots: np.ndarray


def simulate_forward(grid: RegressionGrid, market: MarketParams,
                     maturity: float = 1.0, seed: int = 0) -> PathEnsemble:
    """Simulate the stratified forward ensemble.

    Initial log-spots are uniform within each stratum; increments use the
    exact lognormal step.  Each stratum draws from its own spawned
    SeedSequence stream, so the ensemble is reproducible and strata are
    independent.  A budget whose ``grid.memory_bytes`` exceeds the physical
    memory raises ``ValueError`` before anything is allocated.
    """
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
    block = np.empty((grid.steps + 1, pps))
    for j, stream in enumerate(streams):
        rng = np.random.default_rng(stream)
        block[0] = rng.uniform(edges[j], edges[j + 1], size=pps)
        z = rng.standard_normal((grid.steps, pps))
        np.cumsum(drift_term + vol_term * z, axis=0, out=block[1:])
        block[1:] += block[0]
        spots[:, j * pps:(j + 1) * pps] = np.exp(block)
    return PathEnsemble(grid=grid, market=market, maturity=maturity,
                        seed=seed, times=times, spots=spots)


# ---------------------------------------------------------------------------
# per-stratum least squares


@dataclass(frozen=True, eq=False)
class _StrataFit:
    """Piecewise-linear fit y ~ a + b (S - center_j), one (a, b) per stratum,
    with the first and second moments needed for prediction errors."""

    intercept: np.ndarray
    slope: np.ndarray
    counts: np.ndarray
    mean_dx: np.ndarray
    sxx: np.ndarray
    resid_var: np.ndarray

    def predict(self, bins: np.ndarray, dx: np.ndarray) -> np.ndarray:
        """Fitted value at offsets ``dx = S - center`` in strata ``bins``."""
        return self.intercept[bins] + self.slope[bins] * dx


def _moments(bins: np.ndarray, dx: np.ndarray,
             m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Regressor moments (n, sum dx, sum dx^2) of each of ``m`` strata."""
    n = np.bincount(bins, minlength=m).astype(float)
    sx = np.bincount(bins, weights=dx, minlength=m)
    sxx_raw = np.bincount(bins, weights=dx * dx, minlength=m)
    return n, sx, sxx_raw


def _fit_strata(bins: np.ndarray, dx: np.ndarray, moments: tuple, y: np.ndarray,
                grid: RegressionGrid) -> tuple[_StrataFit, int]:
    """Ordinary least squares of y on {1, S} within each stratum.

    ``dx`` is S minus its stratum's center and ``moments`` is
    ``_moments(bins, dx, grid.strata)``, shared by every fit on the same
    spots.  Accumulation runs through bincount (one pass over the paths);
    the regressor is centered on the stratum midpoint, which keeps the
    normal equations conditioned even though a stratum spans only ~2% of
    its own scale.  Strata that cannot support a line degrade gracefully:
    constant fit below 2 usable points or at zero spread, and empty strata
    borrow the nearest fitted stratum's line (re-centered), counted and
    logged by the caller.  Returns the fit and the number of borrowed strata.
    """
    m = grid.strata
    n, sx, sxx_raw = moments
    sy = np.bincount(bins, weights=y, minlength=m)
    syy = np.bincount(bins, weights=y * y, minlength=m)
    sxy = np.bincount(bins, weights=dx * y, minlength=m)

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
    resid_var = ssr / dof

    borrowed = 0
    empty = n < 1.0
    if np.any(empty):
        filled = np.flatnonzero(~empty)
        if filled.size == 0:
            raise ValueError("regression received no paths at all")
        holes = np.flatnonzero(empty)
        pos = np.searchsorted(filled, holes)
        right = filled[np.clip(pos, 0, filled.size - 1)]
        left = filled[np.clip(pos - 1, 0, filled.size - 1)]
        nearest = np.where(np.abs(right - holes) < np.abs(holes - left), right, left)
        shift = grid.centers[nearest] - grid.centers[holes]
        slope[holes] = slope[nearest]
        intercept[holes] = intercept[nearest] + slope[nearest] * shift
        mean_x[holes] = mean_x[nearest] + shift
        cxx[holes] = cxx[nearest]
        n = n.copy()
        n[holes] = n[nearest]
        resid_var[holes] = resid_var[nearest]
        borrowed = holes.size

    return _StrataFit(intercept=intercept, slope=slope, counts=n,
                      mean_dx=mean_x, sxx=cxx, resid_var=resid_var), borrowed


# ---------------------------------------------------------------------------
# backward pass


@dataclass(frozen=True, eq=False)
class BackwardSolution:
    """Time-zero regression surface of one backward pass.

    ``value`` evaluates the fitted conditional expectation at arbitrary
    query spots; ``stderr`` its pointwise prediction standard error (of
    the regression mean, from the time-zero fit); ``xva`` the adjustment,
    i.e. value minus the closed-form mark for full-price kinds and the
    value itself for reduced adjustment kinds.
    """

    kind: str
    option: OptionSpec
    market: MarketParams
    grid: RegressionGrid
    is_adjustment: bool
    fit: _StrataFit
    seed: int
    runtime: float
    borrowed_strata: int
    levels_filled: int
    driver_evaluations: int
    driver_points: int
    workers: int
    chunks: int

    def value(self, spot: np.ndarray | float) -> np.ndarray | float:
        s = np.asarray(spot, dtype=float)
        bins = self.grid.stratum_of(s)
        out = self.fit.predict(bins, s - self.grid.centers[bins])
        return float(out) if np.ndim(spot) == 0 else out

    def stderr(self, spot: np.ndarray | float) -> np.ndarray | float:
        """Standard error of the fitted mean at the query spot:
        s * sqrt(1/n + (x - xbar)^2 / Sxx) from the time-zero stratum fit."""
        s = np.asarray(spot, dtype=float)
        bins = self.grid.stratum_of(s)
        f = self.fit
        dx = s - self.grid.centers[bins] - f.mean_dx[bins]
        lever = 1.0 / np.maximum(f.counts[bins], 1.0)
        sxx = f.sxx[bins]
        lever = lever + np.where(sxx > 0.0, dx * dx / np.where(sxx > 0.0, sxx, 1.0), 0.0)
        out = np.sqrt(f.resid_var[bins] * lever)
        return float(out) if np.ndim(spot) == 0 else out

    def xva(self, spot: np.ndarray | float) -> np.ndarray | float:
        if self.is_adjustment:
            return self.value(spot)
        base = bs_value(self.option, spot, 0.0, self.market)
        return self.value(spot) - base

    @property
    def meta(self) -> dict:
        return {
            "kind": self.kind,
            "option": self.option.kind,
            "strata": self.grid.strata,
            "paths_per_stratum": self.grid.paths_per_stratum,
            "steps": self.grid.steps,
            "seed": self.seed,
            "borrowed_strata": self.borrowed_strata,
            "levels_filled": self.levels_filled,
            "driver_evaluations": self.driver_evaluations,
            "driver_points": self.driver_points,
            "workers": self.workers,
            "chunks": self.chunks,
            "runtime_seconds": round(self.runtime, 3),
        }


@dataclass(frozen=True, eq=False)
class _Level:
    """One time level of a backward pass: the driver in v on each chunk of
    paths and, below maturity, the strata of the paths, their offsets from
    the stratum centers and the regressor moments."""

    drivers: list[DriverEval]
    bins: np.ndarray | None = None
    dx: np.ndarray | None = None
    moments: tuple | None = None


def solve_backward(ensemble: PathEnsemble, kind: str, option: OptionSpec,
                   capital: CapitalParams | None = None,
                   driver_override: DriverFn | None = None,
                   capital_fn: CapitalFn | None = None) -> BackwardSolution:
    """Run one backward regression pass over a forward ensemble.

    ``driver_override(t, S, y)``, when given, replaces the driver entirely
    (the analytic test oracles use F = 0 and F = r*y); ``capital_fn``
    passes through to :func:`xvadg.drivers.driver_level`.  Both are called
    once per chunk of paths, from the pass's pool threads, possibly side by
    side: they must be pure, elementwise functions of their arguments.
    """
    started = time.perf_counter()
    if kind not in ALL_DRIVER_KINDS:
        raise ValueError(f"unknown driver kind {kind!r}")
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
    is_adjustment = kind in ADJUSTMENT_KINDS

    riskfree_fn = None
    if driver_override is None and kind in MARK_KINDS:
        riskfree_fn = lambda t, s: bs_value(option, s, t, market)

    n_paths = ensemble.spots.shape[1]
    chunks = [slice(lo, min(lo + _CHUNK, n_paths))
              for lo in range(0, n_paths, _CHUNK)]
    workers = min(len(os.sched_getaffinity(0)), len(chunks))
    counts = {"levels": 0, "evaluations": 0, "points": 0}

    def level_at(i: int) -> _Level:
        t = float(times[i])
        below = i < grid.steps
        bins = np.empty(n_paths, dtype=np.int64) if below else None
        dx = np.empty(n_paths) if below else None

        def build(sl: slice) -> DriverEval:
            spot = ensemble.spots[i, sl].astype(np.float64)
            if below:
                bins[sl] = grid.stratum_of(spot)
                dx[sl] = spot - centers[bins[sl]]
            if driver_override is not None:
                return functools.partial(driver_override, t, spot)
            return driver_level(kind, t, spot, option, market, capital,
                                riskfree_fn, capital_fn)

        drivers = list(pool.map(build, chunks))
        counts["levels"] += 1
        if not below:
            return _Level(drivers)
        return _Level(drivers, bins, dx, _moments(bins, dx, grid.strata))

    def driver_at(level: _Level, v: np.ndarray, out: np.ndarray) -> np.ndarray:
        def evaluate(sl: slice, driver: DriverEval) -> None:
            out[sl] = driver(v[sl])

        list(pool.map(evaluate, chunks, level.drivers))
        counts["evaluations"] += 1
        counts["points"] += v.size
        return out

    y = (np.zeros(n_paths) if is_adjustment
         else payoff(option, ensemble.spots[-1].astype(np.float64)))
    fit = None
    borrowed_total = 0
    f_right = np.empty_like(y)
    f_left = np.empty_like(y)
    with ThreadPoolExecutor(workers) as pool:
        level = level_at(grid.steps)
        for i in range(grid.steps - 1, -1, -1):
            driver_at(level, y, f_right)
            # free the level at t_{i+1} before building the one at t_i
            level = bins = dx = moments = None
            level = level_at(i)
            bins, dx, moments = level.bins, level.dx, level.moments
            fit_pred, borrowed = _fit_strata(bins, dx, moments, y - dt * f_right,
                                             grid)
            borrowed_total += borrowed
            y_star = fit_pred.predict(bins, dx)
            driver_at(level, y_star, f_left)
            fit, borrowed = _fit_strata(bins, dx, moments,
                                        y - 0.5 * dt * (f_right + f_left), grid)
            borrowed_total += borrowed
            y = fit.predict(bins, dx)

    if borrowed_total:
        _log.warning("backward pass (%s %s): %d empty strata borrowed a "
                     "neighbor's fit", kind, option.kind, borrowed_total)
    return BackwardSolution(kind=kind, option=option, market=market, grid=grid,
                            is_adjustment=is_adjustment, fit=fit, seed=ensemble.seed,
                            runtime=time.perf_counter() - started,
                            borrowed_strata=borrowed_total,
                            levels_filled=counts["levels"],
                            driver_evaluations=counts["evaluations"],
                            driver_points=counts["points"],
                            workers=workers, chunks=len(chunks))
