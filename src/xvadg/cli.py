"""Command line front end.

Subcommands cover the full validation surface of the engine: single
pricing runs (``price``), self-referenced convergence ladders
(``converge``), the benchmark adjustment table with its Monte Carlo
cross-check (``table3``), parameter sensitivity sweeps (``sweep``), the
regression Monte Carlo route on its own (``fbsde``), the term-by-term
adjustment decomposition (``breakdown``) and the reduced-equation scaling
diagnostic (``garcia-check``).

Each subcommand is one entry of ``COMMANDS``: help text, CSV stem, default
driver and cells, the flags it reads and a ``run(config, args) -> Output``.
Every subcommand takes ``--config`` and ``--out``; of the configuration
overrides and ``--seed`` it takes only those it reads, so a flag that would
change nothing is a usage error.  One runner does the rest: it builds the
configuration, times the run and, only after it succeeds, writes
``<stem>.csv`` and a ``<stem>.meta.json`` sidecar into ``--out``, whose common block (``command``, ``config``, ``outputs``,
``runtime_seconds``, ``peak_rss_mb``) sits beside the command's own fields.
CSV content is byte-stable for fixed inputs and seeds (no timestamps or
runtimes in the tables; those live in the sidecar).  On failure ``main``
prints a machine-readable error record to stderr as JSON and exits nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path
from typing import Callable

import numpy as np

from .config import (DRIVER_KINDS, RunConfig, benchmark_config, config_to_dict,
                     load_config)
from .fbsde import RegressionGrid, simulate_forward, solve_backward
from .ldg import check_domain, field_error_norms
from .solver import garcia_scaling_check, sample_grid, scenario_groups, solve, \
    solve_many, xva_breakdown

#: spots reported by the benchmark table and the Monte Carlo commands
TABLE_SPOTS = (5.0, 10.0, 15.0, 20.0, 30.0, 60.0)

#: spots used for sweep monotonicity summaries (the far-out-of-the-money
#: 60 row sits at the truncation boundary and below MC resolution)
SWEEP_SPOTS = (5.0, 10.0, 15.0, 20.0, 30.0)

#: cell counts of the default convergence ladder
CONVERGENCE_LADDER = (10, 20, 40, 80, 160, 320, 640)
#: cell count of the ladder's default reference solve
_REFERENCE_CELLS = 1280

_FLOAT_FMT = "%.12e"

#: sweep parameter -> (market field, default values, label of the value
#: equal to the risk-free rate)
_SWEEPS = {
    "sigma": ("sigma", (0.05, 0.1, 0.2, 0.3, 0.4), ""),
    "capital-hurdle": ("capital_hurdle", (0.06, 0.10, 0.15, 0.20, 0.25), "no-KVA"),
    "collateral-rate": ("collateral_rate", (0.06, 0.07, 0.08, 0.09, 0.10), "no-CRA"),
}


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    # floats (np.float64 among them) first: they are nearly every cell
    if isinstance(value, float):
        return "" if value != value else _FLOAT_FMT % value
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    return "" if v != v else _FLOAT_FMT % v


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(c) for c in row) + "\n")


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (Linux reports KiB)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


@dataclasses.dataclass(frozen=True)
class Output:
    """What a command's ``run`` hands to the runner."""

    config: RunConfig  # the configuration actually solved
    header: list[str]
    rows: list[tuple]
    meta: dict  # the command's own sidecar fields
    text: str  # printed before the ``wrote`` line


# ---------------------------------------------------------------------------
# configuration assembly (file first, explicit flags override)
# ---------------------------------------------------------------------------


def _build_config(args, default_driver: str | None = None,
                  default_cells: int | None = None) -> RunConfig:
    cfg = load_config(args.config) if args.config else benchmark_config()
    option = cfg.option
    if getattr(args, "option", None):
        option = dataclasses.replace(option, kind=args.option)
    updates: dict = {"option": option}
    driver = getattr(args, "driver", None) or (None if args.config else default_driver)
    if driver:
        updates["driver"] = driver
    cells = getattr(args, "cells", None)
    if cells is None and not args.config:
        cells = default_cells
    if cells is not None:
        updates["cells"] = cells
    if getattr(args, "degree", None):
        updates["degree"] = args.degree
    return dataclasses.replace(cfg, **updates)


def _parse_values(text: str, kind=float) -> tuple:
    vals = tuple(kind(p) for p in text.replace(";", ",").split(",") if p.strip())
    if not vals:
        raise ValueError(f"empty value list: {text!r}")
    return vals


# ---------------------------------------------------------------------------
# converge
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ConvergenceRow:
    cells: int
    steps: int
    err_l2: float
    eoc_l2: float
    err_linf: float
    eoc_linf: float


@dataclasses.dataclass(frozen=True)
class ConvergenceReport:
    """Self-referenced refinement study against a fine-mesh solution."""

    rows: tuple[ConvergenceRow, ...]
    ref_cells: int
    ref_steps: int
    #: the solves' metas: {"reference": ..., "ladder": [one per rung]}
    solver_meta: dict = dataclasses.field(default_factory=dict)

    def text_table(self) -> str:
        lines = [f"{'cells':>6s} {'steps':>6s} {'err_L2':>12s} {'EOC':>6s} "
                 f"{'err_Linf':>12s} {'EOC':>6s}"]
        for r in self.rows:
            e2 = "" if np.isnan(r.eoc_l2) else f"{r.eoc_l2:6.3f}"
            ei = "" if np.isnan(r.eoc_linf) else f"{r.eoc_linf:6.3f}"
            lines.append(f"{r.cells:6d} {r.steps:6d} {r.err_l2:12.3e} {e2:>6s} "
                         f"{r.err_linf:12.3e} {ei:>6s}")
        lines.append(f"reference: {self.ref_cells} cells, {self.ref_steps} steps")
        return "\n".join(lines)


def _check_nested(ladder: tuple[int, ...], ref_cells: int) -> None:
    def pow2_multiple(n: int, base: int) -> bool:
        if n % base:
            return False
        q = n // base
        return q > 0 and (q & (q - 1)) == 0

    if sorted(ladder) != list(ladder) or len(set(ladder)) != len(ladder):
        raise ValueError(f"ladder must be strictly increasing, got {ladder}")
    coarsest = ladder[0]
    bad = [n for n in ladder if not pow2_multiple(n, coarsest)]
    if bad or not pow2_multiple(ref_cells, ladder[-1]) or ref_cells <= ladder[-1]:
        raise ValueError(
            f"non-nested ladder: every level must be a power-of-two multiple of "
            f"the coarsest and the reference ({ref_cells}) a finer power-of-two "
            f"multiple of the finest; got {ladder}")


def run_convergence(config: RunConfig,
                    ladder: tuple[int, ...] = CONVERGENCE_LADDER,
                    ref_cells: int = _REFERENCE_CELLS) -> ConvergenceReport:
    """Solve the ladder and measure errors against the fine reference.

    Both norms are taken over the coarse mesh's own quadrature nodes (the
    reference field is evaluated there through its cellwise polynomials;
    uniform meshes nest, so no interpolation enters).  EOC entries are
    log2 error ratios normalized by the mesh ratio.
    """
    ladder = tuple(int(n) for n in ladder)
    # every rung's config is built, and so checked, before any solve
    rungs = [dataclasses.replace(config, cells=n) for n in ladder]
    ref_config = dataclasses.replace(config, cells=int(ref_cells))
    _check_nested(ladder, int(ref_cells))
    reference = solve(ref_config)
    rows = []
    metas = []
    prev = None
    for n, rung in zip(ladder, rungs):
        sol = solve(rung)
        metas.append(sol.meta)
        l2, linf = field_error_norms(sol.value_field, reference.value_field)
        if prev is None:
            eoc2 = eoci = float("nan")
        else:
            scale = np.log2(n / prev[0])
            eoc2 = float(np.log2(prev[1] / l2) / scale)
            eoci = float(np.log2(prev[2] / linf) / scale)
        rows.append(ConvergenceRow(n, sol.meta["steps"], l2, eoc2, linf, eoci))
        prev = (n, l2, linf)
    return ConvergenceReport(tuple(rows), reference.meta["cells"],
                             reference.meta["steps"],
                             {"reference": reference.meta, "ladder": metas})


def _converge(config: RunConfig, args) -> Output:
    ladder = _parse_values(args.ladder, int) if args.ladder is not None else CONVERGENCE_LADDER
    report = run_convergence(config, ladder, args.ref_cells)
    return Output(config, [f.name for f in dataclasses.fields(ConvergenceRow)],
                  [dataclasses.astuple(r) for r in report.rows],
                  {"ladder": list(ladder), "ref_cells": report.ref_cells,
                   "ref_steps": report.ref_steps, "solver": report.solver_meta},
                  report.text_table())


# ---------------------------------------------------------------------------
# price
# ---------------------------------------------------------------------------


def _price(config: RunConfig, args) -> Output:
    result = solve(config)
    grid = sample_grid(result)
    rows = list(zip(grid, result.value(grid), result.delta(grid),
                    result.gamma(grid), result.xva(grid)))
    lines = [f"{config.option.kind} option, {config.driver} driver, "
             f"{config.cells} cells, degree {config.degree}",
             f"{'spot':>8s} {'value':>14s} {'xva':>14s}"]
    lines += [f"{s:8.2f} {result.value(s):14.6e} {result.xva(s):14.6e}"
              for s in TABLE_SPOTS if s <= config.s_max]
    return Output(config, ["spot", "value", "delta", "gamma", "xva"], rows,
                  {"solver": result.meta}, "\n".join(lines))


# ---------------------------------------------------------------------------
# table3
# ---------------------------------------------------------------------------


def run_table3(config: RunConfig, spots=TABLE_SPOTS, pde_cells: int = 1280,
               with_mc: bool = True, grid: RegressionGrid | None = None,
               seed: int = 0) -> dict:
    """Benchmark adjustment table: four PDE columns (put/call x linear/
    nonlinear) at the fine-mesh budget, optionally cross-checked by the
    regression Monte Carlo at its own standard budget on shared noise.

    Returns {"rows": [(option, driver, spot, xva_pde, xva_mc, stderr)],
    "meta": {...}, "forward": {...}}; Monte Carlo entries and the forward
    simulation's meta are None when ``with_mc`` is off.
    """
    combos = [(okind, drv) for okind in ("put", "call")
              for drv in ("linear", "nonlinear")]
    # refuse spots beyond the PDE domain or the strata before any work
    spots = check_domain(spots, config.s_max)
    ensemble = None
    if with_mc:
        if grid is None:
            grid = RegressionGrid()
        grid.locate(spots)
        ensemble = simulate_forward(grid, config.market,
                                    maturity=config.option.maturity, seed=seed)
    rows = []
    solver_meta = {}
    for okind, drv in combos:
        cfg = dataclasses.replace(
            config, option=dataclasses.replace(config.option, kind=okind),
            driver=drv, cells=int(pde_cells))
        result = solve(cfg)
        solver_meta[f"{okind}_{drv}"] = result.meta
        xva_pde = np.asarray(result.xva(spots))
        if ensemble is not None:
            sol = solve_backward(ensemble, drv, cfg.option, capital=cfg.capital)
            xva_mc = np.asarray(sol.xva(spots))
            stderr = np.asarray(sol.stderr(spots))
            solver_meta[f"{okind}_{drv}_mc"] = sol.meta
        else:
            xva_mc = stderr = [None] * len(spots)
        for i, s in enumerate(spots):
            rows.append((okind, drv, float(s), float(xva_pde[i]),
                         None if xva_mc[i] is None else float(xva_mc[i]),
                         None if stderr[i] is None else float(stderr[i])))
    return {"rows": rows, "meta": solver_meta,
            "forward": None if ensemble is None else ensemble.meta}


def _regression_grid(args) -> RegressionGrid:
    if args.paths < 3:  # a line through 2 paths leaves no residual for the stderr
        raise ValueError(f"--paths must be at least 3, got {args.paths}")
    return RegressionGrid(strata=args.strata, paths_per_stratum=args.paths,
                          steps=args.steps)


def _table3(config: RunConfig, args) -> Output:
    table = run_table3(config, pde_cells=config.cells, with_mc=not args.no_mc,
                       grid=_regression_grid(args), seed=args.seed)
    lines = [f"{'option':>7s} {'driver':>10s} {'spot':>6s} {'xva_pde':>13s} "
             f"{'xva_mc':>13s} {'stderr':>10s}"]
    for okind, drv, s, pde, mc, se in table["rows"]:
        mc_s = "" if mc is None else f"{mc:13.4e}"
        se_s = "" if se is None else f"{se:10.2e}"
        lines.append(f"{okind:>7s} {drv:>10s} {s:6.1f} {pde:13.4e} "
                     f"{mc_s:>13s} {se_s:>10s}")
    return Output(config, ["option", "driver", "spot", "xva_pde", "xva_mc", "mc_stderr"],
                  table["rows"], {"solver": table["meta"], "forward": table["forward"],
                                  "seed": args.seed}, "\n".join(lines))


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def run_sweep(config: RunConfig, param: str,
              values: tuple[float, ...] | None = None,
              spots=SWEEP_SPOTS) -> dict:
    """One PDE solve per parameter value; adjustment and delta at the
    sample spots, plus pointwise monotonicity summaries across values.
    The values go through one ``solve_many`` call, so the values of a
    ``capital-hurdle`` or ``collateral-rate`` sweep march as one batch;
    ``groups`` gives the batch widths and ``solver`` each value's meta.

    ``capital-hurdle`` value 0.06 is labeled the no-KVA baseline (hurdle
    equal to the risk-free rate, capital earning no excess return);
    ``collateral-rate`` value 0.06 likewise has zero collateral spread.
    """
    if param not in _SWEEPS:
        raise ValueError(f"unknown sweep parameter {param!r}; "
                         f"choose from {sorted(_SWEEPS)}")
    field, defaults, baseline = _SWEEPS[param]
    if values is None:
        values = defaults
    floats = [float(v) for v in values]
    repeated = sorted({v for v in floats if floats.count(v) > 1})
    if repeated:   # delta_bounds is keyed by value: a repeat would lose an entry
        raise ValueError(f"repeated {param} sweep value(s): {repeated}")
    spots = check_domain(spots, config.s_max)
    configs = [dataclasses.replace(config, market=dataclasses.replace(
        config.market, **{field: float(v)})) for v in values]
    results = solve_many(configs)
    rows = []
    xva_by_value = []
    delta_bounds = {}
    for v, result in zip(values, results):
        label = baseline if abs(v - config.market.risk_free_rate) < 1e-12 else ""
        xva = np.asarray(result.xva(spots))
        delta = np.asarray(result.delta(spots))
        xva_by_value.append(xva)
        nodes = sample_grid(result)
        dall = np.asarray(result.delta(nodes))
        delta_bounds[float(v)] = (float(dall.min()), float(dall.max()))
        for i, s in enumerate(spots):
            rows.append((param, float(v), label, float(s), float(xva[i]),
                         float(delta[i])))
    stack = np.vstack(xva_by_value)
    monotone = bool(np.all(np.diff(stack, axis=0) <= 1e-10))
    return {
        "rows": rows,
        "values": [float(v) for v in values],
        "xva_nonincreasing": monotone,
        "delta_bounds": delta_bounds,
        "groups": [len(g) for g in scenario_groups(configs)],
        "solver": [r.meta for r in results],
    }


def _sweep(config: RunConfig, args) -> Output:
    sweep = run_sweep(config, args.param,
                      _parse_values(args.values) if args.values is not None else None)
    rows = sweep.pop("rows")
    text = (f"sweep over {args.param}: values {sweep['values']}\n"
            f"xva pointwise nonincreasing across values: {sweep['xva_nonincreasing']}")
    return Output(config, ["param", "value", "label", "spot", "xva", "delta"], rows,
                  dict(sweep, param=args.param), text)


# ---------------------------------------------------------------------------
# fbsde
# ---------------------------------------------------------------------------


def _fbsde(config: RunConfig, args) -> Output:
    grid = _regression_grid(args)
    s = grid.locate(_parse_values(args.spots) if args.spots is not None else TABLE_SPOTS)[0]
    ensemble = simulate_forward(grid, config.market,
                                maturity=config.option.maturity, seed=args.seed)
    sol = solve_backward(ensemble, config.driver, config.option, capital=config.capital)
    rows = list(zip(s, np.asarray(sol.xva(s)), np.asarray(sol.stderr(s))))
    lines = [f"{'spot':>8s} {'xva_mc':>14s} {'stderr':>10s}"]
    lines += [f"{a:8.2f} {b:14.6e} {c:10.2e}" for a, b, c in rows]
    return Output(config, ["spot", "xva_mc", "stderr"], rows,
                  {"forward": ensemble.meta, "mc": sol.meta}, "\n".join(lines))


# ---------------------------------------------------------------------------
# breakdown
# ---------------------------------------------------------------------------


def _breakdown(config: RunConfig, args) -> Output:
    check_domain(args.spot, config.s_max)
    parts = xva_breakdown(args.spot, config.option, config.market, config.capital)
    # the decomposition is of the linear-driver adjustment
    config = dataclasses.replace(config, driver="linear")
    result = solve(config)
    pde_xva = float(result.xva(args.spot))
    gap = abs(parts.total - pde_xva)
    terms = ("cva", "fbva", "fcva", "cra", "kva")
    lines = [f"adjustment decomposition at spot {args.spot} ({config.option.kind}):"]
    lines += [f"  {name:5s} {getattr(parts, name):14.6e}" for name in terms]
    lines.append(f"  total {parts.total:14.6e}   PDE {pde_xva:14.6e}   |gap| {gap:.2e}")
    return Output(config, ["spot", *terms, "total", "pde_xva", "abs_gap"],
                  [(args.spot, *(getattr(parts, name) for name in terms),
                    parts.total, pde_xva, gap)],
                  {"spot": args.spot, "abs_gap": gap, "solver": result.meta},
                  "\n".join(lines))


# ---------------------------------------------------------------------------
# garcia-check
# ---------------------------------------------------------------------------


def _garcia_check(config: RunConfig, args) -> Output:
    config = dataclasses.replace(config, driver="garcia")
    check = garcia_scaling_check(config)
    nodes = sample_grid(check.reduced)
    lhs = np.asarray(check.lhs(nodes))
    rhs = np.asarray(check.rhs(nodes))
    text = (f"reduced-equation scaling check ({config.option.kind}, "
            f"{config.cells} cells):\n"
            f"  scale factor  {check.factor:.6f}\n"
            f"  max |lhs-rhs| {check.max_abs_diff:.6e}")
    return Output(config, ["spot", "reduced_xva", "scaled_reference", "abs_diff"],
                  list(zip(nodes, lhs, rhs, np.abs(lhs - rhs))),
                  {"scale_factor": check.factor, "max_abs_diff": check.max_abs_diff,
                   "solver": {"reduced": check.reduced.meta,
                              "reference": check.reference.meta}},
                  text)


# ---------------------------------------------------------------------------
# command table, parser and runner
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Command:
    """One subcommand: help text, CSV stem, defaults, the flags it reads
    beyond ``--config`` and ``--out``, and run."""

    help: str
    stem: str
    run: Callable[[RunConfig, argparse.Namespace], Output]
    driver: str = "linear"
    cells: int | None = None
    flags: dict = dataclasses.field(default_factory=dict)  # flag -> add_argument kwargs


#: the configuration overrides and the seed, for a command to pick from
_SHARED_FLAGS = {
    "--option": dict(choices=("call", "put"), help="contract kind (overrides config)"),
    "--driver": dict(choices=DRIVER_KINDS,
                     help="mark-to-market convention (overrides config)"),
    "--cells": dict(type=int, metavar="N", help="spatial cells (overrides config)"),
    "--degree": dict(type=int, choices=(1, 2),
                     help="local polynomial degree (overrides config)"),
    "--seed": dict(type=int, default=0, help="Monte Carlo seed (default: %(default)s)"),
}


def _listed(values) -> str:
    """A default list as its flag takes it: comma-separated numbers."""
    return ",".join(f"{v:g}" for v in values)


def _shared(*names: str) -> dict:
    return {name: _SHARED_FLAGS[name] for name in names}


_PDE_FLAGS = _shared("--option", "--driver", "--cells", "--degree")

_MC_FLAGS = {
    "--strata": dict(type=int, default=RegressionGrid.strata),
    "--paths": dict(type=int, default=RegressionGrid.paths_per_stratum,
                    help="paths per stratum (default %(default)s)"),
    "--steps": dict(type=int, default=RegressionGrid.steps),
}

COMMANDS = {
    "price": Command("one pricing run; value/delta/gamma/xva profile", "price", _price,
                     flags=_PDE_FLAGS),
    "converge": Command(
        "refinement ladder with error norms and EOC", "converge", _converge, flags={
            **_shared("--option", "--driver", "--degree"),
            "--ladder": dict(metavar="N1,N2,...",
                             help=f"cell counts (default {_listed(CONVERGENCE_LADDER)})"),
            "--ref-cells": dict(type=int, default=_REFERENCE_CELLS,
                                help="reference resolution (default %(default)s)")}),
    "table3": Command(
        "benchmark adjustment table, PDE and Monte Carlo", "table3", _table3,
        cells=1280, flags={
            **_shared("--cells", "--degree", "--seed"),
            "--no-mc": dict(action="store_true", help="skip the Monte Carlo columns"),
            **_MC_FLAGS}),
    "sweep": Command(
        "sensitivity sweep over one market parameter", "sweep", _sweep,
        driver="nonlinear", cells=320, flags={
            **_PDE_FLAGS,
            "--param": dict(required=True, choices=sorted(_SWEEPS),
                            help="parameter to sweep"),
            "--values": dict(metavar="V1,V2,...",
                             help="values (defaults depend on the parameter)")}),
    "fbsde": Command(
        "regression Monte Carlo adjustment at query spots", "fbsde", _fbsde, flags={
            **_shared("--option", "--driver", "--seed"), **_MC_FLAGS,
            "--spots": dict(metavar="S1,S2,...",
                            help=f"query spots (default {_listed(TABLE_SPOTS)})")}),
    "breakdown": Command(
        "term-by-term adjustment decomposition vs PDE", "breakdown", _breakdown,
        cells=640, flags={**_shared("--option", "--cells", "--degree"),
                          "--spot": dict(type=float, default=15.0)}),
    "garcia-check": Command("reduced-equation scaling diagnostic", "garcia_check",
                            _garcia_check, driver="garcia", cells=640,
                            flags=_shared("--option", "--cells", "--degree")),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON configuration file to start from")
    common.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default: %(default)s)")

    parser = argparse.ArgumentParser(
        prog="xvadg",
        description="XVA/KVA pricing engine: LDG-IMEX PDE solver with "
                    "Monte Carlo, analytic and quadrature cross-checks.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=command.help)
        for flag, kwargs in command.flags.items():
            p.add_argument(flag, **kwargs)
    return parser


def _run(command: Command, args) -> None:
    config = _build_config(args, command.driver, command.cells)
    started = time.perf_counter()
    output = command.run(config, args)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    csv_name = f"{command.stem}.csv"
    write_csv(out / csv_name, output.header, output.rows)
    meta = {**output.meta, "command": args.command,
            "config": config_to_dict(output.config), "outputs": [csv_name],
            "runtime_seconds": round(time.perf_counter() - started, 3),
            "peak_rss_mb": _peak_rss_mb()}
    with open(out / f"{command.stem}.meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")
    print(output.text)
    print(f"wrote {out / csv_name}")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        _run(COMMANDS[args.command], args)
    except Exception as exc:  # CLI boundary: report, don't traceback
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
