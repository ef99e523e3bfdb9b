"""Command line front end.

Subcommands cover the full validation surface of the engine: single
pricing runs (``price``), self-referenced convergence ladders
(``converge``), the benchmark adjustment table with its Monte Carlo
cross-check (``table3``), parameter sensitivity sweeps (``sweep``), the
regression Monte Carlo route on its own (``fbsde``), the term-by-term
adjustment decomposition (``breakdown``) and the reduced-equation scaling
diagnostic (``garcia-check``).

Every subcommand writes one CSV table plus a JSON metadata sidecar into
``--out``.  CSV content is byte-stable for fixed inputs and seeds (no
timestamps or runtimes in the tables; those live in the sidecar).  On
failure the process prints a machine-readable error record to stderr as
JSON and exits nonzero.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import resource
import sys
import time
from pathlib import Path

import numpy as np

from .config import (CapitalParams, MarketParams, OptionSpec, RunConfig,
                     benchmark_config, config_to_dict, load_config)
from .fbsde import RegressionGrid, simulate_forward, solve_backward
from .ldg import field_error_norms
from .solver import garcia_scaling_check, sample_grid, scenario_groups, solve, \
    solve_many, xva_breakdown

#: spots reported by the benchmark table and the Monte Carlo commands
TABLE_SPOTS = (5.0, 10.0, 15.0, 20.0, 30.0, 60.0)

#: spots used for sweep monotonicity summaries (the far-out-of-the-money
#: 60 row sits at the truncation boundary and below MC resolution)
SWEEP_SPOTS = (5.0, 10.0, 15.0, 20.0, 30.0)

_FLOAT_FMT = "%.12e"

_SWEEP_FIELDS = {
    "sigma": "sigma",
    "capital-hurdle": "capital_hurdle",
    "collateral-rate": "collateral_rate",
}

_SWEEP_DEFAULTS = {
    "sigma": (0.05, 0.1, 0.2, 0.3, 0.4),
    "capital-hurdle": (0.06, 0.10, 0.15, 0.20, 0.25),
    "collateral-rate": (0.06, 0.07, 0.08, 0.09, 0.10),
}


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, (bool, np.bool_)):
        return str(bool(value)).lower()
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    v = float(value)
    if np.isnan(v):
        return ""
    return _FLOAT_FMT % v


def write_csv(path: Path, header: list[str], rows: list[tuple]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(c) for c in row) + "\n")


def _write_meta(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (Linux reports KiB)."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


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


def _parse_floats(text: str) -> tuple[float, ...]:
    vals = tuple(float(p) for p in text.replace(";", ",").split(",") if p.strip())
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
                    ladder: tuple[int, ...] = (10, 20, 40, 80, 160, 320, 640),
                    ref_cells: int = 1280) -> ConvergenceReport:
    """Solve the ladder and measure errors against the fine reference.

    Both norms are taken over the coarse mesh's own quadrature nodes (the
    reference field is evaluated there through its cellwise polynomials;
    uniform meshes nest, so no interpolation enters).  EOC entries are
    log2 error ratios normalized by the mesh ratio.
    """
    ladder = tuple(int(n) for n in ladder)
    _check_nested(ladder, int(ref_cells))
    reference = solve(dataclasses.replace(config, cells=int(ref_cells)))
    rows = []
    prev = None
    for n in ladder:
        sol = solve(dataclasses.replace(config, cells=n))
        l2, linf = field_error_norms(sol.value_field, reference.value_field)
        if prev is None:
            eoc2 = eoci = float("nan")
        else:
            scale = np.log2(n / prev[0])
            eoc2 = float(np.log2(prev[1] / l2) / scale)
            eoci = float(np.log2(prev[2] / linf) / scale)
        rows.append(ConvergenceRow(n, sol.time_grid.steps, l2, eoc2, linf, eoci))
        prev = (n, l2, linf)
    return ConvergenceReport(tuple(rows), reference.mesh.cells,
                             reference.time_grid.steps)


def _cmd_converge(args) -> None:
    config = _build_config(args, default_driver="linear")
    ladder = _parse_floats(args.ladder) if args.ladder else (10, 20, 40, 80, 160, 320, 640)
    started = time.perf_counter()
    report = run_convergence(config, tuple(int(n) for n in ladder), args.ref_cells)
    out = _out_dir(args)
    rows = [(r.cells, r.steps, r.err_l2, r.eoc_l2, r.err_linf, r.eoc_linf)
            for r in report.rows]
    write_csv(out / "converge.csv",
              ["cells", "steps", "err_l2", "eoc_l2", "err_linf", "eoc_linf"], rows)
    _write_meta(out / "converge.meta.json", {
        "command": "converge",
        "config": config_to_dict(config),
        "ladder": list(int(n) for n in ladder),
        "ref_cells": report.ref_cells,
        "ref_steps": report.ref_steps,
        "outputs": ["converge.csv"],
        "runtime_seconds": round(time.perf_counter() - started, 3),
        "peak_rss_mb": _peak_rss_mb(),
    })
    print(report.text_table())
    print(f"wrote {out / 'converge.csv'}")


# ---------------------------------------------------------------------------
# price
# ---------------------------------------------------------------------------


def _cmd_price(args) -> None:
    config = _build_config(args, default_driver="linear")
    started = time.perf_counter()
    result = solve(config)
    grid = sample_grid(result)
    rows = list(zip(grid, result.value(grid), result.delta(grid),
                    result.gamma(grid), result.xva(grid)))
    out = _out_dir(args)
    write_csv(out / "price.csv", ["spot", "value", "delta", "gamma", "xva"], rows)
    _write_meta(out / "price.meta.json", {
        "command": "price",
        "config": config_to_dict(config),
        "solver": result.meta,
        "outputs": ["price.csv"],
        "runtime_seconds": round(time.perf_counter() - started, 3),
        "peak_rss_mb": _peak_rss_mb(),
    })
    spots = [s for s in TABLE_SPOTS if s <= config.s_max]
    print(f"{config.option.kind} option, {config.driver} driver, "
          f"{config.cells} cells, degree {config.degree}")
    print(f"{'spot':>8s} {'value':>14s} {'xva':>14s}")
    for s in spots:
        print(f"{s:8.2f} {result.value(s):14.6e} {result.xva(s):14.6e}")
    print(f"wrote {out / 'price.csv'}")


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
    "meta": {...}}; Monte Carlo entries are None when ``with_mc`` is off.
    """
    spots = np.asarray(spots, dtype=float)
    combos = [(okind, drv) for okind in ("put", "call")
              for drv in ("linear", "nonlinear")]
    ensemble = None
    if with_mc:
        if grid is None:
            grid = RegressionGrid()
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
    return {"rows": rows, "meta": solver_meta}


def _cmd_table3(args) -> None:
    config = _build_config(args, default_driver="linear")
    grid = RegressionGrid(strata=args.strata, paths_per_stratum=args.paths,
                          steps=args.steps)
    started = time.perf_counter()
    table = run_table3(config, pde_cells=args.cells or 1280,
                       with_mc=not args.no_mc, grid=grid, seed=args.seed)
    out = _out_dir(args)
    write_csv(out / "table3.csv",
              ["option", "driver", "spot", "xva_pde", "xva_mc", "mc_stderr"],
              table["rows"])
    _write_meta(out / "table3.meta.json", {
        "command": "table3",
        "config": config_to_dict(config),
        "solver": table["meta"],
        "seed": args.seed,
        "outputs": ["table3.csv"],
        "runtime_seconds": round(time.perf_counter() - started, 3),
        "peak_rss_mb": _peak_rss_mb(),
    })
    print(f"{'option':>7s} {'driver':>10s} {'spot':>6s} {'xva_pde':>13s} "
          f"{'xva_mc':>13s} {'stderr':>10s}")
    for okind, drv, s, pde, mc, se in table["rows"]:
        mc_s = "" if mc is None else f"{mc:13.4e}"
        se_s = "" if se is None else f"{se:10.2e}"
        print(f"{okind:>7s} {drv:>10s} {s:6.1f} {pde:13.4e} {mc_s:>13s} {se_s:>10s}")
    print(f"wrote {out / 'table3.csv'}")


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
    if param not in _SWEEP_FIELDS:
        raise ValueError(f"unknown sweep parameter {param!r}; "
                         f"choose from {sorted(_SWEEP_FIELDS)}")
    if values is None:
        values = _SWEEP_DEFAULTS[param]
    field = _SWEEP_FIELDS[param]
    spots = np.asarray(spots, dtype=float)
    configs = [dataclasses.replace(config, market=dataclasses.replace(
        config.market, **{field: float(v)})) for v in values]
    results = solve_many(configs)
    rows = []
    xva_by_value = []
    delta_bounds = {}
    for v, result in zip(values, results):
        label = ""
        if param == "capital-hurdle" and abs(v - config.market.risk_free_rate) < 1e-12:
            label = "no-KVA"
        if param == "collateral-rate" and abs(v - config.market.risk_free_rate) < 1e-12:
            label = "no-CRA"
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


def _cmd_sweep(args) -> None:
    config = _build_config(args, default_driver="nonlinear", default_cells=320)
    values = _parse_floats(args.values) if args.values else None
    started = time.perf_counter()
    sweep = run_sweep(config, args.param, values)
    out = _out_dir(args)
    write_csv(out / "sweep.csv",
              ["param", "value", "label", "spot", "xva", "delta"], sweep["rows"])
    _write_meta(out / "sweep.meta.json", {
        "command": "sweep",
        "config": config_to_dict(config),
        "param": args.param,
        "values": sweep["values"],
        "xva_nonincreasing": sweep["xva_nonincreasing"],
        "delta_bounds": sweep["delta_bounds"],
        "groups": sweep["groups"],
        "solver": sweep["solver"],
        "outputs": ["sweep.csv"],
        "runtime_seconds": round(time.perf_counter() - started, 3),
        "peak_rss_mb": _peak_rss_mb(),
    })
    print(f"sweep over {args.param}: values {sweep['values']}")
    print(f"xva pointwise nonincreasing across values: {sweep['xva_nonincreasing']}")
    print(f"wrote {out / 'sweep.csv'}")


# ---------------------------------------------------------------------------
# fbsde
# ---------------------------------------------------------------------------


def _cmd_fbsde(args) -> None:
    config = _build_config(args, default_driver="linear")
    grid = RegressionGrid(strata=args.strata, paths_per_stratum=args.paths,
                          steps=args.steps)
    spots = _parse_floats(args.spots) if args.spots else TABLE_SPOTS
    started = time.perf_counter()
    ensemble = simulate_forward(grid, config.market,
                                maturity=config.option.maturity, seed=args.seed)
    sol = solve_backward(ensemble, config.driver, config.option,
                         capital=config.capital)
    s = np.asarray(spots, dtype=float)
    xva = np.asarray(sol.xva(s))
    stderr = np.asarray(sol.stderr(s))
    out = _out_dir(args)
    write_csv(out / "fbsde.csv", ["spot", "xva_mc", "stderr"],
              list(zip(s, xva, stderr)))
    _write_meta(out / "fbsde.meta.json", {
        "command": "fbsde",
        "config": config_to_dict(config),
        "mc": sol.meta,
        "outputs": ["fbsde.csv"],
        "runtime_seconds": round(time.perf_counter() - started, 3),
        "peak_rss_mb": _peak_rss_mb(),
    })
    print(f"{'spot':>8s} {'xva_mc':>14s} {'stderr':>10s}")
    for i in range(s.size):
        print(f"{s[i]:8.2f} {xva[i]:14.6e} {stderr[i]:10.2e}")
    print(f"wrote {out / 'fbsde.csv'}")


# ---------------------------------------------------------------------------
# breakdown
# ---------------------------------------------------------------------------


def _cmd_breakdown(args) -> None:
    config = _build_config(args, default_driver="linear", default_cells=640)
    started = time.perf_counter()
    parts = xva_breakdown(args.spot, config.option, config.market, config.capital)
    result = solve(dataclasses.replace(config, driver="linear"))
    pde_xva = float(result.xva(args.spot))
    gap = abs(parts.total - pde_xva)
    out = _out_dir(args)
    write_csv(out / "breakdown.csv",
              ["spot", "cva", "fbva", "fcva", "cra", "kva", "total",
               "pde_xva", "abs_gap"],
              [(args.spot, parts.cva, parts.fbva, parts.fcva, parts.cra,
                parts.kva, parts.total, pde_xva, gap)])
    _write_meta(out / "breakdown.meta.json", {
        "command": "breakdown",
        "config": config_to_dict(config),
        "spot": args.spot,
        "abs_gap": gap,
        "outputs": ["breakdown.csv"],
        "runtime_seconds": round(time.perf_counter() - started, 3),
        "peak_rss_mb": _peak_rss_mb(),
    })
    print(f"adjustment decomposition at spot {args.spot} ({config.option.kind}):")
    for name in ("cva", "fbva", "fcva", "cra", "kva"):
        print(f"  {name:5s} {getattr(parts, name):14.6e}")
    print(f"  total {parts.total:14.6e}   PDE {pde_xva:14.6e}   |gap| {gap:.2e}")
    print(f"wrote {out / 'breakdown.csv'}")


# ---------------------------------------------------------------------------
# garcia-check
# ---------------------------------------------------------------------------


def _cmd_garcia(args) -> None:
    config = _build_config(args, default_driver="garcia", default_cells=640)
    config = dataclasses.replace(config, driver="garcia")
    started = time.perf_counter()
    check = garcia_scaling_check(config)
    nodes = sample_grid(check.reduced)
    lhs = np.asarray(check.lhs(nodes))
    rhs = np.asarray(check.rhs(nodes))
    out = _out_dir(args)
    write_csv(out / "garcia_check.csv",
              ["spot", "reduced_xva", "scaled_reference", "abs_diff"],
              list(zip(nodes, lhs, rhs, np.abs(lhs - rhs))))
    _write_meta(out / "garcia_check.meta.json", {
        "command": "garcia-check",
        "config": config_to_dict(config),
        "scale_factor": check.factor,
        "max_abs_diff": check.max_abs_diff,
        "outputs": ["garcia_check.csv"],
        "runtime_seconds": round(time.perf_counter() - started, 3),
        "peak_rss_mb": _peak_rss_mb(),
    })
    print(f"reduced-equation scaling check ({config.option.kind}, "
          f"{config.cells} cells):")
    print(f"  scale factor  {check.factor:.6f}")
    print(f"  max |lhs-rhs| {check.max_abs_diff:.6e}")
    print(f"wrote {out / 'garcia_check.csv'}")


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="JSON configuration file to start from")
    common.add_argument("--option", choices=("call", "put"),
                        help="contract kind (overrides config)")
    common.add_argument("--driver", choices=("linear", "nonlinear", "garcia"),
                        help="mark-to-market convention (overrides config)")
    common.add_argument("--cells", type=int, metavar="N",
                        help="spatial cells (overrides config)")
    common.add_argument("--degree", type=int, choices=(1, 2),
                        help="local polynomial degree (overrides config)")
    common.add_argument("--out", metavar="DIR", default="out",
                        help="output directory (default: ./out)")
    common.add_argument("--seed", type=int, default=0,
                        help="Monte Carlo seed (default: 0)")

    parser = argparse.ArgumentParser(
        prog="xvadg",
        description="XVA/KVA pricing engine: LDG-IMEX PDE solver with "
                    "Monte Carlo, analytic and quadrature cross-checks.")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("price", parents=[common],
                       help="one pricing run; value/delta/gamma/xva profile")
    p.set_defaults(handler=_cmd_price)

    p = sub.add_parser("converge", parents=[common],
                       help="refinement ladder with error norms and EOC")
    p.add_argument("--ladder", metavar="N1,N2,...",
                   help="cell counts (default 10,20,...,640)")
    p.add_argument("--ref-cells", type=int, default=1280,
                   help="reference resolution (default 1280)")
    p.set_defaults(handler=_cmd_converge)

    p = sub.add_parser("table3", parents=[common],
                       help="benchmark adjustment table, PDE and Monte Carlo")
    p.add_argument("--no-mc", action="store_true",
                   help="skip the Monte Carlo columns")
    p.add_argument("--strata", type=int, default=500)
    p.add_argument("--paths", type=int, default=10000,
                   help="paths per stratum (default 10000)")
    p.add_argument("--steps", type=int, default=20)
    p.set_defaults(handler=_cmd_table3)

    p = sub.add_parser("sweep", parents=[common],
                       help="sensitivity sweep over one market parameter")
    p.add_argument("--param", required=True, choices=sorted(_SWEEP_FIELDS),
                   help="parameter to sweep")
    p.add_argument("--values", metavar="V1,V2,...",
                   help="values (defaults depend on the parameter)")
    p.set_defaults(handler=_cmd_sweep)

    p = sub.add_parser("fbsde", parents=[common],
                       help="regression Monte Carlo adjustment at query spots")
    p.add_argument("--strata", type=int, default=500)
    p.add_argument("--paths", type=int, default=10000,
                   help="paths per stratum (default 10000)")
    p.add_argument("--steps", type=int, default=20)
    p.add_argument("--spots", metavar="S1,S2,...",
                   help="query spots (default 5,10,15,20,30,60)")
    p.set_defaults(handler=_cmd_fbsde)

    p = sub.add_parser("breakdown", parents=[common],
                       help="term-by-term adjustment decomposition vs PDE")
    p.add_argument("--spot", type=float, default=15.0)
    p.set_defaults(handler=_cmd_breakdown)

    p = sub.add_parser("garcia-check", parents=[common],
                       help="reduced-equation scaling diagnostic")
    p.set_defaults(handler=_cmd_garcia)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = getattr(args, "handler", None)
    if handler is None:
        parser.print_help()
        return 2
    try:
        handler(args)
    except Exception as exc:  # CLI boundary: report, don't traceback
        record = {"error": type(exc).__name__, "message": str(exc)}
        print(json.dumps(record), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
