"""Output checks for the benchmark's CLI commands.

Each check reads what one ``xvadg`` command wrote (its CSV, its
``.meta.json`` sidecar and the table it printed) and returns a list of
problems; an empty list accepts the output.  The references are computed
apart from the route being timed: the paper's adjustment table as frozen in
the acceptance suite, a Black-Scholes price written here with ``math.erfc``,
and properties the method must have (sweep monotonicity, nonnegative cost
terms, a decomposition that sums to its total).  Checks run outside the
timed span.

Each check also returns notes: diagnostic figures (such as the worst
Monte Carlo gap as a share of its tolerance) that the run reports on
stderr.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# The paper's adjustment table (Table 3) as frozen in
# tests/test_acceptance.py::XVA_TABLE: xva at spots 5..30 for each
# (option, driver) pair, benchmark parameters, fine mesh.
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

# Benchmark contract and market: strike 15, maturity 1, volatility 0.3,
# risk-free rate 6%, stock drift (repo minus dividend) 6%, domain [0, 60].
STRIKE = 15.0
MATURITY = 1.0
SIGMA = 0.3
RATE = 0.06
DRIFT = 0.06
S_MAX = 60.0

SWEEP_VALUES = {
    "capital-hurdle": (0.06, 0.10, 0.15, 0.20, 0.25),
    "collateral-rate": (0.06, 0.07, 0.08, 0.09, 0.10),
}
# (label of the zero-excess baseline row, value whose rows are the paper's
# put/nonlinear row: the benchmark parameter set's own value)
SWEEP_ANCHORS = {
    "capital-hurdle": ("no-KVA", 0.15),
    "collateral-rate": ("no-CRA", 0.07),
}

TABLE_TOL_ABS = 2e-3      # acceptance criterion 3: max(2e-3, 2% |ref|)
TABLE_TOL_REL = 0.02
DELTA_SLACK = 0.05        # delta may leave the unit range by this much
NODE_TOL = 1e-9           # value - xva against the closed form, per node
BREAKDOWN_GAP = 2e-3      # acceptance criterion 6
MC_SPOTS = (5.0, 10.0, 15.0, 20.0, 30.0)


def table_tolerance(ref: float) -> float:
    return max(TABLE_TOL_ABS, TABLE_TOL_REL * abs(ref))


def bs_price(kind: str, spot: float) -> float:
    """Default-free Black-Scholes value at time zero, from ``math.erfc``."""
    disc_k = STRIKE * math.exp(-RATE * MATURITY)
    growth = math.exp((DRIFT - RATE) * MATURITY)
    if spot <= 0.0:
        return 0.0 if kind == "call" else disc_k
    vol = SIGMA * math.sqrt(MATURITY)
    d1 = (math.log(spot / STRIKE) + (DRIFT + 0.5 * SIGMA ** 2) * MATURITY) / vol
    d2 = d1 - vol

    def cdf(x: float) -> float:
        return 0.5 * math.erfc(-x / math.sqrt(2.0))

    if kind == "call":
        return spot * growth * cdf(d1) - disc_k * cdf(d2)
    return disc_k * cdf(-d2) - spot * growth * cdf(-d1)


# ---------------------------------------------------------------------------
# reading outputs


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_outputs(out: Path, stem: str, command: str,
                 problems: list[str]) -> tuple[list[dict], dict] | None:
    """The CSV rows and the sidecar of one command, or None (with a problem
    recorded) when either is missing or does not name the command."""
    csv_path, meta_path = out / f"{stem}.csv", out / f"{stem}.meta.json"
    if not csv_path.is_file() or not meta_path.is_file():
        problems.append(f"missing {csv_path.name} or {meta_path.name}")
        return None
    meta = json.loads(meta_path.read_text())
    if meta.get("command") != command:
        problems.append(f"sidecar names command {meta.get('command')!r}")
    if csv_path.name not in meta.get("outputs", ()):
        problems.append(f"sidecar does not list {csv_path.name}")
    return read_csv(csv_path), meta


def printed_table(stdout: str, columns: int) -> dict[float, list[float]]:
    """Rows of a printed numeric table keyed by their first column (spot)."""
    rows = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) != columns:
            continue
        try:
            nums = [float(p) for p in parts]
        except ValueError:
            continue
        rows[nums[0]] = nums[1:]
    return rows


def compare_table(got: dict[float, float], ref: dict[int, float], what: str,
                  problems: list[str]) -> float:
    """Record spots that miss the frozen table; return the worst gap/tol."""
    worst = 0.0
    for spot, want in ref.items():
        if float(spot) not in got:
            problems.append(f"{what}: no value at spot {spot}")
            continue
        ratio = abs(got[float(spot)] - want) / table_tolerance(want)
        worst = max(worst, ratio)
        if not ratio < 1.0:
            problems.append(f"{what}: xva {got[float(spot)]:.4e} at spot {spot} "
                            f"misses the paper's {want:.4e}")
    return worst


# ---------------------------------------------------------------------------
# per-command checks


def check_price(out: Path, stdout: str, option: str, driver: str,
                cells: int, degree: int) -> tuple[list[str], dict]:
    """``price``: the printed adjustments match the paper's table, the CSV
    value minus xva is the closed-form price at every node, and delta stays
    within the unit range."""
    problems: list[str] = []
    got = read_outputs(out, "price", "price", problems)
    if got is None:
        return problems, {}
    rows, meta = got
    solver = meta.get("solver", {})
    if (solver.get("cells"), solver.get("degree")) != (cells, degree):
        problems.append(f"sidecar reports {solver.get('cells')} cells, degree "
                        f"{solver.get('degree')}; asked {cells}, {degree}")
    if len(rows) != cells * (degree + 1):
        problems.append(f"{len(rows)} CSV rows, expected {cells * (degree + 1)}")

    printed = {s: v[1] for s, v in printed_table(stdout, 3).items()}
    worst_table = compare_table(printed, XVA_TABLE[(option, driver)],
                                f"{option}/{driver} degree {degree}", problems)

    lo, hi = (-DELTA_SLACK, 1.0 + DELTA_SLACK) if option == "call" \
        else (-1.0 - DELTA_SLACK, DELTA_SLACK)
    worst_node = 0.0
    for row in rows:
        spot, value, delta, xva = (float(row[k]) for k in
                                   ("spot", "value", "delta", "xva"))
        if not (0.0 < spot < S_MAX and all(map(math.isfinite,
                                               (value, delta, xva)))):
            problems.append(f"node {row['spot']}: spot outside the domain "
                            "or a nonfinite value")
            break
        gap = abs(value - xva - bs_price(option, spot))
        worst_node = max(worst_node, gap)
        if not lo <= delta <= hi:
            problems.append(f"delta {delta:.4f} at spot {spot:.4f} leaves "
                            f"[{lo}, {hi}]")
            break
    if not worst_node <= NODE_TOL:
        problems.append(f"value - xva differs from the closed form by "
                        f"{worst_node:.2e} at some node")
    return problems, {"table_worst_ratio": worst_table,
                      "node_worst_gap": worst_node}


def check_sweep(out: Path, stdout: str, param: str) -> tuple[list[str], dict]:
    """``sweep``: the sidecar's monotonicity flag holds and the CSV agrees
    with it, the zero-excess row carries its label, and the benchmark
    parameter's rows are the paper's put/nonlinear row."""
    problems: list[str] = []
    got = read_outputs(out, "sweep", "sweep", problems)
    if got is None:
        return problems, {}
    rows, meta = got
    values = SWEEP_VALUES[param]
    if meta.get("param") != param or tuple(meta.get("values", ())) != values:
        problems.append(f"sidecar sweeps {meta.get('param')} over "
                        f"{meta.get('values')}, expected {param} over {values}")
    if meta.get("xva_nonincreasing") is not True:
        problems.append("sidecar says xva is not nonincreasing across values")

    by_value: dict[float, dict[float, float]] = {}
    labels: dict[float, str] = {}
    for row in rows:
        v = float(row["value"])
        by_value.setdefault(v, {})[float(row["spot"])] = float(row["xva"])
        labels[v] = row["label"]
    if sorted(by_value) != sorted(values):
        problems.append(f"CSV holds values {sorted(by_value)}")
        return problems, {}
    for a, b in zip(values, values[1:]):
        rising = [s for s in by_value[a] if by_value[b].get(s, -math.inf)
                  > by_value[a][s] + 1e-10]
        if rising:
            problems.append(f"xva rises from {param}={a} to {b} at spots {rising}")

    label, anchor = SWEEP_ANCHORS[param]
    if labels.get(values[0]) != label:
        problems.append(f"row {param}={values[0]} is labelled "
                        f"{labels.get(values[0])!r}, not {label!r}")
    worst = compare_table(by_value[anchor], XVA_TABLE[("put", "nonlinear")],
                          f"{param}={anchor}", problems)
    return problems, {"table_worst_ratio": worst}


def check_table3(out: Path, stdout: str, seed: int) -> tuple[list[str], dict]:
    """``table3``: Monte Carlo and PDE agree within max(3 stderr, 5% |PDE|)
    at all twenty table entries, and the PDE column is the paper's table.
    The spot-60 rows sit at the domain edge s_max, where the paper's table
    has no entry, so they are not checked."""
    problems: list[str] = []
    got = read_outputs(out, "table3", "table3", problems)
    if got is None:
        return problems, {}
    rows, meta = got
    if meta.get("seed") != seed:
        problems.append(f"sidecar seed {meta.get('seed')}, expected {seed}")
    if len(rows) != 24:
        problems.append(f"{len(rows)} CSV rows, expected 24")
    pde: dict[tuple[str, str], dict[float, float]] = {}
    worst_mc = 0.0
    for row in rows:
        spot = float(row["spot"])
        if spot not in MC_SPOTS:
            continue
        key = (row["option"], row["driver"])
        xva_pde, xva_mc, stderr = (float(row[k]) for k in
                                   ("xva_pde", "xva_mc", "mc_stderr"))
        pde.setdefault(key, {})[spot] = xva_pde
        tol = max(3.0 * stderr, 0.05 * abs(xva_pde))
        ratio = abs(xva_mc - xva_pde) / tol
        worst_mc = max(worst_mc, ratio)
        if not ratio < 1.0:
            problems.append(f"{key[0]}/{key[1]} spot {spot}: MC {xva_mc:.4e} vs "
                            f"PDE {xva_pde:.4e} is {ratio:.2f} x max(3 stderr, 5%)")
    worst_table = 0.0
    for key, ref in XVA_TABLE.items():
        worst_table = max(worst_table, compare_table(
            pde.get(key, {}), ref, f"{key[0]}/{key[1]} PDE", problems))
    return problems, {"mc_worst_ratio": worst_mc,
                      "table_worst_ratio": worst_table}


def check_breakdown(out: Path, stdout: str, spot: float) -> tuple[list[str], dict]:
    """``breakdown``: the quadrature total is the sum of its terms and lies
    within 2e-3 of the marched PDE, and the cost terms are nonnegative."""
    problems: list[str] = []
    got = read_outputs(out, "breakdown", "breakdown", problems)
    if got is None:
        return problems, {}
    rows, _ = got
    if len(rows) != 1 or float(rows[0]["spot"]) != spot:
        problems.append(f"expected one row at spot {spot}")
        return problems, {}
    r = {k: float(v) for k, v in rows[0].items()}
    total = -r["cva"] + r["fbva"] - r["fcva"] - r["cra"] - r["kva"]
    if abs(total - r["total"]) > 1e-12 * max(1.0, abs(total)):
        problems.append(f"total {r['total']:.6e} is not the sum of its terms "
                        f"({total:.6e})")
    if abs(abs(r["total"] - r["pde_xva"]) - r["abs_gap"]) > 1e-12:
        problems.append(f"abs_gap {r['abs_gap']:.3e} is not |total - pde_xva|")
    if not r["abs_gap"] < BREAKDOWN_GAP:
        problems.append(f"quadrature and PDE differ by {r['abs_gap']:.2e}")
    negative = [k for k in ("cva", "fcva", "cra", "kva") if not r[k] >= 0.0]
    if negative:
        problems.append(f"negative cost terms: {negative}")
    return problems, {"abs_gap": r["abs_gap"]}
