"""Tests of the benchmark itself: every workload runs at a tiny size and
passes its checks, every check rejects a perturbed output, the traced run
reports every per-layer metric and leaves the package as it found it, and
the benchmark refuses to run without the package's sources.

    python3 -m pytest bench
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
from tracing import LAYER_METRICS, Tracer
from workloads import MC_SEED, WORKLOADS

RUN = Path(run.__file__).resolve()
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = run.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(RUN), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


# ---------------------------------------------------------------------------
# the benchmark's definition


def test_spec_matches_the_code():
    # breakdown runs, but BENCHMARK.json does not gate on it (README.md)
    gated = [w for w in WORKLOADS.values() if w.name != "breakdown"]
    assert [w["name"] for w in SPEC["workloads"]] == [w.name for w in gated]
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in gated]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    layers = {k: unit for k, (unit, _, _) in LAYER_METRICS.items()}
    layers.update({"process.cpu_s": "s", "trace.op_p50_s": "s",
                   "trace.spans": "count"})
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == layers
    assert SPEC["command"] == ["python3", "bench/run.py"]


def test_closed_form_satisfies_put_call_parity():
    for spot in (1.0, 10.0, 15.0, 42.0):
        forward = spot * math.exp((checks.DRIFT - checks.RATE) * checks.MATURITY) \
            - checks.STRIKE * math.exp(-checks.RATE * checks.MATURITY)
        parity = checks.bs_price("call", spot) - checks.bs_price("put", spot)
        assert parity == pytest.approx(forward, abs=1e-12)


def test_cycle_order_follows_the_seed():
    w = WORKLOADS["price_fine"]
    labels = lambda seed: [c.label for c in w.cycle(seed)]
    assert labels(7) == labels(7)
    assert sorted(labels(7)) == sorted(labels(8))


# ---------------------------------------------------------------------------
# whole runs at the tiny size, each in a fresh process as the driver runs them


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_runs_clean_at_tiny_size(workload):
    proc = bench("--workload", workload, "--size", "tiny", "--seconds", "0",
                 "--seed", "3")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    cycle = len(WORKLOADS[workload].cycle(3, "tiny"))
    assert result["attempted"] == cycle * math.ceil(run.MIN_COMMANDS / cycle)
    assert {k: m["unit"] for k, m in result["metrics"].items()} == run.END_TO_END
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric():
    proc = bench("--workload", "mc_table", "--size", "tiny", "--seconds", "0",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] is True
    metrics = result["metrics"]
    assert [m["name"] for m in SPEC["per_layer"]] == list(metrics)
    assert metrics["fbsde.backward_passes"]["value"] == 4
    assert metrics["fbsde.path_steps"]["value"] == 4 * 20 * 200 * 250
    assert metrics["fbsde.ensemble_mb"]["value"] == pytest.approx(21 * 50000 * 4 / 1e6)
    assert metrics["solver.solves"]["value"] == 4


def test_tracer_nests_spans_and_restores_the_package():
    run.import_cli()
    import xvadg.cli
    import xvadg.ldg
    originals = (xvadg.cli.solve, xvadg.ldg.DGField.evaluate)
    tracer = Tracer()
    tracer.install()
    try:
        assert xvadg.cli.solve is not originals[0]
        with tracer.span("cli.main"):
            xvadg.cli.main(["price", "--cells", "20", "--out",
                            str(run.OUT_DIR / "test-trace")])
    finally:
        tracer.restore()
        shutil.rmtree(run.OUT_DIR / "test-trace", ignore_errors=True)
    assert (xvadg.cli.solve, xvadg.ldg.DGField.evaluate) == originals
    layers = tracer.layer_metrics(cycles=1)
    assert layers["solver.solves"] == (1.0, "count")
    assert layers["ldg.implicit_solves"][0] == 2 * layers["imex.steps"][0]
    total = tracer.spans[0][2] - tracer.spans[0][1]
    assert 0.0 < layers["cli.self_s"][0] < total


def test_a_command_that_exits_nonzero_fails_the_run(monkeypatch):
    cli = run.import_cli()
    solve = cli.solve

    def broken(config, *args, **kwargs):   # every put solve raises
        if config.option.kind == "put":
            raise RuntimeError("broken solve")
        return solve(config, *args, **kwargs)
    monkeypatch.setattr(cli, "solve", broken)
    commands = WORKLOADS["price_fine"].cycle(0, "tiny")
    scratch = run.OUT_DIR / "test-broken"
    try:
        durations, failures, _, _ = run.run_cycles(cli, commands, 0.0, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    assert failures == ["put" in c.argv for c in commands]
    done = run.outcome(durations, failures)
    assert done["correct"] is False
    assert (done["attempted"], done["failed"]) == (6, 3)
    completed = [dt for dt, bad in zip(durations, failures) if not bad]
    assert done["ops_per_s"] == 3 / sum(durations)
    assert done["op_p50_s"] == sorted(completed)[1]
    with pytest.raises(SystemExit):
        run.outcome(durations, [True] * len(durations))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "price_fine", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# ---------------------------------------------------------------------------
# every check rejects a perturbed output


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """One untouched output directory (and printed table) per tiny command."""
    cli = run.import_cli()
    made = {}
    for name in ("price_fine", "sweep_shared", "mc_table", "breakdown"):
        for cmd in WORKLOADS[name].cycle(0, "tiny"):
            out = tmp_path_factory.mktemp(cmd.argv[0])
            rc, stdout, stderr, _ = run.run_command(cli, cmd.argv, out)
            assert rc == 0, stderr
            assert cmd.check(out, stdout)[0] == []
            made[cmd.label] = (cmd, out, stdout)
    return made


def _find(outputs, *words):
    for label, entry in outputs.items():
        if all(w in label.split() for w in words):
            return entry
    raise KeyError(words)


def _copy(out: Path, tmp_path: Path) -> Path:
    dst = tmp_path / "perturbed"
    shutil.copytree(out, dst)
    return dst


def _edit_csv(path: Path, edit) -> None:
    rows = checks.read_csv(path)
    header = list(rows[0])
    for row in rows:
        edit(row)
    path.write_text(",".join(header) + "\n" + "".join(
        ",".join(str(row[h]) for h in header) + "\n" for row in rows))


def _edit_meta(path: Path, edit) -> None:
    meta = json.loads(path.read_text())
    edit(meta)
    path.write_text(json.dumps(meta))


def _shift(row, key, by):
    row[key] = repr(float(row[key]) + by)


def test_price_rejects_shifted_xva(outputs, tmp_path):
    cmd, out, stdout = _find(outputs, "put", "linear", "1")
    bad = _copy(out, tmp_path)
    _edit_csv(bad / "price.csv", lambda r: _shift(r, "xva", 1e-2))
    assert cmd.check(bad, stdout)[0]


def test_price_rejects_a_printed_value_off_the_paper(outputs):
    cmd, out, stdout = _find(outputs, "put", "nonlinear", "2")
    lines = stdout.splitlines()
    at10 = next(i for i, line in enumerate(lines) if line.split()[:1] == ["10.00"])
    spot, value, xva = lines[at10].split()
    lines[at10] = f"{spot} {value} {float(xva) + 1e-2:.6e}"
    problems = cmd.check(out, "\n".join(lines))[0]
    assert problems and "spot 10" in problems[0]


def test_price_rejects_delta_outside_the_unit_range(outputs, tmp_path):
    cmd, out, stdout = _find(outputs, "call", "nonlinear", "1")
    bad = _copy(out, tmp_path)
    _edit_csv(bad / "price.csv", lambda r: r.update(delta="1.2"))
    assert cmd.check(bad, stdout)[0]


def test_price_rejects_a_missing_sidecar(outputs, tmp_path):
    cmd, out, stdout = _find(outputs, "call", "linear", "1")
    bad = _copy(out, tmp_path)
    (bad / "price.meta.json").unlink()
    assert cmd.check(bad, stdout)[0]


def test_sweep_rejects_a_flipped_monotonicity_flag(outputs, tmp_path):
    cmd, out, stdout = _find(outputs, "capital-hurdle")
    bad = _copy(out, tmp_path)
    _edit_meta(bad / "sweep.meta.json",
               lambda m: m.update(xva_nonincreasing=False))
    assert cmd.check(bad, stdout)[0]


def test_sweep_rejects_a_rising_adjustment(outputs, tmp_path):
    cmd, out, stdout = _find(outputs, "collateral-rate")
    bad = _copy(out, tmp_path)
    _edit_csv(bad / "sweep.csv", lambda r: _shift(r, "xva", 1e-2)
              if float(r["value"]) == 0.10 else None)
    assert cmd.check(bad, stdout)[0]


def test_sweep_rejects_a_missing_label(outputs, tmp_path):
    cmd, out, stdout = _find(outputs, "capital-hurdle")
    bad = _copy(out, tmp_path)
    _edit_csv(bad / "sweep.csv", lambda r: r.update(label=""))
    assert cmd.check(bad, stdout)[0]


def test_sweep_rejects_the_paper_row_shifted(outputs, tmp_path):
    cmd, out, stdout = _find(outputs, "capital-hurdle")
    bad = _copy(out, tmp_path)
    # shift the whole table so the values stay monotone
    _edit_csv(bad / "sweep.csv", lambda r: _shift(r, "xva", 1e-2))
    problems = cmd.check(bad, stdout)[0]
    assert problems and all("capital-hurdle=0.15" in p for p in problems)


def test_table3_rejects_monte_carlo_off_the_pde(outputs, tmp_path):
    cmd, out, stdout = _find(outputs, "table3")
    bad = _copy(out, tmp_path)

    def push_out(row):   # MC lands 1.5 tolerances away from the PDE
        if float(row["spot"]) == 15.0:
            pde = float(row["xva_pde"])
            tol = max(3.0 * float(row["mc_stderr"]), 0.05 * abs(pde))
            row["xva_mc"] = repr(pde + 1.5 * tol)
    _edit_csv(bad / "table3.csv", push_out)
    problems = cmd.check(bad, stdout)[0]
    assert problems and all("spot 15.0: MC" in p for p in problems)


def test_table3_rejects_a_pde_column_off_the_paper(outputs, tmp_path):
    cmd, out, stdout = _find(outputs, "table3")
    bad = _copy(out, tmp_path)
    _edit_csv(bad / "table3.csv", lambda r: (_shift(r, "xva_pde", 1e-2),
                                             _shift(r, "xva_mc", 1e-2)))
    assert any("PDE: xva" in p for p in cmd.check(bad, stdout)[0])


def test_table3_rejects_another_seed(outputs):
    cmd, out, stdout = _find(outputs, "table3")
    assert cmd.check.keywords["seed"] == MC_SEED
    assert checks.check_table3(out, stdout, seed=MC_SEED + 1)[0]


def test_breakdown_rejects_a_wide_gap(outputs, tmp_path):
    cmd, out, stdout = _find(outputs, "put", "15")
    bad = _copy(out, tmp_path)

    def widen(row):
        _shift(row, "pde_xva", 3e-3)
        row["abs_gap"] = repr(abs(float(row["total"]) - float(row["pde_xva"])))
    _edit_csv(bad / "breakdown.csv", widen)
    assert cmd.check(bad, stdout)[0]


def test_breakdown_rejects_a_negative_cost_term(outputs, tmp_path):
    cmd, out, stdout = _find(outputs, "call", "15")
    bad = _copy(out, tmp_path)

    _edit_csv(bad / "breakdown.csv",
              lambda r: r.update(kva=repr(-float(r["kva"]))))
    problems = cmd.check(bad, stdout)[0]
    assert any("negative cost terms" in p for p in problems)


def test_breakdown_rejects_a_total_that_is_not_its_sum(outputs, tmp_path):
    cmd, out, stdout = _find(outputs, "put", "15")
    bad = _copy(out, tmp_path)
    _edit_csv(bad / "breakdown.csv", lambda r: _shift(r, "cva", 1e-6))
    assert cmd.check(bad, stdout)[0]
