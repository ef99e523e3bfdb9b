"""Command-line interface: every subcommand runs end to end at a small
budget, outputs are byte-stable CSV plus JSON metadata, failures exit
nonzero with machine-readable JSON on stderr, and the ladder/EOC helpers
behave arithmetically."""

import csv
import dataclasses
import json
import math
import re
from unittest import mock

import numpy as np
import pytest

from xvadg import cli, imex
from xvadg.cli import (COMMANDS, ConvergenceReport, ConvergenceRow, _cell,
                       _check_nested, main, run_convergence, run_sweep, run_table3,
                       write_csv)
from xvadg.config import (benchmark_config, config_from_dict, config_to_dict,
                          save_config)
from xvadg.fbsde import RegressionGrid
from xvadg.solver import xva_breakdown


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def test_no_subcommand_exits_2(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


def test_price_writes_csv_and_meta(tmp_path, capsys):
    out = tmp_path / "p"
    rc = main(["price", "--option", "put", "--cells", "40", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "price.csv")
    assert header == ["spot", "value", "delta", "gamma", "xva"]
    assert len(rows) == 40 * 2  # degree-1 nodes
    spot, value = float(rows[0][0]), float(rows[0][1])
    assert 0.0 < spot < 60.0 and value > 0.0
    meta = json.loads((out / "price.meta.json").read_text())
    assert meta["command"] == "price"
    assert meta["config"]["cells"] == 40
    assert meta["solver"]["steps"] == 7
    assert "price.csv" in meta["outputs"]
    assert "wrote" in capsys.readouterr().out


def test_price_output_is_byte_stable(tmp_path):
    args = ["price", "--option", "call", "--cells", "40"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert (a / "price.csv").read_bytes() == (b / "price.csv").read_bytes()


def test_converge_small_ladder(tmp_path, capsys):
    out = tmp_path / "c"
    rc = main(["converge", "--option", "put", "--ladder", "20,40,80",
               "--ref-cells", "160", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "converge.csv")
    assert header == ["cells", "steps", "err_l2", "eoc_l2", "err_linf", "eoc_linf"]
    assert [int(r[0]) for r in rows] == [20, 40, 80]
    assert rows[0][3] == ""  # first row has no EOC
    eoc = [float(r[3]) for r in rows[1:]]
    assert all(1.5 < e < 2.7 for e in eoc)
    assert "reference: 160" in capsys.readouterr().out


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2: no stable boundary closure for calls at "
                          "s_max, so degree-2 calls lose their order")
def test_degree_2_calls_converge():
    # the put ladder reads L2 EOCs 2.92 and 2.96; the call reads 2.74, then 0.54
    report = run_convergence(benchmark_config(option_kind="call", driver="nonlinear",
                                              degree=2),
                             ladder=(20, 40, 80), ref_cells=320)
    assert report.rows[-1].eoc_l2 >= 2.0


def test_converge_rejects_non_nested_ladder(tmp_path, capsys):
    rc = main(["converge", "--ladder", "20,30", "--ref-cells", "160",
               "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ValueError"
    assert "non-nested ladder" in err["message"]


def test_converge_rejects_a_non_integer_ladder(tmp_path, capsys):
    # a cell count of 10.7 must not be truncated to 10 and run
    rc = main(["converge", "--ladder", "10.7,20,40", "--ref-cells", "80",
               "--out", str(tmp_path / "c")])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert err["error"] == "ValueError"
    assert "10.7" in err["message"]
    assert not (tmp_path / "c" / "converge.csv").exists()


def test_missing_config_file_reports_json_error(tmp_path, capsys):
    rc = main(["price", "--config", str(tmp_path / "nope.json"),
               "--out", str(tmp_path)])
    assert rc == 1
    err = json.loads(capsys.readouterr().err)
    assert set(err) == {"error", "message"}


@pytest.mark.parametrize("config, name", [
    ('{"dividend_yield": Infinity}', "dividend_yield"),
    ('{"capital_hurdle": NaN}', "capital_hurdle"),
    ('{"collateral_rate": NaN}', "collateral_rate"),
], ids=["infinite-dividend", "nan-hurdle", "nan-collateral-rate"])
def test_non_finite_config_reports_json_error(config, name, tmp_path, capsys):
    # each once ran to exit 0: a plausible xva, or a CSV of blank cells
    path = tmp_path / "cfg.json"
    path.write_text(config)
    rc = main(["fbsde", "--config", str(path), "--strata", "80", "--paths", "4",
               "--steps", "8", "--seed", "3", "--spots", "10,15",
               "--out", str(tmp_path / "f")])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert record["message"].startswith(f"{name} must be finite")
    assert not (tmp_path / "f" / "fbsde.csv").exists()


def test_table3_without_mc(tmp_path):
    out = tmp_path / "t"
    rc = main(["table3", "--no-mc", "--cells", "160", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "table3.csv")
    assert header == ["option", "driver", "spot", "xva_pde", "xva_mc", "mc_stderr"]
    assert len(rows) == 4 * 6  # put/call x linear/nonlinear x six spots
    assert all(r[4] == "" and r[5] == "" for r in rows)
    # spot-check one anchor at this resolution
    by_key = {(r[0], r[1], float(r[2])): float(r[3]) for r in rows}
    assert by_key[("put", "linear", 15.0)] == pytest.approx(-1.395e-02, abs=3e-4)


@pytest.mark.parametrize("flags, cells", [([], 1280), (["--cells", "40"], 40),
                                          (["--config"], 80)],
                         ids=["default", "flag", "config-file"])
def test_table3_sidecar_records_the_cells_it_solved(flags, cells, tmp_path):
    # every PDE column is solved at the configuration's cells: the command's
    # default, the --cells flag, or the --config file's
    if flags == ["--config"]:
        path = tmp_path / "cfg.json"
        save_config(dataclasses.replace(benchmark_config(), cells=80), str(path))
        flags = ["--config", str(path)]
    out = tmp_path / "t"
    assert main(["table3", "--no-mc", *flags, "--out", str(out)]) == 0
    meta = json.loads((out / "table3.meta.json").read_text())
    assert meta["config"]["cells"] == cells
    assert len(meta["solver"]) == 4
    assert all(entry["cells"] == cells for entry in meta["solver"].values())


def test_table3_with_tiny_mc(tmp_path):
    out = tmp_path / "tm"
    rc = main(["table3", "--cells", "80", "--strata", "60", "--paths", "40",
               "--steps", "5", "--seed", "11", "--out", str(out)])
    assert rc == 0
    _, rows = _read_csv(out / "table3.csv")
    # every row carries a Monte Carlo estimate; the error bar can clamp to
    # zero deep in the money where the local fit is exact, but never below
    assert all(r[4] != "" and float(r[5]) >= 0.0 for r in rows)
    at_money = [r for r in rows if float(r[2]) == 15.0]
    assert all(float(r[5]) > 0.0 for r in at_money)
    meta = json.loads((out / "table3.meta.json").read_text())
    assert meta["solver"]["put_linear_mc"]["seed"] == 11
    assert meta["solver"]["put_linear_mc"]["levels_filled"] == 6
    assert meta["peak_rss_mb"] > 0.0
    # 60 strata of 40 paths fit in one block of strata: one task, one worker
    assert meta["forward"]["tasks"] == 1 and meta["forward"]["workers"] == 1
    assert meta["forward"]["runtime_seconds"] >= 0.0


def test_sweep_cli_and_labels(tmp_path):
    out = tmp_path / "s"
    rc = main(["sweep", "--param", "capital-hurdle", "--values", "0.06,0.15",
               "--cells", "80", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "sweep.csv")
    assert header == ["param", "value", "label", "spot", "xva", "delta"]
    assert len(rows) == 2 * 5
    labels = {float(r[1]): r[2] for r in rows}
    assert labels[0.06] == "no-KVA" and labels[0.15] == ""
    meta = json.loads((out / "sweep.meta.json").read_text())
    assert meta["xva_nonincreasing"] is True
    # both hurdles march as one batch; each value keeps its own solver meta
    assert meta["groups"] == [2]
    assert [m["batch_width"] for m in meta["solver"]] == [2, 2]
    assert meta["solver"][0]["implicit_solves"] == 2 * meta["solver"][0]["steps"]
    assert meta["peak_rss_mb"] > 0.0


@pytest.mark.parametrize("option_kind", ["put", "call"])
def test_the_no_kva_row_is_the_risk_free_hurdle_not_zero_capital_cost(option_kind):
    # the label sits on the hurdle equal to r; capital is off only at
    # hurdle = phi * r_B, so the labelled row's KVA is not zero but has the
    # sign of its capital coefficient r - phi * r_B
    config = benchmark_config(option_kind=option_kind, cells=20)
    sweep = run_sweep(config, "capital-hurdle")
    labelled = {value for _, value, label, *_ in sweep["rows"] if label == "no-KVA"}
    market = config.market
    assert labelled == {market.risk_free_rate}
    coefficient = (market.risk_free_rate
                   - market.capital_funding_fraction * market.issuer_funding_rate)
    assert coefficient != 0.0
    at_r = dataclasses.replace(market, capital_hurdle=market.risk_free_rate)
    kva = xva_breakdown(15.0, config.option, at_r, config.capital).kva
    assert kva != 0.0 and np.sign(kva) == np.sign(coefficient)


def test_sigma_sweep_solves_each_value_alone(tmp_path):
    out = tmp_path / "s"
    rc = main(["sweep", "--param", "sigma", "--values", "0.2,0.3",
               "--cells", "40", "--out", str(out)])
    assert rc == 0
    meta = json.loads((out / "sweep.meta.json").read_text())
    assert meta["groups"] == [1, 1]
    assert [m["batch_width"] for m in meta["solver"]] == [1, 1]


def test_fbsde_cli(tmp_path):
    out = tmp_path / "f"
    rc = main(["fbsde", "--option", "put", "--driver", "linear",
               "--strata", "60", "--paths", "50", "--steps", "5",
               "--spots", "10,15", "--seed", "2", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "fbsde.csv")
    assert header == ["spot", "xva_mc", "stderr"]
    assert [float(r[0]) for r in rows] == [10.0, 15.0]
    assert all(float(r[2]) > 0.0 for r in rows)
    meta = json.loads((out / "fbsde.meta.json").read_text())
    assert meta["mc"]["driver_evaluations"] == 10
    assert meta["mc"]["driver_points"] == 10 * 60 * 50
    assert meta["peak_rss_mb"] > 0.0
    assert meta["forward"]["tasks"] == 1 and meta["forward"]["workers"] == 1
    assert meta["forward"]["runtime_seconds"] >= 0.0


@pytest.mark.parametrize("command", ["table3", "fbsde"])
def test_monte_carlo_budget_beyond_memory_reports_json_error(command, tmp_path,
                                                             capsys):
    rc = main([command, "--strata", "100000", "--paths", "1000000",
               "--out", str(tmp_path / command)])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert "strata" in record["message"]
    assert "paths_per_stratum" in record["message"]


@pytest.mark.parametrize("config, flags, spot", [
    ({"strike": 60}, ["--option", "call", "--strata", "100", "--paths", "500",
                      "--spots", "60,120,200"], "200.0"),
    ({}, ["--strata", "20", "--paths", "50", "--spots", "nan"], "nan"),
], ids=["beyond-the-span", "nan"])
def test_fbsde_spot_outside_the_strata_reports_json_error(config, flags, spot,
                                                          tmp_path, capsys):
    # the strata span [6.74e-3, 148.4]: a spot beyond them, or not a number,
    # has no Monte Carlo value to report
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    rc = main(["fbsde", "--config", str(path), *flags, "--out", str(tmp_path / "f")])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert f"query spot {spot} lies outside the Monte Carlo strata's span" \
        in record["message"]
    assert not (tmp_path / "f" / "fbsde.csv").exists()


def test_spot_beyond_the_strata_is_refused_before_simulating(tmp_path, capsys,
                                                             monkeypatch):
    # the span check runs before the forward ensemble is simulated, in the
    # fbsde command and in the table3 runner alike
    spy = mock.Mock(wraps=cli.simulate_forward)
    monkeypatch.setattr(cli, "simulate_forward", spy)
    rc = main(["fbsde", "--strata", "20", "--paths", "10", "--steps", "2",
               "--spots", "200", "--out", str(tmp_path / "f")])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert "query spot 200.0 lies outside" in record["message"]
    with pytest.raises(ValueError, match=re.escape("query spot 200.0 lies outside")):
        run_table3(benchmark_config(), spots=(200.0,), pde_cells=40, with_mc=True,
                   grid=RegressionGrid(strata=20, paths_per_stratum=10, steps=2))
    spy.assert_not_called()


@pytest.mark.parametrize("flags", [
    ["fbsde", "--strata", "500"], ["table3", "--strata", "500"],
    ["table3", "--no-mc"]], ids=["fbsde", "table3", "table3-no-mc"])
def test_fewer_than_three_paths_are_refused_before_any_work(flags, tmp_path, capsys,
                                                            monkeypatch):
    # a line through 2 paths leaves no residual for the standard error, which
    # once failed only after the forward simulation and a backward pass
    def never(*args, **kwargs):
        raise AssertionError("Monte Carlo or PDE work before the flag check")
    for name in ("simulate_forward", "solve_backward", "solve"):
        monkeypatch.setattr(cli, name, never)
    rc = main([*flags, "--paths", "2", "--out", str(tmp_path / "o")])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "ValueError",
                      "message": "--paths must be at least 3, got 2"}


@pytest.mark.parametrize("flags", [
    ["fbsde", "--spots", ""], ["sweep", "--param", "sigma", "--values", ""],
    ["converge", "--ladder", ""]], ids=["fbsde-spots", "sweep-values", "converge-ladder"])
def test_an_explicitly_empty_list_is_refused_not_defaulted(flags, tmp_path, capsys,
                                                           monkeypatch):
    # an empty list is refused as ',' is, before any work, and never
    # replaced by the command's default list
    def never(*args, **kwargs):
        raise AssertionError("work ran on an empty list flag")
    for name in ("simulate_forward", "solve", "solve_many"):
        monkeypatch.setattr(cli, name, never)
    rc = main([*flags, "--out", str(tmp_path / "o")])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "ValueError", "message": "empty value list: ''"}
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("flags, coarsest", [
    (["--ladder", "0,10"], 0),
    (["--ladder", "1,2", "--ref-cells", "4"], 1)], ids=["zero", "one"])
def test_converge_refuses_a_rung_below_two_cells_before_any_work(flags, coarsest, tmp_path,
                                                                 capsys, monkeypatch):
    # a 0-cell rung once failed as a ZeroDivisionError in the nesting check,
    # and a 1-cell rung only after the reference was solved
    def never(*args, **kwargs):
        raise AssertionError("a solve ran on a rung below 2 cells")
    monkeypatch.setattr(cli, "solve", never)
    rc = main(["converge", *flags, "--out", str(tmp_path / "c")])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "ValueError",
                      "message": f"cells must be an integer >= 2, got {coarsest}"}
    assert not (tmp_path / "c").exists()


def test_sweep_refuses_a_repeated_value_before_any_work(tmp_path, capsys, monkeypatch):
    # the sidecar's delta_bounds is keyed by value, so a repeated value
    # once wrote its CSV rows twice while one of its bounds went missing
    def never(*args, **kwargs):
        raise AssertionError("work ran on a repeated sweep value")
    monkeypatch.setattr(cli, "solve_many", never)
    rc = main(["sweep", "--param", "capital-hurdle", "--values", "0.1,0.1,0.2",
               "--cells", "40", "--out", str(tmp_path / "s")])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "ValueError",
                      "message": "repeated capital-hurdle sweep value(s): [0.1]"}
    assert not (tmp_path / "s").exists()


def test_table3_refuses_spots_outside_the_domain_before_any_work(tmp_path, capsys,
                                                                monkeypatch):
    # strike 5 puts s_max at 20: spot 30 has no PDE value, and once it was
    # refused only after the forward simulation and a first PDE solve
    calls = []
    for name in ("simulate_forward", "solve"):
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: calls.append(_name))
    path = tmp_path / "cfg.json"
    path.write_text('{"cells": 40, "strike": 5.0}')
    rc = main(["table3", "--config", str(path), "--strata", "20", "--paths", "10",
               "--out", str(tmp_path / "t")])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert record["message"] == ("query spot 30.0 lies outside the solution "
                                 "domain [0, 20]")
    # a spot inside the domain but below the strata is refused as well
    with pytest.raises(ValueError, match="outside the Monte Carlo strata's span"):
        run_table3(benchmark_config(), spots=(0.0,), pde_cells=40,
                   grid=RegressionGrid(strata=20, paths_per_stratum=10, steps=2))
    assert calls == []
    assert not (tmp_path / "t" / "table3.csv").exists()


@pytest.mark.parametrize("entries, message", [
    ('"sigma": true', "sigma must be a number, got True"),
    ('"capital_ratio": true', "capital_ratio must be a number, got True"),
    ('"cells": 40, "strike": true', "strike must be a number, got True"),
    ('"sigma": "0.3"', "sigma must be a number, got '0.3'"),
], ids=["sigma-bool", "capital_ratio-bool", "strike-bool", "sigma-str"])
def test_price_refuses_a_bool_or_a_string_in_a_numeric_field(tmp_path, capsys, entries,
                                                             message):
    # each once ran at 1.0 (sigma 1, a 100% capital ratio, strike 1) and
    # exited 0, or stopped on an unnamed TypeError
    path = tmp_path / "cfg.json"
    path.write_text("{" + entries + "}")
    rc = main(["price", "--config", str(path), "--cells", "40",
               "--out", str(tmp_path / "p")])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "ValueError", "message": message}
    assert not (tmp_path / "p" / "price.csv").exists()


def test_price_refuses_a_march_beyond_max_steps_before_any_work(tmp_path, capsys,
                                                               monkeypatch):
    # sigma 100 at 160 cells once asked for 9,599,942 steps, and the stage
    # schedule over all of them was built before the first step
    calls = []
    monkeypatch.setattr(imex, "stage_times", lambda *a, **k: calls.append(a))
    path = tmp_path / "cfg.json"
    path.write_text('{"sigma": 100}')
    rc = main(["price", "--config", str(path), "--cells", "160",
               "--out", str(tmp_path / "p")])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert record["message"].startswith(
        f"the time grid needs 9599942 steps, more than MAX_STEPS = {imex.MAX_STEPS}")
    assert calls == []
    assert not (tmp_path / "p" / "price.csv").exists()


@pytest.mark.parametrize("argv, config, work", [
    (["breakdown", "--spot", "100"], "{}", ("xva_breakdown", "solve")),
    (["sweep", "--param", "sigma"], '{"strike": 5.0, "cells": 40}', ("solve_many",)),
], ids=["breakdown", "sweep"])
def test_breakdown_and_sweep_refuse_spots_outside_the_domain_before_any_work(
        tmp_path, capsys, monkeypatch, argv, config, work):
    # breakdown once ran the quadrature and a 640-cell solve, and sweep all
    # five solves, before the spot outside [0, s_max] raised
    calls = []
    for name in work:
        monkeypatch.setattr(cli, name, lambda *a, _name=name, **k: calls.append(_name))
    path = tmp_path / "cfg.json"
    path.write_text(config)
    rc = main(argv + ["--config", str(path), "--out", str(tmp_path / "o")])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    spot = 100.0 if argv[0] == "breakdown" else 30.0
    s_max = 60 if argv[0] == "breakdown" else 20
    assert record == {"error": "ValueError",
                      "message": f"query spot {spot} lies outside the solution "
                                 f"domain [0, {s_max}]"}
    assert calls == []
    assert not list((tmp_path / "o").glob("*.csv"))


def test_price_refuses_a_float_degree_in_the_config(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"degree": 1.0}')
    rc = main(["price", "--config", str(path), "--cells", "40",
               "--out", str(tmp_path / "p")])
    assert rc == 1
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert record["message"] == "degree must be the integer 1 or 2, got 1.0"
    assert not (tmp_path / "p" / "price.csv").exists()


def test_breakdown_cli(tmp_path):
    out = tmp_path / "b"
    rc = main(["breakdown", "--spot", "15", "--cells", "160", "--out", str(out)])
    assert rc == 0
    header, rows = _read_csv(out / "breakdown.csv")
    assert header == ["spot", "cva", "fbva", "fcva", "cra", "kva", "total",
                      "pde_xva", "abs_gap"]
    row = rows[0]
    total, pde_xva, gap = float(row[6]), float(row[7]), float(row[8])
    assert gap == pytest.approx(abs(total - pde_xva), rel=1e-12)
    assert gap < 2e-3


def test_breakdown_sidecar_records_the_driver_it_solved(tmp_path):
    # the decomposition and its PDE column are of the linear driver, whatever
    # driver the configuration file names
    path = tmp_path / "cfg.json"
    save_config(dataclasses.replace(benchmark_config(), driver="nonlinear"),
                str(path))
    out = tmp_path / "b"
    rc = main(["breakdown", "--config", str(path), "--cells", "40",
               "--out", str(out)])
    assert rc == 0
    meta = json.loads((out / "breakdown.meta.json").read_text())
    assert meta["config"]["driver"] == "linear"


def test_breakdown_outside_domain_reports_json_error(tmp_path, capsys):
    # spot 100 lies beyond s_max = 60: no PDE value exists there
    rc = main(["breakdown", "--option", "call", "--spot", "100", "--cells", "40",
               "--out", str(tmp_path / "b")])
    assert rc != 0
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "ValueError"
    assert "query spot 100.0 lies outside the solution domain" in record["message"]
    assert not (tmp_path / "b" / "breakdown.csv").exists()


def test_garcia_cli(tmp_path):
    out = tmp_path / "g"
    rc = main(["garcia-check", "--cells", "80", "--out", str(out)])
    assert rc == 0
    meta = json.loads((out / "garcia_check.meta.json").read_text())
    assert meta["scale_factor"] == pytest.approx(math.exp(-0.089601), rel=1e-6)
    assert 1e-3 < meta["max_abs_diff"] < 1e-2
    header, rows = _read_csv(out / "garcia_check.csv")
    assert header == ["spot", "reduced_xva", "scaled_reference", "abs_diff"]
    worst = max(float(r[3]) for r in rows)
    assert worst == pytest.approx(meta["max_abs_diff"], rel=1e-9)


# one small run of every subcommand, with the sidecar it writes
SIDECARS = {
    "price": (["price", "--cells", "40"], "price.meta.json"),
    "converge": (["converge", "--ladder", "20,40", "--ref-cells", "80"],
                 "converge.meta.json"),
    "table3": (["table3", "--cells", "40", "--strata", "20", "--paths", "10",
                "--steps", "2"], "table3.meta.json"),
    "sweep": (["sweep", "--param", "capital-hurdle", "--values", "0.06,0.15",
               "--cells", "40"], "sweep.meta.json"),
    "fbsde": (["fbsde", "--strata", "20", "--paths", "10", "--steps", "2"],
              "fbsde.meta.json"),
    "breakdown": (["breakdown", "--spot", "15", "--cells", "40"],
                  "breakdown.meta.json"),
    "garcia-check": (["garcia-check", "--cells", "40"], "garcia_check.meta.json"),
}


def test_every_command_has_a_sidecar_case():
    assert set(SIDECARS) == set(COMMANDS)


# (command, flag, value) for each configuration override or seed a command
# does not read: accepting one would run with exit 0 and change nothing
UNREAD_FLAGS = [
    ("converge", "--cells", "40"), ("converge", "--seed", "1"),
    ("price", "--seed", "1"),
    ("table3", "--option", "call"), ("table3", "--driver", "garcia"),
    ("sweep", "--seed", "1"),
    ("fbsde", "--cells", "7"), ("fbsde", "--degree", "2"),
    ("breakdown", "--driver", "nonlinear"), ("breakdown", "--seed", "1"),
    ("garcia-check", "--driver", "nonlinear"), ("garcia-check", "--seed", "1"),
]


@pytest.mark.parametrize("command, flag, value", UNREAD_FLAGS,
                         ids=[f"{c}{f}" for c, f, _ in UNREAD_FLAGS])
def test_a_flag_the_command_does_not_read_is_a_usage_error(command, flag, value,
                                                           tmp_path, capsys):
    argv, _ = SIDECARS[command]
    with pytest.raises(SystemExit) as exc:
        main(argv + [flag, value, "--out", str(tmp_path)])
    assert exc.value.code == 2
    assert flag in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("command", SIDECARS)
def test_every_sidecar_reports_peak_rss(command, tmp_path):
    argv, sidecar = SIDECARS[command]
    assert main(argv + ["--out", str(tmp_path)]) == 0
    meta = json.loads((tmp_path / sidecar).read_text())
    assert meta["peak_rss_mb"] > 0.0
    # the block every sidecar shares
    assert meta["command"] == command
    assert meta["outputs"] == [sidecar.replace(".meta.json", ".csv")]
    assert config_to_dict(config_from_dict(meta["config"])) == meta["config"]
    assert meta["runtime_seconds"] >= 0.0
    # the Monte Carlo passes report how their per-path work was split
    mc = {"table3": lambda m: m["solver"]["put_linear_mc"],
          "fbsde": lambda m: m["mc"]}.get(command)
    if mc is not None:
        assert mc(meta)["chunks"] == 1 and mc(meta)["workers"] == 1


def test_converge_breakdown_and_garcia_sidecars_carry_their_solves_meta(tmp_path):
    # the three commands that solve the PDE outside price, sweep and table3
    # report each solve's meta, so their step and level counts are read off
    # the sidecar as price's are
    meta = {}
    for command in ("converge", "breakdown", "garcia-check"):
        argv, sidecar = SIDECARS[command]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        meta[command] = json.loads((tmp_path / sidecar).read_text())
    converge = meta["converge"]["solver"]
    garcia = meta["garcia-check"]["solver"]
    for solve in (converge["reference"], *converge["ladder"], meta["breakdown"]["solver"],
                  garcia["reduced"], garcia["reference"]):
        for key in ("steps", "implicit_solves", "driver_evaluations", "driver_levels",
                    "cfl_number"):
            assert key in solve, (key, solve)
    header, rows = _read_csv(tmp_path / "converge.csv")
    steps = header.index("steps")
    assert [m["steps"] for m in converge["ladder"]] == [int(row[steps]) for row in rows]
    assert converge["reference"]["steps"] == meta["converge"]["ref_steps"]
    assert converge["reference"]["cells"] == 80
    assert meta["breakdown"]["solver"]["kind"] == "linear"
    assert (garcia["reduced"]["kind"], garcia["reference"]["kind"]) == ("garcia", "garcia_ref")


def test_check_nested_unit_cases():
    _check_nested((10, 20, 40), 80)
    _check_nested((16, 64), 128)
    with pytest.raises(ValueError, match="strictly increasing"):
        _check_nested((20, 10), 80)
    with pytest.raises(ValueError, match="non-nested"):
        _check_nested((10, 30), 80)      # 30 not a power-of-two multiple
    with pytest.raises(ValueError, match="non-nested"):
        _check_nested((10, 20), 20)      # reference not finer
    with pytest.raises(ValueError, match="non-nested"):
        _check_nested((10, 20), 60)      # reference not a power-of-two multiple


def test_run_convergence_eoc_arithmetic():
    # the EOC column must be exactly the log2 error ratio over the log2
    # mesh ratio of consecutive rows
    report = run_convergence(benchmark_config(option_kind="put"),
                             ladder=(20, 40), ref_cells=80)
    assert isinstance(report, ConvergenceReport)
    r0, r1 = report.rows
    assert isinstance(r0, ConvergenceRow)
    assert math.isnan(r0.eoc_l2) and math.isnan(r0.eoc_linf)
    assert r1.eoc_l2 == pytest.approx(math.log2(r0.err_l2 / r1.err_l2), rel=1e-12)
    assert r1.eoc_linf == pytest.approx(math.log2(r0.err_linf / r1.err_linf),
                                        rel=1e-12)
    table = report.text_table()
    assert "reference: 80" in table


def test_run_table3_and_sweep_programmatic():
    table = run_table3(benchmark_config(), spots=(15.0,), pde_cells=80,
                       with_mc=False)
    assert len(table["rows"]) == 4
    kinds = {(r[0], r[1]) for r in table["rows"]}
    assert kinds == {("put", "linear"), ("put", "nonlinear"),
                     ("call", "linear"), ("call", "nonlinear")}
    with pytest.raises(ValueError, match="unknown sweep parameter"):
        run_sweep(benchmark_config(), "strike")


def test_write_csv_formats(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, ["a", "b", "c", "d"],
              [(1, 0.5, None, "txt"), (2, float("nan"), True, "y")])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c,d"
    assert lines[1].startswith("1,5.") and lines[1].endswith(",txt")
    assert lines[2].split(",")[1] == ""      # NaN renders empty
    assert lines[2].split(",")[2] == "true"  # booleans lowercase


@pytest.mark.parametrize("value, text", [
    (None, ""),
    ("txt", "txt"),
    (True, "true"),
    (False, "false"),
    (np.bool_(True), "true"),
    (np.bool_(False), "false"),
    (3, "3"),
    (np.int64(-4), "-4"),
    (0.5, "5.000000000000e-01"),
    (-0.0, "-0.000000000000e+00"),
    (float("inf"), "inf"),
    (np.float64(1.0 / 3.0), "3.333333333333e-01"),
    (np.float64(-2.5e-300), "-2.500000000000e-300"),
    (np.float32(0.25), "2.500000000000e-01"),
    (float("nan"), ""),
    (np.float64("nan"), ""),
    (np.float32("nan"), ""),
])
def test_cell_formats_every_type(value, text):
    # floats take the first branch (np.float64 is a float); bools are tested
    # before ints, and other numbers go through float()
    assert _cell(value) == text
