"""Configuration validation, derived credit quantities, JSON round trip."""

import dataclasses

import numpy as np
import pytest

from xvadg.config import (CapitalParams, MarketParams, OptionSpec, RunConfig,
                          benchmark_config, config_from_dict, config_to_dict,
                          load_config, payoff, save_config)


def test_option_spec_validation():
    OptionSpec(kind="call", strike=15.0, maturity=1.0)
    with pytest.raises(ValueError):
        OptionSpec(kind="straddle")
    with pytest.raises(ValueError):
        OptionSpec(strike=0.0)
    with pytest.raises(ValueError):
        OptionSpec(maturity=-1.0)


def test_payoff_values():
    call = OptionSpec(kind="call", strike=15.0)
    put = OptionSpec(kind="put", strike=15.0)
    s = np.array([0.0, 10.0, 15.0, 25.0])
    assert np.allclose(payoff(call, s), [0.0, 0.0, 0.0, 10.0])
    assert np.allclose(payoff(put, s), [15.0, 5.0, 0.0, 0.0])


def test_market_derived_rates():
    m = MarketParams()
    # zero-basis issuer funding: r + intensity*(1-recovery)
    assert m.issuer_funding_rate == pytest.approx(0.06 + 0.00133 * 0.3, abs=1e-15)
    assert m.issuer_spread == pytest.approx(0.00133 * 0.3, abs=1e-15)
    assert m.cpty_spread == pytest.approx(0.0103 * 0.22, abs=1e-12)
    assert m.drift == pytest.approx(0.06)


def test_market_rejects_inconsistent_credit_triple():
    with pytest.raises(ValueError, match="issuer"):
        MarketParams(issuer_funding_rate=0.08)
    with pytest.raises(ValueError, match="counterparty"):
        MarketParams(cpty_bond_yield=0.2)


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(driver="magic")
    with pytest.raises(ValueError):
        RunConfig(cells=1)
    with pytest.raises(ValueError):
        RunConfig(degree=3)
    with pytest.raises(ValueError):
        RunConfig(domain_multiple=0.5)


def test_strike_off_node_warns_not_raises(caplog):
    with caplog.at_level("WARNING", logger="xvadg.config"):
        cfg = RunConfig(cells=10)  # width 6, strike 15 inside a cell
    assert cfg.cells == 10
    assert any("not a mesh node" in rec.message for rec in caplog.records)


def test_capital_defaults_are_the_regulatory_values():
    cap = CapitalParams()
    assert cap.multiplier_slope == pytest.approx(1.0 - cap.multiplier_floor)
    assert cap.supervisory_vol == pytest.approx(1.2)
    with pytest.raises(ValueError):
        CapitalParams(multiplier_floor=1.5)
    with pytest.raises(ValueError):
        CapitalParams(supervisory_vol=0.0)


def test_benchmark_config_contents():
    cfg = benchmark_config("call", driver="nonlinear", cells=80, degree=2)
    assert cfg.option.kind == "call"
    assert cfg.option.strike == 15.0
    assert cfg.option.maturity == 1.0
    assert cfg.driver == "nonlinear"
    assert cfg.cells == 80
    assert cfg.degree == 2
    assert cfg.s_max == pytest.approx(60.0)
    assert cfg.capital == CapitalParams()


def test_dict_round_trip():
    cfg = benchmark_config("call", driver="nonlinear", cells=80)
    again = config_from_dict(config_to_dict(cfg))
    assert again == cfg


def test_json_round_trip(tmp_path):
    cfg = benchmark_config("put", driver="linear", cells=40)
    path = tmp_path / "run.json"
    save_config(cfg, str(path))
    assert load_config(str(path)) == cfg


def test_config_from_dict_derives_third_member():
    # intensity omitted: derived from the bond-repo spread
    c = config_from_dict({"cpty_bond_yield": 0.0703, "cpty_repo_rate": 0.06,
                          "cpty_recovery": 0.78})
    assert c.market.cpty_intensity == pytest.approx((0.0703 - 0.06) / 0.22)
    # funding rate omitted: derived from intensity
    c = config_from_dict({"issuer_intensity": 0.002, "issuer_recovery": 0.5})
    assert c.market.issuer_funding_rate == pytest.approx(0.06 + 0.001)


def test_config_from_dict_rejects_unknown_and_inconsistent():
    with pytest.raises(ValueError, match="unknown"):
        config_from_dict({"volatility": 0.3})
    with pytest.raises(ValueError):
        config_from_dict({"cpty_bond_yield": 0.09, "cpty_repo_rate": 0.06,
                          "cpty_intensity": 0.0103})


def test_issuer_recovery_one_leaves_intensity_undetermined():
    with pytest.raises(ValueError, match="issuer_recovery"):
        config_from_dict({"issuer_recovery": 1.0, "issuer_funding_rate": 0.07})


def test_cpty_recovery_one_leaves_intensity_undetermined():
    with pytest.raises(ValueError, match="cpty_recovery"):
        config_from_dict({"cpty_recovery": 1.0, "cpty_bond_yield": 0.07,
                          "cpty_repo_rate": 0.06})


def test_config_immutable():
    cfg = benchmark_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.cells = 99
