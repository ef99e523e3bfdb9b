"""Configuration validation, derived credit quantities, JSON round trip."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from xvadg.config import (CapitalParams, MarketParams, OptionSpec, RunConfig,
                          benchmark_config, config_from_dict, config_to_dict,
                          load_config, payoff, save_config)
from xvadg.solver import solve_many


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


def test_inconsistent_triple_message_names_its_fields():
    # MarketParams checks members, it never derives them
    with pytest.raises(ValueError, match="issuer_funding_rate - risk_free_rate"):
        MarketParams(issuer_funding_rate=0.08)
    with pytest.raises(ValueError, match="cpty_bond_yield - cpty_repo_rate"):
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


_NUMERIC_FIELDS = [(cls, f.name) for cls in (OptionSpec, MarketParams, CapitalParams, RunConfig)
                   for f in dataclasses.fields(cls) if isinstance(f.default, (int, float))]


@pytest.mark.parametrize("cls, name", _NUMERIC_FIELDS,
                         ids=[f"{cls.__name__}.{name}" for cls, name in _NUMERIC_FIELDS])
def test_every_numeric_field_refuses_a_non_finite_value(cls, name):
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            dataclasses.replace(cls(), **{name: bad})


def test_batched_fields_take_finite_arrays():
    # solve_many marches a group with (B,) arrays in the batched market fields
    base = benchmark_config(cells=8)
    configs = [dataclasses.replace(base, market=dataclasses.replace(base.market,
                                                                    capital_hurdle=h))
               for h in (0.06, 0.25)]
    results = solve_many(configs)
    assert results[0].meta["batch_width"] == 2
    assert all(np.isfinite(r.xva(15.0)) for r in results)
    with pytest.raises(ValueError, match="^collateral_rate must be finite"):
        dataclasses.replace(base.market, collateral_rate=np.array([0.07, np.nan]))


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


_RATE = st.floats(0.0, 0.2)
_UNIT = st.floats(0.0, 1.0)


@st.composite
def _configs(draw):
    """Valid run configurations, credit triples consistent by construction."""
    rate, issuer_int, issuer_rec = draw(_RATE), draw(_RATE), draw(_UNIT)
    repo, cpty_int, cpty_rec = draw(_RATE), draw(_RATE), draw(_UNIT)
    market = MarketParams(
        sigma=draw(st.floats(0.01, 2.0)), risk_free_rate=rate,
        stock_repo_rate=draw(_RATE), dividend_yield=draw(_RATE),
        issuer_funding_rate=rate + issuer_int * (1.0 - issuer_rec),
        issuer_intensity=issuer_int, issuer_recovery=issuer_rec,
        cpty_bond_yield=repo + cpty_int * (1.0 - cpty_rec), cpty_repo_rate=repo,
        cpty_intensity=cpty_int, cpty_recovery=cpty_rec,
        collateral_rate=draw(_RATE), collateral_fraction=draw(_UNIT),
        capital_hurdle=draw(_RATE), capital_funding_fraction=draw(_UNIT))
    capital = CapitalParams(
        capital_ratio=draw(st.floats(0.01, 1.0)),
        multiplier_floor=draw(st.floats(0.01, 0.99)),
        supervisory_vol=draw(st.floats(0.1, 2.0)),
        addon_days=draw(st.floats(0.0, 30.0)))
    option = OptionSpec(kind=draw(st.sampled_from(["call", "put"])),
                        strike=draw(st.floats(1.0, 200.0)),
                        maturity=draw(st.floats(0.05, 5.0)))
    return RunConfig(option=option, market=market, capital=capital,
                     driver=draw(st.sampled_from(["linear", "nonlinear", "garcia"])),
                     domain_multiple=draw(st.floats(1.5, 8.0)),
                     cells=draw(st.integers(2, 2000)),
                     degree=draw(st.sampled_from([1, 2])),
                     cfl_constant=draw(st.floats(0.05, 2.0)))


@given(config=_configs())
def test_dict_round_trip_over_valid_configs(config):
    assert config_from_dict(config_to_dict(config)) == config


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


# each credit key with the companions under which the derivation would
# otherwise spread its non-finite value to another member, or stop on a
# recovery of 1, before any check named the key
_NONFINITE_CREDIT_CASES = {
    "risk_free_rate": {"issuer_funding_rate": 0.07, "issuer_recovery": 1.0},
    "issuer_funding_rate": {"issuer_recovery": 1.0},
    "issuer_intensity": {},
    "issuer_recovery": {},
    "cpty_bond_yield": {"cpty_repo_rate": 0.06, "cpty_recovery": 1.0},
    "cpty_repo_rate": {},
    "cpty_intensity": {},
    "cpty_recovery": {},
}


@pytest.mark.parametrize("key", _NONFINITE_CREDIT_CASES)
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_credit_key_is_named_before_derivation(key, bad):
    data = {key: bad, **_NONFINITE_CREDIT_CASES[key]}
    with pytest.raises(ValueError, match=f"^{key} must be finite, got {bad!r}$"):
        config_from_dict(data)


def test_config_immutable():
    cfg = benchmark_config()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.cells = 99


# ---------------------------------------------------------------------------
# the credit-triple rule over every subset of the credit keys
# ---------------------------------------------------------------------------

_CREDIT_KEYS = ("risk_free_rate", "issuer_funding_rate", "issuer_intensity",
                "issuer_recovery", "cpty_bond_yield", "cpty_repo_rate",
                "cpty_intensity", "cpty_recovery")
_TRIPLE_FIELDS = (("issuer_funding_rate", "risk_free_rate", "issuer"),
                  ("cpty_bond_yield", "cpty_repo_rate", "cpty"))


def _reference_loss_rate(recovery, prefix):
    if recovery == 1.0:
        raise ValueError(
            f"{prefix}_recovery = 1 leaves {prefix}_intensity undetermined "
            f"by the spread; give {prefix}_intensity explicitly")
    return 1.0 - recovery


def _reference_derive_issuer(d, base):
    """The issuer derivation as it stood before the one-table rule."""
    r = d.get("risk_free_rate", base["risk_free_rate"])
    rec = d.get("issuer_recovery", base["issuer_recovery"])
    have_rate = "issuer_funding_rate" in d
    have_int = "issuer_intensity" in d
    if have_rate and not have_int:
        d["issuer_intensity"] = (d["issuer_funding_rate"] - r) \
            / _reference_loss_rate(rec, "issuer")
    elif not have_rate:
        lam = d.get("issuer_intensity", base["issuer_intensity"])
        d["issuer_intensity"] = lam
        d["issuer_funding_rate"] = r + lam * (1.0 - rec)


def _reference_derive_cpty(d, base):
    """The counterparty derivation as it stood before the one-table rule."""
    r = d.get("risk_free_rate", base["risk_free_rate"])
    rec = d.get("cpty_recovery", base["cpty_recovery"])
    have_bond = "cpty_bond_yield" in d
    have_repo = "cpty_repo_rate" in d
    have_int = "cpty_intensity" in d
    if have_bond and have_repo and not have_int:
        d["cpty_intensity"] = (d["cpty_bond_yield"] - d["cpty_repo_rate"]) \
            / _reference_loss_rate(rec, "cpty")
        return
    if have_bond and have_repo and have_int:
        return
    lam = d.get("cpty_intensity", base["cpty_intensity"])
    d["cpty_intensity"] = lam
    if have_repo:
        d["cpty_bond_yield"] = d["cpty_repo_rate"] + lam * (1.0 - rec)
    elif have_bond:
        d["cpty_repo_rate"] = d["cpty_bond_yield"] - lam * (1.0 - rec)
    else:
        d["cpty_repo_rate"] = r
        d["cpty_bond_yield"] = r + lam * (1.0 - rec)


def _reference_market(data):
    base = {f.name: f.default for f in dataclasses.fields(MarketParams)}
    mkt = dict(data)
    _reference_derive_issuer(mkt, base)
    _reference_derive_cpty(mkt, base)
    return MarketParams(**mkt)


def _subsets(values):
    """Every subset of the credit keys, as a dict of the drawn values."""
    for mask in range(1 << len(_CREDIT_KEYS)):
        yield {k: values[k] for i, k in enumerate(_CREDIT_KEYS) if mask >> i & 1}


_RECOVERY = st.one_of(st.sampled_from([0.0, 0.3, 0.78, 1.0]), _UNIT)


@st.composite
def _credit_values(draw):
    """One value per credit key; the rates consistent with the rest, or not."""
    v = {"risk_free_rate": draw(_RATE), "cpty_repo_rate": draw(_RATE),
         "issuer_intensity": draw(_RATE), "cpty_intensity": draw(_RATE),
         "issuer_recovery": draw(_RECOVERY), "cpty_recovery": draw(_RECOVERY)}
    for rate, base, prefix in _TRIPLE_FIELDS:
        v[rate] = draw(_RATE) if draw(st.booleans()) else \
            v[base] + v[f"{prefix}_intensity"] * (1.0 - v[f"{prefix}_recovery"])
    return v


@settings(max_examples=40)
@given(values=_credit_values())
def test_credit_derivation_matches_reference_on_every_subset(values):
    for data in _subsets(values):
        try:
            expected = _reference_market(data)
        except ValueError:
            with pytest.raises(ValueError):
                config_from_dict(data)
            continue
        assert repr(config_from_dict(data).market) == repr(expected), data


@settings(max_examples=40)
@given(values=_credit_values())
def test_credit_derivation_keeps_given_keys_and_both_relations(values):
    for data in _subsets(values):
        try:
            market = config_from_dict(data).market
        except ValueError:
            continue
        for key, value in data.items():
            assert getattr(market, key) == value, (key, data)
        for rate, base, prefix in _TRIPLE_FIELDS:
            gap = getattr(market, rate) - getattr(market, base) \
                - getattr(market, f"{prefix}_intensity") \
                * (1.0 - getattr(market, f"{prefix}_recovery"))
            assert abs(gap) <= 1e-12, (rate, data)
