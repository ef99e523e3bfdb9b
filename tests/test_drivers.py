"""Driver right-hand sides: the kind table, affine structure of the
default-free-mark convention, monotonicity of the semilinear one, the
closed-form mark computed inside the driver, capital switched off by the
market, the capital stack as a test's capital profile, and the source-term
sign convention."""

import dataclasses
import gc
import itertools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import kernels_reference as ref
from kernels_reference import bits, capital_off, use_capital_profile
from xvadg.black_scholes import bs_value
from xvadg.capital import capital_requirement
from xvadg.config import DRIVER_KINDS, CapitalParams, MarketParams, OptionSpec, \
    benchmark_config
from xvadg.drivers import ALL_DRIVER_KINDS, driver_levels, driver_value, \
    is_adjustment_kind
from xvadg.solver import solve, source_term

CALL = OptionSpec(kind="call", strike=15.0, maturity=1.0)
PUT = OptionSpec(kind="put", strike=15.0, maturity=1.0)
MARKET = MarketParams()
CAP = CapitalParams()


def test_spread_and_intensity_forms_agree():
    # the loss coefficient can be built either as a bond-repo spread or as
    # intensity times loss-given-default; the validated parameter set makes
    # the two expressions identical, so the driver is form-independent
    assert MARKET.cpty_spread == pytest.approx(
        MARKET.cpty_intensity * (1.0 - MARKET.cpty_recovery), rel=1e-12)
    assert MARKET.cpty_spread == pytest.approx(
        MARKET.cpty_bond_yield - MARKET.cpty_repo_rate, rel=1e-12)


def test_linear_driver_is_affine_in_v():
    spot = np.linspace(1.0, 40.0, 9)
    args = dict(option=PUT, market=MARKET, capital=CAP)
    v0 = np.zeros_like(spot)
    v1 = np.full_like(spot, 1.0)
    v2 = np.full_like(spot, 2.0)
    f0 = driver_value("linear", 0.3, spot, v0, **args)
    f1 = driver_value("linear", 0.3, spot, v1, **args)
    f2 = driver_value("linear", 0.3, spot, v2, **args)
    # second difference vanishes and the slope is rB + lamC
    assert np.allclose(f2 - 2.0 * f1 + f0, 0.0, atol=1e-12)
    slope = MARKET.issuer_funding_rate + MARKET.cpty_intensity
    assert np.allclose(f1 - f0, slope, atol=1e-12)
    assert slope == pytest.approx(0.060399 + 0.0103, rel=1e-10)


def test_linear_driver_value_reconstructed_by_hand():
    spot = np.array([15.0])
    t = 0.25
    mark = bs_value(PUT, spot, t, MARKET)
    v = np.array([0.7])
    got = driver_value("linear", t, spot, v, PUT, MARKET, CAP)
    coll = MARKET.collateral_fraction * mark
    k = capital_requirement(t, spot, mark, PUT, MARKET, CAP).k_total
    rb = MARKET.issuer_funding_rate
    expect = ((rb + MARKET.cpty_intensity) * v - MARKET.cpty_intensity * mark
              + MARKET.cpty_spread * np.maximum(mark - coll, 0.0)
              + (MARKET.collateral_rate - rb) * coll
              + (MARKET.capital_hurdle - MARKET.capital_funding_fraction * rb) * k)
    assert np.allclose(got, expect, rtol=1e-14)


def test_nonlinear_driver_monotone_increment():
    # the semilinear driver's v-increment is bounded between rB and
    # rB + spread*(1-fraction) + collateral and capital slopes: check the
    # one-sided Lipschitz property (F(v2)-F(v1))(v2-v1) bounded by C(v2-v1)^2
    rng = np.random.default_rng(7)
    spot = rng.uniform(0.5, 50.0, 64)
    v1 = rng.uniform(-2.0, 8.0, 64)
    v2 = v1 + rng.uniform(0.0, 3.0, 64)
    args = dict(option=CALL, market=MARKET, capital=CAP)
    f1 = driver_value("nonlinear", 0.4, spot, v1, **args)
    f2 = driver_value("nonlinear", 0.4, spot, v2, **args)
    dv = v2 - v1
    ratio = (f2 - f1) / np.where(dv == 0.0, 1.0, dv)
    assert np.all(np.abs(ratio) < 0.5)
    assert np.all(np.isfinite(ratio))


def test_garcia_and_reference_forms():
    spot = np.linspace(2.0, 40.0, 7)
    v = np.linspace(-1.0, 1.0, 7)
    m = bs_value(CALL, spot, 0.2, MARKET)
    k = capital_requirement(0.2, spot, m, CALL, MARKET, CAP).k_total
    rb = MARKET.issuer_funding_rate
    got = driver_value("garcia", 0.2, spot, v, CALL, MARKET, CAP)
    expect = (MARKET.capital_hurdle + MARKET.cpty_intensity) * v \
        + (MARKET.capital_hurdle - rb) * k
    assert np.allclose(got, expect, rtol=1e-14)
    got_ref = driver_value("garcia_ref", 0.2, spot, v, CALL, MARKET, CAP)
    expect_ref = (rb + MARKET.cpty_intensity) * v \
        + (MARKET.capital_hurdle - MARKET.capital_funding_fraction * rb) * k
    assert np.allclose(got_ref, expect_ref, rtol=1e-14)


@pytest.mark.parametrize("option", [PUT, CALL], ids=["put", "call"])
def test_driver_value_equals_hand_built_formulas_bitwise(option):
    # driver_value is the (t, S) level part followed by the evaluation in v;
    # both keep the arithmetic of the one-line formulas (a mark kind's as
    # rate * v + rest), so every kind matches them bit for bit, including
    # the closed-form mark the driver computes itself and the nonlinear
    # capital stack split at the add-on, and one level serves any number of v
    spot = np.linspace(0.5, 45.0, 13)
    v = np.linspace(-1.5, 4.0, 13)
    t = 0.35
    mark = bs_value(option, spot, t, MARKET)
    k_mark = capital_requirement(t, spot, mark, option, MARKET, CAP).k_total
    rb = MARKET.issuer_funding_rate
    lam = MARKET.cpty_intensity
    loss = MARKET.cpty_spread
    hurdle = MARKET.capital_hurdle
    phi = MARKET.capital_funding_fraction
    coll_mark = MARKET.collateral_fraction * mark

    def nonlinear(v):
        coll = MARKET.collateral_fraction * v
        k = capital_requirement(t, spot, v, option, MARKET, CAP).k_total
        return (rb * v + loss * np.maximum(v - coll, 0.0)
                + (MARKET.collateral_rate - rb) * coll + (hurdle - phi * rb) * k)

    hand = {
        "linear": lambda v: (rb + lam) * v + (-lam * mark
                                              + loss * np.maximum(mark - coll_mark, 0.0)
                                              + (MARKET.collateral_rate - rb) * coll_mark
                                              + (hurdle - phi * rb) * k_mark),
        "nonlinear": nonlinear,
        "garcia": lambda v: (hurdle + lam) * v + (hurdle - rb) * k_mark,
        "garcia_ref": lambda v: (rb + lam) * v + (hurdle - phi * rb) * k_mark,
        "riskfree": lambda v: MARKET.risk_free_rate * v,
    }
    assert set(hand) == set(ALL_DRIVER_KINDS)
    for kind, formula in hand.items():
        args = (option, MARKET, CAP)
        assert np.array_equal(driver_value(kind, t, spot, v, *args), formula(v)), kind
        level = driver_levels(kind, (t,), spot, *args)(0)
        for w in (v, 2.0 * v - 1.0):
            assert np.array_equal(level(w), formula(w)), kind


_SPOT = st.one_of(st.sampled_from([0.0, 0.5, 300.0, 15.0, 60.0]), st.floats(0.0, 100.0))
_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 1e308, -1e308, 1e-300, -1e-300]),
                   st.floats(-50.0, 50.0))


def _floats(draw, elements, shape):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(elements, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


_LAYOUTS = ("flat", "rows", "rows_widened", "column", "batched", "widened")


@st.composite
def _driver_case(draw, kinds=ALL_DRIVER_KINDS, layouts=_LAYOUTS):
    """One kind, option and t at a layout of the Monte Carlo, (n,); of the
    PDE's batch-major march, spots (cells, nodes) with (B, cells, nodes)
    values ("rows", B = 1 a single solve) or with (cells, nodes) values
    widened by the batch ("rows_widened"), and (B, 1, 1) arrays of the
    capital hurdle and the collateral rate; or batch-last, spots
    (cells, nodes, 1) with values of that shape ("column"), of shape
    (cells, nodes, B) ("batched") or widened by the batch ("widened"), and
    (B,) arrays of the two fields."""
    n, cells, nodes, width = (draw(st.integers(1, 7)), draw(st.integers(1, 4)),
                              draw(st.integers(2, 3)), draw(st.integers(2, 4)))
    layout = draw(st.sampled_from(layouts))
    if layout.startswith("rows"):
        width = draw(st.integers(1, 4))
        spot_shape, field_shape = (cells, nodes), (width, 1, 1)
        v_shape = (width, cells, nodes) if layout == "rows" else spot_shape
    else:
        spot_shape = (n,) if layout == "flat" else (cells, nodes, 1)
        v_shape = (cells, nodes, width) if layout == "batched" else spot_shape
        field_shape = (width,) if layout in ("batched", "widened") else None
    market = MARKET
    if field_shape is not None:
        market = dataclasses.replace(
            MARKET, capital_hurdle=_floats(draw, st.floats(0.0, 0.3), field_shape),
            collateral_rate=_floats(draw, st.floats(0.0, 0.1), field_shape))
    t = draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)))
    return (draw(st.sampled_from(kinds)), draw(st.sampled_from([PUT, CALL])),
            t, _floats(draw, _SPOT, spot_shape), _floats(draw, _VALUE, v_shape), market)


@settings(max_examples=150)
@given(case=_driver_case())
def test_driver_kernels_equal_the_formulas_bitwise(case):
    # every kind's level and in-place evaluation give the one-line formula
    # of kernels_reference bit for bit, in every layout the two routes use
    # and with batched coefficients that widen the result beyond v, for v
    # of ±0, ±1e308 and 1e-300 and spots whose add-on is exactly ±0
    kind, option, t, spot, v, market = case
    with np.errstate(all="ignore"):
        want = ref.driver(kind, t, spot, v, option, market, CAP)
        got = driver_value(kind, t, spot, v, option, market, CAP)
        level = driver_levels(kind, (t,), spot, option, market, CAP)(0)
        again = [level(w) for w in (v, v[::-1], v)]
        want_reversed = ref.driver(kind, t, spot, v[::-1], option, market, CAP)
    assert np.array_equal(bits(got), bits(want)), kind
    assert np.array_equal(bits(again[0]), bits(want)), kind
    assert np.array_equal(bits(again[1]), bits(want_reversed)), kind
    assert np.array_equal(bits(again[2]), bits(want)), kind


@settings(max_examples=150)
@given(case=_driver_case(kinds=("linear",)))
def test_linear_level_moves_only_at_rounding_level(case):
    # the level adds rate * v to the v-free rest last; the one-line formula
    # of the same five terms, summed left to right, lies within 4 ulps of
    # the sum of their magnitudes
    _, option, t, spot, v, market = case
    rb, lam = market.issuer_funding_rate, market.cpty_intensity
    with np.errstate(all="ignore"):
        mark = np.asarray(bs_value(option, spot, t, market), dtype=float)
        coll = market.collateral_fraction * mark
        k = ref.capital_parts(mark, coll, spot, t, option, CAP)["k_total"]
        terms = [(rb + lam) * v, -lam * mark,
                 market.cpty_spread * np.maximum(mark - coll, 0.0),
                 (market.collateral_rate - rb) * coll,
                 (market.capital_hurdle - market.capital_funding_fraction * rb) * k]
        left_to_right = terms[0] + terms[1] + terms[2] + terms[3] + terms[4]
        got = driver_value("linear", t, spot, v, option, market, CAP)
    magnitude = sum(np.abs(term) for term in terms)
    assert np.all(np.abs(got - left_to_right) <= 4.0 * np.spacing(magnitude))


def _stack(option, market, capital):
    """The default capital stack as a capital profile."""
    return lambda t, s, m: capital_requirement(t, s, m, option, market, capital).k_total


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("kind", ALL_DRIVER_KINDS)
@settings(max_examples=12)
@given(data=st.data())
def test_the_capital_stack_as_an_override_is_the_default_bitwise(kind, layout, data):
    # a level reaches its capital through the total of its capital level
    # alone: the stack put in its place as a test's profile gives the
    # default's bits, so a profile stands exactly where the stack stands
    _, _, drawn, spot, v, market = data.draw(_driver_case((kind,), (layout,)))
    for option, t in itertools.product((PUT, CALL), (0.0, PUT.maturity, drawn)):
        with np.errstate(all="ignore"):
            want = driver_value(kind, t, spot, v, option, market, CAP)
            with pytest.MonkeyPatch.context() as patch:
                use_capital_profile(patch, _stack(option, market, CAP))
                got = driver_value(kind, t, spot, v, option, market, CAP)
        assert np.array_equal(bits(got), bits(want)), (option.kind, t)


@pytest.mark.parametrize("kind", ["linear", "nonlinear", "garcia"])
def test_a_solve_under_the_stack_as_an_override_is_the_default_bitwise(kind, monkeypatch):
    config = benchmark_config(option_kind="call", driver="nonlinear", cells=20, degree=2)
    want = solve(config, kind).value_field.coeffs
    use_capital_profile(monkeypatch, _stack(config.option, config.market, config.capital))
    got = solve(config, kind).value_field.coeffs
    assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("kind", ALL_DRIVER_KINDS)
def test_level_does_not_keep_the_spots(kind):
    # a Monte Carlo level lives across two steps for every chunk of paths:
    # it keeps its own (t, S) parts, never the spots it was built on
    spot = np.linspace(0.0, 40.0, 64)
    spot_ref = weakref.ref(spot)
    level = driver_levels(kind, (0.4,), spot, PUT, MARKET, CAP)(0)
    del spot
    assert spot_ref() is None
    assert level(np.ones(64)).shape == (64,)


@pytest.mark.parametrize("kind, logs, roots", [("linear", 2, 3), ("nonlinear", 1, 2)])
def test_the_spot_and_time_terms_are_built_once_per_call(kind, logs, roots, monkeypatch):
    # np.log runs only in the kernels' spot terms (the mark's log(S/K), the
    # supervisory log-moneyness) and np.sqrt only in their time terms (the
    # mark's vol, the supervisory root, the maturity factor): 50 levels of
    # one driver_levels call build each once, as one level does
    counts = dict.fromkeys(("log", "sqrt"), 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(np, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np, name, counted)
    spot = np.linspace(0.0, 40.0, 64)
    level_at = driver_levels(kind, np.linspace(0.0, 1.0, 50), spot, PUT, MARKET, CAP)
    levels = [level_at(i) for i in range(50)]
    monkeypatch.undo()
    assert counts == {"log": logs, "sqrt": roots}
    assert all(np.isfinite(level(np.ones(64))).all() for level in levels)


@pytest.mark.parametrize("kind, most", [
    ("linear", 1.2), ("garcia", 1.2), ("garcia_ref", 1.2),
    ("nonlinear", 2.2), ("riskfree", 0.2)])
def test_a_mark_kind_level_holds_one_array(kind, most):
    # a mark kind's level keeps rest(t, S) alone; a nonlinear one keeps
    # the capital's add-on and PFE denominator (and the mask of zero
    # add-ons); counted in spot-length float64 arrays
    n = 1 << 15
    spot = np.linspace(0.0, 60.0, n)
    gc.collect()
    tracemalloc.start()
    try:
        level = driver_levels(kind, (0.4,), spot, PUT, MARKET, CAP)(0)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] / (8 * n)
    finally:
        tracemalloc.stop()
    assert callable(level)
    assert held <= most


def test_riskfree_driver():
    v = np.array([0.0, 1.0, -3.0])
    got = driver_value("riskfree", 0.9, np.ones(3), v, CALL, MARKET, CAP)
    assert np.allclose(got, MARKET.risk_free_rate * v)


def test_capital_kill_switch():
    # at a hurdle equal to the funded rate capital costs nothing, and the
    # nonlinear driver collapses to rB v + lamC (1-RC) (v-X)^+ + (rX - rB) X
    spot = np.linspace(1.0, 30.0, 5)
    v = np.linspace(0.0, 4.0, 5)
    got = driver_value("nonlinear", 0.1, spot, v, CALL, capital_off(MARKET), CAP)
    coll = MARKET.collateral_fraction * v
    rb = MARKET.issuer_funding_rate
    expect = rb * v + MARKET.cpty_spread * np.maximum(v - coll, 0.0) \
        + (MARKET.collateral_rate - rb) * coll
    assert np.allclose(got, expect, rtol=1e-14)


def test_unknown_kind_raises():
    with pytest.raises(ValueError, match="unknown driver kind"):
        driver_value("exotic", 0.0, np.ones(2), np.ones(2), CALL, MARKET, CAP)
    with pytest.raises(ValueError, match="unknown driver kind"):
        is_adjustment_kind("exotic")
    assert set(ALL_DRIVER_KINDS) == {"linear", "nonlinear", "garcia",
                                     "garcia_ref", "riskfree"}
    # every kind a RunConfig accepts is one the drivers know
    assert set(DRIVER_KINDS) <= set(ALL_DRIVER_KINDS)
    assert [k for k in ALL_DRIVER_KINDS if is_adjustment_kind(k)] == [
        "garcia", "garcia_ref"]


def test_source_term_sign_convention():
    # marching runs in time-to-maturity; the source is the conservative-form
    # zeroth-order remainder minus the driver at the reflected time
    spot = np.linspace(5.0, 25.0, 5)
    v = np.linspace(0.5, 2.5, 5)
    tau = 0.3
    f = driver_value("linear", PUT.maturity - tau, spot, v, PUT, MARKET, CAP)
    got = source_term("linear", tau, spot, v, PUT, MARKET, CAP)
    expect = (MARKET.sigma ** 2 - MARKET.drift) * v - f
    assert np.allclose(got, expect, rtol=1e-14)
