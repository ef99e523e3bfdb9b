"""Regulatory capital chain: supervisory delta, maturity factor, multiplier
limits, exposure flooring, component identities, Lipschitz and monotonicity
properties, and the in-place kernels against the one-line formulas, bit for
bit."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.special import erf

import kernels_reference as ref
from kernels_reference import bits
from xvadg.black_scholes import norm_cdf
from xvadg.capital import (capital_levels, capital_requirement,
                           capital_requirement_parts, maturity_factor,
                           supervisory_delta)
from xvadg.config import CapitalParams, MarketParams, OptionSpec

CALL = OptionSpec(kind="call", strike=15.0, maturity=1.0)
PUT = OptionSpec(kind="put", strike=15.0, maturity=1.0)
CAP = CapitalParams()
MARKET = MarketParams()


def test_maturity_factor_values():
    assert maturity_factor(0.0, 1.0, CAP) == pytest.approx(1.0, abs=0.0)
    # at expiry only the 10-business-day window remains
    assert maturity_factor(1.0, 1.0, CAP) == pytest.approx(np.sqrt(10.0 / 360.0))
    t = np.linspace(0.0, 1.0, 7)
    mf = maturity_factor(t, 1.0, CAP)
    assert np.all(np.diff(mf) <= 0.0)
    assert np.all((mf > 0.0) & (mf <= 1.0))


def test_supervisory_delta_at_the_money_reference_value():
    # at S = K the log shift cancels and the delta is Phi(vol/2) exactly;
    # the 1.5-vol variant reproduces the published 0.77337 figure
    printed = CapitalParams(supervisory_vol=1.5)
    d = supervisory_delta(CALL, 15.0, 0.0, printed.supervisory_vol)
    assert d == pytest.approx(0.7733726476231317, abs=1e-12)
    d_put = supervisory_delta(PUT, 15.0, 0.0, printed.supervisory_vol)
    assert d_put == pytest.approx(d - 1.0, abs=1e-12)
    # default vol: same identity at its own value
    assert supervisory_delta(CALL, 15.0, 0.0, CAP.supervisory_vol) == pytest.approx(
        0.5 * (1.0 + erf(0.5 * 1.2 / np.sqrt(2.0))), abs=1e-14)


def test_supervisory_delta_against_spreadsheet_formula():
    """Independent erf recomputation of the shifted Black delta."""
    rng = np.random.default_rng(11)
    spots = rng.uniform(0.0, 60.0, 40)
    times = rng.uniform(0.0, 1.0, 40)
    h = np.maximum(1.0 - times, 1.0 / 360.0)
    arg = (np.log((spots + 0.01) / 15.01) + 0.5 * 1.2 ** 2 * h) / (1.2 * np.sqrt(h))
    expect_call = 0.5 * (1.0 + erf(arg / np.sqrt(2.0)))
    got_call = supervisory_delta(CALL, spots, times, 1.2)
    assert np.allclose(got_call, expect_call, atol=1e-14)
    got_put = supervisory_delta(PUT, spots, times, 1.2)
    assert np.allclose(got_put, -(1.0 - expect_call), atol=1e-14)


def test_supervisory_delta_bounds_and_monotonicity():
    s = np.linspace(0.0, 60.0, 121)
    for t in (0.0, 0.5, 0.999, 1.0):
        d_call = supervisory_delta(CALL, s, t, CAP.supervisory_vol)
        d_put = supervisory_delta(PUT, s, t, CAP.supervisory_vol)
        # near expiry the one-day floor leaves deep tails that round to the
        # endpoints in floating point, so the bounds are closed there
        assert np.all((d_call >= 0.0) & (d_call <= 1.0))
        assert np.all((d_put >= -1.0) & (d_put <= 0.0))
        assert np.all(np.diff(d_call) >= 0.0)
        assert np.allclose(d_put, d_call - 1.0, atol=1e-15)
    mid = supervisory_delta(CALL, s, 0.5, CAP.supervisory_vol)
    assert np.all((mid > 0.0) & (mid < 1.0))


def test_multiplier_slope_variants_at_zero_gap():
    # uncollateralized positive mark, gap = mark - collateral = 0 case:
    # the regulation's slope gives multiplier exactly 1, the 0.095 variant
    # would freeze it at 0.145
    mark = 2.0
    parts = capital_requirement_parts(mark, mark, 20.0, 0.0, CALL, CAP)
    assert parts.multiplier == pytest.approx(1.0, abs=0.0)
    odd = CapitalParams(multiplier_slope=0.095)
    parts_odd = capital_requirement_parts(mark, mark, 20.0, 0.0, CALL, odd)
    assert parts_odd.multiplier == pytest.approx(0.145, abs=1e-15)


def test_multiplier_floor_and_cap_limits():
    # heavily over-collateralized: multiplier decays to the floor
    parts = capital_requirement_parts(0.0, 1e6, 20.0, 0.0, CALL, CAP)
    assert parts.multiplier == pytest.approx(CAP.multiplier_floor, abs=1e-12)
    # huge positive gap with a small add-on: exponent guard keeps it finite
    with np.errstate(over="raise"):
        parts = capital_requirement_parts(1e8, 0.0, 0.5, 0.0, CALL, CAP)
    assert parts.multiplier == 1.0
    # range property on a sampled grid
    rng = np.random.default_rng(5)
    marks = rng.uniform(-5.0, 10.0, 200)
    parts = capital_requirement_parts(marks, 0.9 * marks, 18.0, 0.3, CALL, CAP)
    assert np.all((parts.multiplier > 0.0) & (parts.multiplier <= 1.0))


def test_zero_spot_and_zero_mark_cases():
    # S = 0 kills the add-on exactly, so EAD = alpha * RC
    parts = capital_requirement_parts(2.0, 1.8, 0.0, 0.0, CALL, CAP)
    assert parts.addon == 0.0
    assert parts.pfe == 0.0
    assert parts.ead == pytest.approx(CAP.saccr_alpha * 0.2, rel=1e-14)
    # no position at all: no capital
    parts = capital_requirement_parts(0.0, 0.0, 0.0, 0.0, CALL, CAP)
    assert parts.k_total == 0.0


def test_capital_ratio_scales_risk_components_only():
    doubled = CapitalParams(capital_ratio=0.16)
    base = capital_requirement_parts(1.5, 1.35, 20.0, 0.2, CALL, CAP)
    big = capital_requirement_parts(1.5, 1.35, 20.0, 0.2, CALL, doubled)
    assert big.k_ccr == pytest.approx(2.0 * base.k_ccr, rel=1e-14)
    assert big.k_cva == pytest.approx(2.0 * base.k_cva, rel=1e-14)
    assert big.k_lr == pytest.approx(base.k_lr, rel=1e-14)


def test_put_negative_addon_can_zero_the_exposure():
    # collateralized at-the-money put: the signed add-on nets RC + PFE
    # below zero, the floored exposure vanishes and only the leverage
    # branch remains
    mark = 1.334
    parts = capital_requirement_parts(mark, 0.9 * mark, 15.0, 0.0, PUT, CAP)
    assert parts.addon < 0.0
    assert parts.ead == 0.0
    assert parts.k_ccr == 0.0 and parts.k_cva == 0.0
    assert parts.k_total == pytest.approx(parts.k_lr)
    assert parts.k_total >= 0.0


def test_total_is_max_structure_and_nonnegative():
    rng = np.random.default_rng(99)
    spots = rng.uniform(0.0, 60.0, 300)
    times = rng.uniform(0.0, 1.0, 300)
    marks = rng.uniform(-3.0, 12.0, 300)
    for option in (CALL, PUT):
        parts = capital_requirement_parts(marks, 0.9 * marks, spots, times,
                                          option, CAP)
        assert np.allclose(parts.k_total,
                           np.maximum(parts.k_ccr + parts.k_cva, parts.k_lr),
                           atol=0.0)
        assert np.all(parts.k_total >= 0.0)
        assert np.all(parts.ead >= 0.0)
        assert np.allclose(parts.ead,
                           CAP.saccr_alpha
                           * np.maximum(parts.replacement_cost + parts.pfe, 0.0),
                           rtol=1e-14)
        assert np.allclose(parts.rwa_ccr, CAP.ccr_risk_weight * 12.5 * parts.ead,
                           rtol=1e-14)
        assert np.allclose(parts.k_ccr, CAP.capital_ratio * parts.rwa_ccr,
                           rtol=1e-14)


def test_call_capital_monotone_in_mark():
    marks = np.linspace(0.0, 10.0, 201)
    for t in (0.0, 0.5):
        parts = capital_requirement_parts(marks, 0.9 * marks, 20.0, t, CALL, CAP)
        assert np.all(np.diff(parts.k_total) >= -1e-12)


def test_capital_lipschitz_in_mark():
    rng = np.random.default_rng(1234)
    spots = rng.uniform(0.1, 60.0, 500)
    times = rng.uniform(0.0, 1.0, 500)
    marks = rng.uniform(-2.0, 10.0, 500)
    h = 1e-6
    for option in (CALL, PUT):
        lo = capital_requirement_parts(marks, 0.9 * marks, spots, times,
                                       option, CAP).k_total
        hi = capital_requirement_parts(marks + h, 0.9 * (marks + h), spots,
                                       times, option, CAP).k_total
        assert np.all(np.abs(hi - lo) / h < 1.0)


def test_capital_requirement_defaults_collateral_fraction():
    direct = capital_requirement(0.25, 18.0, 2.2, CALL, MARKET, CAP)
    explicit = capital_requirement_parts(2.2, MARKET.collateral_fraction * 2.2,
                                         18.0, 0.25, CALL, CAP)
    assert direct.k_total == pytest.approx(explicit.k_total, rel=1e-15)


def test_scalar_inputs_give_scalar_outputs():
    parts = capital_requirement_parts(1.0, 0.9, 20.0, 0.1, CALL, CAP)
    for name in ("delta", "mat_factor", "replacement_cost", "addon",
                 "multiplier", "pfe", "ead", "k_total"):
        assert isinstance(getattr(parts, name), float)


# spots whose add-on is exactly 0 (S = 0), +0 (a call's supervisory delta
# underflows at 0.5 near maturity) and -0 (a put's at 300 near maturity)
_ZERO_ADDON_SPOTS = (0.0, 0.5, 300.0)
_SPOT = st.one_of(st.sampled_from(_ZERO_ADDON_SPOTS + (15.0, 60.0)), st.floats(0.0, 100.0))
_MARK = st.one_of(st.sampled_from([0.0, -0.0, 1e308, -1e308, 1e-300, -1e-300]),
                  st.floats(-50.0, 50.0))
_TIME = st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0))


def _addon(spot, t, option):
    return capital_levels(option, spot, (t,), CAP)(0).addon


def test_edge_spots_give_exactly_zero_addons():
    assert _addon(0.0, 0.0, CALL) == 0.0
    call = _addon(np.array([0.5]), 1.0, CALL)
    put = _addon(np.array([300.0]), 1.0, PUT)
    assert call[0] == 0.0 and not np.signbit(call[0])
    assert put[0] == 0.0 and np.signbit(put[0])


def _floats(draw, elements, shape):
    size = int(np.prod(shape))
    return np.array(draw(st.lists(elements, min_size=size, max_size=size)),
                    dtype=float).reshape(shape)


@st.composite
def _capital_case(draw):
    """Spots and marks of one layout: (n,); the PDE's batch-major
    (cells, nodes) spots with (cells, nodes) marks or a batch of marks
    (B, cells, nodes); or batch-last, (cells, nodes, 1) spots with marks
    of that shape or a batch of marks (cells, nodes, B); t scalar or per
    point."""
    n, cells, nodes = draw(st.integers(1, 7)), draw(st.integers(1, 4)), draw(st.integers(2, 3))
    width = draw(st.integers(2, 4))
    spot_shape, mark_shape = draw(st.sampled_from([
        ((n,), (n,)), ((cells, nodes), (cells, nodes)),
        ((cells, nodes), (width, cells, nodes)),
        ((cells, nodes, 1), (cells, nodes, 1)),
        ((cells, nodes, 1), (cells, nodes, width))]))
    t = draw(st.one_of(_TIME, st.just(None)))
    if t is None:
        t = _floats(draw, _TIME, spot_shape)
    mark = _floats(draw, _MARK, mark_shape)
    fraction = draw(st.sampled_from([0.0, 0.9, 1.0]))
    return (draw(st.sampled_from([CALL, PUT])), _floats(draw, _SPOT, spot_shape), t,
            mark, fraction * mark)


@settings(max_examples=80)
@given(case=_capital_case())
def test_capital_kernels_equal_the_formulas_bitwise(case):
    # the audit breakdown (fresh arrays) and the level's in-place total give
    # every field of the one-line formulas bit for bit, also with add-ons of
    # exactly ±0, marks of ±0, ±1e308 and 1e-300, and at t = 0 and maturity
    option, spot, t, mark, coll = case
    with np.errstate(all="ignore"):
        want = ref.capital_parts(mark, coll, spot, t, option, CAP)
        parts = capital_requirement_parts(mark, coll, spot, t, option, CAP)
        level = capital_levels(option, spot, np.asarray(t)[np.newaxis], CAP)(0)
        gap = np.subtract(mark, coll, out=np.empty(np.broadcast_shapes(
            mark.shape, level.addon.shape)))
        total = level.total(mark, gap, np.maximum(gap, 0.0))
    for name, value in want.items():
        assert np.array_equal(bits(getattr(parts, name)), bits(value)), name
    assert np.array_equal(bits(total), bits(want["k_total"]))


@st.composite
def _march_times(draw):
    """A vector of times as a march meets them: 0, maturity, times beyond
    it, drawn times, and the floats adjacent to maturity and to a drawn
    time."""
    drawn = draw(st.lists(st.floats(0.0, 1.5), min_size=1, max_size=5))
    near = drawn[0]
    return np.array([0.0, 1.0, 1.25, np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0),
                     np.nextafter(near, -1.0), np.nextafter(near, 2.0), *drawn])


@st.composite
def _space_case(draw):
    """Spots of one layout, (n,), (cells, nodes) or (cells, nodes, 1), with
    marks of the same layout or widened by a batch, (B, cells, nodes) in
    front or (cells, nodes, B) behind, and their collateral."""
    n, cells, nodes = draw(st.integers(1, 7)), draw(st.integers(1, 4)), draw(st.integers(2, 3))
    width = draw(st.integers(1, 3))
    spot_shape, mark_shape = draw(st.sampled_from([
        ((n,), (n,)), ((cells, nodes), (width, cells, nodes)),
        ((cells, nodes, 1), (cells, nodes, width))]))
    mark = _floats(draw, _MARK, mark_shape)
    return (draw(st.sampled_from([CALL, PUT])), _floats(draw, _SPOT, spot_shape), mark,
            draw(st.sampled_from([0.0, 0.9])) * mark)


@settings(max_examples=60)
@given(case=_space_case(), times=_march_times())
def test_time_table_rows_equal_the_formulas_bitwise(case, times):
    # the level builder over every time at once gives the one-line
    # formulas at each scalar time bit for bit: the level's add-on and
    # total, at t = 0, at and beyond maturity and at adjacent floats; the
    # audit breakdown at that time gives the supervisory delta and the
    # add-on
    option, spot, mark, coll = case
    level_at = capital_levels(option, spot, times, CAP)
    for i, t in enumerate(times):
        with np.errstate(all="ignore"):
            want = ref.capital_parts(mark, coll, spot, float(t), option, CAP)
            parts = capital_requirement_parts(mark, coll, spot, float(t), option, CAP)
            delta, addon = parts.delta, parts.addon
            level = level_at(i)
            gap = np.subtract(mark, coll, out=np.empty(np.broadcast_shapes(
                mark.shape, level.addon.shape)))
            total = level.total(mark, gap, np.maximum(gap, 0.0))
        assert np.array_equal(bits(delta), bits(want["delta"])), t
        assert np.array_equal(bits(addon), bits(want["addon"])), t
        assert np.array_equal(bits(level.addon), bits(want["addon"])), t
        assert np.array_equal(bits(total), bits(want["k_total"])), t


@settings(max_examples=40)
@given(x=st.lists(st.one_of(st.sampled_from([0.0, -0.0, 8.5, -8.5, 1e308, -1e308,
                                             1e-300, np.inf, -np.inf, np.nan]),
                            st.floats(-12.0, 12.0)), min_size=0, max_size=40))
def test_norm_cdf_equals_the_formula_bitwise(x):
    # both branches (erf on everything, erf on the unsaturated part only:
    # the padded array is more than three quarters saturated) write in place
    # and keep 0.5 * (1 + erf(x / sqrt 2)) to the bit
    x = np.array(x, dtype=float)
    for arg in (x, np.concatenate([x, np.full(3 * x.size + 1, -9.0)])):
        assert np.array_equal(bits(norm_cdf(arg)), bits(ref.norm_cdf(arg)))
    for value in x[:3]:
        assert bits(norm_cdf(float(value))) == bits(ref.norm_cdf(value))
