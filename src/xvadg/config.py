"""Contract, market and capital parameter sets, and run configuration.

The engine prices a single European call or put held against a defaulting
counterparty under a collateral agreement, with the dealer funding itself at
a spread over the risk-free rate and holding regulatory capital against the
position.  Everything downstream (drivers, capital charges, PDE domain) is
parameterized by the three frozen dataclasses here, whose numeric fields
each hold one finite real number: a bool, a string or an array is refused
by name.

Two credit triples are internally constrained:

* issuer:        funding rate  = risk-free + intensity * (1 - recovery)
* counterparty:  bond yield    = repo rate + intensity * (1 - recovery)

``_TRIPLES`` holds both rows: ``MarketParams`` checks each relation to 1e-12
and ``config_from_dict`` fills the members a flat dict leaves out (never a
recovery, nor the risk-free rate that drives all discounting).  This keeps
every stored configuration zero-basis consistent by construction.
"""

from __future__ import annotations

import dataclasses
import json
import logging
import numbers
import sys
from dataclasses import dataclass

import numpy as np

logger = logging.getLogger(__name__)

_BASIS_TOL = 1e-12

#: prefix -> (rate, base, word in messages): rate = base + intensity * (1 - recovery)
_TRIPLES = {
    "issuer": ("issuer_funding_rate", "risk_free_rate", "issuer"),
    "cpty": ("cpty_bond_yield", "cpty_repo_rate", "counterparty"),
}


def _is_number(value) -> bool:
    """A real Python or numpy scalar; a bool, a string or an array is not."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _check_finite(items) -> None:
    """Raise naming the first ``(name, value)`` pair whose value is not a
    finite number; an integer beyond the float range is not finite."""
    for name, value in items:
        if not _is_number(value):
            raise ValueError(f"{name} must be a number, got {value!r}")
        if not abs(value) <= sys.float_info.max:   # NaN, inf, or past the float range
            raise ValueError(f"{name} must be finite, got {value!r}")


def _require_finite(params) -> None:
    """Raise naming the first numeric field of ``params`` that is not a finite
    number.  The int fields (``cells``, ``degree``) check their own type, so
    a non-number there is left to that check."""
    for f in dataclasses.fields(params):
        value = getattr(params, f.name)
        if isinstance(f.default, float) or type(f.default) is int and _is_number(value):
            _check_finite([(f.name, value)])


# Benchmark market data: the single-stock setting used throughout the test
# suite and as the CLI default.  The issuer funding rate and counterparty
# bond yield are spelled as derivations so the zero-basis relations hold to
# the last bit.
_RISK_FREE = 0.06
_ISSUER_INTENSITY = 0.00133
_ISSUER_RECOVERY = 0.70
_ISSUER_FUNDING = _RISK_FREE + _ISSUER_INTENSITY * (1.0 - _ISSUER_RECOVERY)
_CPTY_INTENSITY = 0.0103
_CPTY_RECOVERY = 0.78
_CPTY_REPO = _RISK_FREE
_CPTY_BOND = _CPTY_REPO + _CPTY_INTENSITY * (1.0 - _CPTY_RECOVERY)


@dataclass(frozen=True)
class OptionSpec:
    """European vanilla contract: ``kind`` is ``"call"`` or ``"put"``."""

    kind: str = "put"
    strike: float = 15.0
    maturity: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.kind not in ("call", "put"):
            raise ValueError(f"option kind must be 'call' or 'put', got {self.kind!r}")
        if not self.strike > 0.0:
            raise ValueError(f"strike must be positive, got {self.strike}")
        if not self.maturity > 0.0:
            raise ValueError(f"maturity must be positive, got {self.maturity}")


def payoff(option: OptionSpec, spot: np.ndarray | float) -> np.ndarray:
    """Terminal payoff of ``option`` evaluated at ``spot`` (vectorized)."""
    s = np.asarray(spot, dtype=float)
    if option.kind == "call":
        return np.maximum(s - option.strike, 0.0)
    return np.maximum(option.strike - s, 0.0)


@dataclass(frozen=True)
class MarketParams:
    """Rates, spreads and hedging parameters of the dealer's book.

    ``sigma`` is the stock volatility, ``risk_free_rate`` the OIS-style
    short rate.  ``stock_repo_rate`` and ``dividend_yield`` set the carry of
    the hedge; their difference is the risk-neutral drift of the stock (the
    ``drift`` property).  The issuer block describes the dealer's own
    funding (rate, default intensity, recovery); the counterparty block the
    client's credit (bond yield, repo rate of that bond, intensity,
    recovery).  ``collateral_rate`` is the rate paid on posted collateral,
    ``collateral_fraction`` the posted fraction of the mark.
    ``capital_hurdle`` is the return demanded on regulatory capital and
    ``capital_funding_fraction`` the share of capital usable as funding.
    """

    sigma: float = 0.3
    risk_free_rate: float = _RISK_FREE
    stock_repo_rate: float = 0.06
    dividend_yield: float = 0.0
    issuer_funding_rate: float = _ISSUER_FUNDING
    issuer_intensity: float = _ISSUER_INTENSITY
    issuer_recovery: float = _ISSUER_RECOVERY
    cpty_bond_yield: float = _CPTY_BOND
    cpty_repo_rate: float = _CPTY_REPO
    cpty_intensity: float = _CPTY_INTENSITY
    cpty_recovery: float = _CPTY_RECOVERY
    collateral_rate: float = 0.07
    collateral_fraction: float = 0.9
    capital_hurdle: float = 0.15
    capital_funding_fraction: float = 1.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if not self.sigma > 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        for name in ("issuer_recovery", "cpty_recovery", "collateral_fraction",
                     "capital_funding_fraction"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {v}")
        for name in ("issuer_intensity", "cpty_intensity"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be nonnegative")
        for prefix, (rate, base, who) in _TRIPLES.items():
            lam, rec = (getattr(self, f"{prefix}_{k}") for k in ("intensity", "recovery"))
            gap = getattr(self, rate) - getattr(self, base) - lam * (1.0 - rec)
            if not abs(gap) <= _BASIS_TOL:
                raise ValueError(f"inconsistent {who} credit triple: {rate} - {base} differs "
                                 f"from {prefix}_intensity*(1-{prefix}_recovery) by {gap:.3e}")

    @property
    def drift(self) -> float:
        """Risk-neutral drift of the stock (repo rate minus dividend yield)."""
        return self.stock_repo_rate - self.dividend_yield

    @property
    def issuer_spread(self) -> float:
        """Issuer funding spread over risk-free, equal to intensity*(1-recovery)."""
        return self.issuer_funding_rate - self.risk_free_rate

    @property
    def cpty_spread(self) -> float:
        """Counterparty bond-repo spread, equal to intensity*(1-recovery)."""
        return self.cpty_bond_yield - self.cpty_repo_rate


@dataclass(frozen=True)
class CapitalParams:
    """Regulatory-capital inputs for the SA-CCR exposure and CVA charge.

    ``capital_ratio`` converts risk-weighted assets into a capital
    requirement; ``ccr_risk_weight`` is the counterparty risk weight,
    ``saccr_alpha`` the supervisory alpha, ``supervisory_factor`` and
    ``supervisory_vol`` the equity add-on factor and option volatility,
    ``cva_risk_weight`` the standardized CVA weight and ``leverage_ratio``
    the leverage backstop.  The PFE multiplier is
    ``min(1, floor + slope*exp((mark - collateral)/(2*(1-floor)*addon)))``.

    Defaults are the standard single-name-equity values of the regulation:
    in particular ``multiplier_slope = 1 - multiplier_floor = 0.95`` (so the
    multiplier is exactly 1 for an uncollateralized positive mark) and
    ``supervisory_vol = 1.2``.  Both are load-bearing: the benchmark
    valuation tables are reproduced with these values and with no others
    (see README for the cross-checks).  The add-on horizon is
    ``addon_days`` business days of ``days_per_year``.
    """

    capital_ratio: float = 0.08
    ccr_risk_weight: float = 0.75
    saccr_alpha: float = 1.4
    supervisory_factor: float = 0.32
    supervisory_vol: float = 1.2
    cva_risk_weight: float = 0.05
    leverage_ratio: float = 0.03
    multiplier_floor: float = 0.05
    multiplier_slope: float = 0.95
    addon_days: float = 10.0
    days_per_year: float = 360.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if not 0.0 < self.capital_ratio <= 1.0:
            raise ValueError(f"capital_ratio must lie in (0, 1], got {self.capital_ratio}")
        if not 0.0 < self.multiplier_floor < 1.0:
            raise ValueError(f"multiplier_floor must lie in (0, 1), got {self.multiplier_floor}")
        for name in ("ccr_risk_weight", "saccr_alpha", "supervisory_factor",
                     "supervisory_vol", "cva_risk_weight", "leverage_ratio",
                     "multiplier_slope"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if not self.addon_days >= 0.0:
            raise ValueError("addon_days must be nonnegative")
        if not self.days_per_year > 0.0:
            raise ValueError("days_per_year must be positive")


#: Mark-to-market conventions for close-out and capital inside the drivers.
DRIVER_KINDS = ("linear", "nonlinear", "garcia")


@dataclass(frozen=True)
class RunConfig:
    """One pricing run: contract, market, capital, driver and discretization.

    ``driver`` selects the mark-to-market convention: ``"linear"`` marks at
    the default-free value (the adjustment PDE is linear), ``"nonlinear"``
    marks at the adjusted value itself (semilinear PDE), ``"garcia"`` solves
    the reduced capital-adjustment equation.  The spatial domain is
    ``[0, domain_multiple * strike]`` with ``cells`` uniform cells and local
    polynomial degree ``degree``; ``cfl_constant`` is the convective
    Courant number that ties the time step to the mesh width.
    """

    option: OptionSpec = OptionSpec()
    market: MarketParams = MarketParams()
    capital: CapitalParams = CapitalParams()
    driver: str = "linear"
    domain_multiple: float = 4.0
    cells: int = 160
    degree: int = 1
    cfl_constant: float = 0.5

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.driver not in DRIVER_KINDS:
            raise ValueError(f"driver must be one of {DRIVER_KINDS}, got {self.driver!r}")
        if not (isinstance(self.cells, int) and self.cells >= 2):
            raise ValueError(f"cells must be an integer >= 2, got {self.cells!r}")
        if not (type(self.degree) is int and self.degree in (1, 2)):  # no float, no bool
            raise ValueError(f"degree must be the integer 1 or 2, got {self.degree!r}")
        if not self.domain_multiple > 1.0:
            raise ValueError("domain_multiple must exceed 1 so the strike is interior")
        if not self.cfl_constant > 0.0:
            raise ValueError("cfl_constant must be positive")
        width = self.s_max / self.cells
        ratio = self.option.strike / width
        if abs(ratio - round(ratio)) > 1e-9:
            logger.warning(
                "strike %.6g is not a mesh node (cell width %.6g); payoff kink "
                "falls inside a cell and may cost accuracy on coarse meshes",
                self.option.strike, width)

    @property
    def s_max(self) -> float:
        """Right edge of the truncated spatial domain."""
        return self.domain_multiple * self.option.strike


# ---------------------------------------------------------------------------
# flat-dict / JSON round trip
# ---------------------------------------------------------------------------

_OPTION_KEYS = tuple(f.name for f in dataclasses.fields(OptionSpec))
_MARKET_KEYS = tuple(f.name for f in dataclasses.fields(MarketParams))
_CAPITAL_KEYS = tuple(f.name for f in dataclasses.fields(CapitalParams))
_RUN_KEYS = ("driver", "domain_multiple", "cells", "degree", "cfl_constant")
_ALL_KEYS = frozenset(_OPTION_KEYS + _MARKET_KEYS + _CAPITAL_KEYS + _RUN_KEYS)


def _derive_triple(d: dict, defaults: dict, prefix: str) -> None:
    """Fill the missing members of the ``prefix`` credit triple of ``d``, in place."""
    rate, base, _ = _TRIPLES[prefix]
    rec = d.get(f"{prefix}_recovery", defaults[f"{prefix}_recovery"])
    lam_key = f"{prefix}_intensity"
    if rate in d and base in d:
        if lam_key not in d:
            if rec == 1.0:
                raise ValueError(f"{prefix}_recovery = 1 leaves {lam_key} undetermined "
                                 f"by the spread; give {lam_key} explicitly")
            d[lam_key] = (d[rate] - d[base]) / (1.0 - rec)
        return
    lam = d.setdefault(lam_key, defaults[lam_key])
    if rate in d:
        d[base] = d[rate] - lam * (1.0 - rec)
    else:
        d.setdefault(base, d["risk_free_rate"])
        d[rate] = d[base] + lam * (1.0 - rec)


def config_from_dict(data: dict) -> RunConfig:
    """Build a ``RunConfig`` from a flat dict of field values.

    Missing fields take the benchmark defaults.  In each credit triple a
    missing intensity is derived from a given rate and base; otherwise the
    missing rate or base is derived from the other (the base defaulting to
    the risk-free rate).  Inconsistent triples, unknown keys and
    non-finite market values raise, the last naming the key given.
    """
    unknown = set(data) - _ALL_KEYS
    if unknown:
        raise ValueError(f"unknown configuration keys: {sorted(unknown)}")
    defaults = {f.name: f.default for f in dataclasses.fields(MarketParams)}
    mkt = {k: data[k] for k in _MARKET_KEYS if k in data}
    # before deriving: a non-finite member would spread to the members
    # derived from it and be reported under a field the dict never gave
    _check_finite(mkt.items())
    mkt.setdefault("risk_free_rate", defaults["risk_free_rate"])
    for prefix in _TRIPLES:
        _derive_triple(mkt, defaults, prefix)
    option = OptionSpec(**{k: data[k] for k in _OPTION_KEYS if k in data})
    market = MarketParams(**mkt)
    capital = CapitalParams(**{k: data[k] for k in _CAPITAL_KEYS if k in data})
    run = {k: data[k] for k in _RUN_KEYS if k in data}
    return RunConfig(option=option, market=market, capital=capital, **run)


def config_to_dict(config: RunConfig) -> dict:
    """Flatten a ``RunConfig`` to a plain dict (inverse of ``config_from_dict``)."""
    out: dict = {}
    out.update(dataclasses.asdict(config.option))
    out.update(dataclasses.asdict(config.market))
    out.update(dataclasses.asdict(config.capital))
    for k in _RUN_KEYS:
        out[k] = getattr(config, k)
    return out


def load_config(path: str) -> RunConfig:
    """Read a flat JSON configuration file."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError(f"configuration file {path} must contain a JSON object")
    return config_from_dict(data)


def save_config(config: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(config_to_dict(config), fh, indent=2, sort_keys=True)
        fh.write("\n")


def benchmark_config(option_kind: str = "put", driver: str = "linear",
                     cells: int = 160, degree: int = 1) -> RunConfig:
    """The benchmark parameter set used across the validation suite.

    Strike 15, maturity 1, sigma 0.3, the dealer/counterparty credit data of
    the module defaults, full capital funding, and the standard regulatory
    capital parameters of ``CapitalParams()``.
    """
    return RunConfig(option=OptionSpec(kind=option_kind), driver=driver,
                     cells=cells, degree=degree)
