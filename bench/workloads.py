"""The benchmark's workloads: each is one cycle of ``xvadg`` commands.

A run repeats whole cycles, so every run attempts the same operations in
the same proportions.  Each command carries the check that accepts or
rejects its output (see ``checks.py``).  ``size="tiny"`` gives the same
commands at a size that runs in seconds and still passes the checks; the
benchmark's own tests use it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks

#: Monte Carlo seed of ``table3``: the seed of acceptance criterion 4.  It
#: does not follow ``--seed``, because the 500-path cross-check fails on
#: some seeds (see README.md).
MC_SEED = 20260818

CheckFn = Callable[..., tuple[list[str], dict]]


@dataclass(frozen=True)
class Command:
    argv: tuple[str, ...]
    check: CheckFn          # check(out_dir, stdout) -> (problems, notes)

    @property
    def label(self) -> str:
        return " ".join(self.argv)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[str], list[Command]]   # size -> cycle
    warmup: tuple[str, ...] = ("price", "--cells", "20")

    def cycle(self, seed: int, size: str = "full") -> list[Command]:
        """The commands of one cycle, in an order drawn from ``seed``."""
        commands = self.build(size)
        random.Random(seed).shuffle(commands)
        return commands


def _price(size: str) -> list[Command]:
    cells = 1280 if size == "full" else 160
    runs = [(o, d, 1) for o in ("put", "call") for d in ("linear", "nonlinear")]
    runs += [("put", "nonlinear", 2), ("call", "nonlinear", 2)]
    return [Command(("price", "--option", o, "--driver", d, "--cells",
                     str(cells), "--degree", str(g)),
                    partial(checks.check_price, option=o, driver=d,
                            cells=cells, degree=g))
            for o, d, g in runs]


def _sweep(size: str) -> list[Command]:
    cells = 1280 if size == "full" else 160
    return [Command(("sweep", "--param", p, "--cells", str(cells)),
                    partial(checks.check_sweep, param=p))
            for p in ("capital-hurdle", "collateral-rate")]


def _table3(size: str) -> list[Command]:
    cells, strata, paths = (320, 500, 500) if size == "full" else (160, 200, 250)
    return [Command(("table3", "--cells", str(cells), "--strata", str(strata),
                     "--paths", str(paths), "--seed", str(MC_SEED)),
                    partial(checks.check_table3, seed=MC_SEED))]


def _breakdown(size: str) -> list[Command]:
    spots = (10.0, 15.0, 20.0) if size == "full" else (15.0,)
    return [Command(("breakdown", "--option", o, "--spot", f"{s:g}"),
                    partial(checks.check_breakdown, spot=s))
            for o in ("put", "call") for s in spots]


WORKLOADS = {w.name: w for w in (
    Workload("price_fine", "single-trade price solves at 1280 cells, degrees "
             "1 and 2: assembly, IMEX march and implicit solves, nothing "
             "shared between commands", _price),
    Workload("sweep_shared", "two 5-value sweeps at 1280 cells whose solves "
             "share mesh, volatility, drift and flux: where one factorisation "
             "could serve many scenarios", _sweep),
    Workload("mc_table", "table3 with 500 x 500 Monte Carlo paths: drivers, "
             "capital and closed forms on 250,000-point arrays, memory grows "
             "with the path ensemble", _table3),
    # not listed in BENCHMARK.json: on a shared 2-vCPU box its timings
    # spread 0.24-0.31 over ten runs, above the largest bound allowed
    Workload("breakdown", "quadrature decomposition at three spots per "
             "option: about 1,000 closed-form and capital calls on 64-point "
             "arrays per command, per-call overhead", _breakdown),
)}
