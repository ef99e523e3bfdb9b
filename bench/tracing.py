"""Spans around the calls into each xvadg module, recorded from outside.

``Tracer.install`` replaces public functions by wrappers under the name the
caller looks them up by (a module global or a class attribute) and
``Tracer.restore`` puts the originals back; nothing inside ``src/`` changes.
Each call becomes a span: name, start, end, parent span and command number,
plus a size figure (array points, bytes) where one applies.  Spans are
kept in memory, nest by call order, and a span's self time is its duration
minus that of its direct children.  ``layer_metrics`` folds them into the
per-layer metrics of BENCHMARK.json, per cycle of the workload.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import numpy as np


def _points(index):
    """Size of positional argument ``index`` (array points of a spot vector)."""
    return lambda args, result: float(np.size(args[index]))


def _path_steps(args, result):
    steps, paths = args[0].spots.shape
    return float((steps - 1) * paths)


def _ensemble_mb(args, result):
    return result.spots.nbytes / 1e6


# (owner, attribute, span name, size figure); an owner "module:Class" patches
# the class attribute, so every instance's method call is traced
PATCHES = (
    ("xvadg.cli", "solve", "solver.solve", None),
    ("xvadg.cli", "xva_breakdown", "solver.breakdown", None),
    ("xvadg.cli", "simulate_forward", "fbsde.forward", _ensemble_mb),
    ("xvadg.cli", "solve_backward", "fbsde.backward", _path_steps),
    ("xvadg.solver", "assemble_implicit", "ldg.assemble", None),
    ("xvadg.solver", "convection_form", "ldg.convection", None),
    ("xvadg.solver", "source_term", "drivers.source_term", None),
    ("xvadg.solver", "bs_value", "black_scholes.value", _points(1)),
    ("xvadg.solver", "capital_requirement", "capital.requirement", _points(1)),
    ("xvadg.solver", "lognormal_expectation", "black_scholes.expectation", None),
    ("xvadg.imex", "step", "imex.step", None),
    ("xvadg.ldg:ImplicitOperator", "solve", "ldg.implicit_solve", None),
    ("xvadg.ldg:ImplicitOperator", "apply_diffusion", "ldg.apply_diffusion", None),
    ("xvadg.ldg:DGField", "evaluate", "ldg.evaluate", None),
    ("xvadg.fbsde", "driver_value", "drivers.driver_value", _points(2)),
    ("xvadg.fbsde", "bs_value", "black_scholes.value", _points(1)),
    ("xvadg.drivers", "driver_value", "drivers.driver_value", _points(2)),
    ("xvadg.drivers", "capital_requirement", "capital.requirement", _points(1)),
    ("xvadg.fbsde:RegressionGrid", "stratum_of", "fbsde.stratum_of", None),
)

# per-layer metrics: name -> (unit, span name, statistic); statistics are
# count, total (seconds), self (seconds) and points (summed size figure),
# all per cycle, and peak (largest size figure of any one call)
LAYER_METRICS = {
    "cli.self_s": ("s", "cli.main", "self"),
    "solver.solves": ("count", "solver.solve", "count"),
    "solver.solve_self_s": ("s", "solver.solve", "self"),
    "solver.breakdown_self_s": ("s", "solver.breakdown", "self"),
    "imex.steps": ("count", "imex.step", "count"),
    "imex.step_self_s": ("s", "imex.step", "self"),
    "ldg.assemblies": ("count", "ldg.assemble", "count"),
    "ldg.assemble_s": ("s", "ldg.assemble", "total"),
    "ldg.implicit_solves": ("count", "ldg.implicit_solve", "count"),
    "ldg.implicit_solve_s": ("s", "ldg.implicit_solve", "total"),
    "ldg.apply_diffusion_s": ("s", "ldg.apply_diffusion", "total"),
    "ldg.convection_s": ("s", "ldg.convection", "total"),
    "ldg.evaluate_s": ("s", "ldg.evaluate", "total"),
    "drivers.calls": ("count", "drivers.driver_value", "count"),
    "drivers.points": ("count", "drivers.driver_value", "points"),
    "drivers.self_s": ("s", ("drivers.driver_value", "drivers.source_term"),
                       "self"),
    "capital.calls": ("count", "capital.requirement", "count"),
    "capital.points": ("count", "capital.requirement", "points"),
    "capital.eval_s": ("s", "capital.requirement", "total"),
    "black_scholes.value_calls": ("count", "black_scholes.value", "count"),
    "black_scholes.value_points": ("count", "black_scholes.value", "points"),
    "black_scholes.value_s": ("s", "black_scholes.value", "total"),
    "black_scholes.expectations": ("count", "black_scholes.expectation", "count"),
    "black_scholes.expectation_self_s": ("s", "black_scholes.expectation", "self"),
    "fbsde.forward_s": ("s", "fbsde.forward", "total"),
    "fbsde.backward_passes": ("count", "fbsde.backward", "count"),
    "fbsde.path_steps": ("count", "fbsde.backward", "points"),
    "fbsde.backward_self_s": ("s", "fbsde.backward", "self"),
    "fbsde.stratum_of_s": ("s", "fbsde.stratum_of", "total"),
    "fbsde.ensemble_mb": ("MB", "fbsde.forward", "peak"),
}


class Tracer:
    """In-memory span recorder; one per traced run."""

    def __init__(self) -> None:
        # each span: [name, start, end, parent index or -1, command, size]
        self.spans: list[list] = []
        self.command = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        rec = [name, time.perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, self.command, 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _wrap(self, fn, name: str, size):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if size is not None:
                rec[5] = size(args, result)
            return result
        return traced

    def install(self) -> None:
        for owner_path, attr, name, size in PATCHES:
            module_name, _, class_name = owner_path.partition(":")
            owner = importlib.import_module(module_name)
            if class_name:
                owner = getattr(owner, class_name)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, size))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("name", "start", "end", "parent", "command", "size")
        with open(path, "w") as fh:
            json.dump([dict(zip(keys, s)) for s in self.spans], fh)

    def layer_metrics(self, cycles: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per cycle, as {name: (value, unit)}."""
        stats: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        for i, (name, start, end, _, _, size) in enumerate(self.spans):
            st = stats[name]
            st["count"] += 1
            st["total"] += end - start
            st["self"] += end - start - child[i]
            st["points"] += size
            st["peak"] = max(st["peak"], size)
        out = {}
        for metric, (unit, names, stat) in LAYER_METRICS.items():
            names = (names,) if isinstance(names, str) else names
            value = sum(stats[n][stat] for n in names)
            out[metric] = (value if stat == "peak" else value / cycles, unit)
        return out

