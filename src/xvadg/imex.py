"""Implicit-explicit Runge-Kutta marching for the semidiscrete system.

The LDG semidiscretization yields  M du/dtau = L u + E(u, tau)  with M the
diagonal mass matrix, L the whole stiff linear operator (diffusion,
convection and the zeroth-order term) and E = -M F the collocated driver.
Both schemes here treat L implicitly and E explicitly, and both place
*every* implicit stage at the same coefficient delta*gamma, so a single
banded LAPACK factorization of (M - delta*gamma*L) serves the entire march.

Second order (two implicit stages, stage times tau, tau+gamma*delta):

    (M - dg L) u1 = M u + dg E(u, tau),                      dg = delta*gamma
    (M - dg L) u2 = M u + delta [ (1-gamma) L u1
                                  + kappa E(u, tau) + (1-kappa) E(u1, .) ]

with gamma = 1 - sqrt(2)/2 and kappa = 1 - 1/(2 gamma); u2 is the new value.

Third order (three implicit stages at c = gamma, (1+gamma)/2, 1, then an
explicit mass-solved combination):

    (M - dg L) u1 = M u + dg E0
    (M - dg L) u2 = M u + delta [ (1-g)/2 L u1 + ((1+g)/2 - a1) E0 + a1 E1 ]
    (M - dg L) u3 = M u + delta [ b1 L u1 + b2 L u2 + (1-a2) E1 + a2 E2 ]
    M u+ = M u + delta [ b1 L u1 + b2 L u2 + g L u3 + b1 E1 + b2 E2 + g E3 ]

where g is the root 1767732205903/4055673282236 of the stability cubic and
b1, b2, a1, a2 are fixed by the order conditions (b1 + b2 + g = 1).  The
explicit weights of the final combination also sum to one, so a steady
state of the stage equations is preserved exactly.

``SCHEMES`` holds each pair as one row of a table, and :func:`step` is the
one algorithm over a row.  Stage k of the step from tau is evaluated at
``tau + c_k * delta``; :func:`stage_times` runs the same arithmetic over a
whole march, so a caller can prepare what each stage time needs before the
march starts.  Third order has c = 1 last (Ascher, Ruuth & Spiteri, Appl.
Numer. Math. 25, 1997): its last stage time is the next step's first, bit
for bit, and a march of n steps meets 3n + 1 distinct stage times in 4n
evaluations; second order meets 2n in 2n.

A step takes the state as an (N,) vector or as a (B, N) array whose B
rows are independent scenarios sharing M, L and the time grid (the solver
marches every PDE this way, B = 1 for a single solve); ``mass`` is the
(N,) diagonal either way, broadcast along the rows, and every stage is one
solve with B right-hand sides and one explicit evaluation over all rows.

The step count is a resolution rule, as convection is implicit and no CFL
condition applies: delta* = cfl * h / ((2 degree + 1) |speed| s_max) refines
time with space, and steps = max(floor(horizon/delta*), max(4, cells // 10)).
The floor is all that remains when the convection speed vanishes, and it
keeps the count from collapsing as the speed goes to 0.  A count above
``MAX_STEPS`` is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .ldg import Mesh

# second-order pair
GAMMA2 = 1.0 - math.sqrt(2.0) / 2.0
KAPPA2 = 1.0 - 1.0 / (2.0 * GAMMA2)

# third-order pair
GAMMA3 = 1767732205903.0 / 4055673282236.0
BETA1 = -1.5 * GAMMA3 ** 2 + 4.0 * GAMMA3 - 0.25
BETA2 = 1.5 * GAMMA3 ** 2 - 5.0 * GAMMA3 + 1.25
ALPHA1 = -0.35
ALPHA2 = (1.0 / 3.0 - 2.0 * GAMMA3 ** 2 - 2.0 * BETA2 * ALPHA1 * GAMMA3) \
    / (GAMMA3 * (1.0 - GAMMA3))

_C3 = 0.5 * (1.0 + GAMMA3)   # third order's middle stage abscissa

#: most steps a time grid may have: a march builds its stage schedule and
#: the drivers' per-time arrays over every stage time before its first
#: step, so its memory grows with the count, and a count far above any
#: tested one is refused before any work
MAX_STEPS = 1_000_000


class Scheme(NamedTuple):
    """One IMEX pair; its first stage is (M - dg L) u1 = M u + dg E0."""

    gamma: float
    c: tuple[float, ...]          # explicit stage abscissae
    stages: tuple                 # each later stage: (weights on L u1.., on E0..)
    b: tuple[float, ...] | None   # on L u_k + E_k; None: u_k is the new value


#: scheme order -> its pair
SCHEMES = {
    2: Scheme(GAMMA2, (0.0, GAMMA2),
              (((1.0 - GAMMA2,), (KAPPA2, 1.0 - KAPPA2)),), None),
    3: Scheme(GAMMA3, (0.0, GAMMA3, _C3, 1.0),
              (((0.5 * (1.0 - GAMMA3),), (_C3 - ALPHA1, ALPHA1)),
               ((BETA1, BETA2), (0.0, 1.0 - ALPHA2, ALPHA2))),
              (BETA1, BETA2, GAMMA3)),
}


def _scheme(order: int) -> Scheme:
    if order not in SCHEMES:
        raise ValueError(f"unsupported scheme order {order}")
    return SCHEMES[order]


def implicit_coefficient(order: int) -> float:
    """The shared stage coefficient gamma multiplying delta in every solve."""
    return _scheme(order).gamma


@dataclass(frozen=True)
class TimeGrid:
    steps: int
    delta: float
    cfl: float    # Courant number of the step: delta (2 degree + 1) |speed| s_max / h


def select_time_grid(mesh: Mesh, degree: int, speed: float, horizon: float,
                     cfl: float = 0.5) -> TimeGrid:
    """Uniform steps at the Courant number ``cfl``, so delta is proportional
    to the mesh width, never fewer than max(4, cells // 10).  More than
    ``MAX_STEPS`` steps raise ``ValueError``."""
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    scale = (2.0 * degree + 1.0) * abs(speed) * mesh.s_max
    steps = max(4, mesh.cells // 10)
    if scale > 0.0:
        limit = cfl * mesh.width / scale
        steps = max(steps, math.floor(horizon / limit))
    if steps > MAX_STEPS:
        raise ValueError(
            f"the time grid needs {steps} steps, more than MAX_STEPS = {MAX_STEPS}; "
            f"lower the convection speed |sigma^2 - drift| ({abs(speed):g}), the "
            f"cells, the degree or the maturity")
    delta = horizon / steps
    return TimeGrid(steps=steps, delta=delta, cfl=delta * scale / mesh.width)


ExplicitFn = Callable[[np.ndarray, float], np.ndarray]
ApplyFn = Callable[[np.ndarray], np.ndarray]


def stage_times(order: int, grid: TimeGrid) -> list[float]:
    """The distinct explicit stage times of a march of ``grid.steps`` steps
    from tau = 0, in the order the steps meet them, with the arithmetic of
    the steps (``tau + c * delta``) and of a march loop that advances
    ``tau += delta``."""
    times: dict = {}
    tau = 0.0
    for _ in range(grid.steps):
        times.update(dict.fromkeys(tau + c * grid.delta for c in _scheme(order).c))
        tau += grid.delta
    return list(times)


def _weighted(weights, terms) -> np.ndarray:
    """sum_k w_k * term_k, left to right; a zero weight adds no term."""
    products = [w * t for w, t in zip(weights, terms) if w != 0.0]
    return sum(products[1:], products[0])


def step(order: int, u: np.ndarray, tau: float, delta: float, mass: np.ndarray,
         apply_l: ApplyFn, solve_shifted: ApplyFn,
         explicit_fn: ExplicitFn) -> np.ndarray:
    """Advance one step of the pair of ``order`` on (N,) or (B, N) states,
    with ``mass`` the (N,) diagonal of M; ``solve_shifted`` must solve
    (M - delta*gamma*L) x = rhs row by row."""
    pair = _scheme(order)
    times = [tau + c * delta for c in pair.c]
    base = mass * u
    es = [explicit_fn(u, times[0])]
    x = solve_shifted(base + delta * pair.gamma * es[0])
    ls = []
    for l_weights, e_weights in pair.stages:
        ls.append(apply_l(x))
        es.append(explicit_fn(x, times[len(es)]))
        x = solve_shifted(base + delta * _weighted(l_weights + e_weights, ls + es))
    if pair.b is None:
        return x
    ls.append(apply_l(x))
    es.append(explicit_fn(x, times[len(es)]))
    return (base + delta * _weighted(pair.b, [l + e for l, e in zip(ls, es[1:])])) / mass
