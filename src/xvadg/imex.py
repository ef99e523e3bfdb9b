"""Implicit-explicit Runge-Kutta marching for the semidiscrete system.

The LDG semidiscretization yields  M du/dtau = L u + E(u, tau)  with M the
diagonal mass matrix, L the stiff composed diffusion operator and E the
nonstiff remainder (convection plus collocated source).  Both schemes here
treat L implicitly and E explicitly, and both place *every* implicit stage
at the same coefficient delta*gamma, so a single banded LAPACK factorization
of (M - delta*gamma*L) serves the entire march.

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

Both steps read their explicit stage times off one table,
``STAGE_OFFSETS``: stage k of the step from tau is evaluated at
``tau + c_k * delta``.  :func:`stage_times` runs the same arithmetic over a
whole march, so a caller can prepare what each stage time needs before the
march starts.  Third order is stiffly accurate (c = 1 last; Ascher, Ruuth
& Spiteri, Appl. Numer. Math. 25, 1997): its last stage time is the next
step's first, bit for bit, and a march of n steps meets 3n + 1 distinct
stage times in 4n evaluations; second order meets 2n in 2n.

The steps take the state as an (N,) vector or as an (N, B) array whose B
columns are independent scenarios sharing M, L and the time grid (the
solver batches the scenarios of a parameter sweep this way); ``mass`` is
then the (N, 1) column of the diagonal, and every stage is one solve with
B right-hand sides and one explicit evaluation over all columns.

The step count comes from the explicit CFL bound of the convection part,
delta* = cfl * h / ((2 degree + 1) |speed| s_max), and is bounded below by
a mild resolution floor: steps = max(floor(horizon/delta*), max(4,
cells // 10)).  The floor is all that remains when the convection speed
vanishes, and it keeps the count from collapsing as the speed goes to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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

#: scheme order -> the explicit stage abscissae c: the step from tau
#: evaluates its explicit part at the stage times tau + c * delta, in order
STAGE_OFFSETS = {2: (0.0, GAMMA2), 3: (0.0, GAMMA3, 0.5 * (1.0 + GAMMA3), 1.0)}


def implicit_coefficient(order: int) -> float:
    """The shared stage coefficient gamma multiplying delta in every solve."""
    if order == 2:
        return GAMMA2
    if order == 3:
        return GAMMA3
    raise ValueError(f"unsupported scheme order {order}")


@dataclass(frozen=True)
class TimeGrid:
    steps: int
    delta: float
    cfl: float    # of the chosen step: delta (2 degree + 1) |speed| s_max / h


def select_time_grid(mesh: Mesh, degree: int, speed: float, horizon: float,
                     cfl: float = 0.5) -> TimeGrid:
    """Uniform step count from the explicit convection stability bound,
    never below the resolution floor max(4, cells // 10)."""
    if not horizon > 0.0:
        raise ValueError("horizon must be positive")
    scale = (2.0 * degree + 1.0) * abs(speed) * mesh.s_max
    steps = max(4, mesh.cells // 10)
    if scale > 0.0:
        limit = cfl * mesh.width / scale
        steps = max(steps, math.floor(horizon / limit))
    delta = horizon / steps
    return TimeGrid(steps=steps, delta=delta, cfl=delta * scale / mesh.width)


ExplicitFn = Callable[[np.ndarray, float], np.ndarray]
ApplyFn = Callable[[np.ndarray], np.ndarray]


def _stage_times(order: int, tau: float, delta: float) -> list[float]:
    """The explicit stage times of the step of ``order`` from ``tau``."""
    return [tau + c * delta for c in STAGE_OFFSETS[order]]


def stage_times(order: int, grid: TimeGrid) -> list[float]:
    """The distinct explicit stage times of a march of ``grid.steps`` steps
    from tau = 0, in the order the steps meet them, with the arithmetic of
    the steps (``tau + c * delta``) and of a march loop that advances
    ``tau += delta``."""
    times: dict = {}
    tau = 0.0
    for _ in range(grid.steps):
        times.update(dict.fromkeys(_stage_times(order, tau, grid.delta)))
        tau += grid.delta
    return list(times)


def step_order2(u: np.ndarray, tau: float, delta: float, mass: np.ndarray,
                apply_l: ApplyFn, solve_shifted: ApplyFn,
                explicit_fn: ExplicitFn) -> np.ndarray:
    """Advance one step of the second-order pair on (N,) or (N, B) states.

    ``solve_shifted`` must solve (M - delta*GAMMA2*L) x = rhs.
    """
    g = GAMMA2
    t0, t1 = _stage_times(2, tau, delta)
    e0 = explicit_fn(u, t0)
    base = mass * u
    u1 = solve_shifted(base + delta * g * e0)
    lu1 = apply_l(u1)
    e1 = explicit_fn(u1, t1)
    rhs = base + delta * ((1.0 - g) * lu1 + KAPPA2 * e0 + (1.0 - KAPPA2) * e1)
    return solve_shifted(rhs)


def step_order3(u: np.ndarray, tau: float, delta: float, mass: np.ndarray,
                apply_l: ApplyFn, solve_shifted: ApplyFn,
                explicit_fn: ExplicitFn) -> np.ndarray:
    """Advance one step of the third-order pair on (N,) or (N, B) states.

    ``solve_shifted`` must solve (M - delta*GAMMA3*L) x = rhs.
    """
    g = GAMMA3
    c2 = STAGE_OFFSETS[3][2]
    t0, t1, t2, t3 = _stage_times(3, tau, delta)
    base = mass * u
    e0 = explicit_fn(u, t0)
    u1 = solve_shifted(base + delta * g * e0)
    l1 = apply_l(u1)
    e1 = explicit_fn(u1, t1)

    rhs2 = base + delta * (0.5 * (1.0 - g) * l1
                           + (c2 - ALPHA1) * e0 + ALPHA1 * e1)
    u2 = solve_shifted(rhs2)
    l2 = apply_l(u2)
    e2 = explicit_fn(u2, t2)

    rhs3 = base + delta * (BETA1 * l1 + BETA2 * l2
                           + (1.0 - ALPHA2) * e1 + ALPHA2 * e2)
    u3 = solve_shifted(rhs3)
    l3 = apply_l(u3)
    e3 = explicit_fn(u3, t3)

    acc = base + delta * (BETA1 * (l1 + e1) + BETA2 * (l2 + e2) + g * (l3 + e3))
    return acc / mass


def step(order: int, u: np.ndarray, tau: float, delta: float, mass: np.ndarray,
         apply_l: ApplyFn, solve_shifted: ApplyFn,
         explicit_fn: ExplicitFn) -> np.ndarray:
    if order == 2:
        return step_order2(u, tau, delta, mass, apply_l, solve_shifted, explicit_fn)
    if order == 3:
        return step_order3(u, tau, delta, mass, apply_l, solve_shifted, explicit_fn)
    raise ValueError(f"unsupported scheme order {order}")
