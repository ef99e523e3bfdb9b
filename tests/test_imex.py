"""Time integrator: tableau identities and order conditions, CFL step
selection, measured temporal convergence orders, affinity, steady-state
preservation, the table-driven step against the hand-written steps, and
dispatch."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kernels_reference import step_order2, step_order3
from xvadg.imex import (ALPHA1, ALPHA2, BETA1, BETA2, GAMMA2, GAMMA3, KAPPA2,
                        MAX_STEPS, SCHEMES, TimeGrid, implicit_coefficient,
                        select_time_grid, stage_times, step)
from xvadg.ldg import Mesh


def test_second_order_tableau_identities():
    assert GAMMA2 == pytest.approx(1.0 - math.sqrt(2.0) / 2.0, abs=1e-16)
    assert KAPPA2 == pytest.approx(1.0 - 1.0 / (2.0 * GAMMA2), abs=1e-15)
    # order-2 conditions: implicit weights (1-g, g) at stage times (g, 1),
    # explicit weights (kappa, 1-kappa) at (0, g)
    assert (1.0 - GAMMA2) * GAMMA2 + GAMMA2 * 1.0 == pytest.approx(0.5, abs=1e-15)
    assert (1.0 - KAPPA2) * GAMMA2 == pytest.approx(0.5, abs=1e-15)


def test_third_order_tableau_identities():
    g = GAMMA3
    # g is the relevant root of the L-stability cubic
    assert 6.0 * g ** 3 - 18.0 * g ** 2 + 9.0 * g - 1.0 == pytest.approx(0.0, abs=1e-13)
    assert BETA1 == pytest.approx(-1.5 * g ** 2 + 4.0 * g - 0.25, abs=1e-16)
    assert BETA2 == pytest.approx(1.5 * g ** 2 - 5.0 * g + 1.25, abs=1e-16)
    assert BETA1 + BETA2 + g == pytest.approx(1.0, abs=1e-14)
    assert ALPHA1 == -0.35
    assert ALPHA2 == pytest.approx(
        (1.0 / 3.0 - 2.0 * g ** 2 - 2.0 * BETA2 * ALPHA1 * g) / (g * (1.0 - g)),
        abs=1e-16)
    # third-order quadrature conditions of the shared weights b = (0, b1, b2, g)
    # on the stage abscissae c = (0, g, (1+g)/2, 1)
    c = np.array([0.0, g, 0.5 * (1.0 + g), 1.0])
    b = np.array([0.0, BETA1, BETA2, g])
    assert b @ c == pytest.approx(0.5, abs=1e-14)
    assert b @ c ** 2 == pytest.approx(1.0 / 3.0, abs=1e-14)


def test_implicit_coefficient_dispatch():
    assert implicit_coefficient(2) == GAMMA2
    assert implicit_coefficient(3) == GAMMA3
    with pytest.raises(ValueError, match="order"):
        implicit_coefficient(4)


def test_select_time_grid_reproduces_reference_counts():
    # benchmark convection speed sigma^2 - drift with the default CFL 0.5;
    # 10 and 20 cells sit on the floor max(4, cells // 10), not the CFL count
    speed = 0.3 ** 2 - 0.06
    for cells, steps in ((10, 4), (20, 4), (40, 7), (80, 14), (160, 28),
                         (320, 57), (640, 115), (1280, 230)):
        grid = select_time_grid(Mesh(s_max=60.0, cells=cells), 1, speed, 1.0)
        assert grid.steps == steps
        assert grid.delta == pytest.approx(1.0 / steps)
        assert grid.cfl == pytest.approx(3.0 * speed * 60.0 * grid.delta * cells / 60.0)
        assert grid.cfl <= 0.5 * (steps + 1) / steps


@pytest.mark.parametrize("cells", [10, 20, 80, 160, 1280])
@pytest.mark.parametrize("degree", [1, 2])
def test_step_count_does_not_collapse_at_small_speed(cells, degree):
    mesh = Mesh(s_max=60.0, cells=cells)
    at_zero = select_time_grid(mesh, degree, 0.0, 1.0).steps
    assert at_zero == max(4, cells // 10)
    for speed in (1e-4, -1e-4, 1e-2, -1e-2):
        assert select_time_grid(mesh, degree, speed, 1.0).steps >= at_zero


def test_select_time_grid_edge_cases():
    mesh = Mesh(s_max=60.0, cells=80)
    assert select_time_grid(mesh, 1, 0.0, 1.0).steps == 8
    assert select_time_grid(Mesh(s_max=60.0, cells=20), 1, 0.0, 1.0).steps == 4
    with pytest.raises(ValueError, match="horizon"):
        select_time_grid(mesh, 1, 0.03, 0.0)
    assert isinstance(select_time_grid(mesh, 2, 0.03, 1.0), TimeGrid)


def test_select_time_grid_refuses_more_than_max_steps():
    # at zero speed the count is the floor cells // 10, so the boundary is exact
    assert MAX_STEPS == 1_000_000
    mesh = Mesh(s_max=60.0, cells=10 * MAX_STEPS)
    assert select_time_grid(mesh, 1, 0.0, 1.0).steps == MAX_STEPS
    with pytest.raises(ValueError, match=f"needs {MAX_STEPS + 1} steps, more than "
                                         f"MAX_STEPS = {MAX_STEPS}"):
        select_time_grid(Mesh(s_max=60.0, cells=10 * MAX_STEPS + 10), 1, 0.0, 1.0)
    # sigma 100 at 160 cells once asked for 9,599,942 steps
    with pytest.raises(ValueError, match="needs 9599942 steps"):
        select_time_grid(Mesh(s_max=60.0, cells=160), 1, 100.0 ** 2 - 0.06, 1.0)


def _scalar_march(order, steps, lam, mu, forced):
    """March u' = lam*u + mu*u + forcing with lam implicit."""
    delta = 1.0 / steps
    g = implicit_coefficient(order)
    mass = np.array([1.0])
    apply_l = lambda u: lam * u
    solve = lambda rhs: rhs / (1.0 - delta * g * lam)
    if forced:
        explicit = lambda u, tau: mu * u + np.cos(tau)
    else:
        explicit = lambda u, tau: mu * u
    u = np.array([1.0])
    for i in range(steps):
        u = step(order, u, i * delta, delta, mass, apply_l, solve, explicit)
    return float(u[0])


def _scalar_exact(lam, mu, forced, horizon=1.0):
    a = lam + mu
    base = math.exp(a * horizon)
    if not forced:
        return base
    integral = (math.sin(horizon) - a * math.cos(horizon)
                + a * math.exp(a * horizon)) / (1.0 + a * a)
    return base + integral


@pytest.mark.parametrize("order", [2, 3])
def test_measured_temporal_order(order):
    # nonautonomous forcing exercises the stage abscissae, an exact solution
    # pins the error; the observed order matches the design order
    lam, mu = -2.0, 0.5
    exact = _scalar_exact(lam, mu, forced=True)
    errs = [abs(_scalar_march(order, n, lam, mu, True) - exact)
            for n in (16, 32, 64)]
    eoc = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    assert np.all(np.abs(eoc - order) < 0.12), eoc


@pytest.mark.parametrize("order", [2, 3])
def test_step_is_affine_in_the_state(order):
    rng = np.random.default_rng(31)
    n = 12
    a = rng.standard_normal((n, n))
    lmat = -(a @ a.T) - np.eye(n)
    mass = rng.uniform(0.5, 2.0, n)
    delta = 0.07
    g = implicit_coefficient(order)
    import scipy.linalg as sla
    system = np.diag(mass) - delta * g * lmat
    lu = sla.lu_factor(system)
    solve = lambda rhs: sla.lu_solve(lu, rhs)
    apply_l = lambda u: lmat @ u
    forcing = rng.standard_normal(n)
    explicit = lambda u, tau: 0.3 * u + forcing
    u = rng.standard_normal(n)
    v = rng.standard_normal(n)
    s_u = step(order, u, 0.0, delta, mass, apply_l, solve, explicit)
    s_v = step(order, v, 0.0, delta, mass, apply_l, solve, explicit)
    s_0 = step(order, np.zeros(n), 0.0, delta, mass, apply_l, solve, explicit)
    mixed = step(order, 0.25 * u + 1.5 * v, 0.0, delta, mass, apply_l, solve,
                 explicit)
    assert np.allclose(mixed, 0.25 * s_u + 1.5 * s_v + (1.0 - 0.25 - 1.5) * s_0,
                       atol=1e-11)


@pytest.mark.parametrize("order", [2, 3])
def test_steady_state_is_preserved_exactly(order):
    # if L u* + E(u*) = 0 with autonomous E, every stage equation is
    # satisfied by u*, and the final combination's unit weight sum keeps it
    rng = np.random.default_rng(4)
    n = 10
    a = rng.standard_normal((n, n))
    lmat = -(a @ a.T) - 0.5 * np.eye(n)
    mass = rng.uniform(0.5, 2.0, n)
    u_star = rng.standard_normal(n)
    forcing = -(lmat @ u_star)
    delta = 0.2
    g = implicit_coefficient(order)
    import scipy.linalg as sla
    lu = sla.lu_factor(np.diag(mass) - delta * g * lmat)
    solve = lambda rhs: sla.lu_solve(lu, rhs)
    apply_l = lambda u: lmat @ u
    explicit = lambda u, tau: forcing
    out = step(order, u_star, 0.3, delta, mass, apply_l, solve, explicit)
    assert np.allclose(out, u_star, atol=1e-12)
    # pure identity: no operator, no source, any mass
    out = step(order, u_star, 0.0, delta, mass,
               lambda u: 0.0 * u, lambda rhs: rhs / mass,
               lambda u, tau: 0.0 * u)
    assert np.allclose(out, u_star, atol=1e-14)


@pytest.mark.parametrize("order", [2, 3])
def test_steps_meet_exactly_the_stage_schedule(order):
    # a spy explicit part sees, step by step, the stage times tau + c delta
    # of the scheme table, and over a march that advances tau += delta
    # exactly the distinct times of the schedule, in its order; third
    # order's last stage time is the next step's first, bit for bit
    grid = select_time_grid(Mesh(s_max=60.0, cells=160), order - 1, 0.03, 1.0)
    met = []

    def spy(u, tau):
        met.append(tau)
        return 0.0 * u

    g = implicit_coefficient(order)
    u, tau = np.ones(3), 0.0
    for _ in range(grid.steps):
        u = step(order, u, tau, grid.delta, np.ones(3), lambda v: -v,
                 lambda rhs: rhs / (1.0 + grid.delta * g), spy)
        tau += grid.delta
    stages = len(SCHEMES[order].c)
    assert len(met) == stages * grid.steps
    per_step = [met[k:k + stages] for k in range(0, len(met), stages)]
    assert per_step[0] == [c * grid.delta for c in SCHEMES[order].c]
    schedule = stage_times(order, grid)
    assert list(dict.fromkeys(met)) == schedule
    if order == 2:
        assert len(schedule) == 2 * grid.steps
    else:
        assert len(schedule) == 3 * grid.steps + 1
        assert all(a[-1] == b[0] for a, b in zip(per_step, per_step[1:]))


def _recording_parts(n, delta, order):
    """A fixed linear L, the diagonal solve of (M - delta*gamma*L') for a
    diagonal L', and an explicit part nonlinear in the state and in tau;
    every call is appended to the returned log with its argument's bits."""
    log = []
    lmat = -2.0 * np.eye(n) + np.eye(n, k=1) + 0.5 * np.eye(n, k=-1)
    shift = 1.0 + delta * implicit_coefficient(order) * np.linspace(1.0, 2.0, n)

    def apply_l(v):
        log.append(("L", v.shape, v.tobytes()))
        return v @ lmat.T

    def solve_shifted(rhs):
        log.append(("S", rhs.shape, rhs.tobytes()))
        return rhs / shift

    def explicit_fn(v, tau):
        log.append(("E", tau, v.tobytes()))
        return np.sin(v) * np.cos(3.0 * tau) + 0.3 * v * v * tau - np.exp(-tau)

    return apply_l, solve_shifted, explicit_fn, log


@given(order=st.sampled_from([2, 3]), n=st.integers(1, 9),
       width=st.sampled_from([None, 1, 3]), seed=st.integers(0, 2 ** 16),
       tau=st.floats(0.0, 3.0), delta=st.floats(1e-4, 0.5))
def test_table_step_equals_the_hand_written_steps_bitwise(order, n, width, seed, tau,
                                                          delta):
    # one algorithm over the scheme table gives the hand-written steps' bits,
    # meets their stage times and calls L, the solve and E in their order on
    # the same bits, on (n,) states and on (width, n) batches under the (n,)
    # mass diagonal; states spanning eight decades keep M u from absorbing
    # the rounding of the delta terms
    rng = np.random.default_rng(seed)
    shape = (n,) if width is None else (width, n)
    u = rng.standard_normal(shape) * 10.0 ** rng.uniform(-8.0, 0.0, shape)
    mass = rng.uniform(0.5, 2.0, n)
    direct = step_order2 if order == 2 else step_order3
    *got_parts, got_log = _recording_parts(n, delta, order)
    *want_parts, want_log = _recording_parts(n, delta, order)
    got = step(order, u, tau, delta, mass, *got_parts)
    want = direct(u, tau, delta, mass, *want_parts)
    assert got.shape == shape
    assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert got_log == want_log


def test_step_dispatch_and_determinism():
    rng = np.random.default_rng(9)
    n = 6
    mass = np.ones(n)
    lmat = -np.eye(n)
    delta = 0.1
    u = rng.standard_normal(n)
    for order, direct in ((2, step_order2), (3, step_order3)):
        g = implicit_coefficient(order)
        solve = lambda rhs: rhs / (1.0 + delta * g)
        apply_l = lambda v: lmat @ v
        explicit = lambda v, tau: np.sin(tau) + 0.0 * v
        a = step(order, u, 0.2, delta, mass, apply_l, solve, explicit)
        b = direct(u, 0.2, delta, mass, apply_l, solve, explicit)
        c = step(order, u, 0.2, delta, mass, apply_l, solve, explicit)
        assert np.array_equal(a, b)
        assert np.array_equal(a, c)
    with pytest.raises(ValueError, match="order"):
        step(4, u, 0.0, delta, mass, lambda v: v, lambda r: r, lambda v, t: v)
