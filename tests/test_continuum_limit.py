"""The shallow problem's continuum limit in closed form.

For eta0 = 1, F = p^2/2 - p x + z on the window [-1/2, 1/2], the obstacle
phi = (x^2 - 1)/3 and rho+- = 1.5 = 1/phi''(+-1), the limit minimizer has
v*' = clip(2x, -1/3, 1/3): it bunches on 1/6 <= |x| <= 1/2, where it follows
the obstacle's slope at the window edge.  So

    v* = x^2 - 7/18                        for |x| <= 1/6,
    v* = -13/36 + (|x| - 1/6)/3            for 1/6 <= |x| <= 1/2,
    J* = -119/324,

and eps * w tends to the multiplier mu = (|x| - 1/6)_+^2, from mu'' = 2 - v*''
with mu = 0 where v*'' > 0.  The `bounds.json` quantities have exact limits:
eps * max w -> max mu = 1/9, min u''/eps -> 1/max mu = 9 and
eps * int 1/u'' -> int mu = 2/81.

The discrete constraint at a window edge compares the first free slope with
the chord slope of the pinned cell, phi'(a) - h phi''(a)/2, so every gap to
the limit is first order in h.  With that widened slope the limit is

    v_h*' = clip(2x, -(1 + h)/3, (1 + h)/3),
    v_h* = x^2 + C for |x| <= (1 + h)/6, with C from v_h*(+-1/2) = -1/4,

and both the scheme's last stage and the oracle lie within 3e-4 of it.  The
convex-cone oracle has the same first-order error against v*, and its J_h
lies below J*, by about 0.075 h: the discrete cone relaxes the continuum
one.  Its KKT residual is not checked here: the
barrier misses `kkt_tol` when constraints bind, a known defect.
"""

import functools

import numpy as np
import pytest
from helpers import SHALLOW_PHI, monopolist_setup

from abreu1d.diagnostics import compute_report
from abreu1d.minimizer import ConeProblem, minimize_direct
from abreu1d.solver import continuation_sweep, default_eps_schedule, eval_J

GRID_SIZES = (32, 64, 128)
STAGES = 27  # eps = 0.1 * 2^-k down to 1.5e-9
J_STAR = -119.0 / 324.0


def v_star(x):
    ax = np.abs(x)
    return np.where(ax <= 1.0 / 6.0, x * x - 7.0 / 18.0, -13.0 / 36.0 + (ax - 1.0 / 6.0) / 3.0)


def v_star_h(x, h):
    """v*, with the slope bound 1/3 widened to the pinned cell's chord slope (1 + h)/3."""
    s = (1.0 + h) / 3.0
    c = -0.25 - s / 2.0 + s * s / 4.0
    ax = np.abs(x)
    return np.where(ax <= s / 2.0, x * x + c, s * s / 4.0 + c + s * (ax - s / 2.0))


def mu(x):
    return np.maximum(np.abs(x) - 1.0 / 6.0, 0.0) ** 2


@functools.cache
def shallow_sweep(n):
    setup = monopolist_setup(n=n, eps=0.1, phi=SHALLOW_PHI, rho=1.5)
    return continuation_sweep(setup, default_eps_schedule(stages=STAGES))


@functools.cache
def shallow_oracle(n):
    setup = monopolist_setup(n=n, eps=0.1, phi=SHALLOW_PHI, rho=1.5)
    return setup, minimize_direct(ConeProblem(grid=setup.grid, lagrangian=setup.lagrangian,
                                              phi=setup.phi))


def _window_sup(values, setup):
    return float(np.max(np.abs(values[setup.grid.window_slice()])))


# gap of the last stage to its limit, as a function of (setup, result)
GAPS = {
    "sup_u_minus_v_star": lambda s, r: _window_sup(r.u - v_star(s.grid.nodes), s),
    "sup_eps_w_minus_mu": lambda s, r: _window_sup(s.eps * r.w - mu(s.grid.nodes), s),
    "J_minus_J_star": lambda s, r: eval_J(r.u, s.grid, s.lagrangian) - J_STAR,
    "eps_max_w": lambda s, r: s.eps * compute_report(r, s).max_w_ab - 1.0 / 9.0,
    "min_upp_over_eps": lambda s, r: compute_report(r, s).min_upp_ab / s.eps - 9.0,
    "eps_int_inv_upp": lambda s, r: s.eps * compute_report(r, s).int_inv_upp - 2.0 / 81.0,
}

# the oracle's gaps, as a function of (setup, minimize_direct result)
ORACLE_GAPS = {
    "sup_v_minus_v_star": lambda s, r: _window_sup(r.v - v_star(s.grid.nodes), s),
    "J_minus_J_star": lambda s, r: r.J_value - J_STAR,
}


def test_closed_form_is_the_shallow_obstacle_at_the_window_edge():
    x = np.array([-0.5, -1.0 / 6.0, 0.0, 1.0 / 6.0, 0.5])
    phi = np.polynomial.polynomial.polyval(x, SHALLOW_PHI)
    np.testing.assert_allclose(v_star(x), [phi[0], -13.0 / 36.0, -7.0 / 18.0, -13.0 / 36.0, phi[-1]],
                               rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(mu(x), [1.0 / 9.0, 0.0, 0.0, 0.0, 1.0 / 9.0], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("n", GRID_SIZES)
def test_every_stage_converges(n):
    stages = shallow_sweep(n)
    assert len(stages) == STAGES
    assert all(result.converged for _, result in stages)


@pytest.mark.parametrize("name", GAPS)
def test_gap_to_the_limit_is_first_order_in_h(name):
    gaps = [abs(GAPS[name](*shallow_sweep(n)[-1])) for n in GRID_SIZES]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.7 * fine <= coarse, gaps


@pytest.mark.parametrize("name", ORACLE_GAPS)
def test_oracle_gap_to_the_limit_is_first_order_in_h(name):
    gaps = [abs(ORACLE_GAPS[name](*shallow_oracle(n))) for n in GRID_SIZES]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.7 * fine <= coarse, gaps


@pytest.mark.parametrize("n", GRID_SIZES)
def test_oracle_functional_lies_below_the_limit_by_a_first_order_term(n):
    setup, result = shallow_oracle(n)
    gap = result.J_value - J_STAR
    assert gap < 0.0
    assert -0.08 <= gap / setup.grid.h <= -0.07, gap / setup.grid.h


def test_widened_slope_closed_form():
    # v* at h = 0; the obstacle's values at the window edges; C^1 at the kink
    x = np.linspace(-0.5, 0.5, 101)
    np.testing.assert_allclose(v_star_h(x, 0.0), v_star(x), rtol=0.0, atol=1e-15)
    for h in (1.0 / 16.0, 1.0 / 64.0):
        s = (1.0 + h) / 3.0
        np.testing.assert_allclose(v_star_h(np.array([-0.5, 0.5]), h), [-0.25, -0.25],
                                   rtol=0.0, atol=1e-15)
        kink = s / 2.0
        left, right = v_star_h(np.array([kink - 1e-7, kink + 1e-7]), h)
        assert (right - left) / 2e-7 == pytest.approx(s, rel=1e-6)


@pytest.mark.parametrize("n", GRID_SIZES)
@pytest.mark.parametrize("solver", ["scheme", "oracle"])
def test_gap_to_the_widened_slope_limit(n, solver):
    if solver == "scheme":
        setup, result = shallow_sweep(n)[-1]
        u = result.u
    else:
        setup, result = shallow_oracle(n)
        u = result.v
    x = setup.grid.nodes
    gap = _window_sup(u - v_star_h(x, setup.grid.h), setup)
    unwidened = _window_sup(u - v_star(x), setup)
    assert gap <= 3e-4, gap
    assert 10.0 * gap <= unwidened, (gap, unwidened)
