"""The shallow problem's continuum limit in closed form, on any window.

For eta0 = 1, F = p^2/2 - p x + z on a window [a, b] with centre
c = (a + b)/2 and width w = b - a, the obstacle phi = (x^2 - 1)/3 and
rho+- = 1.5 = 1/phi''(+-1), the limit minimizer has

    v*' = clip(2x - 4c/3, 2a/3, 2b/3) = 2c/3 + clip(2(x - c), -w/3, w/3):

it bunches on w/6 <= |x - c| <= w/2, where it follows the obstacle's slope
at the nearer window edge, and the shift 4c/3 makes v*(b) = phi(b).  So

    v* = phi(a) + 2c (x - a)/3 + (x - c)^2 - 5 w^2/36     for |x - c| <= w/6,
    v* = phi(a) + 2c (x - a)/3 + w |x - c|/3 - w^2/6      for |x - c| >= w/6,

and eps * w tends to the multiplier mu = (|x - c| - w/6)_+^2, from
mu'' = 2 - v*'' with mu = 0 where v*'' > 0.  The `bounds.json` quantities
have exact limits: eps * max w -> max mu = (w/3)^2, min u''/eps -> (3/w)^2
and eps * int 1/u'' -> int mu = 2 w^3/81.  On [-1/2, 1/2] that is
v*' = clip(2x, -1/3, 1/3), J* = -119/324 and the limits 1/9, 9 and 2/81.

The discrete constraint at a window edge compares the first free slope with
the chord slope of the pinned cell, phi'(a) - h phi''(a)/2, so every gap to
the limit is first order in h.  With that widened slope the limit v_h* has
both clip bounds widened by h/3:

    v_h*' = 2c/3 + clip(2(x - c), -(w + h)/3, (w + h)/3),

and both the scheme's last stage and the oracle lie within 3e-4 of it.  The
convex-cone oracle has the same first-order error against v*, and its J_h
lies below J*, by about 0.075 h on [-1/2, 1/2] and 0.095 h on [-1/2, 5/8]:
the discrete cone relaxes the continuum one.  Its KKT residual is not
checked here: the barrier misses `kkt_tol` when constraints bind, a known
defect.
"""

import functools

import numpy as np
import pytest
from helpers import SHALLOW_PHI, monopolist_setup

from abreu1d.diagnostics import compute_report
from abreu1d.minimizer import minimize_direct
from abreu1d.solver import continuation_sweep, default_eps_schedule, eval_J

GRID_SIZES = (32, 64, 128)
# Finer grids, where every one of the STAGES converges.  The last eps,
# 1.5e-9, lies above the crossover eps*(h) below which the eps-error is the
# smaller one (ROADMAP item 4) at n = 256 and 512, so their gaps are checked
# on FINE_SCHEDULE, which reaches below it
CONVERGED_GRID_SIZES = GRID_SIZES + (256, 512)
STAGES = 27  # eps = 0.1 * 2^-k down to 1.5e-9
FINE_SCHEDULE = default_eps_schedule(0.1, 0.25, 17)  # eps = 0.1 * 4^-k down to 2.3e-11
FINE_GRID_SIZES = (128, 256, 512)
SYMMETRIC, SKEWED = (-0.5, 0.5), (-0.5, 0.625)
# J* for each window, and the range of the oracle's (J_h - J*)/h
J_STAR = {SYMMETRIC: -119.0 / 324.0, SKEWED: -217.0 / 512.0}
ORACLE_J_SLOPE = {SYMMETRIC: (-0.08, -0.07), SKEWED: (-0.10, -0.09)}


def v_star(x, a=-0.5, b=0.5):
    c, w = 0.5 * (a + b), b - a
    t = np.abs(x - c)
    base = (a * a - 1.0) / 3.0 + 2.0 * c * (x - a) / 3.0
    return base + np.where(t <= w / 6.0, t * t - 5.0 * w * w / 36.0, w * t / 3.0 - w * w / 6.0)


def v_star_h(x, h, a=-0.5, b=0.5):
    """v*, with the slope bounds w/3 about 2c/3 widened by h/3 to the pinned cells' chord slopes."""
    c, w = 0.5 * (a + b), b - a
    s = (w + h) / 3.0
    t = np.abs(x - c)
    base = (a * a - 1.0) / 3.0 + 2.0 * c * (x - a) / 3.0
    return base + np.where(t <= s / 2.0, t * t - s * w / 2.0 + s * s / 4.0, s * (t - w / 2.0))


def mu(x, a=-0.5, b=0.5):
    c, w = 0.5 * (a + b), b - a
    return np.maximum(np.abs(x - c) - w / 6.0, 0.0) ** 2


def on_each_window(argnames, values):
    """Parametrize `argnames` over `values` on both windows.

    The symmetric window's cases keep the values' own ids; the skewed
    window's end in "-skewed".
    """
    params = []
    for window in (SYMMETRIC, SKEWED):
        for value in values:
            value = value if isinstance(value, tuple) else (value,)
            ident = "-".join(map(str, value)) + ("-skewed" if window == SKEWED else "")
            params.append(pytest.param(*value, window, id=ident))
    return pytest.mark.parametrize(f"{argnames}, window", params)


def _setup(n, window):
    return monopolist_setup(n=n, eps=0.1, phi=SHALLOW_PHI, rho=1.5, window=window)


@functools.cache
def shallow_sweep(n, window):
    return continuation_sweep(_setup(n, window), default_eps_schedule(stages=STAGES))


@functools.cache
def fine_sweep(n, window):
    return continuation_sweep(_setup(n, window), FINE_SCHEDULE)


@functools.cache
def shallow_oracle(n, window):
    setup = _setup(n, window)
    return setup, minimize_direct(setup)


def _window_sup(values, setup):
    return float(np.max(np.abs(values[setup.grid.window_slice()])))


def _limit(f, s, *args):
    """The closed form `f` at the nodes of setup `s`, on its window."""
    return f(s.grid.nodes, *args, s.grid.a, s.grid.b)


def _width(s):
    return s.grid.b - s.grid.a


# gap of the last stage to its limit, as a function of (setup, result)
GAPS = {
    "sup_u_minus_v_star": lambda s, r: _window_sup(r.u - _limit(v_star, s), s),
    "sup_eps_w_minus_mu": lambda s, r: _window_sup(s.eps * r.w - _limit(mu, s), s),
    "J_minus_J_star": lambda s, r: (eval_J(r.u, s)
                                    - J_STAR[s.grid.a, s.grid.b]),
    "eps_max_w": lambda s, r: s.eps * compute_report(r, s).max_w_ab - (_width(s) / 3.0) ** 2,
    "min_upp_over_eps": lambda s, r: (compute_report(r, s).min_upp_ab / s.eps
                                      - (3.0 / _width(s)) ** 2),
    "eps_int_inv_upp": lambda s, r: (s.eps * compute_report(r, s).int_inv_upp
                                     - 2.0 * _width(s) ** 3 / 81.0),
}

# the oracle's gaps, as a function of (setup, minimize_direct result)
ORACLE_GAPS = {
    "sup_v_minus_v_star": lambda s, r: _window_sup(r.v - _limit(v_star, s), s),
    "J_minus_J_star": lambda s, r: r.J_value - J_STAR[s.grid.a, s.grid.b],
}


def test_closed_form_is_the_shallow_obstacle_at_the_window_edge():
    x = np.array([-0.5, -1.0 / 6.0, 0.0, 1.0 / 6.0, 0.5])
    phi = np.polynomial.polynomial.polyval(x, SHALLOW_PHI)
    np.testing.assert_allclose(v_star(x), [phi[0], -13.0 / 36.0, -7.0 / 18.0, -13.0 / 36.0, phi[-1]],
                               rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(mu(x), [1.0 / 9.0, 0.0, 0.0, 0.0, 1.0 / 9.0], rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("window", [SYMMETRIC, SKEWED], ids=["symmetric", "skewed"])
def test_closed_form_on_the_window(window):
    # v* meets phi with phi's slope at both edges, is C^1 at the kinks
    # c +- w/6 with v*'' = 2 between them; mu vanishes there and is (w/3)^2 at
    # both edges; J* is the functional of v* (Gauss rules, exact on each piece)
    a, b = window
    c, w = 0.5 * (a + b), b - a
    d = 1e-7

    def slope(x):
        return (v_star(x + d, a, b) - v_star(x - d, a, b)) / (2.0 * d)

    edges = np.array([a, b])
    np.testing.assert_allclose(v_star(edges, a, b), (edges**2 - 1.0) / 3.0, rtol=0.0, atol=1e-15)
    np.testing.assert_allclose(slope(edges + [d, -d]), 2.0 * edges / 3.0, rtol=0.0, atol=1e-8)
    for kink in (c - w / 6.0, c + w / 6.0):
        assert slope(kink - 2 * d) == pytest.approx(slope(kink + 2 * d), abs=1e-6)
    v_c = v_star(np.array([c - 0.01, c, c + 0.01]), a, b)
    assert (v_c[0] - 2.0 * v_c[1] + v_c[2]) / 1e-4 == pytest.approx(2.0, rel=1e-9)
    np.testing.assert_allclose(mu(np.array([a, c - w / 6.0, c, c + w / 6.0, b]), a, b),
                               [w * w / 9.0, 0.0, 0.0, 0.0, w * w / 9.0], rtol=0.0, atol=1e-15)

    nodes, weights = np.polynomial.legendre.leggauss(3)
    J = 0.0
    for lo, hi in zip([a, c - w / 6.0, c + w / 6.0], [c - w / 6.0, c + w / 6.0, b]):
        x = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
        p = 2.0 * c / 3.0 + np.clip(2.0 * (x - c), -w / 3.0, w / 3.0)
        J += 0.5 * (hi - lo) * float(np.sum(weights * (0.5 * p * p - x * p + v_star(x, a, b))))
    assert J == pytest.approx(J_STAR[window], rel=0.0, abs=1e-13)


@on_each_window("n", CONVERGED_GRID_SIZES)
def test_every_stage_converges(n, window):
    stages = shallow_sweep(n, window)
    assert len(stages) == STAGES
    assert all(result.converged for _, result in stages)


@on_each_window("name", GAPS)
def test_gap_to_the_limit_is_first_order_in_h(name, window):
    gaps = [abs(GAPS[name](*shallow_sweep(n, window)[-1])) for n in GRID_SIZES]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.7 * fine <= coarse, gaps


@pytest.mark.parametrize("window", [SYMMETRIC, SKEWED], ids=["symmetric", "skewed"])
def test_gap_to_the_limit_is_first_order_below_the_crossover(window):
    # sup|u - v*| halves with h up to n = 512 once the last eps lies below
    # eps*(h), and the gap to v_h* stays a tenth of it; the last stage's
    # curvature roundoff r (ROADMAP item 16) is at most 0.143.  n = 1024 is
    # left out: there the gap falls by a factor 1.03 only, at r = 0.45
    gaps = []
    for n in FINE_GRID_SIZES:
        stages = fine_sweep(n, window)
        assert len(stages) == len(FINE_SCHEDULE)
        assert all(result.converged for _, result in stages)
        setup, result = stages[-1]
        assert result.curvature_roundoff <= 0.15, (n, result.curvature_roundoff)
        gap = GAPS["sup_u_minus_v_star"](setup, result)
        widened = _window_sup(result.u - _limit(v_star_h, setup, setup.grid.h), setup)
        assert widened < 0.1 * gap, (n, widened, gap)
        gaps.append(gap)
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.8 <= coarse / fine <= 2.1, gaps


@on_each_window("name", ORACLE_GAPS)
def test_oracle_gap_to_the_limit_is_first_order_in_h(name, window):
    gaps = [abs(ORACLE_GAPS[name](*shallow_oracle(n, window))) for n in GRID_SIZES]
    for coarse, fine in zip(gaps, gaps[1:]):
        assert 1.7 * fine <= coarse, gaps


@on_each_window("n", GRID_SIZES)
def test_oracle_functional_lies_below_the_limit_by_a_first_order_term(n, window):
    setup, result = shallow_oracle(n, window)
    gap = result.J_value - J_STAR[window]
    lo, hi = ORACLE_J_SLOPE[window]
    assert gap < 0.0
    assert lo <= gap / setup.grid.h <= hi, gap / setup.grid.h


def test_widened_slope_closed_form():
    # v* at h = 0; the obstacle's values at the window edges; C^1 at the kinks
    for a, b in (SYMMETRIC, SKEWED):
        c = 0.5 * (a + b)
        x = np.linspace(a, b, 101)
        np.testing.assert_allclose(v_star_h(x, 0.0, a, b), v_star(x, a, b), rtol=0.0, atol=1e-15)
        for h in (1.0 / 16.0, 1.0 / 64.0):
            s = (b - a + h) / 3.0
            np.testing.assert_allclose(v_star_h(np.array([a, b]), h, a, b),
                                       [(a * a - 1.0) / 3.0, (b * b - 1.0) / 3.0],
                                       rtol=0.0, atol=1e-15)
            for kink, sign in ((c - s / 2.0, -1.0), (c + s / 2.0, 1.0)):
                left, right = v_star_h(np.array([kink - 1e-7, kink + 1e-7]), h, a, b)
                assert (right - left) / 2e-7 == pytest.approx(2.0 * c / 3.0 + sign * s, rel=1e-6)


@on_each_window("solver, n", [(solver, n) for solver in ("oracle", "scheme") for n in GRID_SIZES])
def test_gap_to_the_widened_slope_limit(solver, n, window):
    if solver == "scheme":
        setup, result = shallow_sweep(n, window)[-1]
        u = result.u
    else:
        setup, result = shallow_oracle(n, window)
        u = result.v
    gap = _window_sup(u - _limit(v_star_h, setup, setup.grid.h), setup)
    unwidened = _window_sup(u - _limit(v_star, setup), setup)
    assert gap <= 3e-4, gap
    assert 10.0 * gap <= unwidened, (gap, unwidened)
