import numpy as np
import pytest
from helpers import STEEP_PHI, monopolist_setup

from abreu1d.grid import build_grid, d1, integrate
from abreu1d.solver import continuation_sweep, default_eps_schedule, newton_solve
from abreu1d.weakform import default_family, distributional_residual, rescaled_w
from abreu1d.weakform import TestFunctionFamily as BumpFamily


def test_bump_shape_properties():
    g = build_grid(64, -0.5, 0.5)
    family = default_family(g)
    assert len(family) == 10
    x = np.linspace(g.a, g.b, 1001)
    for j in range(len(family)):
        psi, dpsi, _ = family.evaluate(j, x)
        c, r = family.centers[j], family.radii[j]
        assert g.a < c - r and c + r < g.b
        assert np.all(psi >= 0.0)
        assert family.evaluate(j, np.array([c]))[0][0] == pytest.approx(1.0)
        for endpoint in (c - r, c + r):
            p_e, dp_e, _ = family.evaluate(j, np.array([endpoint]))
            assert abs(p_e[0]) <= 1e-14 and abs(dp_e[0]) <= 1e-12


def test_rescaled_w_closed_form():
    setup = monopolist_setup(eps=0.01)
    res = newton_solve(setup, setup.phi)
    wr = rescaled_w(res, setup)
    np.testing.assert_allclose(wr, 0.005, atol=1e-12)


def test_rescaled_w_halves_with_eps():
    setup = monopolist_setup(eps=0.1)
    stages = continuation_sweep(setup, [0.1, 0.05])
    w1 = rescaled_w(stages[0][1], stages[0][0])
    w2 = rescaled_w(stages[1][1], stages[1][0])
    np.testing.assert_allclose(w2, 0.5 * w1, rtol=1e-10)


def test_support_violation_detected():
    setup = monopolist_setup(eps=0.01)
    res = newton_solve(setup, setup.phi)
    family = BumpFamily(centers=np.array([setup.grid.b - 0.05]),
                        radii=np.array([0.1]))
    with pytest.raises(ValueError, match=r"bump 0 support \[.*\] comes within h"):
        distributional_residual(rescaled_w(res, setup), res.u, setup, family)


def test_newtons_u_prime_gives_the_same_residual_bits():
    # a steep stage takes Newton steps; its u' is d1 of the u it returns
    setup = monopolist_setup(n=128, phi=STEEP_PHI, rho=1 / 6)
    stages = continuation_sweep(setup, [0.1, 0.05])
    stage_setup, res = stages[-1]
    assert res.converged and res.newton_iters > 0
    family = default_family(stage_setup.grid)
    w = rescaled_w(res, stage_setup)
    mr, per_bump = distributional_residual(w, res.u, stage_setup, family, res.up)
    assert np.array_equal(res.up, d1(res.u, stage_setup.grid))
    assert (mr, per_bump) == distributional_residual(w, res.u, stage_setup, family)


def test_residual_nonincreasing_along_sweep():
    setup = monopolist_setup(eps=0.1)
    stages = continuation_sweep(setup, default_eps_schedule())
    family = default_family(setup.grid)
    vals = []
    for stage_setup, res in stages:
        mr, per_bump = distributional_residual(
            rescaled_w(res, stage_setup), res.u, stage_setup, family
        )
        assert mr == max(per_bump) and len(per_bump) == 10
        vals.append(mr)
    for v1, v2 in zip(vals, vals[1:]):
        assert v2 <= v1 + 1e-12 or v2 <= 1e-6


def _ibp_discrepancy(n, evaluate, count):
    # max over the family of |int(w'' psi) - int(w psi'')| for a smooth w
    # with w = w' = 0 at the window ends, all integrals by trapezoid
    g = build_grid(n, -0.5, 0.5)
    width = g.b - g.a
    win = g.window_slice()
    xw = g.nodes[win]
    theta = np.pi * (xw - g.a) / width
    w = np.sin(theta) ** 2
    wpp = 2.0 * (np.pi / width) ** 2 * np.cos(2.0 * theta)
    full = np.zeros(g.n + 1)

    def trapz_win(vals):
        full[win] = vals
        return integrate(full, g, g.ia, g.ib)

    worst = 0.0
    for j in range(count):
        psi, ddpsi = evaluate(j, xw)
        worst = max(worst, abs(trapz_win(wpp * psi) - trapz_win(w * ddpsi)))
    return worst


def test_integration_by_parts_with_production_bumps():
    # The quartic bumps have a second-derivative jump of size 8/r^2 at their
    # support edges, so the trapezoid value of int(w psi'') carries an O(h)
    # edge error: the discrepancy shrinks roughly linearly under refinement.
    g0 = build_grid(128, -0.5, 0.5)
    family = default_family(g0)

    def evaluate(j, x):
        psi, _, ddpsi = family.evaluate(j, x)
        return psi, ddpsi

    diffs = [_ibp_discrepancy(n, evaluate, len(family)) for n in (128, 512)]
    assert diffs[1] < diffs[0]
    assert diffs[1] <= diffs[0] / 2.0


def test_integration_by_parts_second_order_for_smooth_bumps():
    # With bumps whose second derivative is continuous (quartic shape raised
    # to the 4th power), the discrepancy is pure quadrature error O(h^2).
    g0 = build_grid(128, -0.5, 0.5)
    family = default_family(g0)

    def evaluate(j, x):
        c, r = family.centers[j], family.radii[j]
        t = x - c
        on = np.abs(t) <= r
        q = np.where(on, t * t - r * r, 0.0)
        psi = q**4 / r**8
        ddpsi = (8.0 * q**3 + 48.0 * t * t * q * q) / r**8
        return psi, ddpsi

    diffs = [_ibp_discrepancy(n, evaluate, len(family)) for n in (128, 256)]
    assert diffs[0] <= 1.0
    assert 2.5 <= diffs[0] / diffs[1] <= 6.0
