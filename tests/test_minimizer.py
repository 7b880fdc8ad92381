import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded
from helpers import (
    CAL_PHI,
    SHALLOW_PHI,
    STEEP_PHI,
    band_to_dense,
    min_improvement_over_random_feasible_directions,
    monopolist_setup,
    quartic_spec,
    unconstrained_window_solution,
    zero_setup,
)
from test_continuum_limit import SKEWED, SYMMETRIC, v_star_h

from abreu1d.grid import d2
from abreu1d.minimizer import (
    BARRIER_PATH,
    INNER_MAX_ITERS,
    _barrier_terms,
    _cell_objective,
    check_admissibility,
    iron,
    minimize_direct,
)
from abreu1d.solver import STEP_FRACTION, eval_J, make_setup


def test_eval_J_closed_form():
    # integral of (v'^2/2 - x v' + v) over [-1/2, 1/2] at v = x^2 - 1 is -11/12
    setup = monopolist_setup()
    assert eval_J(setup.phi, setup) == pytest.approx(-11.0 / 12.0, abs=1e-3)


def test_eval_J_zero_lagrangian():
    setup = zero_setup()
    rng = np.random.default_rng(3)
    assert eval_J(rng.uniform(-1, 1, setup.grid.n + 1), setup) == 0.0


def test_eval_J_ignores_values_away_from_window():
    # the integrand is supported in the window; changing nodes outside the
    # window (beyond the one-node gradient-stencil halo) cannot change J
    setup = monopolist_setup()
    g = setup.grid
    v = setup.phi.copy()
    before = eval_J(v, setup)
    v[: g.ia - 1] += 5.0
    v[g.ib + 2 :] -= 3.0
    assert eval_J(v, setup) == before


def test_minimizer_recovers_interior_optimum():
    prob = monopolist_setup()
    res = minimize_direct(prob)
    assert np.max(np.abs(res.v - prob.phi)) <= 1e-6
    assert res.kkt_residual <= 1e-8
    assert np.min(d2(res.v, prob.grid)[1:-1]) > 0.0
    ok, worst = check_admissibility(res.v, prob, tol=1e-8)
    assert ok, worst


def test_minimizer_zero_lagrangian():
    prob = zero_setup()
    res = minimize_direct(prob)
    assert res.J_value == 0.0
    assert res.kkt_residual <= 1e-8
    ok, _ = check_admissibility(res.v, prob, tol=1e-8)
    assert ok


def test_minimizer_random_direction_optimality():
    prob = monopolist_setup()
    res = minimize_direct(prob)
    worst = min_improvement_over_random_feasible_directions(prob, res, count=100)
    assert worst >= -1e-12


def test_minimizer_descent_across_barrier_stages():
    prob = monopolist_setup(phi=SHALLOW_PHI, rho=1.5)
    v, _, stage_J, _ = _cold_loop(prob)
    assert np.array_equal(v, minimize_direct(prob).v)
    for j1, j2 in zip(stage_J, stage_J[1:]):
        assert j2 <= j1 + 1e-12 * (1.0 + abs(j1))


def test_minimizer_never_beats_feasible_start():
    for phi in (SHALLOW_PHI, STEEP_PHI):
        prob = monopolist_setup(phi=phi, rho=1.5)
        res = minimize_direct(prob)
        value, _ = _cell_objective(prob)
        assert value(res.v) <= value(prob.phi) + 1e-12


def test_check_admissibility():
    prob = monopolist_setup()
    ok, worst = check_admissibility(prob.phi, prob)
    assert ok and worst <= 0.0
    v, free = prob.phi.copy(), prob.grid.interior_slice()
    v[free] = -prob.grid.nodes[free] ** 2  # concave over the window
    ok, worst = check_admissibility(v, prob)
    assert not ok and worst > 0.0


def test_shallow_obstacle_activates_window_edge_constraints():
    # For an obstacle with curvature below the stationary value v'' = 2, the
    # convex extension across the window edges binds: the minimizer must bend
    # to meet the pinned slopes, activating a second-difference constraint at
    # the window edge and moving away from the unconstrained solution.
    prob = monopolist_setup(phi=SHALLOW_PHI, rho=1.5)
    res = minimize_direct(prob)
    g = prob.grid
    s = d2(res.v, g)[1:-1]
    assert min(s[g.ia - 1], s[g.ib - 1]) <= 1e-4
    v_unc = unconstrained_window_solution(prob)
    assert np.max(np.abs(res.v - v_unc)) > 1e-3


def test_steep_obstacle_constraints_inactive():
    # Curvature above the stationary value leaves room for convex extension:
    # the unconstrained solution is strictly feasible and is the minimizer.
    prob = monopolist_setup(phi=STEEP_PHI, rho=1.0 / 6.0)
    res = minimize_direct(prob)
    g = prob.grid
    s = d2(res.v, g)[1:-1]
    assert min(s[g.ia - 1], s[g.ib - 1]) > 1.0
    v_unc = unconstrained_window_solution(prob)
    assert np.max(np.abs(res.v - v_unc)) <= 1e-6


def _active_set_enumeration_at_n16():
    """Exact solution of the n = 16 cone QP on the shallow obstacle.

    The cell objective is quadratic in the 7 free values and the 9
    constraints s_ia .. s_ib are affine in them, so every active set is
    tried (KKT solve, then primal and dual feasibility).  Returns the
    problem, the KKT point's v and its smallest active set.
    """
    prob = monopolist_setup(n=16, phi=SHALLOW_PHI)
    g = prob.grid
    free = g.interior_slice()
    m = free.stop - free.start
    _, grad_hess = _cell_objective(prob)
    y0 = prob.phi[free]
    g0, H_band = grad_hess(prob.phi)
    H = band_to_dense(H_band)  # the gradient at free values y is g0 + H (y - y0)
    base = prob.phi.copy()
    base[free] = 0.0
    d = d2(base, g)[g.window_slice()]  # s = C y + d
    C = np.empty((len(d), m))
    for k in range(m):
        e = base.copy()
        e[free.start + k] = 1.0
        C[:, k] = d2(e, g)[g.window_slice()] - d
    assert len(d) == 9

    kkt_points = []
    for mask in itertools.product((False, True), repeat=len(d)):
        active = np.flatnonzero(mask)
        CA = C[active]
        if np.linalg.matrix_rank(CA) < len(active):
            continue
        K = np.block([[H, -CA.T], [CA, np.zeros((len(active), len(active)))]])
        sol = np.linalg.solve(K, np.concatenate([H @ y0 - g0, -d[active]]))
        y, lam = sol[:m], sol[m:]
        if (C @ y + d).min() >= -1e-9 and lam.min(initial=0.0) >= -1e-9:
            kkt_points.append((active, y))
    # degenerate active sets (s = 0 with a zero multiplier) give the same point
    assert kkt_points
    for _, y in kkt_points:
        np.testing.assert_allclose(y, kkt_points[0][1], rtol=0.0, atol=1e-12)
    v_exact = prob.phi.copy()
    v_exact[free] = kkt_points[0][1]
    return prob, v_exact, min(kkt_points, key=lambda point: len(point[0]))[0]


def test_oracle_matches_active_set_enumeration_at_n16():
    # The start is not the minimizer here, so this checks what criterion
    # 09's projected gradient does not search.
    prob, v_exact, smallest = _active_set_enumeration_at_n16()
    assert smallest.tolist() == [0, 1, 7, 8]  # two constraints at each window edge
    assert np.max(np.abs(v_exact - prob.phi)) > 0.05
    res = minimize_direct(prob)
    assert np.max(np.abs(res.v - v_exact)) <= 1e-5
    value, _ = _cell_objective(prob)
    assert abs(value(res.v) - value(v_exact)) <= 1e-5


def test_infeasible_start_rejected():
    setup = monopolist_setup()
    prob = replace(setup, phi=1.0 - setup.grid.nodes**2)
    with pytest.raises(ValueError):
        minimize_direct(prob)


@pytest.mark.parametrize("n", [32, 64, 128])
def test_steep_obstacle_edge_slack_closed_form(n):
    # Why criterion 10 fails: on the steep obstacle the minimizer is the
    # unconstrained v = x^2 + phi(a) - a^2, so the window-edge slack is
    # (v(a + h) - 2 phi(a) + phi(a - h)) / h^2 = -4a/h + 4 (and 4b/h + 4 at b),
    # which is n + 4 for the window [-1/2, 1/2]: the edge constraints cannot bind.
    prob = monopolist_setup(n=n, phi=STEEP_PHI, rho=1.0 / 6.0)
    res = minimize_direct(prob)
    g = prob.grid
    s = d2(res.v, g)[1:-1]
    assert s[g.ia - 1] == pytest.approx(-4.0 * g.a / g.h + 4.0, rel=1e-6)
    assert s[g.ib - 1] == pytest.approx(4.0 * g.b / g.h + 4.0, rel=1e-6)


def _strictly_feasible_points(prob, count, seed):
    """phi plus random free-node perturbations that keep s >= min s(phi) / 2."""
    g, free = prob.grid, prob.grid.interior_slice()
    rng = np.random.default_rng(seed)
    s_min = float(np.min(d2(prob.phi, g)[1:-1]))
    for _ in range(count):
        delta = np.zeros(g.n + 1)
        delta[free] = rng.uniform(-1.0, 1.0, free.stop - free.start)
        yield prob.phi + 0.5 * s_min / np.max(np.abs(d2(delta, g)[1:-1])) * delta


def _fd_hessian(grad, v, free, step):
    """Central differences of grad (a function of all nodes) in the free nodes."""
    cols = []
    for k in range(free.start, free.stop):
        vp, vm = v.copy(), v.copy()
        vp[k] += step
        vm[k] -= step
        cols.append((grad(vp) - grad(vm)) / (2.0 * step))
    return np.column_stack(cols)


def _window_s(v, prob):
    """s_ia .. s_ib at v, what `_barrier_terms` takes."""
    return d2(v, prob.grid)[prob.grid.window_slice()]


def _oracle_problems():
    for phi, rho in ((STEEP_PHI, 1.0 / 6.0), (SHALLOW_PHI, 1.5)):
        yield monopolist_setup(n=64, phi=phi, rho=rho, weight=(1.0, 0.5))


def _oracle_loop_assembly(v, prob, mu):
    """Dense cell-by-cell and constraint-by-constraint assembly of the smooth
    and barrier gradients and Hessians, the reference for the bands."""
    g, lag, h = prob.grid, prob.lagrangian, prob.grid.h
    lo, m = g.ia + 1, g.ib - g.ia - 1
    gJ, HJ, gB, HB = np.zeros(m), np.zeros((m, m)), np.zeros(m), np.zeros((m, m))
    for i in range(g.ia, g.ib):  # cell [x_i, x_{i+1}] couples nodes i and i+1
        xm = g.nodes[i : i + 1] + 0.5 * h
        vm = 0.5 * (v[i : i + 1] + v[i + 1 : i + 2])
        pm = (v[i + 1 : i + 2] - v[i : i + 1]) / h
        fz, fzz = lag.f0_z(xm, vm)[0], lag.f0_zz(xm, vm)[0]
        fp, fpp = lag.f1_p(xm, pm)[0], lag.f1_pp(xm, pm)[0]
        hd = h * (0.25 * fzz + fpp / (h * h))
        kl, kr = i - lo, i + 1 - lo
        if kl >= 0:
            gJ[kl] += h * (0.5 * fz - fp / h)
            HJ[kl, kl] += hd
        if kr < m:
            gJ[kr] += h * (0.5 * fz + fp / h)
            HJ[kr, kr] += hd
        if kl >= 0 and kr < m:
            HJ[kl, kr] = HJ[kr, kl] = h * (0.25 * fzz - fpp / (h * h))
    stencil = np.array([1.0, -2.0, 1.0]) / (h * h)
    for i in range(g.ia, g.ib + 1):  # constraint s_i touches nodes i-1, i, i+1
        s = (v[i + 1] - 2.0 * v[i] + v[i - 1]) / (h * h)
        for a in range(3):
            ka = i - 1 + a - lo
            if 0 <= ka < m:
                gB[ka] += -mu / s * stencil[a]
                for b in range(3):
                    kb = i - 1 + b - lo
                    if 0 <= kb < m:
                        HB[ka, kb] += mu / (s * s) * (stencil[a] * stencil[b])
    return gJ, HJ, gB, HB


def test_oracle_bands_equal_loop_assembly_bitwise():
    # every gradient and band entry sums the same terms in the same order as the loops
    mu = 1e-3
    for prob in _oracle_problems():
        _, grad_hess = _cell_objective(prob)
        for v in _strictly_feasible_points(prob, 2, seed=3):
            gJ, HJ, gB, HB = _oracle_loop_assembly(v, prob, mu)
            band_gJ, band_HJ = grad_hess(v)
            band_gB, band_HB = _barrier_terms(prob, mu, _window_s(v, prob))
            np.testing.assert_array_equal(band_gJ, gJ)
            np.testing.assert_array_equal(band_to_dense(band_HJ), HJ)
            np.testing.assert_array_equal(band_gB, gB)
            np.testing.assert_array_equal(band_to_dense(band_HB), HB)


def test_oracle_band_hessians_match_central_differences():
    mu = 1e-3
    for prob in _oracle_problems():
        _, grad_hess = _cell_objective(prob)
        for v in _strictly_feasible_points(prob, 3, seed=5):
            H = band_to_dense(grad_hess(v)[1])
            F = _fd_hessian(lambda w: grad_hess(w)[0], v, prob.grid.interior_slice(), 1e-6)
            assert np.max(np.abs(H - F)) <= 1e-6 * np.max(np.abs(H))
            H = band_to_dense(_barrier_terms(prob, mu, _window_s(v, prob))[1])
            F = _fd_hessian(lambda w: _barrier_terms(prob, mu, _window_s(w, prob))[0], v,
                            prob.grid.interior_slice(), 1e-8)
            assert np.max(np.abs(H - F)) <= 1e-6 * np.max(np.abs(H))


def test_oracle_banded_step_matches_dense_solve():
    mu = 1e-3
    for prob in _oracle_problems():
        _, grad_hess = _cell_objective(prob)
        for v in _strictly_feasible_points(prob, 3, seed=9):
            gJ, HJ = grad_hess(v)
            gB, HB = _barrier_terms(prob, mu, _window_s(v, prob))
            H, grad = HJ + HB, gJ + gB
            step = solve_banded((2, 2), H, -grad)
            dense = np.linalg.solve(band_to_dense(H), -grad)
            assert np.max(np.abs(step - dense)) <= 1e-12 * np.max(np.abs(dense))


def _minimize_direct_loop(problem, start, path):
    """Reference for `minimize_direct`: the same barrier loop from `start`
    along the mu values of `path`, with scipy's `solve_banded`, the fraction
    to the boundary written out, and the constraints recomputed from v at
    every step.  Every iterate's s_ia .. s_ib must stay > 0.  Returns
    (v, iters, stage_J, kkt_residual)."""
    g, free = problem.grid, problem.grid.interior_slice()
    value, grad_hess = _cell_objective(problem)
    v = np.array(start, dtype=float)
    iters, stage_J, grad = 0, [], None
    for mu in path:
        for _ in range(INNER_MAX_ITERS):
            s = _window_s(v, problem)
            assert np.min(s) > 0.0, (mu, iters)
            gJ, HJ = grad_hess(v)
            gB, HB = _barrier_terms(problem, mu, s)
            grad = gJ + gB
            if float(np.max(np.abs(grad))) <= max(1e-11, 1e-4 * mu):
                break
            step = solve_banded((2, 2), HJ + HB, -grad)
            correction = np.zeros_like(v)
            correction[free] = step
            fall = float(np.max(-_window_s(correction, problem) / s))
            t = 1.0 if fall <= STEP_FRACTION else STEP_FRACTION / fall
            v = v.copy()
            v[free] = v[free] + t * step
            iters += 1
        stage_J.append(value(v))
    return v, iters, stage_J, float(np.max(np.abs(grad)))


def _cold_loop(problem):
    """The reference loop from the obstacle along the whole barrier path."""
    return _minimize_direct_loop(problem, problem.phi, BARRIER_PATH)


# steep leaves every constraint inactive, so the loop runs at the last mu from
# ironing's minimizer; shallow's bind, so it runs the whole path from the
# obstacle, as it does for the quartic F, which ironing does not take and
# whose Hessian changes along each step
REFERENCE_PROBLEMS = {
    "steep-const": (lambda: monopolist_setup(n=64, phi=STEEP_PHI, rho=1.0 / 6.0), "ironing"),
    "steep-linear": (lambda: monopolist_setup(n=64, phi=STEEP_PHI, rho=1.0 / 6.0, weight=(1.0, 0.5)),
                     "ironing"),
    "shallow-const": (lambda: monopolist_setup(n=64, phi=SHALLOW_PHI, rho=1.5), "obstacle"),
    "shallow-linear": (lambda: monopolist_setup(n=64, phi=SHALLOW_PHI, rho=1.5, weight=(1.0, 0.5)),
                       "obstacle"),
    "quartic": (lambda: make_setup(monopolist_setup().grid, quartic_spec(), CAL_PHI, 0.5, 0.5, 1e-2),
                "obstacle"),
}


@pytest.mark.parametrize("case", REFERENCE_PROBLEMS)
def test_minimize_direct_iterates_equal_reference_loop_bitwise(case):
    build, start = REFERENCE_PROBLEMS[case]
    prob = build()
    if start == "ironing":
        v, iters, _, kkt = _minimize_direct_loop(prob, iron(prob).v, BARRIER_PATH[-1:])
    else:
        v, iters, _, kkt = _cold_loop(prob)
    res = minimize_direct(prob)
    assert res.start == start
    assert np.array_equal(res.v, v)
    assert res.iters == iters
    assert res.kkt_residual == kkt


@pytest.mark.parametrize("n", [64, 128, 256, 1024])
@pytest.mark.parametrize("phi, rho", [(STEEP_PHI, 1.0 / 6.0), (CAL_PHI, 0.5)], ids=["steep", "cal"])
def test_warm_oracle_equals_cold_oracle(phi, rho, n):
    prob = monopolist_setup(n=n, phi=phi, rho=rho)
    res = minimize_direct(prob)
    assert res.start == "ironing"
    assert np.max(np.abs(res.v - _cold_loop(prob)[0])) <= 1e-12


def test_custom_zero_and_shallow_oracles_start_from_the_obstacle():
    grid = monopolist_setup().grid
    custom = make_setup(grid, quartic_spec(), CAL_PHI, 0.5, 0.5, 1e-2)
    for prob in (custom, zero_setup()):
        assert iron(prob) is None
        res = minimize_direct(prob)
        assert (res.start, res.ironing) == ("obstacle", None)
    shallow = monopolist_setup(phi=SHALLOW_PHI, rho=1.5)
    res = minimize_direct(shallow)
    assert res.start == "obstacle"
    assert len(res.ironing.blocks) == 2


def test_iron_matches_active_set_enumeration_at_n16():
    prob, v_exact, smallest = _active_set_enumeration_at_n16()
    ironing = iron(prob)
    assert np.max(np.abs(ironing.v - v_exact)) <= 1e-12
    # one block at each window edge; each also holds a constraint with s = 0
    # and a zero multiplier, which the smallest active set leaves out
    ia = prob.grid.ia
    assert ironing.blocks == [(ia, ia + 2), (ia + 6, ia + 8)]
    assert set(smallest) <= {0, 1, 2, 6, 7, 8}


@pytest.mark.parametrize("n", [64, 128, 256])
def test_iron_agrees_with_the_barrier_on_steep(n):
    # the barrier stops at mu = 0.1 * 4^-14, so its minimizer lies above
    # the cone's by a little
    prob = monopolist_setup(n=n, phi=STEEP_PHI, rho=1.0 / 6.0)
    v = iron(prob).v
    barrier = _cold_loop(prob)[0]
    value, _ = _cell_objective(prob)
    assert value(v) <= value(barrier)
    assert np.max(np.abs(v - barrier)) <= 1e-7


@pytest.mark.parametrize("window", [SYMMETRIC, SKEWED], ids=["symmetric", "skewed"])
def test_iron_approaches_the_widened_slope_limit(window):
    # the continuum-limit tests' v_h* on the shallow obstacle: ironing's
    # minimizer lies within h^2 / 2 of it, and far closer than to v*
    for n in (32, 64, 128):
        prob = monopolist_setup(n=n, eps=0.1, phi=SHALLOW_PHI, rho=1.5, window=window)
        g = prob.grid
        gap = np.abs(iron(prob).v - v_star_h(g.nodes, g.h, g.a, g.b))[g.window_slice()]
        assert np.max(gap) <= 0.5 * g.h * g.h, (n, np.max(gap))


@pytest.mark.parametrize("n", [64, 128, 256, 512])
@pytest.mark.parametrize("phi, rho, weight", [(STEEP_PHI, 1.0 / 6.0, (1.0,)),
                                              (SHALLOW_PHI, 1.5, (1.0,)),
                                              (CAL_PHI, 0.5, (1.0, 0.5))],
                         ids=["steep", "shallow", "var"])
def test_iron_kkt_residual(phi, rho, weight, n):
    ironing = iron(monopolist_setup(n=n, phi=phi, rho=rho, weight=weight))
    parts = (ironing.stationarity, ironing.complementarity, ironing.dual_feasibility)
    assert max(parts) <= 1e-10, parts
