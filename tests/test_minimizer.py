import itertools
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import solve_banded
from helpers import (
    SHALLOW_PHI,
    STEEP_PHI,
    band_to_dense,
    min_improvement_over_random_feasible_directions,
    monopolist_setup,
    unconstrained_window_solution,
    zero_setup,
)

from abreu1d.grid import build_grid, d2
from abreu1d.lagrangian import make_rochet_chone
from abreu1d.minimizer import (
    BARRIER_PATH,
    INNER_MAX_ITERS,
    _barrier_terms,
    _cell_objective,
    check_admissibility,
    minimize_direct,
    second_differences,
)
from abreu1d.solver import eval_J


def test_eval_J_closed_form():
    # integral of (v'^2/2 - x v' + v) over [-1/2, 1/2] at v = x^2 - 1 is -11/12
    setup = monopolist_setup()
    assert eval_J(setup.phi, setup.grid, setup.lagrangian) == pytest.approx(-11.0 / 12.0, abs=1e-3)


def test_eval_J_zero_lagrangian():
    g = build_grid(64, -0.5, 0.5)
    rng = np.random.default_rng(3)
    assert eval_J(rng.uniform(-1, 1, g.n + 1), g, make_rochet_chone([0.0])) == 0.0


def test_eval_J_ignores_values_away_from_window():
    # the integrand is supported in the window; changing nodes outside the
    # window (beyond the one-node gradient-stencil halo) cannot change J
    setup = monopolist_setup()
    g, lag = setup.grid, setup.lagrangian
    v = setup.phi.copy()
    before = eval_J(v, g, lag)
    v[: g.ia - 1] += 5.0
    v[g.ib + 2 :] -= 3.0
    assert eval_J(v, g, lag) == before


def test_minimizer_recovers_interior_optimum():
    prob = monopolist_setup()
    res = minimize_direct(prob)
    assert np.max(np.abs(res.v - prob.phi)) <= 1e-6
    assert res.kkt_residual <= 1e-8
    assert np.min(second_differences(res.v, prob.grid)) > 0.0
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
    v, _, stage_J, _ = _minimize_direct_loop(prob)
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
    s = second_differences(res.v, g)
    assert min(s[g.ia - 1], s[g.ib - 1]) <= 1e-4
    v_unc = unconstrained_window_solution(prob)
    assert np.max(np.abs(res.v - v_unc)) > 1e-3


def test_steep_obstacle_constraints_inactive():
    # Curvature above the stationary value leaves room for convex extension:
    # the unconstrained solution is strictly feasible and is the minimizer.
    prob = monopolist_setup(phi=STEEP_PHI, rho=1.0 / 6.0)
    res = minimize_direct(prob)
    g = prob.grid
    s = second_differences(res.v, g)
    assert min(s[g.ia - 1], s[g.ib - 1]) > 1.0
    v_unc = unconstrained_window_solution(prob)
    assert np.max(np.abs(res.v - v_unc)) <= 1e-6


def test_oracle_matches_active_set_enumeration_at_n16():
    # Exact solution of the n = 16 cone QP on the shallow obstacle: the cell
    # objective is quadratic in the 7 free values and the 9 constraints
    # s_ia .. s_ib are affine in them, so try every active set (KKT solve,
    # then primal and dual feasibility).  The start is not the minimizer here,
    # so this checks what criterion 09's projected gradient does not search.
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
    smallest = min(kkt_points, key=lambda point: len(point[0]))[0]
    assert smallest.tolist() == [0, 1, 7, 8]  # two constraints at each window edge

    v_exact = prob.phi.copy()
    v_exact[free] = kkt_points[0][1]
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
    s = second_differences(res.v, g)
    assert s[g.ia - 1] == pytest.approx(-4.0 * g.a / g.h + 4.0, rel=1e-6)
    assert s[g.ib - 1] == pytest.approx(4.0 * g.b / g.h + 4.0, rel=1e-6)


def _strictly_feasible_points(prob, count, seed):
    """phi plus random free-node perturbations that keep s >= min s(phi) / 2."""
    g, free = prob.grid, prob.grid.interior_slice()
    rng = np.random.default_rng(seed)
    s_min = float(np.min(second_differences(prob.phi, g)))
    for _ in range(count):
        delta = np.zeros(g.n + 1)
        delta[free] = rng.uniform(-1.0, 1.0, free.stop - free.start)
        yield prob.phi + 0.5 * s_min / np.max(np.abs(second_differences(delta, g))) * delta


def _fd_hessian(grad, v, free, step):
    """Central differences of grad (a function of all nodes) in the free nodes."""
    cols = []
    for k in range(free.start, free.stop):
        vp, vm = v.copy(), v.copy()
        vp[k] += step
        vm[k] -= step
        cols.append((grad(vp) - grad(vm)) / (2.0 * step))
    return np.column_stack(cols)


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
            band_gB, band_HB = _barrier_terms(v, prob, mu)
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
            H = band_to_dense(_barrier_terms(v, prob, mu)[1])
            F = _fd_hessian(lambda w: _barrier_terms(w, prob, mu)[0], v,
                            prob.grid.interior_slice(), 1e-8)
            assert np.max(np.abs(H - F)) <= 1e-6 * np.max(np.abs(H))


def test_oracle_banded_step_matches_dense_solve():
    mu = 1e-3
    for prob in _oracle_problems():
        _, grad_hess = _cell_objective(prob)
        for v in _strictly_feasible_points(prob, 3, seed=9):
            gJ, HJ = grad_hess(v)
            gB, HB = _barrier_terms(v, prob, mu)
            H, grad = HJ + HB, gJ + gB
            step = solve_banded((2, 2), H, -grad)
            dense = np.linalg.solve(band_to_dense(H), -grad)
            assert np.max(np.abs(step - dense)) <= 1e-12 * np.max(np.abs(dense))


def _minimize_direct_loop(problem):
    """Reference for `minimize_direct`: the same barrier loop with scipy's
    `solve_banded`, recomputing the barrier objective at v at every inner step
    and the constraints of each trial twice.  Returns (v, iters, stage_J,
    kkt_residual)."""
    g, free = problem.grid, problem.grid.interior_slice()
    value, grad_hess = _cell_objective(problem)

    def objective(v, mu):
        return value(v) - mu * float(np.sum(np.log(d2(v, g)[g.window_slice()])))

    v = np.array(problem.phi, dtype=float)
    iters, stage_J, grad = 0, [], None
    for mu in BARRIER_PATH:
        for _ in range(INNER_MAX_ITERS):
            gJ, HJ = grad_hess(v)
            gB, HB = _barrier_terms(v, problem, mu)
            grad = gJ + gB
            if float(np.max(np.abs(grad))) <= max(1e-11, 1e-4 * mu):
                break
            step = solve_banded((2, 2), HJ + HB, -grad)
            obj0 = objective(v, mu)
            t, accepted = 1.0, False
            for _ in range(60):
                v_try = v.copy()
                v_try[free] = v[free] + t * step
                if np.min(d2(v_try, g)[g.window_slice()]) > 0.0 and (
                        objective(v_try, mu) < obj0 + 1e-14 * abs(obj0)):
                    v, accepted = v_try, True
                    break
                t *= 0.5
            iters += 1
            if not accepted:
                break
        stage_J.append(value(v))
    return v, iters, stage_J, float(np.max(np.abs(grad)))


@pytest.mark.parametrize("weight", [(1.0,), (1.0, 0.5)], ids=["const", "linear"])
@pytest.mark.parametrize("phi, rho", [(STEEP_PHI, 1.0 / 6.0), (SHALLOW_PHI, 1.5)],
                         ids=["steep", "shallow"])
def test_minimize_direct_iterates_equal_reference_loop_bitwise(phi, rho, weight):
    prob = monopolist_setup(n=64, phi=phi, rho=rho, weight=weight)
    v, iters, _, kkt = _minimize_direct_loop(prob)
    res = minimize_direct(prob)
    assert np.array_equal(res.v, v)
    assert res.iters == iters
    assert res.kkt_residual == kkt
