import importlib.machinery
import importlib.util
import subprocess
import sys

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
from helpers import (
    CAL_PHI,
    SHALLOW_PHI,
    STEEP_PHI,
    band_to_dense,
    f_eps,
    fd_jacobian,
    monopolist_setup,
    quartic_spec,
)

from abreu1d.grid import build_grid, d1, d2, d2_boundary_coeffs
from abreu1d import solver
from abreu1d.lagrangian import make_rochet_chone
from abreu1d.minimizer import _barrier_terms, _cell_objective
from abreu1d.solver import (
    Tolerances,
    continuation_sweep,
    default_eps_schedule,
    eval_J,
    eval_J_eps,
    jacobian,
    make_setup,
    newton_solve,
    residual,
    solve_banded,
    step_length,
)


def test_residual_vanishes_at_exact_solution():
    setup = monopolist_setup()
    assert np.max(np.abs(residual(setup.phi, setup))) <= 1e-12


def test_residual_boundary_rows_with_mismatched_data():
    setup = monopolist_setup(rho=1.0)
    R = residual(setup.phi, setup)
    n = setup.grid.n
    assert R[1] == pytest.approx(-0.5, abs=1e-14)
    assert R[n - 1] == pytest.approx(-0.5, abs=1e-14)
    assert np.max(np.abs(R[2 : n - 1])) <= 1e-12
    assert R[0] == 0.0 and R[n] == 0.0


def test_residual_rejects_nonconvex_iterate():
    setup = monopolist_setup()
    u = setup.phi.copy()
    u[10] += 1.0  # drives the second difference at node 10 negative
    with pytest.raises(ValueError, match=r"^u'' <= 0 at node 10: -"):
        residual(u, setup)


def test_make_setup_validation():
    g = build_grid(64, -0.5, 0.5)
    lag = make_rochet_chone([1.0], g.nodes)
    with pytest.raises(ValueError):  # phi not uniformly convex
        make_setup(g, lag, [0.0, 1.0], 0.5, 0.5, 1e-2)
    with pytest.raises(ValueError):  # phi(+-1) != 0
        make_setup(g, lag, [-1.0, 0.0, 2.0], 0.5, 0.5, 1e-2)
    with pytest.raises(ValueError):  # rho <= 0
        make_setup(g, lag, CAL_PHI, 0.0, 0.5, 1e-2)
    with pytest.raises(ValueError):  # eps out of range
        make_setup(g, lag, CAL_PHI, 0.5, 0.5, 1.5)


def test_jacobian_finite_and_dirichlet_rows():
    setup = monopolist_setup()
    A = band_to_dense(jacobian(setup.phi, setup))
    assert np.all(np.isfinite(A))
    n = setup.grid.n
    e0 = np.zeros(n + 1)
    e0[0] = 1.0
    en = np.zeros(n + 1)
    en[-1] = 1.0
    np.testing.assert_array_equal(A[0], e0)
    np.testing.assert_array_equal(A[n], en)


def test_jacobian_is_pentadiagonal():
    # ab[2 + i - j, j] = A[i, j]: the band slots that fall outside the matrix stay zero
    setup = monopolist_setup()
    n = setup.grid.n
    x = setup.grid.nodes
    ab = jacobian(setup.phi + 0.01 * np.cos(np.pi * x / 2) * (1 - x * x), setup)
    assert ab.shape == (5, n + 1)
    for corner in (ab[0, :2], ab[1, :1], ab[3, n:], ab[4, n - 1 :]):
        assert np.all(corner == 0.0)
    big = monopolist_setup(n=8192)
    ab = jacobian(big.phi, big)
    assert ab.shape == (5, 8193)
    assert np.all(np.isfinite(ab))


def _jacobian_loop(u, setup):
    """Row-by-row dense assembly of the Jacobian, the reference for the band."""
    g, lag, eps = setup.grid, setup.lagrangian, setup.eps
    n, h = g.n, g.h
    s, p = d2(u, g), d1(u, g)
    inv_s2 = 1.0 / (s * s)
    A = np.zeros((n + 1, n + 1))
    A[0, 0] = A[n, n] = 1.0
    A[1, 0:4] = -inv_s2[0] * d2_boundary_coeffs(g, left=True)
    A[n - 1, n - 3 :] = -inv_s2[n] * d2_boundary_coeffs(g, left=False)
    cd2 = np.array([1.0, -2.0, 1.0]) / (h * h)
    for i in range(2, n - 1):
        for j, cj in ((i - 1, cd2[0]), (i, cd2[1]), (i + 1, cd2[2])):
            A[i, j - 1 : j + 2] += eps * cj * (-inv_s2[j]) * cd2
        if g.ia < i < g.ib:
            xi, ui, pi, si = (a[i : i + 1] for a in (g.nodes, u, p, s))
            A[i, i] -= lag.f0_zz(xi, ui)[0]
            chain_p = lag.f1_pxp(xi, pi)[0] + lag.f1_ppp(xi, pi)[0] * si[0]
            A[i, i - 1] -= chain_p / (2.0 * h)
            A[i, i + 1] += chain_p / (2.0 * h)
            A[i, i - 1 : i + 2] += lag.f1_pp(xi, pi)[0] * cd2
        else:
            A[i, i] -= 1.0 / eps
    return A


@pytest.mark.parametrize("n", [16, 128])
def test_jacobian_band_equals_loop_assembly_bitwise(n):
    # every band entry sums the same terms in the same order as the loop
    rng = np.random.default_rng(11)
    for phi, rho, weight in ((CAL_PHI, 0.5, (1.0, 0.5)), (STEEP_PHI, 1.0 / 6.0, (1.0,))):
        for eps in (0.1, 1e-3):
            setup = monopolist_setup(n=n, eps=eps, phi=phi, rho=rho, weight=weight)
            x = setup.grid.nodes
            c = rng.uniform(-1, 1, 3)
            u = setup.phi + 1e-3 * sum(c[k] * np.sin((k + 1) * np.pi * (x + 1) / 2) for k in range(3))
            np.testing.assert_array_equal(band_to_dense(jacobian(u, setup)), _jacobian_loop(u, setup))


def _counting(monkeypatch, name, record):
    """Replace `solver.<name>` with a wrapper that calls `record(args, result)`."""
    original = getattr(solver, name)

    def counted(*args):
        out = original(*args)
        record(args, out)
        return out

    monkeypatch.setattr(solver, name, counted)
    return original


def test_newton_evaluates_each_iterates_derivatives_once(monkeypatch):
    # An accepted iterate's d1(u) and f1_pp serve its residual and the next
    # Jacobian, and the band's stage constants are built once per solve
    setup = monopolist_setup(eps=0.01, phi=STEEP_PHI, rho=1.0 / 6.0, weight=(1.0, 0.5))
    d1_args, residual_args, jacobians, bands = [], [], [], []
    _counting(monkeypatch, "d1", lambda args, out: d1_args.append(args[0].copy()))
    _counting(monkeypatch, "residual", lambda args, out: residual_args.append(args[0].copy()))
    jacobian_alone = _counting(monkeypatch, "jacobian",
                               lambda args, out: jacobians.append((args[0].copy(), out)))
    _counting(monkeypatch, "_band", lambda args, out: bands.append(out))
    res = solver.newton_solve(setup, setup.phi)
    assert res.converged and res.newton_iters >= 3
    assert len(bands) == 1
    assert len(jacobians) == res.newton_iters
    # one d1 per residual evaluation, each of a different point
    assert len(d1_args) == len(residual_args)
    assert all(np.array_equal(a, b) for a, b in zip(d1_args, residual_args))
    assert len({a.tobytes() for a in d1_args}) == len(d1_args)
    # the reused pieces give the Jacobian bit for bit
    for u, ab in jacobians:
        assert np.array_equal(ab, jacobian_alone(u, setup))


def test_jacobian_matches_finite_differences_at_smooth_perturbation():
    # f1_pxp = eta0' = 0.5 for the variable weight and f1_ppp = 2p for the
    # quartic Lagrangian, so their rows carry a nonzero chain term through u'
    setups = {
        "constant weight": monopolist_setup(),
        "variable weight": monopolist_setup(weight=(1.0, 0.5)),
        "quartic": make_setup(build_grid(64, -0.5, 0.5), quartic_spec(), CAL_PHI, 0.5, 0.5, 1e-2),
    }
    for name, setup in setups.items():
        x = setup.grid.nodes
        u = setup.phi + 0.01 * np.cos(np.pi * x / 2) * (1 - x * x)
        A = band_to_dense(jacobian(u, setup))
        F = fd_jacobian(u, setup)
        rel = np.max(np.abs(A - F)) / np.max(np.abs(F))
        assert rel <= 1e-6, (name, rel)


def test_jacobian_matches_finite_differences_at_random_convex_states():
    setup = monopolist_setup()
    x = setup.grid.nodes
    rng = np.random.default_rng(7)
    for _ in range(10):
        c = rng.uniform(-1, 1, 3)
        bump = sum(c[k] * np.sin((k + 1) * np.pi * (x + 1) / 2) for k in range(3))
        u = setup.phi + 0.01 * bump
        assert np.min(d2(u, setup.grid)) > 0.0
        A = band_to_dense(jacobian(u, setup))
        F = fd_jacobian(u, setup, step=1e-7)
        assert np.max(np.abs(A - F)) / np.max(np.abs(F)) <= 1e-6


def test_newton_recovers_exact_solution_from_perturbed_start():
    setup = monopolist_setup()
    x = setup.grid.nodes
    u0 = setup.phi + 0.05 * (1 - x * x) ** 2
    res = newton_solve(setup, u0)
    assert res.converged
    assert np.max(np.abs(res.u - setup.phi)) <= 1e-8
    assert res.u[0] == 0.0 and res.u[-1] == 0.0
    assert np.min(d2(res.u, setup.grid)) > 0.0 and np.all(res.w > 0.0)


def test_newton_from_exact_start_converges_immediately():
    setup = monopolist_setup()
    res = newton_solve(setup, setup.phi)
    assert res.converged
    assert res.newton_iters <= 1


def test_newton_quadratic_tail():
    setup = monopolist_setup()
    x = setup.grid.nodes
    res = newton_solve(setup, setup.phi + 0.05 * (1 - x * x) ** 2)
    h = res.residual_norms
    ratios = [h[k + 1] / h[k] ** 2 for k in range(len(h) - 1)]
    assert all(r <= 10.0 for r in ratios[-2:])


def test_newton_boundary_condition_rows_satisfied():
    setup = monopolist_setup()
    x = setup.grid.nodes
    res = newton_solve(setup, setup.phi + 0.05 * (1 - x * x) ** 2)
    s = d2(res.u, setup.grid)
    tol = 1e-10 * (1.0 + 1.0 / setup.eps)
    assert abs(1.0 / s[0] - setup.rho_minus) + abs(1.0 / s[-1] - setup.rho_plus) <= tol


def test_newton_convexity_floor_comes_from_tolerances():
    # The steep obstacle's solution at eps = 0.1 has min u'' = 2.09 and
    # c0 = 6, so a floor of 5 * eps * c0 = 3 excludes it: every step that
    # would reach it is halved and Newton stops short.
    setup = monopolist_setup(eps=0.1, phi=STEEP_PHI, rho=1.0 / 6.0)
    default = newton_solve(setup, setup.phi)
    assert default.converged and default.newton_iters > 1
    assert np.min(d2(default.u, setup.grid)) < 3.0
    floored = newton_solve(setup, setup.phi, Tolerances(convexity_floor_scale=5.0))
    assert not floored.converged
    assert np.min(d2(floored.u, setup.grid)) > 5.0 * setup.eps * setup.c0


def test_continuation_sweep_all_stages_converge():
    setup = monopolist_setup(eps=0.1)
    stages = continuation_sweep(setup, default_eps_schedule())
    assert len(stages) == 11
    for stage_setup, res in stages:
        assert res.converged
        assert np.max(np.abs(res.u - stage_setup.phi)) <= 1e-8


@pytest.mark.parametrize("n", [192, 200, 320, 384])
def test_calibration_sweep_converges_off_powers_of_two(n):
    # phi = x^2 - 1 solves the scheme at every eps, so every stage converges;
    # off powers of two stage 0 stops on its roundoff-sized correction, its
    # max|R| (1.1e-9 to 1.5e-8) being above the tolerance 1.1e-9
    stages = continuation_sweep(monopolist_setup(n=n, eps=0.1), default_eps_schedule())
    assert len(stages) == 11
    assert all(res.converged for _, res in stages)


# Problems of the larger sweeps: (obstacle, rho-, rho+, eta0, window)
STEEP = (STEEP_PHI, 1.0 / 6.0, 1.0 / 6.0, (1.0,), (-0.5, 0.5))
SHALLOW = (SHALLOW_PHI, 1.5, 1.5, (1.0,), (-0.5, 0.5))
VAR = (CAL_PHI, 0.5, 0.5, (1.0, 0.5), (-0.5, 0.5))

# The eleven problem starts of the convergence table
PROBLEMS = {
    "cal": (CAL_PHI, 0.5, 0.5, (1.0,), (-0.5, 0.5)),
    "steep": STEEP,
    "shallow": SHALLOW,
    "var": VAR,
    **{f"cal-rho-{rho:g}": (CAL_PHI, rho, rho, (1.0,), (-0.5, 0.5)) for rho in (0.25, 1.0, 4.0)},
    "shallow-skewed-window": (SHALLOW_PHI, 1.5, 1.5, (1.0,), (-0.75, 0.25)),
    "steep-rho-sixth-0.3": (STEEP_PHI, 1.0 / 6.0, 0.3, (1.0,), (-0.5, 0.5)),
    "shallow-rho-1.5-1": (SHALLOW_PHI, 1.5, 1.0, (1.0,), (-0.5, 0.5)),
    "steep-rho-1": (STEEP_PHI, 1.0, 1.0, (1.0,), (-0.5, 0.5)),
}
# The table's first cases, listed first so that their ids keep their indices
FIRST_CASES = [
    *((name, n) for n in (192, 256, 512) for name in ("steep", "shallow", "var")),
    ("steep", 1024), ("var", 1024), ("cal-rho-0.25", 256), ("cal-rho-4", 128),
    ("shallow-skewed-window", 128), ("steep-rho-sixth-0.3", 256), ("shallow-rho-1.5-1", 256),
    ("shallow", 1024), ("cal-rho-0.25", 1024), ("cal-rho-1", 1024),
]
# At n = 2048 cond(J) is about 3e12, and on these problems Newton does not
# converge in stage 0 (on shallow max|R| cycles between 1e3 and 1e5 for all
# MAX_ITERS iterations): the sweep ends unconverged and raises nothing
ILL_CONDITIONED = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "known defect, ROADMAP item 12: cond(J) ~ 3e12 at n = 2048 stalls stage 0"))
STALLS_AT_2048 = ("shallow", "cal-rho-0.25", "cal-rho-4", "shallow-skewed-window",
                  "shallow-rho-1.5-1")
SWEEP_CASES = FIRST_CASES + [(name, n) for n in (192, 256, 512, 1024, 2048) for name in PROBLEMS
                             if (name, n) not in FIRST_CASES]


@pytest.mark.parametrize("name, n, problem", [
    pytest.param(name, n, PROBLEMS[name],
                 marks=ILL_CONDITIONED if n == 2048 and name in STALLS_AT_2048 else ())
    for name, n in SWEEP_CASES
])
def test_nontrivial_sweep_converges_at_every_stage(name, n, problem):
    phi, rho_minus, rho_plus, weight, window = problem
    setup = monopolist_setup(n=n, eps=0.1, rho=rho_minus, rho_plus=rho_plus, phi=phi,
                             weight=weight, window=window)
    stages = continuation_sweep(setup, default_eps_schedule())
    assert [res.converged for _, res in stages] == [True] * 11


def test_newton_stops_on_a_roundoff_sized_correction():
    # max|R| cannot reach 1e-30 * (1 + 1/eps); the last correction is
    # roundoff-sized, so it is taken whole, its residual evaluated once
    setup = monopolist_setup(n=64, eps=0.1, rho=1 / 6, phi=STEEP_PHI)
    res = newton_solve(setup, setup.phi, Tolerances(newton_tol_scale=1e-30))
    assert res.converged and res.newton_iters < solver.MAX_ITERS and res.stop == "step"
    assert res.residual_norms[-1] > 1e-30 * (1.0 + 1.0 / setup.eps)
    assert res.step_norms[-1] <= solver.STEP_TOL * (1.0 + np.abs(res.u).max())
    assert res.step_lengths[-1] == 1.0
    assert len(res.residual_norms) == len(res.min_upps) == res.newton_iters + 1
    assert res.residual_norms[-1] == np.abs(residual(res.u, setup)).max()


@pytest.mark.parametrize("name, iters, problem", [
    ("cal", 0, (CAL_PHI, 0.5, (1.0,))),
    ("steep", 1, (STEEP_PHI, 1.0 / 6.0, (1.0,))),
    ("var", 1, (CAL_PHI, 0.5, (1.0, 0.5))),
])
def test_result_arrays_equal_fresh_derivatives_bitwise(name, iters, problem):
    # the converged iterate's u'', u' and f, as Newton's last residual took
    # them, are d2, d1 and f_eps of the returned u, bit for bit
    phi, rho, weight = problem
    setup = monopolist_setup(n=128, eps=0.05, rho=rho, phi=phi, weight=weight)
    res = newton_solve(setup, setup.phi)
    assert res.converged and res.newton_iters >= iters
    g = setup.grid
    assert np.array_equal(res.upp, d2(res.u, g))
    assert np.array_equal(res.up, d1(res.u, g))
    assert np.array_equal(res.f, f_eps(res.u, setup))
    assert np.array_equal(res.w, 1.0 / d2(res.u, g))


def test_continuation_single_stage_equals_newton_solve():
    setup = monopolist_setup(eps=0.05)
    stages = continuation_sweep(setup, [0.05])
    direct = newton_solve(setup, setup.phi)
    np.testing.assert_array_equal(stages[0][1].u, direct.u)


def test_continuation_rejects_bad_schedules():
    setup = monopolist_setup(eps=0.1)
    with pytest.raises(ValueError):
        continuation_sweep(setup, [0.1, 0.2])
    with pytest.raises(ValueError):
        continuation_sweep(setup, [0.5, 0.5])
    with pytest.raises(ValueError):
        continuation_sweep(setup, [1.5, 0.1])


def test_eval_J_eps_closed_form_pieces():
    # At u = phi the penalty vanishes and the log term is -eps * 2 log 2,
    # so J_eps + 2 eps log 2 equals the window term independently of eps.
    setup1 = monopolist_setup(eps=0.02)
    setup2 = monopolist_setup(eps=0.01)
    phi = setup1.phi
    J1 = eval_J_eps(phi, setup1)
    J2 = eval_J_eps(phi, setup2)
    window = eval_J(phi, setup1)
    assert J1 + 2 * 0.02 * np.log(2.0) == pytest.approx(window, abs=1e-13)
    assert J2 + 2 * 0.01 * np.log(2.0) == pytest.approx(window, abs=1e-13)
    # halving eps at u = phi changes only the log term
    assert J2 - J1 == pytest.approx(0.02 * np.log(2.0), abs=1e-13)


def test_eval_J_eps_rejects_nonconvex():
    setup = monopolist_setup()
    u = setup.phi.copy()
    u[10] += 1.0
    with pytest.raises(ValueError, match=r"^u'' <= 0 at node 10: -"):
        eval_J_eps(u, setup)


def test_stationarity_link_at_converged_solution():
    # Finite-difference gradient of the penalized functional vanishes at the
    # solution on nodes where the trapezoid weights and central stencils are
    # interior-consistent: away from the domain boundary stencils and from
    # the window-edge trapezoid weights.
    setup = monopolist_setup(eps=0.01)
    res = newton_solve(setup, setup.phi)
    assert res.converged
    g = setup.grid
    tol = 1e-5 * (1.0 + 1.0 / setup.eps)
    skip = set(range(g.ia - 1, g.ia + 2)) | set(range(g.ib - 1, g.ib + 2))
    step = 1e-6
    for k in range(4, g.n - 3):
        if k in skip:
            continue
        up = res.u.copy()
        up[k] += step
        um = res.u.copy()
        um[k] -= step
        grad = (eval_J_eps(up, setup) - eval_J_eps(um, setup)) / (2 * step)
        assert abs(grad) <= tol


def _random_band(rng, n, pivoting):
    """A random (2, 2) band of order n: diagonally dominant, or with a diagonal
    small enough that partial pivoting swaps rows."""
    ab = rng.uniform(-1.0, 1.0, (5, n))
    if pivoting:
        ab[2] *= 1e-3
    else:
        ab[2] = np.sign(ab[2]) * (4.5 + np.abs(ab[2]))
    return ab


def _real_bands():
    """The Newton Jacobian and the barrier Hessian at n = 64, with right-hand sides."""
    setup = monopolist_setup(n=64, eps=0.01, phi=STEEP_PHI, rho=1.0 / 6.0, weight=(1.0, 0.5))
    u = setup.phi + 0.01 * np.cos(np.pi * setup.grid.nodes / 2.0) * setup.grid.nodes**2
    yield jacobian(u, setup), -residual(u, setup)
    for phi in (STEEP_PHI, SHALLOW_PHI):
        s = monopolist_setup(n=64, phi=phi, weight=(1.0, 0.5))
        gJ, HJ = _cell_objective(s)[1](s.phi)
        gB, HB = _barrier_terms(s, 1e-3, d2(s.phi, s.grid)[s.grid.window_slice()])
        yield HJ + HB, -(gJ + gB)


@pytest.mark.parametrize("n", [17, 129, 8193])
@pytest.mark.parametrize("pivoting", [False, True], ids=["dominant", "pivoting"])
def test_solve_banded_equals_scipy_bitwise_on_random_bands(n, pivoting):
    rng = np.random.default_rng(n + pivoting)
    for _ in range(3):
        ab, b = _random_band(rng, n, pivoting), rng.standard_normal(n)
        x = solve_banded((2, 2), ab, b)
        assert np.array_equal(x, scipy.linalg.solve_banded((2, 2), ab, b))
        assert np.all(np.isfinite(x))
        lu = np.zeros((7, n))
        lu[2:] = ab
        swapped = scipy.linalg.lapack.dgbsv(2, 2, lu, b)[1] != np.arange(n)  # 0-based pivots
        assert np.any(swapped) == pivoting


def test_solve_banded_equals_scipy_bitwise_on_the_packages_bands():
    for ab, b in _real_bands():
        assert np.array_equal(solve_banded((2, 2), ab, b),
                              scipy.linalg.solve_banded((2, 2), ab, b))


def test_solve_banded_leaves_its_inputs_unchanged():
    ab, b = _random_band(np.random.default_rng(0), 17, pivoting=True), np.ones(17)
    ab0, b0 = ab.copy(), b.copy()
    solve_banded((2, 2), ab, b)
    assert np.array_equal(ab, ab0) and np.array_equal(b, b0)


def _bad_inputs():
    ab, b = _random_band(np.random.default_rng(1), 17, pivoting=False), np.ones(17)
    for bad in (np.nan, np.inf, -np.inf):
        a_bad, b_bad = ab.copy(), b.copy()
        a_bad[2, 5] = bad
        b_bad[5] = bad
        yield f"band {bad}", (2, 2), a_bad, b, ValueError
        yield f"rhs {bad}", (2, 2), ab, b_bad, ValueError
    singular = np.zeros((5, 17))
    singular[2] = 1.0
    singular[2, 9] = 0.0
    yield "singular", (2, 2), singular, b, np.linalg.LinAlgError
    yield "rhs length", (2, 2), ab, np.ones(16), ValueError
    yield "band rows", (1, 2), ab, b, ValueError


@pytest.mark.parametrize("case", list(_bad_inputs()), ids=lambda case: case[0])
@pytest.mark.parametrize("solve", [solve_banded, scipy.linalg.solve_banded],
                         ids=["package", "scipy"])
def test_solve_banded_raises_what_scipy_raises(solve, case):
    _, l_and_u, ab, b, error = case
    with pytest.raises(error):
        solve(l_and_u, ab, b)


# In a fresh interpreter, imports scipy.linalg before or after the first
# `load_dgbsv()` (argv[1] is "before" or "after"), then prints whether its
# dgbsv gives every output of scipy.linalg.lapack.dgbsv bit for bit.
LOAD_ORDER = """\
import sys
import numpy as np
if sys.argv[1] == "before":
    import scipy.linalg
from abreu1d.solver import load_dgbsv
dgbsv = load_dgbsv()
import scipy.linalg.lapack
rng = np.random.default_rng(5)
for n in (17, 129, 8193):
    lu = np.zeros((7, n))
    lu[2:] = rng.standard_normal((5, n))
    b = rng.standard_normal(n)
    ours = dgbsv(2, 2, lu.copy(), b.copy())
    scipys = scipy.linalg.lapack.dgbsv(2, 2, lu.copy(), b.copy())
    print(all(np.array_equal(x, y) for x, y in zip(ours, scipys)))
"""


@pytest.mark.parametrize("scipy_linalg", ["before", "after"])
def test_load_dgbsv_equals_scipys_dgbsv_bitwise(scipy_linalg):
    proc = subprocess.run([sys.executable, "-c", LOAD_ORDER, scipy_linalg],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "True\n" * 3


@pytest.mark.parametrize("installed", [False, True], ids=["no-scipy", "no-extension"])
def test_load_dgbsv_names_a_missing_extension(tmp_path, monkeypatch, installed):
    # a scipy package directory without linalg/_flapack, or no scipy at all
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec if installed else None)
    with pytest.raises(ImportError, match=r"scipy\.linalg\._flapack"):
        solver.load_dgbsv.__wrapped__()


def test_newton_records_every_iteration():
    # rho != 1/phi'' moves w at the boundary, so the first step is shortened
    setup = monopolist_setup(n=64, eps=0.1, rho=1.0)
    res = newton_solve(setup, setup.phi)
    assert res.converged and res.stop == "residual" and min(res.step_lengths) < 1.0
    assert len(res.residual_norms) == res.newton_iters + 1
    assert [len(res.step_norms), len(res.step_lengths)] == [res.newton_iters] * 2
    assert all(0.0 < t <= 1.0 for t in res.step_lengths)
    assert len(res.min_upps) == len(res.residual_norms)
    assert (res.min_upps[0], res.min_upps[-1]) == (d2(setup.phi, setup.grid).min(),
                                                   d2(res.u, setup.grid).min())


def test_newton_records_a_stalled_iteration():
    # a convexity floor above the solution's least u'' (as in
    # test_newton_convexity_floor_comes_from_tolerances) fails the stage at
    # the first step whose next iterate's min u'' would reach it
    setup = monopolist_setup(n=64, eps=0.1, rho=1 / 6, phi=STEEP_PHI)
    res = newton_solve(setup, setup.phi, Tolerances(convexity_floor_scale=5.0))
    assert not res.converged and 1 <= res.newton_iters < solver.MAX_ITERS
    assert res.stop == "convexity_floor"
    assert len(res.residual_norms) == len(res.min_upps) == res.newton_iters
    assert len(res.step_lengths) == res.newton_iters and res.step_lengths[-1] == 0.0
    assert res.min_upps[-1] == d2(res.u, setup.grid).min() > 5.0 * setup.eps * setup.c0


def test_newton_stops_after_max_iters(monkeypatch):
    setup = monopolist_setup(n=64, eps=0.1, rho=1.0)
    assert newton_solve(setup, setup.phi).newton_iters > 2
    monkeypatch.setattr(solver, "MAX_ITERS", 2)
    res = newton_solve(setup, setup.phi)
    assert (res.stop, res.converged, res.newton_iters) == ("max_iters", False, 2)
    assert len(res.residual_norms) == len(res.min_upps) == 3
    assert res.residual_norms[-1] > 1e-10 * (1.0 + 1.0 / setup.eps)


def test_step_length_is_the_fraction_to_the_boundary():
    s, frac = np.array([1.0, 2.0, 4.0]), solver.STEP_FRACTION
    # the largest relative fall f = max(-ds / s) is at most STEP_FRACTION: t = 1
    assert step_length(-frac * s, s) == 1.0
    assert step_length(np.array([1.0, 0.0, 2.0]), s) == 1.0
    # f = 4 at s_1: t = STEP_FRACTION / f, which takes s_1 to (1 - STEP_FRACTION) s_1
    ds = np.array([-0.5, -8.0, 1.0])
    t = step_length(ds, s)
    assert t == frac / 4.0
    assert s[1] + t * ds[1] == pytest.approx((1.0 - frac) * s[1], rel=1e-15)


def test_step_length_keeps_every_s_above_a_fraction_of_itself():
    rng = np.random.default_rng(11)
    for _ in range(200):
        s = rng.uniform(1e-6, 1.0, 50) * 10.0 ** rng.integers(-8, 8)
        ds = rng.standard_normal(50) * 10.0 ** rng.integers(-8, 8)
        t = step_length(ds, s)
        assert 0.0 < t <= 1.0
        assert np.all(s + t * ds >= (1.0 - solver.STEP_FRACTION) * s * (1.0 - 1e-15))


def test_newton_step_keeps_half_of_every_curvature():
    # the step length t = min(1, STEP_FRACTION / f) keeps min u'' above half
    # its last value, up to roundoff: shortened steps reach the ratio 0.5
    for _, res in continuation_sweep(monopolist_setup(n=1024, eps=0.1, rho=1 / 6, phi=STEEP_PHI),
                                     default_eps_schedule()):
        assert res.converged
        assert all(0.0 < t <= 1.0 for t in res.step_lengths)
        for before, after in zip(res.min_upps, res.min_upps[1:]):
            assert after >= 0.5 * before * (1.0 - 1e-9)
