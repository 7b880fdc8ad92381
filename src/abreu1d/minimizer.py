"""Direct minimization of the window functional over convex nodal functions.

The oracle reads only the grid, Lagrangian and obstacle of the scheme's
`ProblemSetup`.  The admissible set pins v to the obstacle outside the
window and requires nonnegative second differences at every interior node
of [-1, 1] -- including s_ia .. s_ib at the nodes straddling the window
endpoints, which couple the free values (`grid.interior_slice()`) to the
pinned obstacle slopes.

A log-barrier interior-point method is used.  The barrier objective is
minimized with an inner Newton iteration whose Hessian is pentadiagonal in
the free values, so it is assembled in banded form and solved with
`solver.solve_banded` (LAPACK dgbsv; a singular Hessian is a RuntimeError).
The backtracking line search evaluates the barrier objective once per trial
and carries the accepted trial's value and second differences to the next
step.  The smooth part is assembled from a per-cell midpoint quadrature,
which (unlike the nodal trapezoid rule) is exactly stationary at the
discrete minimizer and free of the odd/even decoupling of nodal central
differences.  Reported functional values use `solver.eval_J` (trapezoid),
the scheme's own quadrature.
"""

from dataclasses import dataclass

import numpy as np

from .grid import Grid, d2, d2_central_coeffs
from .solver import ProblemSetup, eval_J, solve_banded


@dataclass
class MinimizeResult:
    v: np.ndarray
    J_value: float
    kkt_residual: float
    iters: int


# barrier parameters mu = 0.1 * 4^-k down to the first one <= 1e-9
BARRIER_PATH = [0.1 * 0.25**k for k in range(15)]
INNER_MAX_ITERS = 80


def second_differences(v: np.ndarray, grid: Grid) -> np.ndarray:
    """Interior second differences s_1 .. s_{n-1}."""
    return d2(v, grid)[1:-1]


def check_admissibility(v: np.ndarray, setup: ProblemSetup, tol: float = 1e-10):
    """Return (admissible, worst_violation); violation > 0 means infeasible."""
    g = setup.grid
    s = second_differences(v, g)
    conv_viol = float(np.max(-s))
    pinned = np.ones(g.n + 1, dtype=bool)
    pinned[g.interior_slice()] = False
    pin_viol = float(np.max(np.abs(v[pinned] - setup.phi[pinned])))
    worst = max(conv_viol, pin_viol)
    return worst <= tol, worst


def _cell_objective(setup: ProblemSetup):
    """Smooth part of the barrier objective on the free nodes.

    Returns (value, grad_hess).  value(v) is the per-cell midpoint quadrature
    of F(x, v, v') over the window.  grad_hess gives the gradient and the Hessian
    in `solve_banded` (2, 2) form, ab[2 + k - l, l] = H[k, l]; the Hessian is
    tridiagonal, so bands 0 and 4 stay zero.
    """
    g, lag = setup.grid, setup.lagrangian
    h = g.h
    cells = np.arange(g.ia, g.ib)  # cell i spans [x_i, x_{i+1}]
    xm = g.nodes[cells] + 0.5 * h
    m = g.ib - g.ia - 1

    def value(v):
        vm = 0.5 * (v[cells] + v[cells + 1])
        pm = (v[cells + 1] - v[cells]) / h
        return h * float(np.sum(lag.f0(xm, vm) + lag.f1(xm, pm)))

    def grad_hess(v):
        vm = 0.5 * (v[cells] + v[cells + 1])
        pm = (v[cells + 1] - v[cells]) / h
        fz = lag.f0_z(xm, vm)
        fzz = lag.f0_zz(xm, vm)
        fp = lag.f1_p(xm, pm)
        fpp = lag.f1_pp(xm, pm)
        # cell c couples free nodes c-1 and c: free node k sums cell k, then cell k+1
        gl = h * (0.5 * fz - fp / h)
        gr = h * (0.5 * fz + fp / h)
        hd = h * (0.25 * fzz + fpp / (h * h))
        ho = h * (0.25 * fzz - fpp / (h * h))
        H = np.zeros((5, m))
        H[1, 1:] = ho[1:m]
        H[2] = hd[:m] + hd[1:]
        H[3, :-1] = ho[1:m]
        return gr[:m] + gl[1:], H

    return value, grad_hess


def _barrier_terms(v, setup: ProblemSetup, mu: float, s=None):
    """Gradient and Hessian of -mu * sum log s_i over free nodes.

    `s`, if given, is s_ia .. s_ib at v, already computed by the caller.

    Only constraints i = ia .. ib involve free values; the rest are constant.
    Constraint i touches free nodes i-2, i-1, i (counted from ia + 1), so the
    Hessian is pentadiagonal and returned in `solve_banded` (2, 2) form.
    Each entry sums its constraints in increasing i.
    """
    g = setup.grid
    m = g.ib - g.ia - 1
    if s is None:
        s = d2(v, g)[g.window_slice()]
    w0, w1, w2 = d2_central_coeffs(g)
    q = -mu / s
    r = mu / (s * s)
    grad = q[:m] * w2 + q[1:-1] * w1 + q[2:] * w0
    H = np.zeros((5, m))
    H[0, 2:] = r[2:m] * (w0 * w2)
    H[1, 1:] = r[1:m] * (w1 * w2) + r[2 : m + 1] * (w0 * w1)
    H[2] = r[:m] * (w2 * w2) + r[1:-1] * (w1 * w1) + r[2:] * (w0 * w0)
    H[3, :-1] = H[1, 1:]
    H[4, :-2] = H[0, 2:]
    return grad, H


def minimize_direct(setup: ProblemSetup) -> MinimizeResult:
    """Interior-point minimization over the discrete convex cone."""
    g = setup.grid
    v = np.array(setup.phi, dtype=float)
    s = d2(v, g)[g.window_slice()]  # s_ia .. s_ib at v, kept equal as v moves
    if np.min(s) <= 0.0:
        raise ValueError("infeasible start: obstacle is not uniformly convex on the grid")

    smooth_value, smooth_grad_hess = _cell_objective(setup)

    def barrier_objective(v, s, mu):  # s = s_ia .. s_ib at v
        return smooth_value(v) - mu * float(np.sum(np.log(s)))

    free = g.interior_slice()
    total_iters = 0

    grad_total = None
    for mu in BARRIER_PATH:
        inner_tol = max(1e-11, 1e-4 * mu)
        obj0 = None  # barrier objective at v, kept from the accepted trial
        for _ in range(INNER_MAX_ITERS):
            gJ, HJ = smooth_grad_hess(v)
            gB, HB = _barrier_terms(v, setup, mu, s)
            grad_total = gJ + gB
            if float(np.max(np.abs(grad_total))) <= inner_tol:
                break
            H = HJ + HB
            try:
                step = solve_banded((2, 2), H, -grad_total)
            except np.linalg.LinAlgError:
                raise RuntimeError("inner Newton failure: singular barrier Hessian")
            # backtrack: stay strictly feasible and decrease the barrier objective
            if obj0 is None:
                obj0 = barrier_objective(v, s, mu)
            t = 1.0
            accepted = False
            for _ in range(60):
                v_try = v.copy()
                v_try[free] = v[free] + t * step
                s_try = d2(v_try, g)[g.window_slice()]
                if np.min(s_try) > 0.0:
                    obj_try = barrier_objective(v_try, s_try, mu)
                    if obj_try < obj0 + 1e-14 * abs(obj0):
                        v, s, obj0 = v_try, s_try, obj_try
                        accepted = True
                        break
                t *= 0.5
            total_iters += 1
            if not accepted:
                break

    kkt = float(np.max(np.abs(grad_total)))
    return MinimizeResult(
        v=v,
        J_value=eval_J(v, g, setup.lagrangian),
        kkt_residual=kkt,
        iters=total_iters,
    )
