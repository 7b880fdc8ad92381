"""Direct minimization of the window functional over convex nodal functions.

The oracle reads only the grid, Lagrangian and obstacle of the scheme's
`ProblemSetup`, and evaluates the Lagrangian through `setup.at_midpoints`,
which the setup binds once per problem; no oracle run binds again.  The
admissible set pins v to the obstacle outside the window and requires
nonnegative second differences at every interior node of [-1, 1] --
including s_ia .. s_ib at the nodes straddling the window endpoints, which
couple the free values (`grid.interior_slice()`) to the pinned obstacle
slopes.

A log-barrier interior-point method is used.  The barrier objective is
minimized with an inner Newton iteration whose Hessian is pentadiagonal in
the free values, so it is assembled in banded form and solved with
`solver.solve_banded` (LAPACK dgbsv); a singular Hessian raises its
LinAlgError, as a singular Jacobian does in Newton.  Its step length is
Newton's, `solver.step_length`, the fraction to the boundary of
s_ia .. s_ib, so no step evaluates the barrier objective.  The
smooth part is assembled from a per-cell midpoint quadrature, which (unlike
the nodal trapezoid rule) is exactly stationary at the discrete minimizer
and free of the odd/even decoupling of nodal central differences.
Reported functional values use `solver.eval_J` (trapezoid), the scheme's
own quadrature.

For a `rochet_chone` Lagrangian with a positive weight, the cell objective
is a weighted least-squares fit of the cell slopes, and `iron` solves the
cone problem exactly by pool-adjacent-violators.  Where its minimizer leaves
every constraint inactive, `minimize_direct` starts the barrier loop there,
at the last barrier parameter, which takes one or two Newton steps instead
of the whole path from the obstacle.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import d2, d2_central_coeffs
from .lagrangian import RochetChoneSpec
from .solver import ProblemSetup, eval_J, solve_banded, step_length


@dataclass
class Ironing:
    """`iron`'s minimizer and the KKT residual of the cone problem at it.

    `blocks` lists the bunching intervals as (first, last) node indices of
    each maximal run of active constraints s_i = 0.  The residual's parts
    are the largest |gradient - C^T mu| over the free values, |mu_i s_i|
    and -mu_i (or 0) over i = ia .. ib, for the multipliers mu of the
    constraints s_i >= 0 that the pooling determines.
    """

    v: np.ndarray
    blocks: list[tuple[int, int]]
    stationarity: float
    complementarity: float
    dual_feasibility: float


@dataclass
class MinimizeResult:
    v: np.ndarray
    J_value: float
    kkt_residual: float
    iters: int  # barrier Newton steps
    start: str  # where the barrier loop started: "ironing" or "obstacle"
    ironing: Optional[Ironing]  # `iron`'s result, None where it does not apply


# barrier parameters mu = 0.1 * 4^-k down to the first one <= 1e-9
BARRIER_PATH = [0.1 * 0.25**k for k in range(15)]
INNER_MAX_ITERS = 80


def check_admissibility(v: np.ndarray, setup: ProblemSetup, tol: float = 1e-10):
    """Return (admissible, worst_violation); violation > 0 means infeasible."""
    g = setup.grid
    s = d2(v, g)[1:-1]
    conv_viol = float(np.max(-s))
    pinned = np.ones(g.n + 1, dtype=bool)
    pinned[g.interior_slice()] = False
    pin_viol = float(np.max(np.abs(v[pinned] - setup.phi[pinned])))
    worst = max(conv_viol, pin_viol)
    return worst <= tol, worst


def _cell_objective(setup: ProblemSetup):
    """Smooth part of the barrier objective on the free nodes.

    Returns (value, grad_hess).  value(v) is the per-cell midpoint quadrature
    of F(x, v, v') over the window, from `setup.at_midpoints`.  grad_hess
    gives the gradient and the Hessian in `solve_banded` (2, 2) form,
    ab[2 + k - l, l] = H[k, l]; the Hessian is tridiagonal, so bands 0 and
    4 stay zero.
    """
    g, lag = setup.grid, setup.at_midpoints
    h = g.h
    cells = np.arange(g.ia, g.ib)  # cell i spans [x_i, x_{i+1}]
    m = g.ib - g.ia - 1

    def value(v):
        vm = 0.5 * (v[cells] + v[cells + 1])
        pm = (v[cells + 1] - v[cells]) / h
        return h * float(np.sum(lag.f0(vm) + lag.f1(pm)))

    def grad_hess(v):
        vm = 0.5 * (v[cells] + v[cells + 1])
        pm = (v[cells + 1] - v[cells]) / h
        fz = lag.f0_z(vm)
        fp = lag.f1_p(pm)
        curv = lag.f1_pp(pm) / (h * h)
        # cell c couples free nodes c-1 and c: free node k sums cell k, then cell k+1
        gl = h * (0.5 * fz - fp / h)
        gr = h * (0.5 * fz + fp / h)
        if lag.f0_zz is None:  # identically zero
            hd, ho = h * curv, h * -curv
        else:
            fzz = 0.25 * lag.f0_zz(vm)
            hd, ho = h * (fzz + curv), h * (fzz - curv)
        H = np.zeros((5, m))
        H[1, 1:] = ho[1:m]
        H[2] = hd[:m] + hd[1:]
        H[3, :-1] = ho[1:m]
        return gr[:m] + gl[1:], H

    return value, grad_hess


def _barrier_terms(setup: ProblemSetup, mu: float, s: np.ndarray):
    """Gradient and Hessian of -mu * sum log s_i over free nodes, at s = s_ia .. s_ib.

    Only constraints i = ia .. ib involve free values; the rest are constant.
    Constraint i touches free nodes i-2, i-1, i (counted from ia + 1), so the
    Hessian is pentadiagonal and returned in `solve_banded` (2, 2) form.
    Each entry sums its constraints in increasing i.
    """
    g = setup.grid
    m = g.ib - g.ia - 1
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


def _pool(y, w):
    """Pool adjacent violators: weighted isotonic regression of the targets `y`.

    Returns the blocks' first indices, weights and weighted target sums, in
    order; each block's value, sum / weight, exceeds the one before it.
    """
    firsts, weights, sums = [], [], []
    for i, (yi, wi) in enumerate(zip(y.tolist(), w.tolist())):
        first, weight, total = i, wi, wi * yi
        while sums and sums[-1] * weight >= total * weights[-1]:
            first = firsts.pop()
            weight += weights.pop()
            total += sums.pop()
        firsts.append(first)
        weights.append(weight)
        sums.append(total)
    return firsts, weights, sums


def iron(setup: ProblemSetup) -> Optional[Ironing]:
    """Exact minimizer of the cell objective over the discrete convex cone.

    For F = (p^2/2 - p x + z) eta0(x) the cell objective is, in the window's
    cell slopes q_c, sum_c w_c/2 (q_c - t_c)^2 plus a constant, with
    w_c = h eta0(xm_c) and t_c = xm_c - a_c/w_c, a_c = h^2 (eta0_c/2 +
    sum_{c' > c} eta0_c').  The cone asks for nondecreasing q between the
    pinned cells' slopes, and the pinned values for h sum q = phi(b) - phi(a),
    whose multiplier lambda shifts each target by -lambda h / w_c.  At each
    lambda, pool-adjacent-violators and a clip to the pinned slopes solve
    the rest (ironing: Mussa & Rosen 1978; Barlow et al. 1972).  The sum of
    q is piecewise linear and decreasing in lambda; lambda is bisected, and
    each step goes to the root of the current linear piece where that lies
    in the bracket, so the search ends on the piece that holds the root.

    Returns None unless the Lagrangian is a `RochetChoneSpec` with eta0 > 0
    at every cell midpoint of the window, as `setup.at_midpoints` gives it.
    """
    g, lag = setup.grid, setup.at_midpoints
    if not isinstance(setup.lagrangian, RochetChoneSpec):
        return None
    h, ia, ib, phi, xm = g.h, g.ia, g.ib, setup.phi, lag.x
    eta = lag.f1_pp(xm)  # eta0 at the cell midpoints
    if not np.all(eta > 0.0):
        return None
    w = h * eta
    t = xm - h * h * (0.5 * eta + (np.cumsum(eta[::-1])[::-1] - eta)) / w
    lo_q, hi_q = (phi[ia] - phi[ia - 1]) / h, (phi[ib + 1] - phi[ib]) / h
    total = (phi[ib] - phi[ia]) / h  # sum of q the pinned values ask for
    cells = ib - ia

    def solve(lam):
        """Cell slopes at lambda, their sum and -d(sum)/d(lambda) / h."""
        firsts, weights, sums = _pool(t - lam * h / w, w)
        weights = np.array(weights)
        values = np.clip(np.array(sums) / weights, lo_q, hi_q)
        sizes = np.diff(firsts + [cells])
        free = (values > lo_q) & (values < hi_q)
        q = np.repeat(values, sizes)
        return q, float(np.sum(q)), float(np.sum(sizes[free] ** 2 / weights[free]))

    # below lo every shifted target is >= hi_q, so sum q > total; above hi every one is <= lo_q
    lo, hi = float(np.min((t - hi_q) * w / h)), float(np.max((t - lo_q) * w / h))
    tol = 4.0 * np.finfo(float).eps * max(abs(lo), abs(hi))
    # the root when no target pools or clips
    lam = min(max(float(np.sum(t) - total) / (h * float(np.sum(1.0 / w))), lo), hi)
    width = hi - lo
    while True:
        q, q_sum, slope = solve(lam)
        if q_sum > total:
            lo = lam
        else:
            hi = lam
        # the root of the linear piece at lam, which has no root where every q clips
        step = lam + (q_sum - total) / (h * slope) if slope > 0.0 else None
        if step is not None and lo <= step <= hi and abs(step - lam) <= tol or hi - lo <= tol:
            break
        # bisect where that root lies outside the bracket, or where two
        # steps have not halved it
        if step is None or not lo < step < hi or hi - lo > 0.5 * width:
            step = 0.5 * (lo + hi)
        width, lam = hi - lo, step

    v = np.array(phi, dtype=float)
    v[ia + 1 : ib] = phi[ia] + h * np.cumsum(q[:-1])
    # each cell's stationarity residual at v's own slopes, lambda included
    r = w * (np.diff(v[ia : ib + 1]) / h - t) + lam * h
    return _ironing(setup, v, q, r, lo_q, hi_q)


def _ironing(setup: ProblemSetup, v, q, r, lo_q, hi_q) -> Ironing:
    """`iron`'s result: its active constraints, multipliers and KKT residual at v.

    The constraint at window node j = 0 .. cells, q_j - q_{j-1} >= 0 with
    q_{-1} = lo_q and q_cells = hi_q the pinned slopes, is active where the
    two slopes are equal.  Its multiplier nu_j = mu_j / h follows from the
    stationarity of the cells of each run of equal slopes,
    nu_{j+1} = nu_j - r_j with r_j = w_j (q_j - t_j) + lambda h: nu is 0
    where a run starts, except on the run at the left pinned slope, where it
    is 0 where the run ends.
    """
    g = setup.grid
    h, ia, ib = g.h, g.ia, g.ib
    cells = ib - ia
    ends = np.concatenate(([lo_q], q, [hi_q]))
    active = ends[:-1] == ends[1:]
    run = np.concatenate(([True], q[1:] != q[:-1]))
    first = np.maximum.accumulate(np.where(run, np.arange(cells), 0))
    anchor = np.where(q == lo_q, np.count_nonzero(q == lo_q), first)
    R = np.concatenate(([0.0], np.cumsum(r)))
    j = np.arange(cells + 1)
    mu = h * np.where(active, R[anchor[np.minimum(j, cells - 1)]] - R, 0.0)

    w0, w1, w2 = d2_central_coeffs(g)
    m = cells - 1
    grad, _ = _cell_objective(setup)[1](v)
    s = d2(v, g)[g.window_slice()]
    # runs of active constraints: their first and last nodes
    flips = np.flatnonzero(np.diff(np.concatenate(([False], active, [False])).astype(int)))
    return Ironing(
        v=v,
        blocks=[(ia + int(a), ia + int(b) - 1) for a, b in zip(flips[::2], flips[1::2])],
        stationarity=float(np.max(np.abs(grad - (mu[:m] * w2 + mu[1:-1] * w1 + mu[2:] * w0)))),
        complementarity=float(np.max(np.abs(mu * s))),
        dual_feasibility=max(0.0, float(-np.min(mu))),
    )


def _barrier(setup: ProblemSetup, v: np.ndarray, path) -> tuple[np.ndarray, int, float]:
    """The log-barrier loop from the strictly feasible v along the mu values of `path`.

    Returns the last iterate, the number of Newton steps and max|gradient|
    of the barrier objective there, its KKT residual.  A step whose
    recomputed s is not all > 0 (roundoff at a binding constraint) is not
    taken, and ends its mu.
    """
    g = setup.grid
    win, free = g.window_slice(), g.interior_slice()
    s = d2(v, g)[win]  # s_ia .. s_ib at v, kept equal as v moves
    _, smooth_grad_hess = _cell_objective(setup)
    correction = np.zeros_like(v)  # the Newton step on the free values, 0 where v is pinned
    total_iters = 0

    grad_total = None
    for mu in path:
        inner_tol = max(1e-11, 1e-4 * mu)
        for _ in range(INNER_MAX_ITERS):
            gJ, HJ = smooth_grad_hess(v)
            gB, HB = _barrier_terms(setup, mu, s)
            grad_total = gJ + gB
            if float(np.max(np.abs(grad_total))) <= inner_tol:
                break
            step = solve_banded((2, 2), HJ + HB, -grad_total)
            correction[free] = step
            v_next = v.copy()
            v_next[free] = v[free] + step_length(d2(correction, g)[win], s) * step
            s_next = d2(v_next, g)[win]
            total_iters += 1
            if not np.min(s_next) > 0.0:
                break
            v, s = v_next, s_next
    return v, total_iters, float(np.max(np.abs(grad_total)))


def minimize_direct(setup: ProblemSetup) -> MinimizeResult:
    """Interior-point minimization over the discrete convex cone.

    The barrier loop runs at the last mu of `BARRIER_PATH` from `iron`'s
    minimizer when ironing applies and leaves every constraint inactive
    (then that point lies strictly inside the cone), and from the obstacle
    along the whole path otherwise.  Either way it returns the barrier's
    minimizer at the last mu.
    """
    g = setup.grid
    if np.min(d2(setup.phi, g)[g.window_slice()]) <= 0.0:
        raise ValueError("infeasible start: obstacle is not uniformly convex on the grid")
    ironing = iron(setup)
    warm = (ironing is not None and not ironing.blocks
            and np.min(d2(ironing.v, g)[g.window_slice()]) > 0.0)
    if warm:
        v, iters, kkt = _barrier(setup, ironing.v, BARRIER_PATH[-1:])
    else:
        v, iters, kkt = _barrier(setup, np.array(setup.phi, dtype=float), BARRIER_PATH)
    return MinimizeResult(
        v=v,
        J_value=eval_J(v, setup),
        kkt_residual=kkt,
        iters=iters,
        start="ironing" if warm else "obstacle",
        ironing=ironing,
    )
