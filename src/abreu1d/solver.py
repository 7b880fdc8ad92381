"""Damped Newton solver for the penalized fourth-order two-point problem.

The unknowns are the nodal values of u.  The reciprocal second derivative
w = 1/u'' is derived, and the two boundary conditions per endpoint are
imposed as: Dirichlet rows at i = 0, n and reciprocal-curvature rows at
i = 1, n-1.  Interior rows discretize

    eps * w'' = (1/eps)(u - phi)                       outside (a, b)
    eps * w'' = f0_z(x, u) - f1_px(x, u') - f1_pp(x, u') u''   inside (a, b)

with the window-edge nodes taking the penalty branch.  Each Newton step is
one `solve_banded` call, a direct LAPACK dgbsv solve of the banded Jacobian.
LAPACK comes from scipy, which `load_dgbsv` imports on the first solve, so a
process that takes no Newton or barrier step never loads scipy.
"""

import functools
import math
from dataclasses import dataclass, fields, replace
from typing import Optional, Sequence

import numpy as np

from .grid import Grid, d1, d2, d2_boundary_coeffs, integrate
from .lagrangian import LagrangianSpec


class NonconvexIterate(RuntimeError):
    """Some discrete second difference of the iterate is nonpositive."""


class NotConverged(RuntimeError):
    """A post-processing step was given a stage that did not converge."""


@dataclass
class Tolerances:
    """The package's tolerances; the only settable numerical options.

    Newton stops at max|R| <= newton_tol_scale * (1 + 1/eps) and backtracks
    steps whose min u'' would fall to convexity_floor_scale * eps * c0.  The
    oracle must reach KKT <= kkt_tol, and the weak-form check passes at
    max residual <= el_residual_tol.
    """

    newton_tol_scale: float = 1e-10
    convexity_floor_scale: float = 1e-3
    kkt_tol: float = 1e-8
    el_residual_tol: float = 1e-3

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{f.name} must be a finite number > 0, got {value!r}")


MAX_ITERS = 200
MAX_HALVINGS = 40


@dataclass(frozen=True)
class ProblemSetup:
    grid: Grid
    lagrangian: LagrangianSpec
    phi: np.ndarray
    rho_minus: float
    rho_plus: float
    eps: float
    c0: float

    def __post_init__(self):
        n = self.grid.n
        if abs(self.phi[0]) > 1e-12 or abs(self.phi[n]) > 1e-12:
            raise ValueError("obstacle must vanish at the boundary: phi(+-1) = 0")
        if self.rho_minus <= 0.0 or self.rho_plus <= 0.0:
            raise ValueError("boundary data must be positive: rho+- > 0")
        if not (0.0 < self.eps < 1.0):
            raise ValueError(f"penalization parameter must lie in (0, 1), got {self.eps}")


def make_setup(
    grid: Grid,
    lagrangian: LagrangianSpec,
    phi_coeffs: Sequence[float],
    rho_minus: float,
    rho_plus: float,
    eps: float,
) -> ProblemSetup:
    """Sample a polynomial obstacle on the grid and certify its convexity."""
    c = np.asarray(phi_coeffs, dtype=float)
    P = np.polynomial.polynomial
    x = grid.nodes
    phi = P.polyval(x, c)
    phi_pp = P.polyval(x, P.polyder(c, 2)) if len(c) > 2 else np.zeros_like(x)
    c0 = float(np.min(phi_pp))
    if c0 <= 0.0:
        raise ValueError(f"obstacle is not uniformly convex on the grid: min phi'' = {c0}")
    return ProblemSetup(
        grid=grid, lagrangian=lagrangian, phi=phi,
        rho_minus=rho_minus, rho_plus=rho_plus, eps=eps, c0=c0,
    )


@dataclass
class SolveResult:
    u: np.ndarray
    w: np.ndarray
    newton_iters: int
    residual_norms: list[float]
    converged: bool
    min_upp: float


@functools.cache
def load_dgbsv():
    """LAPACK's dgbsv, imported on the first call: importing scipy.linalg
    (about 0.3 s and 20 MB) is half of a cold command-line start."""
    from scipy.linalg.lapack import dgbsv
    return dgbsv


def solve_banded(l_and_u: tuple[int, int], ab: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve A x = b for the banded A stored as ab[u + i - j, j] = A[i, j].

    The package's one linear solve, for the Newton Jacobian and the barrier
    Hessian, both (2, 2) bands.  It copies the band into the (2l + u + 1, n)
    storage of LAPACK's dgbsv (banded LU with partial pivoting) and calls it,
    as `scipy.linalg.solve_banded` does for any band but (1, 1), so x is
    bit-identical to scipy's.  It keeps scipy's checks: ValueError for
    non-finite entries, mismatched shapes or an illegal dgbsv argument, and
    LinAlgError for a singular matrix.  Neither input is modified.  The
    first call loads LAPACK through `load_dgbsv`.
    """
    nlower, nupper = l_and_u
    if ab.shape != (nlower + nupper + 1, b.shape[0]):
        raise ValueError(f"band of shape {ab.shape} does not fit (l, u) = {l_and_u} "
                         f"and a right-hand side of length {b.shape[0]}")
    if not (np.isfinite(ab).all() and np.isfinite(b).all()):
        raise ValueError("band and right-hand side must not contain infs or NaNs")
    lu = np.zeros((2 * nlower + nupper + 1, ab.shape[1]))
    lu[nlower:] = ab
    _, _, x, info = load_dgbsv()(nlower, nupper, lu, b, overwrite_ab=True)
    if info > 0:
        raise np.linalg.LinAlgError("singular matrix")
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of dgbsv")
    return x


def _curvatures(u: np.ndarray, setup: ProblemSetup, s: Optional[np.ndarray] = None) -> np.ndarray:
    """Nodal u'', `s` if given, else d2(u); NonconvexIterate unless all are > 0."""
    if s is None:
        s = d2(u, setup.grid)
    if np.any(s <= 0.0):
        i = int(np.argmin(s))
        raise NonconvexIterate(f"u'' <= 0 at node {i}: {s[i]}")
    return s


def f_eps(u: np.ndarray, s: np.ndarray, setup: ProblemSetup) -> np.ndarray:
    """Right-hand side f of the interior rows eps * w'' = f, at every node.

    `s` holds the nodal u''.  f is f0_z(x, u) - f1_px(x, u') - f1_pp(x, u') u''
    strictly inside the window (the rows `jacobian` treats as window rows) and
    the penalty (u - phi)/eps elsewhere.
    """
    g, lag = setup.grid, setup.lagrangian
    p = d1(u, g)
    f = (u - setup.phi) / setup.eps
    win = slice(g.ia + 1, g.ib)
    x, uw, pw, sw = g.nodes[win], u[win], p[win], s[win]
    f[win] = lag.f0_z(x, uw) - lag.f1_px(x, pw) - lag.f1_pp(x, pw) * sw
    return f


def residual(u: np.ndarray, setup: ProblemSetup, s: Optional[np.ndarray] = None) -> np.ndarray:
    """Nodal residual; rows 0, n are Dirichlet, rows 1, n-1 the w boundary data.

    `s`, if given, is d2(u), already computed by the caller.
    """
    g = setup.grid
    n, h = g.n, g.h
    s = _curvatures(u, setup, s)
    w = 1.0 / s
    f = f_eps(u, s, setup)
    R = np.empty(n + 1)
    R[0] = u[0]
    R[n] = u[n]
    R[1] = w[0] - setup.rho_minus
    R[n - 1] = w[n] - setup.rho_plus
    # rows i = 2 .. n-2 and their neighbours i - 1 and i + 1
    i, left, right = slice(2, n - 1), slice(1, n - 2), slice(3, n)
    R[i] = setup.eps * (w[right] - 2.0 * w[i] + w[left]) / (h * h) - f[i]
    return R


def jacobian(u: np.ndarray, setup: ProblemSetup, s: Optional[np.ndarray] = None) -> np.ndarray:
    """Analytic Jacobian of `residual` in `solve_banded` (2, 2) form; `s` as there.

    The Jacobian A is pentadiagonal; the (5, n+1) band holds
    ab[2 + i - j, j] = A[i, j].  Each entry sums its terms in a fixed order:
    the eps * d2(w) chain, then -f0_zz, the chain through u', and f1_pp * d2
    inside the window, or -1/eps outside it.
    """
    g, lag, eps = setup.grid, setup.lagrangian, setup.eps
    n, h = g.n, g.h
    s = _curvatures(u, setup, s)
    p = d1(u, g)
    inv_s2 = 1.0 / (s * s)

    ab = np.zeros((5, n + 1))
    ab[2, 0] = 1.0
    ab[2, n] = 1.0
    # rows 1 and n-1: w = 1/s at the endpoints through the four-point stencils
    k = np.arange(4)
    ab[3 - k, k] = -inv_s2[0] * d2_boundary_coeffs(g, left=True)
    ab[4 - k, n - 3 + k] = -inv_s2[n] * d2_boundary_coeffs(g, left=False)

    # eps * d2(w) chain of rows i = 2 .. n-2: w_j = 1/s_j for j = i-1, i, i+1
    c0, c1, c2 = np.array([1.0, -2.0, 1.0]) / (h * h)
    wl = eps * c0 * -inv_s2[1 : n - 2]
    wc = eps * c1 * -inv_s2[2 : n - 1]
    wr = eps * c2 * -inv_s2[3:n]
    ab[4, : n - 3] = wl * c0
    ab[3, 1 : n - 2] = wl * c1 + wc * c0
    ab[2, 2 : n - 1] = wl * c2 + wc * c1 + wr * c0
    ab[1, 3:n] = wc * c2 + wr * c1
    ab[0, 4:] = wr * c2

    # window rows i = ia+1 .. ib-1; columns i-1 and i+1 sit on bands 3 and 1
    win, lo, up = slice(g.ia + 1, g.ib), slice(g.ia, g.ib - 1), slice(g.ia + 2, g.ib + 1)
    x, uw, pw, sw = g.nodes[win], u[win], p[win], s[win]
    ab[2, win] -= lag.f0_zz(x, uw)
    # d/du_k of f1_px(x_i, p_i) and f1_pp(x_i, p_i) * s_i; R_i holds them with
    # a minus sign and p_i = (u_{i+1} - u_{i-1}) / 2h, so column i-1 gets -chain
    chain = (lag.f1_pxp(x, pw) + lag.f1_ppp(x, pw) * sw) / (2.0 * h)
    ab[3, lo] -= chain
    ab[1, up] += chain
    f1pp = lag.f1_pp(x, pw)
    ab[3, lo] += f1pp * c0
    ab[2, win] += f1pp * c1
    ab[1, up] += f1pp * c2

    # penalty rows i = 2 .. ia and ib .. n-2
    ab[2, 2 : g.ia + 1] -= 1.0 / eps
    ab[2, g.ib : n - 1] -= 1.0 / eps
    return ab


def newton_solve(
    setup: ProblemSetup,
    u0: np.ndarray,
    tols: Optional[Tolerances] = None,
) -> SolveResult:
    """Damped Newton with backtracking on the residual max-norm.

    Steps that would make min u'' drop to the convexity floor are halved.
    Each iterate's d2(u) is computed once and passed to `residual` and
    `jacobian`.
    """
    tols = tols or Tolerances()
    g = setup.grid
    tol = tols.newton_tol_scale * (1.0 + 1.0 / setup.eps)
    floor = tols.convexity_floor_scale * setup.eps * setup.c0

    u = np.array(u0, dtype=float)
    u[0] = 0.0
    u[-1] = 0.0
    s = d2(u, g)
    R = residual(u, setup, s)
    norm = float(np.max(np.abs(R)))
    norms = [norm]

    iters = 0
    converged = norm <= tol
    while not converged and iters < MAX_ITERS:
        step = solve_banded((2, 2), jacobian(u, setup, s), -R)
        t = 1.0
        accepted = False
        for _ in range(MAX_HALVINGS):
            u_try = u + t * step
            # keep the Dirichlet rows exact against linear-solver roundoff
            u_try[0] = 0.0
            u_try[-1] = 0.0
            s_try = d2(u_try, g)
            if np.min(s_try) <= floor:
                t *= 0.5
                continue
            R_try = residual(u_try, setup, s_try)
            norm_try = float(np.max(np.abs(R_try)))
            if norm_try < norm:
                u, s, R, norm = u_try, s_try, R_try, norm_try
                accepted = True
                break
            t *= 0.5
        iters += 1
        if not accepted:
            break
        norms.append(norm)
        converged = norm <= tol

    return SolveResult(
        u=u,
        w=1.0 / s,
        newton_iters=iters,
        residual_norms=norms,
        converged=bool(converged),
        min_upp=float(np.min(s)),
    )


def continuation_sweep(
    setup_base: ProblemSetup,
    eps_schedule: Sequence[float],
    tols: Optional[Tolerances] = None,
) -> list[tuple[ProblemSetup, SolveResult]]:
    """Solve along a decreasing eps schedule, warm-starting each stage.

    Stops at the first non-converged stage; completed stages are returned.
    """
    eps_schedule = list(eps_schedule)
    check_schedule(eps_schedule)
    results = []
    u_prev = setup_base.phi
    for eps in eps_schedule:
        setup = replace(setup_base, eps=eps)
        res = newton_solve(setup, u_prev, tols)
        results.append((setup, res))
        if not res.converged:
            break
        u_prev = res.u
    return results


def check_schedule(eps_schedule: Sequence[float]) -> None:
    """Raise ValueError unless there are values, in (0, 1) and strictly decreasing."""
    if not eps_schedule:
        raise ValueError("eps schedule must not be empty")
    for eps in eps_schedule:
        if not (0.0 < eps < 1.0):
            raise ValueError(f"eps schedule values must lie in (0, 1), got {eps}")
    if any(e2 >= e1 for e1, e2 in zip(eps_schedule, eps_schedule[1:])):
        raise ValueError("eps schedule must be strictly decreasing")


def default_eps_schedule(start: float = 1e-1, ratio: float = 0.5, stages: int = 11) -> list[float]:
    return [start * ratio**k for k in range(stages)]


def eval_J_eps(u: np.ndarray, setup: ProblemSetup) -> float:
    """Penalized functional: window Lagrangian - eps * log-curvature + obstacle penalty."""
    g, lag, eps = setup.grid, setup.lagrangian, setup.eps
    s = _curvatures(u, setup)
    x = g.nodes
    F = lag.f0(x, u) + lag.f1(x, d1(u, g))
    term_window = integrate(F, g, g.ia, g.ib)
    term_log = -eps * integrate(np.log(s), g, 0, g.n)
    pen = (u - setup.phi) ** 2
    term_pen = (integrate(pen, g, 0, g.ia) + integrate(pen, g, g.ib, g.n)) / (2.0 * eps)
    return term_window + term_log + term_pen
