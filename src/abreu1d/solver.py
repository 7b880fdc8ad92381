"""Damped Newton solver for the penalized fourth-order two-point problem.

The unknowns are the nodal values of u.  The reciprocal second derivative
w = 1/u'' is derived, and the two boundary conditions per endpoint are
imposed as: Dirichlet rows at i = 0, n and reciprocal-curvature rows at
i = 1, n-1.  Interior rows discretize

    eps * w'' = (1/eps)(u - phi)                       outside (a, b)
    eps * w'' = f0_z(x, u) - f1_px(x, u') - f1_pp(x, u') u''   inside (a, b)

with the window-edge nodes taking the penalty branch.  Each Newton step is
one `solve_banded` call, a direct LAPACK dgbsv solve of the banded Jacobian.
LAPACK is scipy's compiled wrapper `scipy.linalg._flapack`, which
`load_dgbsv` loads from its file on the first solve, without running the
`scipy` or `scipy.linalg` package set-up.  No process imports the `scipy`
package for this module, and one that takes no Newton or barrier step loads
no LAPACK either.
"""

import functools
import importlib.machinery
import importlib.util
import logging
import math
import os
from dataclasses import dataclass, fields, replace
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .grid import Grid, d1, d2, d2_boundary_coeffs, d2_central_coeffs, integrate
from .lagrangian import BoundLagrangian, LagrangianSpec, polyder, polyval

log = logging.getLogger(__name__)


@dataclass
class Tolerances:
    """The package's tolerances; the only settable numerical options.

    Newton stops at max|R| <= newton_tol_scale * (1 + 1/eps), or at a
    roundoff-sized correction (`STEP_TOL`, not settable), and fails a stage
    whose next min u'' would reach convexity_floor_scale * eps * c0.  The
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
# `step_length` keeps every u'' of Newton, and every s_i of the oracle's
# barrier, above (1 - STEP_FRACTION) times its value, so no w = 1/u'' more
# than doubles in one step.
STEP_FRACTION = 0.5
# Newton also stops, converged, once its correction is roundoff-sized:
# max|du| <= STEP_TOL * (1 + max|u|).  The max|R| test alone cannot be met
# where the residual's roundoff floor, which grows like h^-4, lies above it.
STEP_TOL = 1e-12


@dataclass(frozen=True)
class ProblemSetup:
    """One problem at one eps, from `make_setup`; `replace(setup, eps=...)` gives the next stage.

    Its Lagrangian is bound once per problem: every stage, report and weak
    form reads `at_nodes`, on whole nodal arrays, and the oracle `at_midpoints`.
    """

    grid: Grid
    lagrangian: LagrangianSpec
    at_nodes: BoundLagrangian  # bound to `grid.nodes`
    at_midpoints: BoundLagrangian  # bound to the window's cell midpoints x_i + h/2, i = ia .. ib-1
    phi: np.ndarray
    rho_minus: float
    rho_plus: float
    eps: float
    c0: float
    phi_pp_ends: tuple[float, float]  # phi''(-1), phi''(+1)

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
    """Sample a polynomial obstacle on the grid and certify its convexity: c0, the
    least phi'' at the nodes, and d2(phi) at every node, where Newton starts, must be > 0.
    Bind the Lagrangian to the nodes and to the window's cell midpoints, once."""
    c = np.asarray(phi_coeffs, dtype=float)
    if len(c) == 0:
        raise ValueError("phi must have at least one coefficient")
    x = grid.nodes
    phi = polyval(c, x)
    phi_pp = polyval(polyder(polyder(c)), x) if len(c) > 2 else np.zeros_like(x)
    c0 = float(np.min(phi_pp))
    if c0 <= 0.0:
        raise ValueError(f"obstacle is not uniformly convex on the grid: min phi'' = {c0}")
    s = d2(phi, grid)
    if np.any(s <= 0.0):
        i = int(np.argmin(s))
        raise ValueError(f"obstacle is not convex on the grid: d2(phi) = {s[i]} <= 0 at node {i}")
    return ProblemSetup(
        grid=grid, lagrangian=lagrangian, phi=phi,
        at_nodes=lagrangian.bind(x),
        at_midpoints=lagrangian.bind(x[grid.ia : grid.ib] + 0.5 * grid.h),
        rho_minus=rho_minus, rho_plus=rho_plus, eps=eps, c0=c0,
        phi_pp_ends=(float(phi_pp[0]), float(phi_pp[-1])),
    )


def layer_beta_h(setup: ProblemSetup) -> tuple[float, float]:
    """beta * h at -1 and +1, with beta = sqrt(phi''(+-1) / (2 eps)).

    A rho+- other than 1/phi''(+-1) forces a boundary layer at that end, a
    damped oscillation of w - 1/phi'' whose decay rate and wavenumber are
    beta.  The grid resolves it while beta * h <~ 0.2.
    """
    return tuple(setup.grid.h * math.sqrt(pp / (2.0 * setup.eps)) for pp in setup.phi_pp_ends)


@dataclass
class SolveResult:
    """A Newton solve and its record, one entry per iteration in each list.

    `upp`, `up` and `f` are u'' = d2(u), u' = d1(u) and the right-hand side
    f of the interior rows at the final u, as its last residual evaluated
    them: f is f0_z(x, u) - f1_px(x, u') - f1_pp(x, u') u'' on the window's
    interior rows, `Grid.interior_slice`, and the penalty (u - phi)/eps
    elsewhere.  `w` is 1/u'', divided where it is read.

    `residual_norms` holds max|R| at the start and after each step taken,
    so it has `newton_iters + 1` entries unless the last iteration stopped
    at the convexity floor, and `min_upps` holds min u'' at the same
    iterates.  `step_norms` is max|Δu| of each iteration's full Newton
    correction, and `step_lengths` the step length t taken (0.0 for the
    floor stop); `newton_iters` is their length.

    `stop` is why Newton stopped: "residual" (max|R| met the tolerance),
    "step" (a roundoff-sized correction), "max_iters" or "convexity_floor";
    the first two are converged.  `curvature_roundoff` is
    r = 4 ulp(max|u|) / (h^2 min u''), with ulp(v) = 2^-52 v, at the final u:
    the relative roundoff of its least u''.  Near r = 1 that u'' and its
    w = 1/u'' are roundoff, converged or not.
    """

    u: np.ndarray
    upp: np.ndarray
    up: np.ndarray
    f: np.ndarray
    residual_norms: list[float]
    min_upps: list[float]
    step_norms: list[float]
    step_lengths: list[float]
    stop: str
    curvature_roundoff: float

    @property
    def converged(self) -> bool:
        return self.stop in ("residual", "step")

    @property
    def newton_iters(self) -> int:
        return len(self.step_norms)

    @property
    def w(self) -> np.ndarray:
        return 1.0 / self.upp


@functools.cache
def load_dgbsv():
    """LAPACK's dgbsv, loaded on the first call from scipy's extension module
    `scipy.linalg._flapack`, the routine that `scipy.linalg.lapack.dgbsv`
    re-exports.

    Importing `scipy.linalg` runs scipy's package set-up for this one
    routine: with scipy 1.17 on a 2-vCPU Xeon VM it took about 0.28 s, 24 MB
    and 333 more modules (numpy.f2py and numpy.polynomial among them) than
    loading the extension alone, which takes about 5 ms.  `find_spec`
    locates the installed scipy without importing it, and the extension
    loader loads the one file.  A process that imports `scipy.linalg`
    before or after gets the same module.  Raises ImportError, naming the
    module, when scipy or the extension is missing.
    """
    name = "scipy.linalg._flapack"
    scipy = importlib.util.find_spec("scipy")
    spec = None
    if scipy is not None:
        finder = importlib.machinery.FileFinder(
            os.path.join(scipy.submodule_search_locations[0], "linalg"),
            (importlib.machinery.ExtensionFileLoader, importlib.machinery.EXTENSION_SUFFIXES))
        spec = finder.find_spec(name)
    if spec is None:
        raise ImportError(f"LAPACK extension {name} not found", name=name)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.dgbsv


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


def step_length(ds: np.ndarray, s: np.ndarray) -> float:
    """The fraction to the boundary along ds from s > 0: t = min(1, STEP_FRACTION / f).

    f = max_i(-ds_i / s_i) is the largest relative fall of any s_i along ds
    (Nocedal & Wright, Numerical Optimization, 19.2).  Where s and ds are
    linear in the unknowns, as second differences are, every s_i + t ds_i
    stays above (1 - STEP_FRACTION) s_i.  Newton and the oracle's barrier
    both take it.
    """
    fall = float((-ds / s).max())
    return 1.0 if fall <= STEP_FRACTION else STEP_FRACTION / fall


def _curvatures(u: np.ndarray, setup: ProblemSetup, s: Optional[np.ndarray] = None) -> np.ndarray:
    """Nodal u'', `s` if given, else d2(u); ValueError unless all are > 0."""
    if s is None:
        s = d2(u, setup.grid)
    if (s <= 0.0).any():
        i = int(np.argmin(s))
        raise ValueError(f"u'' <= 0 at node {i}: {s[i]}")
    return s


class _Derivatives(NamedTuple):
    """What Newton takes of an iterate u, from `_derivatives`."""

    s: np.ndarray  # u'' = d2(u) at every node, all > 0
    p: np.ndarray  # u' = d1(u) at every node
    f1pp: np.ndarray  # f1_pp(x, u') on the window rows, `Grid.interior_slice`, for `jacobian`
    f: np.ndarray  # right-hand side of the interior rows, for `residual`; see `SolveResult`


def _derivatives(u: np.ndarray, setup: ProblemSetup, s: Optional[np.ndarray] = None) -> _Derivatives:
    """u'' (`s` if given, else d2(u)), checked by `_curvatures`, u', and f1_pp and f
    from `setup.at_nodes`, evaluated at every node and sliced to the window rows."""
    lag, win = setup.at_nodes, setup.grid.interior_slice()
    s = _curvatures(u, setup, s)
    p = d1(u, setup.grid)
    f1pp = lag.f1_pp(p)[win]
    f = (u - setup.phi) / setup.eps
    f[win] = lag.f0_z(u)[win] - lag.f1_px(p)[win] - f1pp * s[win]
    return _Derivatives(s, p, f1pp, f)


def residual(u: np.ndarray, setup: ProblemSetup, dv: Optional[_Derivatives] = None) -> np.ndarray:
    """Nodal residual; rows 0, n are Dirichlet, rows 1, n-1 the w boundary data.

    `dv`, if given, is `_derivatives(u, setup)`, already built by the caller.
    """
    g = setup.grid
    n = g.n
    if dv is None:
        dv = _derivatives(u, setup)
    w = 1.0 / dv.s
    R = np.empty(n + 1)
    R[0] = u[0]
    R[n] = u[n]
    R[1] = w[0] - setup.rho_minus
    R[n - 1] = w[n] - setup.rho_plus
    R[2 : n - 1] = setup.eps * d2(w, g)[2 : n - 1] - dv.f[2 : n - 1]
    return R


class _Band(NamedTuple):
    """What Newton takes of a stage, from `_band`; no iterate changes it."""

    base: np.ndarray  # Dirichlet rows 0, n and the penalty rows' -1/eps; zero elsewhere
    edges: tuple  # (band indices, four-point stencil weights) of rows 1 and n-1
    c: tuple  # `d2_central_coeffs` (c_out, c_mid, c_out) as (c_out, c_mid)
    eps_c: tuple  # eps times each
    win: slice  # window rows i, and their columns i-1 and i+1
    lo: slice
    up: slice


def _band(setup: ProblemSetup) -> _Band:
    g, n = setup.grid, setup.grid.n
    base = np.zeros((5, n + 1))
    base[2, 0] = 1.0
    base[2, n] = 1.0
    # penalty rows i = 2 .. ia and ib .. n-2
    base[2, 2 : g.ia + 1] = -1.0 / setup.eps
    base[2, g.ib : n - 1] = -1.0 / setup.eps
    k = np.arange(4)
    c = d2_central_coeffs(g)
    win = g.interior_slice()
    return _Band(
        base=base,
        edges=(((3 - k, k), d2_boundary_coeffs(g, left=True)),
               ((4 - k, n - 3 + k), d2_boundary_coeffs(g, left=False))),
        c=(c[0], c[1]), eps_c=(setup.eps * c[0], setup.eps * c[1]),
        win=win, lo=slice(g.ia, g.ib - 1), up=slice(g.ia + 2, g.ib + 1),
    )


def jacobian(u: np.ndarray, setup: ProblemSetup, dv: Optional[_Derivatives] = None,
             band: Optional[_Band] = None) -> np.ndarray:
    """Analytic Jacobian of `residual` in `solve_banded` (2, 2) form.

    `dv` is as in `residual`, and `band`, if given, is `_band(setup)`.  The
    Jacobian A is pentadiagonal; the (5, n+1) band holds
    ab[2 + i - j, j] = A[i, j].  Each entry sums its terms in a fixed order:
    the eps * d2(w) chain, then -f0_zz, the chain through u', and f1_pp * d2
    inside the window, or -1/eps outside it (added first, which gives the
    same sum).  A partial that the binding leaves out (None) adds no term.
    """
    n, h = setup.grid.n, setup.grid.h
    band = band or _band(setup)
    dv = dv or _derivatives(u, setup)
    s = dv.s
    dw = -1.0 / (s * s)  # dw_j/ds_j for w = 1/s

    ab = band.base.copy()
    # rows 1 and n-1: w = 1/s at the endpoints through the four-point stencils
    (left, c_left), (right, c_right) = band.edges
    ab[left] = dw[0] * c_left
    ab[right] = dw[n] * c_right

    # eps * d2(w) chain of rows i = 2 .. n-2: w_j = 1/s_j for j = i-1, i, i+1.
    # The stencil is (c_out, c_mid, c_out), so each term is w_j's weight times
    # u_k's weight times dw_j, one of four products at every node j
    c_out, c_mid = band.c
    e_out, e_mid = band.eps_c
    w_out, w_mid = e_out * dw, e_mid * dw
    oo, om = w_out * c_out, w_out * c_mid
    mo, mm = w_mid * c_out, w_mid * c_mid
    ab[4, : n - 3] = oo[1 : n - 2]
    ab[3, 1 : n - 2] = om[1 : n - 2] + mo[2 : n - 1]
    ab[2, 2 : n - 1] += oo[1 : n - 2] + mm[2 : n - 1] + oo[3:n]
    ab[1, 3:n] = mo[2 : n - 1] + om[3:n]
    ab[0, 4:] = oo[3:n]

    # window rows i = ia+1 .. ib-1; columns i-1 and i+1 sit on bands 3 and 1
    lag, win, lo, up = setup.at_nodes, band.win, band.lo, band.up
    if lag.f0_zz is not None:
        ab[2, win] -= lag.f0_zz(u)[win]
    # d/du_k of f1_px(x_i, p_i) and f1_pp(x_i, p_i) * s_i; R_i holds them with
    # a minus sign and p_i = (u_{i+1} - u_{i-1}) / 2h, so column i-1 gets -chain
    chain = lag.f1_pxp(dv.p)[win]
    if lag.f1_ppp is not None:
        chain = chain + lag.f1_ppp(dv.p)[win] * s[win]
    chain = chain / (2.0 * h)
    ab[3, lo] -= chain
    ab[1, up] += chain
    f1pp = dv.f1pp
    ab[3, lo] += f1pp * c_out
    ab[2, win] += f1pp * c_mid
    ab[1, up] += f1pp * c_out
    return ab


def newton_solve(
    setup: ProblemSetup,
    u0: np.ndarray,
    tols: Optional[Tolerances] = None,
) -> SolveResult:
    """Damped Newton whose step length keeps the iterate convex.

    The correction Δu has zero Dirichlet entries, and the step length is
    `step_length(d2(Δu), u'')`, the interior-point fraction to the boundary.
    The stage fails, with step length 0.0 recorded, when the next iterate's
    min u'' would reach the convexity floor.  Newton stops, converged, at
    max|R| <= newton_tol_scale * (1 + 1/eps), or once a correction is
    roundoff-sized, max|Δu| <= STEP_TOL * (1 + max|u|).  The stage's band is
    built once, and each iterate's derivatives once, for its `residual` and
    `jacobian`; the final iterate's go to the `SolveResult`.
    Each iteration, and why Newton stopped, is recorded there and logged at
    debug level.
    """
    tols = tols or Tolerances()
    g = setup.grid
    tol = tols.newton_tol_scale * (1.0 + 1.0 / setup.eps)
    floor = tols.convexity_floor_scale * setup.eps * setup.c0
    band = _band(setup)

    u = np.array(u0, dtype=float)
    u[0] = 0.0
    u[-1] = 0.0
    dv = _derivatives(u, setup)
    R = residual(u, setup, dv)
    norm = float(np.abs(R).max())
    upp_min = float(dv.s.min())
    norms = [norm]
    min_upps = [upp_min]
    step_norms, step_lengths = [], []

    stop = "residual" if norm <= tol else None
    while stop is None and len(step_norms) < MAX_ITERS:
        step = solve_banded((2, 2), jacobian(u, setup, dv, band), -R)
        # keep the Dirichlet rows exact against linear-solver roundoff
        step[0] = 0.0
        step[-1] = 0.0
        step_norm = float(np.abs(step).max())
        roundoff = step_norm <= STEP_TOL * (1.0 + float(np.abs(u).max()))
        t = step_length(d2(step, g), dv.s)
        u_next = u + t * step
        s_next = d2(u_next, g)
        s_min = float(s_next.min())
        taken = s_min > floor
        if taken:
            u, dv = u_next, _derivatives(u_next, setup, s_next)
            R = residual(u, setup, dv)
            norm, upp_min = float(np.abs(R).max()), s_min
        step_norms.append(step_norm)
        step_lengths.append(t if taken else 0.0)
        log.debug("newton eps=%.6g iter %d: max|R| %.3e max|du| %.3e t %.6g min u'' %.3e",
                  setup.eps, len(step_norms), norm, step_norm, step_lengths[-1], upp_min)
        if not taken:
            stop = "convexity_floor"
            break
        norms.append(norm)
        min_upps.append(upp_min)
        if norm <= tol:
            stop = "residual"
        elif roundoff:
            stop = "step"
    stop = stop or "max_iters"
    r = 4.0 * 2.0**-52 * float(np.abs(u).max()) / (g.h * g.h * upp_min)
    log.debug("newton eps=%.6g stopped on %s after %d iterations, curvature roundoff %.3e",
              setup.eps, stop, len(step_norms), r)

    return SolveResult(
        u=u,
        upp=dv.s,
        up=dv.p,
        f=dv.f,
        residual_norms=norms,
        min_upps=min_upps,
        step_norms=step_norms,
        step_lengths=step_lengths,
        stop=stop,
        curvature_roundoff=r,
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
    """The geometric schedule start * ratio**k for k = 0 .. stages-1.

    Raises ValueError, before the list is built, when the values cannot all
    lie in (0, 1) and strictly decrease: a ratio outside (0, 1), or a first
    or last value outside (0, 1).  So a huge `stages` is refused in O(1);
    `check_schedule` checks the list itself.
    """
    if stages > 1 and not 0.0 < ratio < 1.0:
        raise ValueError(f"eps schedule ratio must lie in (0, 1), got {ratio}")
    if stages > 0:
        try:
            last = start * ratio ** (stages - 1)
        except OverflowError:  # stages - 1 is beyond the float range, so the power is 0
            last = 0.0
        for eps in (start, last):
            if not (0.0 < eps < 1.0):
                raise ValueError(f"eps schedule values must lie in (0, 1), got {eps}")
    return [start * ratio**k for k in range(stages)]


def eval_J(u: np.ndarray, setup: ProblemSetup, up: Optional[np.ndarray] = None) -> float:
    """Window functional: trapezoid quadrature of F(x, u, u') over [a, b], from `setup.at_nodes`.

    `up`, if given, is d1(u), already computed by the caller.
    """
    g, lag = setup.grid, setup.at_nodes
    if up is None:
        up = d1(u, g)
    return integrate(lag.f0(u) + lag.f1(up), g, g.ia, g.ib)


def penalty_l2(u: np.ndarray, setup: ProblemSetup) -> float:
    """Obstacle penalty: trapezoid quadrature of (u - phi)^2 outside (a, b)."""
    g = setup.grid
    pen = (u - setup.phi) ** 2
    return integrate(pen, g, 0, g.ia) + integrate(pen, g, g.ib, g.n)


def eval_J_eps(u: np.ndarray, setup: ProblemSetup, J: Optional[float] = None,
               pen: Optional[float] = None, upp: Optional[np.ndarray] = None) -> float:
    """Penalized functional: `eval_J` - eps * log-curvature + `penalty_l2` / (2 eps).

    `J`, `pen` and `upp`, if given, are `eval_J`, `penalty_l2` and d2 of u,
    already computed by the caller.
    """
    g, eps = setup.grid, setup.eps
    if J is None:
        J = eval_J(u, setup)
    if pen is None:
        pen = penalty_l2(u, setup)
    term_log = -eps * integrate(np.log(_curvatures(u, setup, upp)), g, 0, g.n)
    return J + term_log + pen / (2.0 * eps)
