"""Shared builders for the test suite."""

import json
import subprocess
import sys

import numpy as np
import pytest

from abreu1d import cli
from abreu1d.grid import build_grid
from abreu1d.lagrangian import LagrangianSpec, make_rochet_chone
from abreu1d.minimizer import _cell_objective, check_admissibility, second_differences
from abreu1d.solver import make_setup

# Obstacles as ascending polynomial coefficients.
CAL_PHI = [-1.0, 0.0, 1.0]          # x^2 - 1: exact solution of the scheme
STEEP_PHI = [-3.0, 0.0, 3.0]        # 3(x^2 - 1)
SHALLOW_PHI = [-1.0 / 3.0, 0.0, 1.0 / 3.0]  # (x^2 - 1)/3


def monopolist_setup(n=64, eps=1e-2, rho=0.5, phi=CAL_PHI, weight=(1.0,), window=(-0.5, 0.5)):
    """Monopolist problem, by default with constant weight on the window [-1/2, 1/2]."""
    grid = build_grid(n, *window)
    lag = make_rochet_chone(list(weight), sample_nodes=grid.nodes)
    return make_setup(grid, lag, phi, rho, rho, eps)


def zero_setup(n=64, eps=1e-2, rho=0.5):
    """Pure-penalty problem (zero Lagrangian) with the same window."""
    grid = build_grid(n, -0.5, 0.5)
    return make_setup(grid, make_rochet_chone([0.0]), CAL_PHI, rho, rho, eps)


def quartic_spec():
    """F = z + p^2/2 - p x + p^4/12: f1_pp = 1 + p^2 and f1_ppp = 2p vary with p."""
    def const(value):
        return lambda x, y: np.full(np.broadcast(x, y).shape, value)

    return LagrangianSpec(
        f0=lambda x, z: z,
        f0_z=const(1.0),
        f0_zz=const(0.0),
        f1=lambda x, p: 0.5 * p * p - p * x + p**4 / 12.0,
        f1_p=lambda x, p: p - x + p**3 / 3.0,
        f1_pp=lambda x, p: 1.0 + p * p,
        f1_px=const(-1.0),
        f1_pxp=const(0.0),
        f1_ppp=lambda x, p: 2.0 * p,
    )


def unconstrained_window_solution(setup):
    """Solution of (v' - x)' = 1 on the window matching the pinned values.

    For the constant-weight monopolist Lagrangian the stationarity equation
    without convexity constraints is v'' = 2; with a symmetric obstacle the
    match of both endpoint values gives v = x^2 + (phi(a) - a^2).
    """
    g = setup.grid
    v = np.array(setup.phi, dtype=float)
    win = g.window_slice()
    v[win] = g.nodes[win] ** 2 + (setup.phi[g.ia] - g.a**2)
    return v


def min_improvement_over_random_feasible_directions(
    setup, result, count=100, t=1e-3, seed=20240814
):
    """min over random feasible directions of J(v* + t d) - J(v*).

    Directions are uniform on the free nodes, scaled down when needed so the
    perturbed point stays in the convex cone.
    """
    g = setup.grid
    rng = np.random.default_rng(seed)
    free = g.interior_slice()
    m = free.stop - free.start
    s_star = second_differences(result.v, g)
    value, _ = _cell_objective(setup)
    J0 = value(result.v)
    worst = np.inf
    for _ in range(count):
        delta = np.zeros(g.n + 1)
        delta[free] = rng.uniform(-1.0, 1.0, m)
        s_delta = second_differences(delta, g)
        bad = s_delta < 0.0
        scale = 1.0
        if np.any(bad):
            scale = min(1.0, 0.9 * float(np.min(s_star[bad] / (t * (-s_delta[bad])))))
        v_try = result.v + t * scale * delta
        ok, _ = check_admissibility(v_try, setup, tol=1e-12)
        assert ok, "direction scaling failed to stay feasible"
        worst = min(worst, value(v_try) - J0)
    return worst


def band_to_dense(ab):
    """Expand a `solve_banded` (2, 2) band, ab[2 + i - j, j] = A[i, j], to A."""
    n = ab.shape[1]
    A = np.zeros((n, n))
    for d in range(-2, 3):  # diagonal offset j - i
        A += np.diag(ab[2 - d, max(d, 0) : n + min(d, 0)], d)
    return A


def fd_jacobian(u, setup, step=1e-6):
    """Central finite-difference Jacobian of the solver residual."""
    from abreu1d.solver import residual

    n = len(u)
    J = np.zeros((n, n))
    for k in range(n):
        up = u.copy()
        up[k] += step
        um = u.copy()
        um[k] -= step
        J[:, k] = (residual(up, setup) - residual(um, setup)) / (2.0 * step)
    return J


def write_config(path, **overrides):
    """Write a run-config JSON; keyword overrides patch the base document.

    A dict override updates the base section, and a None value in it deletes
    that key (e.g. `lagrangian={"preset": "zero", "eta0": None}`).
    """
    doc = {
        "grid": {"n": 64, "a": -0.5, "b": 0.5},
        "phi": CAL_PHI,
        "lagrangian": {"preset": "rochet_chone", "eta0": [1.0]},
        "rho_minus": 0.5,
        "rho_plus": 0.5,
        "eps_schedule": {"start": 0.1, "ratio": 0.5, "stages": 5},
        "outputs": str(path.parent / "out"),
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(doc.get(key), dict):
            doc[key] = {k: v for k, v in {**doc[key], **value}.items() if v is not None}
        else:
            doc[key] = value
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return path


def invoke_cli(*args):
    """Run the command line in this process; returns its exit code.

    Any exception but the command's own SystemExit escapes.
    """
    with pytest.raises(SystemExit) as exc:
        cli.main.main(args=[str(a) for a in args], standalone_mode=False)
    return exc.value.code


def run_cli(*args):
    """Run the command-line tool in a subprocess; returns CompletedProcess."""
    return subprocess.run(
        [sys.executable, "-m", "abreu1d.cli", *map(str, args)],
        capture_output=True,
        text=True,
    )
