"""Weak-form check of the limiting Euler-Lagrange identity on the window.

The rescaled reciprocal curvature eps * w is tested against

    integral(w_r * psi'') = integral(f0_z(x, u) * psi) + integral(f1_p(x, u') * psi')

for a family of compactly supported quartic bumps psi.  One integration by
parts has moved the divergence derivative onto the smooth test function, so
no derivative of f1_p across gradient kinks is ever formed.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grid import Grid, d1, integrate
from .solver import ProblemSetup, SolveResult


@dataclass(frozen=True)
class TestFunctionFamily:
    """Quartic bumps psi(x) = ((x-c)^2 - r^2)^2 / r^4 on |x-c| <= r.

    psi and psi' vanish at the support endpoints; psi(c) = 1.
    """

    centers: np.ndarray
    radii: np.ndarray

    def __len__(self) -> int:
        return len(self.centers)

    def evaluate(self, j: int, x: np.ndarray):
        """Return (psi, psi', psi'') of bump j at the points x."""
        c, r = self.centers[j], self.radii[j]
        t = x - c
        on = np.abs(t) <= r
        q = t * t - r * r
        psi = np.where(on, q * q, 0.0) / r**4
        dpsi = np.where(on, 4.0 * t * q, 0.0) / r**4
        ddpsi = np.where(on, 4.0 * q + 8.0 * t * t, 0.0) / r**4
        return psi, dpsi, ddpsi


BUMP_COUNT = 10


def default_family(grid: Grid) -> TestFunctionFamily:
    """BUMP_COUNT bumps of radius 10% of the window, centers equispaced over its
    inner 70%; `check_support` passes them when the window is >= 20 cells wide.
    """
    a, b = grid.a, grid.b
    width = b - a
    centers = np.linspace(a + 0.15 * width, b - 0.15 * width, BUMP_COUNT)
    radii = np.full(BUMP_COUNT, 0.1 * width)
    return TestFunctionFamily(centers=centers, radii=radii)


def check_support(family: TestFunctionFamily, grid: Grid) -> None:
    """Raise ValueError, naming the bump, unless every support stays a cell h inside the window."""
    for j, (c, r) in enumerate(zip(family.centers, family.radii)):
        if c - r < grid.a + grid.h or c + r > grid.b - grid.h:
            raise ValueError(
                f"bump {j} support [{c - r}, {c + r}] comes within h = {grid.h} "
                f"of the window [{grid.a}, {grid.b}]"
            )


def rescaled_w(result: SolveResult, setup: ProblemSetup) -> np.ndarray:
    """eps * w on the window nodes of a converged stage; proxy for the weak limit at small eps."""
    return setup.eps * result.w[setup.grid.window_slice()]


def distributional_residual(
    w_window: np.ndarray,
    u: np.ndarray,
    setup: ProblemSetup,
    family: TestFunctionFamily,
    up: Optional[np.ndarray] = None,
) -> tuple[float, list[float]]:
    """Max (and per-bump) weak-form residual over the family.

    `up`, if given, is d1(u), already computed by the caller.  f0_z and f1_p
    come from `setup.at_nodes`.
    """
    g, lag = setup.grid, setup.at_nodes
    check_support(family, g)
    win = g.window_slice()
    xw = g.nodes[win]
    if w_window.shape != xw.shape:
        raise ValueError("w must be given on the window nodes")
    fz = lag.f0_z(u)[win]
    if up is None:
        up = d1(u, g)
    fp = lag.f1_p(up)[win]

    full = np.zeros(g.n + 1)

    def trapz_window(vals):
        full[win] = vals
        return integrate(full, g, g.ia, g.ib)

    residuals = []
    for j in range(len(family)):
        psi, dpsi, ddpsi = family.evaluate(j, xw)
        lhs = trapz_window(w_window * ddpsi)
        rhs = trapz_window(fz * psi) + trapz_window(fp * dpsi)
        residuals.append(abs(lhs - rhs))
    return max(residuals), residuals
