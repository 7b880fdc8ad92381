"""Uniform grid on [-1, 1] with an interior window, plus discrete calculus.

All finite-difference stencils are second order.  Endpoint derivatives use
one-sided formulas so that nodal values alone determine every operator
(no ghost nodes).
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Grid:
    """Uniform partition of [-1, 1] into n cells with window [a, b].

    a and b are snapped to grid nodes; ia and ib are their node indices.
    `build_grid` makes `nodes` read-only, since every stage and solver
    shares them; the setup binds the Lagrangian to them once per problem.
    """

    n: int
    h: float
    nodes: np.ndarray
    ia: int
    ib: int
    a: float
    b: float

    def window_slice(self) -> slice:
        """Nodes x_i with a <= x_i <= b."""
        return slice(self.ia, self.ib + 1)

    def interior_slice(self) -> slice:
        """Nodes x_i with a < x_i < b: the scheme's window rows and the oracle's free values."""
        return slice(self.ia + 1, self.ib)


def build_grid(n: int, a: float, b: float) -> Grid:
    """Build a uniform grid with the window endpoints snapped to nodes.

    Raises ValueError if n is odd, below 16, too large for numpy to hold
    n + 1 float nodes or for the memory to allocate them, if the domain is
    invalid, or if the snapped window holds fewer than 3 interior nodes.
    """
    if n < 16 or n % 2 != 0:
        raise ValueError(f"need even n >= 16, got n={n}")
    if 8 * (n + 1) > np.iinfo(np.intp).max:
        raise ValueError(f"n is too large for numpy to hold n + 1 float nodes, got n={n}")
    if not (-1.0 < a < b < 1.0):
        raise ValueError(f"bad domain: need -1 < a < b < 1, got a={a}, b={b}")
    h = 2.0 / n
    try:
        nodes = -1.0 + h * np.arange(n + 1)
    except MemoryError as exc:
        raise ValueError(f"n={n} does not fit in memory: its n + 1 nodes need "
                         f"{8 * (n + 1)} bytes") from exc
    nodes[0] = -1.0
    nodes[n] = 1.0
    nodes.flags.writeable = False
    ia = int(round((a + 1.0) / h))
    ib = int(round((b + 1.0) / h))
    if ia <= 0 or ib >= n:
        raise ValueError(f"window endpoints snapped to the boundary: ia={ia}, ib={ib}")
    if ib - ia < 4:
        raise ValueError(
            f"window too small: snapped [a, b] holds {max(ib - ia - 1, 0)} interior nodes, need >= 3"
        )
    return Grid(n=n, h=h, nodes=nodes, ia=ia, ib=ib, a=nodes[ia], b=nodes[ib])


def _check_length(values: np.ndarray, grid: Grid) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.n + 1,):
        raise ValueError(f"expected {grid.n + 1} nodal values, got shape {values.shape}")
    return values


def d1(values: np.ndarray, grid: Grid) -> np.ndarray:
    """First derivative: central differences, one-sided 3-point at endpoints."""
    v = _check_length(values, grid)
    h = grid.h
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) / (2.0 * h)
    # the endpoint rows in Python floats, which is faster than numpy's
    # scalars and gives the same bits, up to which nan an operation on two
    # nans keeps
    v0, v1, v2 = v[:3].tolist()
    out[0] = (-3.0 * v0 + 4.0 * v1 - v2) / (2.0 * h)
    w2, w1, w0 = v[-3:].tolist()
    out[-1] = (3.0 * w0 - 4.0 * w1 + w2) / (2.0 * h)
    return out


def d2(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Second derivative: central differences, one-sided 4-point at endpoints."""
    v = _check_length(values, grid)
    h2 = grid.h * grid.h
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - 2.0 * v[1:-1] + v[:-2]) / h2
    v0, v1, v2, v3 = v[:4].tolist()  # as in `d1`
    out[0] = (2.0 * v0 - 5.0 * v1 + 4.0 * v2 - v3) / h2
    w3, w2, w1, w0 = v[-4:].tolist()
    out[-1] = (2.0 * w0 - 5.0 * w1 + 4.0 * w2 - w3) / h2
    return out


def integrate(values: np.ndarray, grid: Grid, lo: int, hi: int) -> float:
    """Composite trapezoid rule on [x_lo, x_hi]."""
    v = _check_length(values, grid)
    if not (0 <= lo < hi <= grid.n):
        raise ValueError(f"bad integration range [{lo}, {hi}] on grid with n={grid.n}")
    return float(np.trapezoid(v[lo : hi + 1], dx=grid.h))


def d2_central_coeffs(grid: Grid) -> np.ndarray:
    """Weights of `d2`'s interior stencil on v_{i-1}, v_i, v_{i+1}."""
    return np.array([1.0, -2.0, 1.0]) / (grid.h * grid.h)


def d2_boundary_coeffs(grid: Grid, left: bool) -> np.ndarray:
    c = np.array([2.0, -5.0, 4.0, -1.0]) / (grid.h * grid.h)
    return c if left else c[::-1]
