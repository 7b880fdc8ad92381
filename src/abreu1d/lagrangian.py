"""Split Lagrangians F(x, z, p) = F0(x, z) + F1(x, p) and their derivatives.

A Lagrangian is nine callbacks, all required and none defaulted: the Newton
Jacobian of the penalized solver needs exact second and mixed third partials,
and numerically differentiated callbacks would spoil quadratic convergence.
`check_partials` checks that each callback returns an array of its
arguments' shape, cross-checks the partials against finite differences of
the callbacks they derive from, and checks that F is convex in z and in p.

The nodes never move within a problem, so the setup binds the spec once
per problem (`solver.make_setup`): to the grid's nodes for the scheme, and
to the window's cell midpoints for the oracle.  Every stage, report, weak
form and oracle run reads those two bindings; only `bind` itself and
`check_partials` call the unbound (x, .) callbacks.
"""

from collections import namedtuple
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

ScalarField = Callable[[np.ndarray, np.ndarray], np.ndarray]

# A Lagrangian at the nodes x, from `LagrangianSpec.bind(x)`: x and the nine
# callbacks as functions of z (or p) alone, an array of x's shape.  f0_zz or
# f1_ppp is None where it is identically zero, and its term is left out.
BoundLagrangian = namedtuple("BoundLagrangian", "x f0 f0_z f0_zz f1 f1_p f1_pp f1_px f1_pxp f1_ppp")


@dataclass(frozen=True)
class LagrangianSpec:
    """Callbacks for F0(x, z), F1(x, p) and the seven partials the scheme uses.

    Every field is required.  f1_pxp and f1_ppp are the p-derivatives of
    f1_px and f1_pp; they and f0_zz enter only the Newton Jacobian.  Each
    callback is called with float arrays x and z (or p) of one shape and
    returns an array of that shape; `check_partials` refuses one that does
    not.  The solvers call them through `bind`, once per problem.
    """

    f0: ScalarField
    f0_z: ScalarField
    f0_zz: ScalarField
    f1: ScalarField
    f1_p: ScalarField
    f1_pp: ScalarField
    f1_px: ScalarField
    f1_pxp: ScalarField
    f1_ppp: ScalarField

    def bind(self, x: np.ndarray) -> BoundLagrangian:
        """The callbacks at the nodes x, each closing over x."""
        return BoundLagrangian(x, *(partial(getattr(self, f), x) for f in BoundLagrangian._fields[1:]))


def polyval(coeffs, x):
    """Polynomial with ascending float `coeffs` at a float or array `x`.

    Horner's rule in the order of operations of
    `numpy.polynomial.polynomial.polyval`, so for finite x the values are
    bit-identical, without its argument handling.  numpy starts from
    c[-1] + 0 * x, which is c[-1] itself unless c[-1] is -0.0, so that sum
    is formed only for a constant, whose value must take the shape of x,
    or a zero leading coefficient.  It is the package's one polynomial
    evaluator, so the package never imports `numpy.polynomial`.
    """
    y = coeffs[-1]
    if len(coeffs) == 1 or y == 0.0:
        y = y + x * 0
    for k in range(len(coeffs) - 2, -1, -1):
        y = coeffs[k] + y * x
    return y


def polyder(coeffs) -> np.ndarray:
    """Ascending coefficients k * c_k of the derivative, [0.0] for a constant.

    With two or more coefficients these are the products of
    `numpy.polynomial.polynomial.polyder`, so bit-identical.
    """
    c = np.asarray(coeffs, dtype=float)
    return c[1:] * np.arange(1, len(c)) if len(c) > 1 else np.zeros(1)


@dataclass(frozen=True)
class RochetChoneSpec(LagrangianSpec):
    """F = (p^2/2 - p x + z) * eta0(x), as `make_rochet_chone` builds it.

    Its type tells the oracle that f1_pp(x, p) is the weight eta0(x), so
    that it can solve the cone problem exactly (`minimizer.iron`), and
    `bind` that f1_pp and f1_pxp are eta0 and eta0', which depend on x alone.
    """

    def bind(self, x: np.ndarray) -> BoundLagrangian:
        """The callbacks at the nodes x, with eta0 and eta0' evaluated once, by this
        spec's own f1_pp and f1_pxp (so a wrapped callback counts one call per
        bind), and handed out read-only; f0_zz and f1_ppp, which are
        identically zero, are None."""
        eta0, eta0_prime = self.f1_pp(x, x), self.f1_pxp(x, x)
        for value in (eta0, eta0_prime):
            value.flags.writeable = False
        return BoundLagrangian(
            x,
            f0=lambda z: z * eta0,
            f0_z=lambda z: eta0,
            f0_zz=None,
            f1=lambda p: (0.5 * p * p - p * x) * eta0,
            f1_p=lambda p: (p - x) * eta0,
            f1_pp=lambda p: eta0,
            f1_px=lambda p: (p - x) * eta0_prime - eta0,
            f1_pxp=lambda p: eta0_prime,
            f1_ppp=None,
        )


def make_rochet_chone(eta0_coeffs, sample_nodes: Optional[np.ndarray] = None) -> RochetChoneSpec:
    """Monopolist-model Lagrangian F = (p^2/2 - p x + z) * eta0(x).

    eta0 is a polynomial (ascending coefficients) that must be nonnegative
    wherever a solver evaluates it.  When sample_nodes are given, that is at
    every node, where the scheme evaluates it, and at every midpoint of two
    neighbouring nodes, where the oracle's cell quadrature does; otherwise it
    is checked on a fine lattice over [-1, 1].  eta0 = 0 gives the zero
    Lagrangian.  The callbacks evaluate eta0 and eta0' on every call;
    `RochetChoneSpec.bind` evaluates them once per bind.
    """
    c = np.asarray(eta0_coeffs, dtype=float)
    if len(c) == 0:
        raise ValueError("eta0 must have at least one coefficient")
    # as Python floats, which numpy combines with an array faster than its own scalars
    c, cder = tuple(c.tolist()), tuple(polyder(c).tolist())
    if sample_nodes is None:
        check_x = np.linspace(-1.0, 1.0, 2001)
    else:
        check_x = np.concatenate((sample_nodes, 0.5 * (sample_nodes[:-1] + sample_nodes[1:])))
    vals = polyval(c, check_x)
    if np.any(vals < 0.0):
        i = int(np.argmin(vals))
        raise ValueError(f"negative weight: eta0({check_x[i]}) = {vals[i]}")

    return RochetChoneSpec(
        f0=lambda x, z: z * polyval(c, x),
        f0_z=lambda x, z: polyval(c, x),
        f0_zz=lambda x, z: np.zeros_like(x),
        f1=lambda x, p: (0.5 * p * p - p * x) * polyval(c, x),
        f1_p=lambda x, p: (p - x) * polyval(c, x),
        f1_pp=lambda x, p: polyval(c, x),
        f1_px=lambda x, p: (p - x) * polyval(cder, x) - polyval(c, x),
        f1_pxp=lambda x, p: polyval(cder, x),
        f1_ppp=lambda x, p: np.zeros_like(x),
    )


# Custom Lagrangians are registered here by id and selected from run configs.
CUSTOM_REGISTRY: dict[str, Callable[[], LagrangianSpec]] = {}

# `check_partials` samples x in [-1, 1] and z, p in [-2, 2] on a square
# lattice, differences with a central step and bounds the error relative to
# max(|partial|, 1).
CHECK_POINTS = 41
FD_STEP = 1e-5
FD_REL_TOL = 1e-5


def check_partials(spec: LagrangianSpec) -> None:
    """Raise ValueError unless the nine callbacks of `spec` are consistent.

    Each callback must return an array of its arguments' shape, not a
    scalar, since the solvers slice what it returns.  Each partial is
    compared with a central difference of the callback it derives from, in
    z or p (or, for f1_px, in x); f0_zz and f1_pp must be nonnegative.  The
    message names the callback, and for a partial its worst lattice point.
    """
    X, Y = np.meshgrid(np.linspace(-1.0, 1.0, CHECK_POINTS),
                       np.linspace(-2.0, 2.0, CHECK_POINTS), indexing="ij")
    d = FD_STEP
    values = {}
    for name in BoundLagrangian._fields[1:]:
        values[name] = value = getattr(spec, name)(X, Y)
        if not (isinstance(value, np.ndarray) and value.shape == X.shape):
            raise ValueError(f"{name} returns {type(value).__name__} of shape {np.shape(value)}, "
                             f"not an array of its arguments' shape {X.shape}")

    def in_y(f):
        return (f(X, Y + d) - f(X, Y - d)) / (2.0 * d)

    def in_x(f):
        return (f(X + d, Y) - f(X - d, Y)) / (2.0 * d)

    def worst(name, v, pick):
        i = np.unravel_index(pick(v), v.shape)
        return v[i], f"x = {X[i]:.6g}, {'z' if name.startswith('f0') else 'p'} = {Y[i]:.6g}"

    derived = (
        ("f0_z", in_y(spec.f0)),
        ("f0_zz", in_y(spec.f0_z)),
        ("f1_p", in_y(spec.f1)),
        ("f1_pp", in_y(spec.f1_p)),
        ("f1_px", in_x(spec.f1_p)),
        ("f1_pxp", in_y(spec.f1_px)),
        ("f1_ppp", in_y(spec.f1_pp)),
    )
    for name, fd in derived:
        exact = values[name]
        err, where = worst(name, np.abs(fd - exact) / np.maximum(np.abs(exact), 1.0), np.argmax)
        if not err <= FD_REL_TOL:
            raise ValueError(f"{name} disagrees with finite differences: relative error "
                             f"{err:.3g} > {FD_REL_TOL:g} at {where}")
    for name in ("f0_zz", "f1_pp"):
        value, where = worst(name, values[name], np.argmin)
        if not value >= 0.0:
            raise ValueError(f"{name} = {value:.6g} < 0 at {where}")
