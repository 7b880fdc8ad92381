"""Split Lagrangians F(x, z, p) = F0(x, z) + F1(x, p) and their derivatives.

A Lagrangian is nine callbacks, all required and none defaulted: the Newton
Jacobian of the penalized solver needs exact second and mixed third partials,
and numerically differentiated callbacks would spoil quadratic convergence.
`check_partials` cross-checks the partials against finite differences of the
callbacks they derive from, and checks that F is convex in z and in p.
"""

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

ScalarField = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LagrangianSpec:
    """Callbacks for F0(x, z), F1(x, p) and the seven partials the scheme uses.

    Every field is required.  f1_pxp and f1_ppp are the p-derivatives of
    f1_px and f1_pp; they and f0_zz enter only the Newton Jacobian.  Each
    callback is called with float arrays x and z (or p) of one shape and
    returns an array of that shape.
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
    that it can solve the cone problem exactly (`minimizer.iron`).
    """


def make_rochet_chone(eta0_coeffs, sample_nodes: Optional[np.ndarray] = None) -> RochetChoneSpec:
    """Monopolist-model Lagrangian F = (p^2/2 - p x + z) * eta0(x).

    eta0 is a polynomial (ascending coefficients) that must be nonnegative
    wherever a solver evaluates it.  When sample_nodes are given, that is at
    every node, where the scheme evaluates it, and at every midpoint of two
    neighbouring nodes, where the oracle's cell quadrature does; otherwise it
    is checked on a fine lattice over [-1, 1].  eta0 = 0 gives the zero
    Lagrangian.  The factors that depend on x alone, eta0, eta0' and the
    zero partials f0_zz and f1_ppp, are evaluated once per read-only node
    array (`_once_per_node_array`), and the callbacks return them read-only.
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

    eta0 = _once_per_node_array(lambda x: polyval(c, x))
    eta0_prime = _once_per_node_array(lambda x: polyval(cder, x))
    zeros = _once_per_node_array(np.zeros_like)

    return RochetChoneSpec(
        f0=lambda x, z: z * eta0(x),
        f0_z=lambda x, z: eta0(x),
        f0_zz=lambda x, z: zeros(x),
        f1=lambda x, p: (0.5 * p * p - p * x) * eta0(x),
        f1_p=lambda x, p: (p - x) * eta0(x),
        f1_pp=lambda x, p: eta0(x),
        f1_px=lambda x, p: (p - x) * eta0_prime(x) - eta0(x),
        f1_pxp=lambda x, p: eta0_prime(x),
        f1_ppp=lambda x, p: zeros(x),
    )


# How many node arrays each x-only factor of `make_rochet_chone` keeps: the
# window's interior nodes, which Newton passes, and all the nodes, which the
# diagnostics pass.
CACHED_NODE_ARRAYS = 2


def _unwritable(x) -> bool:
    """Whether x is an array of one or more dimensions whose memory nothing
    can write through x or its base: both are read-only ndarrays."""
    if not isinstance(x, np.ndarray) or x.ndim == 0 or x.flags.writeable:
        return False
    base = x.base
    return base is None or (isinstance(base, np.ndarray) and not base.flags.writeable)


def _once_per_node_array(factor):
    """`factor`, which depends on x alone, evaluated once per unwritable x.

    A read-only x with a read-only base, such as `Grid.nodes` or
    `Grid.interior_nodes`, is looked up by identity, and its value is
    computed on the first call and handed out read-only from then on.  Each
    entry keeps its x alive, so no other array can take its id, and the
    oldest entry goes once `CACHED_NODE_ARRAYS` are held.  Any other x gets
    a fresh value and leaves the cache alone, so a caller that can change x
    never sees a stale value.  numpy lets the owner of x's memory, x or its
    base, be made writeable again, and a view of it then too; an entry whose
    owner is found writeable is dropped.  (An owner made writeable, written
    and made read-only again between two calls is not seen; the package
    never does that to its node arrays.)
    """
    cache: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def at(x):
        entry = cache.get(id(x))
        if entry is not None:
            if not entry[1].flags.writeable:
                return entry[2]
            del cache[id(x)]
        if not _unwritable(x):
            return factor(x)
        value = factor(x)
        value.flags.writeable = False
        if len(cache) >= CACHED_NODE_ARRAYS:
            del cache[next(iter(cache))]
        cache[id(x)] = (x, x if x.base is None else x.base, value)
        return value

    return at


# Custom Lagrangians are registered here by id and selected from run configs.
CUSTOM_REGISTRY: dict[str, Callable[[], LagrangianSpec]] = {}

# `check_partials` samples x in [-1, 1] and z, p in [-2, 2] on a square
# lattice, differences with a central step and bounds the error relative to
# max(|partial|, 1).
CHECK_POINTS = 41
FD_STEP = 1e-5
FD_REL_TOL = 1e-5


def check_partials(spec: LagrangianSpec) -> None:
    """Raise ValueError unless the seven partials of `spec` are consistent.

    Each partial is compared with a central difference of the callback it
    derives from, in z or p (or, for f1_px, in x); f0_zz and f1_pp must be
    nonnegative.  The message names the partial and its worst lattice point.
    """
    X, Y = np.meshgrid(np.linspace(-1.0, 1.0, CHECK_POINTS),
                       np.linspace(-2.0, 2.0, CHECK_POINTS), indexing="ij")
    d = FD_STEP

    def in_y(f):
        return (f(X, Y + d) - f(X, Y - d)) / (2.0 * d)

    def in_x(f):
        return (f(X + d, Y) - f(X - d, Y)) / (2.0 * d)

    def worst(name, values, pick):
        # values broadcast to the lattice, so a callback may return a scalar
        v = np.broadcast_to(values, X.shape)
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
        exact = getattr(spec, name)(X, Y)
        err, where = worst(name, np.abs(fd - exact) / np.maximum(np.abs(exact), 1.0), np.argmax)
        if not err <= FD_REL_TOL:
            raise ValueError(f"{name} disagrees with finite differences: relative error "
                             f"{err:.3g} > {FD_REL_TOL:g} at {where}")
    for name in ("f0_zz", "f1_pp"):
        value, where = worst(name, getattr(spec, name)(X, Y), np.argmin)
        if not value >= 0.0:
            raise ValueError(f"{name} = {value:.6g} < 0 at {where}")
