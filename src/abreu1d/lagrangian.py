"""Split Lagrangians F(x, z, p) = F0(x, z) + F1(x, p) and their derivatives.

All derivatives are supplied analytically per preset: the Newton Jacobian
of the penalized solver needs exact second (and mixed third) derivatives,
and numerically differentiated callbacks would spoil quadratic convergence.
"""

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

ScalarField = Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class LagrangianSpec:
    """Callbacks for F0(x, z), F1(x, p) and the partials the scheme uses.

    f1_pxp and f1_ppp are the p-derivatives of f1_px and f1_pp; they enter
    only the Newton Jacobian.  They default to zero, which is exact whenever
    f1_px and f1_pp do not depend on p (true for the monopolist preset with
    constant weight, and for the zero Lagrangian).
    """

    f0: ScalarField
    f0_z: ScalarField
    f0_zz: ScalarField
    f1: ScalarField
    f1_p: ScalarField
    f1_pp: ScalarField
    f1_px: ScalarField
    f1_pxp: ScalarField = field(default=lambda x, p: np.zeros_like(np.asarray(x, dtype=float)))
    f1_ppp: ScalarField = field(default=lambda x, p: np.zeros_like(np.asarray(x, dtype=float)))
    dstar: float = 0.0


@dataclass
class ValidationReport:
    """Worst-case violations found by sampling the structural conditions."""

    worst_f0_zz: float = 0.0
    worst_f1_pp: float = 0.0
    worst_growth: float = 0.0
    worst_derivative_mismatch: float = 0.0
    witnesses: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return (
            self.worst_f0_zz <= 0.0
            and self.worst_f1_pp <= 0.0
            and self.worst_growth <= 0.0
            and self.worst_derivative_mismatch <= 1e-5
        )


def _polyval(coeffs, x):
    # coeffs in ascending order
    return np.polynomial.polynomial.polyval(x, np.asarray(coeffs, dtype=float))


def make_rochet_chone(eta0_coeffs, sample_nodes: Optional[np.ndarray] = None) -> LagrangianSpec:
    """Monopolist-model Lagrangian F = (p^2/2 - p x + z) * eta0(x).

    eta0 is a polynomial (ascending coefficients) that must be nonnegative;
    nonnegativity is checked on sample_nodes when given, else on a fine
    lattice over [-1, 1].
    """
    c = np.asarray(eta0_coeffs, dtype=float)
    cder = np.polynomial.polynomial.polyder(c) if len(c) > 1 else np.zeros(1)
    check_x = sample_nodes if sample_nodes is not None else np.linspace(-1.0, 1.0, 2001)
    vals = _polyval(c, check_x)
    if np.any(vals < 0.0):
        i = int(np.argmin(vals))
        raise ValueError(f"negative weight: eta0({check_x[i]}) = {vals[i]}")

    def eta0(x):
        return _polyval(c, x)

    def eta0_prime(x):
        return _polyval(cder, x)

    fine = np.linspace(-1.0, 1.0, 2001)
    sup_eta0 = float(np.max(np.abs(_polyval(c, fine))))
    sup_eta0p = float(np.max(np.abs(_polyval(cder, fine))))
    # |f1_px| = |(p - x) eta0' - eta0| <= (sup|eta0'| (1 + |x|) + sup|eta0|) (1 + |p|)
    dstar = 2.0 * sup_eta0p + sup_eta0

    return LagrangianSpec(
        f0=lambda x, z: z * eta0(x),
        f0_z=lambda x, z: eta0(x) * np.ones_like(np.asarray(z, dtype=float)),
        f0_zz=lambda x, z: np.zeros_like(np.asarray(z, dtype=float)),
        f1=lambda x, p: (0.5 * p * p - p * x) * eta0(x),
        f1_p=lambda x, p: (p - x) * eta0(x),
        f1_pp=lambda x, p: eta0(x) * np.ones_like(np.asarray(p, dtype=float)),
        f1_px=lambda x, p: (p - x) * eta0_prime(x) - eta0(x),
        f1_pxp=lambda x, p: eta0_prime(x) * np.ones_like(np.asarray(p, dtype=float)),
        f1_ppp=lambda x, p: np.zeros_like(np.asarray(p, dtype=float)),
        dstar=dstar,
    )


def make_zero() -> LagrangianSpec:
    """F identically zero (pure penalty problem)."""
    z = lambda x, y: np.zeros_like(np.asarray(x, dtype=float) + np.asarray(y, dtype=float))
    return LagrangianSpec(
        f0=z, f0_z=z, f0_zz=z, f1=z, f1_p=z, f1_pp=z, f1_px=z,
        f1_pxp=z, f1_ppp=z, dstar=0.0,
    )


# Custom Lagrangians are registered here by id and selected from run configs.
CUSTOM_REGISTRY: dict[str, Callable[[], LagrangianSpec]] = {}


def validate_conditions(
    spec: LagrangianSpec,
    x_range=(-1.0, 1.0),
    z_range=(-2.0, 2.0),
    p_range=(-2.0, 2.0),
    samples: int = 100,
    fd_step: float = 1e-5,
) -> ValidationReport:
    """Sample the convexity and growth conditions and cross-check derivatives.

    Violations are recorded with witness points; the report never raises.
    """
    if samples < 100:
        raise ValueError("need at least 100 samples per axis")
    xs = np.linspace(*x_range, samples)
    zs = np.linspace(*z_range, samples)
    ps = np.linspace(*p_range, samples)
    X, Z = np.meshgrid(xs, zs, indexing="ij")
    _, P = np.meshgrid(xs, ps, indexing="ij")

    report = ValidationReport()

    v = spec.f0_zz(X, Z)
    worst = float(np.min(v))
    if worst < 0.0:
        i = np.unravel_index(np.argmin(v), v.shape)
        report.worst_f0_zz = -worst
        report.witnesses["f0_zz"] = (float(X[i]), float(Z[i]), worst)

    v = spec.f1_pp(X, P)
    worst = float(np.min(v))
    if worst < 0.0:
        i = np.unravel_index(np.argmin(v), v.shape)
        report.worst_f1_pp = -worst
        report.witnesses["f1_pp"] = (float(X[i]), float(P[i]), worst)

    excess = np.abs(spec.f1_px(X, P)) - spec.dstar * (1.0 + np.abs(P))
    worst = float(np.max(excess))
    if worst > 0.0:
        i = np.unravel_index(np.argmax(excess), excess.shape)
        report.worst_growth = worst
        report.witnesses["growth"] = (float(X[i]), float(P[i]), worst)

    # Finite-difference consistency of the supplied derivatives.
    d = fd_step
    checks = [
        ((spec.f0(X, Z + d) - spec.f0(X, Z - d)) / (2 * d), spec.f0_z(X, Z)),
        ((spec.f1(X, P + d) - spec.f1(X, P - d)) / (2 * d), spec.f1_p(X, P)),
        ((spec.f1_p(X, P + d) - spec.f1_p(X, P - d)) / (2 * d), spec.f1_pp(X, P)),
        ((spec.f1_p(X + d, P) - spec.f1_p(X - d, P)) / (2 * d), spec.f1_px(X, P)),
    ]
    for fd, analytic in checks:
        scale = np.maximum(np.abs(analytic), 1.0)
        mism = float(np.max(np.abs(fd - analytic) / scale))
        report.worst_derivative_mismatch = max(report.worst_derivative_mismatch, mism)

    return report
