"""Per-stage estimate reports, power-law rate fits, and bound checks.

The a priori estimates give existential constants, so nothing is compared
to a formula: the implied constant of each bound is fitted from the sweep
and flagged PASS when it is positive, finite, and stable.  Stability is
judged on the running extremum (the fitted constant itself), not on the
per-stage ratio, so that problems beating a bound by a growing margin
still pass.
"""

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .grid import d1, d2, integrate
from .solver import NotConverged, ProblemSetup, SolveResult, eval_J_eps
from .minimizer import ConeProblem, eval_J


class InsufficientData(ValueError):
    """Too few sweep stages for a fit or bound check."""


@dataclass
class EstimateReport:
    eps: float
    sup_u: float
    sup_grad_ab: float
    min_upp_ab: float
    max_w_ab: float
    penalty_l2: float
    eps_times_uprime_bdry: tuple[float, float]
    J_val: float
    J_eps_val: float
    int_inv_upp: float

    CSV_FIELDS = (
        "eps", "sup_u", "sup_grad_ab", "min_upp_ab", "max_w_ab", "penalty_l2",
        "eps_uprime_left", "eps_uprime_right", "J_val", "J_eps_val", "int_inv_upp",
    )

    def csv_row(self) -> list[float]:
        return [
            self.eps, self.sup_u, self.sup_grad_ab, self.min_upp_ab, self.max_w_ab,
            self.penalty_l2, self.eps_times_uprime_bdry[0], self.eps_times_uprime_bdry[1],
            self.J_val, self.J_eps_val, self.int_inv_upp,
        ]


@dataclass
class RateFit:
    quantity: str
    pairs: list[tuple[float, float]]
    slope: float
    r2: float
    identically_small: bool = False


@dataclass
class BoundCheck:
    name: str
    fitted_constant: float
    stage_values: list[float]
    passed: bool
    note: str = ""


@dataclass
class BoundCheckSummary:
    checks: list[BoundCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def as_dict(self) -> dict:
        return {
            c.name: {
                "fitted_constant": c.fitted_constant,
                "stage_values": c.stage_values,
                "pass": c.passed,
                "note": c.note,
            }
            for c in self.checks
        }


def compute_report(result: SolveResult, setup: ProblemSetup) -> EstimateReport:
    """All sweep diagnostics for one converged stage."""
    if not result.converged:
        raise NotConverged("estimate report requires a converged stage")
    g = setup.grid
    u = result.u
    up = d1(u, g)
    upp = d2(u, g)
    win = g.window_slice()
    pen = (u - setup.phi) ** 2
    penalty_l2 = integrate(pen, g, 0, g.ia) + integrate(pen, g, g.ib, g.n)
    cone = ConeProblem(grid=g, lagrangian=setup.lagrangian, phi=setup.phi)
    return EstimateReport(
        eps=setup.eps,
        sup_u=float(np.max(np.abs(u))),
        sup_grad_ab=float(np.max(np.abs(up[win]))),
        min_upp_ab=float(np.min(upp[win])),
        max_w_ab=float(np.max(result.w[win])),
        penalty_l2=float(penalty_l2),
        eps_times_uprime_bdry=(float(setup.eps * up[0]), float(setup.eps * up[-1])),
        J_val=eval_J(u, cone),
        J_eps_val=eval_J_eps(u, setup),
        int_inv_upp=float(integrate(1.0 / upp, g, 0, g.n)),
    )


def fit_rate(reports: Sequence[EstimateReport], field_name: str, floor: float = 1e-14) -> RateFit:
    """Least-squares slope of log(value) vs log(eps) across a sweep."""
    if len(reports) < 4:
        raise InsufficientData(f"need >= 4 stages for a rate fit, got {len(reports)}")
    pairs = [(r.eps, float(getattr(r, field_name))) for r in reports]
    values = np.array([v for _, v in pairs])
    if np.any(values <= floor):
        return RateFit(quantity=field_name, pairs=pairs, slope=float("nan"),
                       r2=float("nan"), identically_small=True)
    logs_e = np.log(np.array([e for e, _ in pairs]))
    logs_v = np.log(values)
    slope, intercept = np.polyfit(logs_e, logs_v, 1)
    pred = slope * logs_e + intercept
    ss_res = float(np.sum((logs_v - pred) ** 2))
    ss_tot = float(np.sum((logs_v - np.mean(logs_v)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit(quantity=field_name, pairs=pairs, slope=float(slope), r2=float(r2))


def _stable(running: np.ndarray, factor: float = 10.0) -> bool:
    half = running[len(running) // 2 :]
    lo, hi = float(np.min(half)), float(np.max(half))
    return lo > 0.0 and np.isfinite(hi) and hi / lo < factor


def check_theorem_bounds(
    reports: Sequence[EstimateReport],
    stability_factor: float = 10.0,
    decay_factor: float = 5.0,
    decay_floor: float = 1e-6,
) -> BoundCheckSummary:
    """Fit and stability-check the curvature, reciprocal-curvature and
    boundary-gradient bounds across a sweep."""
    if len(reports) < 4:
        raise InsufficientData(f"need >= 4 stages for bound checks, got {len(reports)}")
    summary = BoundCheckSummary()

    # lower curvature bound: min u'' on the window should stay >= const * eps
    ratios = np.array([r.min_upp_ab / r.eps for r in reports])
    running_min = np.minimum.accumulate(ratios)
    summary.checks.append(BoundCheck(
        name="curvature_lower_bound",
        fitted_constant=float(running_min[-1]),
        stage_values=list(ratios),
        passed=bool(running_min[-1] > 0.0 and _stable(running_min, stability_factor)),
        note="fitted constant = running min of (min u'' on window)/eps",
    ))

    # upper bound on w: eps * max w on the window bounded by a stable constant
    vals = np.array([r.eps * r.max_w_ab for r in reports])
    running_max = np.maximum.accumulate(vals)
    summary.checks.append(BoundCheck(
        name="reciprocal_curvature_upper_bound",
        fitted_constant=float(running_max[-1]),
        stage_values=list(vals),
        passed=bool(np.all(np.isfinite(vals)) and _stable(running_max, stability_factor)),
        note="fitted constant = running max of eps * (max w on window)",
    ))

    # weighted integral bound: eps * int 1/u'' bounded by a stable constant
    vals = np.array([r.eps * r.int_inv_upp for r in reports])
    running_max = np.maximum.accumulate(vals)
    summary.checks.append(BoundCheck(
        name="integral_inverse_curvature_bound",
        fitted_constant=float(running_max[-1]),
        stage_values=list(vals),
        passed=bool(np.all(np.isfinite(vals)) and _stable(running_max, stability_factor)),
        note="fitted constant = running max of eps * int(1/u'')",
    ))

    # boundary gradient decay: eps*|u'(+-1)| shrinks by decay_factor or stays tiny
    for side, pick in (("left", 0), ("right", 1)):
        vals = np.array([abs(r.eps_times_uprime_bdry[pick]) for r in reports])
        tiny = bool(np.all(vals < decay_floor))
        decays = bool(vals[0] > 0.0 and vals[-1] * decay_factor <= vals[0])
        summary.checks.append(BoundCheck(
            name=f"boundary_gradient_decay_{side}",
            fitted_constant=float(vals[-1]),
            stage_values=list(vals),
            passed=tiny or decays,
            note=f"requires decay by factor {decay_factor} first-to-last, or < {decay_floor} throughout",
        ))
    return summary
