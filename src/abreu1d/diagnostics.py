"""Per-stage estimate reports, power-law rate fits, and bound checks.

The a priori estimates give existential constants, so nothing is compared
to a formula: the implied constant of each bound is fitted from the sweep
and flagged PASS when it is positive, finite, and stable.  Stability is
judged on the running extremum (the fitted constant itself), not on the
per-stage ratio, so that problems beating a bound by a growing margin
still pass.

The thresholds are module constants: `MIN_FIT_STAGES` (the fewest
converged stages a rate fit or the bound checks take), `STABILITY_FACTOR`
(largest ratio of the running extremum over the second half of the sweep),
`DECAY_FACTOR` and `DECAY_FLOOR` (the boundary-gradient rule), and
`RATE_FLOOR` (values at or below it make a rate fit report
`identically_small`).
"""

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .grid import integrate
from .solver import ProblemSetup, SolveResult, eval_J, eval_J_eps, penalty_l2

MIN_FIT_STAGES = 4
STABILITY_FACTOR = 10.0
DECAY_FACTOR = 5.0
DECAY_FLOOR = 1e-6
RATE_FLOOR = 1e-14


@dataclass
class EstimateReport:
    """One converged stage's estimates; the fields are the `sweep.csv` columns, in order."""

    eps: float
    sup_u: float
    sup_grad_ab: float
    min_upp_ab: float
    max_w_ab: float
    penalty_l2: float
    eps_uprime_left: float
    eps_uprime_right: float
    J_val: float
    J_eps_val: float
    int_inv_upp: float


@dataclass
class RateFit:
    """One `rates.csv` row: the log-log slope over `stages` reports."""

    slope: float
    r2: float
    stages: int
    identically_small: bool = False


def compute_report(result: SolveResult, setup: ProblemSetup) -> EstimateReport:
    """All sweep diagnostics for one converged stage, from Newton's u' and u''."""
    g = setup.grid
    u, up, upp, w = result.u, result.up, result.upp, result.w
    win = g.window_slice()
    J_val = eval_J(u, setup, up)
    pen = penalty_l2(u, setup)
    return EstimateReport(
        eps=setup.eps,
        sup_u=float(np.abs(u).max()),
        sup_grad_ab=float(np.abs(up[win]).max()),
        min_upp_ab=float(upp[win].min()),
        max_w_ab=float(w[win].max()),
        penalty_l2=pen,
        eps_uprime_left=float(setup.eps * up[0]),
        eps_uprime_right=float(setup.eps * up[-1]),
        J_val=J_val,
        J_eps_val=eval_J_eps(u, setup, J_val, pen, upp),
        int_inv_upp=float(integrate(w, g, 0, g.n)),
    )


def fit_rate(reports: Sequence[EstimateReport], field_name: str) -> RateFit:
    """Least-squares slope of log(value) vs log(eps) across a sweep."""
    if len(reports) < MIN_FIT_STAGES:
        raise ValueError(f"need >= {MIN_FIT_STAGES} stages for a rate fit, got {len(reports)}")
    values = np.array([float(getattr(r, field_name)) for r in reports])
    if np.any(values <= RATE_FLOOR):
        return RateFit(slope=float("nan"), r2=float("nan"), stages=len(reports),
                       identically_small=True)
    # the closed-form least-squares line through the centred logs
    de = np.log(np.array([r.eps for r in reports]))
    de -= de.mean()
    dv = np.log(values)
    dv -= dv.mean()
    slope = float(de @ dv) / float(de @ de)
    ss_tot = float(dv @ dv)
    resid = dv - slope * de
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(resid @ resid) / ss_tot
    return RateFit(slope=slope, r2=r2, stages=len(reports))


_DECAY_NOTE = (f"requires decay by factor {DECAY_FACTOR} first-to-last, "
               f"or < {DECAY_FLOOR} throughout")

# (bounds.json name, stage value of one report, rule, note).  A "lower" rule
# fits the running min and an "upper" rule the running max; either passes
# when, over the second half of the sweep, that extremum stays positive,
# finite and within STABILITY_FACTOR, and an upper rule also needs every
# stage finite.  A "decay" rule fits the last stage and passes when it is
# DECAY_FACTOR below the first, or when every stage is below DECAY_FLOOR.
BOUND_RULES = (
    ("curvature_lower_bound", lambda r: r.min_upp_ab / r.eps, "lower",
     "fitted constant = running min of (min u'' on window)/eps"),
    ("reciprocal_curvature_upper_bound", lambda r: r.eps * r.max_w_ab, "upper",
     "fitted constant = running max of eps * (max w on window)"),
    ("integral_inverse_curvature_bound", lambda r: r.eps * r.int_inv_upp, "upper",
     "fitted constant = running max of eps * int(1/u'')"),
    ("boundary_gradient_decay_left", lambda r: abs(r.eps_uprime_left), "decay", _DECAY_NOTE),
    ("boundary_gradient_decay_right", lambda r: abs(r.eps_uprime_right), "decay", _DECAY_NOTE),
)


def check_theorem_bounds(reports: Sequence[EstimateReport]) -> dict:
    """Fit and stability-check each of BOUND_RULES across a sweep.

    Returns the `bounds.json` mapping: rule name -> {"fitted_constant",
    "stage_values", "pass", "note"}.
    """
    if len(reports) < MIN_FIT_STAGES:
        raise ValueError(f"need >= {MIN_FIT_STAGES} stages for bound checks, got {len(reports)}")
    bounds = {}
    for name, stage_value, rule, note in BOUND_RULES:
        vals = np.array([stage_value(r) for r in reports])
        if rule == "decay":
            fitted = vals[-1]
            passed = bool(np.all(vals < DECAY_FLOOR)
                          or (vals[0] > 0.0 and vals[-1] * DECAY_FACTOR <= vals[0]))
        else:
            running = (np.minimum if rule == "lower" else np.maximum).accumulate(vals)
            fitted = running[-1]
            half = running[len(running) // 2 :]
            lo, hi = float(np.min(half)), float(np.max(half))
            passed = bool(lo > 0.0 and np.isfinite(hi) and hi / lo < STABILITY_FACTOR
                          and (rule == "lower" or np.all(np.isfinite(vals))))
        bounds[name] = {"fitted_constant": float(fitted), "stage_values": vals.tolist(),
                        "pass": passed, "note": note}
    return bounds
