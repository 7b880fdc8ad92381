import collections

import numpy as np
import pytest
from helpers import monopolist_setup

from abreu1d import diagnostics, solver
from abreu1d.diagnostics import (
    EstimateReport,
    check_theorem_bounds,
    compute_report,
    fit_rate,
)
from abreu1d.grid import d2, integrate
from abreu1d.solver import (continuation_sweep, default_eps_schedule, eval_J, eval_J_eps,
                            newton_solve, penalty_l2)


def _sweep(**kwargs):
    setup = monopolist_setup(eps=0.1, **kwargs)
    return continuation_sweep(setup, default_eps_schedule())


def _synthetic_report(eps, value):
    return EstimateReport(
        eps=eps, sup_u=1.0, sup_grad_ab=1.0, min_upp_ab=2.0, max_w_ab=0.5,
        penalty_l2=value, eps_uprime_left=-2 * eps, eps_uprime_right=2 * eps,
        J_val=0.0, J_eps_val=0.0, int_inv_upp=1.0,
    )


def test_compute_report_closed_form_quantities():
    setup = monopolist_setup(eps=0.01)
    res = newton_solve(setup, setup.phi)
    rep = compute_report(res, setup)
    assert rep.sup_u == pytest.approx(1.0, abs=1e-10)
    assert rep.min_upp_ab == pytest.approx(2.0, abs=1e-9)
    assert rep.max_w_ab == pytest.approx(0.5, abs=1e-9)
    assert rep.penalty_l2 == pytest.approx(0.0, abs=1e-18)
    assert rep.eps_uprime_left == pytest.approx(-0.02, abs=1e-12)
    assert rep.eps_uprime_right == pytest.approx(0.02, abs=1e-12)
    assert rep.sup_grad_ab == pytest.approx(1.0, abs=1e-9)
    assert rep.int_inv_upp == pytest.approx(1.0, abs=1e-9)
    assert rep.J_val == pytest.approx(-11.0 / 12.0, abs=1e-3)


@pytest.mark.parametrize("weight", [(1.0, 0.5), (1.0,)], ids=["variable-weight", "calibration"])
def test_report_functionals_are_the_solvers(weight):
    setup = monopolist_setup(n=64, eps=0.01, weight=weight)
    res = newton_solve(setup, setup.phi)
    assert res.converged
    g, u = setup.grid, res.u
    rep = compute_report(res, setup)
    assert rep.J_val == eval_J(u, setup)
    assert rep.J_eps_val == eval_J_eps(u, setup)
    assert rep.penalty_l2 == penalty_l2(u, setup)
    # J_eps sums the window functional, the log-curvature term and the penalty, in that order
    log_term = -setup.eps * integrate(np.log(d2(u, g)), g, 0, g.n)
    assert rep.J_eps_val == rep.J_val + log_term + rep.penalty_l2 / (2.0 * setup.eps)


def test_compute_report_evaluates_each_functional_once(monkeypatch):
    # J_eps_val is formed from the report's own J_val and penalty_l2
    setup = monopolist_setup(n=64, eps=0.01, weight=(1.0, 0.5))
    res = newton_solve(setup, setup.phi)
    expected = compute_report(res, setup)
    calls = collections.Counter()
    for name in ("eval_J", "penalty_l2"):
        def counted(*args, _name=name, _fn=getattr(solver, name)):
            calls[_name] += 1
            return _fn(*args)

        for module in (solver, diagnostics):
            monkeypatch.setattr(module, name, counted)
    assert compute_report(res, setup) == expected
    assert calls == {"eval_J": 1, "penalty_l2": 1}


def test_reciprocal_curvature_identity():
    setup = monopolist_setup(eps=0.01)
    x = setup.grid.nodes
    res = newton_solve(setup, setup.phi + 0.05 * (1 - x * x) ** 2)
    prod = res.w * d2(res.u, setup.grid)
    np.testing.assert_allclose(prod, 1.0, rtol=1e-12)


def test_fit_rate_exact_power_laws():
    eps = [0.1 * 0.5**k for k in range(6)]
    fit = fit_rate([_synthetic_report(e, 3 * e) for e in eps], "penalty_l2")
    assert fit.slope == pytest.approx(1.0, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)
    fit = fit_rate([_synthetic_report(e, 5 * e * e) for e in eps], "penalty_l2")
    assert fit.slope == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_fit_rate_agrees_with_polyfit(seed):
    # the closed-form slope and r2 against numpy's least-squares line
    rng = np.random.default_rng(seed)
    stages = int(rng.integers(4, 12))
    eps = np.sort(rng.uniform(1e-5, 0.9, stages))[::-1]
    values = np.exp(rng.uniform(-1.0, 1.0) * np.log(eps) + rng.normal(0.0, 0.3, stages))
    fit = fit_rate([_synthetic_report(e, v) for e, v in zip(eps, values)], "penalty_l2")
    slope, intercept = np.polyfit(np.log(eps), np.log(values), 1)
    logs_v = np.log(values)
    ss_res = np.sum((logs_v - slope * np.log(eps) - intercept) ** 2)
    r2 = 1.0 - ss_res / np.sum((logs_v - logs_v.mean()) ** 2)
    assert (fit.slope, fit.r2, fit.stages) == pytest.approx((slope, r2, stages), abs=1e-12)


def test_compute_report_takes_newtons_derivatives(monkeypatch):
    # the report reads the result's u' and u''; no derivative is taken again
    setup = monopolist_setup(n=64, eps=0.01, weight=(1.0, 0.5), phi=[-3.0, 0.0, 3.0], rho=1 / 6)
    res = newton_solve(setup, setup.phi)
    assert res.converged and res.newton_iters > 0
    expected = compute_report(res, setup)

    def refused(*args):
        raise AssertionError("compute_report took a derivative")

    for name in ("d1", "d2"):
        monkeypatch.setattr(solver, name, refused)
    assert compute_report(res, setup) == expected


def test_fit_rate_identically_small_path():
    stages = _sweep()
    reports = [compute_report(r, s) for s, r in stages]
    fit = fit_rate(reports, "penalty_l2")
    assert fit.identically_small
    assert np.isnan(fit.slope)


def test_fit_rate_insufficient_data():
    eps = [0.1, 0.05]
    with pytest.raises(ValueError, match="need >= 4 stages for a rate fit, got 2"):
        fit_rate([_synthetic_report(e, e) for e in eps], "penalty_l2")


def test_bound_checks_pass_on_exact_solution_sweep():
    stages = _sweep()
    reports = [compute_report(r, s) for s, r in stages]
    bounds = check_theorem_bounds(reports)
    assert all(check["pass"] for check in bounds.values())
    # running min of (min u'' on window)/eps: attained at the largest eps
    assert bounds["curvature_lower_bound"]["fitted_constant"] == pytest.approx(
        2.0 / reports[0].eps, rel=1e-6
    )
    # boundary gradient 2*eps decays by factor 2 per stage
    left = bounds["boundary_gradient_decay_left"]["stage_values"]
    assert left[0] / left[-1] == pytest.approx(1024, rel=1e-6)


def test_bound_checks_insufficient_data():
    stages = _sweep()
    reports = [compute_report(r, s) for s, r in stages][:2]
    with pytest.raises(ValueError, match="need >= 4 stages for bound checks, got 2"):
        check_theorem_bounds(reports)


def test_penalty_decay_on_non_exact_problem():
    stages = _sweep(phi=[-3.0, 0.0, 3.0], rho=1.0 / 6.0)
    reports = [compute_report(r, s) for s, r in stages]
    assert all(r.penalty_l2 >= 0.0 for r in reports)
    assert all(r.min_upp_ab > 0.0 for r in reports)
    # penalty_l2 <= C * eps with a stable constant: the ratio is bounded
    ratios = [r.penalty_l2 / r.eps for r in reports]
    assert max(ratios) < np.inf and ratios[-1] <= ratios[0]
