"""Acceptance gate: one test (and one pass/fail line) per criterion.

Run with `pytest -v tests/test_acceptance.py` to get the per-criterion lines.
"""

import numpy as np
import pytest
from helpers import (
    CAL_PHI,
    STEEP_PHI,
    band_to_dense,
    fd_jacobian,
    min_improvement_over_random_feasible_directions,
    monopolist_setup,
    run_cli,
    unconstrained_window_solution,
    write_config,
    zero_setup,
)

from abreu1d.cli import write_json
from abreu1d.config import RunConfig, load_config
from abreu1d.diagnostics import check_theorem_bounds, compute_report, fit_rate
from abreu1d.grid import build_grid, d2
from abreu1d.lagrangian import make_rochet_chone
from abreu1d.minimizer import _cell_objective, minimize_direct
from abreu1d.solver import (
    continuation_sweep,
    default_eps_schedule,
    eval_J,
    jacobian,
    newton_solve,
)
from abreu1d.weakform import default_family, distributional_residual, rescaled_w

# Geometric schedule ending exactly at eps = 1e-4.
SCHEDULE_TO_1E4 = default_eps_schedule()[:10] + [1e-4]


def _gate(num, ok, detail):
    line = f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def calib_sweep_64():
    setup = monopolist_setup(eps=0.1)
    stages = continuation_sweep(setup, default_eps_schedule())
    assert all(r.converged for _, r in stages)
    return stages


@pytest.fixture(scope="module")
def steep_sweep_64():
    setup = monopolist_setup(eps=0.1, phi=STEEP_PHI, rho=1.0 / 6.0)
    stages = continuation_sweep(setup, default_eps_schedule())
    assert all(r.converged for _, r in stages)
    return stages


@pytest.fixture(scope="module")
def calib_sweep_512():
    setup = monopolist_setup(n=512, eps=0.1)
    stages = continuation_sweep(setup, SCHEDULE_TO_1E4)
    assert all(r.converged for _, r in stages)
    return stages


@pytest.fixture(scope="module")
def calib_sweep_256():
    setup = monopolist_setup(n=256, eps=0.1)
    stages = continuation_sweep(setup, SCHEDULE_TO_1E4)
    assert all(r.converged for _, r in stages)
    return stages


@pytest.fixture(scope="module")
def zero_sweep_512():
    setup = zero_setup(n=512, eps=0.1)
    stages = continuation_sweep(setup, SCHEDULE_TO_1E4)
    assert all(r.converged for _, r in stages)
    return stages


def test_criterion_01_jacobian_consistency():
    setup = monopolist_setup(n=64, eps=0.01)
    x = setup.grid.nodes
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(10):
        c = rng.uniform(-1, 1, 3)
        bump = sum(c[k] * np.sin((k + 1) * np.pi * (x + 1) / 2) for k in range(3))
        u = setup.phi + 0.01 * bump
        assert np.min(d2(u, setup.grid)) > 0.0
        A = band_to_dense(jacobian(u, setup))
        F = fd_jacobian(u, setup, step=1e-7)
        worst = max(worst, np.max(np.abs(A - F)) / np.max(np.abs(F)))
    _gate(1, worst <= 1e-6, f"max relative Jacobian error {worst:.3e} <= 1e-6")


def test_criterion_02_exact_solution_calibration():
    g = build_grid(64, -0.5, 0.5)
    lag = make_rochet_chone([1.0], g.nodes)
    x = g.nodes
    u0 = (x * x - 1) + 0.05 * (1 - x * x) ** 2
    worst_err = 0.0
    worst_ratio = 0.0
    for eps in default_eps_schedule():
        setup = monopolist_setup(n=64, eps=eps)
        res = newton_solve(setup, u0)
        assert res.converged
        worst_err = max(worst_err, float(np.max(np.abs(res.u - setup.phi))))
        h = res.residual_norms
        ratios = [h[k + 1] / h[k] ** 2 for k in range(len(h) - 1)]
        worst_ratio = max(worst_ratio, max(ratios[-2:]))
    ok = worst_err <= 1e-8 and worst_ratio <= 10.0
    _gate(2, ok, f"max |u - phi| {worst_err:.2e} <= 1e-8, "
                 f"quadratic-tail ratio {worst_ratio:.2f} <= 10")


def test_criterion_03_scheme_vs_oracle(calib_sweep_512, zero_sweep_512):
    details = []
    ok = True
    for name, stages in (("monopolist", calib_sweep_512), ("penalty-only", zero_sweep_512)):
        setup, res = stages[-1]
        g = setup.grid
        oracle = minimize_direct(setup)
        width = g.b - g.a
        inner = (g.nodes >= g.a + 0.1 * width) & (g.nodes <= g.b - 0.1 * width)
        diff = float(np.max(np.abs(res.u - oracle.v)[inner]))
        j_diff = abs(eval_J(res.u, setup) - oracle.J_value)
        ok = ok and diff <= 5e-3 and j_diff <= 1e-3
        details.append(f"{name}: sup diff {diff:.2e}, J diff {j_diff:.2e}")
    _gate(3, ok, "; ".join(details))


def test_criterion_04_penalty_decay_rate(steep_sweep_64):
    reports = [compute_report(r, s) for s, r in steep_sweep_64]
    fit = fit_rate(reports[-6:], "penalty_l2")
    ok = fit.identically_small or (fit.slope >= 0.9 and fit.r2 >= 0.95)
    _gate(4, ok, f"penalty slope {fit.slope:.2f} >= 0.9, r2 {fit.r2:.4f} >= 0.95")


def test_criterion_05_curvature_lower_bound(calib_sweep_64, steep_sweep_64):
    consts = []
    ok = True
    for stages in (calib_sweep_64, steep_sweep_64):
        reports = [compute_report(r, s) for s, r in stages]
        c = check_theorem_bounds(reports)["curvature_lower_bound"]
        ok = ok and c["pass"]
        consts.append(c["fitted_constant"])
    _gate(5, ok, f"stable positive constants {consts[0]:.2f}, {consts[1]:.2f}")


def test_criterion_06_reciprocal_curvature_upper_bound(calib_sweep_64, steep_sweep_64):
    consts = []
    ok = True
    for stages in (calib_sweep_64, steep_sweep_64):
        reports = [compute_report(r, s) for s, r in stages]
        check = check_theorem_bounds(reports)
        for name in ("reciprocal_curvature_upper_bound", "integral_inverse_curvature_bound"):
            ok = ok and check[name]["pass"]
        consts.append(check["reciprocal_curvature_upper_bound"]["fitted_constant"])
    _gate(6, ok, f"stable constants {consts[0]:.3f}, {consts[1]:.3f}")


def test_criterion_07_boundary_gradient_decay(calib_sweep_64, steep_sweep_64):
    ok = True
    factors = []
    for stages in (calib_sweep_64, steep_sweep_64):
        reports = [compute_report(r, s) for s, r in stages]
        check = check_theorem_bounds(reports)
        for side in ("left", "right"):
            c = check[f"boundary_gradient_decay_{side}"]
            ok = ok and c["pass"]
            factors.append(c["stage_values"][0] / max(c["stage_values"][-1], 1e-300))
    _gate(7, ok, f"first-to-last decay factors {min(factors):.0f}..{max(factors):.0f} >= 5")


def test_criterion_08_distributional_residual(calib_sweep_512, calib_sweep_256):
    residuals = {}
    for n, stages in ((256, calib_sweep_256), (512, calib_sweep_512)):
        setup, res = stages[-1]
        family = default_family(setup.grid)
        mr, _ = distributional_residual(rescaled_w(res, setup), res.u, setup, family)
        residuals[n] = mr
    ratio = residuals[256] / residuals[512]
    ok = residuals[512] <= 1e-3 and 4.0 * 0.65 <= ratio <= 4.0 * 1.35
    _gate(8, ok, f"residual {residuals[512]:.2e} <= 1e-3 at n=512, "
                 f"halving ratio {ratio:.2f} in [2.6, 5.4]")


def test_criterion_09_oracle_self_consistency():
    setup = monopolist_setup(n=64, eps=0.01)
    res = minimize_direct(setup)
    kkt_ok = res.kkt_residual <= 1e-8
    worst = min_improvement_over_random_feasible_directions(setup, res, count=100)
    dirs_ok = worst >= -1e-12

    # brute force at n = 16: long-run projected gradient on the same discrete
    # objective, projection by repeated local convexification sweeps
    p16 = monopolist_setup(n=16)
    g16, phi16 = p16.grid, p16.phi
    res16 = minimize_direct(p16)

    _, grad_hess = _cell_objective(p16)
    free = g16.interior_slice()
    m = free.stop - free.start
    v0 = phi16.copy()
    g0, H_band = grad_hess(v0)
    H = band_to_dense(H_band)
    alpha = 1.0 / float(np.max(np.linalg.eigvalsh(H)))
    ia, ib = g16.ia, g16.ib
    h2 = g16.h**2
    C = np.zeros((ib - ia + 1, m))
    d = np.zeros(ib - ia + 1)
    for r, i in enumerate(range(ia, ib + 1)):
        for j, wt in ((i - 1, 1.0), (i, -2.0), (i + 1, 1.0)):
            if free.start <= j < free.stop:
                C[r, j - free.start] += wt / h2
            else:
                d[r] += wt / h2 * phi16[j]
    vf = v0[free].copy()
    for _ in range(1_000_000):
        previous = vf
        vf = vf - alpha * (g0 + H @ (vf - v0[free]))
        if (C @ vf + d).min() < 0.0:
            for _ in range(200):
                s = C @ vf + d
                if s.min() >= 0.0:
                    break
                for r, i in enumerate(range(ia, ib + 1)):
                    if s[r] < 0.0:
                        if free.start <= i < free.stop:
                            lo = vf[i - 1 - free.start] if i - 1 >= free.start else phi16[i - 1]
                            hi = vf[i + 1 - free.start] if i + 1 < free.stop else phi16[i + 1]
                            vf[i - free.start] = 0.5 * (lo + hi)
                        elif i == ia:
                            vf[0] = max(vf[0], 2 * phi16[ia] - phi16[ia - 1])
                        elif i == ib:
                            vf[-1] = max(vf[-1], 2 * phi16[ib] - phi16[ib + 1])
        # the step and projection depend on vf alone, so once they return vf
        # bit for bit, every remaining iteration of the budget returns it too
        if np.array_equal(vf, previous):
            break
    v_pg = v0.copy()
    v_pg[free] = vf
    brute_diff = float(np.max(np.abs(res16.v - v_pg)))
    ok = kkt_ok and dirs_ok and brute_diff <= 1e-5
    _gate(9, ok, f"KKT {res.kkt_residual:.1e} <= 1e-8, worst direction "
                 f"improvement {worst:.1e} >= -1e-12, brute-force gap "
                 f"{brute_diff:.1e} <= 1e-5")


def test_criterion_10_active_constraint_coupling():
    setup = monopolist_setup(n=64, eps=0.01, phi=STEEP_PHI, rho=1.0 / 6.0)
    res = minimize_direct(setup)
    g = setup.grid
    s = d2(res.v, g)[1:-1]
    edge_slack = min(s[g.ia - 1], s[g.ib - 1])
    v_unc = unconstrained_window_solution(setup)
    shift = float(np.max(np.abs(res.v - v_unc)))
    ok = edge_slack <= 1e-4 and shift > 1e-3
    _gate(10, ok, f"window-edge constraint slack {edge_slack:.2e} (needs <= 1e-4), "
                  f"distance to unconstrained solution {shift:.2e} (needs > 1e-3)")


def test_criterion_11_determinism_and_io(tmp_path):
    names = ["sweep.csv", "rates.csv", "bounds.json"] + [
        f"solution_stage{k:02d}.csv" for k in range(5)
    ]
    outputs = []
    for tag in ("one", "two"):
        cfg = write_config(tmp_path / f"cfg_{tag}.json", outputs=str(tmp_path / tag))
        proc = run_cli("sweep", "--config", cfg)
        assert proc.returncode == 0, proc.stderr
        outputs.append({n: (tmp_path / tag / n).read_bytes() for n in names})
    deterministic = outputs[0] == outputs[1]

    cfg = RunConfig.from_dict({
        "grid": {"n": 64, "a": -0.5, "b": 0.5},
        "phi": CAL_PHI,
        "lagrangian": {"preset": "rochet_chone", "eta0": [1.0]},
        "rho_minus": 0.5,
        "rho_plus": 0.5,
        "eps_schedule": [0.1, 0.037, 1.25e-3],
    })
    path = tmp_path / "roundtrip.json"
    write_json(path, cfg.to_dict())
    lossless = load_config(path).to_dict() == cfg.to_dict()
    ok = deterministic and lossless
    _gate(11, ok, f"byte-identical CSVs: {deterministic}, "
                  f"lossless config round-trip: {lossless}")
