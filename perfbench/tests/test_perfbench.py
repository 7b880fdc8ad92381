"""Tests of the benchmark itself: configs, tracer hygiene, correctness gate.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import csv
import json

import pytest

import checks
import run
import tracer
from abreu1d import cli
from abreu1d.config import RunConfig, load_config

# (n, phi, eta0, rho) of each workload, as the benchmark documents them.
EXPECTED = {
    "newton-sweep": (128, [-1.0, 0.0, 1.0], [1.0, 0.5], 0.5),
    "oracle-compare": (128, [-3.0, 0.0, 3.0], [1.0], 1.0 / 6.0),
    "large-grid-io": (8192, [-1.0, 0.0, 1.0], [1.0], 0.5),
}


def test_workloads_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert set(run.units_per_layer()) == set(tracer.layer_metrics({}, {})) | {"trace.overhead_s"}


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_workload_config_loads(name):
    cfg = load_config(run.config_path(name))
    n, phi, eta0, rho = EXPECTED[name]
    assert (cfg.grid_n, cfg.grid_a, cfg.grid_b) == (n, -0.5, 0.5)
    assert (cfg.phi, cfg.preset, cfg.eta0) == (phi, "rochet_chone", eta0)
    assert cfg.rho_minus == cfg.rho_plus == pytest.approx(rho, rel=1e-15)
    assert cfg.schedule() == [0.1 * 0.5**k for k in range(11)]
    cfg.build_setup()


def _attributes(targets):
    return {(id(owner), attr): vars(owner)[attr] for owner, attr, _, _ in targets} | {
        (id(RunConfig), "build_lagrangian"): vars(RunConfig)["build_lagrangian"]}


def test_tracer_restores_every_attribute(tmp_path):
    targets = tracer.targets()
    before = _attributes(targets)
    assert tracer.find_wrapped() == []
    t = tracer.Tracer()
    t.install()
    try:
        wrapped = _attributes(targets)
        assert all(wrapped[k] is not v for k, v in before.items())
        assert len(tracer.find_wrapped()) == len(before)
        code = t.run_command(lambda: run.invoke(
            cli, "sweep", run.config_path("newton-sweep"), tmp_path))
    finally:
        t.restore()
    assert code == 0
    after = _attributes(targets)
    assert all(after[k] is v for k, v in before.items())
    assert tracer.find_wrapped() == []
    layers = t.per_command()[0]
    assert layers["solver.jacobian.calls"] == layers["solver.newton_iters"] > 0
    assert layers["lagrangian.calls"] > 0


@pytest.fixture(scope="module")
def sweep_outputs(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("newton-sweep")
    code = run.invoke(cli, "sweep", run.config_path("newton-sweep"), outdir)
    reference = json.loads(run.reference_path("newton-sweep").read_text())["outputs"]
    return outdir, code, reference


def test_seed_outputs_pass(sweep_outputs):
    outdir, code, reference = sweep_outputs
    assert checks.check_command(outdir, "sweep", code, reference, 1e-8) == []


def test_perturbed_sweep_csv_fails(sweep_outputs, tmp_path):
    outdir, code, reference = sweep_outputs
    for name in ("manifest.json", "sweep.csv"):
        (tmp_path / name).write_bytes((outdir / name).read_bytes())
    with open(tmp_path / "sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    rows[5][3] = repr(float(rows[5][3]) * (1.0 + 1e-4))
    with open(tmp_path / "sweep.csv", "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    errors = checks.check_command(tmp_path, "sweep", code, reference, 1e-8)
    assert len(errors) == 1 and "row 4 min_upp_ab" in errors[0]


def test_failed_exit_and_unconverged_stage_fail(sweep_outputs, tmp_path):
    outdir, _, reference = sweep_outputs
    assert checks.check_command(outdir, "sweep", 2, reference, 1e-8) == ["exit code 2"]
    manifest = json.loads((outdir / "manifest.json").read_text())
    manifest["stages"][-1]["converged"] = False
    (tmp_path / "manifest.json").write_text(json.dumps(manifest))
    (tmp_path / "sweep.csv").write_bytes((outdir / "sweep.csv").read_bytes())
    assert checks.check_command(tmp_path, "sweep", 0, reference, 1e-8)


def test_tail_is_highest_percentile_with_ten_beyond():
    times = [float(i) for i in range(40)]
    assert run.tail(times) == (75.0, 29.0)
    with pytest.raises(ValueError):
        run.tail(times[:10])
