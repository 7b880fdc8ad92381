import contextlib
import csv
import dataclasses
import hashlib
import json
import logging
import os
import pickle
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from helpers import (SHALLOW_PHI, STEEP_PHI, invoke_cli, monopolist_setup, quartic_spec, run_cli,
                     write_config)

from abreu1d import cli
from abreu1d.grid import d1, d2
from abreu1d.lagrangian import CUSTOM_REGISTRY
from abreu1d.solver import SolveResult, continuation_sweep, f_eps


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _per_value_csv(path, header, rows):
    """The former writer: one format call per value, one join per row."""
    def fmt(value):
        if isinstance(value, float):
            return f"{value:.17g}"
        return str(value)

    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(fmt(v) for v in row) + "\n")


SPECIAL_FLOATS = [np.nan, np.inf, -np.inf, -0.0, 5e-324, 1e300, 0.1, 1.0]
RATES_HEADER = ("quantity", "slope", "r2", "stages", "identically_small")


@pytest.mark.parametrize(
    "rows",
    [1, cli._CSV_BLOCK_ROWS - 1, cli._CSV_BLOCK_ROWS, cli._CSV_BLOCK_ROWS + 1, 8193],
)
def test_write_csv_bytes_match_per_value_format(tmp_path, rows):
    rng = np.random.default_rng(rows)
    columns = [
        np.resize(np.array(SPECIAL_FLOATS), rows),
        rng.standard_normal(rows) * np.exp(rng.uniform(-700.0, 700.0, rows)),
        [float(v) for v in rng.uniform(-1.0, 1.0, rows)],
        [SPECIAL_FLOATS[k % len(SPECIAL_FLOATS)] for k in range(rows)],
        list(range(rows)),
        [("penalty_l2", "min_upp_ab")[k % 2] for k in range(rows)],
    ]
    header = ("a", "b", "c", "d", "stages", "quantity")
    digest = cli.write_csv(tmp_path / "new.csv", header, columns)
    _per_value_csv(tmp_path / "old.csv", header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()
    assert digest == hashlib.sha256((tmp_path / "new.csv").read_bytes()).hexdigest()


def test_write_csv_rates_shape_and_header_only_match_per_value_format(tmp_path):
    rate_rows = [
        ("penalty_l2", np.float64(0.99999999999999978), 1.0, 11, "no"),
        ("min_upp_ab", -0.0, np.float64(np.nan), 2, "yes"),
    ]
    cases = {
        "rates": list(zip(*rate_rows)),
        "no_columns": [],
        "empty_columns": [[] for _ in RATES_HEADER],
    }
    for name, columns in cases.items():
        digest = cli.write_csv(tmp_path / f"{name}.csv", RATES_HEADER, columns)
        _per_value_csv(tmp_path / f"{name}_ref.csv", RATES_HEADER,
                       rate_rows if name == "rates" else [])
        written = (tmp_path / f"{name}.csv").read_bytes()
        assert written == (tmp_path / f"{name}_ref.csv").read_bytes(), name
        assert digest == hashlib.sha256(written).hexdigest(), name


def test_write_json_returns_the_digest_of_its_bytes(tmp_path):
    doc = {"b": [0.1, -0.0, 5e-324], "a": {"status": "PASS", "n": 3}, "nan": float("nan")}
    path = tmp_path / "doc.json"
    digest = cli.write_json(path, doc)
    written = path.read_bytes()
    assert written == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    assert digest == hashlib.sha256(written).hexdigest()
    assert not (tmp_path / "doc.json.tmp").exists()


@pytest.mark.parametrize("n", [16, 24, 8192])
def test_stage_files_with_rendered_nodes_match_per_value_format(tmp_path, n):
    # both stages write the nodes rendered once for the sweep;
    # at n = 24 the nodes are not dyadic and need all 17 digits
    stages = continuation_sweep(monopolist_setup(n=n), [0.1, 0.05])
    with cli._writing_stages(tmp_path, stages) as digests:
        pass
    assert sorted(digests) == ["solution_stage00.csv", "solution_stage01.csv"]
    for k, (setup, result) in enumerate(stages):
        path = tmp_path / f"solution_stage{k:02d}.csv"
        g, u = setup.grid, result.u
        upp = d2(u, g)
        _per_value_csv(tmp_path / "ref.csv", cli.STAGE_HEADER,
                       zip(g.nodes, u, d1(u, g), upp, result.w, f_eps(u, upp, setup)))
        written = path.read_bytes()
        assert written == (tmp_path / "ref.csv").read_bytes(), path.name
        assert digests[path.name] == hashlib.sha256(written).hexdigest(), path.name


def test_solve_exact_solution(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", eps_schedule=[0.01])
    proc = run_cli("solve", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    rows = _rows(tmp_path / "out" / "solution.csv")
    assert list(rows[0].keys()) == ["x", "u", "u_prime", "u_pp", "w", "f_eps"]
    at_zero = [r for r in rows if float(r["x"]) == 0.0]
    assert len(at_zero) == 1
    assert float(at_zero[0]["u"]) == pytest.approx(-1.0, abs=1e-8)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["stages"][0]["converged"] is True
    assert "solution.csv" in manifest["files"]


def test_solve_requires_single_stage_schedule(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")  # 5-stage schedule
    assert run_cli("solve", "--config", cfg).returncode == 1


def test_nonpositive_boundary_data_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", rho_minus=0.0, eps_schedule=[0.01])
    proc = run_cli("solve", "--config", cfg)
    assert proc.returncode == 1
    assert "rho" in proc.stderr


def test_reversed_window_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", grid={"a": 0.5, "b": -0.5},
                       eps_schedule=[0.01])
    assert run_cli("solve", "--config", cfg).returncode == 1


def test_increasing_schedule_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "cfg.json",
                       eps_schedule={"start": 0.5, "ratio": 2, "stages": 3})
    assert run_cli("sweep", "--config", cfg).returncode == 1


def test_unknown_config_key_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", grid={"nn": 8})
    proc = run_cli("sweep", "--config", cfg)
    assert proc.returncode == 1
    assert "nn" in proc.stderr


def test_string_number_is_config_error(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", rho_minus="0.5")
    proc = run_cli("sweep", "--config", cfg)
    assert proc.returncode == 1
    assert "rho_minus must be a finite number" in proc.stderr


# A custom Lagrangian reads no `eta0`, so the base document's is dropped.
QUARTIC = {"preset": "custom:quartic", "eta0": None}


def test_custom_lagrangian_sweep_converges(tmp_path, monkeypatch):
    monkeypatch.setitem(CUSTOM_REGISTRY, "quartic", quartic_spec)
    cfg = write_config(tmp_path / "cfg.json", lagrangian=QUARTIC)
    assert invoke_cli("sweep", "--config", cfg) == 0
    stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
    assert len(stages) == 5
    assert all(stage["converged"] for stage in stages)


def test_custom_lagrangian_with_wrong_partial_is_config_error(tmp_path, monkeypatch, caplog):
    monkeypatch.setitem(CUSTOM_REGISTRY, "quartic", lambda: dataclasses.replace(
        quartic_spec(), f1_ppp=lambda x, p: 0.0 * p))
    cfg = write_config(tmp_path / "cfg.json", lagrangian=QUARTIC)
    with caplog.at_level(logging.ERROR, logger="abreu1d"):
        assert invoke_cli("sweep", "--config", cfg) == 1
    assert "custom lagrangian 'quartic': f1_ppp disagrees" in caplog.text
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_unregistered_custom_lagrangian_is_config_error(tmp_path, caplog):
    cfg = write_config(tmp_path / "cfg.json",
                       lagrangian={"preset": "custom:no-such-id", "eta0": None})
    with caplog.at_level(logging.ERROR, logger="abreu1d"):
        assert invoke_cli("sweep", "--config", cfg) == 1
    assert "unregistered custom lagrangian: 'no-such-id'" in caplog.text


def test_output_path_under_a_file_is_config_error(tmp_path, caplog):
    # creating <file>/sub raises NotADirectoryError: one logged error, no traceback
    blocker = tmp_path / "blocker.json"
    blocker.write_text("{}", encoding="utf-8")
    cfg = write_config(tmp_path / "cfg.json")
    with caplog.at_level(logging.ERROR, logger="abreu1d"):
        assert invoke_cli("sweep", "--config", cfg, "--out", blocker / "sub") == 1
    assert "output directory not writable" in caplog.text
    assert str(blocker / "sub") in caplog.text
    assert "Traceback" not in caplog.text


def test_missing_config_field_is_config_error(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text('{"grid": {"n": 64, "a": -0.5, "b": 0.5}}', encoding="utf-8")
    assert run_cli("sweep", "--config", path).returncode == 1


def test_unattainable_tolerance_is_solver_failure(tmp_path):
    # non-dyadic obstacle so the residual bottoms out at roundoff, above
    # the absurdly small tolerance requested here
    cfg = write_config(tmp_path / "cfg.json", eps_schedule=[0.01],
                       phi=SHALLOW_PHI, rho_minus=1.5, rho_plus=1.5,
                       tolerances={"newton_tol_scale": 1e-30})
    assert run_cli("solve", "--config", cfg).returncode == 2


def test_sweep_artifacts(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", grid={"n": 32})
    proc = run_cli("sweep", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    out = tmp_path / "out"
    sweep_rows = _rows(out / "sweep.csv")
    assert len(sweep_rows) == 5
    assert float(sweep_rows[0]["eps"]) == 0.1
    assert (out / "rates.csv").exists()
    bounds = json.loads((out / "bounds.json").read_text())
    assert bounds["curvature_lower_bound"]["pass"] is True
    for k in range(5):
        assert (out / f"solution_stage{k:02d}.csv").exists()


def test_sweep_determinism(tmp_path):
    names = ["sweep.csv", "rates.csv", "bounds.json"] + [
        f"solution_stage{k:02d}.csv" for k in range(5)
    ]
    outputs = []
    for tag in ("one", "two"):
        cfg = write_config(tmp_path / f"cfg_{tag}.json", grid={"n": 32},
                           outputs=str(tmp_path / tag))
        assert run_cli("sweep", "--config", cfg).returncode == 0
        outputs.append({n: (tmp_path / tag / n).read_bytes() for n in names})
    assert outputs[0] == outputs[1]


def test_out_override(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", eps_schedule=[0.01])
    other = tmp_path / "elsewhere"
    assert run_cli("solve", "--config", cfg, "--out", other).returncode == 0
    assert (other / "solution.csv").exists()


def test_compare_agreement(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", grid={"n": 32},
                       eps_schedule={"start": 0.1, "ratio": 0.5, "stages": 4})
    proc = run_cli("compare", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((tmp_path / "out" / "compare_summary.json").read_text())
    assert summary["sup_diff_inner_window"] <= 5e-3
    assert summary["J_abs_diff"] <= 1e-3
    assert (tmp_path / "out" / "compare.csv").exists()


def test_compare_oracle_failure_exit_code(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", phi=SHALLOW_PHI, rho_minus=1.5,
                       rho_plus=1.5, grid={"n": 32},
                       eps_schedule={"start": 0.1, "ratio": 0.5, "stages": 4},
                       tolerances={"kkt_tol": 1e-16})
    assert run_cli("compare", "--config", cfg).returncode == 3


def test_verify_pass_and_fail_statuses(tmp_path):
    # residual at this resolution is small but nonzero: a generous tolerance
    # reports PASS, a tolerance far below it (tolerances must be > 0) reports
    # FAIL, both with exit code 0
    for tol, expected in ((0.5, "PASS"), (1e-300, "FAIL")):
        cfg = write_config(tmp_path / f"cfg_{expected}.json",
                           eps_schedule={"start": 0.1, "ratio": 0.5, "stages": 4},
                           outputs=str(tmp_path / expected),
                           tolerances={"el_residual_tol": tol})
        proc = run_cli("verify", "--config", cfg)
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((tmp_path / expected / "verify_summary.json").read_text())
        assert summary["status"] == expected
        assert len(_rows(tmp_path / expected / "el_residuals.csv")) == 10


SHORT_SWEEP = {"start": 0.1, "ratio": 0.5, "stages": 4}


@pytest.mark.parametrize(
    "command, overrides, code, split",
    [
        ("compare", {"grid": {"n": 32}}, 0, False),
        ("verify", {}, 0, False),
        ("compare", {"phi": SHALLOW_PHI, "rho_minus": 1.5, "rho_plus": 1.5, "grid": {"n": 32},
                     "tolerances": {"kkt_tol": 1e-16}}, 3, False),
        ("verify", {"phi": SHALLOW_PHI, "rho_minus": 1.5, "rho_plus": 1.5,
                    "tolerances": {"newton_tol_scale": 1e-30}}, 2, False),
        ("sweep", {}, 0, True),
        ("compare", {"grid": {"n": 32}}, 0, True),
        ("verify", {}, 0, True),
    ],
    ids=["compare", "verify", "compare-oracle-failure", "verify-solver-failure",
         "sweep-split", "compare-split", "verify-split"],
)
def test_manifest_hashes_every_artifact(tmp_path, monkeypatch, command, overrides, code, split):
    # with the split writer forced, the forked child's stage files are hashed
    # by the child, which sends their digests back
    if split:
        _split_writes(monkeypatch, True)
    cfg = write_config(tmp_path / "cfg.json", eps_schedule=SHORT_SWEEP, **overrides)
    assert invoke_cli(command, "--config", cfg) == code
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    artifacts = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert set(manifest["files"]) == artifacts
    for name, digest in manifest["files"].items():
        assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    if command == "compare":
        assert manifest["wall_clock_seconds"]["oracle"] > 0.0


def test_verify_rejects_window_narrower_than_bumps(tmp_path):
    # at n = 32 the window [-0.5, 0.5] is 16 cells; the bumps need 20
    cfg = write_config(tmp_path / "cfg.json", grid={"n": 32}, eps_schedule=SHORT_SWEEP)
    proc = run_cli("verify", "--config", cfg)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "support [" in proc.stderr and "window [-0.5, 0.5]" in proc.stderr
    assert not (tmp_path / "out" / "solution_stage00.csv").exists()


def test_log_level_env(tmp_path, monkeypatch):
    cfg = write_config(tmp_path / "cfg.json", eps_schedule=[0.01])
    env_quiet = {"ABREU1D_LOG": "quiet"}
    env = dict(os.environ, **env_quiet)
    proc = subprocess.run(
        [sys.executable, "-m", "abreu1d.cli", "solve", "--config", str(cfg)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0


def test_manifest_and_debug_log_record_every_newton_iteration(tmp_path):
    # the newton-sweep benchmark problem: eta0 = 1 + x/2 at n = 128, 11 stages
    cfg = write_config(tmp_path / "cfg.json", grid={"n": 128}, lagrangian={"eta0": [1.0, 0.5]},
                       eps_schedule={"start": 0.1, "ratio": 0.5, "stages": 11})
    proc = subprocess.run([sys.executable, "-m", "abreu1d.cli", "sweep", "--config", str(cfg)],
                          capture_output=True, text=True,
                          env=dict(os.environ, ABREU1D_LOG="debug"))
    assert proc.returncode == 0, proc.stderr
    stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
    assert len(stages) == 11
    for stage in stages:
        iters, norms = stage["newton_iters"], stage["residual_norms"]
        assert len(norms) == iters + 1 and norms[-1] == stage["final_residual"]
        assert all(later < earlier for earlier, later in zip(norms, norms[1:]))
        assert [len(stage[key]) for key in ("step_norms", "step_lengths", "halvings")] == [iters] * 3
        assert stage["step_lengths"] == [0.5 ** k for k in stage["halvings"]]
        assert all(norm > 0.0 for norm in stage["step_norms"])
        assert len(stage["min_upps"]) == iters + 1 and min(stage["min_upps"]) > 0.0
    # each stage starts from the last one's u, and ends at its stage file's u_pp
    for k, stage in enumerate(stages):
        rows = _rows(tmp_path / "out" / f"solution_stage{k:02d}.csv")
        assert min(float(row["u_pp"]) for row in rows) == stage["min_upps"][-1]
        if k:
            assert stage["min_upps"][0] == stages[k - 1]["min_upps"][-1]
    lines = re.findall(r"^DEBUG abreu1d\.solver: newton eps=.* iter \d+: .*$", proc.stderr, re.M)
    assert len(lines) == sum(stage["newton_iters"] for stage in stages) > 0
    logged = [float(v) for v in re.findall(r"min u'' (\S+)$", "\n".join(lines), re.M)]
    assert logged == [float(f"{v:.3e}") for stage in stages for v in stage["min_upps"][1:]]


def test_manifest_records_beta_h_at_each_end(tmp_path):
    # phi = (x^2 - 1)(1 + x/5): phi'' = 2 + 6x/5 is 0.8 at -1 and 3.2 at +1
    eps = [0.1, 0.05, 0.025]
    cfg = write_config(tmp_path / "cfg.json", phi=[-1.0, -0.2, 1.0, 0.2],
                       rho_minus=1.0, rho_plus=1.0, eps_schedule=eps)
    assert invoke_cli("sweep", "--config", cfg) == 0
    stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
    h = 2.0 / 64
    assert [stage["beta_h"] for stage in stages] == [
        [pytest.approx(h * np.sqrt(0.8 / (2 * e)), rel=1e-14),
         pytest.approx(h * np.sqrt(3.2 / (2 * e)), rel=1e-14)] for e in eps]


def _split_writes(monkeypatch, split):
    """Force the stage writes onto the two-process path (split) or the serial one."""
    monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", 0 if split else 10**12)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return forks


def _artifacts(out):
    """(manifest without its wall times and output directory, every other file's bytes)."""
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["wall_clock_seconds"] = sorted(manifest["wall_clock_seconds"])
    del manifest["config"]["outputs"]
    files = {p.name: p.read_bytes() for p in out.iterdir() if p.name != "manifest.json"}
    return manifest, files


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_split_and_serial_stage_writes_are_byte_identical(tmp_path, monkeypatch, command):
    outputs = {}
    forks = _count_forks(monkeypatch)
    for split in (False, True):  # serial first: no fork, then one
        _split_writes(monkeypatch, split)
        out = tmp_path / f"split{split}"
        cfg = write_config(tmp_path / "cfg.json", outputs=str(out))
        assert invoke_cli(command, "--config", cfg) == 0
        assert len(forks) == split
        outputs[split] = _artifacts(out)
    assert outputs[True] == outputs[False]
    assert len(outputs[True][0]["files"]) == len(outputs[True][1])


@pytest.mark.parametrize(
    "blocked, error",
    [("solution_stage01.csv", r"Is a directory: '.*solution_stage01\.csv'"),
     ("solution_stage00.csv", r"Is a directory: '.*solution_stage00\.csv'")],
    ids=["parent-file", "child-file"],
)
def test_failed_split_write_names_the_file_and_reaps_the_child(tmp_path, monkeypatch, caplog,
                                                               blocked, error):
    # a directory where a stage file goes makes its write fail: stage 00 is
    # the forked child's first file, stage 01 this process's
    _split_writes(monkeypatch, True)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    cfg = write_config(tmp_path / "cfg.json")
    with caplog.at_level(logging.ERROR, logger="abreu1d"):
        assert invoke_cli("sweep", "--config", cfg) == cli.EXIT_OUTPUT == 4
    [record] = caplog.records
    assert re.search("^output write failed: .*" + error, record.getMessage())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not (out / "manifest.json").exists()


def test_failed_child_write_is_nonzero_exit(tmp_path):
    out = tmp_path / "out"
    (out / "solution_stage00.csv").mkdir(parents=True)  # the forked child's first file
    cfg = write_config(tmp_path / "cfg.json")
    forced = ("import os; from abreu1d import cli; cli._SPLIT_MIN_VALUES = 0; "
              "os.sched_getaffinity = lambda pid: {0, 1}; cli.main()")
    proc = subprocess.run([sys.executable, "-c", forced, "sweep", "--config", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert "output write failed: " in proc.stderr and "solution_stage00.csv" in proc.stderr
    assert not (out / "manifest.json").exists()


def test_split_writer_raises_the_childs_error(tmp_path, monkeypatch):
    # only the forked child's write fails, and no file is left behind that
    # would make the manifest fail instead: the error must come from the child
    _split_writes(monkeypatch, True)
    command_pid = os.getpid()
    write_csv = cli.write_csv

    def failing_in_child(path, header, columns):
        if os.getpid() != command_pid:
            raise RuntimeError(f"child write refused: {path.name}")
        return write_csv(path, header, columns)

    monkeypatch.setattr(cli, "write_csv", failing_in_child)
    cfg = write_config(tmp_path / "cfg.json")
    with pytest.raises(RuntimeError, match=r"^child write refused: solution_stage00\.csv$"):
        cli.main.main(args=["sweep", "--config", str(cfg)], standalone_mode=False)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("command, blocked", [("sweep", "solution_stage02.csv"),
                                              ("sweep", "rates.csv"),
                                              ("compare", "compare.csv"),
                                              ("verify", "verify_summary.json.tmp")])
def test_failed_serial_write_is_output_error(tmp_path, monkeypatch, caplog, command, blocked):
    _split_writes(monkeypatch, False)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    cfg = write_config(tmp_path / "cfg.json", eps_schedule=SHORT_SWEEP)
    with caplog.at_level(logging.ERROR, logger="abreu1d"):
        assert invoke_cli(command, "--config", cfg) == 4
    [record] = caplog.records
    assert record.getMessage().startswith("output write failed: ")
    assert blocked in record.getMessage()
    with pytest.raises(ChildProcessError):  # compare's oracle child
        os.waitpid(-1, os.WNOHANG)
    assert not (out / "manifest.json").exists()


def _oracle_cpus(monkeypatch, forked):
    """Give `compare` two CPUs (the oracle is forked) or one (it runs inline)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1} if forked else {0},
                        raising=False)


# the oracle-compare benchmark problem: steep at n = 128, 11 stages
STEEP_128 = {"phi": STEEP_PHI, "rho_minus": 1 / 6, "rho_plus": 1 / 6, "grid": {"n": 128},
             "eps_schedule": {"start": 0.1, "ratio": 0.5, "stages": 11}}


@pytest.mark.parametrize(
    "overrides, code",
    [({"phi": STEEP_PHI, "rho_minus": 1 / 6, "rho_plus": 1 / 6}, 0),
     ({"phi": SHALLOW_PHI, "rho_minus": 1.5, "rho_plus": 1.5, "grid": {"n": 32},
       "tolerances": {"kkt_tol": 1e-16}}, 3),
     (STEEP_128, 0),
     ({**STEEP_128, "tolerances": {"kkt_tol": 1e-16}}, 3)],
    ids=["steep", "shallow-oracle-failure", "steep-128", "steep-128-oracle-failure"],
)
def test_forked_and_inline_oracle_are_byte_identical(tmp_path, monkeypatch, overrides, code):
    # forked, the oracle's child writes stages 00, 02, ...
    outputs = {}
    forks = _count_forks(monkeypatch)
    for forked in (False, True):  # inline first: no fork, then one for the oracle
        _oracle_cpus(monkeypatch, forked)
        if forked:
            _child_takes_every_shared_stage(monkeypatch)
        out = tmp_path / f"forked{forked}"
        cfg = write_config(tmp_path / "cfg.json", outputs=str(out),
                           **{"eps_schedule": SHORT_SWEEP, **overrides})
        assert invoke_cli("compare", "--config", cfg) == code
        assert len(forks) == forked
        outputs[forked] = _artifacts(out)
    assert outputs[True] == outputs[False]
    assert outputs[True][0]["wall_clock_seconds"] == ["oracle", "sweep"]
    assert ("compare.csv" in outputs[True][1]) == (code == 0)


def _record_writers(monkeypatch, log):
    """Make `write_csv` append "<file name> <pid>" to `log` before each write."""
    write_csv = cli.write_csv

    def recording(path, header, columns):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(f"{path.name} {os.getpid()}\n")
        return write_csv(path, header, columns)

    monkeypatch.setattr(cli, "write_csv", recording)


def _writers(log):
    """{True: files this process wrote, False: files another process wrote}."""
    by_pid = {True: set(), False: set()}
    for line in log.read_text(encoding="utf-8").splitlines():
        name, pid = line.split()
        by_pid[int(pid) == os.getpid()].add(name)
    return by_pid


def _wait_until(ready, what):
    deadline = time.monotonic() + 30.0
    while not ready():
        assert time.monotonic() < deadline, f"timed out waiting for {what}"
        time.sleep(0.001)


def _child_takes_every_shared_stage(monkeypatch):
    """Make `compare` take no shared stage, so its oracle's child writes them all."""
    in_child = cli._in_child

    @contextlib.contextmanager
    def taking_none(fn, *args, **kwargs):
        with in_child(fn, *args, **kwargs) as child:
            yield child._replace(take=lambda: None)

    monkeypatch.setattr(cli, "_in_child", taking_none)


def test_oracle_child_writes_the_shared_stages_it_takes(tmp_path, monkeypatch):
    # below the split threshold compare forks once and shares stages 00, 02,
    # 04 with its oracle's child; when this process takes none, the child
    # writes them all
    _oracle_cpus(monkeypatch, True)
    forks = _count_forks(monkeypatch)
    _child_takes_every_shared_stage(monkeypatch)
    _record_writers(monkeypatch, tmp_path / "writers.txt")
    cfg = write_config(tmp_path / "cfg.json")  # 5 stages at n = 64
    assert invoke_cli("compare", "--config", cfg) == 0
    assert len(forks) == 1
    assert _writers(tmp_path / "writers.txt") == {
        False: {f"solution_stage{k:02d}.csv" for k in (0, 2, 4)},
        True: {"solution_stage01.csv", "solution_stage03.csv", "sweep.csv", "rates.csv",
               "compare.csv"}}
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert {f"solution_stage{k:02d}.csv" for k in range(5)} <= set(manifest["files"])


def test_busy_oracle_child_writes_no_stage_file(tmp_path, monkeypatch):
    # the oracle does not finish until this process has taken and written
    # the last shared stage, so its child takes none
    log, go = tmp_path / "writers.txt", tmp_path / "go"
    minimize_direct = cli.minimize_direct

    def late(problem):
        _wait_until(go.exists, "the command's last stage file")
        return minimize_direct(problem)

    _oracle_cpus(monkeypatch, True)
    forks = _count_forks(monkeypatch)
    _record_writers(monkeypatch, log)
    write_csv = cli.write_csv

    def last_opens_the_gate(path, header, columns):
        digest = write_csv(path, header, columns)
        if path.name == "solution_stage04.csv":
            go.touch()
        return digest

    monkeypatch.setattr(cli, "write_csv", last_opens_the_gate)
    monkeypatch.setattr(cli, "minimize_direct", late)
    cfg = write_config(tmp_path / "cfg.json")  # 5 stages at n = 64
    assert invoke_cli("compare", "--config", cfg) == 0
    assert len(forks) == 1
    assert _writers(log) == {False: set(), True: {
        *(f"solution_stage{k:02d}.csv" for k in range(5)), "sweep.csv", "rates.csv",
        "compare.csv"}}


def test_failed_oracle_child_write_is_output_error(tmp_path, monkeypatch, caplog):
    _oracle_cpus(monkeypatch, True)
    forks = _count_forks(monkeypatch)
    _child_takes_every_shared_stage(monkeypatch)
    out = tmp_path / "out"
    (out / "solution_stage00.csv").mkdir(parents=True)  # the oracle child's first file
    cfg = write_config(tmp_path / "cfg.json", eps_schedule=SHORT_SWEEP)
    with caplog.at_level(logging.ERROR, logger="abreu1d"):
        assert invoke_cli("compare", "--config", cfg) == cli.EXIT_OUTPUT
    assert len(forks) == 1
    [record] = caplog.records
    assert re.search(r"^output write failed: .*Is a directory: '.*solution_stage00\.csv'",
                     record.getMessage())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("stages", [2, 3, 5, 11])
def test_shared_stages_fit_the_pipe_buffer(tmp_path, stages):
    # at the largest grid below the split threshold, with a 200-character
    # output directory and 20 Newton iterations a stage, the pickle that
    # `compare` shares takes less than a 64 KiB pipe buffer, so `share`
    # returns without waiting for the oracle
    nodes = (cli._SPLIT_MIN_VALUES - 1) // (len(cli.STAGE_HEADER) * stages)
    rng = np.random.default_rng(stages)

    def record(k):
        return rng.random(k).tolist()

    jobs = [(tmp_path / ("d" * 200) / f"solution_stage{k:02d}.csv", 0.1 * 0.5 ** k,
             SolveResult(u=rng.random(nodes), w=rng.random(nodes), newton_iters=20,
                         residual_norms=record(21), min_upps=record(21), step_norms=record(20),
                         step_lengths=record(20), halvings=[0] * 20, converged=True))
            for k in range(0, stages, 2)]
    assert len(pickle.dumps(jobs)) < 65536


@pytest.mark.parametrize("forked", [False, True], ids=["inline", "forked"])
def test_each_shared_item_is_taken_once(monkeypatch, forked):
    # both processes take indices as fast as they can; inline, the child
    # runs at `wait`, after this process has taken them all
    _oracle_cpus(monkeypatch, forked)

    def taking(shared):
        items, taken = shared()
        return [items[k] for k in taken]

    items = [f"item{k}" for k in range(2000)]
    with cli._in_child(taking, shares=True) as child:
        child.share(items)
        mine = []
        while (k := child.take()) is not None:
            mine.append(items[k])
        theirs = child.wait()
    assert sorted(mine + theirs) == sorted(items)
    if not forked:
        assert theirs == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("forked", [False, True], ids=["inline", "forked"])
def test_wait_before_share_raises_eoferror(monkeypatch, forked):
    # `wait` closes the list's pipe, so a child that waits for the list ends;
    # the alarm turns a `wait` that hangs instead into a failure
    def hung(signum, frame):
        raise TimeoutError("wait() hung on a child that waits for its list")

    _oracle_cpus(monkeypatch, forked)
    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(30)
    try:
        with cli._in_child(lambda shared: shared(), shares=True) as child:
            with pytest.raises(EOFError, match="awaited before its list was shared"):
                child.wait()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("forked", [False, True], ids=["inline", "forked"])
def test_oracle_exception_is_raised_by_compare(tmp_path, monkeypatch, forked):
    def singular(problem):
        raise RuntimeError("inner Newton failure: singular barrier Hessian")

    _oracle_cpus(monkeypatch, forked)
    forks = _count_forks(monkeypatch)
    monkeypatch.setattr(cli, "minimize_direct", singular)
    cfg = write_config(tmp_path / "cfg.json", grid={"n": 32}, eps_schedule=SHORT_SWEEP)
    with pytest.raises(RuntimeError) as exc:
        cli.main.main(args=["compare", "--config", str(cfg)], standalone_mode=False)
    assert type(exc.value) is RuntimeError
    assert str(exc.value) == "inner Newton failure: singular barrier Hessian"
    assert len(forks) == forked
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("forked", [False, True], ids=["inline", "forked"])
def test_failed_sweep_kills_and_reaps_the_oracle(tmp_path, monkeypatch, forked):
    # an oracle that would outlast the test unless it is killed
    def endless(problem):
        time.sleep(120)

    _oracle_cpus(monkeypatch, forked)
    monkeypatch.setattr(cli, "minimize_direct", endless)
    cfg = write_config(tmp_path / "cfg.json", phi=SHALLOW_PHI, rho_minus=1.5, rho_plus=1.5,
                       eps_schedule=SHORT_SWEEP, tolerances={"newton_tol_scale": 1e-30})
    t0 = time.perf_counter()
    assert invoke_cli("compare", "--config", cfg) == 2
    assert time.perf_counter() - t0 < 60
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "oracle" not in manifest["wall_clock_seconds"]


def test_oracle_child_that_dies_is_not_an_output_error(tmp_path, monkeypatch):
    command = os.getpid()

    def killed(problem):
        assert os.getpid() != command, "the oracle ran in the command's process"
        os.kill(os.getpid(), signal.SIGKILL)

    _oracle_cpus(monkeypatch, True)
    monkeypatch.setattr(cli, "minimize_direct", killed)
    cfg = write_config(tmp_path / "cfg.json", grid={"n": 32}, eps_schedule=SHORT_SWEEP)
    with pytest.raises(RuntimeError, match=r"ended without a result \(exit status -9\)"):
        cli.main.main(args=["compare", "--config", str(cfg)], standalone_mode=False)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_small_sweeps_never_fork(tmp_path, monkeypatch):
    # 11 stages at n = 128 are 8514 values and stay serial; at n = 8192 they split
    values = len(cli.STAGE_HEADER) * 11
    assert values * 129 < cli._SPLIT_MIN_VALUES <= values * 8193

    def no_fork():
        raise AssertionError("os.fork called below the split threshold")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    cfg = write_config(tmp_path / "cfg.json", grid={"n": 128},
                       eps_schedule={"start": 0.1, "ratio": 0.5, "stages": 11})
    assert invoke_cli("verify", "--config", cfg) == 0
    assert len(json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]) == 11


@pytest.mark.parametrize("command", ["sweep", "verify"])
def test_one_stage_runs_never_fork(tmp_path, monkeypatch, command):
    # one stage file has nothing to split, however many values it holds
    def no_fork():
        raise AssertionError("os.fork called for a one-stage run")

    monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    cfg = write_config(tmp_path / "cfg.json", eps_schedule={"start": 0.1, "ratio": 0.5, "stages": 1})
    assert invoke_cli(command, "--config", cfg) == 0
    out = tmp_path / "out"
    assert [p.name for p in out.glob("solution_stage*.csv")] == ["solution_stage00.csv"]


# Runs the command line given in argv[1:] in a fresh interpreter, with two
# CPUs and os.fork wrapped; at exit it writes a JSON line to stderr: how many
# times `solver.load_dgbsv` loaded LAPACK, which of the modules that scipy's
# package set-up brings in were imported, and for each fork how many times
# LAPACK had been loaded when it happened.
COLD_CLI = """\
import atexit, json, os, sys
SETUP_MODULES = ("scipy", "scipy.linalg", "scipy._lib", "numpy.polynomial")
def dgbsv_loads():
    solver = sys.modules.get("abreu1d.solver")
    return solver.load_dgbsv.cache_info().misses if solver else 0
forks, fork = [], os.fork
def recording_fork():
    forks.append(dgbsv_loads())
    return fork()
os.fork = recording_fork
os.sched_getaffinity = lambda pid: {0, 1}
atexit.register(lambda: print("cold:", json.dumps({
    "dgbsv_loads": dgbsv_loads(),
    "loaded": [name for name in SETUP_MODULES if name in sys.modules],
    "forks": forks}), file=sys.stderr))
from abreu1d import cli
cli.main()
"""


def _cold(*args):
    """(exit code, the COLD_CLI record) of a fresh-interpreter command line."""
    proc = subprocess.run([sys.executable, "-c", COLD_CLI, *map(str, args)],
                          capture_output=True, text=True)
    [record] = re.findall(r"^cold: (.*)$", proc.stderr, re.M)
    return proc.returncode, json.loads(record)


def test_cold_import_and_config_load_leave_scipy_unloaded(tmp_path):
    cfg = write_config(tmp_path / "cfg.json")
    snippet = ("import sys; from abreu1d import cli; cli.load_config(sys.argv[1]); "
               "print('scipy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", snippet, str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize(
    "command, overrides, code",
    [("--help", None, 0),
     ("verify", {"grid": {"nn": 8}}, 1),
     ("verify", {}, 0)],
    ids=["help", "config-error", "verify-exact-solution"],
)
def test_cold_command_without_newton_steps_leaves_scipy_unloaded(tmp_path, command,
                                                                 overrides, code):
    args = [command]
    if overrides is not None:
        args += ["--config", write_config(tmp_path / "cfg.json", **overrides)]
    assert _cold(*args) == (code, {"dgbsv_loads": 0, "loaded": [], "forks": []})
    if command == "verify" and code == 0:
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert [s["newton_iters"] for s in manifest["stages"]] == [0] * 5


def test_cold_newton_sweep_loads_dgbsv_without_scipys_package_set_up(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", phi=STEEP_PHI, rho_minus=1 / 6, rho_plus=1 / 6,
                       eps_schedule=SHORT_SWEEP)
    assert _cold("sweep", "--config", cfg) == (0, {"dgbsv_loads": 1, "loaded": [], "forks": []})
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["stages"][0]["newton_iters"] > 0


def test_cold_compare_loads_lapack_once_before_the_fork(tmp_path, monkeypatch):
    steep = {"phi": STEEP_PHI, "rho_minus": 1 / 6, "rho_plus": 1 / 6,
             "eps_schedule": SHORT_SWEEP}
    cold = write_config(tmp_path / "cold.json", outputs=str(tmp_path / "cold"), **steep)
    assert _cold("compare", "--config", cold) == (0, {"dgbsv_loads": 1, "loaded": [],
                                                      "forks": [1]})
    _oracle_cpus(monkeypatch, False)
    inline = write_config(tmp_path / "inline.json", outputs=str(tmp_path / "inline"), **steep)
    assert invoke_cli("compare", "--config", inline) == 0
    manifest, files = _artifacts(tmp_path / "cold")
    assert {"compare.csv", "compare_summary.json"} <= set(files)
    assert (manifest, files) == _artifacts(tmp_path / "inline")


def _fresh_cli(prelude, *args):
    """Run `prelude`, then the command line `args`, in a fresh interpreter."""
    script = prelude + "from abreu1d import cli\ncli.main()\n"
    return subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True)


def test_cold_sweep_without_newton_steps_leaves_numpy_polynomial_unloaded(tmp_path):
    # phi = x^2 - 1 solves every stage, so no Newton step runs; the
    # Newton-taking sweep and compare above check the same modules
    cfg = write_config(tmp_path / "cfg.json")
    proc = _fresh_cli("import atexit, sys\n"
                      "atexit.register(lambda: print('loaded:', 'numpy.polynomial' in sys.modules, "
                      "'scipy' in sys.modules, file=sys.stderr))\n",
                      "sweep", "--config", cfg)
    assert proc.returncode == 0, proc.stderr
    assert re.findall(r"^loaded: .*$", proc.stderr, re.M) == ["loaded: False False"]


def test_grid_beyond_memory_is_one_config_error(tmp_path):
    # the child caps its own address space at 1 GiB, with one BLAS thread so
    # that numpy's import fits on any core count; 10**12 cells need 8 TB
    cfg = write_config(tmp_path / "cfg.json", grid={"n": 10**12})
    proc = _fresh_cli("import os, resource\n"
                      "os.environ['OPENBLAS_NUM_THREADS'] = '1'\n"
                      "_, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
                      "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, hard))\n",
                      "sweep", "--config", cfg)
    assert proc.returncode == 1
    assert proc.stderr.splitlines() == [
        "ERROR abreu1d: n=1000000000000 does not fit in memory: "
        "its n + 1 nodes need 8000000000008 bytes"]
    assert not (tmp_path / "out" / "manifest.json").exists()
