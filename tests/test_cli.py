import csv
import dataclasses
import hashlib
import json
import logging
import os
import re
import signal
import subprocess
import sys
import time

import numpy as np
import pytest
from helpers import SHALLOW_PHI, STEEP_PHI, quartic_spec, run_cli, write_config

from abreu1d import cli
from abreu1d.lagrangian import CUSTOM_REGISTRY


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
    cli.write_csv(tmp_path / "new.csv", header, columns)
    _per_value_csv(tmp_path / "old.csv", header, zip(*columns))
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


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
        cli.write_csv(tmp_path / f"{name}.csv", RATES_HEADER, columns)
        _per_value_csv(tmp_path / f"{name}_ref.csv", RATES_HEADER,
                       rate_rows if name == "rates" else [])
        assert ((tmp_path / f"{name}.csv").read_bytes()
                == (tmp_path / f"{name}_ref.csv").read_bytes()), name


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


def _invoke(*args):
    """Run the command line in this process; returns its exit code."""
    with pytest.raises(SystemExit) as exc:
        cli.main.main(args=[str(a) for a in args], standalone_mode=False)
    return exc.value.code


# A custom Lagrangian reads no `eta0`, so the base document's is dropped.
QUARTIC = {"preset": "custom:quartic", "eta0": None}


def test_custom_lagrangian_sweep_converges(tmp_path, monkeypatch):
    monkeypatch.setitem(CUSTOM_REGISTRY, "quartic", quartic_spec)
    cfg = write_config(tmp_path / "cfg.json", lagrangian=QUARTIC)
    assert _invoke("sweep", "--config", cfg) == 0
    stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
    assert len(stages) == 5
    assert all(stage["converged"] for stage in stages)


def test_custom_lagrangian_with_wrong_partial_is_config_error(tmp_path, monkeypatch, caplog):
    monkeypatch.setitem(CUSTOM_REGISTRY, "quartic", lambda: dataclasses.replace(
        quartic_spec(), f1_ppp=lambda x, p: 0.0 * p))
    cfg = write_config(tmp_path / "cfg.json", lagrangian=QUARTIC)
    with caplog.at_level(logging.ERROR, logger="abreu1d"):
        assert _invoke("sweep", "--config", cfg) == 1
    assert "custom lagrangian 'quartic': f1_ppp disagrees" in caplog.text
    assert not (tmp_path / "out" / "manifest.json").exists()


def test_unregistered_custom_lagrangian_is_config_error(tmp_path, caplog):
    cfg = write_config(tmp_path / "cfg.json",
                       lagrangian={"preset": "custom:no-such-id", "eta0": None})
    with caplog.at_level(logging.ERROR, logger="abreu1d"):
        assert _invoke("sweep", "--config", cfg) == 1
    assert "unregistered custom lagrangian: 'no-such-id'" in caplog.text


def test_output_path_under_a_file_is_config_error(tmp_path, caplog):
    # creating <file>/sub raises NotADirectoryError: one logged error, no traceback
    blocker = tmp_path / "blocker.json"
    blocker.write_text("{}", encoding="utf-8")
    cfg = write_config(tmp_path / "cfg.json")
    with caplog.at_level(logging.ERROR, logger="abreu1d"):
        assert _invoke("sweep", "--config", cfg, "--out", blocker / "sub") == 1
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
    "command, overrides, code",
    [
        ("compare", {"grid": {"n": 32}}, 0),
        ("verify", {}, 0),
        ("compare", {"phi": SHALLOW_PHI, "rho_minus": 1.5, "rho_plus": 1.5, "grid": {"n": 32},
                     "tolerances": {"kkt_tol": 1e-16}}, 3),
        ("verify", {"phi": SHALLOW_PHI, "rho_minus": 1.5, "rho_plus": 1.5,
                    "tolerances": {"newton_tol_scale": 1e-30}}, 2),
    ],
    ids=["compare", "verify", "compare-oracle-failure", "verify-solver-failure"],
)
def test_manifest_hashes_every_artifact(tmp_path, command, overrides, code):
    cfg = write_config(tmp_path / "cfg.json", eps_schedule=SHORT_SWEEP, **overrides)
    assert _invoke(command, "--config", cfg) == code
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
        assert _invoke(command, "--config", cfg) == 0
        assert len(forks) == split
        outputs[split] = _artifacts(out)
    assert outputs[True] == outputs[False]
    assert len(outputs[True][0]["files"]) == len(outputs[True][1])


@pytest.mark.parametrize(
    "blocked, error",
    [("solution_stage00.csv", r"Is a directory: '.*solution_stage00\.csv'"),
     ("solution_stage01.csv", r"Is a directory: '.*solution_stage01\.csv'")],
    ids=["parent-file", "child-file"],
)
def test_failed_split_write_names_the_file_and_reaps_the_child(tmp_path, monkeypatch, caplog,
                                                               blocked, error):
    # a directory where a stage file goes makes its write fail: stage 01 is
    # the forked child's, stage 00 this process's
    _split_writes(monkeypatch, True)
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    cfg = write_config(tmp_path / "cfg.json")
    with caplog.at_level(logging.ERROR, logger="abreu1d"):
        assert _invoke("sweep", "--config", cfg) == cli.EXIT_OUTPUT == 4
    [record] = caplog.records
    assert re.search("^output write failed: .*" + error, record.getMessage())
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not (out / "manifest.json").exists()


def test_failed_child_write_is_nonzero_exit(tmp_path):
    out = tmp_path / "out"
    (out / "solution_stage01.csv").mkdir(parents=True)
    cfg = write_config(tmp_path / "cfg.json")
    forced = ("import os; from abreu1d import cli; cli._SPLIT_MIN_VALUES = 0; "
              "os.sched_getaffinity = lambda pid: {0, 1}; cli.main()")
    proc = subprocess.run([sys.executable, "-c", forced, "sweep", "--config", str(cfg)],
                          capture_output=True, text=True)
    assert proc.returncode == 4
    assert "Traceback" not in proc.stderr
    assert "output write failed: " in proc.stderr and "solution_stage01.csv" in proc.stderr
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
        write_csv(path, header, columns)

    monkeypatch.setattr(cli, "write_csv", failing_in_child)
    cfg = write_config(tmp_path / "cfg.json")
    with pytest.raises(RuntimeError, match=r"^child write refused: solution_stage01\.csv$"):
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
        assert _invoke(command, "--config", cfg) == 4
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


@pytest.mark.parametrize(
    "overrides, code",
    [({"phi": STEEP_PHI, "rho_minus": 1 / 6, "rho_plus": 1 / 6}, 0),
     ({"phi": SHALLOW_PHI, "rho_minus": 1.5, "rho_plus": 1.5, "grid": {"n": 32},
       "tolerances": {"kkt_tol": 1e-16}}, 3)],
    ids=["steep", "shallow-oracle-failure"],
)
def test_forked_and_inline_oracle_are_byte_identical(tmp_path, monkeypatch, overrides, code):
    outputs = {}
    forks = _count_forks(monkeypatch)
    for forked in (False, True):  # inline first: no fork, then one for the oracle
        _oracle_cpus(monkeypatch, forked)
        out = tmp_path / f"forked{forked}"
        cfg = write_config(tmp_path / "cfg.json", eps_schedule=SHORT_SWEEP, outputs=str(out),
                           **overrides)
        assert _invoke("compare", "--config", cfg) == code
        assert len(forks) == forked
        outputs[forked] = _artifacts(out)
    assert outputs[True] == outputs[False]
    assert outputs[True][0]["wall_clock_seconds"] == ["oracle", "sweep"]
    assert ("compare.csv" in outputs[True][1]) == (code == 0)


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
    assert _invoke("compare", "--config", cfg) == 2
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
    assert _invoke("verify", "--config", cfg) == 0
    assert len(json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]) == 11


# Runs the command line given in argv[1:] in a fresh interpreter, with two
# CPUs and os.fork wrapped; at exit it writes a JSON line to stderr: whether
# scipy was imported, and for each fork whether scipy's LAPACK was already
# imported when it happened.
COLD_CLI = """\
import atexit, json, os, sys
forks, fork = [], os.fork
def recording_fork():
    forks.append("scipy.linalg.lapack" in sys.modules)
    return fork()
os.fork = recording_fork
os.sched_getaffinity = lambda pid: {0, 1}
atexit.register(lambda: print("cold:", json.dumps({"scipy": "scipy" in sys.modules,
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
    assert _cold(*args) == (code, {"scipy": False, "forks": []})
    if command == "verify" and code == 0:
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert [s["newton_iters"] for s in manifest["stages"]] == [0] * 5


def test_cold_sweep_loads_scipy_on_its_first_newton_step(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", phi=STEEP_PHI, rho_minus=1 / 6, rho_plus=1 / 6,
                       eps_schedule=SHORT_SWEEP)
    assert _cold("sweep", "--config", cfg) == (0, {"scipy": True, "forks": []})
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["stages"][0]["newton_iters"] > 0


def test_cold_compare_loads_lapack_once_before_the_fork(tmp_path, monkeypatch):
    steep = {"phi": STEEP_PHI, "rho_minus": 1 / 6, "rho_plus": 1 / 6,
             "eps_schedule": SHORT_SWEEP}
    cold = write_config(tmp_path / "cold.json", outputs=str(tmp_path / "cold"), **steep)
    assert _cold("compare", "--config", cold) == (0, {"scipy": True, "forks": [True]})
    _oracle_cpus(monkeypatch, False)
    inline = write_config(tmp_path / "inline.json", outputs=str(tmp_path / "inline"), **steep)
    assert _invoke("compare", "--config", inline) == 0
    manifest, files = _artifacts(tmp_path / "cold")
    assert {"compare.csv", "compare_summary.json"} <= set(files)
    assert (manifest, files) == _artifacts(tmp_path / "inline")
