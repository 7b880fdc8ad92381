import csv
import dataclasses
import hashlib
import json
import logging
import os
import re
import subprocess
import sys

import numpy as np
import pytest
from helpers import (SHALLOW_PHI, STEEP_PHI, f_eps, invoke_cli, monopolist_setup, quartic_spec,
                     run_cli, write_config)

from abreu1d import cli, lagrangian
from abreu1d.grid import d1, d2
from abreu1d.lagrangian import CUSTOM_REGISTRY, polyval
from abreu1d.solver import continuation_sweep


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


@pytest.mark.parametrize(
    "header, columns, written",
    [(("a", "b"), (np.array([1.0, 2.0]), np.array([1.0, 2.0, 3.0])), None),
     (("a", "b", "c"), (np.array([1.0, 2.0]), ["p", "q"]), None),
     (("a", "b", "c"), [], b"a,b,c\n")],
    ids=["unequal-lengths", "more-names-than-columns", "no-columns"],
)
def test_write_csv_refuses_a_ragged_table(tmp_path, header, columns, written):
    # a longer column is not cut to the first one's length, nor a header
    # written over fewer fields; no columns writes the header alone
    path = tmp_path / "t.csv"
    if written is None:
        with pytest.raises(ValueError, match=re.escape(str(path))):
            cli.write_csv(path, header, columns)
        assert not path.exists()
    else:
        cli.write_csv(path, header, columns)
        assert path.read_bytes() == written


def test_write_json_returns_the_digest_of_its_bytes(tmp_path):
    doc = {"b": [0.1, -0.0, 5e-324], "a": {"status": "PASS", "n": 3}, "nan": float("nan")}
    path = tmp_path / "doc.json"
    digest = cli.write_json(path, doc)
    written = path.read_bytes()
    assert written == (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    assert digest == hashlib.sha256(written).hexdigest()
    assert not (tmp_path / "doc.json.tmp").exists()


@pytest.mark.parametrize("writer", ["csv", "json"])
def test_writers_overwrite_a_longer_file_in_place(tmp_path, writer):
    # the file keeps its inode, and is cut to the bytes written when the writer returns
    path = tmp_path / f"out.{writer}"
    path.write_bytes(b"x" * 100_000)
    inode = path.stat().st_ino
    if writer == "csv":
        digest = cli.write_csv(path, ("a", "b"), ([0.1, 2.5], ["p", "q"]))
        expected = b"a,b\n0.10000000000000001,p\n2.5,q\n"
    else:
        digest = cli.write_json(path, {"a": 1})
        expected = b'{\n  "a": 1\n}\n'
    assert path.read_bytes() == expected
    assert path.stat().st_size == len(expected)
    assert path.stat().st_ino == inode
    assert digest == hashlib.sha256(expected).hexdigest()
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


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
                       zip(g.nodes, u, d1(u, g), upp, 1.0 / upp, f_eps(u, setup)))
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


def test_verify_refuses_a_scalar_returning_callback(tmp_path, monkeypatch, caplog):
    # the solvers slice what a callback returns, so one that returns a scalar
    # is refused when the config loads, not met as a TypeError in the weak form
    monkeypatch.setitem(CUSTOM_REGISTRY, "quartic", lambda: dataclasses.replace(
        quartic_spec(), f0_z=lambda x, z: 1.0, f0_zz=lambda x, z: 0.0,
        f1_px=lambda x, p: -1.0, f1_pxp=lambda x, p: 0.0))
    cfg = write_config(tmp_path / "cfg.json", lagrangian=QUARTIC)
    with caplog.at_level(logging.ERROR, logger="abreu1d"):
        assert invoke_cli("verify", "--config", cfg) == 1
    assert ("custom lagrangian 'quartic': f0_z returns float of shape (), "
            "not an array of its arguments' shape (41, 41)") in caplog.text
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("command", ["sweep", "verify", "compare"])
def test_a_command_binds_the_lagrangian_once(tmp_path, monkeypatch, command):
    # the newton-sweep benchmark's problem, eta0 = 1 + x/2 at n = 128: the
    # setup evaluates the weight once per problem, so the count of polyval
    # calls does not follow the number of stages
    def polyval_calls(stages):
        calls = []
        monkeypatch.setattr(lagrangian, "polyval",
                            lambda c, x: calls.append(x) or polyval(c, x))
        cfg = write_config(tmp_path / "cfg.json", outputs=str(tmp_path / f"out{stages}"),
                           grid={"n": 128}, lagrangian={"eta0": [1.0, 0.5]},
                           eps_schedule={"start": 0.1, "ratio": 0.5, "stages": stages})
        assert invoke_cli(command, "--config", cfg) == 0
        monkeypatch.undo()
        return len(calls)

    short, long = polyval_calls(4), polyval_calls(11)
    assert short == long <= 5


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


# Newton stalls in the first stage: the steep obstacle's solution at
# eps = 0.1 has min u'' = 2.09, below a convexity floor of 5 * eps * c0 = 3.
# A residual tolerance alone cannot fail a solve, since Newton also stops on
# a roundoff-sized correction.
UNATTAINABLE = {"phi": STEEP_PHI, "rho_minus": 1.0 / 6.0, "rho_plus": 1.0 / 6.0,
                "tolerances": {"convexity_floor_scale": 5.0}}


def test_unattainable_tolerance_is_solver_failure(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", eps_schedule=[0.1], **UNATTAINABLE)
    assert run_cli("solve", "--config", cfg).returncode == 2
    [stage] = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
    assert (stage["converged"], stage["stop"]) == (False, "convexity_floor")


# click's usage errors exit with the configuration-error code, 1, since 2
# means solver nonconvergence; its message still goes to stderr
@pytest.mark.parametrize("args, message", [
    (("sweep",), "Missing option '--config'"),
    (("sweep", "--config", "cfg.json", "--no-such-flag"), "No such option '--no-such-flag'"),
    (("no-such-command",), "No such command 'no-such-command'"),
])
def test_usage_errors_are_config_errors(args, message):
    proc = run_cli(*args)
    assert proc.returncode == 1
    assert message in proc.stderr and "Usage:" in proc.stderr
    assert proc.stdout == ""


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "Usage:" in proc.stdout and proc.stderr == ""


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
    # J_abreu is the last stage's J_val, not evaluated again
    assert summary["J_abreu"] == float(_rows(tmp_path / "out" / "sweep.csv")[-1]["J_val"])


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
        ("verify", UNATTAINABLE, 2, False),
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
    seconds = manifest["wall_clock_seconds"]
    assert sorted(seconds) == (["oracle"] if command == "compare" else []) + ["sweep", "write"]
    assert min(seconds.values()) > 0.0


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
        assert stage["converged"] and stage["stop"] in ("residual", "step")
        iters, norms = stage["newton_iters"], stage["residual_norms"]
        assert len(norms) == iters + 1 and norms[-1] == stage["final_residual"]
        assert all(later < earlier for earlier, later in zip(norms, norms[1:]))
        assert [len(stage[key]) for key in ("step_norms", "step_lengths")] == [iters] * 2
        assert all(0.0 < t <= 1.0 for t in stage["step_lengths"])
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
    stops = re.findall(r"^DEBUG abreu1d\.solver: newton eps=\S+ stopped on (\w+) after (\d+) "
                       r"iterations, curvature roundoff (\S+)$", proc.stderr, re.M)
    assert stops == [(stage["stop"], str(stage["newton_iters"]), f"{stage['curvature_roundoff']:.3e}")
                     for stage in stages]


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


def test_manifest_records_the_curvature_roundoff_of_each_stage(tmp_path):
    # shallow at n = 256 on a ratio-1/4 schedule: r climbs through the
    # roundoff floor, to about 7e-3 at eps = 9.3e-11 and 2 at eps = 3.6e-13
    cfg = write_config(tmp_path / "cfg.json", grid={"n": 256}, phi=SHALLOW_PHI, rho_minus=1.5,
                       rho_plus=1.5, eps_schedule={"start": 0.1, "ratio": 0.25, "stages": 20})
    assert invoke_cli("sweep", "--config", cfg) == 0
    stages = json.loads((tmp_path / "out" / "manifest.json").read_text())["stages"]
    assert len(stages) == 20
    r = []
    for k, stage in enumerate(stages):
        rows = _rows(tmp_path / "out" / f"solution_stage{k:02d}.csv")
        u, upp = (np.array([float(row[col]) for row in rows]) for col in ("u", "u_pp"))
        assert stage["curvature_roundoff"] == 4.0 * 2.0**-52 * np.abs(u).max() / ((2.0 / 256) ** 2 * upp.min())
        r.append(stage["curvature_roundoff"])
    assert all(later > earlier for earlier, later in zip(r, r[1:]))
    assert max(v for v, stage in zip(r, stages) if stage["eps"] >= 1e-10) < 1e-2
    assert r[-2] < 1.0 < r[-1]


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


@pytest.mark.parametrize("without", ["second-cpu", "fork"])
def test_stage_writes_stay_serial_without_a_second_cpu_or_fork(tmp_path, monkeypatch, without):
    # above the threshold, one CPU or no os.fork writes every stage file in
    # this process, with the bytes of the two-CPU split
    def sweep(out):
        cfg = write_config(tmp_path / "cfg.json", outputs=str(out))
        assert invoke_cli("sweep", "--config", cfg) == 0
        return _artifacts(out)

    forks = _count_forks(monkeypatch)
    _split_writes(monkeypatch, True)
    split = sweep(tmp_path / "split")
    assert len(forks) == 1
    if without == "second-cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    else:
        monkeypatch.delattr(os, "fork")
    assert sweep(tmp_path / "serial") == split
    assert len(forks) == 1


def test_writer_child_without_a_result_is_runtime_error(tmp_path, monkeypatch):
    # the forked child exits before it sends its file record
    _split_writes(monkeypatch, True)
    command_pid = os.getpid()
    write_stages = cli._write_stages

    def exiting_in_child(nodes, jobs):
        if os.getpid() != command_pid:
            os._exit(7)
        return write_stages(nodes, jobs)

    monkeypatch.setattr(cli, "_write_stages", exiting_in_child)
    cfg = write_config(tmp_path / "cfg.json")
    with pytest.raises(RuntimeError) as exc:
        cli.main.main(args=["sweep", "--config", str(cfg)], standalone_mode=False)
    assert type(exc.value) is RuntimeError
    assert str(exc.value) == "child process ended without a result (exit status 7)"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("first, second", [(("verify", 256), ("sweep", 64)),
                                           (("sweep", 64), ("verify", 256))],
                         ids=["longer-files-left", "shorter-files-left"])
def test_rerun_over_previous_outputs_matches_a_fresh_run(tmp_path, first, second):
    # the first run leaves each stage file, sweep.csv, rates.csv, bounds.json
    # and the manifest longer, or shorter, than the second run writes them
    fresh, reused = tmp_path / "fresh", tmp_path / "reused"
    for command, n, out in ((*first, reused), (*second, fresh), (*second, reused)):
        cfg = write_config(tmp_path / "cfg.json", grid={"n": n}, outputs=str(out))
        assert invoke_cli(command, "--config", cfg) == 0
    manifest, files = _artifacts(fresh)
    rerun, left = _artifacts(reused)
    assert rerun == manifest
    assert {name: left[name] for name in files} == files
    assert not list(reused.glob("*.tmp"))


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
    write_in_place = cli._write_in_place

    def failing_in_child(path, chunks):
        if os.getpid() != command_pid:
            raise RuntimeError(f"child write refused: {path.name}")
        return write_in_place(path, chunks)

    monkeypatch.setattr(cli, "_write_in_place", failing_in_child)
    cfg = write_config(tmp_path / "cfg.json")
    with pytest.raises(RuntimeError, match=r"^child write refused: solution_stage00\.csv$"):
        cli.main.main(args=["sweep", "--config", str(cfg)], standalone_mode=False)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("command, blocked", [("sweep", "solution_stage02.csv"),
                                              ("sweep", "rates.csv"),
                                              ("compare", "solution_stage00.csv"),
                                              ("compare", "compare.csv"),
                                              ("verify", "verify_summary.json")])
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
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert not (out / "manifest.json").exists()


@pytest.mark.parametrize("forked", [False, True], ids=["inline", "forked"])
def test_oracle_exception_is_raised_by_compare(tmp_path, monkeypatch, forked):
    # the oracle runs in the command's process, after the stage files are
    # written serially or while the stage writer child runs
    def singular(problem):
        raise RuntimeError("inner Newton failure: singular barrier Hessian")

    _split_writes(monkeypatch, forked)
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
    assert not (tmp_path / "out" / "manifest.json").exists()


@pytest.mark.parametrize("split", [False, True], ids=["serial", "split"])
def test_failed_sweep_runs_no_oracle_and_reaps_the_writer(tmp_path, monkeypatch, split):
    # a failed sweep exits 2 without running the oracle, and reaps the
    # stage writer child where the stage files split
    def never(problem):
        raise AssertionError("the oracle ran after a failed sweep")

    _split_writes(monkeypatch, split)
    monkeypatch.setattr(cli, "minimize_direct", never)
    cfg = write_config(tmp_path / "cfg.json", eps_schedule=SHORT_SWEEP, **UNATTAINABLE)
    assert invoke_cli("compare", "--config", cfg) == 2
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert "oracle" not in manifest["wall_clock_seconds"]
    assert "oracle" not in manifest


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
def test_split_and_serial_compare_are_byte_identical(tmp_path, monkeypatch, overrides, code):
    # split, the oracle runs while the stage writer child writes stages 00,
    # 02, ...; serial, the command writes every stage file before the oracle
    outputs = {}
    forks = _count_forks(monkeypatch)
    for split in (False, True):  # serial first: no fork, then one for the writer
        _split_writes(monkeypatch, split)
        out = tmp_path / f"split{split}"
        cfg = write_config(tmp_path / "cfg.json", outputs=str(out),
                           **{"eps_schedule": SHORT_SWEEP, **overrides})
        assert invoke_cli("compare", "--config", cfg) == code
        assert len(forks) == split
        outputs[split] = _artifacts(out)
    assert outputs[True] == outputs[False]
    assert outputs[True][0]["wall_clock_seconds"] == ["oracle", "sweep", "write"]
    assert ("compare.csv" in outputs[True][1]) == (code == 0)
    assert len(outputs[True][0]["files"]) == len(outputs[True][1])


@pytest.mark.parametrize(
    "overrides, code, start, blocks",
    [({"phi": STEEP_PHI, "rho_minus": 1 / 6, "rho_plus": 1 / 6}, 0, "ironing", 0),
     ({"phi": SHALLOW_PHI, "rho_minus": 1.5, "rho_plus": 1.5, "tolerances": {"kkt_tol": 1e-16}},
      3, "obstacle", 2)],
    ids=["steep", "shallow-oracle-failure"],
)
def test_manifest_and_debug_log_record_the_oracle(tmp_path, overrides, code, start, blocks):
    cfg = write_config(tmp_path / "cfg.json", eps_schedule=SHORT_SWEEP, **overrides)
    proc = subprocess.run([sys.executable, "-m", "abreu1d.cli", "compare", "--config", str(cfg)],
                          capture_output=True, text=True,
                          env=dict(os.environ, ABREU1D_LOG="debug"))
    assert proc.returncode == code, proc.stderr
    oracle = json.loads((tmp_path / "out" / "manifest.json").read_text())["oracle"]
    assert oracle["start"] == start
    assert 0 < oracle["barrier_steps"] <= (3 if start == "ironing" else 1000)
    ironing = oracle["ironing"]
    assert ironing["pooled_blocks"] == blocks
    assert max(ironing[k] for k in ("stationarity", "complementarity", "dual_feasibility")) <= 1e-10
    assert re.findall(r"^DEBUG abreu1d: oracle: (\d+) barrier steps from the (\w+)$",
                      proc.stderr, re.M) == [(str(oracle["barrier_steps"]), start)]
    [line] = re.findall(r"^DEBUG abreu1d: ironing: .*$", proc.stderr, re.M)
    assert line == (f"DEBUG abreu1d: ironing: {blocks} pooled blocks, KKT stationarity "
                    f"{ironing['stationarity']:.3e}, complementarity "
                    f"{ironing['complementarity']:.3e}, dual feasibility "
                    f"{ironing['dual_feasibility']:.3e}")


def test_small_sweeps_never_fork(tmp_path, monkeypatch):
    # 11 stages at n = 128 are 8514 values and stay serial; at n = 8192 they
    # split.  compare runs its oracle in its own process
    values = len(cli.STAGE_HEADER) * 11
    assert values * 129 < cli._SPLIT_MIN_VALUES <= values * 8193

    def no_fork():
        raise AssertionError("os.fork called below the split threshold")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", no_fork)
    for command, problem in (("verify", {}), ("compare", {"phi": STEEP_PHI, "rho_minus": 1 / 6,
                                                          "rho_plus": 1 / 6})):
        out = tmp_path / command
        cfg = write_config(tmp_path / "cfg.json", grid={"n": 128}, outputs=str(out),
                           eps_schedule={"start": 0.1, "ratio": 0.5, "stages": 11}, **problem)
        assert invoke_cli(command, "--config", cfg) == 0
        assert len(json.loads((out / "manifest.json").read_text())["stages"]) == 11
    assert (tmp_path / "compare" / "compare.csv").exists()


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
# package set-up brings in were imported, for each fork how many times
# LAPACK had been loaded when it happened, the process's thread count where
# /proc/self/task lists it (else None), and its OPENBLAS_NUM_THREADS.
COLD_CLI = """\
import atexit, json, os, sys
def threads():
    return len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else None
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
    "forks": forks,
    "threads": threads(),
    "openblas": os.environ.get("OPENBLAS_NUM_THREADS")}), file=sys.stderr))
from abreu1d import cli
cli.main()
"""

# A cold command's process ends with its main thread alone: the CLI gives
# OpenBLAS one thread, so it starts no worker.
ONE_THREAD = {"threads": 1 if os.path.isdir("/proc/self/task") else None, "openblas": "1"}


def _cold(*args, openblas=None):
    """(exit code, the COLD_CLI record) of a fresh-interpreter command line.

    The interpreter starts with OPENBLAS_NUM_THREADS set to `openblas`, or unset.
    """
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if openblas is not None:
        env["OPENBLAS_NUM_THREADS"] = openblas
    proc = subprocess.run([sys.executable, "-c", COLD_CLI, *map(str, args)],
                          capture_output=True, text=True, env=env)
    [record] = re.findall(r"^cold: (.*)$", proc.stderr, re.M)
    return proc.returncode, json.loads(record)


def test_cold_cli_keeps_the_users_openblas_thread_count():
    assert _cold("--help", openblas="3")[1]["openblas"] == "3"


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
    assert _cold(*args) == (code, {"dgbsv_loads": 0, "loaded": [], "forks": [], **ONE_THREAD})
    if command == "verify" and code == 0:
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert [s["newton_iters"] for s in manifest["stages"]] == [0] * 5


def test_cold_newton_sweep_loads_dgbsv_without_scipys_package_set_up(tmp_path):
    cfg = write_config(tmp_path / "cfg.json", phi=STEEP_PHI, rho_minus=1 / 6, rho_plus=1 / 6,
                       eps_schedule=SHORT_SWEEP)
    assert _cold("sweep", "--config", cfg) == (0, {"dgbsv_loads": 1, "loaded": [], "forks": [],
                                                   **ONE_THREAD})
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["stages"][0]["newton_iters"] > 0


# Inserted into COLD_CLI after the import of `cli`, which sets OpenBLAS's
# thread count, and before the command line runs: at exit it also writes
# how many times LAPACK had been loaded when `solver.solve_banded`, the
# Newton step's solve, was first called.
FIRST_SOLVE = """\
from abreu1d import solver
first_solve, solve_banded = [], solver.solve_banded
def recording_solve(*args):
    if not first_solve:
        first_solve.append(dgbsv_loads())
    return solve_banded(*args)
solver.solve_banded = recording_solve
atexit.register(lambda: print("first solve:", json.dumps(first_solve), file=sys.stderr))
"""


def test_cold_compare_loads_lapack_once_before_the_fork(tmp_path):
    # a cold compare loads LAPACK on the sweep's first banded solve; below
    # the split threshold it forks nothing, and with the stage writes split
    # it forks its writer child after that load
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    artifacts = []
    for split, forks in ((False, []), (True, [1])):
        out = tmp_path / f"split{split}"
        cfg = write_config(tmp_path / "cfg.json", phi=STEEP_PHI, rho_minus=1 / 6,
                           rho_plus=1 / 6, eps_schedule=SHORT_SWEEP, outputs=str(out))
        script = COLD_CLI.replace("cli.main()\n", FIRST_SOLVE
                                  + f"cli._SPLIT_MIN_VALUES = {0 if split else 10**12}\n"
                                  + "cli.main()\n")
        proc = subprocess.run([sys.executable, "-c", script, "compare", "--config", str(cfg)],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        [record] = re.findall(r"^cold: (.*)$", proc.stderr, re.M)
        assert json.loads(record) == {"dgbsv_loads": 1, "loaded": [], "forks": forks,
                                      **ONE_THREAD}
        assert re.findall(r"^first solve: (.*)$", proc.stderr, re.M) == ["[0]"]
        artifacts.append(_artifacts(out))
    assert {"compare.csv", "compare_summary.json"} <= set(artifacts[0][1])
    assert artifacts[0] == artifacts[1]


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
