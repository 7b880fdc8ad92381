"""End to end: every stage file's columns are those of its own u column.

Each benchmark workload's command (`sweep` at n = 128, `compare` at n = 128,
`verify` at n = 8192) runs on a copy of its config from
`perfbench/workloads/`, and further configs take the stage writer's other
paths: a sweep whose files fill several tables, `solve`'s single file, files
too long for three to share a table, which are streamed, and stage files
shared out through the claim queue between this process and the stage
writer child, as streamed files and as tables.  Each test
parses every file's `u` column, takes u', u'', w = 1/u'' and f_eps of it
afresh, and checks that every value formats to the written text.
"""

import dataclasses
import json
import os
from pathlib import Path

import numpy as np
import pytest
from helpers import f_eps, invoke_cli

from abreu1d import cli, floattext
from abreu1d.config import load_config
from abreu1d.grid import d1, d2

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


def run_workload(tmp_path, workload, command, **overrides):
    """Run `command` on a copy of a workload's config with `overrides`; returns
    (config path, output directory, config document)."""
    doc = json.loads((WORKLOADS / f"{workload}.json").read_text(encoding="utf-8"))
    out = tmp_path / "out"
    doc = {**doc, **overrides, "outputs": str(out)}
    config = tmp_path / f"{workload}.json"
    config.write_text(json.dumps(doc), encoding="utf-8")
    assert invoke_cli(command, "--config", config) == 0
    return config, out, doc


def assert_columns_follow_u(path, setup, eps):
    """Check every value of the stage file at `path` against `FORMAT % v`."""
    g = setup.grid
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(cli.STAGE_HEADER)
    written = list(zip(*(line.split(",") for line in lines[1:])))
    u = np.array([float(text) for text in written[1]])
    upp = d2(u, g)
    columns = (g.nodes, u, d1(u, g), upp, 1.0 / upp, f_eps(u, dataclasses.replace(setup, eps=eps)))
    for name, text, values in zip(cli.STAGE_HEADER, written, columns):
        assert list(text) == [floattext.FORMAT % v for v in values.tolist()], (path.name, name)


def assert_stage_files_follow_u(config, out, count):
    """Check the `count` stage files of a run against its manifest."""
    setup = load_config(config).build_setup()
    stages = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
    assert len(stages) == count
    for k, stage in enumerate(stages):
        assert_columns_follow_u(out / f"solution_stage{k:02d}.csv", setup, stage["eps"])


@pytest.mark.parametrize("workload, command", [
    ("newton-sweep", "sweep"), ("oracle-compare", "compare"), ("large-grid-io", "verify"),
])
def test_stage_columns_are_derived_from_the_u_column(tmp_path, workload, command):
    config, out, doc = run_workload(tmp_path, workload, command)
    assert_stage_files_follow_u(config, out, doc["eps_schedule"]["stages"])


def test_a_sweep_cut_into_several_tables(tmp_path):
    # 40 files of 65 rows are two tables, of 31 files and 9
    schedule = {"start": 0.1, "ratio": 0.8, "stages": 40}
    config, out, _ = run_workload(tmp_path, "newton-sweep", "sweep",
                                  grid={"n": 64, "a": -0.5, "b": 0.5}, eps_schedule=schedule)
    assert cli._TABLE_ROWS < 40 * 65 <= 2 * cli._TABLE_ROWS
    assert_stage_files_follow_u(config, out, 40)


def test_solve_writes_its_single_file_as_a_table(tmp_path):
    config, out, _ = run_workload(tmp_path, "newton-sweep", "solve", eps_schedule=[0.05])
    assert_columns_follow_u(out / "solution.csv", load_config(config).build_setup(), 0.05)


def test_files_too_long_for_three_to_a_table_are_streamed(tmp_path, monkeypatch):
    streamed = []
    write_csv = cli.write_csv

    def streaming(path, *args):
        streamed.append(path.name)
        return write_csv(path, *args)

    monkeypatch.setattr(cli, "write_csv", streaming)
    schedule = {"start": 0.1, "ratio": 0.5, "stages": 2}
    config, out, _ = run_workload(tmp_path, "large-grid-io", "sweep",
                                  grid={"n": 768, "a": -0.5, "b": 0.5}, eps_schedule=schedule)
    assert 769 > cli._TABLE_ROWS // 3
    assert streamed[:2] == ["solution_stage00.csv", "solution_stage01.csv"]
    assert_stage_files_follow_u(config, out, 2)


def _count_forks(monkeypatch):
    forks = []
    fork = os.fork

    def counting_fork():
        forks.append(1)
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    return forks


def test_an_odd_stage_count_split_between_two_writers(tmp_path, monkeypatch):
    # 17 files of 513 rows hold 52 326 values, six table units of up to
    # three files, which the child and this process take from one queue
    forks = _count_forks(monkeypatch)
    schedule = {"start": 0.1, "ratio": 0.5, "stages": 17}
    config, out, _ = run_workload(tmp_path, "large-grid-io", "sweep",
                                  grid={"n": 512, "a": -0.5, "b": 0.5}, eps_schedule=schedule)
    assert len(cli.STAGE_HEADER) * 513 * 17 >= cli._SPLIT_MIN_VALUES
    assert 513 * 3 <= cli._TABLE_ROWS < 513 * 4
    assert forks == [1]
    assert_stage_files_follow_u(config, out, 17)


@pytest.mark.parametrize("stages", [3, 11])
def test_streamed_files_shared_between_two_writers(tmp_path, monkeypatch, stages):
    # files of 769 rows are streamed, one unit each; 11 of them are above
    # the split threshold, and 3 are split with the threshold lowered
    forks = _count_forks(monkeypatch)
    above = len(cli.STAGE_HEADER) * 769 * stages >= cli._SPLIT_MIN_VALUES
    assert above == (stages == 11)
    if not above:
        monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", 0)
    schedule = {"start": 0.1, "ratio": 0.5, "stages": stages}
    config, out, _ = run_workload(tmp_path, "large-grid-io", "sweep",
                                  grid={"n": 768, "a": -0.5, "b": 0.5}, eps_schedule=schedule)
    assert 769 > cli._TABLE_ROWS // 3
    assert forks == [1]
    assert_stage_files_follow_u(config, out, stages)


def test_a_small_sweep_renders_three_kernel_blocks(tmp_path, monkeypatch):
    # 11 stage files of 129 rows are one table of 7224 values, three blocks;
    # sweep.csv's 121 and rates.csv's 8 floats are fewer than
    # KERNEL_MIN_VALUES
    blocks = []
    render_block = floattext._render_block

    def counting_block(v, out):
        blocks.append(len(v))
        return render_block(v, out)

    monkeypatch.setattr(floattext, "_render_block", counting_block)
    monkeypatch.setattr(cli, "_SPLIT_MIN_VALUES", 10**12)
    run_workload(tmp_path, "newton-sweep", "sweep")
    assert blocks == [floattext.BLOCK_VALUES, floattext.BLOCK_VALUES, 7224 - 2 * floattext.BLOCK_VALUES]
