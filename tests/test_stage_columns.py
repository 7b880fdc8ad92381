"""End to end: every stage file's columns are those of its own u column.

Each benchmark workload's command (`sweep` at n = 128, `compare` at n = 128,
`verify` at n = 8192) runs on a copy of its config from
`perfbench/workloads/`.  Its stage files come from Newton's converged
iterates, through this process, `compare`'s oracle child and `verify`'s
writer child.  The test parses each file's `u` column, takes u', u'', w =
1/u'' and f_eps of it afresh, and checks that every value formats to the
written text.
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from helpers import f_eps, invoke_cli

from abreu1d import cli
from abreu1d.config import load_config
from abreu1d.grid import d1, d2

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads"


@pytest.mark.parametrize("workload, command", [
    ("newton-sweep", "sweep"), ("oracle-compare", "compare"), ("large-grid-io", "verify"),
])
def test_stage_columns_are_derived_from_the_u_column(tmp_path, workload, command):
    doc = json.loads((WORKLOADS / f"{workload}.json").read_text(encoding="utf-8"))
    out = tmp_path / "out"
    config = tmp_path / f"{workload}.json"
    config.write_text(json.dumps({**doc, "outputs": str(out)}), encoding="utf-8")
    assert invoke_cli(command, "--config", config) == 0

    setup = load_config(config).build_setup()
    g = setup.grid
    stages = json.loads((out / "manifest.json").read_text(encoding="utf-8"))["stages"]
    assert len(stages) == doc["eps_schedule"]["stages"]
    for k, stage in enumerate(stages):
        lines = (out / f"solution_stage{k:02d}.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(cli.STAGE_HEADER)
        written = list(zip(*(line.split(",") for line in lines[1:])))
        u = np.array([float(text) for text in written[1]])
        upp = d2(u, g)
        columns = (g.nodes, u, d1(u, g), upp, 1.0 / upp,
                   f_eps(u, dataclasses.replace(setup, eps=stage["eps"])))
        for name, text, values in zip(cli.STAGE_HEADER, written, columns):
            assert list(text) == [cli._FLOAT_FORMAT % v for v in values.tolist()], (k, name)
