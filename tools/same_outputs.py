#!/usr/bin/env python3
"""Check that two source trees write the same outputs, command by command.

    python3 tools/same_outputs.py BEFORE_TREE AFTER_TREE

Each tree is a checkout of this repository; its `src/` is put on
PYTHONPATH.  On each config in this repository's `perfbench/workloads/`,
which it only reads, the script runs `solve` (on a copy whose eps schedule
is the single eps 0.05), `sweep`, `compare`, `verify` and `sweep` again on a
copy whose schedule has three stages, one too few for the rate fits and
the bound checks, from both trees, in fresh interpreters and in temporary
output directories.  It runs each command of the after tree twice: as
the before tree's is run, and pinned to one CPU (`os.sched_setaffinity` in
the child process), where a command writes every stage file itself, so
that a large sweep's two-process and one-process stage writers are both
compared with the before tree.  It reports a
differing exit code, a file that only one tree wrote, every CSV or JSON
file whose bytes differ, and every difference between the manifests other
than `wall_clock_seconds` (the wall times) and `config.outputs` (the output
directory).  Exit status 0 means no difference was found, 1 that one was.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads"
# (label, command, eps schedule of the config copy it runs on, or None for
# the workload's own)
RUNS = (
    ("solve", "solve", [0.05]),
    ("sweep", "sweep", None),
    ("compare", "compare", None),
    ("verify", "verify", None),
    ("sweep-3-stages", "sweep", [0.1, 0.05, 0.025]),
)


# (side, tree, pinned to one CPU): the after tree runs as the before tree
# does, and again on one CPU
SIDES = (("before", "before", False), ("after", "after", False),
         ("after-one-cpu", "after", True))


def _one_cpu():
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run(tree: Path, command: str, config: Path, out: Path, one_cpu: bool = False) -> int:
    """Run `command` of `tree`'s CLI in a fresh interpreter, on one CPU if `one_cpu`."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), ABREU1D_LOG="quiet")
    argv = [sys.executable, "-m", "abreu1d.cli", command, "--config", str(config), "--out", str(out)]
    return subprocess.run(argv, env=env, stdin=subprocess.DEVNULL,
                          preexec_fn=_one_cpu if one_cpu else None).returncode


def manifest_without_timing(path: Path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    doc.pop("wall_clock_seconds", None)
    doc.get("config", {}).pop("outputs", None)
    return doc


def differences(before: Path, after: Path) -> list[str]:
    """What differs between two output directories."""
    names = sorted({p.name for p in before.iterdir()} | {p.name for p in after.iterdir()})
    found = []
    for name in names:
        b, a = before / name, after / name
        if not (b.exists() and a.exists()):
            found.append(f"{name}: written by the {'before' if b.exists() else 'after'} tree only")
        elif name == "manifest.json":
            mb, ma = manifest_without_timing(b), manifest_without_timing(a)
            for key in sorted(set(mb) | set(ma)):
                if mb.get(key) != ma.get(key):
                    found.append(f"manifest.json: {key!r} differs")
        elif b.read_bytes() != a.read_bytes():
            found.append(f"{name}: bytes differ")
    return found


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("before", type=Path, help="the reference source tree")
    parser.add_argument("after", type=Path, help="the source tree to check")
    args = parser.parse_args()
    trees = {"before": args.before.resolve(), "after": args.after.resolve()}
    for tree in trees.values():
        if not (tree / "src" / "abreu1d" / "cli.py").is_file():
            parser.error(f"no abreu1d sources under {tree}")

    failed = False
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        work = Path(tmp)
        for workload in sorted(WORKLOADS.glob("*.json")):
            doc = json.loads(workload.read_text(encoding="utf-8"))
            for label, command, schedule in RUNS:
                config = work / f"{workload.stem}-{label}.json"
                copy = doc if schedule is None else {**doc, "eps_schedule": schedule}
                config.write_text(json.dumps(copy), encoding="utf-8")
                outs, codes = {}, {}
                for side, tree, one_cpu in SIDES:
                    outs[side] = work / f"{workload.stem}-{label}-{side}"
                    codes[side] = run(trees[tree], command, config, outs[side], one_cpu)
                for side in ("after", "after-one-cpu"):
                    name = f"{workload.stem} {label}{' on one CPU' if side != 'after' else ''}"
                    found = differences(outs["before"], outs[side])
                    if codes["before"] != codes[side]:
                        found.insert(0, f"exit code {codes['before']} -> {codes[side]}")
                    if found:
                        failed = True
                        print(f"DIFFERENT {name}:")
                        for line in found:
                            print(f"    {line}")
                    else:
                        files = len(list(outs[side].iterdir()))
                        print(f"same      {name}: exit {codes[side]}, {files} files")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
