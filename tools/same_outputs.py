#!/usr/bin/env python3
"""Check that two source trees write the same outputs, command by command.

    python3 tools/same_outputs.py BEFORE_TREE AFTER_TREE

Each tree is a checkout of this repository; its `src/` is put on
PYTHONPATH.  On each config in this repository's `perfbench/workloads/`,
which it only reads, the script runs `solve` (on a copy whose eps schedule
is the single eps 0.05), `sweep`, `compare` and `verify` from both trees, in
fresh interpreters and in temporary output directories.  It reports a
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
COMMANDS = ("solve", "sweep", "compare", "verify")
SOLVE_EPS = 0.05


def run(tree: Path, command: str, config: Path, out: Path) -> int:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), ABREU1D_LOG="quiet")
    argv = [sys.executable, "-m", "abreu1d.cli", command, "--config", str(config), "--out", str(out)]
    return subprocess.run(argv, env=env, stdin=subprocess.DEVNULL).returncode


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
            for command in COMMANDS:
                config = work / f"{workload.stem}-{command}.json"
                config.write_text(json.dumps({**doc, "eps_schedule": [SOLVE_EPS]} if command == "solve"
                                             else doc), encoding="utf-8")
                outs, codes = {}, {}
                for side, tree in trees.items():
                    outs[side] = work / f"{workload.stem}-{command}-{side}"
                    codes[side] = run(tree, command, config, outs[side])
                found = differences(outs["before"], outs["after"])
                if codes["before"] != codes["after"]:
                    found.insert(0, f"exit code {codes['before']} -> {codes['after']}")
                label = f"{workload.stem} {command}"
                if found:
                    failed = True
                    print(f"DIFFERENT {label}:")
                    for line in found:
                        print(f"    {line}")
                else:
                    files = len(list(outs["after"].iterdir()))
                    print(f"same      {label}: exit {codes['after']}, {files} files")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
