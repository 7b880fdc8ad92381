#!/usr/bin/env python3
"""Benchmark of the abreu1d command line, one CLI command per workload.

Run from the repository root:

    python3 perfbench/run.py --workload newton-sweep --seed 1 --seconds 30 --trace 0

Each workload runs one CLI command in-process on a fixed config from
perfbench/workloads/, first once as a warm-up and then repeatedly for
--seconds.  Every command's outputs are checked against the reference values
in perfbench/reference/ (see checks.py).

--trace 0 reports the end-to-end metrics, with no wrapper installed.
--trace 1 reports the per-layer metrics: half the time runs untraced, half
runs with spans recorded around the calls into each module (tracer.py), and
the seed's parity decides which half goes first.  The workload inputs do not
depend on the seed, because the reference values and the repeat check of the
iteration counts need the same problem on every run.

Command times are scaled to the machine's nominal speed (see SpeedProbe),
because a shared machine's speed can drift by tens of percent within a
minute.  The raw wall times are kept in the record.

The last line of standard output is the result object.  The lines before it
give every metric with its unit and the environment; the same record is
written to .bench_out/<workload>/.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = {"newton-sweep": "sweep", "oracle-compare": "compare", "large-grid-io": "verify"}

# The tail is the highest percentile with at least this many commands beyond it.
TAIL_BEYOND = 10
SETUP_REPEATS = 7
TRACED_MIN_COMMANDS = 3

# Per-command counts that must repeat exactly; a change in one of them is a
# change in the work done, not in its speed.
REPEAT_COUNTS = (
    "solver.newton_iters", "solver.jacobian.calls", "lagrangian.calls",
    "minimizer.iters", "cli.write_csv.bytes",
)

SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "import abreu1d.cli as cli; cli.load_config(sys.argv[2])"
)


class SpeedProbe:
    """A fixed piece of CPU work, independent of abreu1d, timed between commands.

    Its time tracks the speed of the machine, which on a shared machine can
    switch by tens of percent from one second to the next.  Each timed
    command is bracketed by two probes and scaled by NOMINAL_S over their
    mean, so that it reads as seconds on the machine at its nominal speed.
    """

    NOMINAL_S = 0.036

    def __init__(self):
        import numpy as np

        self.array = np.random.default_rng(0).standard_normal(4000)
        self.values = self.array.tolist()

    def __call__(self) -> float:
        """Float formatting, tiny numpy calls and plain Python arithmetic, the
        single-threaded kinds of work the commands spend their time on."""
        t0 = time.perf_counter()
        for _ in range(4):
            ",".join(f"{v:.17g}" for v in self.values)
        a = self.array
        for i in range(len(a) - 1):
            float(a[i : i + 2] @ a[i : i + 2])
        total = 0
        for i in range(50000):
            total += i * i
        return time.perf_counter() - t0


def scaled(times: list[float], probes: list[float]) -> list[float]:
    """Times at nominal speed; probes[i] and probes[i + 1] bracket times[i]."""
    if len(probes) != len(times) + 1:
        raise ValueError(f"{len(times)} times need {len(times) + 1} bracketing probes")
    return [2.0 * SpeedProbe.NOMINAL_S * t / (probes[i] + probes[i + 1]) for i, t in enumerate(times)]


def config_path(workload: str) -> Path:
    return BENCH / "workloads" / f"{workload}.json"


def reference_path(workload: str) -> Path:
    return BENCH / "reference" / f"{workload}.json"


def import_program():
    """Import abreu1d from this checkout's src/, never from elsewhere."""
    if not (SRC / "abreu1d" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no abreu1d sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import abreu1d.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "abreu1d":
        raise SystemExit(f"perfbench: abreu1d imported from {cli.__file__}, not {SRC}")
    return cli


def measure_setup(workload: str) -> list[float]:
    """Wall times from a fresh interpreter to cli imported and config loaded.

    The first launch is discarded: it may compile the bytecode cache.  These
    times are not scaled: set-up is not CPU-bound enough for SpeedProbe to
    track it.
    """
    argv = [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(config_path(workload))]
    times = []
    for _ in range(SETUP_REPEATS + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times[1:]


def invoke(cli, command: str, config: Path, outdir: Path) -> int:
    """Run one CLI command in-process; returns its exit code."""
    args = [command, "--config", str(config), "--out", str(outdir)]
    try:
        cli.main.main(args=args, standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return -1
    return 0


def _direct(fn):
    return fn()


class Workload:
    """One workload's CLI command, run in-process and checked."""

    def __init__(self, cli, name: str, outdir: Path):
        self.cli = cli
        self.name = name
        self.command = WORKLOADS[name]
        self.config = config_path(name)
        self.kkt_tol = cli.load_config(self.config).tolerances.kkt_tol
        self.reference = json.loads(reference_path(name).read_text(encoding="utf-8"))
        self.outdir = outdir
        self.probe = SpeedProbe()
        self.attempted = 0
        self.failures: list[list[str]] = []

    def run_once(self, call=_direct) -> tuple[float, float]:
        """Probe, then run the command once through call(); returns
        (command seconds, probe seconds)."""
        for name in checks.CHECKED_FILES:
            (self.outdir / name).unlink(missing_ok=True)
        probe_s = self.probe()
        t0 = time.perf_counter()
        code = call(lambda: invoke(self.cli, self.command, self.config, self.outdir))
        elapsed = time.perf_counter() - t0
        # Flush the outputs now, outside the timed region, so that their
        # writeback does not slow the next command or the next run's set-up.
        for path in self.outdir.iterdir():
            with open(path, "rb") as fh:
                os.fsync(fh.fileno())
        self.attempted += 1
        errors = checks.check_command(
            self.outdir, self.command, code, self.reference["outputs"], self.kkt_tol)
        if errors:
            self.failures.append(errors)
            print(f"perfbench: {self.name} command {self.attempted} failed: {errors[:3]}",
                  file=sys.stderr)
        return elapsed, probe_s

    def run_for(self, seconds: float, minimum: int, call=_direct) -> tuple[list[float], list[float]]:
        """Run commands for `seconds`, at least `minimum`; returns (times,
        probes), with one probe before each command and one after the last."""
        times, probes = [], []
        deadline = time.perf_counter() + seconds
        while len(times) < minimum or time.perf_counter() < deadline:
            elapsed, probe_s = self.run_once(call)
            times.append(elapsed)
            probes.append(probe_s)
        probes.append(self.probe())
        return times, probes


def tail(times: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with TAIL_BEYOND samples beyond it."""
    ordered = sorted(times)
    k = len(ordered) - TAIL_BEYOND - 1
    if k < 0:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for the tail, got {len(times)}")
    return 100.0 * (k + 1) / len(ordered), ordered[k]


def _blas_threads():
    """Thread count reported by the OpenBLAS that numpy loaded, if any."""
    import ctypes

    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    for lib in sorted(set(re.findall(r"(/\S*openblas\S*\.so\S*)", maps))):
        handle = ctypes.CDLL(lib)
        for symbol in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy as np
    import scipy

    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, check=True).stdout.split()
        commit = top[1] if Path(top[0]).resolve() == ROOT else None
    except (OSError, subprocess.CalledProcessError, IndexError):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "abreu1d").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu = None
    try:
        found = re.search(r"^model name\s*:\s*(.+)$", Path("/proc/cpuinfo").read_text(), re.M)
        cpu = found.group(1).strip() if found else None
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl: Workload, seconds: float) -> tuple[dict, dict]:
    setup_times = measure_setup(wl.name)
    wl.run_once()  # warm-up: lazy imports, caches, output files created
    times, probes = wl.run_for(seconds, TAIL_BEYOND + 1)
    command_s = scaled(times, probes)
    pct, tail_s = tail(command_s)
    metrics = {
        "command_s_p50": metric(statistics.median(command_s), "s"),
        "command_s_tail": metric(tail_s, "s"),
        "setup_s": metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {
        "command_s_tail_percentile": pct,
        "timed_commands": len(times),
        "error_rate": metric(len(wl.failures) / wl.attempted, "fraction"),
        "wall_command_s_p50": statistics.median(times),
        "wall_command_s_tail": tail(times)[1],
        "command_s": command_s,
        "wall_command_s": times,
        "command_probe_s": probes,
        "setup_s": setup_times,
    }
    return metrics, extra


def traced(wl: Workload, seconds: float, seed: int) -> tuple[dict, dict]:
    import tracer

    leftovers = tracer.find_wrapped()
    if leftovers:
        raise RuntimeError(f"wrapped attributes before the traced run: {leftovers}")
    wl.run_once()  # warm-up
    t = tracer.Tracer()
    phase = seconds / 2.0

    def untraced_phase():
        leftovers = tracer.find_wrapped()
        if leftovers:
            raise RuntimeError(f"untraced run with wrapped attributes: {leftovers}")
        return wl.run_for(phase, TRACED_MIN_COMMANDS)

    def traced_phase():
        t.install()
        try:
            return wl.run_for(phase, TRACED_MIN_COMMANDS, t.run_command)
        finally:
            t.restore()

    if seed % 2:
        traced_run, plain_run = traced_phase(), untraced_phase()
    else:
        plain_run, traced_run = untraced_phase(), traced_phase()
    p50_traced = statistics.median(scaled(*traced_run))
    p50_plain = statistics.median(scaled(*plain_run))
    leftovers = tracer.find_wrapped()
    if leftovers:
        raise RuntimeError(f"wrapped attributes after restore: {leftovers}")

    per_command = t.per_command()
    unit = units_per_layer()
    metrics = {
        name: metric(statistics.fmean(c[name] for c in per_command), unit[name])
        for name in per_command[0]
    }
    metrics["trace.overhead_s"] = metric(p50_traced - p50_plain, "s")
    counts = {k: sorted({c[k] for c in per_command}) for k in REPEAT_COUNTS}
    expected = wl.reference["counts"]
    extra = {
        "traced_commands": len(traced_run[0]),
        "untraced_commands": len(plain_run[0]),
        "traced_command_s_p50": p50_traced,
        "untraced_command_s_p50": p50_plain,
        "wall_traced_command_s": traced_run[0],
        "wall_untraced_command_s": plain_run[0],
        "counts_repeat": all(len(v) == 1 for v in counts.values()),
        "counts_match_reference": all(counts[k] == [expected[k]] for k in REPEAT_COUNTS),
        "counts": counts,
        "spans": len(t.start),
    }
    t.save(wl.outdir.parent / "spans.npz")
    return metrics, extra


def units_per_layer() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    os.environ.setdefault("ABREU1D_LOG", "quiet")
    cli = import_program()
    rundir = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(rundir, ignore_errors=True)
    (rundir / "cli").mkdir(parents=True)
    wl = Workload(cli, args.workload, rundir / "cli")

    if args.trace:
        metrics, extra = traced(wl, args.seconds, args.seed)
    else:
        metrics, extra = end_to_end(wl, args.seconds)

    result = {
        "correct": not wl.failures,
        "attempted": wl.attempted,
        "failed": len(wl.failures),
        "metrics": metrics,
    }
    record = {"workload": args.workload, "command": wl.command, "seed": args.seed,
              "trace": args.trace, "result": result, "details": extra,
              "failures": wl.failures, "environment": environment()}
    (rundir / "result.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    shutil.rmtree(wl.outdir)

    print(f"workload {args.workload} ({wl.command}), seed {args.seed}, trace {args.trace}: "
          f"{wl.attempted} commands, {len(wl.failures)} failed")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    if "error_rate" in extra:
        print(f"  {'error_rate':34s} {extra['error_rate']['value']:.6g} fraction")
        print(f"  command_s_tail is p{extra['command_s_tail_percentile']:.1f} "
              f"of {extra['timed_commands']} timed commands")
    else:
        print(f"  tracing overhead {metrics['trace.overhead_s']['value']:.4g} s per command "
              f"({extra['traced_commands']} traced, {extra['untraced_commands']} untraced)")
        if not extra["counts_repeat"] or not extra["counts_match_reference"]:
            print(f"  WARNING counts differ between commands or from the reference: "
                  f"{extra['counts']}")
    env = record["environment"]
    print("environment " + json.dumps(env, sort_keys=True))
    if env["blas_threads"] is not None and env["blas_threads"] > env["nproc"]:
        print(f"  WARNING {env['blas_threads']} BLAS threads on {env['nproc']} CPUs")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
