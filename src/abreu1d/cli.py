"""Command-line front end: solve / sweep / compare / verify.

Exit codes: 0 success, 1 configuration error, 2 solver nonconvergence,
3 oracle failure, 4 output error (an artifact could not be written; one
error line names the file, and no manifest is written).  `_command` is the
one place that picks the exit code: each command returns its code and its
manifest record, and `_command` writes the manifest last, then exits.
Tabular outputs are CSV, all written by `write_csv` with one formatting
rule: comma separator, floats as `%.17g`, other values as `str()`, LF line
endings, UTF-8.  Manifests and summaries are JSON; the manifest hashes
every other file the command wrote.

Work that can run beside the command goes to one forked child through
`_in_child`: `compare` runs the convex-cone oracle in a second process while
the sweep runs in this one, and a large sweep has the child write every
second stage solution file while the command writes the others and its
summary files.  Each child is reaped before the command writes anything
that depends on it.  Machines with one CPU, or without os.fork, run that
work in the command's process.
"""

import functools
import hashlib
import json
import logging
import os
import pickle
import signal
import sys
import time
from contextlib import contextmanager
from dataclasses import fields
from pathlib import Path

import click
import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .diagnostics import EstimateReport, check_theorem_bounds, compute_report, fit_rate
from .grid import d1, d2
from .minimizer import ConeProblem, eval_J, minimize_direct
from .solver import continuation_sweep, f_eps, load_dgbsv, newton_solve
from .weakform import (SupportViolation, check_support, default_family,
                       distributional_residual, rescaled_w)

log = logging.getLogger("abreu1d")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_ORACLE = 3
EXIT_OUTPUT = 4

RATE_FIELDS = ("penalty_l2", "min_upp_ab", "max_w_ab", "int_inv_upp")


def _setup_logging() -> None:
    level = os.environ.get("ABREU1D_LOG", "info").lower()
    levels = {"quiet": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(
        stream=sys.stderr,
        level=levels.get(level, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
    )


# Rows per `%` call.  At n = 8192, 1024 rows was no faster than 512 and
# raised the process's peak RSS by about 0.6 MB.
_CSV_BLOCK_ROWS = 512


def write_csv(path: Path, header, columns) -> None:
    """Write equal-length `columns` under `header`; no columns writes the header alone.

    A column that numpy reads as a float array is written with `%.17g`, any
    other column with `str()`.  Each block of rows is formatted by one `%`.
    """
    cols = [np.asarray(c) for c in columns]
    width = len(cols)
    n = len(cols[0]) if cols else 0
    row = ",".join("%.17g" if c.dtype.kind == "f" else "%s" for c in cols) + "\n"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for lo in range(0, n, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, n)
            values = [None] * ((hi - lo) * width)
            for j, c in enumerate(cols):
                values[j::width] = c[lo:hi].tolist()
            fh.write((row * (hi - lo)) % tuple(values))


def write_json(path: Path, doc) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _finish(outdir: Path, cfg: RunConfig, run: dict) -> None:
    """Write manifest.json after the command's last artifact.

    `run` holds "stages", "wall_clock_seconds" and "files", the artifact names to hash.
    """
    write_json(outdir / "manifest.json", {
        "tool_version": __version__,
        "config": cfg.to_dict(),
        **run,
        "files": {n: hashlib.sha256((outdir / n).read_bytes()).hexdigest() for n in run["files"]},
    })


STAGE_HEADER = ("x", "u", "u_prime", "u_pp", "w", "f_eps")

# Stage files are written from two processes when they hold at least this
# many values in all.  The fork costs a few ms and each `%.17g` value about
# 0.6 us.  On a 2-vCPU Xeon VM (11 stages of the exact-solution problem) the
# split broke even between 17 k and 25 k values, saved 20 % of the write time
# at 34 k and 44 % at 540 k (n = 8192), and cost 1-2 ms at 8.5 k (n = 128).
_SPLIT_MIN_VALUES = 25_000


def _stage_entry(setup, result) -> dict:
    """A stage's manifest entry."""
    return {
        "eps": setup.eps,
        "converged": result.converged,
        "newton_iters": result.newton_iters,
        "final_residual": result.residual_norms[-1],
    }


def _write_stages(jobs) -> None:
    """Write each `(path, setup, result)` job's solution CSV."""
    for path, setup, result in jobs:
        g = setup.grid
        u = result.u
        upp = d2(u, g)
        write_csv(path, STAGE_HEADER,
                  (g.nodes, u, d1(u, g), upp, result.w, f_eps(u, upp, setup)))


@contextmanager
def _writing_stages(outdir: Path, names, stages):
    """Write every stage's solution CSV; all are written when the block ends.

    With at least `_SPLIT_MIN_VALUES` values, every second file is written
    by `_in_child` while this process writes the others and then runs the
    block, so the child's exit overlaps the block's writes.
    """
    jobs = [(outdir / name, setup, result) for name, (setup, result) in zip(names, stages)]
    values = len(STAGE_HEADER) * sum(setup.grid.n + 1 for setup, _ in stages)
    if values < _SPLIT_MIN_VALUES:
        _write_stages(jobs)
        yield
        return
    with _in_child(_write_stages, jobs[1::2]) as child_written:
        _write_stages(jobs[::2])
        yield
        child_written()


@contextmanager
def _in_child(fn, *args):
    """Start fn(*args) in a forked child; yield `wait`, which returns its value.

    `wait()` returns what fn returned, or raises the exception that fn raised,
    with the same type and message; a child that ends without sending a
    result (one that was killed, say) makes it raise RuntimeError.  The child
    is killed, if it still runs, and reaped when the `with` block is left.
    Without os.fork or a second CPU to run on, `wait()` calls fn(*args) in
    this process.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        yield lambda: fn(*args)
        return
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    # The child sends the pickled (ok, value) through the pipe and never
    # returns.  numpy's OpenBLAS, and the second copy that scipy's LAPACK
    # brings in on the first banded solve, each stop their thread pool
    # before a fork and start it again in either process when needed.
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                result = (True, fn(*args))
            except BaseException as exc:
                result = (False, exc)
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(pickle.dumps(result))
            status = 0
        finally:
            os._exit(status)

    os.close(write_fd)
    reader = os.fdopen(read_fd, "rb")
    reaped = False

    # A child that has sent its result still takes about 2 ms to exit (a
    # 2-vCPU Xeon VM, n = 128 compare), so `wait` reaps only a child that
    # sent none, and the block's end reaps the others.
    def wait():
        nonlocal reaped
        data = reader.read()
        if not data:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped = True
            raise RuntimeError(f"child process ended without a result (exit status {code})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        return value

    try:
        yield wait
    finally:
        reader.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_sweep(cfg: RunConfig, setup, outdir: Path):
    """Shared sweep pipeline from the first stage's setup.

    Returns (exit_code, stages, run), with `run` as `_finish` takes it.
    """
    schedule = cfg.schedule()
    t0 = time.perf_counter()
    stages = continuation_sweep(setup, schedule, cfg.tolerances)
    elapsed = time.perf_counter() - t0

    files = [f"solution_stage{k:02d}.csv" for k in range(len(stages))]
    with _writing_stages(outdir, files, stages):
        reports = [compute_report(r, s) for s, r in stages if r.converged]
        header = [f.name for f in fields(EstimateReport)]
        write_csv(outdir / "sweep.csv", header,
                  [[getattr(r, name) for r in reports] for name in header])
        files.append("sweep.csv")

        rate_rows = []
        for name in RATE_FIELDS:
            try:
                fit = fit_rate(reports, name)
            except ValueError:
                continue
            rate_rows.append((name, fit.slope, fit.r2, fit.stages,
                              "yes" if fit.identically_small else "no"))
        write_csv(outdir / "rates.csv",
                  ("quantity", "slope", "r2", "stages", "identically_small"),
                  list(zip(*rate_rows)))
        files.append("rates.csv")

        try:
            write_json(outdir / "bounds.json", check_theorem_bounds(reports))
            files.append("bounds.json")
        except ValueError as exc:
            log.warning("bound checks skipped: %s", exc)
    stage_meta = [_stage_entry(setup, result) for setup, result in stages]

    all_converged = len(stages) == len(schedule) and all(r.converged for _, r in stages)
    if not all_converged:
        log.error("sweep stopped at stage %d of %d", len(stages), len(schedule))
    run = {"stages": stage_meta, "wall_clock_seconds": {"sweep": elapsed}, "files": files}
    return (EXIT_OK if all_converged else EXIT_SOLVER), stages, run


def _single_eps(cfg: RunConfig, setup) -> None:
    if len(cfg.schedule()) != 1:
        raise ConfigError("solve requires a single-eps schedule; use sweep instead")


def _bumps_fit(cfg: RunConfig, setup) -> None:
    try:
        check_support(default_family(setup.grid), setup.grid)
    except SupportViolation as exc:
        raise ConfigError(f"verify: {exc}") from exc


def _prepare(config_path: str, out_override, check):
    """Load the config, build the first stage's setup and make the output directory.

    `check(cfg, setup)`, if given, is a command's own rule.  A bad config, a
    broken rule and an unwritable output directory raise `ConfigError`.
    """
    cfg = load_config(config_path)
    setup = cfg.build_setup()
    if check:
        check(cfg, setup)
    if out_override:
        cfg.outputs = out_override
    outdir = Path(cfg.outputs)
    probe = outdir / ".write_probe"
    try:
        outdir.mkdir(parents=True, exist_ok=True)
        probe.touch()
        probe.unlink()
    except OSError as exc:
        raise ConfigError(f"output directory not writable: {exc}") from exc
    return cfg, setup, outdir


@click.group()
def main() -> None:
    """Penalized fourth-order scheme for convexity-constrained minimization."""
    _setup_logging()


def _command(check=None):
    """Register `fn(cfg, setup, outdir) -> (code, run)` as a subcommand.

    The one place a command exits.  It runs `_prepare` with `check`, then
    `fn`, then `_finish`, which writes the manifest last, and exits with
    `code`.  A `ConfigError` is logged and exits with EXIT_CONFIG.  An
    OSError is a failed output write, because `_prepare` turns every earlier
    one into a `ConfigError`; it is logged as one line and exits with
    EXIT_OUTPUT, without a manifest.
    """
    def register(fn):
        @functools.wraps(fn)
        def command(config_path, out_override):
            try:
                cfg, setup, outdir = _prepare(config_path, out_override, check)
                code, run = fn(cfg, setup, outdir)
                _finish(outdir, cfg, run)
            except ConfigError as exc:
                log.error("%s", exc)
                code = EXIT_CONFIG
            except OSError as exc:
                log.error("output write failed: %s", exc)
                code = EXIT_OUTPUT
            sys.exit(code)

        command = click.option("--config", "config_path", required=True,
                               type=click.Path(), help="Path to the JSON run configuration.")(command)
        command = click.option("--out", "out_override", default=None,
                               type=click.Path(), help="Override the output directory.")(command)
        return main.command()(command)

    return register


@_command(check=_single_eps)
def solve(cfg, setup, outdir):
    """Solve the penalized problem at a single eps."""
    t0 = time.perf_counter()
    result = newton_solve(setup, setup.phi, cfg.tolerances)
    elapsed = time.perf_counter() - t0
    _write_stages([(outdir / "solution.csv", setup, result)])
    if not result.converged:
        log.error("Newton did not converge (final residual %.3e)", result.residual_norms[-1])
    run = {"stages": [_stage_entry(setup, result)], "wall_clock_seconds": {"solve": elapsed}, "files": ["solution.csv"]}
    return (EXIT_OK if result.converged else EXIT_SOLVER), run


@_command()
def sweep(cfg, setup, outdir):
    """Continuation sweep over the eps schedule with diagnostics."""
    code, _, run = _run_sweep(cfg, setup, outdir)
    return code, run


def _oracle(problem: ConeProblem):
    """The direct minimizer's result and its own wall time."""
    t0 = time.perf_counter()
    oracle = minimize_direct(problem)
    return oracle, time.perf_counter() - t0


@_command()
def compare(cfg, setup, outdir):
    """Run the sweep and the direct minimizer, report their agreement."""
    # Every stage shares the first stage's grid, Lagrangian and obstacle, so
    # the oracle, which needs nothing else, runs beside the sweep.
    problem = ConeProblem(grid=setup.grid, lagrangian=setup.lagrangian, phi=setup.phi)
    # Both processes solve banded systems: load LAPACK once, before the fork.
    load_dgbsv()
    with _in_child(_oracle, problem) as oracle_result:
        code, stages, run = _run_sweep(cfg, setup, outdir)
        if code != EXIT_OK:
            return code, run
        oracle, run["wall_clock_seconds"]["oracle"] = oracle_result()
        # the child has sent its result; it is reaped when the block is left
        setup, result = stages[-1]
        g = setup.grid
        if oracle.kkt_residual > cfg.tolerances.kkt_tol:
            log.error("oracle failed: KKT residual %.3e > %.3e",
                      oracle.kkt_residual, cfg.tolerances.kkt_tol)
            return EXIT_ORACLE, run

        diff = np.abs(result.u - oracle.v)
        write_csv(outdir / "compare.csv",
                  ("x", "u_abreu_smallest_eps", "u_direct", "abs_diff"),
                  (g.nodes, result.u, oracle.v, diff))

        width = g.b - g.a
        inner = (g.nodes >= g.a + 0.1 * width) & (g.nodes <= g.b - 0.1 * width)
        J_abreu = eval_J(result.u, problem)
        summary = {
            "eps_smallest": setup.eps,
            "sup_diff_inner_window": float(np.max(diff[inner])),
            "J_abreu": J_abreu,
            "J_direct": oracle.J_value,
            "J_abs_diff": abs(J_abreu - oracle.J_value),
            "oracle_kkt_residual": oracle.kkt_residual,
        }
        write_json(outdir / "compare_summary.json", summary)
        run["files"] += ["compare.csv", "compare_summary.json"]
    return EXIT_OK, run


@_command(check=_bumps_fit)
def verify(cfg, setup, outdir):
    """Weak-form residual of the limiting Euler-Lagrange identity."""
    code, stages, run = _run_sweep(cfg, setup, outdir)
    if code != EXIT_OK:
        return code, run
    setup, result = stages[-1]
    family = default_family(setup.grid)
    w_resc = rescaled_w(result, setup)
    max_res, per_bump = distributional_residual(w_resc, result.u, setup, family)
    write_csv(outdir / "el_residuals.csv",
              ("center", "radius", "residual"),
              (family.centers, family.radii, per_bump))
    tol = cfg.tolerances.el_residual_tol
    write_json(outdir / "verify_summary.json", {
        "eps": setup.eps,
        "max_residual": max_res,
        "tolerance": tol,
        "status": "PASS" if max_res <= tol else "FAIL",
    })
    run["files"] += ["el_residuals.csv", "verify_summary.json"]
    return EXIT_OK, run


if __name__ == "__main__":
    main()
