"""Command-line front end: solve / sweep / compare / verify.

Exit codes: 0 success, 1 configuration error (a command-line usage error
too), 2 solver nonconvergence, 3 oracle failure, 4 output error (an artifact
could not be written; one error line names the file, and no manifest is
written).  `_command` is the one place that picks the exit code: each
command returns its code and its manifest record, and `_command` writes the
manifest last, then exits.
Tabular outputs are CSV, all written by `write_csv` with one formatting
rule: comma separator, floats as `%.17g`, other values as `str()`, LF line
endings, UTF-8.  `floattext.render` is the one float renderer: a numpy
kernel renders a block of values at a time into the bytes `%.17g` gives,
and leaves the few it cannot render exactly (non-finite, subnormal, |v|
outside [1e-200, 1e200], or within about 1e-6 of a rounding tie where
10**(16 - e) is not one double) to the format itself.  On a 2-vCPU Xeon VM
the 11 stage files of the n = 128 benchmark sweeps took 2.3-2.6 ms against
4.0-4.1 ms with `%`.  Manifests and summaries are JSON.
`write_csv` and `write_json` return the sha256 of the bytes they wrote, and
the manifest lists those digests for every other file the command wrote;
no artifact is read back.  Both write through `_write_in_place`, which
overwrites a file that a previous run left and then cuts it to its new
length; `write_json` writes no temporary file.

`compare` runs its convex-cone oracle in the command's own process, once
every stage has converged and the sweep's files are written.  With two or
more stages, at least `_SPLIT_MIN_VALUES` stage-file values, os.fork and a
second CPU, `_writing_stages` forks a writer child for stages 00, 02, ...
(the larger half when the count is odd) while the command writes the others
and its summary files, and reaps it before the command writes anything
else.  Otherwise the command writes every stage file first and forks
nothing.
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

# A command's only BLAS or LAPACK work is one small banded solve per Newton
# step, so one OpenBLAS thread does it.  numpy's OpenBLAS and the copy that
# scipy's LAPACK brings in each read this variable when they load, and each
# worker thread of their pools spins for about 60 ms of CPU after it starts.
# A value the user has set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import click
import numpy as np

from . import __version__, floattext
from .config import ConfigError, RunConfig, load_config
from .diagnostics import EstimateReport, check_theorem_bounds, compute_report, fit_rate
from .minimizer import minimize_direct
from .solver import continuation_sweep, layer_beta_h, newton_solve
from .weakform import check_support, default_family, distributional_residual, rescaled_w

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


# Rows per block of a CSV file: a block of a large stage file, five float
# columns, is one `floattext` block.
_CSV_BLOCK_ROWS = 512


def write_csv(path: Path, header, columns) -> str:
    """Write equal-length `columns` under `header`; no columns writes the header alone.

    A column that numpy reads as a float array is written as `%.17g` gives
    each value (`floattext.render`), a bytes (`S`) column as its text, which
    is how `_write_stages` passes columns it has rendered already, and any
    other column with `str()`.  Each block of rows is one row-major byte
    matrix, every value NUL padded, whose NULs are dropped.  Returns the
    sha256 hex digest of the bytes written.  Raises ValueError, before the
    file is opened, for columns of unequal lengths or other than one per
    header name.
    """
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0]) if cols else 0
    if cols and (len(cols) != len(header) or any(len(c) != n for c in cols)):
        raise ValueError(f"{path}: {len(header)} header names over columns of lengths "
                         f"{[len(c) for c in cols]}")

    def blocks():
        yield (",".join(header) + "\n").encode("utf-8")
        for lo in range(0, n, _CSV_BLOCK_ROWS):
            yield _csv_rows([c[lo:lo + _CSV_BLOCK_ROWS] for c in cols])

    return _write_in_place(path, blocks())


def _csv_rows(cols) -> bytes:
    """The CSV lines of equal-length columns, rendered together."""
    texts = list(cols)
    floats = [j for j, c in enumerate(cols) if c.dtype.kind == "f"]
    if floats:
        rendered = floattext.render(np.concatenate([cols[j] for j in floats]))[0]
        for j, text in zip(floats, rendered.reshape(len(floats), -1)):
            texts[j] = text
    for j, c in enumerate(texts):
        if c.dtype.kind != "S":
            texts[j] = np.array([str(v).encode("utf-8") for v in c.tolist()], dtype="S")
    rows = np.empty((len(texts[0]), sum(t.itemsize + 1 for t in texts)), np.uint8)
    end = 0
    for text in texts:
        start, end = end, end + text.itemsize
        rows[:, start:end] = text.view(np.uint8).reshape(-1, text.itemsize)
        rows[:, end] = ord(",")
        end += 1
    rows[:, -1] = ord("\n")
    return rows.tobytes().translate(None, b"\0")


def write_json(path: Path, doc) -> str:
    """Write `doc` as indented JSON; returns the sha256 of its bytes."""
    data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    return _write_in_place(path, [data])


def _write_in_place(path: Path, chunks) -> str:
    """Write the byte strings `chunks` to `path`; returns their sha256 hex digest.

    The package's one file writer.  A file that is already there is
    overwritten in place and then cut to the written length, so the file has
    its final length when this returns.  Truncating on open instead, or
    replacing the file by a rename, makes ext4 free the old blocks and start
    writeback at close: 0.1-0.3 ms a stage file of 129 rows on a 2-vCPU Xeon
    VM, against about 0.1 ms to render it.
    """
    digest = hashlib.sha256()
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        for data in chunks:
            digest.update(data)
            fh.write(data)
        fh.truncate()
    return digest.hexdigest()


def _finish(outdir: Path, cfg: RunConfig, run: dict) -> None:
    """Write manifest.json after the command's last artifact.

    `run` holds "stages", "wall_clock_seconds" and "files", each artifact's
    name -> sha256 as its writer returned it, and for `compare` "oracle".
    """
    write_json(outdir / "manifest.json", {"tool_version": __version__, "config": cfg.to_dict(), **run})


STAGE_HEADER = ("x", "u", "u_prime", "u_pp", "w", "f_eps")

# Stage files are written from two processes when they hold at least this
# many values in all.  After a sweep, a fork took 0.8-1.0 ms, a child's exit
# and reaping 1.3-1.5 ms, and a value about 0.3 us to render and write.  On
# a 2-vCPU Xeon VM (`sweep`, 11 stages of the exact-solution problem, medians
# of 40 in-process runs a side) the split cost 0.2 ms at 34 k values
# (n = 512) and saved 0.9-1.1 ms at 51 k (n = 768), 4.4-4.9 ms at 85 k
# (n = 1280) and 28 ms of 107 at 541 k (n = 8192).
_SPLIT_MIN_VALUES = 50_000


def _stage_entry(setup, result) -> dict:
    """A stage's manifest entry: the Newton record, beta * h and the curvature roundoff."""
    return {
        "eps": setup.eps,
        "converged": result.converged,
        "stop": result.stop,
        "newton_iters": result.newton_iters,
        "final_residual": result.residual_norms[-1],
        "residual_norms": result.residual_norms,
        "min_upps": result.min_upps,
        "step_norms": result.step_norms,
        "step_lengths": result.step_lengths,
        "beta_h": layer_beta_h(setup),
        "curvature_roundoff": result.curvature_roundoff,
    }


def _write_stages(nodes, jobs) -> dict:
    """Write each `(path, result)` job's solution CSV; returns file name -> sha256.

    The `x` column is `nodes`, the others the result's u and the u', u'',
    w and f_eps that Newton evaluated at it.  The nodes are rendered once.
    Files small enough for several to a `floattext` block are rendered that
    many at a time, because each block costs about 70 us beyond its values;
    a larger file is rendered by `write_csv`, a block of rows at a time.
    """
    x = floattext.render(nodes)[0]
    per_file = (len(STAGE_HEADER) - 1) * len(nodes)
    group = max(1, floattext.BLOCK_VALUES // per_file)
    files = {}
    for lo in range(0, len(jobs), group):
        part = jobs[lo:lo + group]
        columns = [(r.u, r.up, r.upp, r.w, r.f) for _, r in part]
        if group > 1:
            columns = floattext.render(np.ravel(columns))[0].reshape(len(part), -1, len(nodes))
        for (path, _), cols in zip(part, columns):
            files[path.name] = write_csv(path, STAGE_HEADER, (x, *cols))
    return files


@contextmanager
def _writing_stages(outdir: Path, stages):
    """Write every stage's `solution_stageNN.csv`; yield the file name -> sha256 record.

    The block adds its own files to the record, which holds every stage
    file once the `with` statement is left.  The package's one fork: with
    two or more stages, at least `_SPLIT_MIN_VALUES` values, os.fork and a
    second CPU, a child writes stages 00, 02, ..., the larger half, while
    this process writes the others and then runs the block; otherwise this
    process writes every stage file before the block.  The child's error is
    raised here with its type and message, and a child that sends no result
    makes this raise RuntimeError.  Leaving the block kills the child, if it
    still runs, and reaps it.
    """
    nodes = stages[0][0].grid.nodes
    jobs = [(outdir / f"solution_stage{k:02d}.csv", result) for k, (_, result) in enumerate(stages)]
    if not (len(stages) > 1 and len(STAGE_HEADER) * len(nodes) * len(stages) >= _SPLIT_MIN_VALUES
            and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        yield _write_stages(nodes, jobs)
        return
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    # With one OpenBLAS thread, this module's default, neither numpy's OpenBLAS
    # nor scipy's LAPACK copy has a worker pool for the fork to stop; with
    # more, each stops its pool before the fork and restarts it where needed.
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            try:
                result = (True, _write_stages(nodes, jobs[::2]))
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
    # A child that has sent its result still takes a few ms to exit, so only
    # a child that sent none is reaped before the `finally`.
    try:
        files = _write_stages(nodes, jobs[1::2])
        yield files
        data = reader.read()
        if not data:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped = True
            raise RuntimeError(f"child process ended without a result (exit status {code})")
        ok, value = pickle.loads(data)
        if not ok:
            raise value
        files.update(value)
    finally:
        reader.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_sweep(cfg: RunConfig, setup, outdir: Path):
    """Shared sweep pipeline from the first stage's setup.

    Returns (exit_code, stages, reports, run): the converged stages'
    `EstimateReport`s and `run` as `_finish` takes it.
    """
    schedule = cfg.schedule()
    t0 = time.perf_counter()
    stages = continuation_sweep(setup, schedule, cfg.tolerances)
    t1 = time.perf_counter()
    all_converged = len(stages) == len(schedule) and all(r.converged for _, r in stages)

    with _writing_stages(outdir, stages) as files:
        reports = [compute_report(r, s) for s, r in stages if r.converged]
        header = [f.name for f in fields(EstimateReport)]
        files["sweep.csv"] = write_csv(outdir / "sweep.csv", header,
                                       [[getattr(r, name) for r in reports] for name in header])

        rate_rows = []
        for name in RATE_FIELDS:
            try:
                fit = fit_rate(reports, name)
            except ValueError:
                continue
            rate_rows.append((name, fit.slope, fit.r2, fit.stages,
                              "yes" if fit.identically_small else "no"))
        files["rates.csv"] = write_csv(outdir / "rates.csv",
                                       ("quantity", "slope", "r2", "stages", "identically_small"),
                                       list(zip(*rate_rows)))

        try:
            files["bounds.json"] = write_json(outdir / "bounds.json",
                                              check_theorem_bounds(reports))
        except ValueError as exc:
            log.warning("bound checks skipped: %s", exc)
    seconds = {"sweep": t1 - t0, "write": time.perf_counter() - t1}
    stage_meta = [_stage_entry(setup, result) for setup, result in stages]

    if not all_converged:
        log.error("sweep stopped at stage %d of %d", len(stages), len(schedule))
    run = {"stages": stage_meta, "wall_clock_seconds": seconds, "files": files}
    return (EXIT_OK if all_converged else EXIT_SOLVER), stages, reports, run


def _single_eps(cfg: RunConfig, setup) -> None:
    if len(cfg.schedule()) != 1:
        raise ConfigError("solve requires a single-eps schedule; use sweep instead")


def _bumps_fit(cfg: RunConfig, setup) -> None:
    try:
        check_support(default_family(setup.grid), setup.grid)
    except ValueError as exc:
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


@contextmanager
def _usage_errors_are_config_errors():
    """Give a click usage error (a missing or unknown option, an unknown
    command) EXIT_CONFIG, not click's 2, which is EXIT_SOLVER here."""
    try:
        yield
    except click.UsageError as exc:
        exc.exit_code = EXIT_CONFIG
        raise


class _Group(click.Group):
    """The command group; click still prints each usage error on stderr."""

    def make_context(self, *args, **kwargs):
        with _usage_errors_are_config_errors():
            return super().make_context(*args, **kwargs)

    def invoke(self, ctx):
        with _usage_errors_are_config_errors():
            return super().invoke(ctx)


@click.group(cls=_Group)
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
    files = _write_stages(setup.grid.nodes, [(outdir / "solution.csv", result)])
    if not result.converged:
        log.error("Newton did not converge (final residual %.3e)", result.residual_norms[-1])
    run = {"stages": [_stage_entry(setup, result)], "wall_clock_seconds": {"solve": elapsed}, "files": files}
    return (EXIT_OK if result.converged else EXIT_SOLVER), run


@_command()
def sweep(cfg, setup, outdir):
    """Continuation sweep over the eps schedule with diagnostics."""
    code, _, _, run = _run_sweep(cfg, setup, outdir)
    return code, run


def _oracle_entry(oracle) -> dict:
    """The oracle's manifest entry: where its barrier loop started, its Newton
    steps, and ironing's pooled blocks and KKT residual where ironing applies."""
    entry = {"start": oracle.start, "barrier_steps": oracle.iters, "ironing": None}
    log.debug("oracle: %d barrier steps from the %s", oracle.iters, oracle.start)
    if oracle.ironing is not None:
        ironing = oracle.ironing
        entry["ironing"] = {
            "pooled_blocks": len(ironing.blocks),
            "stationarity": ironing.stationarity,
            "complementarity": ironing.complementarity,
            "dual_feasibility": ironing.dual_feasibility,
        }
        log.debug("ironing: %d pooled blocks, KKT stationarity %.3e, complementarity %.3e, "
                  "dual feasibility %.3e", len(ironing.blocks), ironing.stationarity,
                  ironing.complementarity, ironing.dual_feasibility)
    return entry


@_command()
def compare(cfg, setup, outdir):
    """Run the sweep and the direct minimizer, report their agreement."""
    code, stages, reports, run = _run_sweep(cfg, setup, outdir)
    if code != EXIT_OK:
        return code, run
    # Every stage shares the first stage's grid, Lagrangian and obstacle,
    # which is all the minimizer reads.
    t0 = time.perf_counter()
    oracle = minimize_direct(setup)
    run["wall_clock_seconds"]["oracle"] = time.perf_counter() - t0
    run["oracle"] = _oracle_entry(oracle)
    files = run["files"]
    setup, result = stages[-1]
    g = setup.grid
    if oracle.kkt_residual > cfg.tolerances.kkt_tol:
        log.error("oracle failed: KKT residual %.3e > %.3e",
                  oracle.kkt_residual, cfg.tolerances.kkt_tol)
        return EXIT_ORACLE, run

    diff = np.abs(result.u - oracle.v)
    files["compare.csv"] = write_csv(outdir / "compare.csv",
                                     ("x", "u_abreu_smallest_eps", "u_direct", "abs_diff"),
                                     (g.nodes, result.u, oracle.v, diff))

    width = g.b - g.a
    inner = (g.nodes >= g.a + 0.1 * width) & (g.nodes <= g.b - 0.1 * width)
    J_abreu = reports[-1].J_val
    summary = {
        "eps_smallest": setup.eps,
        "sup_diff_inner_window": float(np.max(diff[inner])),
        "J_abreu": J_abreu,
        "J_direct": oracle.J_value,
        "J_abs_diff": abs(J_abreu - oracle.J_value),
        "oracle_kkt_residual": oracle.kkt_residual,
    }
    files["compare_summary.json"] = write_json(outdir / "compare_summary.json", summary)
    return EXIT_OK, run


@_command(check=_bumps_fit)
def verify(cfg, setup, outdir):
    """Weak-form residual of the limiting Euler-Lagrange identity."""
    code, stages, _, run = _run_sweep(cfg, setup, outdir)
    if code != EXIT_OK:
        return code, run
    setup, result = stages[-1]
    family = default_family(setup.grid)
    w_resc = rescaled_w(result, setup)
    max_res, per_bump = distributional_residual(w_resc, result.u, setup, family, result.up)
    files = run["files"]
    files["el_residuals.csv"] = write_csv(outdir / "el_residuals.csv",
                                          ("center", "radius", "residual"),
                                          (family.centers, family.radii, per_bump))
    tol = cfg.tolerances.el_residual_tol
    files["verify_summary.json"] = write_json(outdir / "verify_summary.json", {
        "eps": setup.eps,
        "max_residual": max_res,
        "tolerance": tol,
        "status": "PASS" if max_res <= tol else "FAIL",
    })
    return EXIT_OK, run


if __name__ == "__main__":
    main()
