"""Command-line front end: solve / sweep / compare / verify.

Exit codes: 0 success, 1 configuration error (a command-line usage error
too), 2 solver nonconvergence, 3 oracle failure, 4 output error (an artifact
could not be written; one error line names the file, and no manifest is
written).  `_command` is the one place that picks the exit code: each
command returns its code and its manifest record, and `_command` writes the
manifest last, then exits.
Tabular outputs are CSV with one formatting rule: comma separator, floats
as `%.17g` (`floattext.render`), other values as `str()`, LF line endings,
UTF-8.  `_csv_rows` lays out their text and `_write_in_place` writes it.
On a 2-vCPU Xeon VM the 11 stage files of an n = 128 benchmark sweep took
1.4-1.8 ms against 4.8-5.0 ms with `%`.  Manifests and summaries are JSON.
Each writer returns the sha256 of the bytes it wrote, and the manifest
lists those digests for every other file the command wrote; no artifact is
read back.  `_write_in_place` overwrites a file that a previous run left
and then cuts it to its new length; `write_json` writes no temporary file.

`compare` runs its convex-cone oracle in the command's own process, once
every stage has converged and the sweep's reports are written, and
`verify` its weak form likewise.  A large sweep's stage files are shared
out through a claim queue between a forked child and the command, which
takes what is left once its own work is done (`_writing_stages`).
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
from .diagnostics import MIN_FIT_STAGES, EstimateReport, check_theorem_bounds, compute_report, fit_rate
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

    `_csv_rows` lays out a block of `_CSV_BLOCK_ROWS` rows at a time.
    Returns the sha256 hex digest of the bytes written.  Raises ValueError,
    before the file is opened, for columns of unequal lengths or other than
    one per header name.
    """
    cols = [np.asarray(c) for c in columns]
    n = len(cols[0]) if cols else 0
    if cols and (len(cols) != len(header) or any(len(c) != n for c in cols)):
        raise ValueError(f"{path}: {len(header)} header names over columns of lengths "
                         f"{[len(c) for c in cols]}")

    def blocks():
        yield (",".join(header) + "\n").encode("utf-8")
        for lo in range(0, n, _CSV_BLOCK_ROWS):
            block = [c[lo:lo + _CSV_BLOCK_ROWS] for c in cols]
            yield _csv_rows(block).tobytes().translate(None, b"\0")

    return _write_in_place(path, blocks())


def _csv_rows(cols) -> np.ndarray:
    """The CSV lines of `cols`, one NUL-padded uint8 row each.

    Float columns are rendered by one `floattext.render` call, bytes (`S`)
    columns written as their text and others with `str()`.  A column
    shorter than the longest, whose length divides it, repeats to fill it.
    """
    texts = list(cols)
    floats = [j for j, c in enumerate(cols) if c.dtype.kind == "f"]
    if floats:
        rendered = floattext.render(np.concatenate([cols[j] for j in floats]))[0]
        end = 0
        for j in floats:
            start, end = end, end + len(cols[j])
            texts[j] = rendered[start:end]
    for j, c in enumerate(texts):
        if c.dtype.kind != "S":
            texts[j] = np.array([str(v).encode("utf-8") for v in c.tolist()], dtype="S")
    rows = np.empty((max(len(t) for t in texts), sum(t.itemsize + 1 for t in texts)), np.uint8)
    end = 0
    for text in texts:
        start, end = end, end + text.itemsize
        rows.reshape(-1, len(text), rows.shape[1])[:, :, start:end] = \
            text.view(np.uint8).reshape(-1, text.itemsize)
        rows[:, end] = ord(",")
        end += 1
    rows[:, -1] = ord("\n")
    return rows


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

# Rows per table of stage files: the 11 files of an n = 128 sweep make one.
_TABLE_ROWS = 2048

# Stage files are written from two processes when they hold at least this
# many values in all.  After a sweep, a fork took 0.8-1.0 ms, a child's exit
# and reaping 1.3-1.5 ms, and a value about 0.3 us to render and write.  On
# a 2-vCPU Xeon VM (`sweep`, 11 stages of the exact-solution problem, 40
# alternating in-process pairs, claim queue against one process) the
# queue cost a median 1.3-2.0 ms a pair at 34 k values (n = 512), broke
# even at 51 k (n = 768: -0.0 to +0.6 ms, faster in 17 and 20 of 40 pairs)
# and saved 2.2-8.2 ms at 85 k (n = 1280, faster in 34 of 40), in two
# series on a machine whose speed drifted by half between them.
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


def _stage_units(nodes, jobs) -> list:
    """Split the `(path, result)` jobs' solution CSVs into write units.

    A unit is a function that writes its files and returns file name ->
    sha256.  The `x` column is `nodes`, the others the result's u and the
    u', u'', w and f_eps that Newton evaluated at it.  Files of at most a
    third of `_TABLE_ROWS` rows are laid out whole, up to `_TABLE_ROWS` rows
    to one `_csv_rows` table with the nodes rendered once, because a
    `floattext` block costs about 70 us beyond its values; each table is a
    unit.  A longer file is a unit of its own, streamed, with the nodes
    rendered once for all here: two to a table saved less than nodes cost.
    """
    m = len(nodes)
    if m > _TABLE_ROWS // 3:
        x = floattext.render(nodes)[0]
        return [functools.partial(_stream_stage, path, x, r) for path, r in jobs]
    group = _TABLE_ROWS // m
    return [functools.partial(_write_table, nodes, jobs[lo:lo + group])
            for lo in range(0, len(jobs), group)]


def _stream_stage(path, x, r) -> dict:
    return {path.name: write_csv(path, STAGE_HEADER, (x, r.u, r.up, r.upp, r.w, r.f))}


def _write_table(nodes, jobs) -> dict:
    m = len(nodes)
    head = (",".join(STAGE_HEADER) + "\n").encode("utf-8")
    columns = zip(*((r.u, r.up, r.upp, r.w, r.f) for _, r in jobs))
    rows = _csv_rows([nodes, *map(np.concatenate, columns)])
    return {path.name: _write_in_place(
                path, (head, rows[k * m:(k + 1) * m].tobytes().translate(None, b"\0")))
            for k, (path, _) in enumerate(jobs)}


def _write_stages(nodes, jobs) -> dict:
    """Write each `(path, result)` job's solution CSV; returns file name -> sha256."""
    return {name: digest for unit in _stage_units(nodes, jobs) for name, digest in unit().items()}


# A claim is one byte, the index of a run of units.  Every pipe holds at
# least 512 bytes (POSIX's PIPE_BUF), so the claims are written before the
# fork without blocking, however many units there are.
_MAX_CLAIMS = 256


def _claim_queue(count: int):
    """A pipe's read end holding the claims of `count` units, and each claim's units.

    Claim k is the byte k, which stands for a run of consecutive units:
    one unit each, unless there are more than `_MAX_CLAIMS`.  The write end
    is closed, so a read returns one claim, or nothing once every claim is
    taken; a one-byte read takes a claim whole, whichever process reads.
    """
    claims = min(count, _MAX_CLAIMS)
    runs = [range(k * count // claims, (k + 1) * count // claims) for k in range(claims)]
    read_fd, write_fd = os.pipe()
    try:
        os.write(write_fd, bytes(range(claims)))
    finally:
        os.close(write_fd)
    return read_fd, runs


def _take_units(queue: int, runs, units) -> dict:
    """Write the units of each claim taken from `queue` until it is empty;
    returns file name -> sha256."""
    files = {}
    while claim := os.read(queue, 1):
        for k in runs[claim[0]]:
            files.update(units[k]())
    return files


@contextmanager
def _writing_stages(outdir: Path, stages):
    """Write every stage's `solution_stageNN.csv`; yield the file name -> sha256 record.

    The block adds its own files to the record, which holds every stage
    file once the `with` statement is left.  The package's one fork: with
    two or more stages, at least `_SPLIT_MIN_VALUES` values, os.fork and a
    second CPU, the write units (`_stage_units`) go into a claim queue
    (`_claim_queue`) and a child takes units from it as soon as it starts,
    while this process runs the block and then takes what is left;
    otherwise this process writes every stage file before the block.  So
    the faster writer writes more, whichever CPU is busier.  The child's
    error is raised here with its type and message, and a child that sends
    no result makes this raise RuntimeError.  Leaving the block kills the
    child, if it still runs, and reaps it.
    """
    nodes = stages[0][0].grid.nodes
    jobs = [(outdir / f"solution_stage{k:02d}.csv", result) for k, (_, result) in enumerate(stages)]
    if not (len(stages) > 1 and len(STAGE_HEADER) * len(nodes) * len(stages) >= _SPLIT_MIN_VALUES
            and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        yield _write_stages(nodes, jobs)
        return
    units = _stage_units(nodes, jobs)
    queue, runs = _claim_queue(len(units))
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
                result = _take_units(queue, runs, units)
            except BaseException as exc:
                result = exc
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
        files = {}
        yield files
        files.update(_take_units(queue, runs, units))
        data = reader.read()
        if not data:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped = True
            raise RuntimeError(f"child process ended without a result (exit status {code})")
        result = pickle.loads(data)
        if isinstance(result, BaseException):
            raise result
        files.update(result)
    finally:
        os.close(queue)
        reader.close()
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_sweep(cfg: RunConfig, setup, outdir: Path, then=None):
    """Shared sweep pipeline from the first stage's setup; returns (exit_code, run).

    `run` is as `_finish` takes it.  With fewer than `MIN_FIT_STAGES`
    converged stages, `rates.csv` holds its header alone, no `bounds.json`
    is written, and one warning says so.  `then(stages, reports, run)`, if
    given, is the command's own work once every stage has converged, with
    the converged stages' `EstimateReport`s; it returns the exit code.  It
    runs inside `_writing_stages`, after the reports, so that a stage
    writer child writes while it runs; its time is not counted in
    `wall_clock_seconds.write`.
    """
    schedule = cfg.schedule()
    t0 = time.perf_counter()
    stages = continuation_sweep(setup, schedule, cfg.tolerances)
    t1 = time.perf_counter()
    all_converged = len(stages) == len(schedule) and all(r.converged for _, r in stages)
    code = EXIT_OK if all_converged else EXIT_SOLVER
    seconds = {"sweep": t1 - t0}
    run = {"wall_clock_seconds": seconds}
    own = 0.0

    with _writing_stages(outdir, stages) as files:
        run["files"] = files
        reports = [compute_report(r, s) for s, r in stages if r.converged]
        header = [f.name for f in fields(EstimateReport)]
        files["sweep.csv"] = write_csv(outdir / "sweep.csv", header,
                                       [[getattr(r, name) for r in reports] for name in header])

        fitted = len(reports) >= MIN_FIT_STAGES
        rate_rows = []
        if fitted:
            for name in RATE_FIELDS:
                fit = fit_rate(reports, name)
                rate_rows.append((name, fit.slope, fit.r2, fit.stages,
                                  "yes" if fit.identically_small else "no"))
        files["rates.csv"] = write_csv(outdir / "rates.csv",
                                       ("quantity", "slope", "r2", "stages", "identically_small"),
                                       list(zip(*rate_rows)))

        if fitted:
            files["bounds.json"] = write_json(outdir / "bounds.json",
                                              check_theorem_bounds(reports))
        else:
            log.warning("bound checks skipped: need >= %d stages for bound checks, got %d",
                        MIN_FIT_STAGES, len(reports))
        if then is not None and all_converged:
            t2 = time.perf_counter()
            code = then(stages, reports, run)
            own = time.perf_counter() - t2
    seconds["write"] = time.perf_counter() - t1 - own
    run["stages"] = [_stage_entry(setup, result) for setup, result in stages]

    if not all_converged:
        log.error("sweep stopped at stage %d of %d", len(stages), len(schedule))
    return code, run


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
    return _run_sweep(cfg, setup, outdir)


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
    def oracle_step(stages, reports, run):
        # Every stage shares the first stage's grid, Lagrangian and obstacle,
        # which is all the minimizer reads.
        t0 = time.perf_counter()
        oracle = minimize_direct(setup)
        run["wall_clock_seconds"]["oracle"] = time.perf_counter() - t0
        run["oracle"] = _oracle_entry(oracle)
        last, result = stages[-1]
        g = last.grid
        if oracle.kkt_residual > cfg.tolerances.kkt_tol:
            log.error("oracle failed: KKT residual %.3e > %.3e",
                      oracle.kkt_residual, cfg.tolerances.kkt_tol)
            return EXIT_ORACLE

        diff = np.abs(result.u - oracle.v)
        files = run["files"]
        files["compare.csv"] = write_csv(outdir / "compare.csv",
                                         ("x", "u_abreu_smallest_eps", "u_direct", "abs_diff"),
                                         (g.nodes, result.u, oracle.v, diff))

        width = g.b - g.a
        inner = (g.nodes >= g.a + 0.1 * width) & (g.nodes <= g.b - 0.1 * width)
        J_abreu = reports[-1].J_val
        summary = {
            "eps_smallest": last.eps,
            "sup_diff_inner_window": float(np.max(diff[inner])),
            "J_abreu": J_abreu,
            "J_direct": oracle.J_value,
            "J_abs_diff": abs(J_abreu - oracle.J_value),
            "oracle_kkt_residual": oracle.kkt_residual,
        }
        files["compare_summary.json"] = write_json(outdir / "compare_summary.json", summary)
        return EXIT_OK

    return _run_sweep(cfg, setup, outdir, oracle_step)


@_command(check=_bumps_fit)
def verify(cfg, setup, outdir):
    """Weak-form residual of the limiting Euler-Lagrange identity."""
    def weak_form(stages, reports, run):
        last, result = stages[-1]
        family = default_family(last.grid)
        w_resc = rescaled_w(result, last)
        max_res, per_bump = distributional_residual(w_resc, result.u, last, family, result.up)
        files = run["files"]
        files["el_residuals.csv"] = write_csv(outdir / "el_residuals.csv",
                                              ("center", "radius", "residual"),
                                              (family.centers, family.radii, per_bump))
        tol = cfg.tolerances.el_residual_tol
        files["verify_summary.json"] = write_json(outdir / "verify_summary.json", {
            "eps": last.eps,
            "max_residual": max_res,
            "tolerance": tol,
            "status": "PASS" if max_res <= tol else "FAIL",
        })
        return EXIT_OK

    return _run_sweep(cfg, setup, outdir, weak_form)


if __name__ == "__main__":
    main()
