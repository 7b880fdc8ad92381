"""Command-line front end: solve / sweep / compare / verify.

Exit codes: 0 success, 1 configuration error, 2 solver nonconvergence,
3 oracle failure, 4 output error (an artifact could not be written; one
error line names the file, and no manifest is written).  `_command` is the
one place that picks the exit code: each command returns its code and its
manifest record, and `_command` writes the manifest last, then exits.
Tabular outputs are CSV, all written by `write_csv` with one formatting
rule: comma separator, floats as `%.17g` (`_FLOAT_FORMAT`), other values as
`str()`, LF line endings, UTF-8.  Manifests and summaries are JSON.
`write_csv` and `write_json` return the sha256 of the bytes they wrote, and
the manifest lists those digests for every other file the command wrote;
no artifact is read back.

Work that can run beside the command goes to a forked child through
`_in_child`.  `compare` runs the convex-cone oracle in a child while the
sweep runs in this process.  With two or more stages and at least
`_SPLIT_MIN_VALUES` stage-file values, each command forks a writer child
for stages 00, 02, ... (the larger half when the count is odd) while it
writes the others and its summary files.  Below the threshold only
`compare` shares those stages, with its oracle child: the child writes
each one it takes once its oracle is done, and the command takes what is
left after its own stages and summary files, so that it writes them all
when the oracle is the slower side.  Each child is reaped before the
command writes anything that depends on it.  Machines with one CPU, or
without os.fork, run that work in the command's process.
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
from contextlib import contextmanager, suppress
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import click
import numpy as np

from . import __version__
from .config import ConfigError, RunConfig, load_config
from .diagnostics import EstimateReport, check_theorem_bounds, compute_report, fit_rate
from .grid import d1, d2
from .minimizer import minimize_direct
from .solver import continuation_sweep, eval_J, f_eps, layer_beta_h, load_dgbsv, newton_solve
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


# Rows per `%` call.  At n = 8192, 1024 rows was no faster than 512 and
# raised the process's peak RSS by about 0.6 MB.
_CSV_BLOCK_ROWS = 512

# How `write_csv` writes a float, and how `_writing_stages` renders grid nodes.
_FLOAT_FORMAT = "%.17g"


def write_csv(path: Path, header, columns) -> str:
    """Write equal-length `columns` under `header`; no columns writes the header alone.

    A column that numpy reads as a float array is written with
    `_FLOAT_FORMAT`, any other column with `str()`.  Each block of rows is
    formatted by one `%`.  Returns the sha256 hex digest of the bytes written.
    """
    cols = [np.asarray(c) for c in columns]
    width = len(cols)
    n = len(cols[0]) if cols else 0
    row = ",".join(_FLOAT_FORMAT if c.dtype.kind == "f" else "%s" for c in cols) + "\n"

    def blocks():
        yield ",".join(header) + "\n"
        for lo in range(0, n, _CSV_BLOCK_ROWS):
            hi = min(lo + _CSV_BLOCK_ROWS, n)
            values = [None] * ((hi - lo) * width)
            for j, c in enumerate(cols):
                values[j::width] = c[lo:hi].tolist()
            yield (row * (hi - lo)) % tuple(values)

    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for text in blocks():
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)
    return digest.hexdigest()


def write_json(path: Path, doc) -> str:
    """Write `doc` as indented JSON through a temporary file; returns the sha256 of its bytes."""
    data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
    os.replace(tmp, path)
    return hashlib.sha256(data).hexdigest()


def _finish(outdir: Path, cfg: RunConfig, run: dict) -> None:
    """Write manifest.json after the command's last artifact.

    `run` holds "stages", "wall_clock_seconds" and "files", each artifact's
    name -> sha256 as its writer returned it.
    """
    write_json(outdir / "manifest.json", {"tool_version": __version__, "config": cfg.to_dict(), **run})


STAGE_HEADER = ("x", "u", "u_prime", "u_pp", "w", "f_eps")

# Stage files are written from two processes when they hold at least this
# many values in all.  The fork costs a few ms and each float value about
# 0.6 us to format.  On a 2-vCPU Xeon VM (11 stages of the exact-solution
# problem) the split broke even between 17 k and 25 k values, saved 20 % of
# the write time at 34 k and 44 % at 540 k (n = 8192), and cost 1-2 ms at
# 8.5 k (n = 128).  The child writes the larger half, stages 00, 02, ...,
# because this process goes on to write the summary files.
_SPLIT_MIN_VALUES = 25_000


def _stage_entry(setup, result) -> dict:
    """A stage's manifest entry: the Newton record and the boundary layer's beta * h."""
    return {
        "eps": setup.eps,
        "converged": result.converged,
        "newton_iters": result.newton_iters,
        "final_residual": result.residual_norms[-1],
        "residual_norms": result.residual_norms,
        "min_upps": result.min_upps,
        "step_norms": result.step_norms,
        "step_lengths": result.step_lengths,
        "halvings": result.halvings,
        "beta_h": layer_beta_h(setup),
    }


def _write_stages(nodes, jobs) -> dict:
    """Write each `(path, setup, result)` job's solution CSV; returns file name -> sha256.

    `nodes` is the `x` column of every job, as `write_csv` takes a column.
    """
    digests = {}
    for path, setup, result in jobs:
        g, u = setup.grid, result.u
        upp = d2(u, g)
        digests[path.name] = write_csv(path, STAGE_HEADER,
                                       (nodes, u, d1(u, g), upp, result.w, f_eps(u, upp, setup)))
    return digests


def _node_strings(grid) -> np.ndarray:
    """The grid's nodes as `write_csv` writes them, rendered once for many stage files."""
    return np.array([_FLOAT_FORMAT % x for x in grid.nodes.tolist()], dtype=object)


@contextmanager
def _writing_stages(outdir: Path, stages, other=None):
    """Write every stage's `solution_stageNN.csv`; yield the file name -> sha256 record.

    The block adds its own files to the record, which holds every stage
    file once the `with` statement is left.  The stages' nodes are rendered
    once, before any write.  With two or more stages and at least
    `_SPLIT_MIN_VALUES` values, `_in_child` writes stages 00, 02, ... while
    this process writes the others and then runs the block, so the child's
    exit overlaps the block's writes.  One stage has nothing to split, so
    this process writes it without a fork.

    `other`, if given, is the `_Child` of `compare`'s oracle, and is always
    shared a list of `(path, eps, result)` jobs, empty with one stage or at
    or above the threshold.  Below it, the list is stages 00, 02, ...:
    this process writes the others, runs the block and then takes what is
    left of the list, one stage at a time, while `other` takes them once
    its oracle is done.  The record lacks the stages `other` took; it
    returns their digests with its value.
    """
    nodes = _node_strings(stages[0][0].grid)
    jobs = [(outdir / f"solution_stage{k:02d}.csv", setup, result)
            for k, (setup, result) in enumerate(stages)]
    if len(stages) > 1 and len(STAGE_HEADER) * len(nodes) * len(stages) >= _SPLIT_MIN_VALUES:
        if other is not None:
            other.share([])
        with _in_child(_write_stages, nodes, jobs[::2]) as child:
            files = _write_stages(nodes, jobs[1::2])
            yield files
            files.update(child.wait())
        return
    if other is None:
        yield _write_stages(nodes, jobs)
        return
    # One stage is not shared.  With two or more, the shared list's arrays
    # take under 47 kB below the threshold, and its pickle fits the 64 KiB
    # pipe buffer up to about 60 stages, so `share` does not wait for the
    # oracle.  A setup holds the Lagrangian's closures, which do not pickle,
    # so each job goes as its eps, and `_oracle` rebuilds the setup.
    theirs = jobs[::2] if len(jobs) > 1 else []
    other.share([(path, setup.eps, result) for path, setup, result in theirs])
    files = _write_stages(nodes, jobs[1::2] if theirs else jobs)
    yield files
    while (k := other.take()) is not None:
        files.update(_write_stages(nodes, [theirs[k]]))


class _Child(NamedTuple):
    """The handle `_in_child` yields."""

    share: Callable  # share(items) passes the child the list to share out
    take: Callable  # take() returns the index of an item this process takes, or None
    wait: Callable  # wait() returns the child's value


def _claims(fd):
    """Indices read from the non-blocking pipe `fd`, 4 bytes each, until it is empty.

    A pipe read is atomic, so two processes that read one pipe never get
    the same index.
    """
    while True:
        try:
            token = os.read(fd, 4)
        except BlockingIOError:
            return
        yield int.from_bytes(token, "little")


_NOTHING_SHARED = "the child's value was awaited before its list was shared"


@contextmanager
def _in_child(fn, *args, shares=False):
    """Start fn(*args) in a forked child; yield its `_Child` handle.

    `wait()` returns what fn returned, or raises the exception that fn raised,
    with the same type and message; a child that ends without sending a
    result (one that was killed, say) makes it raise RuntimeError.

    With `shares`, fn is called as fn(*args, shared).  The command passes a
    list after the fork with `share(items)`, once.  `shared()` waits for it
    and returns it with an iterator over the indices of the items the child
    takes; the command takes the others with `take()`.  Each index goes to
    whichever process asks for it first.  `share` writes every index, in 4
    bytes, before the list; a pipe buffer (64 KiB on Linux) holds 16 384 of
    them.  It returns once the pipe has taken the list's pickle: at once
    below that buffer, else when the child reads it.
    `wait` closes the list's pipe first, so a `shared()` with no list raises
    EOFError.  Share before starting another child, which would hold the
    pipe open.

    The child is killed, if it still runs, and reaped when the `with` block
    is left.  Without os.fork or a second CPU to run on, `wait()` calls fn in
    this process, so `take()` gets every index that is asked for before it.
    """
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2):
        inline = []

        def share_inline(items):
            inline.extend((items, iter(range(len(items)))))

        def shared_inline():
            if not inline:
                raise EOFError(_NOTHING_SHARED)
            return inline

        yield _Child(share_inline, lambda: next(inline[1], None),
                     lambda: fn(*args, shared_inline) if shares else fn(*args))
        return
    read_fd, write_fd = os.pipe()
    receive_fd, send_fd = os.pipe()
    claim_fd, offer_fd = os.pipe()
    os.set_blocking(claim_fd, False)
    pid = os.fork()
    # The child sends the pickled (ok, value) through one pipe and never
    # returns; it reads what `share` pickles from another and takes indices
    # from the third.  numpy's OpenBLAS, and the second copy that scipy's
    # LAPACK brings in on the first banded solve, each stop their thread
    # pool before a fork and start it again in either process when needed.
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            os.close(send_fd)

            def shared():
                with os.fdopen(receive_fd, "rb") as fh:
                    data = fh.read()
                if not data:
                    raise EOFError(_NOTHING_SHARED)
                return pickle.loads(data), _claims(claim_fd)

            try:
                result = (True, fn(*args, shared) if shares else fn(*args))
            except BaseException as exc:
                result = (False, exc)
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(pickle.dumps(result))
            status = 0
        finally:
            os._exit(status)

    os.close(write_fd)
    os.close(receive_fd)
    reader = os.fdopen(read_fd, "rb")
    sender = os.fdopen(send_fd, "wb")
    claims = _claims(claim_fd)
    reaped = False

    # A child that has ended, by an exception or a kill, has closed its end;
    # `wait` then says how it ended.
    def share(items):
        os.write(offer_fd, b"".join(k.to_bytes(4, "little") for k in range(len(items))))
        with suppress(BrokenPipeError), sender:
            sender.write(pickle.dumps(items))

    # A child that has sent its result still takes about 2 ms to exit (a
    # 2-vCPU Xeon VM, n = 128 compare), so `wait` reaps only a child that
    # sent none, and the block's end reaps the others.
    def wait():
        nonlocal reaped
        sender.close()
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
        yield _Child(share, lambda: next(claims, None), wait)
    finally:
        reader.close()
        sender.close()
        os.close(claim_fd)
        os.close(offer_fd)
        if not reaped:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _run_sweep(cfg: RunConfig, setup, outdir: Path, other=None):
    """Shared sweep pipeline from the first stage's setup.

    Returns (exit_code, stages, run), with `run` as `_finish` takes it.
    `other`, the `_Child` of compare's oracle, is `_writing_stages`'s other
    writer when every stage converged; a failed sweep's command does not
    wait for it, so this process then writes every stage file.
    """
    schedule = cfg.schedule()
    t0 = time.perf_counter()
    stages = continuation_sweep(setup, schedule, cfg.tolerances)
    elapsed = time.perf_counter() - t0
    all_converged = len(stages) == len(schedule) and all(r.converged for _, r in stages)

    with _writing_stages(outdir, stages, other if all_converged else None) as files:
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
    stage_meta = [_stage_entry(setup, result) for setup, result in stages]

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
    files = _write_stages(setup.grid.nodes, [(outdir / "solution.csv", setup, result)])
    if not result.converged:
        log.error("Newton did not converge (final residual %.3e)", result.residual_norms[-1])
    run = {"stages": [_stage_entry(setup, result)], "wall_clock_seconds": {"solve": elapsed}, "files": files}
    return (EXIT_OK if result.converged else EXIT_SOLVER), run


@_command()
def sweep(cfg, setup, outdir):
    """Continuation sweep over the eps schedule with diagnostics."""
    code, _, run = _run_sweep(cfg, setup, outdir)
    return code, run


def _oracle(setup, shared):
    """The direct minimizer's result, its own wall time and the stage files' digests.

    The stage files are those of the `(path, eps, result)` jobs that
    `shared()` gives once the minimizer is done, as `_writing_stages` shares
    them, and that this process takes.  Every stage shares the first
    stage's grid, Lagrangian and obstacle, so the minimizer, which needs
    nothing else, runs beside the sweep.
    """
    t0 = time.perf_counter()
    oracle = minimize_direct(setup)
    elapsed = time.perf_counter() - t0
    jobs, taken = shared()
    nodes, written = None, {}
    for k in taken:
        if nodes is None:
            nodes = _node_strings(setup.grid)
        path, eps, result = jobs[k]
        written.update(_write_stages(nodes, [(path, replace(setup, eps=eps), result)]))
    return oracle, elapsed, written


@_command()
def compare(cfg, setup, outdir):
    """Run the sweep and the direct minimizer, report their agreement."""
    # Both processes solve banded systems: load LAPACK once, before the fork.
    load_dgbsv()
    with _in_child(_oracle, setup, shares=True) as oracle_child:
        code, stages, run = _run_sweep(cfg, setup, outdir, oracle_child)
        if code != EXIT_OK:
            return code, run
        oracle, run["wall_clock_seconds"]["oracle"], written = oracle_child.wait()
        # the child has sent its result; it is reaped when the block is left
        files = run["files"]
        files.update(written)
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
        J_abreu = eval_J(result.u, g, setup.lagrangian)
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
    code, stages, run = _run_sweep(cfg, setup, outdir)
    if code != EXIT_OK:
        return code, run
    setup, result = stages[-1]
    family = default_family(setup.grid)
    w_resc = rescaled_w(result, setup)
    max_res, per_bump = distributional_residual(w_resc, result.u, setup, family)
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
