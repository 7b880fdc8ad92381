"""Spans around the calls into abreu1d's modules, recorded from outside them.

`Tracer.install` replaces the module attributes that callers look up
(`abreu1d.solver.jacobian`, each module's imported `d1`, ...) with wrappers
that record one span per call: name, start, end, parent and trace id.  Spans
are kept in flat in-memory arrays and summarised or saved when the run ends.
`Tracer.restore` puts every original object back; `find_wrapped` checks
that nothing is left wrapped.
"""

import dataclasses
import os
from array import array
from collections import defaultdict
from time import perf_counter_ns

import numpy as np

import abreu1d.cli as cli
import abreu1d.config as config
import abreu1d.diagnostics as diagnostics
import abreu1d.grid as grid
import abreu1d.minimizer as minimizer
import abreu1d.solver as solver
import abreu1d.weakform as weakform

MARK = "_perfbench_span"

LAGRANGIAN_CALLBACKS = (
    "f0", "f0_z", "f0_zz", "f1", "f1_p", "f1_pp", "f1_px", "f1_pxp", "f1_ppp",
)

ROOT_SPAN = "command"


def _record_sweep(tracer, args, stages):
    tracer.count("solver.newton_iters", sum(r.newton_iters for _, r in stages))
    tracer.count("solver.stages_converged", sum(bool(r.converged) for _, r in stages))
    tracer.count("solver.stages_run", len(stages))


def _record_minimizer(tracer, args, result):
    tracer.count("minimizer.iters", result.iters)
    tracer.count("minimizer.kkt_residual", result.kkt_residual)


def _record_csv_bytes(tracer, args, _):
    tracer.count("cli.write_csv.bytes", os.path.getsize(args[0]))


def targets():
    """(owner, attribute, span name, result hook) for every wrapped attribute."""
    out = [
        (solver, "jacobian", "solver.jacobian", None),
        (solver, "residual", "solver.residual", None),
        (solver, "solve_banded", "solver.banded_solve", None),
        (cli, "continuation_sweep", "solver", _record_sweep),
        (cli, "minimize_direct", "minimizer", _record_minimizer),
        (cli, "compute_report", "diagnostics.compute_report", None),
        (cli, "fit_rate", "diagnostics.fit_rate", None),
        (cli, "check_theorem_bounds", "diagnostics.check_theorem_bounds", None),
        (cli, "default_family", "weakform.default_family", None),
        (cli, "rescaled_w", "weakform.rescaled_w", None),
        (cli, "distributional_residual", "weakform.distributional_residual", None),
        (cli, "load_config", "config.load_config", None),
        (config.RunConfig, "build_setup", "config.build_setup", None),
        (cli, "write_csv", "cli.write_csv", _record_csv_bytes),
        (cli, "write_json", "cli.write_json", None),
    ]
    for mod in (cli, solver, minimizer, diagnostics, weakform):
        for fn in ("d1", "d2", "integrate"):
            if getattr(mod, fn, None) is getattr(grid, fn):
                out.append((mod, fn, f"grid.{fn}", None))
    return out


def find_wrapped() -> list[str]:
    """Names of abreu1d attributes that still hold a span wrapper."""
    owners = (cli, config, config.RunConfig, diagnostics, grid, minimizer, solver, weakform)
    return [
        f"{getattr(o, '__name__', o)}.{name}"
        for o in owners
        for name, value in vars(o).items()
        if hasattr(value, MARK)
    ]


class Tracer:
    """Records spans in flat arrays; one trace id per CLI command."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.trace = array("q")
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.trace_id = -1
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.trace.append(self.trace_id)
        self.start.append(perf_counter_ns())
        self.end.append(0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, on_result=None):
        nid = self._name_id(name)

        def wrapped(*args, **kwargs):
            idx = self._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(self, args, out)
            return out

        setattr(wrapped, MARK, name)
        wrapped.__wrapped__ = fn
        return wrapped

    def count(self, key: str, value: float) -> None:
        self.counts[self.trace_id][key] += value

    def run_command(self, fn):
        """Call fn() under a new trace id and root span; returns fn's result."""
        self.trace_id += 1
        idx = self._open(self._name_id(ROOT_SPAN))
        try:
            return fn()
        finally:
            self._close(idx)

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, hook in targets():
            self._patch(owner, attr, self.wrap(name, vars(owner)[attr], hook))

        build_lagrangian = vars(config.RunConfig)["build_lagrangian"]

        def traced_build_lagrangian(cfg, g):
            spec = build_lagrangian(cfg, g)
            return dataclasses.replace(spec, **{
                f: self.wrap(f"lagrangian.{f}", getattr(spec, f)) for f in LAGRANGIAN_CALLBACKS
            })

        setattr(traced_build_lagrangian, MARK, "lagrangian")
        self._patch(config.RunConfig, "build_lagrangian", traced_build_lagrangian)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summarising -------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "start_ns": np.array(self.start, dtype=np.int64),
            "end_ns": np.array(self.end, dtype=np.int64),
            "parent": np.array(self.parent, dtype=np.int64),
            "trace_id": np.array(self.trace, dtype=np.int64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def per_command(self) -> list[dict[str, float]]:
        """Per-layer metrics of each traced command, in trace-id order."""
        a = self.arrays()
        dur = (a["end_ns"] - a["start_ns"]) / 1e9
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur))
        self_s = dur - child
        k = len(self.names)
        out = []
        for t in range(self.trace_id + 1):
            sel = a["trace_id"] == t
            ids = a["name_id"][sel]
            calls = np.bincount(ids, minlength=k)
            total = np.bincount(ids, weights=dur[sel], minlength=k)
            own = np.bincount(ids, weights=self_s[sel], minlength=k)
            spans = {n: (int(calls[i]), float(total[i]), float(own[i])) for i, n in enumerate(self.names)}
            out.append(layer_metrics(spans, self.counts[t]))
        return out


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def layer_metrics(spans: dict[str, tuple[int, float, float]], counts) -> dict[str, float]:
    """Per-layer metrics of one command.

    spans maps a span name to (calls, total seconds, self seconds); a layer
    is a name together with every name under it ("grid" covers "grid.d1").
    Spans of one layer never nest, so their total seconds add up.
    """
    def pick(layer):
        return [v for n, v in spans.items() if n == layer or n.startswith(layer + ".")]

    def calls(layer):
        return sum(v[0] for v in pick(layer))

    def secs(layer):
        return sum(v[1] for v in pick(layer))

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    counts = defaultdict(float, counts)
    jac_calls, jac_s = calls("solver.jacobian"), secs("solver.jacobian")
    res_calls = calls("solver.residual")
    iters = counts["solver.newton_iters"]
    min_iters, min_s = counts["minimizer.iters"], secs("minimizer")
    return {
        "grid.d1.calls": calls("grid.d1"),
        "grid.d2.calls": calls("grid.d2"),
        "grid.integrate.calls": calls("grid.integrate"),
        "grid.s": secs("grid"),
        "lagrangian.calls": calls("lagrangian"),
        "lagrangian.s": secs("lagrangian"),
        "solver.newton_iters": int(iters),
        "solver.stages_converged": int(counts["solver.stages_converged"]),
        "solver.jacobian.calls": jac_calls,
        "solver.jacobian.s": jac_s,
        "solver.jacobian.ms_per_call": _ratio(jac_s, jac_calls, 1e3),
        "solver.residual.calls": res_calls,
        "solver.residual.s": secs("solver.residual"),
        "solver.banded_solve.calls": calls("solver.banded_solve"),
        "solver.banded_solve.s": secs("solver.banded_solve"),
        "solver.residual_calls_per_iter": _ratio(res_calls - counts["solver.stages_run"], iters),
        "solver.self_s": own("solver"),
        "minimizer.calls": calls("minimizer"),
        "minimizer.iters": int(min_iters),
        "minimizer.s": min_s,
        "minimizer.ms_per_iter": _ratio(min_s, min_iters, 1e3),
        "minimizer.kkt_residual": counts["minimizer.kkt_residual"],
        "diagnostics.calls": calls("diagnostics"),
        "diagnostics.s": secs("diagnostics"),
        "weakform.s": secs("weakform"),
        "config.s": secs("config"),
        "cli.write_csv.calls": calls("cli.write_csv"),
        "cli.write_csv.s": secs("cli.write_csv"),
        "cli.write_csv.bytes": int(counts["cli.write_csv.bytes"]),
        "cli.write_json.s": secs("cli.write_json"),
        "cli.self_s": own(ROOT_SPAN),
    }
