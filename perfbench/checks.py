"""Output correctness gate for one benchmark command.

A command passes when it exited 0, every manifest stage converged, the
oracle met its KKT tolerance (compare), and the numeric fields of
`sweep.csv` and of the command's summary JSON match the reference values
recorded at the seed commit within |x - ref| <= ATOL + RTOL * |ref|.

The tolerance, not byte equality, is the contract: reordered arithmetic
(for example a banded Jacobian assembly) moves these fields by about 1e-12
relative, while a wrong answer moves them by far more than RTOL.
"""

import csv
import json
import math
from pathlib import Path

RTOL = 1e-6
ATOL = 1e-10

# The file each command summarises into, beside sweep.csv.
SUMMARY_FILE = {"sweep": None, "compare": "compare_summary.json", "verify": "verify_summary.json"}

# Roundoff-level fields: compared with the KKT tolerance, not the reference.
UNREFERENCED = {"oracle_kkt_residual"}

CHECKED_FILES = ("manifest.json", "sweep.csv", "compare_summary.json", "verify_summary.json")


def read_sweep_csv(path: Path) -> dict:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return {"header": rows[0], "rows": [[float(v) for v in row] for row in rows[1:]]}


def read_outputs(outdir: Path, command: str) -> dict:
    """The reference-checked outputs of one command, parsed."""
    out = {"sweep.csv": read_sweep_csv(outdir / "sweep.csv")}
    summary = SUMMARY_FILE[command]
    if summary:
        out[summary] = json.loads((outdir / summary).read_text(encoding="utf-8"))
    return out


def _close(value: float, ref: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= ATOL + RTOL * abs(ref)


def compare_outputs(got: dict, ref: dict) -> list[str]:
    """Differences between parsed outputs and the reference, as messages."""
    errors = []
    g, r = got["sweep.csv"], ref["sweep.csv"]
    if g["header"] != r["header"] or len(g["rows"]) != len(r["rows"]):
        errors.append(f"sweep.csv: shape {len(g['rows'])} rows x {g['header']} "
                      f"!= reference {len(r['rows'])} rows x {r['header']}")
    else:
        for i, (grow, rrow) in enumerate(zip(g["rows"], r["rows"])):
            for name, gv, rv in zip(r["header"], grow, rrow):
                if not _close(gv, rv):
                    errors.append(f"sweep.csv row {i} {name}: {gv!r} != reference {rv!r}")
    for fname in set(ref) - {"sweep.csv"}:
        g, r = got.get(fname, {}), ref[fname]
        for key, rv in r.items():
            if key in UNREFERENCED:
                continue
            gv = g.get(key)
            ok = _close(gv, rv) if isinstance(rv, float) and isinstance(gv, (int, float)) else gv == rv
            if not ok:
                errors.append(f"{fname} {key}: {gv!r} != reference {rv!r}")
    return errors


def check_command(outdir: Path, command: str, exit_code, reference: dict, kkt_tol: float) -> list[str]:
    """Every reason the command's run counts as failed; empty when it passed."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    errors = []
    try:
        manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
        stages = manifest["stages"]
        bad = [i for i, s in enumerate(stages) if not s["converged"]]
        if bad or len(stages) != len(reference["sweep.csv"]["rows"]):
            errors.append(f"manifest: {len(stages)} stages, not converged at {bad}")
        got = read_outputs(outdir, command)
    except (OSError, KeyError, ValueError, IndexError) as exc:
        return errors + [f"unreadable output: {exc!r}"]
    if command == "compare":
        kkt = got["compare_summary.json"].get("oracle_kkt_residual")
        if not isinstance(kkt, float) or not kkt <= kkt_tol:
            errors.append(f"oracle_kkt_residual {kkt!r} > kkt_tol {kkt_tol!r}")
    return errors + compare_outputs(got, reference)
