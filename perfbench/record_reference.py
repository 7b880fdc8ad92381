"""Record the reference outputs and per-command counts of every workload.

Run from the repository root, at the commit whose outputs the benchmark's
correctness gate should accept:

    python3 perfbench/record_reference.py
"""

import json
import shutil
import sys

import checks
import run


def main() -> int:
    cli = run.import_program()
    import tracer  # imports abreu1d, so only after import_program

    for name, command in run.WORKLOADS.items():
        outdir = run.OUT / "record-reference" / name
        shutil.rmtree(outdir, ignore_errors=True)
        outdir.mkdir(parents=True)
        config = run.config_path(name)
        code = run.invoke(cli, command, config, outdir)
        manifest = json.loads((outdir / "manifest.json").read_text(encoding="utf-8"))
        if code != 0 or not all(s["converged"] for s in manifest["stages"]):
            print(f"{name}: exit code {code} or unconverged stages; nothing recorded", file=sys.stderr)
            return 1
        outputs = checks.read_outputs(outdir, command)

        t = tracer.Tracer()
        t.install()
        try:
            t.run_command(lambda: run.invoke(cli, command, config, outdir))
        finally:
            t.restore()
        layers = t.per_command()[0]
        reference = {
            "outputs": outputs,
            "counts": {k: layers[k] for k in run.REPEAT_COUNTS},
        }
        run.reference_path(name).write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
        print(name, reference["counts"])
    return 0


if __name__ == "__main__":
    sys.exit(main())
