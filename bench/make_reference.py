"""Write bench/reference.json: the exact values the benchmark checks against.

Usage (from the repository root): python3 bench/make_reference.py

Run it on the commit whose numbers are the reference.  It evaluates every
exact result the workloads produce, through the same calls: the
exact-sweep CLI commands at auto-refined orders ("auto", "constants") and
the small-n library calls at the frozen orders ("frozen").  Monte Carlo
and adaptive results are checked against these exact values, so they need
no entries of their own.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import run


def main() -> None:
    load_start = os.getloadavg()
    _, ctx = run.setup()
    from blochest import cli, evaluator
    from blochest.schemes import SchemeKind, SchemeSpec

    ref = {"environment": run.environment(load_start), "auto": {}, "constants": {}, "frozen": {}}
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT, prefix="tmp-") as tmp:
        for label, argv, expect in run.cli_argvs():
            out = Path(tmp) / label
            status = cli.main(argv + ["--out", str(out)])
            if status != 0:
                raise SystemExit(f"{label}: exit status {status}")
            if expect is None:
                ref["constants"] = json.loads(out.read_text())
                continue
            scheme, estimator, _ = expect
            for row in run.read_csv_rows(out, cli.CSV_HEADER):
                ref["auto"][run._key(scheme, estimator, int(row["n"]))] = _entry(
                    row["fidelity"], row["discarded_fraction"]
                )

    radial, angular = run.FROZEN_ORDERS
    for scheme, estimator, n, prior in run.small_n_plan(ctx):
        spec = SchemeSpec(SchemeKind(scheme), n)
        try:
            report = evaluator.exact_fidelity(
                spec, estimator, prior, radial_order=radial, angular_order=angular
            )
        except evaluator.AllOutcomesDiscardedError:
            continue
        ref["frozen"][run._key(scheme, estimator, n)] = _entry(
            report.fidelity, report.discarded_fraction
        )

    path = run.BENCH / "reference.json"
    path.write_text(json.dumps(ref, indent=1) + "\n")
    print(f"wrote {len(ref['auto']) + len(ref['frozen'])} fidelities to {path.relative_to(run.ROOT)}")


def _entry(fidelity, discarded_fraction) -> dict:
    entry = {"fidelity": fidelity}
    if discarded_fraction is not None:
        entry["discarded_fraction"] = discarded_fraction
    return entry


if __name__ == "__main__":
    main()
