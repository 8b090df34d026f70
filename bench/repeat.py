"""Run the benchmark over several seeds and report each metric's median and spread.

Usage (from the repository root):

    python3 bench/repeat.py --seeds 1-10 [--workloads exact-sweep,small-n]
                            [--trace 0|1] [--out bench/baseline.json]

Each run is ``python3 bench/run.py --workload W --seed S --seconds T --trace X``
with T from BENCHMARK.json.  For every metric the summary gives the median,
the first and third quartiles as ``statistics.quantiles(values, n=4)``
returns them, and the spread (q3 - q1) / median.  An end-to-end metric whose
spread exceeds its bound, or a third of it, is flagged.  Runs are sequential,
one process at a time.  ``--out`` merges the summary into a JSON file under
the key ``trace0`` or ``trace1``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_TIMEOUT_S = 900


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=RUN_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(l.split(" ", 1)[1]) for l in lines if l.startswith("environment "))
    result["loaded"] = env["loaded"]
    result["seed"] = seed
    return result


def summarize_runs(runs: list, bounds: dict) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (median,) * 3
        spread = (q3 - q1) / median if median else 0.0
        entry = {"unit": runs[0]["metrics"][name]["unit"], "median": median, "q1": q1,
                 "q3": q3, "spread": spread, "n": len(values), "values": values}
        if name in bounds:
            entry["bound"] = bounds[name]
        out[name] = entry
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            result = run_once(workload, seed, spec["run_seconds"], args.trace)
            runs.append(result)
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} loaded={result['loaded']}",
                  flush=True)
        summary = summarize_runs(runs, bounds)
        report[workload] = {
            "seeds": [r["seed"] for r in runs],
            "all_correct": all(r["correct"] for r in runs),
            "loaded_runs": sum(r["loaded"] for r in runs),
            "metrics": summary,
        }
        for name, s in summary.items():
            flag = ""
            if "bound" in s and name != "setup_s":
                flag = " OVER BOUND" if s["spread"] > s["bound"] else (
                    " over bound/3" if s["spread"] > s["bound"] / 3 else "")
            print(f"  {name:48s} median {s['median']:.6g} {s['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.3f}{flag}")

    if args.out:
        path = Path(args.out)
        merged = json.loads(path.read_text()) if path.exists() else {}
        merged.setdefault(f"trace{args.trace}", {}).update(report)
        path.write_text(json.dumps(merged, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
