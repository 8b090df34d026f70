"""Turn a span file from a traced run into the named per-layer metrics.

Usage: python3 bench/summarize.py .bench_out/trace-<workload>-<seed>.json

A layer's self time is its span's duration minus the part of that
interval its child spans cover.  ``bench.pass`` spans are opened by the
benchmark around one pass of a workload's call list; their self time is
the part of the pass that no layer span covers (the benchmark's own
checks, argument handling).  So the self times of all spans add up to the
traced pass wall time, which :func:`summarize` checks.
"""

from __future__ import annotations

import json
import sys

PASS = "bench.pass"

# (metric name, unit), in the order they are reported.
LAYER_METRICS = (
    ("evaluator.local_tables.calls", "count"),
    ("evaluator.local_tables.self_s", "s"),
    ("evaluator.local_tables.cpu_util", "ratio"),
    ("evaluator.local_tables.cell_nodes_per_s", "1/s"),
    ("evaluator.local_tables.reuse_ratio", "ratio"),
    ("evaluator.exact_fidelity.calls", "count"),
    ("evaluator.exact_fidelity.self_s", "s"),
    ("evaluator.exact_fidelity.tables_per_eval", "ratio"),
    ("evaluator.tomography_with_discard.calls", "count"),
    ("evaluator.tomography_with_discard.self_s", "s"),
    ("estimators.ml_phi_batch.calls", "count"),
    ("estimators.ml_phi_batch.rows", "count"),
    ("estimators.ml_phi_batch.self_s", "s"),
    ("estimators.ml_phi_batch.rows_per_s", "1/s"),
    ("estimators.ml_phi_batch.fallbacks", "count"),
    ("core.build_prior.calls", "count"),
    ("core.build_prior.self_s", "s"),
    ("schemes.binom_log_pmf_matrix.calls", "count"),
    ("schemes.binom_log_pmf_matrix.self_s", "s"),
    ("evaluator.collective_tables.calls", "count"),
    ("evaluator.collective_tables.self_s", "s"),
    ("evaluator.monte_carlo_fidelity.self_s", "s"),
    ("evaluator.monte_carlo_fidelity.copies_per_s", "1/s"),
    ("core.sample_states.self_s", "s"),
    ("evaluator.adaptive_local_fidelity.self_s", "s"),
    ("evaluator.adaptive_local_fidelity.steps_per_s", "1/s"),
    ("quadrature.integrate_half_line.calls", "count"),
    ("quadrature.integrate_half_line.self_s", "s"),
    ("asymptotics.constants.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("bench.pass.self_s", "s"),
    ("bench.trace.overhead_s", "s"),
)

TABLE_LAYERS = ("evaluator.local_tables", "evaluator.collective_tables")


def _covered(intervals: list) -> float:
    """Length of the union of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list) -> list:
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s["parent"] is not None:
            children[s["parent"]].append(i)
    out = []
    for i, s in enumerate(spans):
        kids = [
            (max(spans[k]["start"], s["start"]), min(spans[k]["end"], s["end"])) for k in children[i]
        ]
        out.append(s["end"] - s["start"] - _covered([iv for iv in kids if iv[1] > iv[0]]))
    return out


def _has_ancestor(spans: list, index, names) -> bool:
    while index is not None:
        if spans[index]["name"] in names:
            return True
        index = spans[index]["parent"]
    return False


def _rate(work: float, seconds: float) -> float:
    return work / seconds if seconds > 0.0 else 0.0


def summarize(spans: list, events: list, overhead_s: float) -> tuple[dict, dict]:
    """Per-layer metrics for the traced passes, and the accounting check.

    Returns (metrics, check): ``metrics`` maps each LAYER_METRICS name to
    its value; ``check`` holds the traced pass wall time, the sum of all
    self times and whether the two agree.
    """
    selfs = self_times(spans)
    by_name: dict = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return sum((selfs[i] for i in by_name.get(name, ())), 0.0)

    def attr_sum(name, key):
        return sum((spans[i]["attrs"] or {}).get(key, 0) for i in by_name.get(name, ()))

    local = [spans[i] for i in by_name.get("evaluator.local_tables", ())]
    local_wall = sum(s["end"] - s["start"] for s in local)
    local_cpu = sum(s["cpu_end"] - s["cpu_start"] for s in local)
    shapes = [(s["attrs"]["n"], s["attrs"]["radial"], s["attrs"]["angular"])
              for s in local if s["attrs"]]
    cells = sum((n + 1) ** 2 * radial * angular for n, radial, angular in shapes)
    distinct = set(shapes)

    evals = [
        i
        for i in by_name.get("evaluator.exact_fidelity", ())
        if not _has_ancestor(spans, spans[i]["parent"], ("evaluator.exact_fidelity",))
    ]
    tables_in_evals = sum(
        1
        for name in TABLE_LAYERS
        for i in by_name.get(name, ())
        if _has_ancestor(spans, spans[i]["parent"], ("evaluator.exact_fidelity",))
    )
    fallbacks = sum(
        1
        for name, parent in events
        if name == "estimators._boundary_phi"
        and _has_ancestor(spans, parent, ("estimators.ml_phi_batch",))
    )

    values = {
        "evaluator.local_tables.calls": calls("evaluator.local_tables"),
        "evaluator.local_tables.self_s": self_s("evaluator.local_tables"),
        "evaluator.local_tables.cpu_util": _rate(local_cpu, local_wall),
        "evaluator.local_tables.cell_nodes_per_s": _rate(cells, self_s("evaluator.local_tables")),
        "evaluator.local_tables.reuse_ratio": _rate(len(distinct), len(local)),
        "evaluator.exact_fidelity.calls": calls("evaluator.exact_fidelity"),
        "evaluator.exact_fidelity.self_s": self_s("evaluator.exact_fidelity"),
        "evaluator.exact_fidelity.tables_per_eval": _rate(tables_in_evals, len(evals)),
        "evaluator.tomography_with_discard.calls": calls("evaluator.tomography_with_discard"),
        "evaluator.tomography_with_discard.self_s": self_s("evaluator.tomography_with_discard"),
        "estimators.ml_phi_batch.calls": calls("estimators.ml_phi_batch"),
        "estimators.ml_phi_batch.rows": attr_sum("estimators.ml_phi_batch", "rows"),
        "estimators.ml_phi_batch.self_s": self_s("estimators.ml_phi_batch"),
        "estimators.ml_phi_batch.rows_per_s": _rate(
            attr_sum("estimators.ml_phi_batch", "rows"), self_s("estimators.ml_phi_batch")
        ),
        "estimators.ml_phi_batch.fallbacks": fallbacks,
        "core.build_prior.calls": calls("core.build_prior"),
        "core.build_prior.self_s": self_s("core.build_prior"),
        "schemes.binom_log_pmf_matrix.calls": calls("schemes.binom_log_pmf_matrix"),
        "schemes.binom_log_pmf_matrix.self_s": self_s("schemes.binom_log_pmf_matrix"),
        "evaluator.collective_tables.calls": calls("evaluator.collective_tables"),
        "evaluator.collective_tables.self_s": self_s("evaluator.collective_tables"),
        "evaluator.monte_carlo_fidelity.self_s": self_s("evaluator.monte_carlo_fidelity"),
        "evaluator.monte_carlo_fidelity.copies_per_s": _rate(
            attr_sum("evaluator.monte_carlo_fidelity", "copies"),
            self_s("evaluator.monte_carlo_fidelity"),
        ),
        "core.sample_states.self_s": self_s("core.sample_states"),
        "evaluator.adaptive_local_fidelity.self_s": self_s("evaluator.adaptive_local_fidelity"),
        "evaluator.adaptive_local_fidelity.steps_per_s": _rate(
            attr_sum("evaluator.adaptive_local_fidelity", "steps"),
            self_s("evaluator.adaptive_local_fidelity"),
        ),
        "quadrature.integrate_half_line.calls": calls("quadrature.integrate_half_line"),
        "quadrature.integrate_half_line.self_s": self_s("quadrature.integrate_half_line"),
        "asymptotics.constants.self_s": self_s("asymptotics.constants"),
        "cli.main.self_s": self_s("cli.main"),
        "bench.pass.self_s": self_s(PASS),
        "bench.trace.overhead_s": overhead_s,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS}

    traced_wall = sum(spans[i]["end"] - spans[i]["start"] for i in by_name.get(PASS, ()))
    total_self = sum(selfs)
    check = {
        "traced_wall_s": traced_wall,
        "sum_self_s": total_self,
        "ok": abs(total_self - traced_wall) <= 1e-6 + 1e-9 * traced_wall,
    }
    return metrics, check


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        trace = json.load(handle)
    metrics, check = summarize(trace["spans"], trace["events"], trace["overhead_s"])
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(f"accounting: self times {check['sum_self_s']:.6f} s vs traced wall "
          f"{check['traced_wall_s']:.6f} s -> {'ok' if check['ok'] else 'MISMATCH'}")
    return 0 if check["ok"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
