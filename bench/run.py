"""blochest benchmark: end-to-end and per-layer timings with a correctness gate.

Usage (from the repository root):

    python3 bench/run.py --workload exact-sweep --seed 1 --seconds 55 --trace 0

Workloads (the reasons for each are in bench/README.md):

* ``exact-sweep`` -- in-process ``blochest.cli.main``: ``sweep`` for the
  three local estimators at N = 128:384:128 and the collective scheme at
  N = 256:1024:256, one N per call, plus ``constants``, all at the CLI's
  auto-refined orders.
* ``mc-sampling`` -- ``monte_carlo_fidelity`` on local x/y at N = 128 for
  the three estimators (2e5 samples each) and collective at N = 1024 (2e4),
  plus ``adaptive_local_fidelity`` at N = 20 (greedy 200, fixed-xy 1e5).
* ``small-n`` -- library ``exact_fidelity`` at the frozen 128x256 orders for
  local x/y N = 2:40:2 (three estimators) and collective N = 1..40, plus the
  same adaptive runs.  Not in BENCHMARK.json: its run-to-run spread on a
  shared 2-core VM exceeds the largest bound a metric may have.

The run imports blochest from ``src/`` next to this directory, sets up
(import, the two default priors, one warm-up evaluation), then repeats a
pass over the workload's call list, one call at a time, until the next pass
would end after ``--seconds``, with OpenBLAS held to one thread.  Between calls it times a fixed calibration
job, and reports pass and call times scaled to a reference machine speed
(see CAL_REFERENCE_S).  Every result is checked against
bench/reference.json (exact values to 1e-12) or against the exact value at
the same N (Monte Carlo and adaptive results to 5 standard errors).  The
seed fixes the call order and every Monte Carlo seed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes the same
untraced passes and then one traced pass, which wraps the public functions
listed in bench/spans.py, writes the spans to .bench_out/ and reports the
per-layer metrics of bench/summarize.py.  The last line of standard output
is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import csv
import ctypes
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("exact-sweep", "mc-sampling", "small-n")

# exact-sweep
LOCAL_SWEEP = "128:384:128"
COLLECTIVE_SWEEP = "256:1024:256"
ESTIMATORS = ("optimal", "ml", "tomography")
# mc-sampling
MC_LOCAL_N = 128
MC_LOCAL_SAMPLES = 200_000
MC_COLLECTIVE_N = 1024
MC_COLLECTIVE_SAMPLES = 20_000
# small-n, at the frozen orders of demos/figure_sweep.py
FROZEN_ORDERS = (128, 256)
SMALL_LOCAL_NS = tuple(range(2, 41, 2))
SMALL_COLLECTIVE_NS = tuple(range(1, 41))
ADAPTIVE_N = 20
ADAPTIVE_RUNS = (("greedy-fidelity", 200), ("fixed-xy", 100_000))
# One BLAS thread.  On a shared 2-core machine a second thread makes the
# times follow the neighbours' load on the other core, which the
# single-threaded calibration job below cannot see.  It buys nothing on
# mc-sampling and about 30 % on exact-sweep's GEMMs, for twice the CPU.
BENCH_ENV = {"OPENBLAS_NUM_THREADS": "1"}

EXACT_TOL = 1e-12
MC_SIGMAS = 5.0
SETUP_PROBES = 8
# Machine-speed calibration.  The shared VM the benchmark was built on changes
# speed by up to 45 % for minutes at a time, with process CPU time equal to
# wall time, so raw times of identical code spread past the largest bound.
# Between calls the run times a fixed job that does not touch blochest, for
# CAL_SHARE of the run's time, and the pass and call times are divided by the
# median job time over CAL_REFERENCE_S: seconds on a machine that runs the
# job in CAL_REFERENCE_S (runs on the machine of bench/baseline.json saw
# medians of 0.020-0.026 s).  Set-up time is reported as measured: it is mostly
# imports, which the job does not follow.
CAL_SHARE = 0.05
CAL_REFERENCE_S = 0.026
CAL_LOOP = 100_000
CAL_ROWS = 16_384
PASS = "bench.pass"
PROBE_TIMEOUT_S = 60
THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLOCHEST_THREADS")


class BenchError(Exception):
    """The benchmark cannot run here: blochest's sources are missing or shadowed."""


def import_blochest():
    """Import blochest from this checkout's src/, never from elsewhere."""
    if not (SRC / "blochest" / "__init__.py").is_file():
        raise BenchError(f"no blochest sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import blochest
    import blochest.cli  # noqa: F401  (the CLI is part of what users load)

    if Path(blochest.__file__).resolve().parent != SRC / "blochest":
        raise BenchError(f"imported blochest from {blochest.__file__}, not from {SRC}")


def setup():
    """Import, build the two default priors and warm up; returns (seconds, priors by kind).

    The warm-up is a collective evaluation in auto mode, which fills the
    Gauss-Legendre cache at the default and doubled orders.
    """
    t0 = time.perf_counter()
    import_blochest()
    from blochest import evaluator
    from blochest.core import PriorKind, build_prior
    from blochest.schemes import SchemeKind, SchemeSpec

    eq = build_prior(PriorKind.EQUATORIAL_BURES, 128, 256)
    full = build_prior(PriorKind.FULL_BURES, 128, 256)
    evaluator.exact_fidelity(SchemeSpec(SchemeKind.COLLECTIVE, 2), "optimal", full)
    return time.perf_counter() - t0, {"equatorial": eq, "full": full}


def setup_probe_times(count: int, calibrate) -> list:
    """Set-up time of fresh interpreters, each running ``run.py --setup-probe``."""
    times = []
    for _ in range(count):
        calibrate()
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=PROBE_TIMEOUT_S,
            check=True,
        )
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


# ---------------------------------------------------------------------------
# environment record


def _blas_threads():
    """Threads OpenBLAS will use, asked of the loaded library; None if unknown."""
    try:
        with open("/proc/self/maps") as handle:
            libs = sorted({line.split()[-1] for line in handle if "openblas" in line.lower()})
    except OSError:
        return None
    for lib_path in libs:
        try:
            lib = ctypes.CDLL(lib_path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout if it is a git work tree, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def thread_env() -> dict:
    return {k: os.environ[k] for k in THREAD_ENV if k in os.environ}


def environment(load_start, found_thread_env=None) -> dict:
    """The run's environment; ``found_thread_env`` is the thread variables before any override."""
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "loadavg_start": list(load_start),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": _blas_threads(),
        "thread_env": thread_env() if found_thread_env is None else found_thread_env,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Call:
    """One evaluation: ``run()`` produces a result, ``check(result)`` an error or None."""

    label: str
    run: object
    check: object
    samples: int = 0


def _close(value: float, expected: float, tol: float = EXACT_TOL) -> bool:
    return abs(float(value) - float(expected)) <= tol


def _exact_error(label: str, got: dict, want: dict):
    for field, expected in want.items():
        value = got.get(field)
        if value is None or not _close(value, expected):
            return f"{label}: {field} = {value!r}, reference {expected!r}"
    return None


def _mc_error(label: str, report, exact: float):
    if not report.stderr > 0.0:
        return f"{label}: stderr {report.stderr!r} is not positive"
    z = (report.fidelity - exact) / report.stderr
    if abs(z) > MC_SIGMAS:
        return f"{label}: F = {report.fidelity!r} is {z:+.2f} stderr from exact {exact!r}"
    return None


def read_csv_rows(path: Path, header: str) -> list:
    text = path.read_text()
    first = text.split("\n", 1)[0]
    if first != header:
        raise ValueError(f"header {first!r} differs from {header!r}")
    rows = list(csv.DictReader(text.splitlines()))
    for row in rows:
        for field in ("fidelity", "discarded_fraction"):
            row[field] = float(row[field]) if row[field] else None
    return rows


def cli_argvs() -> list:
    """(label, argv without --out, (scheme, estimator, [N]) or None) for the exact-sweep CLI calls.

    Each sweep is run one N per call, so that a pass makes 14 calls and the
    latency percentiles fall among calls of like size, not in the gaps
    between four whole sweeps.
    """
    calls = [
        (f"sweep-{e}-{n}", ["sweep", "--estimator", e, "--n", str(n)], ("local-xy", e, [n]))
        for e in ESTIMATORS
        for n in _n_range(LOCAL_SWEEP)
    ]
    calls += [
        (
            f"sweep-collective-{n}",
            ["sweep", "--scheme", "collective", "--n", str(n)],
            ("collective", "optimal", [n]),
        )
        for n in _n_range(COLLECTIVE_SWEEP)
    ]
    calls.append(("constants", ["constants"], None))
    return calls


def _n_range(spec: str) -> list:
    start, stop, step = (int(v) for v in spec.split(":"))
    return list(range(start, stop + 1, step))


def _key(scheme: str, estimator: str, n: int) -> str:
    return f"{scheme}/{estimator}/{n}"


def exact_sweep_calls(ctx, ref, rng, out_dir: Path) -> list:
    from blochest import cli

    calls = []
    for label, argv, expect in cli_argvs():
        suffix = ".json" if expect is None else ".csv"
        out = out_dir / f"{label}{suffix}"

        def run(argv=argv, out=out):
            # a file left by the previous pass must not pass this pass's check
            if out.exists():
                out.unlink()
            return cli.main(argv + ["--out", str(out)])

        def check(status, label=label, out=out, expect=expect):
            if status != 0:
                return f"{label}: exit status {status}"
            if expect is None:
                got = json.loads(out.read_text())
                return _exact_error(label, got, ref["constants"])
            scheme, estimator, ns = expect
            rows = read_csv_rows(out, cli.CSV_HEADER)
            if [int(r["n"]) for r in rows] != ns:
                return f"{label}: rows for N = {[r['n'] for r in rows]}, expected {ns}"
            for row in rows:
                key = _key(scheme, estimator, int(row["n"]))
                err = _exact_error(f"{label} {key}", row, ref["auto"][key])
                if err:
                    return err
            return None

        calls.append(Call(label, run, check))
    rng.shuffle(calls)
    return calls


def mc_sampling_calls(ctx, ref, rng, out_dir: Path) -> list:
    from blochest import evaluator
    from blochest.schemes import SchemeKind, SchemeSpec

    plan = [
        ("local-xy", e, MC_LOCAL_N, MC_LOCAL_SAMPLES, ctx["equatorial"]) for e in ESTIMATORS
    ]
    plan.append(("collective", "optimal", MC_COLLECTIVE_N, MC_COLLECTIVE_SAMPLES, ctx["full"]))
    calls = []
    for scheme, estimator, n, samples, prior in plan:
        seed = rng.getrandbits(63)
        spec = SchemeSpec(SchemeKind(scheme), n)
        key = _key(scheme, estimator, n)
        label = f"mc {key} seed={seed}"

        def run(spec=spec, estimator=estimator, prior=prior, samples=samples, seed=seed):
            return evaluator.monte_carlo_fidelity(spec, estimator, prior, samples, seed)

        def check(report, label=label, key=key):
            return _mc_error(label, report, ref["auto"][key]["fidelity"])

        calls.append(Call(label, run, check, samples))
    calls += adaptive_calls(ctx, ref, rng)
    rng.shuffle(calls)
    return calls


def small_n_plan(ctx) -> list:
    """(scheme, estimator, N, prior) of the small-n exact evaluations."""
    plan = [("local-xy", e, n, ctx["equatorial"]) for n in SMALL_LOCAL_NS for e in ESTIMATORS]
    return plan + [("collective", "optimal", n, ctx["full"]) for n in SMALL_COLLECTIVE_NS]


def small_n_calls(ctx, ref, rng, out_dir: Path) -> list:
    from blochest import evaluator
    from blochest.schemes import SchemeKind, SchemeSpec

    radial, angular = FROZEN_ORDERS
    calls = []
    for scheme, estimator, n, prior in small_n_plan(ctx):
        spec = SchemeSpec(SchemeKind(scheme), n)
        key = _key(scheme, estimator, n)
        want = ref["frozen"].get(key)

        def run(spec=spec, estimator=estimator, prior=prior):
            try:
                return evaluator.exact_fidelity(
                    spec, estimator, prior, radial_order=radial, angular_order=angular
                )
            except evaluator.AllOutcomesDiscardedError as exc:
                return exc

        def check(result, key=key, want=want):
            if want is None:  # N = 2 tomography: every outcome is discarded
                if isinstance(result, evaluator.AllOutcomesDiscardedError):
                    return None
                return f"{key}: expected AllOutcomesDiscardedError, got {result!r}"
            if isinstance(result, Exception):
                return f"{key}: raised {result!r}"
            got = {"fidelity": result.fidelity, "discarded_fraction": result.discarded_fraction}
            return _exact_error(key, got, want)

        calls.append(Call(key, run, check))

    calls += adaptive_calls(ctx, ref, rng)
    rng.shuffle(calls)
    return calls


def adaptive_calls(ctx, ref, rng) -> list:
    """The greedy-fidelity and fixed-xy runs at N = 20, checked against exact fixed-split."""
    from blochest import evaluator

    exact = ref["frozen"][_key("local-xy", "optimal", ADAPTIVE_N)]["fidelity"]
    calls = []
    for policy, samples in ADAPTIVE_RUNS:
        seed = rng.getrandbits(63)
        label = f"adaptive {policy} N={ADAPTIVE_N} seed={seed}"

        def run(policy=policy, samples=samples, seed=seed):
            return evaluator.adaptive_local_fidelity(
                ctx["equatorial"], ADAPTIVE_N, policy, samples, seed
            )

        def check(report, label=label):
            return _mc_error(label, report, exact)

        calls.append(Call(label, run, check, samples))
    return calls


CALL_LISTS = {
    "exact-sweep": exact_sweep_calls,
    "mc-sampling": mc_sampling_calls,
    "small-n": small_n_calls,
}


def baseline_errors(ctx) -> list:
    """Check the blind-guess baselines 5/8 and 1/2 + 8/(9 pi^2) ~ 0.590063; one entry each."""
    from blochest.core import random_guess_fidelity

    errors = []
    for prior, expected, tol in ((ctx["equatorial"], 0.625, 1e-9), (ctx["full"], 0.590063, 1e-6)):
        value = random_guess_fidelity(prior)
        ok = _close(value, expected, tol)
        errors.append(None if ok else f"random_guess_fidelity = {value!r}, expected {expected}")
    return errors


# ---------------------------------------------------------------------------
# measurement


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0

    def record(self, error) -> None:
        self.attempted += 1
        if error:
            self.failed += 1
            print(f"FAILED {error}", file=sys.stderr)


class Calibrator:
    """Times a fixed job that does not touch blochest, to follow the machine's speed.

    The job is a pure-Python loop and a numpy draw-and-compare over 16 MB,
    the two kinds of work blochest's calls are made of.  Each call runs the
    job until it has taken CAL_SHARE of the time since the first call, so the
    samples spread evenly over the run whatever the length of its calls.
    """

    def __init__(self):
        import numpy as np

        self._rng = np.random.default_rng(0)
        self._q = self._rng.random(CAL_ROWS)
        self._start = time.perf_counter()
        self._spent = 0.0
        self.times = []

    def __call__(self) -> None:
        while not self.times or self._spent < CAL_SHARE * (time.perf_counter() - self._start):
            t0 = time.perf_counter()
            total = 0
            for i in range(CAL_LOOP):
                total += i * i
            u = self._rng.random((CAL_ROWS, 128))
            (u < self._q[:, None]).sum(axis=1)
            self.times.append(time.perf_counter() - t0)
            self._spent += self.times[-1]

    def factor(self) -> float:
        """Median job time over CAL_REFERENCE_S: above 1 on a slower machine."""
        return statistics.median(self.times) / CAL_REFERENCE_S


def run_pass(calls: list, tally: Tally, latencies: list, mc: list, tracer=None,
             calibrate=None) -> float:
    """Run and check each call in turn; returns the pass's wall time, calibration left out."""
    wall = 0.0
    for eval_id, call in enumerate(calls):
        if calibrate is not None:
            calibrate()
        if tracer is not None:
            tracer.eval_id = eval_id
        t0 = time.perf_counter()
        try:
            result = call.run()
        except Exception:
            latencies.append(time.perf_counter() - t0)
            tally.record(f"{call.label}: raised\n{traceback.format_exc()}")
            wall += time.perf_counter() - t0
            continue
        elapsed = time.perf_counter() - t0
        latencies.append(elapsed)
        if call.samples:
            mc.append((call.samples, elapsed))
        try:
            error = call.check(result)
        except Exception:
            error = f"{call.label}: checking the result raised\n{traceback.format_exc()}"
        tally.record(error)
        wall += time.perf_counter() - t0
    return wall


def timed_passes(make_calls, seconds: float, tally: Tally, latencies: list, mc: list,
                 calibrate) -> list:
    """Untraced passes until the next one would end after ``seconds``; at least one."""
    walls = []
    begin = time.perf_counter()
    while True:
        walls.append(run_pass(make_calls(), tally, latencies, mc, calibrate=calibrate))
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(walls) > seconds:
            return walls


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _show(name: str, value, unit: str, note: str = "") -> None:
    print(f"{name} = {value:.6g} {unit}{note}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        seconds, _ = setup()
        print(repr(seconds))
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    load_start = os.getloadavg()
    found_env = thread_env()
    # before numpy is imported; the set-up probes inherit it
    os.environ.update(BENCH_ENV)
    first_setup_s, ctx = setup()
    env = environment(load_start, found_env)
    calibrate = Calibrator()
    # Half the probes run before the passes and half after, so that set-up
    # time samples the machine at both ends of the run.
    setup_times = [first_setup_s] + setup_probe_times(SETUP_PROBES // 2, calibrate)
    reference = json.loads((BENCH / "reference.json").read_text())
    tally = Tally()
    for error in baseline_errors(ctx):
        tally.record(error)

    rng = random.Random(args.seed)
    latencies, mc = [], []
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT, prefix="tmp-") as tmp:

        def make_calls():
            return CALL_LISTS[args.workload](ctx, reference, rng, Path(tmp))

        walls = timed_passes(make_calls, args.seconds, tally, latencies, mc, calibrate)
        setup_times += setup_probe_times(SETUP_PROBES - SETUP_PROBES // 2, calibrate)
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            calls = make_calls()
            tracer.install()
            try:
                tracer.call(PASS, run_pass, (calls, tally, [], [], tracer))
            finally:
                tracer.uninstall()

    env["loadavg_end"] = list(os.getloadavg())
    env["loaded"] = max(env["loadavg_start"] + env["loadavg_end"]) > env["nproc"]
    print("environment " + json.dumps(env, sort_keys=True))
    if env["loaded"]:
        print("warning: load average above nproc during this run", file=sys.stderr)
    correct = tally.failed == 0
    factor = calibrate.factor()
    print("pass wall times (s): " + " ".join(f"{w:.4f}" for w in walls))
    print(f"machine speed: calibration job median {statistics.median(calibrate.times):.6f} s "
          f"(n={len(calibrate.times)}), reference {CAL_REFERENCE_S} s, factor {factor:.4f}")

    if args.trace:
        from summarize import summarize

        spans = [asdict(s) for s in tracer.spans]
        traced_wall = spans[0]["end"] - spans[0]["start"]
        overhead = traced_wall - statistics.median(walls)
        metrics, check = summarize(spans, tracer.events, overhead)
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(path, {"workload": args.workload, "seed": args.seed, "environment": env,
                           "untraced_wall_s": walls, "overhead_s": overhead})
        for name, metric in metrics.items():
            _show(name, metric["value"], metric["unit"])
        print(f"spans: {len(spans)} written to {path.relative_to(ROOT)}")
        print(f"tracing overhead: traced pass {traced_wall:.4f} s - untraced median "
              f"{statistics.median(walls):.4f} s (n={len(walls)}) = {overhead:+.4f} s")
        print(f"accounting: sum of self times {check['sum_self_s']:.6f} s, traced wall "
              f"{check['traced_wall_s']:.6f} s: {'ok' if check['ok'] else 'MISMATCH'}")
        correct = correct and check["ok"]
    else:
        p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
        times = {
            "wall_s": (statistics.median(walls), len(walls)),
            "eval_p50_s": (statistics.median(latencies), len(latencies)),
            "eval_p90_s": (p90, len(latencies)),
        }
        values = {"setup_s": (statistics.median(setup_times), "s", len(setup_times), "")}
        for name, (v, n) in times.items():
            values[name] = (v / factor, "s", n, f", {v:.6g} s as measured")
        values["peak_rss_mb"] = (_peak_rss_mb(), "MB", 1, "")
        metrics = {name: {"value": v, "unit": u} for name, (v, u, _, _) in values.items()}
        for name, (value, unit, count, note) in values.items():
            _show(name, value, unit, f"  (n={count}{note})")
        if mc:
            samples = sum(n for n, _ in mc)
            seconds = sum(t for _, t in mc)
            _show("samples_per_s", samples / seconds, "1/s", f"  (n={len(mc)} calls)")
    _show("error_rate", tally.failed / tally.attempted, "", f"  ({tally.failed}/{tally.attempted})")
    print(json.dumps({"correct": correct, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
