"""Command-line front end: configure runs, execute, emit CSV/JSON.

Commands
--------
constants    six asymptotic rate constants as a JSON object
integrals    the three half-line integrals (b1, b2, b3) as JSON
fidelity     one average-fidelity evaluation (exact, or Monte Carlo with
             --samples/--seed)
sweep        exact fidelity over an N range, one CSV row per N
tomography   keep-only-physical linear inversion with discarded mass
adaptive     sequential single-copy measurement policies (Monte Carlo)

Row-producing commands share one CSV schema:
``n,scheme,estimator,prior,fidelity,stderr,method,discarded_fraction``
(fields that do not apply are left empty).  JSON output is a flat object
for single-result commands and ``{"points": [...]}`` for sweeps.

Reproducibility: identical configuration and seed give byte-identical
output files, because every evaluation runs serially in a fixed order;
results are written to a temporary file and renamed, so a failed run never
leaves a partial file.

The command checks only what the library cannot: a single N where one is
needed, samples and seed for stochastic runs, that sweeps are exact, that
``tomography`` gets no other estimator and ``adaptive`` no scheme or
estimator but local x/y and optimal, and the output format.  Scheme,
estimator, prior and policy pairings are validated by
:mod:`blochest.evaluator`, whose ``ValueError`` becomes exit status 2.

Exit status: 0 on success, 2 on configuration/usage errors, 3 on
numerical failure (diagnostic includes the achieved tolerance).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields

from .asymptotics import DegenerateSweepError, appendix_integrals, constants
from .core import PriorKind, build_prior
from .estimators import DegenerateEstimateError
from .evaluator import (
    DEFAULT_ANGULAR_ORDER,
    DEFAULT_RADIAL_ORDER,
    AllOutcomesDiscardedError,
    FidelityReport,
    _check_increasing,
    adaptive_local_fidelity,
    monte_carlo_fidelity,
    sweep,
)
from .quadrature import QuadratureError
from .schemes import DEFAULT_ENUMERATION_LIMIT, SchemeKind, SchemeSpec

__all__ = ["RunConfig", "run", "main", "CSV_HEADER"]

CSV_HEADER = "n,scheme,estimator,prior,fidelity,stderr,method,discarded_fraction"
USAGE_EXIT = 2
NUMERICAL_EXIT = 3

_COMMANDS = ("constants", "fidelity", "sweep", "tomography", "adaptive", "integrals")


class CliUsageError(Exception):
    """Configuration problem: reported on stderr, exit status 2."""


# (RunConfig fields, accepted types, description); bool is never accepted
_FIELD_TYPES = (
    (("radial_order", "angular_order", "samples", "seed", "enumeration_limit"), int, "an integer"),
    (("abs_tol",), (int, float), "a number"),
    (("scheme", "estimator", "prior", "policy", "out", "format"), str, "a string"),
)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (flags merged over config file)."""

    command: str
    scheme: str | None = None
    estimator: str | None = None
    prior: str | None = None
    n: tuple | None = None
    radial_order: int | None = None
    angular_order: int | None = None
    samples: int | None = None
    seed: int | None = None
    policy: str | None = None
    abs_tol: float = 1e-6
    enumeration_limit: int = DEFAULT_ENUMERATION_LIMIT
    out: str | None = None
    format: str = "csv"

    def __post_init__(self):
        if self.command not in _COMMANDS:
            raise CliUsageError(f"unknown command {self.command!r}")
        # a config file can hold any JSON value; flags arrive typed
        for names, kinds, what in _FIELD_TYPES:
            for name in names:
                value = getattr(self, name)
                if value is not None and (isinstance(value, bool) or not isinstance(value, kinds)):
                    raise CliUsageError(f"{name} must be {what}, not {value!r}")
        if self.format not in ("csv", "json"):
            raise CliUsageError(f"unknown format {self.format!r}")


def parse_n_spec(text) -> tuple:
    """Parse ``N`` or ``start:stop:step`` (inclusive stop) into a tuple.

    Accepts an int or a list of ints as well (JSON config files); a list
    element that is a bool or not an int is rejected, not truncated.
    """
    if isinstance(text, (list, tuple)):
        if any(isinstance(v, bool) or not isinstance(v, int) for v in text):
            raise CliUsageError(f"invalid N list {text!r}")
        if not text or any(n < 1 for n in text):
            raise CliUsageError("copy numbers must be a nonempty list of integers >= 1")
        return tuple(text)
    parts = str(text).split(":")
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise CliUsageError(f"invalid N specification {text!r}") from None
    if len(values) == 1:
        ns = values
    elif len(values) == 3:
        start, stop, step = values
        if step <= 0 or stop < start:
            raise CliUsageError(f"invalid N range {text!r}: need start <= stop and step > 0")
        ns = list(range(start, stop + 1, step))
    else:
        raise CliUsageError(f"invalid N specification {text!r}: use N or start:stop:step")
    if any(n < 1 for n in ns):
        raise CliUsageError("copy numbers must be >= 1")
    return tuple(ns)


def _resolve_scheme(config: RunConfig) -> SchemeKind:
    name = config.scheme or "local-xy"
    try:
        return SchemeKind(name)
    except ValueError:
        raise CliUsageError(f"unknown scheme {name!r}") from None


def _resolve_prior_kind(config: RunConfig, scheme: SchemeKind) -> PriorKind:
    if config.prior is None:
        return PriorKind.EQUATORIAL_BURES if scheme is SchemeKind.LOCAL_XY else PriorKind.FULL_BURES
    try:
        return PriorKind(config.prior)
    except ValueError:
        raise CliUsageError(f"unknown prior {config.prior!r}") from None


def _report_row(report: FidelityReport, prior_kind: PriorKind) -> dict:
    return {
        "n": report.copies,
        "scheme": report.scheme.kind.value,
        "estimator": report.estimator,
        "prior": prior_kind.value,
        "fidelity": report.fidelity,
        "stderr": report.stderr,
        "method": report.method.value,
        "discarded_fraction": report.discarded_fraction,
    }


def _csv_text(rows: list) -> str:
    lines = [CSV_HEADER]
    for row in rows:
        disc = row["discarded_fraction"]
        lines.append(
            ",".join(
                [
                    str(row["n"]),
                    row["scheme"],
                    row["estimator"],
                    row["prior"],
                    repr(float(row["fidelity"])),
                    repr(float(row["stderr"])),
                    row["method"],
                    "" if disc is None else repr(float(disc)),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(text: str, out: str | None) -> None:
    """Write atomically (temp file + rename), or to stdout when out is None."""
    if out is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(out))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".blochest-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, out)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_rows(config: RunConfig, rows: list, extra: dict | None = None) -> None:
    if config.format == "csv":
        _emit(_csv_text(rows), config.out)
        return
    payload: object
    if config.command in ("fidelity", "adaptive") and len(rows) == 1:
        payload = dict(rows[0])
        if extra:
            payload.update(extra)
    else:
        payload = {"points": rows}
    _emit(_json_text(payload), config.out)


def _build_prior_for(config: RunConfig, prior_kind: PriorKind):
    ro, ao = config.radial_order, config.angular_order
    return build_prior(
        prior_kind,
        radial_order=DEFAULT_RADIAL_ORDER if ro is None else ro,
        angular_order=DEFAULT_ANGULAR_ORDER if ao is None else ao,
    )


def _require_seed(config: RunConfig) -> int:
    if config.seed is None:
        raise CliUsageError("a seed is required for stochastic runs (--seed)")
    return config.seed


def _run_rows(config: RunConfig, estimator: str) -> None:
    """One row per N: exact through :func:`sweep`, or Monte Carlo with --samples."""
    scheme_kind = _resolve_scheme(config)
    prior_kind = _resolve_prior_kind(config, scheme_kind)
    _check_increasing(config.n)
    prior = _build_prior_for(config, prior_kind)
    orders = {"radial_order": config.radial_order, "angular_order": config.angular_order}
    if config.samples is None:
        result = sweep(
            scheme_kind, estimator, prior, config.n,
            enumeration_limit=config.enumeration_limit, **orders,
        )
        reports = [report for _, report in result.points]
    else:
        reports = [
            monte_carlo_fidelity(
                SchemeSpec(scheme_kind, n), estimator, prior, config.samples,
                _require_seed(config), **orders,
            )
            for n in config.n
        ]
    _emit_rows(config, [_report_row(report, prior_kind) for report in reports])


def _run_fidelity(config: RunConfig) -> None:
    if config.n is None or len(config.n) != 1:
        raise CliUsageError("fidelity evaluates a single N; use sweep for ranges")
    _run_rows(config, config.estimator or "optimal")


def _run_sweep(config: RunConfig) -> None:
    if config.samples is not None:
        raise CliUsageError("sweep is exact; use `fidelity --samples` for Monte Carlo")
    if config.n is None:
        raise CliUsageError("sweep needs an N range (--n start:stop:step)")
    _run_rows(config, config.estimator or "optimal")


def _require_only(config: RunConfig, name: str, value: str) -> None:
    """Reject a setting that the command fixes to ``value``."""
    given = getattr(config, name)
    if given not in (None, value):
        raise CliUsageError(f"{config.command} runs with {name} {value!r} only, not {given!r}")


def _run_tomography(config: RunConfig) -> None:
    _require_only(config, "estimator", "tomography")
    if config.n is None:
        raise CliUsageError("tomography needs --n (single value or range)")
    _run_rows(config, "tomography")


def _run_adaptive(config: RunConfig) -> None:
    _require_only(config, "scheme", SchemeKind.LOCAL_XY.value)
    _require_only(config, "estimator", "optimal")
    policy = config.policy or "fixed-xy"
    prior_kind = _resolve_prior_kind(config, SchemeKind.LOCAL_XY)
    if config.n is None or len(config.n) != 1:
        raise CliUsageError("adaptive evaluates a single N")
    if config.samples is None:
        raise CliUsageError("adaptive is stochastic; --samples is required")
    seed = _require_seed(config)
    prior = _build_prior_for(config, prior_kind)
    report = adaptive_local_fidelity(prior, config.n[0], policy, config.samples, seed)
    _emit_rows(config, [_report_row(report, prior_kind)], extra={"policy": policy})


def _run_constants(config: RunConfig) -> None:
    if config.format == "csv":
        raise CliUsageError("constants emits JSON; drop --format csv")
    values = constants()
    _emit(
        _json_text(
            {
                "collective_coeff": values.collective_coeff,
                "xi_ml": values.xi_ml,
                "xi_o": values.xi_o,
                "b1": values.b1,
                "b2": values.b2,
                "b3": values.b3,
            }
        ),
        config.out,
    )


def _run_integrals(config: RunConfig) -> None:
    if config.format == "csv":
        raise CliUsageError("integrals emits JSON; drop --format csv")
    b1, b2, b3 = appendix_integrals(abs_tol=config.abs_tol)
    _emit(_json_text({"b1": b1, "b2": b2, "b3": b3}), config.out)


def run(config: RunConfig) -> int:
    """Execute one resolved configuration.  Returns the exit status."""
    handlers = {
        "constants": _run_constants,
        "integrals": _run_integrals,
        "fidelity": _run_fidelity,
        "sweep": _run_sweep,
        "tomography": _run_tomography,
        "adaptive": _run_adaptive,
    }
    try:
        handlers[config.command](config)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (
        QuadratureError,
        AllOutcomesDiscardedError,
        DegenerateEstimateError,
        DegenerateSweepError,
        OverflowError,
    ) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_EXIT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return USAGE_EXIT
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process.

    ``parse_args`` leaves the parser unchanged and returns a fresh
    namespace, so calls of :func:`main` share no state through it.
    """
    parser = argparse.ArgumentParser(
        prog="blochest",
        description="Average-fidelity experiments for qubit mixed-state estimation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp, *, with_scheme=True):
        sp.add_argument("--config", default=None, help="JSON config file; flags override it")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default=None)
        if with_scheme:
            sp.add_argument("--scheme", default=None, help="local-xy or collective")
            sp.add_argument("--estimator", default=None, help="optimal, ml, or tomography")
            sp.add_argument("--prior", default=None, help="equatorial or full")
            sp.add_argument("--n", default=None, help="copy number N, or start:stop:step")
            sp.add_argument("--radial-order", type=int, default=None)
            sp.add_argument("--angular-order", type=int, default=None)
            sp.add_argument("--samples", type=int, default=None, help="Monte Carlo sample count")
            sp.add_argument("--seed", type=int, default=None, help="RNG seed (stochastic runs)")
            sp.add_argument(
                "--enumeration-limit", type=int, default=None, help="max N for exact enumeration"
            )

    add_common(sub.add_parser("constants", help="asymptotic rate constants (JSON)"), with_scheme=False)
    pi = sub.add_parser("integrals", help="the three half-line integrals (JSON)")
    add_common(pi, with_scheme=False)
    pi.add_argument("--abs-tol", type=float, default=None, help="absolute tolerance (default 1e-6)")
    add_common(sub.add_parser("fidelity", help="one fidelity evaluation"))
    add_common(sub.add_parser("sweep", help="exact fidelity over an N range"))
    add_common(sub.add_parser("tomography", help="keep-only-physical linear inversion"))
    pa = sub.add_parser("adaptive", help="sequential single-copy measurement policies")
    add_common(pa)
    pa.add_argument("--policy", default=None, help="fixed-xy or greedy-fidelity")
    return parser


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "command")


def _merge_config_file(args: argparse.Namespace) -> dict:
    """Resolve flag/config-file/default precedence into a plain dict."""
    merged = {k: getattr(args, k, None) for k in _CONFIG_KEYS}
    if getattr(args, "config", None):
        try:
            with open(args.config) as handle:
                file_values = json.load(handle)
        except OSError as exc:
            raise CliUsageError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise CliUsageError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(file_values, dict):
            raise CliUsageError("config file must hold a JSON object")
        for key, value in file_values.items():
            attr = str(key).replace("-", "_")
            if attr == "command":
                continue
            if attr not in _CONFIG_KEYS:
                raise CliUsageError(f"unknown config key {key!r}")
            if merged.get(attr) is None:
                merged[attr] = value
    return merged


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        merged = _merge_config_file(args)
        if merged["n"] is not None:
            merged["n"] = parse_n_spec(merged["n"])
        default_format = "json" if args.command in ("constants", "integrals") else "csv"
        merged["format"] = merged["format"] or default_format
        # unset values take the RunConfig defaults
        config = RunConfig(
            command=args.command, **{k: v for k, v in merged.items() if v is not None}
        )
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
