"""Command-line front end: configure runs, execute, emit CSV/JSON.

Commands
--------
constants    six asymptotic rate constants, the half-line integrals b1, b2,
             b3 among them, as a JSON object
fidelity     one average-fidelity evaluation
sweep        fidelity over an N range, one CSV row per N
adaptive     sequential single-copy measurement policies (Monte Carlo)

``fidelity`` and ``sweep`` evaluate exactly, or by Monte Carlo with
--samples/--seed; ``--estimator tomography`` gives keep-only-physical
linear inversion with its discarded mass.

Row-producing commands share one CSV schema:
``n,scheme,estimator,prior,fidelity,stderr,method,discarded_fraction``
(fields that do not apply are left empty).  JSON output is a flat object
for single-result commands and ``{"points": [...]}`` for sweeps.

Reproducibility: identical configuration and seed give byte-identical
output files, because every evaluation runs serially in a fixed order;
results are written to a temporary file and renamed, so a failed run never
leaves a partial file.

The prior follows the scheme: local x/y and adaptive runs estimate the
equatorial ensemble, collective runs the full ball, so there is no prior
flag; the ``prior`` column reports the one used.  ``adaptive`` runs the
local x/y scheme with the optimal guess, so it has no scheme or estimator
flag.

The command checks only what the library cannot: that a config file holds
only keys the command has flags for, a single N where one is needed, that
an N list strictly increases, samples and seed for stochastic runs, and
the output format.  Scheme, estimator and policy pairings are validated by
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
from dataclasses import asdict, dataclass, fields

from .asymptotics import constants
from .core import DEFAULT_ANGULAR_ORDER, DEFAULT_RADIAL_ORDER, build_prior
from .evaluator import (
    SCHEME_PRIOR_KINDS,
    AllOutcomesDiscardedError,
    FidelityReport,
    adaptive_local_fidelity,
    exact_fidelity,
    monte_carlo_fidelity,
)
from .quadrature import QuadratureError
from .schemes import DEFAULT_ENUMERATION_LIMIT, SchemeKind, SchemeSpec

__all__ = ["RunConfig", "run", "main", "CSV_HEADER"]

CSV_HEADER = "n,scheme,estimator,prior,fidelity,stderr,method,discarded_fraction"
USAGE_EXIT = 2
NUMERICAL_EXIT = 3


class CliUsageError(Exception):
    """Configuration problem: reported on stderr, exit status 2."""


# (RunConfig fields, accepted types, description); bool is never accepted
_FIELD_TYPES = (
    (("radial_order", "angular_order", "samples", "seed", "enumeration_limit"), int, "an integer"),
    (("scheme", "estimator", "policy", "out", "format"), str, "a string"),
)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run configuration (flags merged over config file)."""

    command: str
    scheme: str | None = None
    estimator: str | None = None
    n: tuple | None = None
    radial_order: int | None = None
    angular_order: int | None = None
    samples: int | None = None
    seed: int | None = None
    policy: str | None = None
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
    element that is a bool or not an int is rejected, not truncated, and
    the list must strictly increase.
    """
    if isinstance(text, (list, tuple)):
        if any(isinstance(v, bool) or not isinstance(v, int) for v in text):
            raise CliUsageError(f"invalid N list {text!r}")
        if not text or any(n < 1 for n in text):
            raise CliUsageError("copy numbers must be a nonempty list of integers >= 1")
        if any(b <= a for a, b in zip(text, text[1:])):
            raise CliUsageError("copy numbers must be strictly increasing")
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


def _report_row(report: FidelityReport) -> dict:
    return {
        "n": report.copies,
        "scheme": report.scheme.kind.value,
        "estimator": report.estimator,
        "prior": SCHEME_PRIOR_KINDS[report.scheme.kind].value,
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


def _build_prior_for(config: RunConfig, scheme_kind: SchemeKind):
    ro, ao = config.radial_order, config.angular_order
    return build_prior(
        SCHEME_PRIOR_KINDS[scheme_kind],
        radial_order=DEFAULT_RADIAL_ORDER if ro is None else ro,
        angular_order=DEFAULT_ANGULAR_ORDER if ao is None else ao,
    )


def _require_seed(config: RunConfig) -> int:
    if config.seed is None:
        raise CliUsageError("a seed is required for stochastic runs (--seed)")
    return config.seed


def _run_rows(config: RunConfig) -> None:
    """One row per N: exact, or Monte Carlo with --samples."""
    scheme_kind = _resolve_scheme(config)
    estimator = config.estimator or "optimal"
    prior = _build_prior_for(config, scheme_kind)
    rows = []
    for n in config.n:
        spec = SchemeSpec(scheme_kind, n)
        if config.samples is None:
            report = exact_fidelity(
                spec, estimator, prior,
                radial_order=config.radial_order,
                angular_order=config.angular_order,
                enumeration_limit=config.enumeration_limit,
            )
        else:
            report = monte_carlo_fidelity(
                spec, estimator, prior, config.samples, _require_seed(config),
                enumeration_limit=config.enumeration_limit,
            )
        rows.append(_report_row(report))
    _emit_rows(config, rows)


def _run_fidelity(config: RunConfig) -> None:
    if config.n is None or len(config.n) != 1:
        raise CliUsageError("fidelity evaluates a single N; use sweep for ranges")
    _run_rows(config)


def _run_sweep(config: RunConfig) -> None:
    if config.n is None:
        raise CliUsageError("sweep needs an N range (--n start:stop:step)")
    _run_rows(config)


def _run_adaptive(config: RunConfig) -> None:
    policy = config.policy or "fixed-xy"
    if config.n is None or len(config.n) != 1:
        raise CliUsageError("adaptive evaluates a single N")
    if config.samples is None:
        raise CliUsageError("adaptive is stochastic; --samples is required")
    seed = _require_seed(config)
    prior = _build_prior_for(config, SchemeKind.LOCAL_XY)
    report = adaptive_local_fidelity(
        prior, config.n[0], policy, config.samples, seed,
        enumeration_limit=config.enumeration_limit,
    )
    _emit_rows(config, [_report_row(report)], extra={"policy": policy})


def _run_constants(config: RunConfig) -> None:
    if config.format == "csv":
        raise CliUsageError("constants emits JSON; drop --format csv")
    _emit(_json_text(asdict(constants())), config.out)


def _add_scheme_flags(sp) -> None:
    sp.add_argument("--scheme", default=None, help="local-xy or collective")
    sp.add_argument("--estimator", default=None, help="optimal, ml, or tomography")


def _add_run_flags(sp) -> None:
    sp.add_argument("--n", default=None, help="copy number N, or start:stop:step")
    sp.add_argument("--radial-order", type=int, default=None)
    sp.add_argument("--angular-order", type=int, default=None)
    sp.add_argument("--samples", type=int, default=None, help="Monte Carlo sample count")
    sp.add_argument("--seed", type=int, default=None, help="RNG seed (stochastic runs)")
    sp.add_argument(
        "--enumeration-limit", type=int, default=None, help="max N for exact enumeration"
    )


def _add_policy_flag(sp) -> None:
    sp.add_argument("--policy", default=None, help="fixed-xy or greedy-fidelity")


# The one command table: name -> (handler, help, flag groups past
# --config/--out/--format).  The parser, RunConfig and run() all read it.
_COMMANDS = {
    "constants": (_run_constants, "asymptotic rate constants and b1, b2, b3 (JSON)", ()),
    "fidelity": (_run_fidelity, "one fidelity evaluation", (_add_scheme_flags, _add_run_flags)),
    "sweep": (
        _run_sweep,
        "fidelity over an N range, exact or Monte Carlo",
        (_add_scheme_flags, _add_run_flags),
    ),
    "adaptive": (
        _run_adaptive,
        "sequential single-copy measurement policies",
        (_add_run_flags, _add_policy_flag),
    ),
}


def run(config: RunConfig) -> int:
    """Execute one resolved configuration.  Returns the exit status."""
    handler = _COMMANDS[config.command][0]
    try:
        handler(config)
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    except (QuadratureError, AllOutcomesDiscardedError, OverflowError) as exc:
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
    for name, (_, help_text, flag_groups) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", default=None, help="JSON config file; flags override it")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("csv", "json"), default=None)
        for add_flags in flag_groups:
            add_flags(sp)
    return parser


_CONFIG_KEYS = tuple(f.name for f in fields(RunConfig) if f.name != "command")


def _merge_config_file(args: argparse.Namespace) -> tuple[dict, list]:
    """Resolve flag/config-file/default precedence into a plain dict.

    Also returns the file's keys that the command has no flag for.
    """
    merged = {k: getattr(args, k, None) for k in _CONFIG_KEYS}
    unread = []
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
            if attr not in vars(args):
                unread.append(key)
            if merged.get(attr) is None:
                merged[attr] = value
    return merged, unread


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        merged, unread = _merge_config_file(args)
        if merged["n"] is not None:
            merged["n"] = parse_n_spec(merged["n"])
        default_format = "json" if args.command == "constants" else "csv"
        merged["format"] = merged["format"] or default_format
        # unset values take the RunConfig defaults
        config = RunConfig(
            command=args.command, **{k: v for k, v in merged.items() if v is not None}
        )
        if unread:
            raise CliUsageError(f"{args.command} does not read config key {unread[0]!r}")
    except CliUsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_EXIT
    return run(config)


if __name__ == "__main__":
    sys.exit(main())
