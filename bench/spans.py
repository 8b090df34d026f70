"""Span recording around blochest's public functions, from outside the package.

A :class:`Tracer` replaces a function at the module attribute its callers
resolve (``blochest.evaluator.local_tables`` is what ``exact_fidelity``
looks up at call time) with a wrapper that records one span per call:
name, start, end, process CPU time at both ends, parent span, evaluation
id and a few call attributes.  Spans stay in memory; :meth:`Tracer.dump`
writes them out once the run is over, and :meth:`Tracer.uninstall` puts
the original functions back.
"""

from __future__ import annotations

import importlib
import inspect
import json
import threading
import time
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    cpu_start: float
    cpu_end: float
    parent: int | None
    eval_id: int | None
    attrs: dict | None = None
    error: str | None = None


# Attribute extractors take the call's arguments by parameter name.


def _local_attrs(a):
    prior = a["prior"]
    return {"n": a["spec"].n_per_axis, "radial": prior.radial_order, "angular": prior.angular_order}


def _ml_attrs(a):
    return {"rows": int(a["ax"].size)}


def _mc_attrs(a):
    return {"copies": int(a["samples"]) * a["scheme"].total_copies}


def _adaptive_attrs(a):
    return {"steps": int(a["samples"]) * int(a["total_copies"])}


# (module, attribute, span name, attribute extractor).  Every module that
# imports a name gets its own entry, because its callers resolve it there.
TIMED = (
    ("blochest.cli", "main", "cli.main", None),
    ("blochest.cli", "build_prior", "core.build_prior", None),
    ("blochest.cli", "exact_fidelity", "evaluator.exact_fidelity", None),
    ("blochest.cli", "tomography_with_discard", "evaluator.tomography_with_discard", None),
    ("blochest.cli", "monte_carlo_fidelity", "evaluator.monte_carlo_fidelity", _mc_attrs),
    ("blochest.cli", "adaptive_local_fidelity", "evaluator.adaptive_local_fidelity", _adaptive_attrs),
    ("blochest.cli", "constants", "asymptotics.constants", None),
    ("blochest.evaluator", "exact_fidelity", "evaluator.exact_fidelity", None),
    ("blochest.evaluator", "tomography_with_discard", "evaluator.tomography_with_discard", None),
    ("blochest.evaluator", "monte_carlo_fidelity", "evaluator.monte_carlo_fidelity", _mc_attrs),
    ("blochest.evaluator", "adaptive_local_fidelity", "evaluator.adaptive_local_fidelity", _adaptive_attrs),
    ("blochest.evaluator", "local_tables", "evaluator.local_tables", _local_attrs),
    ("blochest.evaluator", "collective_tables", "evaluator.collective_tables", None),
    ("blochest.evaluator", "ml_phi_batch", "estimators.ml_phi_batch", _ml_attrs),
    ("blochest.evaluator", "build_prior", "core.build_prior", None),
    ("blochest.evaluator", "sample_states", "core.sample_states", None),
    ("blochest.evaluator", "binom_log_pmf_matrix", "schemes.binom_log_pmf_matrix", None),
    ("blochest.asymptotics", "constants", "asymptotics.constants", None),
    ("blochest.asymptotics", "integrate_half_line", "quadrature.integrate_half_line", None),
)

# Scalar calls that are only counted: a span per call would fold their
# time out of the caller's self time.  ``_boundary_phi`` is the ML
# solver's scalar fallback, called from inside ``ml_phi_batch``.
COUNTED = (("blochest.estimators", "_boundary_phi", "estimators._boundary_phi"),)


class Tracer:
    def __init__(self):
        self.spans: list[Span | None] = []
        self.events: list[tuple[str, int | None]] = []
        self.eval_id: int | None = None
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, attrs: dict | None = None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        index = len(self.spans)
        self.spans.append(None)
        stack.append(index)
        error = None
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            t1 = time.perf_counter()
            cpu1 = time.process_time()
            stack.pop()
            self.spans[index] = Span(name, t0, t1, cpu0, cpu1, parent, self.eval_id, attrs, error)

    def install(self) -> None:
        """Wrap every TIMED and COUNTED name.

        Names a module no longer has are skipped, so their metrics read 0.
        """
        for module_name, attr, span_name, extract in TIMED:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                self._patch(module, attr, self._timed(getattr(module, attr), span_name, extract))
        for module_name, attr, event_name in COUNTED:
            module = importlib.import_module(module_name)
            if hasattr(module, attr):
                self._patch(module, attr, self._counted(getattr(module, attr), event_name))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _timed(self, fn, name: str, extract):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            attrs = None
            if extract:
                try:
                    attrs = extract(signature.bind(*args, **kwargs).arguments)
                except (TypeError, KeyError, AttributeError):
                    pass  # a changed signature: the span keeps no attributes
            return self.call(name, fn, args, kwargs, attrs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name: str):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            self.events.append((name, stack[-1] if stack else None))
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def dump(self, path, extra: dict) -> None:
        payload = dict(extra)
        payload["spans"] = [asdict(s) for s in self.spans]
        payload["events"] = [list(e) for e in self.events]
        with open(path, "w") as handle:
            json.dump(payload, handle)
