"""Span tracing of hyperlap's layers from outside the package.

The modules import each other's functions by name (``from .quadrature
import laplace_numeric``), so a function is wrapped in every
``hyperlap.*`` namespace that binds it, not only where it is defined.
Nothing under ``src/`` changes: the tracer swaps module attributes on
entry and puts the originals back on exit.

A span records its name, start, end and parent span.  Its self time is
its duration minus the durations of its direct children; calls are
sequential, so children never overlap.  Spans stay in memory until the
run ends (``write_spans``).
"""

from __future__ import annotations

import importlib
import json
import math
import re
import sys
import time
import types
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable

# eval_series result.method -> metric-safe regime name; a method not listed
# here is named by its own text with the unsafe characters replaced
SERIES_METHODS = {
    "terminating": "terminating",
    "direct": "direct",
    "double-double": "dd",
    "direct+power-tail": "power_tail",
    "levin-u": "levin",
}

# the double-double operations the series kernels call through ``series.dd``
DD_OPS = ("two_sum", "dd_add", "dd_mul", "dd_div", "dd_mul_d", "dd_div_d")

CHECKS = ("check_series", "check_quadrature", "check_compositional",
          "check_specialization")


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    child_s: float = 0.0
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


@dataclass(frozen=True)
class Probe:
    """One public function to wrap.

    ``describe(args, kwargs, result)`` names the span from the call and its
    result and returns counters for it; a string-valued counter names a
    second bucket that also receives the span's self time.  A call that
    raises gets the name ``<layer>.refused``.
    """

    module: str
    func: str
    name: str
    describe: Callable | None = None

    @property
    def refused(self) -> str:
        return self.name.split(".")[0] + ".refused"


def _is_complex(x) -> bool:
    return complex(x).imag != 0.0


def _describe_gamma_ratio(args, kwargs, result):
    spec = args[0] if args else kwargs["spec"]
    cplx = any(_is_complex(z) for z in spec.numerator + spec.denominator)
    return "gammafn.gamma_ratio", {"complex_calls": int(cplx)}


def _describe_eval_series(args, kwargs, result):
    method = SERIES_METHODS.get(result.method) or re.sub(r"\W", "_", result.method)
    return f"series.{method}", {"terms": result.terms_used}


def _describe_vector(args, kwargs, result):
    return "series.vector", {"nodes": len(result)}


def _describe_laplace_numeric(args, kwargs, result):
    names = ("v", "s", "w", "spec")
    bound = dict(zip(names, args))
    bound.update(kwargs)
    spec, ratio = bound["spec"], complex(bound["w"]) / complex(bound["s"])
    real = not _is_complex(ratio) and not any(
        _is_complex(x) for x in spec.numerator + spec.denominator)
    path = "complex" if not real else ("real_neg" if ratio.real < 0.0 else "real_pos")
    tail = "power_law" if result.tail_method.value.startswith("power") else "exp_decay"
    return f"quadrature.{tail}", {"nodes": result.nodes_used, "path": path}


PROBES = (
    Probe("hyperlap.gammafn", "gamma_ratio", "gammafn.gamma_ratio", _describe_gamma_ratio),
    Probe("hyperlap.gammafn", "gamma", "gammafn.gamma"),
    Probe("hyperlap.series", "eval_series", "series.eval", _describe_eval_series),
    Probe("hyperlap.series", "series_values_real", "series.vector", _describe_vector),
    Probe("hyperlap.quadrature", "laplace_numeric", "quadrature.laplace",
          _describe_laplace_numeric),
    Probe("hyperlap.summation", "rhs_closed_form", "summation.rhs_closed_form"),
    Probe("hyperlap.summation", "validity", "summation.validity"),
    Probe("hyperlap.laplace", "closed_form", "laplace.closed_form"),
    Probe("hyperlap.laplace", "closed_form_direct", "laplace.closed_form_direct"),
    Probe("hyperlap.laplace", "transform_rhs_series", "laplace.transform_rhs_series"),
    Probe("hyperlap.verifier", "sample_valid", "verifier.sample"),
    Probe("hyperlap.verifier", "sample_for_specialization", "verifier.sample"),
    *(Probe("hyperlap.verifier", name, f"verifier.{name}") for name in CHECKS),
    Probe("hyperlap.verifier", "resolve_dixon_variant", "verifier.resolve_dixon_variant"),
    Probe("hyperlap.verifier", "run_suite", "verifier.run_suite"),
    # cli.main minus run_suite: argument handling, to_dict, JSON and the write
    Probe("hyperlap.cli", "main", "cli.report"),
)

# per-call latency of the oracle checks: the certify workloads' operations
CHECK_PROBES = tuple(p for p in PROBES if p.func in CHECKS)


class Tracer:
    """Wraps the probed functions while installed and records their spans."""

    def __init__(self, probes=PROBES, count_dd: bool = True):
        self.probes = tuple(probes)
        self.count_dd = count_dd
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        self.spans[index].start = time.perf_counter()
        return index

    def _close(self, index: int, end: float) -> Span:
        span = self.spans[index]
        span.end = end
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_s += span.duration
        return span

    def _wrap(self, fn, probe: Probe):
        tracer = self

        def traced(*args, **kwargs):
            index = tracer._open(probe.name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close(index, time.perf_counter()).name = probe.refused
                raise
            span = tracer._close(index, time.perf_counter())
            if probe.describe is not None:
                span.name, span.info = probe.describe(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, name: str):
        counts = self.counts

        def counted(*args):
            counts[name] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    # -- installation ------------------------------------------------------
    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "hyperlap" or n.startswith("hyperlap.")]
        for probe in self.probes:
            original = getattr(importlib.import_module(probe.module), probe.func)
            wrapped = self._wrap(original, probe)
            for mod in namespaces:
                if getattr(mod, probe.func, None) is original:
                    self._patch(mod, probe.func, wrapped)
        if self.count_dd:
            # count only calls across the series -> ddouble boundary, not the
            # ddouble module's calls among its own helpers
            series = importlib.import_module("hyperlap.series")
            proxy = types.ModuleType(series.dd.__name__)
            proxy.__dict__.update(vars(series.dd))
            for op in DD_OPS:
                setattr(proxy, op, self._count(getattr(series.dd, op), f"ddouble.{op}.calls"))
            self._patch(series, "dd", proxy)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results -----------------------------------------------------------
    def durations(self, name: str) -> list[float]:
        return [s.duration for s in self.spans if s.name == name]

    def aggregate(self) -> dict[str, float]:
        """Per-layer totals: ``<span>.calls``, ``.self_s``, summed counters,
        ``.p99_ms`` of the call durations, and the dd operation counts."""
        out: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for span in self.spans:
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.self_s"] += span.self_s
            durations[span.name].append(span.duration)
            for key, val in span.info.items():
                if isinstance(val, str):
                    out[f"{span.name.split('.')[0]}.{val}.self_s"] += span.self_s
                else:
                    out[f"{span.name}.{key}"] += val
        for name, values in durations.items():
            out[f"{name}.p99_ms"] = 1e3 * percentile(values, 99)
        out.update(self.counts)
        out["trace.spans"] = len(self.spans)
        out["trace.self_s"] = sum(s.self_s for s in self.spans)
        return dict(out)

    def write_spans(self, path, pass_index: int) -> None:
        """Append this tracer's spans to a JSON-lines file."""
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"pass": pass_index, "name": span.name,
                                     "start": span.start, "end": span.end,
                                     "parent": span.parent}) + "\n")


def percentile(values, pct: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]
