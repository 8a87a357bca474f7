"""The benchmark's own checks: the tracer leaves hyperlap as it found it,
tracing changes no result, and the failure counter counts every kind of
failed operation.

    python3 -m pytest -q perfbench/tests
"""

import math
import sys

import pytest

import hyperlap
import hyperlap.cli  # noqa: F401  (so its namespace is wrapped too)
import regimes
import run
import workloads
from tracer import Tracer


def _namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "hyperlap" or name.startswith("hyperlap.")}


def test_tracer_restores_every_wrapped_function():
    before = _namespaces()
    tracer = Tracer()
    with pytest.raises(RuntimeError, match="inside"):
        with tracer:
            # wrapped where it is used, not only where it is defined
            assert (hyperlap.verifier.laplace_numeric
                    is not before["hyperlap.verifier"]["laplace_numeric"])
            assert hyperlap.series.dd is not sys.modules["hyperlap.ddouble"]
            assert len(tracer._patches) > 20
            raise RuntimeError("inside")
    after = _namespaces()
    assert before.keys() == after.keys()
    for name, attrs in before.items():
        changed = [k for k, v in attrs.items() if after[name].get(k) is not v]
        assert not changed, f"{name}: {changed}"


def test_tracing_changes_no_certify_report(tmp_path):
    work = workloads.Certify(3)
    work.prepare(hyperlap, 42, tmp_path)
    results = []
    for tracer in (Tracer(work.op_probes, count_dd=False), Tracer()):
        with tracer:
            results.append(work.run_pass(tracer))
    untraced, traced = results
    assert untraced.problems == traced.problems == []
    assert untraced.fingerprint == traced.fingerprint
    assert len(untraced.latencies) == untraced.attempted


def _case(name, layer, result):
    def call():
        if isinstance(result, Exception):
            raise result
        return result
    return regimes.Case(name, layer, call, lambda: 1.0)


def test_failure_counter_counts_refusal_nonfinite_and_undercover():
    Result = hyperlap.SeriesResult
    work = workloads.EvalRegimes()
    work.cases = [
        _case("refused", "series", hyperlap.ValidityError("Re(v)<=0")),
        _case("nan", "series", Result(complex(math.nan), 3, 1e-12, 1.0, True)),
        _case("undercovered", "series", Result(1.0 + 1e-9, 3, 1e-12, 1.0, True)),
        _case("good", "series", Result(1.0 + 1e-13, 3, 1e-12, 1.0, True)),
    ]
    work.refs = [1.0] * len(work.cases)
    result = work.run_pass(None)
    assert [f.split(":")[0] for f in result.failures] == ["refused", "nan", "undercovered"]
    assert result.attempted == 4
    assert run.end_to_end([run.Pass(result, None, 1.0)])["pass_frac"] == 0.25
