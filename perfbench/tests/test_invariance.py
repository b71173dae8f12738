"""Tracing changes no result, and its counts repeat exactly.

Each workload runs at a reduced size: once untraced and twice traced on
one seed.  Values, statuses and verdicts must be identical across all
three, every instance must pass its check, and every per-layer count
must repeat exactly across the two traced runs.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import gaugequad as gq
import workloads as W
from tracer import COUNT_METRICS, Tracer

BENCH = Path(__file__).resolve().parents[1]

SMALL = {
    "singular-1d": {"hk": 0, "ftc": 0, "dirichlet": 1, "poly": 2},
    "interchange-2d": {"fail_windows": 1, "hold_windows": 1, "offset_windows": 1, "xs": 1, "dui": 1},
    "series-swap": {"bump": 0, "exp": 1},
    "improper-tails": {"cauchy": 2, "sinc": 2, "inv_sqrt": 1, "null_spike": 1, "divergent": 1},
}


def _run(instances, hooks):
    verdicts = [inst.check(inst.run(hooks)) for inst in instances]
    return [v.signature for v in verdicts], [v.ok for v in verdicts]


def _traced(instances):
    tracer = Tracer()
    tracer.install()
    try:
        sigs, oks = _run(instances, tracer)
    finally:
        tracer.uninstall()
    return sigs, oks, tracer.metrics()


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_tracing_changes_nothing_and_counts_repeat(workload):
    instances = W.build(workload, 3, SMALL[workload])
    plain_sigs, plain_ok = _run(instances, W.PlainHooks)
    sigs1, ok1, metrics1 = _traced(instances)
    sigs2, ok2, metrics2 = _traced(instances)
    assert all(plain_ok) and all(ok1) and all(ok2)
    assert plain_sigs == sigs1 == sigs2
    assert {k: metrics1[k] for k in COUNT_METRICS} == {k: metrics2[k] for k in COUNT_METRICS}
    assert metrics1["integrator.evaluations"] > 0
    assert metrics1["expr.calls"] + metrics1["accel.term_calls"] > 0


def test_uninstall_restores_every_patched_function():
    originals = (gq.hk_integrate, gq.integrator.hk_integrate, gq.calculus.integrate_auto,
                 gq.partition.refine_fine_cells, gq.integrator.refine_fine_cells, gq.gauge.Gauge.windows)
    tracer = Tracer()
    tracer.install()
    assert gq.integrator.refine_fine_cells is not originals[4]
    assert gq.calculus.integrate_auto is not originals[2]
    tracer.uninstall()
    assert (gq.hk_integrate, gq.integrator.hk_integrate, gq.calculus.integrate_auto,
            gq.partition.refine_fine_cells, gq.integrator.refine_fine_cells, gq.gauge.Gauge.windows) == originals


def test_build_is_deterministic_per_seed():
    for workload in W.WORKLOADS:
        assert [i.name for i in W.build(workload, 7)] == [i.name for i in W.build(workload, 7)]
        assert [i.name for i in W.build(workload, 7)] != [i.name for i in W.build(workload, 8)]


def test_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(W.WORKLOADS)
    layer = set(Tracer().metrics()) | {"trace.overhead_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer


def test_refuses_to_run_without_sources():
    done = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", "series-swap"],
                          cwd=BENCH, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
