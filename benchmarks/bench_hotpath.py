"""Benchmark: the event-core hot paths (perf points 0 and 1).

Times the fixed synthetic-rate workloads of
:mod:`repro.queueing.hotpath` — the saturated MAXIT/SRPT probing
clusters (narrow and wide) and the bursty MAXTP + affinity scenario
run — on the production count-vector engine (``engine="compiled"``)
and the reference engine (``engine="legacy"``, the machine-speed
calibration), recording each run's completion count in the benchmark
JSON.  ``tools/compare_bench.py --hotpath`` gates that JSON against
the committed ``BENCH_CORE.json`` trajectory: times, speedup and
completions.  A correctness assertion pins the compiled engine to the
reference on the MAXIT workload: identical completions, work, and
turnarounds (the exhaustive pin is
``tests/property/test_differential_engines.py``).

Run with ``-s`` (or check the benchmark JSON) to see the run-memo
hit/miss stats each workload printed.
"""

from __future__ import annotations

import pytest

from repro.experiments.registry import to_jsonable
from repro.queueing.hotpath import HOTPATH_WORKLOADS, saturated_cluster


@pytest.mark.parametrize("workload", sorted(HOTPATH_WORKLOADS))
def test_hotpath_legacy(benchmark, workload):
    """The reference engine, timed on *this* machine.

    Not a gate by itself: it calibrates the absolute comparison in
    ``tools/compare_bench.py`` (a slow CI runner is slow on both
    engines, so the committed budget is scaled by the observed
    legacy-engine ratio) and feeds the fresh machine-local speedup
    check.
    """
    runner = HOTPATH_WORKLOADS[workload]
    metrics, _ = benchmark.pedantic(
        runner, kwargs={"engine": "legacy"}, rounds=2, iterations=1
    )
    benchmark.extra_info["completed"] = metrics.completed


@pytest.mark.parametrize("workload", sorted(HOTPATH_WORKLOADS))
def test_hotpath_compiled(benchmark, workload):
    """The production count-vector engine.

    Surfaces the engine's own counters (fusion, batching, probe hits)
    and the completion count in the benchmark JSON.
    """
    runner = HOTPATH_WORKLOADS[workload]
    metrics, stats = benchmark.pedantic(
        runner, kwargs={"engine": "compiled"}, rounds=3, iterations=1
    )

    # Cache efficacy is part of the contract: a steady-state run must
    # overwhelmingly hit the memo (surface the numbers either way).
    assert stats is not None
    print(f"\n[{workload}] memo stats: {stats}")
    assert stats["hits"] > stats["misses"], stats
    engine_stats = stats.get("engine")
    assert engine_stats is not None, "compiled run reported no engine stats"
    print(f"\n[{workload}] engine stats: {engine_stats}")
    benchmark.extra_info["memo_stats"] = {
        k: v for k, v in stats.items() if k != "engine"
    }
    benchmark.extra_info["engine_stats"] = engine_stats
    benchmark.extra_info["completed"] = metrics.completed


def test_compiled_matches_legacy_path():
    """Spot-check (the exhaustive pin is the differential harness):
    both engines produce identical ClusterMetrics on the saturated
    MAXIT workload at a reduced size."""
    compiled, _ = saturated_cluster("maxit", n_jobs=600, engine="compiled")
    legacy, _ = saturated_cluster("maxit", n_jobs=600, engine="legacy")
    assert to_jsonable(compiled) == to_jsonable(legacy)
