"""Benchmark: the event-core hot paths (perf points 0 and 1).

Times the fixed synthetic-rate workloads of
:mod:`repro.queueing.hotpath` — the saturated MAXIT/SRPT probing
clusters (narrow and wide) and the bursty MAXTP + affinity scenario
run — on the production count-vector engine (``engine="compiled"``)
and the reference engine (``engine="legacy"``, the machine-speed
calibration), and checks them against the committed
``BENCH_CORE.json`` perf trajectory with a generous tolerance (CI
hardware varies; only a wholesale regression fails).  A correctness
assertion pins the compiled engine to the reference on the MAXIT
workload: identical completions, work, and turnarounds (the exhaustive
pin is ``tests/property/test_differential_engines.py``).

Refreshing the baseline after an intentional perf-relevant change::

    python tools/profile_hotpaths.py --json BENCH_CORE.json

Run with ``-s`` (or check the benchmark JSON) to see the run-memo
hit/miss stats each workload printed.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

from repro.experiments.registry import to_jsonable
from repro.queueing.hotpath import HOTPATH_WORKLOADS, saturated_cluster

#: CI machines differ; a committed baseline only bounds a fresh
#: measurement up to this factor.  Override with REPRO_PERF_TOLERANCE
#: (set it to 0 to skip the timing gate, e.g. on very slow hardware —
#: the completion-count and memo-efficacy assertions still run).
BASELINE_TOLERANCE = float(os.environ.get("REPRO_PERF_TOLERANCE", "2.0"))

BASELINE_PATH = Path(__file__).resolve().parents[1] / "BENCH_CORE.json"


def committed_baseline() -> dict[str, dict]:
    """The committed trajectory's most recent per-workload numbers."""
    if not BASELINE_PATH.exists():
        return {}
    payload = json.loads(BASELINE_PATH.read_text())
    trajectory = payload.get("trajectory", [])
    return trajectory[-1].get("benchmarks", {}) if trajectory else {}


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
    baseline = committed_baseline().get(workload)
    if baseline:
        assert metrics.completed == baseline["completed"]


@pytest.mark.parametrize("workload", sorted(HOTPATH_WORKLOADS))
def test_hotpath_compiled(benchmark, workload):
    """The production count-vector engine.

    Surfaces the engine's own counters (fusion, batching, probe hits)
    in the benchmark JSON, and gates the timing against the committed
    ``compiled_s`` baseline.
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

    baseline = committed_baseline().get(workload)
    if baseline:
        # Completions are hardware-independent: they must match the
        # committed baseline exactly (same workload, same engine).
        assert metrics.completed == baseline["completed"]
        if not BASELINE_TOLERANCE or not baseline.get("compiled_s"):
            return
        measured = benchmark.stats.stats.min
        budget = baseline["compiled_s"] * BASELINE_TOLERANCE
        assert measured <= budget, (
            f"{workload}: {measured:.3f}s exceeds {budget:.3f}s "
            f"({BASELINE_TOLERANCE}x the committed "
            f"{baseline['compiled_s']:.3f}s baseline) — the compiled "
            "engine regressed; see BENCH_CORE.json"
        )


def test_compiled_matches_legacy_path():
    """Spot-check (the exhaustive pin is the differential harness):
    both engines produce identical ClusterMetrics on the saturated
    MAXIT workload at a reduced size."""
    compiled, _ = saturated_cluster("maxit", n_jobs=600, engine="compiled")
    legacy, _ = saturated_cluster("maxit", n_jobs=600, engine="legacy")
    assert to_jsonable(compiled) == to_jsonable(legacy)
