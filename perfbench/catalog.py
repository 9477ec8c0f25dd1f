"""Provenance of every metric: its layer and what it should move.

Names and units live in ``BENCHMARK.json``; this table adds, for each
metric, the repo modules it measures and the end-to-end metric (and
workload) a change to that layer is expected to move.  ``run.py``
copies both into every results file.  A per-layer metric reads 0 on a
workload where its layer does not run (e.g. ``faults.*`` outside
``adaptive_chaos``, ``microarch.*`` outside ``rate_build``).
"""

from __future__ import annotations

LAYERS = {
    "microarch": "repro.microarch.simulator / repro.microarch.rates",
    "rate_cache": "repro.microarch.rate_cache",
    "lp": "repro.core.optimal + repro.lp",
    "arrivals": "repro.queueing.arrivals / repro.queueing.scenarios",
    "dispatch": "repro.queueing.dispatch",
    "engine": "repro.queueing.compiled / cluster / schedulers / ratememo "
    "(selection lives here, measured by counters)",
    "metrics": "repro.queueing.system (+ the pause/window/merge of "
    "repro.queueing.sharding / cluster)",
    "estimator": "repro.queueing.estimation",
    "faults": "repro.queueing.faults",
    "memory": "whole process",
    "trace": "the benchmark's own span recorder",
    "end_to_end": "whole pipeline, as a user runs it",
}

END_TO_END = {
    "setup_s": "imports (median of fresh interpreters) + median per-round "
    "construction of rate source, cluster, schedulers, dispatcher "
    "(MAXTP and affinity solve LPs here) and arrival stream",
    "wall_s": "host time of one round's timed phase: the sum of its "
    "steps at their fastest repetition, plus the fastest remainder",
    "items_per_s": "completed simulated jobs (on rate_build: cold "
    "coschedules solved) per second of wall_s",
    "window_ms_p50": "median step latency, each step at its fastest "
    "repetition; a step is one window's advance + take_window + merge "
    "(on rate_build: one multiset solved cold on smt4 and quad)",
    "window_ms_p95": "95th-percentile step latency, >= 10 steps beyond it",
    "peak_rss_mb": "ru_maxrss of a fresh interpreter running one round",
}

#: per-layer metric -> (layer, "end-to-end metric (workload)" it moves)
PER_LAYER = {
    "microarch.smt4.solve_s": ("microarch", "items_per_s, wall_s (rate_build)"),
    "microarch.quad.solve_s": ("microarch", "items_per_s, wall_s (rate_build)"),
    "microarch.quad.solve_ms_p50": ("microarch", "window_ms_p50 (rate_build)"),
    "microarch.quad.solve_ms_p95": ("microarch", "window_ms_p95 (rate_build)"),
    "microarch.coschedules": ("microarch", "items_per_s (rate_build)"),
    "microarch.iterations": ("microarch", "wall_s (rate_build)"),
    "rate_cache.save_s": ("rate_cache", "wall_s (rate_build)"),
    "rate_cache.load_s": ("rate_cache", "wall_s (rate_build)"),
    "rate_cache.warm_lookup_us": ("rate_cache", "wall_s (rate_build)"),
    "rate_cache.warm_hit_rate": ("rate_cache", "wall_s (rate_build)"),
    "lp.solves": ("lp", "items_per_s (adaptive_chaos) strongly; wall_s (rate_build) weakly"),
    "lp.solve_ms_p50": ("lp", "items_per_s (adaptive_chaos); wall_s (rate_build)"),
    "lp.solve_s": ("lp", "items_per_s (adaptive_chaos); setup_s (adaptive_chaos)"),
    "lp.reopt_calls": ("lp", "items_per_s, window_ms_p95 (adaptive_chaos)"),
    "lp.reopt_s": ("lp", "items_per_s, window_ms_p95 (adaptive_chaos)"),
    "arrivals.jobs": ("arrivals", "items_per_s (open_stream); ~0 on adaptive_chaos"),
    "arrivals.gen_s": ("arrivals", "items_per_s (open_stream); ~0 on adaptive_chaos"),
    "dispatch.calls": ("dispatch", "items_per_s (open_stream, adaptive_chaos)"),
    "dispatch.route_us": ("dispatch", "items_per_s (open_stream); items_per_s, window_ms_p95 (adaptive_chaos)"),
    "metrics.intervals": ("metrics", "items_per_s (open_stream)"),
    "metrics.fold_s": ("metrics", "items_per_s, window_ms_p95 (open_stream)"),
    "metrics.merge_ms": ("metrics", "window_ms_p50, window_ms_p95 (open_stream)"),
    "engine.events": ("engine", "items_per_s (open_stream, adaptive_chaos)"),
    "engine.us_per_event": ("engine", "items_per_s (open_stream, adaptive_chaos)"),
    "engine.self_s": ("engine", "items_per_s (open_stream, adaptive_chaos)"),
    "engine.reschedules": ("engine", "items_per_s (open_stream, adaptive_chaos)"),
    "engine.probe_builds": ("engine", "items_per_s (open_stream, adaptive_chaos)"),
    "engine.probe_hit_rate": ("engine", "items_per_s (open_stream, adaptive_chaos)"),
    "engine.fused_syncs": ("engine", "items_per_s (open_stream, adaptive_chaos)"),
    "engine.max_batch": ("engine", "items_per_s (open_stream)"),
    "memo.hit_rate": ("engine", "items_per_s (open_stream, adaptive_chaos)"),
    "estimator.epochs": ("estimator", "items_per_s (adaptive_chaos): each epoch = M reoptimize + 1 rebuild"),
    "estimator.observations": ("estimator", "items_per_s (adaptive_chaos)"),
    "faults.crashes": ("faults", "items_per_s (adaptive_chaos)"),
    "faults.jobs_killed": ("faults", "items_per_s (adaptive_chaos)"),
    "faults.retried": ("faults", "items_per_s (adaptive_chaos)"),
    "faults.availability": ("faults", "items_per_s (adaptive_chaos)"),
    "memory.heap_peak_mb": ("memory", "peak_rss_mb (all workloads)"),
    "trace.overhead_frac": ("trace", "none: traced vs untraced wall of the same rounds"),
}
