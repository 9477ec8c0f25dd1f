"""Benchmark fixtures.

Each ``bench_*`` module regenerates one paper artifact.  The rate
tables are shared, wrapped in a persisted
:class:`~repro.microarch.rate_cache.CachedRateSource`, and pre-warmed
at session scope so the benchmarks time the *analysis* (LP solves,
Markov chains, discrete-event runs) on top of a fixed simulated
dataset — the same separation the paper has between its one-off Sniper
sweep and its scheduling analyses.

The cache file (default ``benchmarks/.rate_cache.json``; override with
``REPRO_RATE_CACHE``, or set it to ``-`` to disable persistence) is the
same format the experiment runner writes, so ``python -m
repro.experiments all`` warms the benchmarks and vice versa.  Cache
statistics are printed when the session ends.

Workload samples are deterministic.  pytest's default pattern does not
collect ``bench_*.py``, so name the files:
``python -m pytest benchmarks/bench_*.py --benchmark-only``.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator

import pytest

from repro.experiments.common import ExperimentContext, default_context

N_WORKLOADS = 20

_DEFAULT_CACHE = Path(__file__).resolve().parent / ".rate_cache.json"


def _cache_path() -> Path | None:
    value = os.environ.get("REPRO_RATE_CACHE")
    if value == "-":
        return None
    return Path(value) if value else _DEFAULT_CACHE


@pytest.fixture(scope="session")
def context() -> Iterator[ExperimentContext]:
    """Shared context with pre-warmed, persisted rate caches."""
    path = _cache_path()
    ctx = default_context(max_workloads=N_WORKLOADS, seed=42, cache_path=path)
    for workload in ctx.workloads:
        for rates in (ctx.smt_rates, ctx.quad_rates):
            for coschedule in workload.coschedules(4):
                rates.type_rates(coschedule)
    yield ctx
    saved = ctx.save_cache()
    stats = ctx.cache_stats()
    if saved is not None:
        print(f"\n{stats.render()}; {saved} entries persisted to {path}")

