"""Shared experiment plumbing: contexts, sampling, grid cells, tables.

An :class:`ExperimentContext` bundles the rate sources for both paper
machines with the workload list.  When built with ``cache_path`` the
rate tables are wrapped in
:class:`~repro.microarch.rate_cache.CachedRateSource` objects backed by
one :class:`~repro.microarch.rate_cache.RateCacheStore` file, so every
experiment, benchmark session, and parallel runner worker shares a
single persisted coschedule-rate sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Sequence

from repro.core.optimal import optimal_throughput
from repro.core.workload import Workload, all_workloads
from repro.microarch.benchmarks import BENCHMARK_NAMES
from repro.microarch.config import quad_core_machine, smt_machine
from repro.microarch.rate_cache import (
    CachedRateSource,
    CacheStats,
    RateCacheStore,
)
from repro.microarch.rates import RateSource, RateTable, TableRates
from repro.queueing.cluster import Cluster, ClusterMetrics
from repro.queueing.dispatch import make_dispatcher
from repro.queueing.schedulers import make_scheduler
from repro.queueing.sharding import parallel_map
from repro.util.multiset import multisets
from repro.util.rng import make_rng

__all__ = [
    "ExperimentContext",
    "default_context",
    "sample_workloads",
    "snapshot_rates",
    "run_cells",
    "make_cluster",
    "cluster_capacity",
    "utilization_fairness",
    "format_table",
]


@dataclass
class ExperimentContext:
    """Rate sources for both machines plus the workload list.

    Building a context is cheap; coschedules are simulated lazily and
    cached inside each :class:`~repro.microarch.rates.RateTable`, so
    drivers sharing a context share the simulation work — the analogue
    of the paper running its 1,365-combination Sniper sweep once.  With
    a ``cache`` store attached, that sweep additionally persists across
    processes and repository runs.
    """

    smt_rates: RateSource
    quad_rates: RateSource
    workloads: list[Workload] = field(default_factory=list)
    cache: RateCacheStore | None = None

    def rates_for(self, config: str) -> RateSource:
        """The rate source for "smt" or "quad"."""
        if config == "smt":
            return self.smt_rates
        if config == "quad":
            return self.quad_rates
        raise ValueError(f"config must be 'smt' or 'quad', got {config!r}")

    def cache_stats(self) -> CacheStats:
        """Aggregated hit/miss stats over both rate sources (all-zero
        when the context is uncached)."""
        total = CacheStats()
        for rates in (self.smt_rates, self.quad_rates):
            if isinstance(rates, CachedRateSource):
                total = total.merge(rates.stats)
        return total

    def drain_new_entries(
        self,
    ) -> dict[str, dict[tuple[str, ...], dict[str, float]]]:
        """Per-machine entries computed since the last drain (the delta
        a parallel worker ships back for merging).  Draining keeps each
        delta experiment-sized; the full entry set still persists via
        :meth:`save_cache`."""
        delta: dict[str, dict[tuple[str, ...], dict[str, float]]] = {}
        for section, rates in (
            ("smt", self.smt_rates),
            ("quad", self.quad_rates),
        ):
            if isinstance(rates, CachedRateSource):
                fresh = rates.drain_new_entries()
                if fresh:
                    delta[rates.stats.label or section] = fresh
        return delta

    def save_cache(self) -> int | None:
        """Persist the attached cache store; returns entries saved, or
        None when the context is uncached."""
        if self.cache is None:
            return None
        return self.cache.save()


def default_context(
    *,
    n_types: int = 4,
    max_workloads: int | None = None,
    seed: int = 0,
    cache_path: str | Path | None = None,
) -> ExperimentContext:
    """The paper's default setup: 495 four-type workloads, two machines.

    Args:
        n_types: job types per workload (the paper's N, default 4).
        max_workloads: optional deterministic subsample (benchmarks use
            this to bound runtime; None = all workloads).
        seed: sampling seed when subsampling.
        cache_path: optional path to a persisted
            :class:`~repro.microarch.rate_cache.RateCacheStore` file;
            when given, both rate tables are wrapped in cached sources
            preloaded from (and saved back to) that file.
    """
    workloads = all_workloads(BENCHMARK_NAMES, n_types)
    if max_workloads is not None and max_workloads < len(workloads):
        workloads = sample_workloads(workloads, max_workloads, seed=seed)
    smt_rates: RateSource = RateTable(smt_machine())
    quad_rates: RateSource = RateTable(quad_core_machine())
    store: RateCacheStore | None = None
    if cache_path is not None:
        store = RateCacheStore(cache_path)
        smt_rates = store.wrap(smt_rates)
        quad_rates = store.wrap(quad_rates)
    return ExperimentContext(
        smt_rates=smt_rates,
        quad_rates=quad_rates,
        workloads=list(workloads),
        cache=store,
    )


def snapshot_rates(
    rates: RateSource, types: Sequence[str], contexts: int
) -> TableRates:
    """Freeze the rates a run over ``types`` can touch into pure data.

    Every coschedule a cluster run, scheduler offline phase, or
    affinity LP can query is a multiset of the run's types of size
    ``1..contexts``; snapshotting exactly that set yields a small,
    picklable :class:`~repro.microarch.rates.TableRates` that worker
    processes receive by value — no lazy simulator or cache-store
    handles cross the process boundary, and the frozen floats make
    every worker's run bit-identical to an in-process one.
    """
    roster = sorted(set(types))
    coschedules = [
        combo
        for size in range(1, contexts + 1)
        for combo in multisets(roster, size)
    ]
    return TableRates({c: rates.type_rates(c) for c in coschedules})


def _run_cell(payload: tuple) -> object:
    fn, rates, cell = payload
    return fn(rates, *cell)


def run_cells(
    fn: Callable[..., object],
    rates: RateSource,
    cells: Sequence[tuple],
    *,
    contexts: int,
    jobs: int,
) -> list:
    """``[fn(rates, *cell) for cell in cells]``: every experiment grid's
    one fan-out path.

    A cell's first element is its :class:`~repro.core.workload.Workload`;
    bind shared keyword arguments into ``fn`` with
    :func:`functools.partial`.  With ``jobs > 1`` and several cells,
    :func:`~repro.queueing.sharding.parallel_map` sends each worker
    ``fn`` (it must pickle), its cell, and a :func:`snapshot_rates`
    table of its workload (one per distinct workload): the exact floats
    the serial path queries, so results are bit-identical to it.
    """
    if jobs <= 1 or len(cells) <= 1:
        return [fn(rates, *cell) for cell in cells]
    frozen = {
        w: snapshot_rates(rates, w.types, contexts)
        for w in dict.fromkeys(cell[0] for cell in cells)
    }
    return parallel_map(
        _run_cell, [(fn, frozen[cell[0]], cell) for cell in cells], jobs
    )


def make_cluster(
    rates: RateSource,
    workload: Workload,
    scheduler: str,
    dispatcher: str,
    n_machines: int,
    contexts: int,
) -> Cluster:
    """``n_machines`` identical machines running ``scheduler`` behind
    ``dispatcher``: the cluster every cluster experiment's cell runs."""
    return Cluster(
        rates,
        [
            make_scheduler(scheduler, rates, contexts, workload=workload)
            for _ in range(n_machines)
        ],
        make_dispatcher(
            dispatcher, rates=rates, workload=workload, contexts=contexts
        ),
    )


def cluster_capacity(
    rates: RateSource, workload: Workload, n_machines: int, contexts: int
) -> float:
    """The cluster's LP work rate: M x the single-machine optimum."""
    return n_machines * optimal_throughput(
        rates, workload, contexts=contexts
    ).throughput


def utilization_fairness(metrics: ClusterMetrics) -> float:
    """Per-machine utilization balance: min/max across machines."""
    utils = [m.utilization for m in metrics.per_machine]
    top = max(utils)
    if top <= 0.0:
        return 1.0
    return min(utils) / top


def sample_workloads(
    workloads: Sequence[Workload], count: int, *, seed: int = 0
) -> list[Workload]:
    """Deterministic subsample preserving diversity (shuffle + take)."""
    rng = make_rng(seed)
    pool = list(workloads)
    rng.shuffle(pool)
    return pool[:count]


def format_table(
    headers: Sequence[str], rows: Iterable[Sequence[object]]
) -> str:
    """Render an aligned text table (monospace; for CLI output)."""
    rendered_rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rendered_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * widths[i] for i in range(len(headers))),
    ]
    for row in rendered_rows:
        lines.append(
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row))
        )
    return "\n".join(lines)
