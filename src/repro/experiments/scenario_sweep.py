"""Scenario sweep: every workload scenario × every dispatch policy.

The paper's queueing experiments probe one operating point (Poisson
arrivals, exponential sizes).  This experiment runs the full scenario
registry (:mod:`repro.queueing.scenarios` — bursty MMPP, diurnal,
batch storms, heavy-tailed and bimodal sizes, skewed types, saturation,
trace replay) against the three cluster dispatchers (round-robin, JSQ,
symbiosis-affinity) on the multi-machine simulator, and reports
throughput / latency / fairness — each row a delta against round-robin
on the same traffic.

Offered load is normalized per scenario: the mean *job* arrival rate is
``load × M × single-machine LP throughput ÷ mean job size``, so every
non-saturated scenario offers the same fraction of cluster capacity in
work units regardless of its size law.  Fairness is per-machine
utilization balance (min/max across machines, 1.0 = perfectly even) —
the dispatcher-level quantity the cluster metrics expose directly.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from repro.core.optimal import optimal_throughput
from repro.core.workload import Workload
from repro.experiments.common import (
    ExperimentContext,
    format_table,
    sample_workloads,
    snapshot_rates,
)
from repro.experiments.registry import Experiment, RunOptions, register
from repro.microarch.rates import RateSource, infer_contexts
from repro.queueing.cluster import Cluster, ClusterMetrics
from repro.queueing.dispatch import make_dispatcher
from repro.queueing.scenarios import Scenario, all_scenarios
from repro.queueing.schedulers import make_scheduler
from repro.queueing.sharding import (
    parallel_map,
    plan_boundaries,
    run_sharded,
)

__all__ = [
    "DISPATCHERS",
    "ScenarioOutcome",
    "snapshot_rates",
    "compute_scenario_sweep",
    "run",
    "render",
]

#: The dispatch policies every scenario is swept against; the first is
#: the baseline the delta columns compare to.
DISPATCHERS: tuple[str, ...] = ("round_robin", "jsq", "affinity")


@dataclass(frozen=True)
class ScenarioOutcome:
    """One (scenario, dispatcher) cell of the sweep.

    Attributes:
        scenario: scenario name.
        dispatcher: dispatch policy.
        n_machines: cluster size M.
        n_jobs: jobs generated for the run.
        mean_rate: offered mean job rate (0 for saturated scenarios).
        throughput: cluster work rate (WIPC) over the run.
        mean_turnaround: average turnaround of completed jobs.
        utilization: average busy contexts, cluster-wide.
        empty_fraction: mean per-machine fraction of empty time.
        fairness: min/max per-machine utilization (1.0 = even).
        completed: jobs completed inside the measurement window.
        shards: time-slice shards the run was split into (provenance —
            every value yields bit-identical metrics).
        memo_stats: the run's ``RunRateMemo`` hit/miss counters.
        engine_stats: compiled-engine counters (fusion count, batch
            sizes, probe hit rate).
    """

    scenario: str
    dispatcher: str
    n_machines: int
    n_jobs: int
    mean_rate: float
    throughput: float
    mean_turnaround: float
    utilization: float
    empty_fraction: float
    fairness: float
    completed: int
    shards: int = 1
    memo_stats: dict | None = None
    engine_stats: dict | None = None


def _fairness(metrics: ClusterMetrics) -> float:
    """Per-machine utilization balance: min/max across machines."""
    utils = [m.utilization for m in metrics.per_machine]
    top = max(utils)
    if top <= 0.0:
        return 1.0
    return min(utils) / top


def _scenario_seed(base: int, name: str) -> int:
    """Deterministic per-scenario seed (stable across sweep order)."""
    return (base * 1_000_003 + zlib.crc32(name.encode())) % 2**31


def run_scenario(
    rates: RateSource,
    workload: Workload,
    scenario: Scenario,
    dispatcher: str,
    *,
    n_machines: int = 3,
    scheduler: str = "maxtp",
    n_jobs: int | None = None,
    seed: int = 0,
    contexts: int | None = None,
    capacity: float | None = None,
    shards: int = 1,
    checkpoint_dir: Path | str | None = None,
) -> ScenarioOutcome:
    """Run one (scenario, dispatcher) cell on the cluster simulator.

    ``capacity`` is the cluster's LP work rate (M × single-machine
    optimum); pass it when sweeping to amortize the LP solve, else it
    is computed here.  The run uses the default compiled engine, whose
    fusion/batching/probe counters land in the outcome.

    ``shards > 1`` splits the run into deterministic time-slice
    segments (boundaries from the scenario's expected duration —
    stream length over mean rate, or backlog work over cluster
    capacity when saturated); ``checkpoint_dir`` additionally writes a
    crash-safe checkpoint after every shard and resumes from one left
    by a killed run.  Both change only where the run can pause:
    metrics are bit-identical to the unsharded cell.
    """
    k = infer_contexts(rates, contexts)
    if capacity is None:
        capacity = n_machines * optimal_throughput(
            rates, workload, contexts=k
        ).throughput
    count = scenario.n_jobs if n_jobs is None else n_jobs
    mean_rate = scenario.offered_rate(capacity)
    cell_seed = _scenario_seed(seed, scenario.name)

    def build_stream():
        return scenario.build_jobs(
            workload.types,
            mean_rate=mean_rate,
            seed=cell_seed,
            n_jobs=count,
        )

    schedulers = [
        make_scheduler(scheduler, rates, k, workload=workload)
        for _ in range(n_machines)
    ]
    cluster = Cluster(
        rates,
        schedulers,
        make_dispatcher(
            dispatcher, rates=rates, workload=workload, contexts=k
        ),
    )
    limits = scenario.admission_limits(n_machines, k)
    if shards > 1 or checkpoint_dir is not None:
        # Only checkpoint spacing depends on the duration estimate.
        duration = scenario.expected_duration(count, capacity)
        if checkpoint_dir is not None:
            Path(checkpoint_dir).mkdir(parents=True, exist_ok=True)
        sharded = run_sharded(
            cluster,
            build_stream,
            boundaries=plan_boundaries(max(shards, 1), duration),
            checkpoint_dir=checkpoint_dir,
            **limits,
        )
        metrics = sharded.metrics
    else:
        metrics = cluster.run(build_stream(), **limits)
    return ScenarioOutcome(
        scenario=scenario.name,
        dispatcher=dispatcher,
        n_machines=n_machines,
        n_jobs=count,
        mean_rate=mean_rate,
        throughput=metrics.throughput,
        mean_turnaround=(
            metrics.mean_turnaround if metrics.completed else float("nan")
        ),
        utilization=metrics.utilization,
        empty_fraction=metrics.empty_fraction,
        fairness=_fairness(metrics),
        completed=metrics.completed,
        shards=max(shards, 1),
        memo_stats=cluster.last_memo_stats,
        engine_stats=cluster.last_engine_stats,
    )


def _cell_worker(payload: tuple) -> ScenarioOutcome:
    """Run one sweep cell from a pure-data payload (spawn-safe).

    Module-level so :func:`repro.queueing.sharding.parallel_map` can
    pickle it; the payload carries a :func:`snapshot_rates` table, so
    a worker computes the exact floats of an in-process run.
    """
    rates, workload, scenario, dispatcher, kwargs = payload
    return run_scenario(rates, workload, scenario, dispatcher, **kwargs)


def compute_scenario_sweep(
    rates: RateSource,
    workload: Workload,
    *,
    scenarios: Sequence[Scenario] | None = None,
    dispatchers: Sequence[str] = DISPATCHERS,
    n_machines: int = 3,
    scheduler: str = "maxtp",
    n_jobs: int | None = None,
    seed: int = 0,
    contexts: int | None = None,
    jobs: int = 1,
    shards: int = 1,
    checkpoint_dir: Path | str | None = None,
) -> list[ScenarioOutcome]:
    """Sweep every scenario against every dispatcher on one workload.

    Every cell's JSON carries the compiled engine's counters alongside
    the memo stats.

    The (scenario, dispatcher) cells share nothing, so ``jobs > 1``
    fans them out over worker processes (results keep sweep order and
    every float is identical to a serial run — workers receive a
    frozen :func:`snapshot_rates` table).  ``shards`` /
    ``checkpoint_dir`` apply per cell (each cell checkpoints in its own
    ``scenario__dispatcher`` subdirectory, so a killed sweep resumes
    every unfinished cell from its last completed shard).
    """
    k = infer_contexts(rates, contexts)
    capacity = n_machines * optimal_throughput(
        rates, workload, contexts=k
    ).throughput
    cells = [
        (scenario, dispatcher)
        for scenario in (
            scenarios if scenarios is not None else all_scenarios()
        )
        for dispatcher in dispatchers
    ]

    def cell_kwargs(scenario: Scenario, dispatcher: str) -> dict:
        return {
            "n_machines": n_machines,
            "scheduler": scheduler,
            "n_jobs": n_jobs,
            "seed": seed,
            "contexts": k,
            "capacity": capacity,
            "shards": shards,
            "checkpoint_dir": (
                str(
                    Path(checkpoint_dir)
                    / f"{scenario.name}__{dispatcher}"
                )
                if checkpoint_dir is not None
                else None
            ),
        }

    if jobs > 1 and len(cells) > 1:
        frozen = snapshot_rates(rates, workload.types, k)
        payloads = [
            (frozen, workload, scenario, dispatcher, cell_kwargs(scenario, dispatcher))
            for scenario, dispatcher in cells
        ]
        return parallel_map(_cell_worker, payloads, jobs)
    return [
        run_scenario(
            rates,
            workload,
            scenario,
            dispatcher,
            **cell_kwargs(scenario, dispatcher),
        )
        for scenario, dispatcher in cells
    ]


def run(
    context: ExperimentContext,
    *,
    config: str = "smt",
    n_machines: int = 3,
    n_jobs: int | None = None,
    seed: int = 0,
    jobs: int = 1,
    shards: int = 1,
    checkpoint_dir: str | None = None,
) -> list[ScenarioOutcome]:
    """The sweep on one deterministically sampled workload."""
    workload = sample_workloads(context.workloads, 1, seed=seed)[0]
    return compute_scenario_sweep(
        context.rates_for(config),
        workload,
        n_machines=n_machines,
        n_jobs=n_jobs,
        seed=seed,
        jobs=jobs,
        shards=shards,
        checkpoint_dir=checkpoint_dir,
    )


def render(outcomes: list[ScenarioOutcome]) -> str:
    """Text rendering: one row per cell, deltas against round-robin."""
    if not outcomes:
        return "no scenarios swept"
    baseline: dict[str, ScenarioOutcome] = {}
    for outcome in outcomes:
        baseline.setdefault(outcome.scenario, outcome)

    def delta(value: float, reference: float) -> str:
        if reference == 0.0 or value != value or reference != reference:
            return "n/a"
        return f"{value / reference - 1.0:+.1%}"

    rows = []
    for o in outcomes:
        ref = baseline[o.scenario]
        rows.append((
            o.scenario,
            o.dispatcher,
            f"{o.throughput:.3f}",
            f"{o.mean_turnaround:.3f}",
            f"{o.utilization:.2f}",
            f"{o.fairness:.3f}",
            delta(o.throughput, ref.throughput),
            delta(o.mean_turnaround, ref.mean_turnaround),
        ))
    table = format_table(
        [
            "scenario",
            "dispatcher",
            "TP",
            "turnaround",
            "busy ctx",
            "fairness",
            "dTP",
            "dTurn",
        ],
        rows,
    )

    winners = []
    for name, ref in baseline.items():
        cells = [o for o in outcomes if o.scenario == name]
        best = min(
            cells,
            key=lambda o: (
                o.mean_turnaround
                if o.mean_turnaround == o.mean_turnaround
                else float("inf")
            ),
        )
        winners.append(f"{name}: {best.dispatcher}")
    m = outcomes[0].n_machines
    summary = (
        f"\n\n{len(baseline)} scenarios x "
        f"{len({o.dispatcher for o in outcomes})} dispatchers on a "
        f"{m}-machine cluster (deltas vs {outcomes[0].dispatcher}).\n"
        "lowest turnaround per scenario: " + "; ".join(winners)
    )
    return table + summary


def _registry_run(
    context: ExperimentContext, options: RunOptions
) -> list[ScenarioOutcome]:
    return run(
        context,
        n_jobs=400 if options.quick else None,
        seed=options.seed_for("scenario_sweep"),
        jobs=options.jobs,
        shards=options.shards,
        checkpoint_dir=options.checkpoint_dir,
    )


register(Experiment(
    name="scenario_sweep",
    kind="analysis",
    title="Scenario sweep — nonstationary & trace-driven workloads x "
    "dispatch policies",
    run=_registry_run,
    render=render,
))
