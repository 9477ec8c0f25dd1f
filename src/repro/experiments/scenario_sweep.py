"""Scenario sweep: every workload scenario × every dispatch policy.

The paper's queueing experiments probe one operating point (Poisson
arrivals, exponential sizes).  This experiment runs the full scenario
registry (:mod:`repro.queueing.scenarios` — bursty MMPP, diurnal,
batch storms, heavy-tailed and bimodal sizes, skewed types, saturation,
trace replay) against the three cluster dispatchers (round-robin, JSQ,
symbiosis-affinity) on the multi-machine simulator, and reports
throughput / latency / fairness — each row a delta against round-robin
on the same traffic.

Every cell is a :func:`repro.experiments.common.scenario_cell` run,
the one rule for a cell's stream length, offered load and stream seed
that ``fault_sweep`` and ``policy_tournament`` share.  Fairness is
per-machine utilization balance (min/max across machines, 1.0 =
perfectly even) — the dispatcher-level quantity the cluster metrics
expose directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Sequence

from repro.core.workload import Workload
from repro.experiments.common import (
    ExperimentContext,
    cluster_capacity,
    format_table,
    run_cells,
    sample_workloads,
    scenario_cell,
    utilization_fairness,
)
from repro.experiments.registry import Experiment, RunOptions, register
from repro.microarch.rates import RateSource, infer_contexts
from repro.queueing.scenarios import Scenario, all_scenarios

__all__ = [
    "DISPATCHERS",
    "ScenarioOutcome",
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

    The cell is :func:`~repro.experiments.common.scenario_cell`'s
    (stream length, offered rate, stream seed, ``capacity``), run with
    the default compiled engine, whose fusion/batching/probe counters
    land in the outcome.  ``shards`` and ``checkpoint_dir`` change only
    where the run can pause (see
    :meth:`~repro.experiments.common.ScenarioCell.run`).
    """
    cell = scenario_cell(
        rates,
        workload,
        scenario,
        n_machines=n_machines,
        n_jobs=n_jobs,
        seed=seed,
        contexts=contexts,
        capacity=capacity,
    )
    metrics, cluster = cell.run(
        scheduler, dispatcher, shards=shards, checkpoint_dir=checkpoint_dir
    )
    return ScenarioOutcome(
        scenario=scenario.name,
        dispatcher=dispatcher,
        n_machines=n_machines,
        n_jobs=cell.n_jobs,
        mean_rate=cell.mean_rate,
        throughput=metrics.throughput,
        mean_turnaround=(
            metrics.mean_turnaround if metrics.completed else float("nan")
        ),
        utilization=metrics.utilization,
        empty_fraction=metrics.empty_fraction,
        fairness=utilization_fairness(metrics),
        completed=metrics.completed,
        shards=max(shards, 1),
        memo_stats=cluster.last_memo_stats,
        engine_stats=cluster.last_engine_stats,
    )


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
    fans them out through :func:`~repro.experiments.common.run_cells`
    (results keep sweep order and every float is identical to a serial
    run).  ``shards`` / ``checkpoint_dir`` apply per cell (see
    :func:`run_scenario`), so a killed sweep resumes every unfinished
    cell from its last completed shard.
    """
    k = infer_contexts(rates, contexts)
    capacity = cluster_capacity(rates, workload, n_machines, k)
    cell = partial(
        run_scenario,
        n_machines=n_machines,
        scheduler=scheduler,
        n_jobs=n_jobs,
        seed=seed,
        contexts=k,
        capacity=capacity,
        shards=shards,
        checkpoint_dir=checkpoint_dir,
    )
    cells = [
        (workload, scenario, dispatcher)
        for scenario in (
            scenarios if scenarios is not None else all_scenarios()
        )
        for dispatcher in dispatchers
    ]
    return run_cells(cell, rates, cells, contexts=k, jobs=jobs)


def run(
    context: ExperimentContext, options: RunOptions
) -> list[ScenarioOutcome]:
    """The sweep on one deterministically sampled workload."""
    seed = options.seed_for("scenario_sweep")
    workload = sample_workloads(context.workloads, 1, seed=seed)[0]
    return compute_scenario_sweep(
        context.smt_rates,
        workload,
        n_jobs=400 if options.quick else None,
        seed=seed,
        jobs=options.jobs,
        shards=options.shards,
        checkpoint_dir=options.checkpoint_dir,
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


register(Experiment(
    name="scenario_sweep",
    kind="analysis",
    title="Scenario sweep — nonstationary & trace-driven workloads x "
    "dispatch policies",
    run=run,
    render=render,
))
