"""Chaos harness: the fault layer swept over MTBF × scenarios × dispatch.

The cluster now fails like a real one (:mod:`repro.queueing.faults`):
machines crash and are repaired, correlated outages take fractions of
the fleet down at once, transient DEGRADED episodes slow machines, and
jobs retry with exponential backoff until a budget abandons them.
This experiment is the observable surface of that layer — and its
regression net.  Every (scenario, dispatcher) cell runs a small grid:

* ``none`` — no fault layer (``faults=None``);
* ``zero`` — a default :class:`~repro.queueing.faults.FaultConfig`
  through the fault-aware code path.  ``tools/compare_bench.py
  --faults`` asserts this row is **bit-identical** to ``none`` (the
  zero-fault identity is structural, not approximate);
* faulty cells at increasing MTBF (fixed MTTR), each reporting
  availability, goodput (work rate net of progress lost to crashes),
  lost work, retries, abandonment, and shed arrivals alongside the
  usual throughput/turnaround metrics.  The gate also checks that
  mean availability does not fall by more than 0.02 from one MTBF
  grid point to the next — the sanity law
  ``availability ≈ MTBF / (MTBF + MTTR)`` at the grid's scale.

The gate reads only the results file this experiment writes with
``--results-dir``, not ``BENCH_CORE.json``.

Every cell is a :func:`repro.experiments.common.scenario_cell` run,
so its ``none`` row is the scenario sweep's cell.  MTBF/MTTR are
fractions of the cell's expected duration, so every scenario sees a
comparable number of failure events regardless of its traffic shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro.core.workload import Workload
from repro.experiments.common import (
    ExperimentContext,
    cluster_capacity,
    format_table,
    run_cells,
    sample_workloads,
    scenario_cell,
)
from repro.experiments.registry import Experiment, RunOptions, register
from repro.microarch.rates import RateSource, infer_contexts
from repro.queueing.faults import FaultConfig
from repro.queueing.scenarios import Scenario, get_scenario

__all__ = [
    "FAULT_SCENARIOS",
    "DISPATCHERS",
    "MTBF_FRACTIONS",
    "MTTR_FRACTION",
    "FaultOutcome",
    "fault_config_for",
    "run_fault_cell",
    "compute_fault_sweep",
    "run",
    "render",
]

#: Scenarios the chaos harness sweeps (a traffic-shape cross-section,
#: not the full registry — the fault axis multiplies every cell).
FAULT_SCENARIOS: tuple[str, ...] = (
    "baseline_poisson",
    "bursty_mmpp",
    "heavy_tail",
)

#: Dispatch policies under churn; the first is the delta baseline.
DISPATCHERS: tuple[str, ...] = ("round_robin", "jsq", "affinity")

#: MTBF grid as fractions of the cell's estimated duration, widely
#: spaced so the availability-monotonicity gate is robust to stochastic
#: wiggle (the law availability ~ mtbf/(mtbf+mttr) dominates noise).
MTBF_FRACTIONS: tuple[float, ...] = (0.08, 0.25, 0.75)

#: MTTR as a fraction of the estimated duration — fixed across the
#: MTBF grid, so availability strictly orders with MTBF.
MTTR_FRACTION = 0.05


@dataclass(frozen=True)
class FaultOutcome:
    """One (scenario, dispatcher, fault mode) cell of the chaos sweep.

    Attributes:
        scenario: workload scenario name.
        dispatcher: dispatch policy.
        mode: ``"none"`` (faults=None), ``"zero"`` (default
            FaultConfig — must be bit-identical to ``"none"``), or
            ``"mtbf=<fraction>"`` for a faulty grid point.
        mtbf: absolute mean time between failures (0 when inactive).
        mttr: absolute mean time to repair (0 when inactive).
        n_machines: cluster size M.
        n_jobs: jobs offered.
        throughput: cluster work rate over the run (gross).
        goodput: work rate net of progress lost to crashes.
        mean_turnaround: average turnaround of completed jobs (retry
            delays included — retried jobs keep their arrival time).
        availability: 1 - mean fraction of machine-time DOWN.
        degraded_fraction: mean fraction of machine-time DEGRADED.
        lost_work: total progress destroyed by crashes.
        crashes: machine-down events (individual + outage-planned).
        retried: retry requeues.
        abandoned: jobs dropped after exhausting the retry budget.
        shed: arrivals dropped by the admission-control valve.
        completed: jobs finished inside the measurement window.
    """

    scenario: str
    dispatcher: str
    mode: str
    mtbf: float
    mttr: float
    n_machines: int
    n_jobs: int
    throughput: float
    goodput: float
    mean_turnaround: float
    availability: float
    degraded_fraction: float
    lost_work: float
    crashes: int
    retried: int
    abandoned: int
    shed: int
    completed: int


def fault_config_for(
    mtbf_fraction: float, duration: float, *, seed: int
) -> FaultConfig:
    """The sweep's faulty config at one MTBF grid point.

    Individual crashes with resume-fraction recovery, degraded
    episodes, and a shed valve — the processes whose effects the
    outcome columns report.  Scaled to the cell's estimated duration
    so short quick-mode runs still see failures.
    """
    return FaultConfig(
        seed=seed,
        mtbf=mtbf_fraction * duration,
        mttr=MTTR_FRACTION * duration,
        degraded_mtbf=0.5 * duration,
        degraded_duration=0.05 * duration,
        degraded_factor=0.5,
        crash_policy="resume_fraction",
        resume_fraction=0.5,
        retry_budget=3,
        backoff_base=0.01 * duration,
        shed_after=0.5 * duration,
    )


def run_fault_cell(
    rates: RateSource,
    workload: Workload,
    scenario: Scenario,
    dispatcher: str,
    mode: str,
    *,
    n_machines: int = 3,
    scheduler: str = "maxtp",
    n_jobs: int | None = None,
    seed: int = 0,
    contexts: int | None = None,
    capacity: float | None = None,
) -> FaultOutcome:
    """Run one (scenario, dispatcher, fault mode) cell.

    ``mode`` is ``"none"``, ``"zero"``, or ``"mtbf=<fraction>"``.  The
    cell is :func:`~repro.experiments.common.scenario_cell`'s, so the
    ``none`` row is the scenario sweep's cell, every dispatcher and
    fault mode of a scenario sees the same stream, and the fault rows
    are deltas attributable to faults alone.  The fault process is
    seeded with the stream seed.
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
    if mode == "none":
        faults: FaultConfig | None = None
        mtbf = mttr = 0.0
    elif mode == "zero":
        faults = FaultConfig(seed=cell.stream_seed)
        mtbf = mttr = 0.0
    elif mode.startswith("mtbf="):
        fraction = float(mode[len("mtbf="):])
        faults = fault_config_for(
            fraction, cell.duration, seed=cell.stream_seed
        )
        mtbf, mttr = faults.mtbf, faults.mttr
    else:
        raise ValueError(f"unknown fault mode {mode!r}")

    metrics, cluster = cell.run(scheduler, dispatcher, faults=faults)
    stats = cluster.last_fault_stats or {}
    lost_work = float(stats.get("lost_work", 0.0))
    measured = metrics.per_machine[0].measured_time
    goodput = metrics.throughput - (
        lost_work / measured if measured > 0.0 else 0.0
    )
    return FaultOutcome(
        scenario=scenario.name,
        dispatcher=dispatcher,
        mode=mode,
        mtbf=mtbf,
        mttr=mttr,
        n_machines=n_machines,
        n_jobs=cell.n_jobs,
        throughput=metrics.throughput,
        goodput=goodput,
        mean_turnaround=(
            metrics.mean_turnaround if metrics.completed else float("nan")
        ),
        availability=float(stats.get("availability", 1.0)),
        degraded_fraction=float(stats.get("degraded_fraction", 0.0)),
        lost_work=lost_work,
        crashes=int(stats.get("crashes", 0)),
        retried=int(stats.get("retried", 0)),
        abandoned=int(stats.get("abandoned", 0)),
        shed=int(stats.get("shed", 0)),
        completed=metrics.completed,
    )


def compute_fault_sweep(
    rates: RateSource,
    workload: Workload,
    *,
    scenarios: Sequence[str] = FAULT_SCENARIOS,
    dispatchers: Sequence[str] = DISPATCHERS,
    mtbf_fractions: Sequence[float] = MTBF_FRACTIONS,
    n_machines: int = 3,
    scheduler: str = "maxtp",
    n_jobs: int | None = None,
    seed: int = 0,
    contexts: int | None = None,
    jobs: int = 1,
) -> list[FaultOutcome]:
    """The full chaos grid: scenarios × dispatchers × fault modes.

    Each cell runs ``none``, ``zero``, then the faulty MTBF grid.
    Cells share nothing, so ``jobs > 1`` fans them out through
    :func:`~repro.experiments.common.run_cells` (bit-identical to a
    serial sweep).
    """
    k = infer_contexts(rates, contexts)
    capacity = cluster_capacity(rates, workload, n_machines, k)
    modes = ["none", "zero"] + [
        f"mtbf={fraction:g}" for fraction in mtbf_fractions
    ]
    cell = partial(
        run_fault_cell,
        n_machines=n_machines,
        scheduler=scheduler,
        n_jobs=n_jobs,
        seed=seed,
        contexts=k,
        capacity=capacity,
    )
    cells = [
        (workload, get_scenario(name), dispatcher, mode)
        for name in scenarios
        for dispatcher in dispatchers
        for mode in modes
    ]
    return run_cells(cell, rates, cells, contexts=k, jobs=jobs)


def run(
    context: ExperimentContext, options: RunOptions
) -> list[FaultOutcome]:
    """The chaos sweep on one deterministically sampled workload."""
    seed = options.seed_for("fault_sweep")
    workload = sample_workloads(context.workloads, 1, seed=seed)[0]
    return compute_fault_sweep(
        context.smt_rates,
        workload,
        n_jobs=250 if options.quick else None,
        seed=seed,
        jobs=options.jobs,
    )


def render(outcomes: list[FaultOutcome]) -> str:
    """Text rendering: one row per cell, grouped by scenario."""
    if not outcomes:
        return "no fault cells swept"
    rows = []
    for o in outcomes:
        rows.append((
            o.scenario,
            o.dispatcher,
            o.mode,
            f"{o.availability:.3f}",
            f"{o.throughput:.3f}",
            f"{o.goodput:.3f}",
            (
                f"{o.mean_turnaround:.2f}"
                if o.mean_turnaround == o.mean_turnaround
                else "n/a"
            ),
            f"{o.lost_work:.1f}",
            str(o.retried),
            str(o.abandoned),
            str(o.shed),
        ))
    table = format_table(
        [
            "scenario",
            "dispatcher",
            "faults",
            "avail",
            "TP",
            "goodput",
            "turnaround",
            "lost",
            "retried",
            "abandoned",
            "shed",
        ],
        rows,
    )
    zero_rows = [o for o in outcomes if o.mode == "zero"]
    faulty = [o for o in outcomes if o.mode.startswith("mtbf=")]
    summary = (
        f"\n\n{len(outcomes)} cells "
        f"({len({o.scenario for o in outcomes})} scenarios x "
        f"{len({o.dispatcher for o in outcomes})} dispatchers x "
        f"{len({o.mode for o in outcomes})} fault modes, "
        f"{outcomes[0].n_machines} machines).\n"
        f"{len(zero_rows)} zero-fault rows must be bit-identical to the "
        "fault-free engine (gate: tools/compare_bench.py --faults on the "
        "--results-dir file); "
        "mean faulty availability "
        f"{sum(o.availability for o in faulty) / len(faulty):.3f}"
        if faulty
        else ""
    )
    return table + summary


register(Experiment(
    name="fault_sweep",
    kind="analysis",
    title="Fault sweep — chaos harness: failures/repairs x scenarios x "
    "dispatch policies",
    run=run,
    render=render,
))
