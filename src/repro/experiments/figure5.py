"""Figure 5: turnaround / utilization / empty fraction for 4 schedulers.

The latency experiment at loads 0.8, 0.9, 0.95 of the FCFS maximum
throughput, averaged over workloads.  The paper's pattern:

* SRPT wins turnaround at 0.8 and 0.9 but barely moves utilization or
  the empty fraction;
* at 0.95 the MAXTP scheduler has enough queued jobs to follow its
  optimal fractions, cutting turnaround by ~23% — far more than its 3%
  throughput gain — while also showing the lowest utilization and the
  highest empty fraction (the honest indicators of a real throughput
  improvement).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro.core.workload import Workload
from repro.experiments.common import (
    ExperimentContext,
    format_table,
    run_cells,
    sample_workloads,
)
from repro.microarch.rates import RateSource, infer_contexts
from repro.queueing.experiment import run_latency_experiment
from repro.experiments.registry import Experiment, RunOptions, register

__all__ = ["Figure5Cell", "compute_figure5", "run", "render", "SCHEDULERS", "LOADS"]

SCHEDULERS: tuple[str, ...] = ("fcfs", "maxit", "srpt", "maxtp")
LOADS: tuple[float, ...] = (0.8, 0.9, 0.95)


@dataclass(frozen=True)
class Figure5Cell:
    """One (scheduler, load) cell, averaged over workloads.

    ``turnaround_vs_fcfs`` is the mean of per-workload ratios to the
    FCFS scheduler at the same load and seed (paired comparison).
    """

    scheduler: str
    load: float
    mean_turnaround: float
    turnaround_vs_fcfs: float
    utilization: float
    empty_fraction: float
    workloads: int


def compute_figure5(
    rates: RateSource,
    workloads: Sequence[Workload],
    *,
    schedulers: Sequence[str] = SCHEDULERS,
    loads: Sequence[float] = LOADS,
    n_jobs: int = 6_000,
    seed: int = 0,
    contexts: int | None = None,
    jobs: int = 1,
) -> list[Figure5Cell]:
    """Run the latency experiment grid and average over workloads.

    ``jobs > 1`` fans the (load, workload, scheduler) runs out through
    :func:`~repro.experiments.common.run_cells`, bit-identically.
    """
    k = infer_contexts(rates, contexts)
    run = partial(run_latency_experiment, n_jobs=n_jobs, seed=seed, contexts=k)
    grid = [
        (workload, name, load)
        for load in loads
        for workload in workloads
        for name in schedulers
    ]
    runs = iter(run_cells(run, rates, grid, contexts=k, jobs=jobs))
    cells = []
    for load in loads:
        per_scheduler: dict[str, list] = {name: [] for name in schedulers}
        for _ in workloads:
            for name in schedulers:
                per_scheduler[name].append(next(runs))
        baseline = per_scheduler.get("fcfs")
        for name in schedulers:
            results = per_scheduler[name]
            n = len(results)
            if baseline is not None:
                ratios = [
                    r.mean_turnaround / b.mean_turnaround
                    for r, b in zip(results, baseline)
                ]
                vs_fcfs = sum(ratios) / n
            else:
                vs_fcfs = float("nan")
            cells.append(
                Figure5Cell(
                    scheduler=name,
                    load=load,
                    mean_turnaround=sum(r.mean_turnaround for r in results) / n,
                    turnaround_vs_fcfs=vs_fcfs,
                    utilization=sum(r.utilization for r in results) / n,
                    empty_fraction=sum(r.empty_fraction for r in results) / n,
                    workloads=n,
                )
            )
    return cells


def run(context: ExperimentContext, options: RunOptions) -> list[Figure5Cell]:
    """Figure 5 on a deterministic workload subsample.

    The paper averages over all 495 workloads; the discrete-event grid
    (4 schedulers x 3 loads x workloads x thousands of jobs) is the
    expensive part of the reproduction, so the default samples 24
    workloads — enough for stable ordering of the schedulers.
    """
    seed = options.seed_for("figure5")
    workloads = sample_workloads(
        context.workloads, options.workloads(24), seed=seed
    )
    return compute_figure5(
        context.smt_rates, workloads, seed=seed, jobs=options.jobs
    )


def render(cells: list[Figure5Cell]) -> str:
    """Text rendering of the three Figure-5 panels."""
    return format_table(
        ["load", "scheduler", "turnaround", "vs FCFS", "utilization",
         "empty fraction"],
        [
            (
                f"{c.load:.2f}",
                c.scheduler,
                f"{c.mean_turnaround:.3f}",
                f"{c.turnaround_vs_fcfs:.3f}",
                f"{c.utilization:.3f}",
                f"{c.empty_fraction:.4f}",
            )
            for c in cells
        ],
    )


register(Experiment(
    name="figure5",
    kind="figure",
    title="Fig. 5 — TT / utilization / empty fraction, 4 schedulers",
    run=run,
    render=render,
))
