"""Makespan on small job sets (the Section-II related-work experiment).

Settle et al. and Xu et al. evaluated symbiosis-aware schedulers by the
makespan of 8-16 jobs.  The paper argues such experiments are dominated
by the drain tail (idle contexts once fewer jobs than contexts remain)
— Xu et al. themselves found that a symbiosis-unaware long-job-first
scheduler beat their symbiosis-aware one.  This driver reproduces the
comparison: FCFS, LJF, MAXIT, and SRPT on small fixed job sets, with
the drain fraction made explicit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.workload import Workload
from repro.experiments.common import ExperimentContext, format_table, sample_workloads
from repro.microarch.rates import RateTable
from repro.queueing.makespan import run_makespan_experiment
from repro.experiments.registry import Experiment, RunOptions, register

__all__ = ["MakespanCell", "compute_makespan", "run", "render", "SCHEDULERS"]

SCHEDULERS: tuple[str, ...] = ("fcfs", "ljf", "maxit", "srpt")


@dataclass(frozen=True)
class MakespanCell:
    """One (scheduler, set size) cell, averaged over workloads/seeds."""

    scheduler: str
    n_jobs: int
    mean_makespan: float
    makespan_vs_fcfs: float
    mean_drain_fraction: float
    samples: int


def compute_makespan(
    rates: RateTable,
    workloads: Sequence[Workload],
    *,
    set_sizes: Sequence[int] = (8, 16),
    seeds: Sequence[int] = (0, 1, 2),
    schedulers: Sequence[str] = SCHEDULERS,
) -> list[MakespanCell]:
    """Average makespans over (workload, seed) samples."""
    cells = []
    for n_jobs in set_sizes:
        runs: dict[str, list] = {name: [] for name in schedulers}
        for workload in workloads:
            for seed in seeds:
                for name in schedulers:
                    runs[name].append(
                        run_makespan_experiment(
                            rates, workload, name, n_jobs=n_jobs, seed=seed
                        )
                    )
        baseline = runs.get("fcfs")
        for name in schedulers:
            results = runs[name]
            count = len(results)
            if baseline is not None:
                vs_fcfs = (
                    sum(
                        r.makespan / b.makespan
                        for r, b in zip(results, baseline)
                    )
                    / count
                )
            else:
                vs_fcfs = float("nan")
            cells.append(
                MakespanCell(
                    scheduler=name,
                    n_jobs=n_jobs,
                    mean_makespan=sum(r.makespan for r in results) / count,
                    makespan_vs_fcfs=vs_fcfs,
                    mean_drain_fraction=sum(
                        r.drain_fraction for r in results
                    )
                    / count,
                    samples=count,
                )
            )
    return cells


def run(context: ExperimentContext, options: RunOptions) -> list[MakespanCell]:
    """The makespan comparison on a deterministic workload subsample."""
    workloads = sample_workloads(
        context.workloads,
        options.workloads(10),
        seed=options.seed_for("makespan"),
    )
    return compute_makespan(context.smt_rates, workloads)


def render(cells: list[MakespanCell]) -> str:
    """Text rendering of the makespan comparison."""
    table = format_table(
        ["jobs", "scheduler", "makespan", "vs FCFS", "drain fraction"],
        [
            (
                str(c.n_jobs),
                c.scheduler,
                f"{c.mean_makespan:.3f}",
                f"{c.makespan_vs_fcfs:.3f}",
                f"{c.mean_drain_fraction:.1%}",
            )
            for c in cells
        ],
    )
    return table + (
        "\n\nNote the drain fractions: with 8-16 jobs a large share of "
        "the makespan has idle\ncontexts, which is why the paper warns "
        "against judging symbiotic scheduling by\nsmall-set makespans "
        "(and why LJF is competitive here without knowing any rates)."
    )


register(Experiment(
    name="makespan",
    kind="analysis",
    title="Sec. II — small-set makespan (LJF vs symbiosis-aware)",
    run=run,
    render=render,
))
