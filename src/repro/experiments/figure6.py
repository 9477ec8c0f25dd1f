"""Figure 6: achieved saturation throughput of the four schedulers.

Each workload is run with the arrival rate above the maximum throughput
(a saturated backlog); the achieved throughput of MAXIT, SRPT, and
MAXTP is reported relative to FCFS, next to the theoretical LP maximum
and minimum.  The paper's pattern: SRPT matches FCFS, MAXIT dips
slightly below (it starves slow jobs and pays later), and MAXTP tracks
the LP maximum almost exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro.core.fcfs import fcfs_throughput
from repro.core.optimal import optimal_throughput, worst_throughput
from repro.core.workload import Workload
from repro.experiments.common import (
    ExperimentContext,
    format_table,
    run_cells,
    sample_workloads,
)
from repro.microarch.rates import RateSource, infer_contexts
from repro.queueing.experiment import run_saturation_experiment
from repro.experiments.registry import Experiment, RunOptions, register

__all__ = ["Figure6Point", "compute_figure6", "run", "render"]


@dataclass(frozen=True)
class Figure6Point:
    """One workload's saturation throughputs, normalized to FCFS (DES)."""

    workload_label: str
    fcfs_throughput: float
    maxit_relative: float
    srpt_relative: float
    maxtp_relative: float
    lp_maximum_relative: float
    lp_minimum_relative: float
    fcfs_analytic_relative: float


def _saturation_point(
    rates: RateSource,
    workload: Workload,
    *,
    contexts: int,
    n_jobs: int,
    seed: int,
) -> Figure6Point:
    """One workload's saturation throughputs: the figure's grid cell."""
    achieved = {
        name: run_saturation_experiment(
            rates, workload, name, n_jobs=n_jobs, seed=seed, contexts=contexts
        ).throughput
        for name in ("fcfs", "maxit", "srpt", "maxtp")
    }
    base = achieved["fcfs"]

    def relative(bound) -> float:
        return bound(rates, workload, contexts=contexts).throughput / base

    return Figure6Point(
        workload_label=workload.label(),
        fcfs_throughput=base,
        maxit_relative=achieved["maxit"] / base,
        srpt_relative=achieved["srpt"] / base,
        maxtp_relative=achieved["maxtp"] / base,
        lp_maximum_relative=relative(optimal_throughput),
        lp_minimum_relative=relative(worst_throughput),
        fcfs_analytic_relative=relative(fcfs_throughput),
    )


def compute_figure6(
    rates: RateSource,
    workloads: Sequence[Workload],
    *,
    n_jobs: int = 3_000,
    seed: int = 0,
    contexts: int | None = None,
    jobs: int = 1,
) -> list[Figure6Point]:
    """Run the saturation experiment for every scheduler and workload.

    Points are sorted by increasing LP-maximum headroom, matching the
    paper's x-axis ordering.  ``jobs > 1`` fans the workloads out
    through :func:`~repro.experiments.common.run_cells`, bit-identically.
    """
    k = infer_contexts(rates, contexts)
    points = run_cells(
        partial(_saturation_point, contexts=k, n_jobs=n_jobs, seed=seed),
        rates,
        [(workload,) for workload in workloads],
        contexts=k,
        jobs=jobs,
    )
    points.sort(key=lambda p: p.lp_maximum_relative)
    return points


def run(context: ExperimentContext, options: RunOptions) -> list[Figure6Point]:
    """Figure 6 on a deterministic workload subsample."""
    seed = options.seed_for("figure6")
    workloads = sample_workloads(
        context.workloads, options.workloads(30), seed=seed
    )
    return compute_figure6(
        context.smt_rates, workloads, seed=seed, jobs=options.jobs
    )


def render(points: list[Figure6Point]) -> str:
    """Per-workload series plus scheduler means."""
    table = format_table(
        ["workload", "MAXIT", "SRPT", "MAXTP", "LP max", "LP min"],
        [
            (
                p.workload_label,
                f"{p.maxit_relative:.3f}",
                f"{p.srpt_relative:.3f}",
                f"{p.maxtp_relative:.3f}",
                f"{p.lp_maximum_relative:.3f}",
                f"{p.lp_minimum_relative:.3f}",
            )
            for p in points
        ],
    )
    n = len(points)
    means = (
        f"\nmeans vs FCFS: MAXIT "
        f"{sum(p.maxit_relative for p in points) / n:.3f}, SRPT "
        f"{sum(p.srpt_relative for p in points) / n:.3f}, MAXTP "
        f"{sum(p.maxtp_relative for p in points) / n:.3f}, LP max "
        f"{sum(p.lp_maximum_relative for p in points) / n:.3f}"
    )
    return table + means


register(Experiment(
    name="figure6",
    kind="figure",
    title="Fig. 6 — achieved saturation throughput per workload",
    run=run,
    render=render,
))
