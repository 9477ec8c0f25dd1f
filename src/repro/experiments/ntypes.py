"""Section V.B: optimal gain versus the number of job types N.

The paper notes that increasing N barely helps the optimal scheduler:
with N = 8 the average gain is only 4.5% on the SMT configuration
(versus 3% at N = 4).  More types widen the coschedule menu but the
equal-work constraint tightens in step (one extra equality per type).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.fcfs import fcfs_throughput
from repro.core.optimal import optimal_throughput
from repro.core.workload import all_workloads
from repro.experiments.common import ExperimentContext, format_table, sample_workloads
from repro.microarch.benchmarks import BENCHMARK_NAMES
from repro.microarch.rates import RateTable
from repro.experiments.registry import Experiment, RunOptions, register

__all__ = ["NTypesPoint", "compute_ntypes", "run", "render"]


@dataclass(frozen=True)
class NTypesPoint:
    """Mean optimal-over-FCFS gain for one N."""

    n_types: int
    mean_gain: float
    max_gain: float
    workloads: int


def compute_ntypes(
    rates: RateTable,
    *,
    n_values: Sequence[int] = (2, 3, 4, 6, 8),
    max_workloads_per_n: int = 60,
    seed: int = 0,
) -> list[NTypesPoint]:
    """Mean optimal gain over FCFS for each workload size N."""
    points = []
    for n in n_values:
        workloads = all_workloads(BENCHMARK_NAMES, n)
        if len(workloads) > max_workloads_per_n:
            workloads = sample_workloads(
                workloads, max_workloads_per_n, seed=seed
            )
        gains = []
        for workload in workloads:
            best = optimal_throughput(rates, workload).throughput
            base = fcfs_throughput(rates, workload).throughput
            gains.append(best / base - 1.0)
        points.append(
            NTypesPoint(
                n_types=n,
                mean_gain=sum(gains) / len(gains),
                max_gain=max(gains),
                workloads=len(gains),
            )
        )
    return points


def run(context: ExperimentContext, options: RunOptions) -> list[NTypesPoint]:
    """The N-sweep on the SMT configuration, sampling at most
    ``options.workloads(60)`` workloads per N."""
    return compute_ntypes(
        context.smt_rates,
        max_workloads_per_n=options.workloads(60),
        seed=options.seed_for("ntypes"),
    )


def render(points: list[NTypesPoint]) -> str:
    """Text rendering of the N-sweep."""
    return format_table(
        ["N job types", "mean optimal gain", "max gain", "workloads"],
        [
            (
                str(p.n_types),
                f"+{p.mean_gain:.1%}",
                f"+{p.max_gain:.1%}",
                str(p.workloads),
            )
            for p in points
        ],
    )


register(Experiment(
    name="ntypes",
    kind="analysis",
    title="Sec. V.B — optimal gain vs number of job types",
    run=run,
    render=render,
))
