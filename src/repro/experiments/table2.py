"""Table II: coschedule fractions by heterogeneity.

For each heterogeneity level (number of distinct job types in the
coschedule) the table reports the average instantaneous throughput and
the fraction of time the FCFS, optimal, and worst schedulers spend
there, averaged over the workloads.  The paper's pattern: throughput
rises with heterogeneity; the worst scheduler hides in homogeneous
coschedules; the optimal scheduler shifts toward heterogeneous ones —
much more successfully on the quad-core than on the SMT core, where
unfair progress rates pin it near FCFS.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.heterogeneity import heterogeneity_table
from repro.experiments.common import ExperimentContext, format_table
from repro.microarch.rates import RateTable
from repro.experiments.registry import Experiment, RunOptions, register

__all__ = ["Table2Row", "compute_table2", "run", "render"]


@dataclass(frozen=True)
class Table2Row:
    """One aggregated Table-II row."""

    config: str
    heterogeneity: int
    mean_instantaneous_tp: float
    fcfs_fraction: float
    optimal_fraction: float
    worst_fraction: float
    draw_probability: float


def compute_table2(
    rates: RateTable, workloads, *, config: str
) -> list[Table2Row]:
    """Average the per-workload heterogeneity tables."""
    sums: dict[int, list[float]] = {}
    for workload in workloads:
        table = heterogeneity_table(rates, workload)
        for row in table.rows:
            acc = sums.setdefault(row.heterogeneity, [0.0] * 5)
            acc[0] += row.mean_instantaneous_tp
            acc[1] += row.fcfs_fraction
            acc[2] += row.optimal_fraction
            acc[3] += row.worst_fraction
            acc[4] += row.draw_probability
    n = len(workloads)
    return [
        Table2Row(
            config=config,
            heterogeneity=h,
            mean_instantaneous_tp=acc[0] / n,
            fcfs_fraction=acc[1] / n,
            optimal_fraction=acc[2] / n,
            worst_fraction=acc[3] / n,
            draw_probability=acc[4] / n,
        )
        for h, acc in sorted(sums.items())
    ]


def run(context: ExperimentContext, options: RunOptions) -> list[Table2Row]:
    """Compute Table II for both machine configurations."""
    return compute_table2(
        context.smt_rates, context.workloads, config="smt"
    ) + compute_table2(context.quad_rates, context.workloads, config="quad")


def render(rows: list[Table2Row]) -> str:
    """Text rendering in the paper's Table-II layout."""
    return format_table(
        ["config", "heterogeneity", "avg inst. TP", "frac FCFS",
         "frac optimal", "frac worst", "random draw"],
        [
            (
                r.config,
                str(r.heterogeneity),
                f"{r.mean_instantaneous_tp:.2f}",
                f"{r.fcfs_fraction:.1%}",
                f"{r.optimal_fraction:.1%}",
                f"{r.worst_fraction:.1%}",
                f"{r.draw_probability:.1%}",
            )
            for r in rows
        ],
    )


register(Experiment(
    name="table2",
    kind="table",
    title="Table II — coschedule fractions by heterogeneity",
    run=run,
    render=render,
))
