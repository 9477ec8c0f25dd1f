"""Figure 2: FCFS-vs-worst against optimal-vs-worst, per workload.

Each point is a workload; X = optimal/worst throughput, Y = FCFS/worst
throughput.  The paper observes the points hug a line through (1, 1)
with slope 0.73 (SMT) and 0.56 (quad-core): the symbiosis-unaware FCFS
scheduler already bridges ~76% / ~63% of the worst-to-best gap.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.variability import workload_variability
from repro.experiments.common import ExperimentContext, format_table
from repro.microarch.rates import RateTable
from repro.util.asciiplot import scatter
from repro.util.stats import slope_through_origin
from repro.experiments.registry import Experiment, RunOptions, register

__all__ = ["Figure2Point", "Figure2Series", "compute_figure2", "run", "render"]


@dataclass(frozen=True)
class Figure2Point:
    """One workload's position on the Figure-2 scatter."""

    workload_label: str
    optimal_vs_worst: float
    fcfs_vs_worst: float
    bridged_fraction: float


@dataclass(frozen=True)
class Figure2Series:
    """The full scatter plus the fitted slope for one configuration."""

    config: str
    points: tuple[Figure2Point, ...]
    slope: float
    mean_bridged_fraction: float


def compute_figure2(
    rates: RateTable, workloads, *, config: str
) -> Figure2Series:
    """Build the Figure-2 scatter for one machine."""
    points = []
    for workload in workloads:
        report = workload_variability(rates, workload)
        points.append(
            Figure2Point(
                workload_label=workload.label(),
                optimal_vs_worst=report.optimal_vs_worst,
                fcfs_vs_worst=report.fcfs_vs_worst,
                bridged_fraction=report.bridged_fraction,
            )
        )
    slope = slope_through_origin(
        [p.optimal_vs_worst for p in points],
        [p.fcfs_vs_worst for p in points],
        origin=(1.0, 1.0),
    )
    mean_bridge = sum(p.bridged_fraction for p in points) / len(points)
    return Figure2Series(
        config=config,
        points=tuple(points),
        slope=slope,
        mean_bridged_fraction=mean_bridge,
    )


def run(context: ExperimentContext, options: RunOptions) -> list[Figure2Series]:
    """Compute Figure 2 for both machine configurations."""
    return [
        compute_figure2(context.smt_rates, context.workloads, config="smt"),
        compute_figure2(context.quad_rates, context.workloads, config="quad"),
    ]


def render(series_list: list[Figure2Series]) -> str:
    """Summary table plus a few extreme points per configuration."""
    summary = format_table(
        ["config", "slope", "FCFS bridges", "points"],
        [
            (
                s.config,
                f"{s.slope:.2f}",
                f"{s.mean_bridged_fraction:.0%}",
                str(len(s.points)),
            )
            for s in series_list
        ],
    )
    details = []
    for s in series_list:
        details.append(f"\n{s.config}: FCFS-vs-worst against optimal-vs-worst")
        details.append(
            scatter(
                [p.optimal_vs_worst for p in s.points],
                [p.fcfs_vs_worst for p in s.points],
                x_label="optimal vs worst",
                y_label="FCFS vs worst",
            )
        )
        top = sorted(s.points, key=lambda p: -p.optimal_vs_worst)[:5]
        details.append(f"\n{s.config}: largest-headroom workloads")
        details.append(
            format_table(
                ["workload", "optimal/worst", "FCFS/worst"],
                [
                    (p.workload_label, f"{p.optimal_vs_worst:.3f}",
                     f"{p.fcfs_vs_worst:.3f}")
                    for p in top
                ],
            )
        )
    return summary + "\n" + "\n".join(details)


register(Experiment(
    name="figure2",
    kind="figure",
    title="Fig. 2 — optimal-vs-worst vs FCFS-vs-worst scatter",
    run=run,
    render=render,
))
