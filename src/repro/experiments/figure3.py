"""Figure 3: linear-bottleneck error vs throughput variability.

Each point is a workload: X = the least-squares error of the best
linear-bottleneck fit (Section V.C.1b), Y = optimal/worst throughput,
colored by the spread in per-type mean WIPC.  The paper finds a good
correlation — workloads close to a linear bottleneck have little
scheduling headroom — with the off-trend points explained by large
per-type performance differences (the equal-work constraint).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.bottleneck import fit_linear_bottleneck
from repro.core.sensitivity import per_type_rate_spread
from repro.core.variability import workload_variability
from repro.experiments.common import ExperimentContext, format_table
from repro.microarch.rates import RateTable
from repro.util.stats import pearson
from repro.experiments.registry import Experiment, RunOptions, register

__all__ = ["Figure3Point", "Figure3Series", "compute_figure3", "run", "render"]


@dataclass(frozen=True)
class Figure3Point:
    """One workload's position on the Figure-3 scatter."""

    workload_label: str
    bottleneck_error: float
    optimal_vs_worst: float
    rate_spread: float


@dataclass(frozen=True)
class Figure3Series:
    """The scatter plus its correlation for one configuration."""

    config: str
    points: tuple[Figure3Point, ...]
    correlation: float


def compute_figure3(
    rates: RateTable, workloads, *, config: str
) -> Figure3Series:
    """Build the Figure-3 scatter for one machine."""
    points = []
    for workload in workloads:
        fit = fit_linear_bottleneck(rates, workload)
        report = workload_variability(rates, workload)
        points.append(
            Figure3Point(
                workload_label=workload.label(),
                bottleneck_error=fit.error,
                optimal_vs_worst=report.optimal_vs_worst,
                rate_spread=per_type_rate_spread(rates, workload),
            )
        )
    correlation = pearson(
        [p.bottleneck_error for p in points],
        [p.optimal_vs_worst for p in points],
    )
    return Figure3Series(
        config=config, points=tuple(points), correlation=correlation
    )


def run(context: ExperimentContext, options: RunOptions) -> list[Figure3Series]:
    """Compute Figure 3 for both machine configurations."""
    return [
        compute_figure3(context.smt_rates, context.workloads, config="smt"),
        compute_figure3(context.quad_rates, context.workloads, config="quad"),
    ]


def render(series_list: list[Figure3Series]) -> str:
    """Summary with correlations and sample points."""
    summary = format_table(
        ["config", "corr(error, TP variability)", "points"],
        [
            (s.config, f"{s.correlation:.2f}", str(len(s.points)))
            for s in series_list
        ],
    )
    details = []
    for s in series_list:
        closest = sorted(s.points, key=lambda p: p.bottleneck_error)[:3]
        farthest = sorted(s.points, key=lambda p: -p.bottleneck_error)[:3]
        details.append(f"\n{s.config}: nearest/farthest linear bottleneck")
        details.append(
            format_table(
                ["workload", "lsq error", "optimal/worst", "rate spread"],
                [
                    (p.workload_label, f"{p.bottleneck_error:.4f}",
                     f"{p.optimal_vs_worst:.3f}", f"{p.rate_spread:.2f}")
                    for p in closest + farthest
                ],
            )
        )
    return summary + "\n" + "\n".join(details)


register(Experiment(
    name="figure3",
    kind="figure",
    title="Fig. 3 — linear-bottleneck error vs TP variability",
    run=run,
    render=render,
))
