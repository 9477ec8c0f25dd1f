"""Workload-skew sensitivity (the Section III-D weighting remark).

The paper assumes equal work per type and notes this is *advantageous*
to symbiotic scheduling: "if a particular job type had more weight than
the other job types ..., it would dominate the execution, thereby
limiting the possibilities to exploit symbiosis."  This driver
quantifies the remark: it sweeps a geometric skew over the per-type
work shares and recomputes the optimal-over-FCFS gain at each level.
The gain should shrink toward zero as one type dominates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.fcfs import fcfs_throughput
from repro.core.optimal import optimal_throughput
from repro.core.workload import Workload
from repro.experiments.common import ExperimentContext, format_table, sample_workloads
from repro.microarch.rates import RateTable
from repro.experiments.registry import Experiment, RunOptions, register

__all__ = ["SkewPoint", "compute_skew", "run", "render", "geometric_weights"]


def geometric_weights(workload: Workload, skew: float) -> dict[str, float]:
    """Per-type shares 1, skew, skew^2, ... over the sorted types."""
    if skew <= 0.0:
        raise ValueError(f"skew must be positive, got {skew}")
    return {
        b: skew**i for i, b in enumerate(workload.types)
    }


@dataclass(frozen=True)
class SkewPoint:
    """Mean optimal-over-FCFS gain at one skew level."""

    skew: float
    dominant_share: float
    mean_gain: float
    workloads: int


def compute_skew(
    rates: RateTable,
    workloads: Sequence[Workload],
    *,
    skews: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
) -> list[SkewPoint]:
    """Sweep the work-share skew and average the optimal gain."""
    points = []
    for skew in skews:
        gains = []
        dominant = 0.0
        for workload in workloads:
            weights = geometric_weights(workload, skew)
            total = sum(weights.values())
            dominant = max(weights.values()) / total
            best = optimal_throughput(
                rates, workload, type_weights=weights
            ).throughput
            base = fcfs_throughput(
                rates, workload, type_weights=weights
            ).throughput
            gains.append(best / base - 1.0)
        points.append(
            SkewPoint(
                skew=skew,
                dominant_share=dominant,
                mean_gain=sum(gains) / len(gains),
                workloads=len(gains),
            )
        )
    return points


def run(context: ExperimentContext, options: RunOptions) -> list[SkewPoint]:
    """The skew sweep on a deterministic workload subsample."""
    workloads = sample_workloads(
        context.workloads,
        options.workloads(30),
        seed=options.seed_for("skew"),
    )
    return compute_skew(context.smt_rates, workloads)


def render(points: list[SkewPoint]) -> str:
    """Text rendering of the skew sweep."""
    table = format_table(
        ["skew", "dominant type share", "mean optimal gain", "workloads"],
        [
            (
                f"{p.skew:g}",
                f"{p.dominant_share:.0%}",
                f"+{p.mean_gain:.1%}",
                str(p.workloads),
            )
            for p in points
        ],
    )
    return table + (
        "\n\nAs one job type's work share grows, it dominates execution "
        "and the symbiotic\nscheduler loses its freedom — the paper's "
        "justification for calling the equal-work\nassumption "
        "'advantageous to symbiotic scheduling'."
    )


register(Experiment(
    name="skew",
    kind="analysis",
    title="Sec. III-D — work-share skew vs symbiotic headroom",
    run=run,
    render=render,
))
