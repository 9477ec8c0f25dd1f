"""Unit-of-work check (Section III-B).

The paper presents weighted-instruction results but reports checking
that the qualitative conclusions also hold for the raw instruction as
unit of work.  This driver re-runs the optimal/FCFS/worst comparison
under both units for a sample of workloads and prints the gains side
by side.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.units import compare_units
from repro.core.workload import Workload
from repro.experiments.common import ExperimentContext, format_table, sample_workloads
from repro.microarch.rates import RateTable
from repro.experiments.registry import Experiment, RunOptions, register

__all__ = ["UnitComparison", "compute_units", "run", "render"]


@dataclass(frozen=True)
class UnitComparison:
    """Optimal-over-FCFS gains under both units for one workload."""

    workload_label: str
    weighted_gain: float
    instruction_gain: float


def compute_units(
    rates: RateTable, workloads: Sequence[Workload]
) -> list[UnitComparison]:
    """Per-workload gains under the weighted and raw instruction units."""
    comparisons = []
    for workload in workloads:
        result = compare_units(rates, workload)
        comparisons.append(
            UnitComparison(
                workload_label=workload.label(),
                weighted_gain=result["weighted"]["gain"],
                instruction_gain=result["instruction"]["gain"],
            )
        )
    return comparisons


def run(context: ExperimentContext, options: RunOptions) -> list[UnitComparison]:
    """The unit check on a deterministic workload subsample."""
    workloads = sample_workloads(
        context.workloads,
        options.workloads(20),
        seed=options.seed_for("units"),
    )
    return compute_units(context.smt_rates, workloads)


def render(comparisons: list[UnitComparison]) -> str:
    """Side-by-side gains plus the qualitative verdict."""
    n = len(comparisons)
    mean_w = sum(c.weighted_gain for c in comparisons) / n
    mean_i = sum(c.instruction_gain for c in comparisons) / n
    table = format_table(
        ["workload", "gain (weighted)", "gain (instruction)"],
        [
            (c.workload_label, f"+{c.weighted_gain:.1%}",
             f"+{c.instruction_gain:.1%}")
            for c in comparisons[:12]
        ],
    )
    return (
        f"mean optimal-over-FCFS gain: weighted +{mean_w:.1%}, "
        f"raw instruction +{mean_i:.1%}\n"
        "(the paper's check: conclusions are unit-independent)\n\n" + table
    )


register(Experiment(
    name="units",
    kind="analysis",
    title="Sec. III-B — raw-instruction unit-of-work check",
    run=run,
    render=render,
))
