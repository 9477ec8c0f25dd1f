"""Section V.D: the fairness counterfactual.

The paper's check of its fairness explanation: make the per-type rates
inside the single fully-heterogeneous coschedule equal (preserving its
instantaneous throughput) and re-run the LP.  The optimal scheduler then
selects the heterogeneous coschedule "for most of the time", raising
average throughput substantially, while FCFS and the worst scheduler
barely move.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.fairness import equalize_heterogeneous_rates
from repro.core.fcfs import fcfs_throughput
from repro.core.optimal import optimal_throughput, worst_throughput
from repro.core.workload import Workload
from repro.experiments.common import ExperimentContext, format_table, sample_workloads
from repro.microarch.rates import RateTable
from repro.experiments.registry import Experiment, RunOptions, register

__all__ = ["FairnessOutcome", "compute_fairness_cf", "run", "render"]


@dataclass(frozen=True)
class FairnessOutcome:
    """Before/after the Section-V.D rate equalization for one workload."""

    workload_label: str
    optimal_before: float
    optimal_after: float
    fcfs_before: float
    fcfs_after: float
    worst_before: float
    worst_after: float
    hetero_fraction_before: float
    hetero_fraction_after: float

    @property
    def optimal_change(self) -> float:
        """Relative optimal-throughput change from the transform."""
        return self.optimal_after / self.optimal_before - 1.0

    @property
    def fcfs_change(self) -> float:
        """Relative FCFS-throughput change (should be small)."""
        return self.fcfs_after / self.fcfs_before - 1.0

    @property
    def worst_change(self) -> float:
        """Relative worst-throughput change (should be small)."""
        return self.worst_after / self.worst_before - 1.0


def compute_fairness_cf(
    rates: RateTable, workloads: Sequence[Workload]
) -> list[FairnessOutcome]:
    """Apply the counterfactual to each workload and re-solve."""
    contexts = rates.machine.contexts
    outcomes = []
    for workload in workloads:
        hetero = tuple(workload.types)
        before_best = optimal_throughput(rates, workload)
        before_fcfs = fcfs_throughput(rates, workload)
        before_worst = worst_throughput(rates, workload)

        fair = equalize_heterogeneous_rates(rates, workload)
        after_best = optimal_throughput(fair, workload, contexts=contexts)
        after_fcfs = fcfs_throughput(fair, workload, contexts=contexts)
        after_worst = worst_throughput(fair, workload, contexts=contexts)

        outcomes.append(
            FairnessOutcome(
                workload_label=workload.label(),
                optimal_before=before_best.throughput,
                optimal_after=after_best.throughput,
                fcfs_before=before_fcfs.throughput,
                fcfs_after=after_fcfs.throughput,
                worst_before=before_worst.throughput,
                worst_after=after_worst.throughput,
                hetero_fraction_before=before_best.fraction_of(hetero),
                hetero_fraction_after=after_best.fraction_of(hetero),
            )
        )
    return outcomes


def run(context: ExperimentContext, options: RunOptions) -> list[FairnessOutcome]:
    """The counterfactual on a deterministic workload subsample."""
    workloads = sample_workloads(
        context.workloads,
        options.workloads(60),
        seed=options.seed_for("fairness"),
    )
    return compute_fairness_cf(context.smt_rates, workloads)


def render(outcomes: list[FairnessOutcome]) -> str:
    """Mean effects plus the per-workload detail."""
    n = len(outcomes)
    summary = (
        f"means over {n} workloads: optimal "
        f"+{sum(o.optimal_change for o in outcomes) / n:.1%}, FCFS "
        f"{sum(o.fcfs_change for o in outcomes) / n:+.2%}, worst "
        f"{sum(o.worst_change for o in outcomes) / n:+.2%}; "
        f"hetero-coschedule time "
        f"{sum(o.hetero_fraction_before for o in outcomes) / n:.0%} -> "
        f"{sum(o.hetero_fraction_after for o in outcomes) / n:.0%}"
    )
    table = format_table(
        ["workload", "opt change", "fcfs change", "hetero frac before",
         "hetero frac after"],
        [
            (
                o.workload_label,
                f"+{o.optimal_change:.1%}",
                f"{o.fcfs_change:+.2%}",
                f"{o.hetero_fraction_before:.0%}",
                f"{o.hetero_fraction_after:.0%}",
            )
            for o in outcomes[:12]
        ],
    )
    return summary + "\n" + table


register(Experiment(
    name="fairness",
    kind="analysis",
    title="Sec. V.D — fairness counterfactual",
    run=run,
    render=render,
))
