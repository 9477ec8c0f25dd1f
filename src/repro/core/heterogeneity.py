"""Table-II analysis: where does each scheduler spend its time?

The paper groups coschedules by *heterogeneity* (number of distinct job
types) and reports, per group, the average instantaneous throughput and
the fraction of time the FCFS, optimal, and worst schedulers spend in
that group.  The pattern explains the headline result: heterogeneous
coschedules have the best instantaneous throughput; the worst scheduler
hides in homogeneous ones; FCFS lands near the multinomial draw mix; the
optimal scheduler shifts toward heterogeneity as far as the equal-work
constraint lets it (much farther on the quad-core than on SMT).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fcfs import fcfs_throughput
from repro.core.optimal import optimal_throughput, worst_throughput
from repro.core.workload import Workload
from repro.microarch.rates import RateSource
from repro.util.multiset import distinct_count, multiset_draw_probability

__all__ = ["HeterogeneityRow", "HeterogeneityTable", "heterogeneity_table"]


@dataclass(frozen=True)
class HeterogeneityRow:
    """One Table-II row: coschedules with a given number of distinct types.

    Attributes:
        heterogeneity: number of distinct job types in the group.
        mean_instantaneous_tp: unweighted mean it(s) over the group.
        fcfs_fraction: time fraction the FCFS scheduler spends here.
        optimal_fraction: same for the optimal scheduler.
        worst_fraction: same for the worst scheduler.
        draw_probability: multinomial probability of drawing such a
            coschedule with uniform i.i.d. type draws (the paper's
            "theoretical values" for FCFS: 2/33/56/9 % at N=K=4).
    """

    heterogeneity: int
    mean_instantaneous_tp: float
    fcfs_fraction: float
    optimal_fraction: float
    worst_fraction: float
    draw_probability: float


@dataclass(frozen=True)
class HeterogeneityTable:
    """Table II for one workload."""

    workload: Workload
    rows: tuple[HeterogeneityRow, ...]

    def row(self, heterogeneity: int) -> HeterogeneityRow:
        """The row for a given heterogeneity level."""
        for row in self.rows:
            if row.heterogeneity == heterogeneity:
                return row
        raise KeyError(f"no heterogeneity-{heterogeneity} coschedules")


def heterogeneity_table(
    rates: RateSource,
    workload: Workload,
    *,
    contexts: int | None = None,
) -> HeterogeneityTable:
    """Compute Table II (per-heterogeneity fractions) for one workload."""
    machine = getattr(rates, "machine", None)
    k = contexts if contexts is not None else (machine.contexts if machine else None)
    if k is None:
        raise ValueError("pass contexts=K for rate sources without a machine")

    coschedules = workload.coschedules(k)
    fcfs = fcfs_throughput(rates, workload, contexts=k)
    best = optimal_throughput(rates, workload, contexts=k)
    worst = worst_throughput(rates, workload, contexts=k)

    groups: dict[int, list[tuple[str, ...]]] = {}
    for s in coschedules:
        groups.setdefault(distinct_count(s), []).append(s)

    rows = []
    for heterogeneity in sorted(groups):
        members = groups[heterogeneity]
        mean_it = sum(
            sum(rates.type_rates(s).values()) for s in members
        ) / len(members)
        rows.append(
            HeterogeneityRow(
                heterogeneity=heterogeneity,
                mean_instantaneous_tp=mean_it,
                fcfs_fraction=sum(fcfs.fraction_of(s) for s in members),
                optimal_fraction=sum(best.fraction_of(s) for s in members),
                worst_fraction=sum(worst.fraction_of(s) for s in members),
                draw_probability=sum(
                    multiset_draw_probability(s, workload.n_types)
                    for s in members
                ),
            )
        )
    return HeterogeneityTable(workload=workload, rows=tuple(rows))
