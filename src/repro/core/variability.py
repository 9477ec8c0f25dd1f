"""Figure-1 metrics: three levels of variability.

For one workload the paper contrasts:

1. **Per-job IPC variability** — how much one job's performance swings
   across the coschedules of the workload (relative to its mean).
   Relative swings are identical in IPC and WIPC units (WIPC is IPC
   scaled by a per-type constant), so this module computes them from
   per-job WIPC and they remain valid for frozen rate tables.
2. **Instantaneous-throughput variability** — how much ``it(s)`` swings
   across coschedules.
3. **Average-throughput variability** — how much the long-term average
   throughput differs between the optimal, FCFS, and worst schedulers.

The paper's headline observation is the ordering 1, 2 >> 3, and within
3 that optimal-vs-FCFS is small (a few percent).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from repro.core.fcfs import fcfs_throughput
from repro.core.optimal import optimal_throughput, worst_throughput
from repro.core.workload import Workload
from repro.microarch.rates import RateSource
from repro.util.stats import SummaryStats, summarize

__all__ = [
    "JobVariation",
    "WorkloadVariability",
    "job_wipc_stats",
    "workload_variability",
]


@dataclass(frozen=True)
class JobVariation:
    """One job type's performance swing across coschedules.

    ``relative_max``/``relative_min`` are the Figure-1 bar heights:
    (max - mean)/mean and (min - mean)/mean of the per-job rate over all
    coschedules containing the type.
    """

    job_type: str
    stats: SummaryStats

    @property
    def relative_max(self) -> float:
        """Best-case swing above the mean (positive)."""
        return self.stats.maximum / self.stats.mean - 1.0

    @property
    def relative_min(self) -> float:
        """Worst-case swing below the mean (negative)."""
        return self.stats.minimum / self.stats.mean - 1.0

    @property
    def spread(self) -> float:
        """(max - min) / mean — the paper's variability measure."""
        return self.stats.spread


def job_wipc_stats(
    rates: RateSource, workload: Workload, contexts: int
) -> dict[str, JobVariation]:
    """Per-job rate statistics across the workload's coschedules.

    For each type b, collects the per-job WIPC of b in every coschedule
    that contains at least one b job (coschedules weighted equally, as
    in the paper's Figure 1).
    """
    samples: dict[str, list[float]] = {b: [] for b in workload.types}
    for s in workload.coschedules(contexts):
        counts = Counter(s)
        type_rates = rates.type_rates(s)
        for b, count in counts.items():
            samples[b].append(type_rates[b] / count)
    return {
        b: JobVariation(job_type=b, stats=summarize(values))
        for b, values in samples.items()
    }


@dataclass(frozen=True)
class WorkloadVariability:
    """All three Figure-1 variability levels for one workload.

    The ``avg_tp_*`` fields are relative to the FCFS scheduler (the
    figure's zero line for the third bar):

    * ``avg_tp_best``  = optimal/FCFS - 1  (>= 0 up to LP tolerance),
    * ``avg_tp_worst`` = worst/FCFS - 1    (<= 0).
    """

    workload: Workload
    job_variations: dict[str, JobVariation]
    inst_tp_stats: SummaryStats
    fcfs_tp: float
    optimal_tp: float
    worst_tp: float

    @property
    def job_relative_max(self) -> float:
        """Mean over types of the best-case per-job swing."""
        values = [v.relative_max for v in self.job_variations.values()]
        return sum(values) / len(values)

    @property
    def job_relative_min(self) -> float:
        """Mean over types of the worst-case per-job swing."""
        values = [v.relative_min for v in self.job_variations.values()]
        return sum(values) / len(values)

    @property
    def job_spread(self) -> float:
        """Mean per-job variability ((max-min)/mean) over types."""
        values = [v.spread for v in self.job_variations.values()]
        return sum(values) / len(values)

    @property
    def inst_tp_relative_max(self) -> float:
        """Best coschedule's it(s) relative to the mean."""
        return self.inst_tp_stats.maximum / self.inst_tp_stats.mean - 1.0

    @property
    def inst_tp_relative_min(self) -> float:
        """Worst coschedule's it(s) relative to the mean."""
        return self.inst_tp_stats.minimum / self.inst_tp_stats.mean - 1.0

    @property
    def inst_tp_spread(self) -> float:
        """Instantaneous-throughput variability."""
        return self.inst_tp_stats.spread

    @property
    def avg_tp_best(self) -> float:
        """Optimal scheduler's gain over FCFS."""
        return self.optimal_tp / self.fcfs_tp - 1.0

    @property
    def avg_tp_worst(self) -> float:
        """Worst scheduler's loss versus FCFS (negative)."""
        return self.worst_tp / self.fcfs_tp - 1.0

    @property
    def avg_tp_spread(self) -> float:
        """(optimal - worst) / FCFS — average-throughput variability."""
        return (self.optimal_tp - self.worst_tp) / self.fcfs_tp

    @property
    def optimal_vs_worst(self) -> float:
        """Optimal / worst throughput ratio (Figure 2's x-axis)."""
        return self.optimal_tp / self.worst_tp

    @property
    def fcfs_vs_worst(self) -> float:
        """FCFS / worst throughput ratio (Figure 2's y-axis)."""
        return self.fcfs_tp / self.worst_tp

    @property
    def bridged_fraction(self) -> float:
        """Share of the worst->optimal gap that FCFS already bridges."""
        gap = self.optimal_tp - self.worst_tp
        if gap <= 0.0:
            return 1.0
        return (self.fcfs_tp - self.worst_tp) / gap


def workload_variability(
    rates: RateSource,
    workload: Workload,
    *,
    contexts: int | None = None,
) -> WorkloadVariability:
    """Compute all Figure-1 quantities for one workload."""
    machine = getattr(rates, "machine", None)
    k = contexts if contexts is not None else (machine.contexts if machine else None)
    if k is None:
        raise ValueError("pass contexts=K for rate sources without a machine")

    inst_tp = [
        sum(rates.type_rates(s).values()) for s in workload.coschedules(k)
    ]
    return WorkloadVariability(
        workload=workload,
        job_variations=job_wipc_stats(rates, workload, k),
        inst_tp_stats=summarize(inst_tp),
        fcfs_tp=fcfs_throughput(rates, workload, contexts=k).throughput,
        optimal_tp=optimal_throughput(rates, workload, contexts=k).throughput,
        worst_tp=worst_throughput(rates, workload, contexts=k).throughput,
    )
