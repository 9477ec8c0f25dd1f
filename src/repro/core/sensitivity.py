"""Job-(in)sensitivity analysis (Section V.C.1a).

A job is *insensitive* when its performance barely depends on which
jobs co-run with it.  If every job in a workload is insensitive there is
nothing for a symbiotic scheduler to exploit.  The paper reports that
about a quarter of its workloads have low job sensitivity and that
those workloads indeed show low average-throughput variability — but
also that sensitivity alone cannot explain the small optimal-vs-FCFS
gap (average job sensitivity is about three times the average
throughput variability).

Additionally, Section V.C.2 identifies the *spread in per-type mean
performance* (fast types vs slow types) as the force that shrinks the
scheduler's feasible region, which Figure 3 encodes as the point color.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.variability import job_wipc_stats
from repro.core.workload import Workload
from repro.microarch.rates import RateSource

__all__ = ["SensitivityReport", "workload_sensitivity", "per_type_rate_spread"]


@dataclass(frozen=True)
class SensitivityReport:
    """Per-workload job-sensitivity summary.

    Attributes:
        workload: the analyzed workload.
        per_type: per-type variability ((max-min)/mean of the per-job
            rate across coschedules).
        mean_sensitivity: average of ``per_type`` over the types.
    """

    workload: Workload
    per_type: dict[str, float]
    mean_sensitivity: float


def workload_sensitivity(
    rates: RateSource,
    workload: Workload,
    *,
    contexts: int | None = None,
) -> SensitivityReport:
    """Compute per-type and mean job sensitivity for a workload."""
    machine = getattr(rates, "machine", None)
    k = contexts if contexts is not None else (machine.contexts if machine else None)
    if k is None:
        raise ValueError("pass contexts=K for rate sources without a machine")

    variations = job_wipc_stats(rates, workload, k)
    per_type = {b: v.spread for b, v in variations.items()}
    return SensitivityReport(
        workload=workload,
        per_type=per_type,
        mean_sensitivity=sum(per_type.values()) / len(per_type),
    )


def per_type_rate_spread(
    rates: RateSource,
    workload: Workload,
    *,
    contexts: int | None = None,
) -> float:
    """Spread of per-type *mean* WIPC across the workload's types.

    This is Figure 3's color axis: ``(max_b - min_b)`` of the mean
    per-job WIPC of each type (taken over all coschedules containing
    the type).  A large spread means slow types dominate execution time
    and the scheduler has little freedom (Section V.C.2).
    """
    machine = getattr(rates, "machine", None)
    k = contexts if contexts is not None else (machine.contexts if machine else None)
    if k is None:
        raise ValueError("pass contexts=K for rate sources without a machine")

    variations = job_wipc_stats(rates, workload, k)
    means = [v.stats.mean for v in variations.values()]
    return max(means) - min(means)
