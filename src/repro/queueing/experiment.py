"""The Section-VI experiments: latency (Figure 5) and saturation (Figure 6).

**Latency experiment** — jobs arrive as a Poisson process at a given
*load* (fraction of the FCFS maximum throughput, which the paper
computes with TPCalc and we compute with
:func:`repro.core.fcfs.fcfs_throughput`).  Reported metrics: mean
turnaround time, processor utilization (average busy contexts), and the
fraction of time the system is empty.

**Saturation experiment** — all jobs are present from the start (arrival
rate effectively above the maximum throughput); the measured quantity is
the achieved long-term throughput, which for MAXTP should match the LP
maximum and for FCFS the TPCalc value.

Both experiments accept any :class:`~repro.microarch.rates.RateSource`,
including a :class:`~repro.microarch.rate_cache.CachedRateSource`
wrapper — cached and uncached sources produce bit-identical
:class:`~repro.queueing.system.SystemMetrics` (a property test pins
this), so the persisted cache is a pure speedup.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.fcfs import fcfs_throughput
from repro.core.workload import Workload
from repro.errors import WorkloadError
from repro.microarch.rates import RateSource, infer_contexts
from repro.queueing.arrivals import poisson_arrivals, saturated_arrivals
from repro.queueing.engine import run_system
from repro.queueing.schedulers import make_scheduler
from repro.queueing.system import SystemMetrics

__all__ = [
    "LatencyResult",
    "SaturationResult",
    "run_latency_experiment",
    "run_saturation_experiment",
]


@dataclass(frozen=True)
class LatencyResult:
    """Outcome of one latency experiment.

    Attributes:
        scheduler_name: policy used.
        workload: the workload.
        load: requested load as a fraction of FCFS maximum throughput.
        arrival_rate: resulting arrival rate (jobs per unit time).
        metrics: raw accumulated system metrics.
    """

    scheduler_name: str
    workload: Workload
    load: float
    arrival_rate: float
    metrics: SystemMetrics

    @property
    def mean_turnaround(self) -> float:
        """Average job turnaround time."""
        return self.metrics.mean_turnaround

    @property
    def utilization(self) -> float:
        """Average number of busy contexts."""
        return self.metrics.utilization

    @property
    def empty_fraction(self) -> float:
        """Fraction of time the system holds no jobs."""
        return self.metrics.empty_fraction


@dataclass(frozen=True)
class SaturationResult:
    """Outcome of one saturation (maximum-throughput) experiment."""

    scheduler_name: str
    workload: Workload
    metrics: SystemMetrics

    @property
    def throughput(self) -> float:
        """Achieved long-term throughput (WIPC)."""
        return self.metrics.throughput


def run_latency_experiment(
    rates: RateSource,
    workload: Workload,
    scheduler_name: str,
    load: float,
    *,
    n_jobs: int = 20_000,
    warmup_fraction: float = 0.1,
    mean_size: float = 1.0,
    fixed_sizes: bool = False,
    seed: int = 0,
    contexts: int | None = None,
) -> LatencyResult:
    """Poisson-arrival experiment at a fraction of FCFS max throughput.

    Args:
        rates: per-coschedule execution rates.
        workload: the N equiprobable job types.
        scheduler_name: "fcfs", "maxit", "srpt", or "maxtp".
        load: arrival rate as a fraction of the FCFS maximum throughput
            (the paper uses 0.8 / 0.9 / 0.95).
        n_jobs: number of arrivals to simulate.
        warmup_fraction: fraction of expected run time discarded.
        mean_size: mean job size in work units.
        fixed_sizes: constant job sizes instead of exponential.
        seed: RNG seed (same seed => same arrival sequence for every
            scheduler, enabling paired comparisons).
        contexts: context count K (inferred when possible).
    """
    if not 0.0 < load:
        raise WorkloadError(f"load must be positive, got {load}")
    k = infer_contexts(rates, contexts)
    max_tp = fcfs_throughput(rates, workload, contexts=k).throughput
    arrival_rate = load * max_tp / mean_size

    scheduler = make_scheduler(scheduler_name, rates, k, workload=workload)
    arrivals = poisson_arrivals(
        workload.types,
        rate=arrival_rate,
        n_jobs=n_jobs,
        mean_size=mean_size,
        fixed_sizes=fixed_sizes,
        seed=seed,
    )
    expected_duration = n_jobs / arrival_rate
    metrics = run_system(
        rates,
        scheduler,
        arrivals,
        warmup_time=warmup_fraction * expected_duration,
    )
    return LatencyResult(
        scheduler_name=scheduler.name,
        workload=workload,
        load=load,
        arrival_rate=arrival_rate,
        metrics=metrics,
    )


def run_saturation_experiment(
    rates: RateSource,
    workload: Workload,
    scheduler_name: str,
    *,
    n_jobs: int = 4_000,
    backlog: int = 16,
    mean_size: float = 1.0,
    fixed_sizes: bool = False,
    seed: int = 0,
    contexts: int | None = None,
) -> SaturationResult:
    """Maximum-throughput experiment: all jobs queued from time zero.

    The scheduler sees a bounded backlog window of ``backlog`` jobs
    (refilled on every completion), and the run stops as soon as fewer
    jobs than contexts remain, so the machine is fully loaded for the
    whole measurement window (no drain tail with idle contexts).
    """
    k = infer_contexts(rates, contexts)
    if backlog < k:
        raise WorkloadError(f"backlog {backlog} must be at least K={k}")
    scheduler = make_scheduler(scheduler_name, rates, k, workload=workload)
    arrivals = saturated_arrivals(
        workload.types,
        n_jobs=n_jobs,
        mean_size=mean_size,
        fixed_sizes=fixed_sizes,
        seed=seed,
    )
    metrics = run_system(
        rates,
        scheduler,
        arrivals,
        stop_when_fewer_than=k,
        keep_in_system=backlog,
    )
    return SaturationResult(
        scheduler_name=scheduler.name,
        workload=workload,
        metrics=metrics,
    )
