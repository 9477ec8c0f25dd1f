"""Dynamic validation of the Section III-D multi-machine reduction.

The paper claims symbiotic scheduling for M identical machines reduces
to the single-machine problem.  `repro.core.multimachine` verifies
this *analytically* (the joint LP gains nothing over M copies of the
single-machine optimum); this experiment verifies it *dynamically*: a
simulated M-machine cluster (round-robin dispatch composed with a
symbiosis-aware per-machine scheduler, saturated backlog) must achieve
the same throughput as

* M independent single-machine simulations, and
* the joint multi-machine LP optimum,

within a small tolerance.  Falling short of the independent machines
would mean the cluster composition loses throughput; the joint LP
bounds the throughput of any equal-work schedule, though the measured
window can overshoot it by a fraction of a percent (the drain-tail cut
of ``stop_when_fewer_than`` leaves a slightly non-equal work mix in
the window) — hence the two-sided tolerance on both comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Sequence

from repro.core.multimachine import (
    joint_optimal_throughput,
    reduced_optimal_throughput,
)
from repro.core.workload import Workload
from repro.experiments.common import (
    ExperimentContext,
    format_table,
    make_cluster,
    run_cells,
    sample_workloads,
)
from repro.experiments.registry import Experiment, RunOptions, register
from repro.microarch.rates import RateSource, infer_contexts
from repro.queueing.engine import run_system
from repro.queueing.job import Job
from repro.queueing.schedulers import make_scheduler
from repro.util.rng import make_rng

__all__ = [
    "ClusterComparison",
    "balanced_saturated_jobs",
    "compute_cluster",
    "run",
    "render",
]


def balanced_saturated_jobs(
    types: Sequence[str], n_jobs: int, *, seed: int = 0
) -> list[Job]:
    """A saturated backlog with *exactly* equal work per type.

    Each type appears ``n_jobs / len(types)`` times with unit size, in
    seeded shuffled order — the Section III-D equal-work assumption
    materialized.  A uniformly random type/size stream satisfies equal
    work only in expectation, and its sampling noise pushes short
    saturated measurements percent-scale past the LP optimum; with the
    balanced pool only boundary effects (the drain-tail cut) remain, so
    measurements track the LP to a fraction of a percent.
    """
    per_type, remainder = divmod(n_jobs, len(types))
    if remainder:
        raise ValueError(
            f"n_jobs={n_jobs} must be divisible by the {len(types)} types"
        )
    pool = [t for t in types for _ in range(per_type)]
    make_rng(seed).shuffle(pool)
    return [
        Job(job_id=i, job_type=t, size=1.0, arrival_time=0.0)
        for i, t in enumerate(pool)
    ]


@dataclass(frozen=True)
class ClusterComparison:
    """One workload's cluster-vs-reduction throughput comparison.

    Attributes:
        workload_label: the workload.
        n_machines: cluster size M.
        scheduler: per-machine scheduling policy.
        dispatcher: cluster-level dispatch policy.
        joint_lp_throughput: joint M-machine LP optimum (total WIPC).
        reduced_lp_throughput: M x the single-machine LP optimum.
        cluster_throughput: simulated M-machine cluster throughput.
        independent_throughput: sum of M independent single-machine
            simulations (distinct arrival seeds).
        tolerance: relative tolerance used for the verdict.
        memo_stats: the cluster run's rate-memo hit/miss counters and
            layer sizes (see
            :meth:`repro.queueing.ratememo.RunRateMemo.stats_dict`) —
            cache efficacy, surfaced into runner JSON and renders.
    """

    workload_label: str
    n_machines: int
    scheduler: str
    dispatcher: str
    joint_lp_throughput: float
    reduced_lp_throughput: float
    cluster_throughput: float
    independent_throughput: float
    tolerance: float
    memo_stats: dict | None = None

    @property
    def cluster_vs_independent(self) -> float:
        """Cluster throughput over M independent machines."""
        return self.cluster_throughput / self.independent_throughput

    @property
    def cluster_vs_joint_lp(self) -> float:
        """Cluster throughput over the joint LP optimum."""
        return self.cluster_throughput / self.joint_lp_throughput

    @property
    def within_tolerance(self) -> bool:
        """True when the simulated cluster matches both references."""
        return (
            abs(self.cluster_vs_independent - 1.0) <= self.tolerance
            and abs(self.cluster_vs_joint_lp - 1.0) <= self.tolerance
        )


def _compare_workload(
    rates: RateSource,
    workload: Workload,
    *,
    contexts: int,
    n_machines: int,
    scheduler: str,
    dispatcher: str,
    jobs_per_machine: int,
    backlog_per_machine: int,
    tolerance: float,
    seed: int,
) -> ClusterComparison:
    """One workload's full comparison: the experiment's grid cell."""
    k = contexts
    joint = joint_optimal_throughput(
        rates, workload, n_machines, contexts=k
    )
    reduced = reduced_optimal_throughput(
        rates, workload, n_machines, contexts=k
    )

    cluster = make_cluster(
        rates, workload, scheduler, dispatcher, n_machines, k
    )
    cluster_metrics = cluster.run(
        balanced_saturated_jobs(
            workload.types,
            n_machines * jobs_per_machine,
            seed=seed,
        ),
        stop_when_fewer_than=n_machines * k,
        keep_in_system=backlog_per_machine,
    )

    independent = sum(
        run_system(
            rates,
            make_scheduler(scheduler, rates, k, workload=workload),
            balanced_saturated_jobs(
                workload.types,
                jobs_per_machine,
                seed=seed + machine + 1,
            ),
            stop_when_fewer_than=k,
            keep_in_system=backlog_per_machine,
        ).throughput
        for machine in range(n_machines)
    )

    return ClusterComparison(
        workload_label=workload.label(),
        n_machines=n_machines,
        scheduler=scheduler,
        dispatcher=dispatcher,
        joint_lp_throughput=joint.throughput,
        reduced_lp_throughput=reduced.throughput,
        cluster_throughput=cluster_metrics.throughput,
        independent_throughput=independent,
        tolerance=tolerance,
        memo_stats=cluster.last_memo_stats,
    )


def compute_cluster(
    rates: RateSource,
    workloads: Sequence[Workload],
    *,
    n_machines: int = 3,
    scheduler: str = "maxtp",
    dispatcher: str = "round_robin",
    jobs_per_machine: int = 400,
    backlog_per_machine: int = 12,
    tolerance: float = 0.05,
    seed: int = 0,
    contexts: int | None = None,
    jobs: int = 1,
) -> list[ClusterComparison]:
    """Compare the simulated cluster against both reduction references.

    Every workload gets three measurements: the joint M-machine LP
    (with :func:`reduced_optimal_throughput` as a sanity cross-check),
    a saturated M-machine cluster simulation, and M independent
    saturated single-machine simulations whose throughputs sum.

    Workload cells share nothing, so ``jobs > 1`` fans them out through
    :func:`~repro.experiments.common.run_cells` (bit-identical to a
    serial run).
    """
    k = infer_contexts(rates, contexts)
    cell = partial(
        _compare_workload,
        contexts=k,
        n_machines=n_machines,
        scheduler=scheduler,
        dispatcher=dispatcher,
        jobs_per_machine=jobs_per_machine,
        backlog_per_machine=backlog_per_machine,
        tolerance=tolerance,
        seed=seed,
    )
    return run_cells(
        cell, rates, [(w,) for w in workloads], contexts=k, jobs=jobs
    )


def run(
    context: ExperimentContext, options: RunOptions
) -> list[ClusterComparison]:
    """The cluster validation on a deterministic workload subsample."""
    seed = options.seed_for("cluster_exp")
    workloads = sample_workloads(
        context.workloads, options.workloads(2), seed=seed
    )
    return compute_cluster(
        context.smt_rates,
        workloads,
        jobs_per_machine=160 if options.quick else 400,
        seed=seed,
        jobs=options.jobs,
    )


def render(comparisons: list[ClusterComparison]) -> str:
    """Text rendering of the cluster-vs-reduction comparison."""
    if not comparisons:
        return "no workloads compared"
    m = comparisons[0].n_machines
    table = format_table(
        [
            "workload",
            "joint LP",
            "M x 1-machine LP",
            "cluster sim",
            "M x 1-machine sim",
            "vs sim",
            "vs LP",
        ],
        [
            (
                c.workload_label,
                f"{c.joint_lp_throughput:.4f}",
                f"{c.reduced_lp_throughput:.4f}",
                f"{c.cluster_throughput:.4f}",
                f"{c.independent_throughput:.4f}",
                f"{c.cluster_vs_independent:.3f}",
                f"{c.cluster_vs_joint_lp:.3f}",
            )
            for c in comparisons
        ],
    )
    ok = sum(1 for c in comparisons if c.within_tolerance)
    tolerance = comparisons[0].tolerance
    verdict = (
        f"\n\nSection III-D reduction, dynamically: {ok}/{len(comparisons)} "
        f"workloads have the simulated {m}-machine cluster within "
        f"{tolerance:.0%} of both {m} independent single-machine runs and "
        "the joint multi-machine LP optimum."
    )
    memo_lines = []
    for c in comparisons:
        stats = c.memo_stats
        if stats:
            sizes = stats.get("sizes", {})
            memo_lines.append(
                f"  {c.workload_label}: {stats.get('hits', 0)} hits / "
                f"{stats.get('misses', 0)} misses "
                f"({float(stats.get('hit_rate', 0.0)):.1%} hit rate), "
                f"{sizes.get('probe_sets', 0)} probe sets, "
                f"{sizes.get('interned_types', 0)} interned types"
            )
    if memo_lines:
        verdict += "\n\nrun-memo cache efficacy:\n" + "\n".join(memo_lines)
    return table + verdict


register(Experiment(
    name="cluster_exp",
    kind="analysis",
    title="Sec. III-D — simulated M-machine cluster vs the reduction",
    run=run,
    render=render,
))
