"""Section VII: optimal throughput as a microarchitecture-study metric.

The paper compares four SMT resource-management policies — {round-robin,
ICOUNT} fetch x {static, dynamic} ROB partitioning — under two
throughput metrics: the standard FCFS average throughput and the
optimal-scheduler throughput of Section IV.  The point is that a
microarchitecture study can account for intelligent scheduling without
implementing a scheduler: just recompute the LP bound on the proposed
design's per-coschedule rates.

:func:`run_policy_study` reproduces the experiment: for each policy
pair it builds a rate table for the corresponding SMT machine, computes
FCFS and optimal throughput for every workload, and reports averages
plus the fraction of workloads whose best policy flips when switching
metrics.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.fcfs import fcfs_throughput
from repro.core.optimal import optimal_throughput
from repro.core.workload import Workload
from repro.microarch.config import FetchPolicy, RobPolicy, smt_machine
from repro.microarch.params import JobTypeParams
from repro.microarch.rates import RateTable

__all__ = ["PolicyResult", "PolicyStudy", "run_policy_study", "ALL_POLICIES"]

ALL_POLICIES: tuple[tuple[FetchPolicy, RobPolicy], ...] = (
    (FetchPolicy.ROUND_ROBIN, RobPolicy.STATIC),
    (FetchPolicy.ROUND_ROBIN, RobPolicy.DYNAMIC),
    (FetchPolicy.ICOUNT, RobPolicy.STATIC),
    (FetchPolicy.ICOUNT, RobPolicy.DYNAMIC),
)


def policy_label(fetch: FetchPolicy, rob: RobPolicy) -> str:
    """Short label, e.g. ``icount+dynamic``."""
    return f"{fetch.value}+{rob.value}"


@dataclass(frozen=True)
class PolicyResult:
    """Average throughputs of one fetch/ROB policy pair.

    ``fcfs_tp``/``optimal_tp`` map workload labels to throughput.
    """

    fetch: FetchPolicy
    rob: RobPolicy
    fcfs_tp: dict[str, float]
    optimal_tp: dict[str, float]

    @property
    def label(self) -> str:
        """Short policy label."""
        return policy_label(self.fetch, self.rob)

    @property
    def mean_fcfs(self) -> float:
        """Mean FCFS throughput over workloads."""
        return sum(self.fcfs_tp.values()) / len(self.fcfs_tp)

    @property
    def mean_optimal(self) -> float:
        """Mean optimal throughput over workloads."""
        return sum(self.optimal_tp.values()) / len(self.optimal_tp)


@dataclass(frozen=True)
class PolicyStudy:
    """Full Section-VII comparison across the four policy pairs."""

    results: tuple[PolicyResult, ...]
    workload_labels: tuple[str, ...]

    def result(self, fetch: FetchPolicy, rob: RobPolicy) -> PolicyResult:
        """The result for one policy pair."""
        for result in self.results:
            if result.fetch is fetch and result.rob is rob:
                return result
        raise KeyError(policy_label(fetch, rob))

    def best_policy(self, workload_label: str, *, metric: str) -> str:
        """Best policy label for a workload under 'fcfs' or 'optimal'."""
        if metric == "fcfs":
            return max(
                self.results, key=lambda r: r.fcfs_tp[workload_label]
            ).label
        if metric == "optimal":
            return max(
                self.results, key=lambda r: r.optimal_tp[workload_label]
            ).label
        raise ValueError(f"metric must be 'fcfs' or 'optimal', got {metric!r}")

    def flip_fraction(self) -> float:
        """Fraction of workloads whose best policy changes with the metric.

        The paper reports about 10% of workloads select a different
        optimal policy under the optimal-scheduler metric than under
        FCFS.
        """
        flips = sum(
            1
            for label in self.workload_labels
            if self.best_policy(label, metric="fcfs")
            != self.best_policy(label, metric="optimal")
        )
        return flips / len(self.workload_labels)

    def mean_gain_over(
        self,
        baseline: tuple[FetchPolicy, RobPolicy],
        candidate: tuple[FetchPolicy, RobPolicy],
        *,
        metric: str,
    ) -> float:
        """Mean relative throughput gain of candidate over baseline."""
        base = self.result(*baseline)
        cand = self.result(*candidate)
        base_tp = base.fcfs_tp if metric == "fcfs" else base.optimal_tp
        cand_tp = cand.fcfs_tp if metric == "fcfs" else cand.optimal_tp
        gains = [
            cand_tp[label] / base_tp[label] - 1.0
            for label in self.workload_labels
        ]
        return sum(gains) / len(gains)


def run_policy_study(
    workloads: Sequence[Workload],
    *,
    roster: Mapping[str, JobTypeParams] | None = None,
    policies: Sequence[tuple[FetchPolicy, RobPolicy]] = ALL_POLICIES,
) -> PolicyStudy:
    """Run the Section-VII policy comparison over the given workloads."""
    results = []
    labels = tuple(w.label() for w in workloads)
    for fetch, rob in policies:
        machine = smt_machine(fetch_policy=fetch, rob_policy=rob)
        rates = RateTable(machine, roster)
        fcfs_tp: dict[str, float] = {}
        optimal_tp: dict[str, float] = {}
        for workload in workloads:
            label = workload.label()
            fcfs_tp[label] = fcfs_throughput(rates, workload).throughput
            optimal_tp[label] = optimal_throughput(rates, workload).throughput
        results.append(
            PolicyResult(
                fetch=fetch, rob=rob, fcfs_tp=fcfs_tp, optimal_tp=optimal_tp
            )
        )
    return PolicyStudy(results=tuple(results), workload_labels=labels)
