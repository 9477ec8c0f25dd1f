"""Section VII: the fetch/ROB policy study.

Compares round-robin vs ICOUNT fetch and static vs dynamic ROB
partitioning on the SMT core under two metrics — FCFS throughput and
optimal-scheduler throughput.  The paper finds ICOUNT + dynamic beats
RR + static by 1.7% (FCFS metric) and 1.5% (optimal metric), that the
policy ranking is metric-stable on average, but that ~10% of individual
workloads flip their preferred policy, and that intelligent scheduling
(+3.3% on RR+static) is worth more than the policy upgrade itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.policy_study import (
    ALL_POLICIES,
    PolicyStudy,
    policy_label,
    run_policy_study,
)
from repro.core.workload import Workload
from repro.experiments.common import ExperimentContext, format_table, sample_workloads
from repro.microarch.config import FetchPolicy, RobPolicy
from repro.experiments.registry import Experiment, RunOptions, register

__all__ = ["Section7Summary", "compute_section7", "run", "render"]

_BASELINE = (FetchPolicy.ROUND_ROBIN, RobPolicy.STATIC)
_BEST = (FetchPolicy.ICOUNT, RobPolicy.DYNAMIC)


@dataclass(frozen=True)
class Section7Summary:
    """Headline quantities of the policy study."""

    study: PolicyStudy
    best_over_baseline_fcfs: float
    best_over_baseline_optimal: float
    scheduling_gain_on_baseline: float
    flip_fraction: float


def compute_section7(workloads: Sequence[Workload]) -> Section7Summary:
    """Run the four-policy study and derive the paper's summary numbers."""
    study = run_policy_study(workloads)
    baseline = study.result(*_BASELINE)
    scheduling_gain = (
        sum(
            baseline.optimal_tp[label] / baseline.fcfs_tp[label] - 1.0
            for label in study.workload_labels
        )
        / len(study.workload_labels)
    )
    return Section7Summary(
        study=study,
        best_over_baseline_fcfs=study.mean_gain_over(
            _BASELINE, _BEST, metric="fcfs"
        ),
        best_over_baseline_optimal=study.mean_gain_over(
            _BASELINE, _BEST, metric="optimal"
        ),
        scheduling_gain_on_baseline=scheduling_gain,
        flip_fraction=study.flip_fraction(),
    )


def run(context: ExperimentContext, options: RunOptions) -> Section7Summary:
    """Section VII on the context's workloads (optionally subsampled).

    Note: this builds four fresh rate tables (one per policy pair), so
    it re-simulates the coschedule sweep four times.
    """
    workloads = context.workloads
    cap = options.workloads(None)
    if cap is not None and cap < len(workloads):
        workloads = sample_workloads(
            workloads, cap, seed=options.seed_for("section7")
        )
    return compute_section7(workloads)


def render(summary: Section7Summary) -> str:
    """Per-policy means plus the headline comparisons."""
    table = format_table(
        ["policy", "mean FCFS TP", "mean optimal TP", "optimal gain"],
        [
            (
                policy_label(fetch, rob),
                f"{summary.study.result(fetch, rob).mean_fcfs:.3f}",
                f"{summary.study.result(fetch, rob).mean_optimal:.3f}",
                f"+{summary.study.result(fetch, rob).mean_optimal / summary.study.result(fetch, rob).mean_fcfs - 1.0:.1%}",
            )
            for fetch, rob in ALL_POLICIES
        ],
    )
    lines = [
        table,
        "",
        f"icount+dynamic over rr+static (FCFS metric):    "
        f"+{summary.best_over_baseline_fcfs:.1%}",
        f"icount+dynamic over rr+static (optimal metric): "
        f"+{summary.best_over_baseline_optimal:.1%}",
        f"optimal scheduling on rr+static itself:          "
        f"+{summary.scheduling_gain_on_baseline:.1%}",
        f"workloads flipping best policy with the metric:  "
        f"{summary.flip_fraction:.1%}",
    ]
    return "\n".join(lines)


register(Experiment(
    name="section7",
    kind="section",
    title="Sec. VII — fetch/ROB policy study",
    run=run,
    render=render,
))
