"""Figure 1: variability of per-job IPC, instantaneous TP, average TP.

For each configuration the paper shows three bars (average and extreme
swings relative to a zero line):

1. per-job IPC across coschedules (zero line = mean IPC);
2. per-coschedule instantaneous throughput (zero line = mean it(s));
3. average throughput across schedulers (zero line = FCFS; positive =
   optimal scheduler, negative = worst scheduler).

Headline paper numbers for the SMT configuration: +23%/-14% average
per-job swing (37% spread), +35%/-35% instantaneous-TP swing (69%
spread), and only +3%/-9% average-TP swing (12% spread).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.variability import WorkloadVariability, workload_variability
from repro.experiments.common import ExperimentContext, format_table
from repro.microarch.rates import RateTable
from repro.util.asciiplot import hbar
from repro.experiments.registry import Experiment, RunOptions, register

__all__ = ["Figure1Bars", "compute_figure1", "run", "render"]


@dataclass(frozen=True)
class Figure1Bars:
    """All Figure-1 bar heights for one machine configuration."""

    config: str
    job_avg_max: float
    job_avg_min: float
    job_extreme_max: float
    job_extreme_min: float
    job_spread: float
    it_avg_max: float
    it_avg_min: float
    it_extreme_max: float
    it_extreme_min: float
    it_spread: float
    tp_avg_best: float
    tp_avg_worst: float
    tp_extreme_best: float
    tp_extreme_worst: float
    tp_spread: float


def compute_figure1(
    rates: RateTable, workloads, *, config: str
) -> tuple[Figure1Bars, list[WorkloadVariability]]:
    """Aggregate the Figure-1 bars over the given workloads."""
    reports = [workload_variability(rates, w) for w in workloads]
    n = len(reports)

    job_maxes = [v.relative_max for r in reports for v in r.job_variations.values()]
    job_mins = [v.relative_min for r in reports for v in r.job_variations.values()]

    bars = Figure1Bars(
        config=config,
        job_avg_max=sum(r.job_relative_max for r in reports) / n,
        job_avg_min=sum(r.job_relative_min for r in reports) / n,
        job_extreme_max=max(job_maxes),
        job_extreme_min=min(job_mins),
        job_spread=sum(r.job_spread for r in reports) / n,
        it_avg_max=sum(r.inst_tp_relative_max for r in reports) / n,
        it_avg_min=sum(r.inst_tp_relative_min for r in reports) / n,
        it_extreme_max=max(r.inst_tp_relative_max for r in reports),
        it_extreme_min=min(r.inst_tp_relative_min for r in reports),
        it_spread=sum(r.inst_tp_spread for r in reports) / n,
        tp_avg_best=sum(r.avg_tp_best for r in reports) / n,
        tp_avg_worst=sum(r.avg_tp_worst for r in reports) / n,
        tp_extreme_best=max(r.avg_tp_best for r in reports),
        tp_extreme_worst=min(r.avg_tp_worst for r in reports),
        tp_spread=sum(r.avg_tp_spread for r in reports) / n,
    )
    return bars, reports


def run(context: ExperimentContext, options: RunOptions) -> list[Figure1Bars]:
    """Compute Figure 1 for both machine configurations."""
    return [
        compute_figure1(context.smt_rates, context.workloads, config="smt")[0],
        compute_figure1(context.quad_rates, context.workloads, config="quad")[0],
    ]


def render(bars_list: list[Figure1Bars]) -> str:
    """Text rendering of the Figure-1 bars."""
    rows = []
    for b in bars_list:
        rows.append((b.config, "per-job IPC",
                     f"+{b.job_avg_max:.1%}", f"{b.job_avg_min:.1%}",
                     f"+{b.job_extreme_max:.1%}", f"{b.job_extreme_min:.1%}",
                     f"{b.job_spread:.1%}"))
        rows.append((b.config, "instantaneous TP",
                     f"+{b.it_avg_max:.1%}", f"{b.it_avg_min:.1%}",
                     f"+{b.it_extreme_max:.1%}", f"{b.it_extreme_min:.1%}",
                     f"{b.it_spread:.1%}"))
        rows.append((b.config, "average TP",
                     f"+{b.tp_avg_best:.1%}", f"{b.tp_avg_worst:.1%}",
                     f"+{b.tp_extreme_best:.1%}", f"{b.tp_extreme_worst:.1%}",
                     f"{b.tp_spread:.1%}"))
    table = format_table(
        ["config", "metric", "avg best", "avg worst", "max best",
         "min worst", "variability"],
        rows,
    )
    charts = []
    for b in bars_list:
        charts.append(f"\n{b.config}: average swings relative to the zero line")
        charts.append(
            hbar(
                [
                    "per-job IPC (best)",
                    "per-job IPC (worst)",
                    "inst. TP (best)",
                    "inst. TP (worst)",
                    "avg TP (optimal)",
                    "avg TP (worst)",
                ],
                [
                    b.job_avg_max,
                    b.job_avg_min,
                    b.it_avg_max,
                    b.it_avg_min,
                    b.tp_avg_best,
                    b.tp_avg_worst,
                ],
            )
        )
    return table + "\n" + "\n".join(charts)


register(Experiment(
    name="figure1",
    kind="figure",
    title="Fig. 1 — IPC / inst-TP / avg-TP variability bars",
    run=run,
    render=render,
))
