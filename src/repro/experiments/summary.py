"""One-screen digest: the paper's headline numbers, recomputed live.

Prints the quantities the abstract leads with — per-job IPC
variability, per-coschedule instantaneous-throughput variability, and
the optimal scheduler's average-throughput gain — next to the paper's
published values, for both machine configurations.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentContext, format_table
from repro.experiments.figure1 import compute_figure1
from repro.experiments.figure2 import compute_figure2
from repro.experiments.registry import Experiment, RunOptions, register

__all__ = ["HeadlineNumbers", "compute_summary", "run", "render"]

_PAPER = {
    "smt": {
        "job_spread": 0.37,
        "it_spread": 0.69,
        "optimal_gain": 0.03,
        "worst_loss": -0.09,
        "slope": 0.73,
        "bridged": 0.76,
    },
    "quad": {
        "job_spread": 0.35,
        "it_spread": 0.48,
        "optimal_gain": 0.06,
        "worst_loss": None,  # not quoted as a single number in the text
        "slope": 0.56,
        "bridged": 0.63,
    },
}


@dataclass(frozen=True)
class HeadlineNumbers:
    """Measured headline quantities for one configuration."""

    config: str
    job_spread: float
    it_spread: float
    optimal_gain: float
    worst_loss: float
    slope: float
    bridged: float


def compute_summary(context: ExperimentContext) -> list[HeadlineNumbers]:
    """Recompute the abstract's numbers over the context's workloads."""
    numbers = []
    for config in ("smt", "quad"):
        rates = context.rates_for(config)
        bars, _ = compute_figure1(rates, context.workloads, config=config)
        series = compute_figure2(rates, context.workloads, config=config)
        numbers.append(
            HeadlineNumbers(
                config=config,
                job_spread=bars.job_spread,
                it_spread=bars.it_spread,
                optimal_gain=bars.tp_avg_best,
                worst_loss=bars.tp_avg_worst,
                slope=series.slope,
                bridged=series.mean_bridged_fraction,
            )
        )
    return numbers


def render(numbers: list[HeadlineNumbers]) -> str:
    """Measured-vs-paper table."""
    rows = []
    for n in numbers:
        paper = _PAPER[n.config]

        def fmt(value, reference, *, pct=True):
            measured = f"{value:.1%}" if pct else f"{value:.2f}"
            if reference is None:
                return f"{measured} (n/a)"
            ref = f"{reference:.0%}" if pct else f"{reference:.2f}"
            return f"{measured} (paper {ref})"

        rows.extend(
            [
                (n.config, "per-job variability", fmt(n.job_spread, paper["job_spread"])),
                (n.config, "inst-TP variability", fmt(n.it_spread, paper["it_spread"])),
                (n.config, "optimal vs FCFS", fmt(n.optimal_gain, paper["optimal_gain"])),
                (n.config, "worst vs FCFS", fmt(n.worst_loss, paper["worst_loss"])),
                (n.config, "Figure-2 slope", fmt(n.slope, paper["slope"], pct=False)),
                (n.config, "FCFS bridges", fmt(n.bridged, paper["bridged"])),
            ]
        )
    table = format_table(["config", "quantity", "measured (paper)"], rows)
    return (
        table
        + "\n\nThe reproduction targets shape, not absolute values: the "
        "scheduling headroom\nis a small fraction of the underlying "
        "variability on both machines."
    )


def run(context: ExperimentContext, options: RunOptions) -> list[HeadlineNumbers]:
    """The headline numbers over the context's workloads."""
    return compute_summary(context)


register(Experiment(
    name="summary",
    kind="analysis",
    title="Abstract — headline digest, measured vs paper",
    run=run,
    render=render,
))
