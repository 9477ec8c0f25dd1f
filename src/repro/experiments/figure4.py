"""Figure 4: turnaround time versus arrival rate (M/M/4 illustration).

The paper's generic curve plus its worked example: an M/M/4 queue at
lambda = 3.5, mu = 1 holds 8.7 jobs on average with turnaround 2.5;
raising mu by 3% (the optimal scheduler's throughput gain) drops these
to 7.3 and 2.1 — a 16% turnaround reduction from a 3% capacity gain.
This is the paper's explanation for why earlier symbiotic-scheduling
studies reported large turnaround improvements.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import format_table
from repro.queueing.mmk import MMKQueue
from repro.experiments.registry import Experiment, RunOptions, register

__all__ = ["Figure4Example", "CurvePoint", "compute_example", "compute_curves", "run", "render"]


@dataclass(frozen=True)
class Figure4Example:
    """The Section-VI M/M/4 worked example."""

    base_jobs_in_system: float
    base_turnaround: float
    improved_jobs_in_system: float
    improved_turnaround: float

    @property
    def turnaround_reduction(self) -> float:
        """Relative turnaround reduction from the 3% service-rate gain."""
        return 1.0 - self.improved_turnaround / self.base_turnaround


@dataclass(frozen=True)
class CurvePoint:
    """One (arrival rate, turnaround) sample on the two curves."""

    arrival_rate: float
    base_turnaround: float
    improved_turnaround: float


def compute_example(
    *,
    arrival_rate: float = 3.5,
    service_rate: float = 1.0,
    improvement: float = 0.03,
    servers: int = 4,
) -> Figure4Example:
    """The paper's worked example (defaults reproduce its numbers)."""
    base = MMKQueue(
        arrival_rate=arrival_rate, service_rate=service_rate, servers=servers
    )
    improved = MMKQueue(
        arrival_rate=arrival_rate,
        service_rate=service_rate * (1.0 + improvement),
        servers=servers,
    )
    return Figure4Example(
        base_jobs_in_system=base.mean_jobs_in_system,
        base_turnaround=base.mean_turnaround,
        improved_jobs_in_system=improved.mean_jobs_in_system,
        improved_turnaround=improved.mean_turnaround,
    )


def compute_curves(
    *,
    service_rate: float = 1.0,
    improvement: float = 0.03,
    servers: int = 4,
    n_points: int = 30,
    max_load: float = 0.99,
) -> list[CurvePoint]:
    """Sample the base and improved turnaround curves of Figure 4."""
    capacity = servers * service_rate
    points = []
    for i in range(1, n_points + 1):
        rate = capacity * max_load * i / n_points
        base = MMKQueue(
            arrival_rate=rate, service_rate=service_rate, servers=servers
        )
        improved = MMKQueue(
            arrival_rate=rate,
            service_rate=service_rate * (1.0 + improvement),
            servers=servers,
        )
        points.append(
            CurvePoint(
                arrival_rate=rate,
                base_turnaround=base.mean_turnaround
                if base.is_stable
                else float("inf"),
                improved_turnaround=improved.mean_turnaround
                if improved.is_stable
                else float("inf"),
            )
        )
    return points


def render(example: Figure4Example, curve: list[CurvePoint]) -> str:
    """Text rendering: the worked example plus curve samples."""
    header = (
        f"M/M/4 example: L={example.base_jobs_in_system:.1f} "
        f"W={example.base_turnaround:.2f}  ->  "
        f"mu*1.03: L={example.improved_jobs_in_system:.1f} "
        f"W={example.improved_turnaround:.2f}  "
        f"({example.turnaround_reduction:.0%} turnaround reduction)"
    )
    table = format_table(
        ["arrival rate", "turnaround (mu)", "turnaround (mu*1.03)"],
        [
            (
                f"{p.arrival_rate:.2f}",
                "inf" if p.base_turnaround == float("inf")
                else f"{p.base_turnaround:.2f}",
                "inf" if p.improved_turnaround == float("inf")
                else f"{p.improved_turnaround:.2f}",
            )
            for p in curve[::3]
        ],
    )
    return header + "\n" + table


def run(context, options: RunOptions) -> tuple:
    """The worked example and the curves (analytic; no rates used)."""
    return compute_example(), compute_curves()


def _registry_render(result: tuple) -> str:
    example, curves = result
    return render(example, curves)


register(Experiment(
    name="figure4",
    kind="figure",
    title="Fig. 4 — M/M/4 turnaround vs arrival rate",
    run=run,
    render=_registry_render,
))
