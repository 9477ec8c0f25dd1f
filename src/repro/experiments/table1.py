"""Table I: the benchmark roster.

The paper's Table I lists the 12 selected SPEC CPU2006 benchmarks and
their inputs.  Our stand-in roster carries model parameters instead of
inputs; this driver prints the roster with the derived alone-IPC on
both machines, showing the low-to-high-interference coverage the paper
selected for.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.experiments.common import ExperimentContext, format_table
from repro.microarch.benchmarks import default_roster
from repro.experiments.registry import Experiment, RunOptions, register

__all__ = ["Table1Row", "compute_table1", "run", "render"]


@dataclass(frozen=True)
class Table1Row:
    """One roster entry with derived headline characteristics."""

    name: str
    category: str
    smt_alone_ipc: float
    quad_alone_ipc: float
    llc_mpki_warm: float
    mlp: float


def compute_table1(context: ExperimentContext) -> list[Table1Row]:
    """Roster with alone-IPCs measured on both machines."""
    rows = []
    for name, job in default_roster().items():
        rows.append(
            Table1Row(
                name=name,
                category=job.category,
                smt_alone_ipc=context.smt_rates.alone_ipc(name),
                quad_alone_ipc=context.quad_rates.alone_ipc(name),
                llc_mpki_warm=job.llc_mpki(context.quad_rates.machine.llc_mb),
                mlp=job.mlp,
            )
        )
    return rows


def render(rows: list[Table1Row]) -> str:
    """Text rendering of Table I."""
    return format_table(
        ["benchmark", "class", "IPC alone (SMT)", "IPC alone (quad)",
         "warm LLC MPKI", "MLP"],
        [
            (
                r.name,
                r.category,
                f"{r.smt_alone_ipc:.2f}",
                f"{r.quad_alone_ipc:.2f}",
                f"{r.llc_mpki_warm:.1f}",
                f"{r.mlp:.1f}",
            )
            for r in rows
        ],
    )


def run(context: ExperimentContext, options: RunOptions) -> list[Table1Row]:
    """Table I from the context's rate sources."""
    return compute_table1(context)


register(Experiment(
    name="table1",
    kind="table",
    title="Table I — benchmark roster",
    run=run,
    render=render,
))
