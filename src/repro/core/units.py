"""Units of work: weighted instructions vs raw instructions (Section III-B).

The paper's headline results use the *weighted instruction* (WIPC); it
states that "we checked that our qualitative conclusions also hold for
the instruction as unit of work".  This module makes that check a
first-class operation: :func:`instruction_rate_view` re-expresses a
rate table in raw instructions per cycle, so every analysis in
:mod:`repro.core` can be re-run under the alternative unit.
"""

from __future__ import annotations

from typing import Sequence

from repro.errors import WorkloadError
from repro.microarch.rates import RateTable, TableRates
from repro.util.multiset import multisets

__all__ = ["instruction_rate_view", "compare_units"]


def instruction_rate_view(
    rates: RateTable,
    types: Sequence[str],
    *,
    sizes: Sequence[int] | None = None,
) -> TableRates:
    """Freeze a rate table in raw-IPC units over the given types.

    The returned table's ``type_rates`` are total IPC per type instead
    of total WIPC — i.e. every job's reference rate is 1 instruction
    per cycle rather than its alone-IPC.

    Args:
        rates: a simulating rate table (needed for raw IPCs).
        types: the job types to cover.
        sizes: coschedule sizes to include (default: 1..K).
    """
    if not types:
        raise WorkloadError("need at least one job type")
    k = rates.machine.contexts
    size_list = list(sizes) if sizes is not None else list(range(1, k + 1))
    table: dict[tuple[str, ...], dict[str, float]] = {}
    for size in size_list:
        for coschedule in multisets(sorted(types), size):
            result = rates.result(coschedule)
            totals: dict[str, float] = {}
            for job, ipc in zip(result.job_names, result.ipcs):
                totals[job] = totals.get(job, 0.0) + ipc
            table[coschedule] = totals
    return TableRates(table)


def compare_units(rates: RateTable, workload) -> dict[str, dict[str, float]]:
    """Optimal/FCFS/worst throughput under both units of work.

    Returns ``{"weighted": {...}, "instruction": {...}}`` with keys
    ``optimal``, ``fcfs``, ``worst`` and ``gain`` (optimal/FCFS - 1).
    The paper's qualitative claim is that ``gain`` is small under both.
    """
    from repro.core.fcfs import fcfs_throughput
    from repro.core.optimal import optimal_throughput, worst_throughput

    k = rates.machine.contexts
    views = {
        "weighted": rates,
        "instruction": instruction_rate_view(rates, workload.types),
    }
    out: dict[str, dict[str, float]] = {}
    for unit, view in views.items():
        best = optimal_throughput(view, workload, contexts=k)
        base = fcfs_throughput(view, workload, contexts=k)
        worst = worst_throughput(view, workload, contexts=k)
        out[unit] = {
            "optimal": best.throughput,
            "fcfs": base.throughput,
            "worst": worst.throughput,
            "gain": best.throughput / base.throughput - 1.0,
        }
    return out
