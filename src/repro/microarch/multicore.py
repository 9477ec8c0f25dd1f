"""The multicore sharing model.

On the quad-core configuration every job owns a full 4-wide core with a
private ROB; only the LLC and the memory bus are shared.  One evaluation
step mirrors :mod:`repro.microarch.smt_core` but without the width and
window competition:

1. per-job MPKI from LLC capacity shares;
2. effective memory latency from total miss bandwidth;
3. per-job IPC = 1 / (core CPI + memory CPI), capped by the core width.

The interference structure that emerges matches the paper's quad-core
discussion: compute jobs with small footprints are nearly *insensitive*
(their allocation barely matters), memory-bound jobs interact through
capacity and bandwidth, and slowdowns are distributed far more evenly
than on SMT — which is exactly why the paper's optimal scheduler can
exploit heterogeneous coschedules so much better on this machine
(Table II).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.microarch.cache import share_allocator
from repro.microarch.config import MachineConfig
from repro.microarch.contention import ContentionMap, llc_miss_model
from repro.microarch.membus import bus_model
from repro.microarch.params import (
    JobTypeParams,
    core_cpi_of,
    effective_mlp_of,
    window_scaling_of,
)

__all__ = ["MulticoreEvaluation", "evaluate_multicore", "multicore_iteration"]


@dataclass(frozen=True)
class MulticoreEvaluation:
    """One evaluation of the multicore contention equations."""

    next_ipcs: tuple[float, ...]
    next_shares: tuple[float, ...]
    mpkis: tuple[float, ...]
    memory_latency: float
    bus_utilization: float


def multicore_iteration(
    machine: MachineConfig, jobs: Sequence[JobTypeParams]
) -> ContentionMap:
    """The multicore contention map of one coschedule, over the state
    vector ``[ipc_1..n, share_1..n]``; its
    :meth:`~ContentionMap.evaluate` returns a
    :class:`MulticoreEvaluation`."""
    n = len(jobs)
    if n == 0:
        raise ValueError("need at least one job")
    memory_latency = machine.mem_latency_cycles
    width = float(machine.width)
    bus = bus_model(
        machine.bus_service_cycles,
        max_utilization=machine.bus_max_utilization,
    )
    split = share_allocator(
        n, machine.llc_mb, floor_fraction=machine.cache_share_floor
    )
    llc_misses = llc_miss_model(jobs)
    # Every job owns a private core, so its window is the full ROB.
    scales = window_scaling_of(jobs)([float(machine.rob_size)] * n)
    core_cpis = core_cpi_of(jobs, machine.branch_penalty_cycles)(scales)
    mlps = effective_mlp_of(jobs)(scales)
    indices = range(n)

    def equations(state: Sequence[float]):
        mpkis, misses = llc_misses(state)
        utilization, delay = bus(misses)
        latency = memory_latency + delay
        following = []
        pressures = []
        for i in indices:
            mpki = mpkis[i]
            rate = 1.0 / (core_cpis[i] + mpki / 1000.0 * latency / mlps[i])
            ipc = width if width < rate else rate
            following.append(ipc)
            pressures.append(ipc * mpki / 1000.0)
        following += split(pressures)
        return following, mpkis, latency, utilization

    return ContentionMap(n, equations, MulticoreEvaluation)


def evaluate_multicore(
    machine: MachineConfig,
    jobs: Sequence[JobTypeParams],
    ipcs: Sequence[float],
    shares: Sequence[float],
) -> MulticoreEvaluation:
    """Evaluate the contention equations once at the given estimates."""
    return multicore_iteration(machine, jobs).evaluate(ipcs, shares)
