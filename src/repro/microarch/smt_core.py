"""The SMT-core sharing model.

Performance of a coschedule on the 4-way SMT core is the fixed point of
coupled contention equations.  One evaluation step, given current
estimates of per-thread IPC and LLC shares:

1. **Cache** — each thread's LLC MPKI from its capacity share
   (:mod:`repro.microarch.cache`).
2. **Bus** — effective memory latency from the total miss bandwidth
   (:mod:`repro.microarch.membus`).
3. **ROB** — instruction-window allocations from the partitioning
   policy and provisional stall fractions (:mod:`repro.microarch.rob`);
   windows set effective ILP and MLP.
4. **Width** — mean-field slot competition: while thread *i* is active
   (not memory-stalled) it sees an expected dispatch share of

       share_i = eta * W / (1 + sum_{j!=i} c_j)

   where ``c_j`` is co-runner j's *rival weight* from the fetch policy
   (:mod:`repro.microarch.fetch`: 1 under round-robin, roughly the
   active fraction under ICOUNT — stalled threads stop eating slots),
   and ``eta`` a front-end fragmentation factor that shrinks the usable
   width as more threads are simultaneously active.  The thread's
   execution rate while active is the minimum of its intrinsic rate and
   this share.

The resulting IPCs and cache-insertion pressures form the next iterate.
The fixed point reproduces the SMT behaviours the paper leans on:
aggregate IPC saturating far below the nominal width (the linear
bottleneck of compute-heavy coschedules), *unfairly distributed*
slowdowns — high-IPC threads are crushed when co-runners are active
while memory-bound threads, already limited by their own misses, lose
comparatively little — and the sensitivity of both to the fetch/ROB
policies studied in Section VII (ICOUNT + dynamic ROB wins because
stalled threads neither clog the ROB nor waste fetch slots).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.microarch.cache import share_allocator
from repro.microarch.config import MachineConfig
from repro.microarch.contention import ContentionMap, llc_misses
from repro.microarch.fetch import rival_weigher
from repro.microarch.membus import bus_model
from repro.microarch.params import JobTypeParams
from repro.microarch.rob import window_allocator

__all__ = ["SmtEvaluation", "evaluate_smt", "smt_iteration"]


@dataclass(frozen=True)
class SmtEvaluation:
    """One evaluation of the SMT contention equations.

    ``next_ipcs``/``next_shares`` form the next fixed-point iterate; the
    remaining fields are diagnostics exposed by the simulator facade.
    """

    next_ipcs: tuple[float, ...]
    next_shares: tuple[float, ...]
    mpkis: tuple[float, ...]
    windows: tuple[float, ...]
    stall_fractions: tuple[float, ...]
    memory_latency: float
    bus_utilization: float


def smt_iteration(
    machine: MachineConfig, jobs: Sequence[JobTypeParams]
) -> ContentionMap:
    """The SMT contention map of one coschedule, over the state vector
    ``[ipc_1..n, share_1..n]``; its :meth:`~ContentionMap.evaluate`
    returns an :class:`SmtEvaluation`."""
    n = len(jobs)
    if n == 0:
        raise ValueError("need at least one job")
    rob = float(machine.rob_size)
    penalty = machine.branch_penalty_cycles
    memory_latency = machine.mem_latency_cycles
    fragmentation = machine.smt_fragmentation
    width = machine.width
    bus = bus_model(
        machine.bus_service_cycles,
        max_utilization=machine.bus_max_utilization,
    )
    allocate_windows = window_allocator(
        jobs, machine.rob_size, machine.rob_policy, machine.fetch_policy
    )
    weigh = rival_weigher(
        machine.fetch_policy,
        strength=machine.icount_strength,
        rr_slot_waste=machine.rr_slot_waste,
    )
    split = share_allocator(
        n, machine.llc_mb, floor_fraction=machine.cache_share_floor
    )
    curves = [job.llc_mpki for job in jobs]
    mlps = [job.mlp for job in jobs]
    # Pass A runs every job at the full ROB.
    full_cpis = [
        job.core_cpi(job.window_scaling(rob), penalty) for job in jobs
    ]
    smt_factor = 1.0 + machine.smt_overhead * (n - 1)
    rivals_of = [[j for j in range(n) if j != i] for i in range(n)]
    indices = range(n)

    def equations(ipcs: Sequence[float], shares: Sequence[float]):
        mpkis, misses = llc_misses(curves, ipcs, shares)
        utilization, delay = bus(misses)
        latency = memory_latency + delay

        # Pass A: provisional stall fractions with full windows, used
        # only to drive the ROB partitioning.
        provisional_stalls = []
        for i in indices:
            t_mem = mpkis[i] / 1000.0 * latency / mlps[i]
            provisional_stalls.append(t_mem / (full_cpis[i] + t_mem))
        windows = allocate_windows(provisional_stalls)

        # Pass B: final per-thread timing with the allocated windows.
        # The stall/active fractions are evaluated at the *state* IPCs
        # so that, at the fixed point, they reflect the width-squeezed
        # schedule (a thread slowed by slot competition is active a
        # larger fraction of the time) rather than the unconstrained
        # demand.
        t_execs = []
        t_mems = []
        stall_fractions = []
        activities = []
        expected_active = 0.0
        for i in indices:
            job = jobs[i]
            scale = job.window_scaling(windows[i])
            t_exec = job.core_cpi(scale, penalty) * smt_factor
            t_mem = mpkis[i] / 1000.0 * latency / job.effective_mlp(scale)
            t_execs.append(t_exec)
            t_mems.append(t_mem)
            stall = min(0.99, max(0.0, t_mem * ipcs[i]))
            stall_fractions.append(stall)
            activity = 1.0 - stall
            activities.append(activity)
            expected_active += activity
        weights = weigh(activities)

        # Mean-field dispatch-slot competition with front-end
        # fragmentation.
        eta = 1.0 / (1.0 + fragmentation * max(0.0, expected_active - 1.0))
        allocation = []
        for i in indices:
            rivals = 0.0
            for j in rivals_of[i]:
                rivals += weights[j]
            share = eta * width / (1.0 + rivals)
            active_rate = min(1.0 / t_execs[i], share)
            allocation.append(1.0 / (1.0 / active_rate + t_mems[i]))

        next_shares = split(
            [a * m / 1000.0 for a, m in zip(allocation, mpkis)]
        )
        return (
            allocation,
            next_shares,
            mpkis,
            windows,
            stall_fractions,
            latency,
            utilization,
        )

    return ContentionMap(n, equations, SmtEvaluation)


def evaluate_smt(
    machine: MachineConfig,
    jobs: Sequence[JobTypeParams],
    ipcs: Sequence[float],
    shares: Sequence[float],
) -> SmtEvaluation:
    """Evaluate the contention equations once at the given estimates."""
    return smt_iteration(machine, jobs).evaluate(ipcs, shares)
