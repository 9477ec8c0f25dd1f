"""Coschedule simulation facade.

:func:`simulate_coschedule` is the package's analogue of "run this job
combination under Sniper and report per-job performance": it solves the
machine-appropriate contention fixed point and returns per-job IPCs plus
diagnostics.  Results are deterministic functions of (machine, roster,
multiset of job names); the multiset is canonicalized by sorting, so
callers may pass names in any order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from repro.errors import ConvergenceError, WorkloadError
from repro.microarch.config import MachineConfig
from repro.microarch.multicore import multicore_iteration
from repro.microarch.params import JobTypeParams
from repro.microarch.smt_core import smt_iteration
from repro.util.fixedpoint import solve_fixed_point

# Under-relaxation ladder: most coschedules converge fast at 0.4; heavily
# bus-saturated ones (e.g. four streaming jobs) sit where the queueing
# delay's derivative is large and need smaller steps to avoid limit
# cycles.  solve_fixed_point abandons a rung whose residual has stopped
# contracting long before its budget runs out.  That is exact for a rung
# that would have exhausted its budget anyway: every rung restarts from
# the same start vector, so the next rung returns what it would have
# returned after the full budget, only sooner.
_DAMPING_LADDER: tuple[float, ...] = (0.4, 0.12, 0.04)

__all__ = ["SimulationResult", "simulate_coschedule"]


@dataclass(frozen=True)
class SimulationResult:
    """Steady-state performance of one coschedule.

    All per-job tuples are aligned with ``job_names``, which is the
    canonical (sorted) form of the requested multiset.

    Attributes:
        machine_name: the simulated machine configuration.
        job_names: canonical job-name multiset.
        ipcs: per-job instructions per cycle.
        mpkis: per-job LLC misses per kilo-instruction at steady state.
        cache_mb: per-job LLC capacity allocations.
        windows: per-job instruction-window sizes (SMT; full ROB on the
            multicore).
        memory_latency: effective memory latency including bus queueing.
        bus_utilization: modeled memory-bus utilization in [0, 1).
        iterations: fixed-point iterations to convergence.
        evaluations: contention-map evaluations over every damping rung
            tried, abandoned rungs included (equals ``iterations`` when
            the first rung converges).  A cost diagnostic: it does not
            take part in ``==``, so results that agree on every model
            output compare equal however many rungs each took.
    """

    machine_name: str
    job_names: tuple[str, ...]
    ipcs: tuple[float, ...]
    mpkis: tuple[float, ...]
    cache_mb: tuple[float, ...]
    windows: tuple[float, ...]
    memory_latency: float
    bus_utilization: float
    iterations: int
    evaluations: int = field(compare=False)

    @property
    def total_ipc(self) -> float:
        """Sum of per-job IPCs (raw-instruction instantaneous throughput)."""
        return sum(self.ipcs)

    def ipc_of(self, name: str) -> tuple[float, ...]:
        """IPCs of every job of type ``name`` in this coschedule."""
        values = tuple(
            ipc for job, ipc in zip(self.job_names, self.ipcs) if job == name
        )
        if not values:
            raise WorkloadError(f"{name!r} is not part of this coschedule")
        return values


def simulate_coschedule(
    machine: MachineConfig,
    roster: Mapping[str, JobTypeParams],
    names: Sequence[str],
) -> SimulationResult:
    """Simulate a multiset of jobs co-running on ``machine``.

    Args:
        machine: SMT or multicore configuration.
        roster: job-type definitions keyed by name.
        names: job-type names filling 1..K contexts (a multiset; order
            is irrelevant).

    Raises:
        WorkloadError: on unknown names or bad multiset sizes.
        ConvergenceError: if the contention fixed point fails at every
            damping in the ladder (should not happen for physical
            parameter values); the message says why each rung ended.
    """
    if not names:
        raise WorkloadError("a coschedule needs at least one job")
    if len(names) > machine.contexts:
        raise WorkloadError(
            f"{len(names)} jobs exceed the machine's {machine.contexts} contexts"
        )
    unknown = sorted(set(names) - set(roster))
    if unknown:
        raise WorkloadError(
            f"unknown job types {unknown!r}; roster has {sorted(roster)}"
        )

    canonical = tuple(sorted(names))
    jobs = [roster[name] for name in canonical]
    n = len(jobs)

    # The coschedule's map is built once: the damping rungs iterate it
    # and the diagnostics below evaluate it at the fixed point.
    iterate = (
        smt_iteration(machine, jobs)
        if machine.is_smt
        else multicore_iteration(machine, jobs)
    )
    start = [1.0] * n + [machine.llc_mb / n] * n
    fixed_point = None
    failures: list[str] = []
    for damping in _DAMPING_LADDER:
        try:
            fixed_point = solve_fixed_point(
                iterate,
                start,
                damping=damping,
                tolerance=1e-10,
                max_iterations=5000,
            )
            break
        except ConvergenceError as error:
            failures.append(f"damping {damping}: {error}")
    if fixed_point is None:
        raise ConvergenceError(
            f"coschedule {canonical} on {machine.name} did not converge at "
            f"any damping in {_DAMPING_LADDER}: " + "; ".join(failures)
        )
    ipcs = fixed_point.value[:n]
    shares = fixed_point.value[n:]

    evaluation = iterate.evaluate(ipcs, shares)
    if machine.is_smt:
        windows = evaluation.windows
    else:
        windows = (float(machine.rob_size),) * n

    return SimulationResult(
        machine_name=machine.name,
        job_names=canonical,
        ipcs=tuple(evaluation.next_ipcs),
        mpkis=evaluation.mpkis,
        cache_mb=tuple(evaluation.next_shares),
        windows=windows,
        memory_latency=evaluation.memory_latency,
        bus_utilization=evaluation.bus_utilization,
        iterations=fixed_point.iterations,
        evaluations=iterate.evaluations,
    )
