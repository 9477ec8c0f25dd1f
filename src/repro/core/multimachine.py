"""Multi-machine symbiotic scheduling (Section III-D).

The paper notes that, under its workload assumptions, "symbiotic
scheduling for multiple identical machines can be reduced to the
problem of symbiotic scheduling for a single machine": split the
workload evenly so every machine sees a statistically identical
workload and solve each machine locally.

This module provides both sides of that claim:

* :func:`joint_optimal_throughput` — the explicit joint LP over
  per-machine coschedule time fractions with a *global* equal-work
  constraint (machines may specialize);
* :func:`reduced_optimal_throughput` — M times the single-machine
  optimum.

Their equality (verified by the test suite, and exposed via
:func:`verify_reduction`) is the formal content of the paper's remark.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.optimal import OptimalSchedule, optimal_throughput
from repro.core.workload import Workload
from repro.errors import SolverError, WorkloadError
from repro.lp.model import LinearExpr, Model, Sense
from repro.microarch.rates import RateSource, infer_contexts

__all__ = [
    "MultiMachineSchedule",
    "joint_optimal_throughput",
    "reduced_optimal_throughput",
    "verify_reduction",
]


@dataclass(frozen=True)
class MultiMachineSchedule:
    """An optimal schedule for M identical machines.

    Attributes:
        workload: the shared workload.
        n_machines: number of identical machines M.
        throughput: total (all-machines) long-term throughput.
        per_machine_fractions: per machine, the coschedule time
            fractions (support only).
    """

    workload: Workload
    n_machines: int
    throughput: float
    per_machine_fractions: tuple[dict[tuple[str, ...], float], ...]

    @property
    def per_machine_throughput(self) -> float:
        """Average throughput per machine."""
        return self.throughput / self.n_machines


def joint_optimal_throughput(
    rates: RateSource,
    workload: Workload,
    n_machines: int,
    *,
    contexts: int | None = None,
) -> MultiMachineSchedule:
    """Solve the explicit joint LP over M identical machines.

    Variables ``x[m, s]`` give machine m's time fraction in coschedule
    s; each machine's fractions sum to 1 and the equal-work constraints
    are *global* (a machine may run only fast types as long as another
    compensates).  The theorem says this freedom buys nothing.
    """
    if n_machines <= 0:
        raise WorkloadError(f"n_machines must be positive, got {n_machines}")
    k = infer_contexts(rates, contexts)
    coschedules = workload.coschedules(k)
    type_rates = {s: rates.type_rates(s) for s in coschedules}

    model = Model(
        name=f"joint[{n_machines}x{workload.label()}]", sense=Sense.MAXIMIZE
    )
    x = {
        (m, s): model.add_variable(f"x[{m},{','.join(s)}]")
        for m in range(n_machines)
        for s in coschedules
    }
    for m in range(n_machines):
        model.add_constraint(
            LinearExpr({x[m, s]: 1.0 for s in coschedules}) == 1.0,
            name=f"time_budget[{m}]",
        )
    reference = workload.types[0]
    for b in workload.types[1:]:
        balance = LinearExpr(
            {
                x[m, s]: type_rates[s].get(b, 0.0)
                - type_rates[s].get(reference, 0.0)
                for m in range(n_machines)
                for s in coschedules
            }
        )
        model.add_constraint(balance == 0.0, name=f"equal_work[{b}]")
    model.set_objective(
        LinearExpr(
            {
                x[m, s]: sum(type_rates[s].values())
                for m in range(n_machines)
                for s in coschedules
            }
        )
    )

    solution = model.solve()
    if not solution.is_optimal:
        raise SolverError(
            f"joint multi-machine LP terminated {solution.status.value}"
        )
    fractions = []
    for m in range(n_machines):
        machine_fractions = {
            s: solution.value(x[m, s].name)
            for s in coschedules
            if solution.value(x[m, s].name) > 1e-12
        }
        fractions.append(machine_fractions)
    return MultiMachineSchedule(
        workload=workload,
        n_machines=n_machines,
        throughput=solution.objective,
        per_machine_fractions=tuple(fractions),
    )


def reduced_optimal_throughput(
    rates: RateSource,
    workload: Workload,
    n_machines: int,
    *,
    contexts: int | None = None,
) -> MultiMachineSchedule:
    """The paper's reduction: every machine runs the 1-machine optimum."""
    if n_machines <= 0:
        raise WorkloadError(f"n_machines must be positive, got {n_machines}")
    single: OptimalSchedule = optimal_throughput(
        rates, workload, contexts=contexts
    )
    return MultiMachineSchedule(
        workload=workload,
        n_machines=n_machines,
        throughput=n_machines * single.throughput,
        per_machine_fractions=tuple(
            dict(single.fractions) for _ in range(n_machines)
        ),
    )


def verify_reduction(
    rates: RateSource,
    workload: Workload,
    n_machines: int,
    *,
    contexts: int | None = None,
    tolerance: float = 1e-7,
) -> bool:
    """Check that the joint LP gains nothing over the reduction."""
    joint = joint_optimal_throughput(
        rates, workload, n_machines, contexts=contexts
    )
    reduced = reduced_optimal_throughput(
        rates, workload, n_machines, contexts=contexts
    )
    scale = max(abs(reduced.throughput), 1.0)
    return abs(joint.throughput - reduced.throughput) <= tolerance * scale
