"""The paper's contribution: optimal-throughput analysis of symbiotic scheduling.

* :mod:`repro.core.workload` — the Section-III definitions (N job
  types, K contexts, coschedules as multisets).
* :mod:`repro.core.optimal` — the Section-IV linear program: the
  maximum (and minimum) long-term throughput of any scheduler on a
  fixed workload.
* :mod:`repro.core.fcfs` — the symbiosis-unaware FCFS baseline
  (TPCalc-style Markov model + validation simulation).
* :mod:`repro.core.variability`, :mod:`repro.core.bottleneck`,
  :mod:`repro.core.sensitivity`, :mod:`repro.core.heterogeneity`,
  :mod:`repro.core.fairness` — the Section-V analyses.
* :mod:`repro.core.policy_study` — the Section-VII microarchitecture
  study using optimal throughput as a metric.
"""

from repro.core.workload import Workload, all_workloads
from repro.core.optimal import (
    OptimalSchedule,
    optimal_throughput,
    worst_throughput,
)
from repro.core.fcfs import FcfsResult, fcfs_throughput, simulate_fcfs_throughput
from repro.core.multimachine import (
    MultiMachineSchedule,
    joint_optimal_throughput,
    reduced_optimal_throughput,
)
from repro.core.units import compare_units, instruction_rate_view

__all__ = [
    "Workload",
    "all_workloads",
    "OptimalSchedule",
    "optimal_throughput",
    "worst_throughput",
    "FcfsResult",
    "fcfs_throughput",
    "simulate_fcfs_throughput",
    "MultiMachineSchedule",
    "joint_optimal_throughput",
    "reduced_optimal_throughput",
    "compare_units",
    "instruction_rate_view",
]
