"""repro — reproduction of "Revisiting Symbiotic Job Scheduling" (ISPASS 2015).

The package is organized in four layers (see docs/architecture.md):

* :mod:`repro.lp` — from-scratch linear-programming stack (the paper used
  glpk).
* :mod:`repro.microarch` — mechanistic SMT / multicore performance model
  producing per-coschedule execution rates (the paper used Sniper +
  SPEC CPU2006).
* :mod:`repro.core` — the paper's contribution: optimal/worst throughput
  LP, FCFS throughput model, variability / bottleneck / heterogeneity /
  fairness analyses, and the Section-VII policy-study metric.
* :mod:`repro.queueing` — discrete-event latency and maximum-throughput
  experiments with the FCFS / MAXIT / SRPT / MAXTP schedulers.

Quick start::

    from repro import (
        smt_machine, RateTable, Workload, optimal_throughput, fcfs_throughput,
    )

    machine = smt_machine()
    rates = RateTable.for_machine(machine)
    workload = Workload.of("bzip2", "mcf", "hmmer", "libquantum")
    best = optimal_throughput(rates, workload)
    fcfs = fcfs_throughput(rates, workload)
    print(best.throughput / fcfs.throughput)
"""

from repro._version import __version__

__all__ = ["__version__"]

# Re-export the public API; these imports are cheap (no simulation
# happens at import time).
from repro.microarch import (  # noqa: E402
    JobTypeParams,
    MachineConfig,
    FetchPolicy,
    RobPolicy,
    default_roster,
    quad_core_machine,
    smt_machine,
    simulate_coschedule,
)
from repro.microarch.rates import RateTable  # noqa: E402
from repro.microarch.rate_cache import CachedRateSource, RateCacheStore  # noqa: E402
from repro.core import (  # noqa: E402
    Workload,
    OptimalSchedule,
    optimal_throughput,
    worst_throughput,
    fcfs_throughput,
)

__all__ += [
    "JobTypeParams",
    "MachineConfig",
    "FetchPolicy",
    "RobPolicy",
    "default_roster",
    "quad_core_machine",
    "smt_machine",
    "simulate_coschedule",
    "RateTable",
    "CachedRateSource",
    "RateCacheStore",
    "Workload",
    "OptimalSchedule",
    "optimal_throughput",
    "worst_throughput",
    "fcfs_throughput",
]
