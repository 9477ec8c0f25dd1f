"""Queueing substrate: the Section-VI latency and saturation experiments.

The paper complements its analytic maximum-throughput results with a
simulated system where jobs arrive as a Poisson process, queue when all
K contexts are busy, and are (re)scheduled by one of four policies:

* **FCFS** — run jobs strictly in arrival order (needs no knowledge);
* **MAXIT** — among the jobs present, run the combination with the
  highest instantaneous throughput (oldest jobs break ties);
* **SRPT** — run the combination with the smallest sum of remaining
  execution times (taking each job's rate in that combination into
  account);
* **MAXTP** — follow the LP-optimal coschedule fractions of Section IV
  (offline phase), falling back to MAXIT when no optimal coschedule can
  be formed from the jobs present.

:mod:`repro.queueing.cluster` is the heap-driven multi-machine event
core (job progress rates change whenever a machine's co-running set
changes; each event touches only its own machine);
:mod:`repro.queueing.dispatch` routes arriving jobs across machines
(round-robin, join-shortest-queue, or the LP-guided symbiosis-affinity
policy); :mod:`repro.queueing.engine` is the single-machine front door
(a thin M=1 wrapper over the core);
:mod:`repro.queueing.experiment` packages the latency experiment
(Figure 5), the saturation experiment (Figure 6), and their metrics
(turnaround time, processor utilization, empty fraction);
:mod:`repro.queueing.mmk` provides the M/M/K analytics behind Figure 4.
"""

from repro.queueing.job import Job
from repro.queueing.system import SystemMetrics
from repro.queueing.ratememo import CandidateSet, ProbeCandidate, RunRateMemo
from repro.queueing.cluster import (
    Cluster,
    ClusterMetrics,
    JobQueue,
    Machine,
    RunConfig,
    run_cluster,
)
from repro.queueing.dispatch import (
    Dispatcher,
    JoinShortestQueueDispatcher,
    RoundRobinDispatcher,
    SymbiosisAffinityDispatcher,
    make_dispatcher,
)
from repro.queueing.engine import run_system
from repro.queueing.arrivals import (
    batch_arrivals,
    diurnal_arrivals,
    mmpp_arrivals,
    poisson_arrivals,
    saturated_arrivals,
)
from repro.queueing.sizes import (
    BimodalSizes,
    BoundedParetoSizes,
    ExponentialSizes,
    FixedSizes,
    SizeModel,
    make_size_model,
)
from repro.queueing.trace import (
    jobs_from_trace,
    load_trace,
    save_trace,
    trace_arrivals,
    trace_from_jobs,
)
from repro.queueing.scenarios import (
    SCENARIOS,
    Scenario,
    all_scenarios,
    get_scenario,
    register_scenario,
)
from repro.queueing.schedulers import (
    FcfsScheduler,
    LongJobFirstScheduler,
    MaxItScheduler,
    MaxTpScheduler,
    RandomScheduler,
    Scheduler,
    SrptScheduler,
    make_scheduler,
)
from repro.queueing.experiment import (
    LatencyResult,
    SaturationResult,
    run_latency_experiment,
    run_saturation_experiment,
)
from repro.queueing.makespan import MakespanResult, run_makespan_experiment
from repro.queueing.mmk import MMKQueue

__all__ = [
    "Job",
    "SystemMetrics",
    "Cluster",
    "RunConfig",
    "ClusterMetrics",
    "JobQueue",
    "Machine",
    "RunRateMemo",
    "ProbeCandidate",
    "CandidateSet",
    "run_cluster",
    "Dispatcher",
    "RoundRobinDispatcher",
    "JoinShortestQueueDispatcher",
    "SymbiosisAffinityDispatcher",
    "make_dispatcher",
    "run_system",
    "poisson_arrivals",
    "saturated_arrivals",
    "mmpp_arrivals",
    "diurnal_arrivals",
    "batch_arrivals",
    "SizeModel",
    "ExponentialSizes",
    "FixedSizes",
    "BoundedParetoSizes",
    "BimodalSizes",
    "make_size_model",
    "trace_from_jobs",
    "jobs_from_trace",
    "save_trace",
    "load_trace",
    "trace_arrivals",
    "Scenario",
    "SCENARIOS",
    "register_scenario",
    "get_scenario",
    "all_scenarios",
    "Scheduler",
    "FcfsScheduler",
    "MaxItScheduler",
    "SrptScheduler",
    "MaxTpScheduler",
    "LongJobFirstScheduler",
    "RandomScheduler",
    "make_scheduler",
    "LatencyResult",
    "SaturationResult",
    "run_latency_experiment",
    "run_saturation_experiment",
    "MakespanResult",
    "run_makespan_experiment",
    "MMKQueue",
]
