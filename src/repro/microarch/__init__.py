"""Mechanistic SMT / multicore performance-model substrate.

The paper obtained per-coschedule performance numbers by simulating all
1,365 four-job combinations of 12 SPEC CPU2006 benchmarks with the Sniper
simulator on two machines: a 4-way SMT 4-wide out-of-order core, and a
quad-core with a shared last-level cache and memory bus.  SPEC binaries
and Sniper are unavailable here, so this package provides the closest
synthetic equivalent: an interval-model-style mechanistic performance
model (Sniper's own core model is mechanistic at heart) over a roster of
12 synthetic job types that mirrors the Table-I benchmark mix.

The model captures exactly the contention structure the paper's analysis
depends on:

* dispatch-width sharing on the SMT core (the *linear bottleneck* of
  Section V.C.1b for high-IPC coschedules),
* ICOUNT vs round-robin fetch and static vs dynamic ROB partitioning
  (the Section-VII policy study),
* shared-LLC capacity contention with per-job miss-rate curves,
* memory-bus queueing,
* the resulting *unfair* slowdowns on SMT versus the milder, fairer
  interference on the quad-core.

Entry points: :func:`smt_machine`, :func:`quad_core_machine`,
:func:`default_roster`, :func:`simulate_coschedule`, and
:class:`repro.microarch.rates.RateTable`.
"""

from repro.microarch.params import JobTypeParams
from repro.microarch.benchmarks import default_roster
from repro.microarch.config import (
    FetchPolicy,
    MachineConfig,
    RobPolicy,
    quad_core_machine,
    smt_machine,
)
from repro.microarch.simulator import SimulationResult, simulate_coschedule
from repro.microarch.codec import TypeCodec
from repro.microarch.rates import RateTable
from repro.microarch.rate_cache import (
    CachedRateSource,
    CacheStats,
    RateCacheStore,
)

__all__ = [
    "TypeCodec",
    "JobTypeParams",
    "default_roster",
    "FetchPolicy",
    "MachineConfig",
    "RobPolicy",
    "quad_core_machine",
    "smt_machine",
    "SimulationResult",
    "simulate_coschedule",
    "RateTable",
    "CachedRateSource",
    "CacheStats",
    "RateCacheStore",
]
