"""Machine configurations: the paper's two evaluation platforms.

* :func:`smt_machine` — a 4-way SMT, 4-wide out-of-order core.  All
  resources are shared: dispatch width, ROB, LLC, memory bus.  The fetch
  policy (ICOUNT or round-robin) and ROB partitioning (static or
  dynamic) are configurable, which Section VII of the paper exploits.
* :func:`quad_core_machine` — four private 4-wide cores sharing only the
  LLC and the memory bus.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, fields, replace

from repro.errors import ConfigurationError

__all__ = [
    "FetchPolicy",
    "RobPolicy",
    "MachineConfig",
    "smt_machine",
    "quad_core_machine",
]


class FetchPolicy(enum.Enum):
    """SMT fetch policy (Tullsen et al., ISCA 1996)."""

    ICOUNT = "icount"
    ROUND_ROBIN = "round_robin"


class RobPolicy(enum.Enum):
    """SMT ROB partitioning (Raasch & Reinhardt, PACT 2003)."""

    STATIC = "static"
    DYNAMIC = "dynamic"


@dataclass(frozen=True)
class MachineConfig:
    """A fully symmetric SMT core or multicore.

    Attributes:
        name: label used in reports.
        kind: ``"smt"`` (one core, ``contexts`` hardware threads) or
            ``"multicore"`` (``contexts`` private cores).
        contexts: number of hardware contexts K.
        width: dispatch width per core (instructions/cycle).
        rob_size: reorder-buffer entries per core.
        llc_mb: shared last-level cache capacity in MB.
        mem_latency_cycles: uncontended memory access latency.
        bus_service_cycles: bus occupancy per LLC miss (sets the
            bandwidth roof; see :mod:`repro.microarch.membus`).
        branch_penalty_cycles: front-end refill penalty per mispredict.
        fetch_policy: SMT fetch policy (ignored for multicore).
        rob_policy: SMT ROB partitioning (ignored for multicore).
        icount_strength: how aggressively ICOUNT deprioritizes threads
            that spend time stalled on memory.
        rr_slot_waste: fraction of a stalled thread's fetch-slot share
            that round-robin fetch wastes (ICOUNT's advantage scales
            with this).
        smt_overhead: per-co-runner execution-bandwidth inflation from
            sharing private structures (L1/L2 conflicts, issue
            contention): t_exec multiplier is 1 + smt_overhead*(n-1).
        smt_fragmentation: front-end fragmentation when several threads
            are simultaneously active: the usable dispatch width scales
            by 1 / (1 + smt_fragmentation * (E[active threads] - 1)).
            This is what keeps a 4-thread SMT core's aggregate IPC well
            below its nominal width, as observed on real SMT machines.
        bus_max_utilization: clamp on modeled bus utilization (keeps the
            queueing delay finite).
        cache_share_floor: minimum fraction of the LLC any co-running
            job retains (a job is never fully evicted).
    """

    name: str
    kind: str
    contexts: int
    width: int
    rob_size: int
    llc_mb: float
    mem_latency_cycles: float
    bus_service_cycles: float
    branch_penalty_cycles: float
    fetch_policy: FetchPolicy = FetchPolicy.ICOUNT
    rob_policy: RobPolicy = RobPolicy.DYNAMIC
    icount_strength: float = 6.0
    rr_slot_waste: float = 0.22
    smt_overhead: float = 0.02
    smt_fragmentation: float = 0.12
    bus_max_utilization: float = 0.95
    cache_share_floor: float = 0.03

    def __post_init__(self) -> None:
        if self.kind not in ("smt", "multicore"):
            raise ConfigurationError(
                f"kind must be 'smt' or 'multicore', got {self.kind!r}"
            )
        for field in fields(self):
            value = getattr(self, field.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigurationError(
                    f"{field.name} must be finite, got {value!r}"
                )
        positive = [
            ("contexts", self.contexts),
            ("width", self.width),
            ("rob_size", self.rob_size),
            ("llc_mb", self.llc_mb),
            ("mem_latency_cycles", self.mem_latency_cycles),
            ("bus_service_cycles", self.bus_service_cycles),
            ("branch_penalty_cycles", self.branch_penalty_cycles),
        ]
        for label, value in positive:
            if value <= 0:
                raise ConfigurationError(f"{label} must be positive, got {value}")
        if not 0.0 < self.bus_max_utilization < 1.0:
            raise ConfigurationError("bus_max_utilization must be in (0, 1)")
        if not 0.0 <= self.cache_share_floor < 1.0 / self.contexts:
            raise ConfigurationError(
                "cache_share_floor must be in [0, 1/contexts)"
            )
        if self.smt_overhead < 0.0:
            raise ConfigurationError("smt_overhead must be >= 0")
        if not 0.0 <= self.rr_slot_waste <= 1.0:
            raise ConfigurationError("rr_slot_waste must be in [0, 1]")
        if self.smt_fragmentation < 0.0:
            raise ConfigurationError("smt_fragmentation must be >= 0")
        if self.icount_strength < 0.0:
            raise ConfigurationError("icount_strength must be >= 0")

    @property
    def is_smt(self) -> bool:
        """True for the SMT configuration."""
        return self.kind == "smt"

    def with_policies(
        self,
        *,
        fetch_policy: FetchPolicy | None = None,
        rob_policy: RobPolicy | None = None,
    ) -> "MachineConfig":
        """A copy with different SMT fetch/ROB policies (Section VII)."""
        updated = self
        parts = []
        if fetch_policy is not None:
            updated = replace(updated, fetch_policy=fetch_policy)
            parts.append(fetch_policy.value)
        if rob_policy is not None:
            updated = replace(updated, rob_policy=rob_policy)
            parts.append(rob_policy.value)
        if parts:
            updated = replace(updated, name=f"{self.name}[{'+'.join(parts)}]")
        return updated


def smt_machine(
    *,
    fetch_policy: FetchPolicy = FetchPolicy.ICOUNT,
    rob_policy: RobPolicy = RobPolicy.DYNAMIC,
    contexts: int = 4,
) -> MachineConfig:
    """The paper's first platform: a 4-way SMT, 4-wide OOO core.

    Defaults to ICOUNT fetch with dynamic ROB sharing, which the paper
    uses "unless mentioned otherwise".
    """
    return MachineConfig(
        name="smt4",
        kind="smt",
        contexts=contexts,
        width=4,
        rob_size=256,
        llc_mb=4.0,
        mem_latency_cycles=230.0,
        bus_service_cycles=24.0,
        branch_penalty_cycles=14.0,
        fetch_policy=fetch_policy,
        rob_policy=rob_policy,
    )


def quad_core_machine(*, contexts: int = 4) -> MachineConfig:
    """The paper's second platform: four 4-wide cores, shared LLC + bus."""
    return MachineConfig(
        name="quad",
        kind="multicore",
        contexts=contexts,
        width=4,
        rob_size=256,
        llc_mb=2.0,
        mem_latency_cycles=230.0,
        bus_service_cycles=44.0,
        branch_penalty_cycles=14.0,
        cache_share_floor=0.02,
    )
