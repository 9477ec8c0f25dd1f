"""Fault layer: machine failure/repair processes, for either engine.

Deployed schedulers treat node failure and job retry as first-class;
this module gives the cluster simulator the same vocabulary while
keeping the determinism contract of the rest of the codebase:

* :class:`FaultConfig` — a frozen description of the failure processes
  (exponential MTBF/MTTR individual crashes, correlated multi-machine
  outages with an optional drain grace, transient DEGRADED slowdown
  episodes) and the recovery semantics (crash progress-loss policy,
  per-job retry budget with exponential backoff, load-shedding valve,
  degradation-aware dispatch).  The default ``FaultConfig()`` enables
  *no* process — it is the zero-fault control, pinned bit-identical to
  running with ``faults=None`` by the differential harness and the
  golden-trace suite.
* :class:`FaultRuntime` — the mutable per-run state: machine lifecycle
  (UP / DEGRADED / DOWN / DRAINING), the fault event heap, the retry
  heap, the per-job attempt counts, and the availability accounting.

**Bit-identity across engines is structural.**  There is one event
loop (:func:`~repro.queueing.cluster.run_loop`); it calls the runtime
at fixed points of the iteration whichever engine runs, and the
runtime applies each event through that engine's
:class:`~repro.queueing.cluster.MachineOps` (sync one machine, mark it
dirty, clear its queue, note a speed change).  Every random draw
happens inside the application of a fault event — never inside an
engine — on a dedicated ``derive_rng(seed, "fault-events")`` stream, so
the draw sequence is a pure function of the fault schedule, identical
on both engines.

Lifecycle semantics:

* ``crash`` (individual, mean ``mtbf``) and ``planned_down`` (from a
  correlated outage): the machine syncs to the crash instant, every
  job on it loses progress per ``crash_policy`` (``"restart"`` → back
  to full size; ``"resume_fraction"`` → keeps that fraction of the
  completed work), and is either requeued on the retry heap with
  exponential backoff or recorded as abandoned once its
  ``retry_budget`` is exhausted.  The machine is DOWN until a repair
  drawn with mean ``mttr``; repairs re-arm the individual crash
  process.  Down/up transitions fire the membership hook (MAXTP
  re-solves its LP via ``reoptimize``, the affinity dispatcher
  rebuilds its tables via ``rebuild``).
* ``outage`` (correlated, mean ``correlated_mtbf``): samples
  ``blast_fraction`` of the machines; with ``drain_grace > 0`` each
  first enters DRAINING (no new work, running jobs continue) and goes
  down after the grace, otherwise it goes down immediately.
* ``degraded`` episodes (mean gap ``degraded_mtbf``, fixed
  ``degraded_duration``): the machine's effective speed drops to
  ``degraded_factor`` — every per-coschedule rate is scaled, in the
  same float operations on both engines — and recovers afterwards.
  Dispatch prefers non-degraded machines under the default
  ``degraded_dispatch="avoid"``.

Retried jobs keep their original ``arrival_time`` (turnaround includes
every failed attempt) and re-enter through the dispatcher like any
arrival, skipping DOWN/DRAINING machines.  When no machine can accept
work and ``shed_after`` is set, an arrival that has waited that long
past its arrival time is shed (counted, never admitted) — the
admission-control valve for surviving capacity below offered load.
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable, Sequence

from repro.errors import ConfigurationError, SimulationError
from repro.queueing.job import Job
from repro.util.rng import derive_rng

if TYPE_CHECKING:
    from repro.queueing.cluster import MachineOps

__all__ = [
    "MACHINE_UP",
    "MACHINE_DEGRADED",
    "MACHINE_DOWN",
    "MACHINE_DRAINING",
    "FaultConfig",
    "FaultStats",
    "FaultRuntime",
]

_EPSILON = 1e-9
_INF = float("inf")

#: Machine lifecycle states (plain strings: JSON-safe, cheap compares).
MACHINE_UP = "up"
MACHINE_DEGRADED = "degraded"
MACHINE_DOWN = "down"
MACHINE_DRAINING = "draining"

_STATES = (MACHINE_UP, MACHINE_DEGRADED, MACHINE_DOWN, MACHINE_DRAINING)
_CRASH_POLICIES = ("restart", "resume_fraction")
_DISPATCH_POLICIES = ("avoid", "allow")

#: Default livelock-guard threshold (consecutive zero-advance events).
DEFAULT_STALL_EVENTS = 100_000


@dataclass(frozen=True)
class FaultConfig:
    """Failure processes and recovery semantics of one run.

    All processes are off by default: ``FaultConfig()`` is the
    zero-fault control, bit-identical to ``faults=None``.

    Attributes:
        seed: seed of the dedicated ``"fault-events"`` RNG stream.
        mtbf: mean time between individual machine crashes
            (exponential), or ``None`` for no individual crashes.
        mttr: mean time to repair a DOWN machine (exponential).
        degraded_mtbf: mean gap between DEGRADED slowdown episodes per
            machine, or ``None`` for none.
        degraded_duration: fixed length of one DEGRADED episode.
        degraded_factor: speed multiplier while DEGRADED (0 < f <= 1).
        correlated_mtbf: mean gap between correlated multi-machine
            outages, or ``None`` for none.
        blast_fraction: fraction of machines hit by one outage.
        drain_grace: DRAINING window before an outage takes a machine
            down (0 → immediate).
        retry_budget: crash retries per job before it is abandoned.
        backoff_base: first retry delay after a crash.
        backoff_factor: multiplier on the delay per further attempt.
        crash_policy: ``"restart"`` (lose all progress) or
            ``"resume_fraction"`` (keep ``resume_fraction`` of it).
        resume_fraction: completed-work fraction retained on crash
            under ``"resume_fraction"``.
        shed_after: how long a blocked arrival may wait (no
            dispatchable machine) before it is shed; ``None`` → wait
            forever.
        degraded_dispatch: ``"avoid"`` routes around DEGRADED machines
            while any non-degraded machine has room; ``"allow"`` treats
            them as equal targets.
    """

    seed: int = 0
    mtbf: float | None = None
    mttr: float = 1.0
    degraded_mtbf: float | None = None
    degraded_duration: float = 1.0
    degraded_factor: float = 0.5
    correlated_mtbf: float | None = None
    blast_fraction: float = 0.5
    drain_grace: float = 0.0
    retry_budget: int = 3
    backoff_base: float = 0.5
    backoff_factor: float = 2.0
    crash_policy: str = "restart"
    resume_fraction: float = 0.5
    shed_after: float | None = None
    degraded_dispatch: str = "avoid"

    def __post_init__(self) -> None:
        for name in ("mtbf", "degraded_mtbf", "correlated_mtbf"):
            value = getattr(self, name)
            if value is not None and value <= 0.0:
                raise ConfigurationError(
                    f"{name} must be positive (or None), got {value}"
                )
        for name in ("mttr", "degraded_duration", "backoff_factor"):
            value = getattr(self, name)
            if value <= 0.0:
                raise ConfigurationError(
                    f"{name} must be positive, got {value}"
                )
        if not 0.0 < self.degraded_factor <= 1.0:
            raise ConfigurationError(
                "degraded_factor must be in (0, 1], got "
                f"{self.degraded_factor}"
            )
        if not 0.0 < self.blast_fraction <= 1.0:
            raise ConfigurationError(
                "blast_fraction must be in (0, 1], got "
                f"{self.blast_fraction}"
            )
        if self.drain_grace < 0.0:
            raise ConfigurationError(
                f"drain_grace must be >= 0, got {self.drain_grace}"
            )
        if self.retry_budget < 0:
            raise ConfigurationError(
                f"retry_budget must be >= 0, got {self.retry_budget}"
            )
        if self.backoff_base < 0.0:
            raise ConfigurationError(
                f"backoff_base must be >= 0, got {self.backoff_base}"
            )
        if self.crash_policy not in _CRASH_POLICIES:
            raise ConfigurationError(
                f"unknown crash_policy {self.crash_policy!r}; choose "
                f"{' or '.join(_CRASH_POLICIES)}"
            )
        if not 0.0 <= self.resume_fraction <= 1.0:
            raise ConfigurationError(
                "resume_fraction must be in [0, 1], got "
                f"{self.resume_fraction}"
            )
        if self.shed_after is not None and self.shed_after < 0.0:
            raise ConfigurationError(
                f"shed_after must be >= 0 (or None), got {self.shed_after}"
            )
        if self.degraded_dispatch not in _DISPATCH_POLICIES:
            raise ConfigurationError(
                f"unknown degraded_dispatch {self.degraded_dispatch!r}; "
                f"choose {' or '.join(_DISPATCH_POLICIES)}"
            )

    @property
    def active(self) -> bool:
        """Whether any failure process is enabled at all."""
        return (
            self.mtbf is not None
            or self.degraded_mtbf is not None
            or self.correlated_mtbf is not None
        )

    def to_jsonable(self) -> dict:
        """JSON-safe dict (checkpoint payloads, experiment results)."""
        return asdict(self)

    @classmethod
    def from_jsonable(cls, payload: dict) -> "FaultConfig":
        """Rebuild from :meth:`to_jsonable`."""
        return cls(**payload)


@dataclass
class FaultStats:
    """Counters of one run's fault activity (availability lives on
    :meth:`FaultRuntime.stats_dict`, which closes open intervals)."""

    crashes: int = 0
    repairs: int = 0
    outages: int = 0
    drains: int = 0
    degrade_episodes: int = 0
    jobs_killed: int = 0
    retried: int = 0
    abandoned: int = 0
    shed: int = 0
    lost_work: float = 0.0

    def as_dict(self) -> dict[str, object]:
        return asdict(self)


class FaultRuntime:
    """Mutable fault state of one cluster run (engine-agnostic).

    Fault events live in a ``(time, seq, kind, machine_id, tag)`` heap;
    ``tag`` is a lifecycle epoch (crash/repair/planned-down events) or
    a degrade token (episode-end events) that lazily invalidates
    events overtaken by a state change — the heap is never searched.
    Retries live in a ``(ready_time, seq, job)`` heap and re-enter
    through the loop's admission phase.  Both ``seq`` tie-breakers and
    every RNG draw are driven purely by the event application order,
    which the one event loop fixes, so the runtime evolves identically
    under both engines.
    """

    def __init__(
        self,
        config: FaultConfig,
        machines: Sequence,
        *,
        keep_in_system: int | None = None,
    ) -> None:
        self.config = config
        self.machines = machines
        self.keep_in_system = keep_in_system
        n = len(machines)
        self.state: list[str] = [MACHINE_UP] * n
        self.life_epoch: list[int] = [0] * n
        self.degrade_token: list[int] = [0] * n
        self.down_since: list[float | None] = [None] * n
        self.degraded_since: list[float | None] = [None] * n
        self.down_time: list[float] = [0.0] * n
        self.degraded_time: list[float] = [0.0] * n
        self.events: list[tuple] = []
        self.retries: list[tuple] = []
        self.attempts: dict[int, int] = {}
        self.stats = FaultStats()
        self._seq = 0
        #: Fired after every membership change (a machine going down or
        #: coming back): the run handle wires MAXTP's ``reoptimize`` and
        #: the affinity dispatcher's ``rebuild`` here.
        self.membership_hook: Callable[[], None] | None = None
        self.rng = derive_rng(config.seed, "fault-events")
        # Initial schedule, drawn in a fixed order (per-machine crash
        # times, per-machine degrade onsets, then the first correlated
        # outage) so the stream position is engine-independent.
        if config.mtbf is not None:
            for mid in range(n):
                self._push(
                    self.rng.expovariate(1.0 / config.mtbf),
                    "crash",
                    mid,
                    0,
                )
        if config.degraded_mtbf is not None:
            for mid in range(n):
                self._push(
                    self.rng.expovariate(1.0 / config.degraded_mtbf),
                    "deg_on",
                    mid,
                    None,
                )
        if config.correlated_mtbf is not None:
            self._push(
                self.rng.expovariate(1.0 / config.correlated_mtbf),
                "outage",
                -1,
                None,
            )

    # ------------------------------------------------------------------
    # Event heap plumbing
    # ------------------------------------------------------------------
    def _push(self, time: float, kind: str, mid: int, tag) -> None:
        self._seq += 1
        heapq.heappush(self.events, (time, self._seq, kind, mid, tag))

    # ------------------------------------------------------------------
    # Queries the event loop makes every iteration
    # ------------------------------------------------------------------
    def routable(self, mid: int) -> bool:
        """Whether a previously made dispatch decision is still valid."""
        return self.state[mid] in (MACHINE_UP, MACHINE_DEGRADED)

    def _has_room(self, mid: int) -> bool:
        keep = self.keep_in_system
        return keep is None or len(self.machines[mid].jobs) < keep

    def any_dispatchable(self) -> bool:
        """Whether any machine can accept a new job right now."""
        state = self.state
        for mid in range(len(state)):
            if state[mid] in (MACHINE_UP, MACHINE_DEGRADED) and (
                self._has_room(mid)
            ):
                return True
        return False

    def dispatch_eligible(self) -> list[int]:
        """Machine ids a dispatcher may route to, in machine order.

        Under ``degraded_dispatch="avoid"`` DEGRADED machines are only
        offered when no non-degraded machine has room; under
        ``"allow"`` they are equal targets.  With every machine UP this
        is exactly the no-fault eligible list, in the same order — the
        zero-fault identity depends on it.
        """
        state = self.state
        eligible: list[int] = []
        degraded: list[int] = []
        for mid in range(len(state)):
            if state[mid] == MACHINE_UP:
                if self._has_room(mid):
                    eligible.append(mid)
            elif state[mid] == MACHINE_DEGRADED:
                if self._has_room(mid):
                    degraded.append(mid)
        if degraded:
            if self.config.degraded_dispatch == "allow":
                eligible = sorted(eligible + degraded)
            elif not eligible:
                eligible = degraded
        return eligible

    def due_retry(self, clock: float) -> Job | None:
        """The retry-heap head if its backoff has elapsed (not popped)."""
        if self.retries and self.retries[0][0] <= clock + _EPSILON:
            return self.retries[0][2]
        return None

    def pop_retry(self) -> None:
        heapq.heappop(self.retries)

    def retry_pending(self) -> int:
        return len(self.retries)

    def idle(self) -> bool:
        """No retries waiting — safe to end the run when drained."""
        return not self.retries

    def should_shed(self, job: Job, clock: float) -> bool:
        shed = self.config.shed_after
        return shed is not None and clock + _EPSILON >= (
            job.arrival_time + shed
        )

    def record_shed(self, job: Job) -> None:
        self.stats.shed += 1
        self.attempts.pop(job.job_id, None)

    def next_wake(
        self, clock: float, eligible_exists: bool, pending: Job | None
    ) -> float:
        """Time step to the next fault-layer instant (``inf`` if none).

        Retry ready-times only bound the step while a machine could
        actually accept the retry (otherwise the wake would spin); a
        blocked pending arrival contributes its shed deadline instead.
        """
        t = self.events[0][0] if self.events else _INF
        if eligible_exists and self.retries:
            ready = self.retries[0][0]
            if ready < t:
                t = ready
        elif (
            pending is not None
            and not eligible_exists
            and self.config.shed_after is not None
        ):
            deadline = pending.arrival_time + self.config.shed_after
            if deadline < t:
                t = deadline
        if t == _INF:
            return _INF
        dt = t - clock
        return dt if dt > 0.0 else 0.0

    # ------------------------------------------------------------------
    # Event application (the only place the RNG is drawn)
    # ------------------------------------------------------------------
    def on_wake(self, clock: float, ops: MachineOps) -> int:
        """Apply the earliest due fault event, if any.

        Called by the loop when the fault layer won the ``dt`` race.
        At most one event is applied per call (one loop iteration), so
        same-instant cascades — a correlated outage downing several
        machines — process machine by machine in heap order on every
        engine.  Returns the number of jobs removed from machines (the
        loop adjusts ``in_system``); retry/shed instants need no event
        here — the next admission phase handles them.
        """
        events = self.events
        if not events or events[0][0] > clock + _EPSILON:
            return 0
        _, _, kind, mid, tag = heapq.heappop(events)
        if kind in ("crash", "planned_down"):
            return self._apply_down(mid, tag, clock, ops)
        if kind == "up":
            self._apply_up(mid, tag, clock)
            return 0
        if kind == "drain":
            self._apply_drain(mid, tag, clock)
            return 0
        if kind == "deg_on":
            self._apply_deg_on(mid, clock, ops)
            return 0
        if kind == "deg_off":
            self._apply_deg_off(mid, tag, clock, ops)
            return 0
        if kind == "outage":
            self._apply_outage(clock)
            return 0
        raise SimulationError(f"unknown fault event kind {kind!r}")

    def _apply_down(
        self, mid: int, tag: int, clock: float, ops: MachineOps
    ) -> int:
        if self.life_epoch[mid] != tag or self.state[mid] == MACHINE_DOWN:
            return 0
        config = self.config
        ops.sync(mid, clock)
        machine = self.machines[mid]
        resume = (
            config.resume_fraction
            if config.crash_policy == "resume_fraction"
            else 0.0
        )
        removed = 0
        stats = self.stats
        for job in machine.jobs:
            removed += 1
            completed = job.size - job.remaining
            if completed > 0.0:
                retained = completed * resume
                stats.lost_work += completed - retained
                job.remaining = job.size - retained
            attempts = self.attempts.get(job.job_id, 0) + 1
            if attempts > config.retry_budget:
                self.attempts.pop(job.job_id, None)
                stats.abandoned += 1
            else:
                self.attempts[job.job_id] = attempts
                delay = config.backoff_base * (
                    config.backoff_factor ** (attempts - 1)
                )
                self._seq += 1
                heapq.heappush(
                    self.retries, (clock + delay, self._seq, job)
                )
                stats.retried += 1
        stats.jobs_killed += removed
        ops.clear_queue(mid)
        machine.running = []
        machine.next_completion = _INF
        if machine.speed != 1.0:
            machine.speed = 1.0
            ops.speed_changed(mid)
        if self.state[mid] == MACHINE_DEGRADED:
            self.degraded_time[mid] += clock - self.degraded_since[mid]
            self.degraded_since[mid] = None
        self.state[mid] = MACHINE_DOWN
        self.down_since[mid] = clock
        self.life_epoch[mid] += 1
        stats.crashes += 1
        self._push(
            clock + self.rng.expovariate(1.0 / config.mttr),
            "up",
            mid,
            self.life_epoch[mid],
        )
        # The machine reschedules (to the empty running set) before any
        # time can pass, so its stale coschedule never observes a
        # positive interval.
        ops.mark_dirty(mid)
        if self.membership_hook is not None:
            self.membership_hook()
        return removed

    def _apply_up(self, mid: int, tag: int, clock: float) -> None:
        if self.life_epoch[mid] != tag or self.state[mid] != MACHINE_DOWN:
            return
        self.state[mid] = MACHINE_UP
        self.down_time[mid] += clock - self.down_since[mid]
        self.down_since[mid] = None
        self.life_epoch[mid] += 1
        self.stats.repairs += 1
        if self.config.mtbf is not None:
            self._push(
                clock + self.rng.expovariate(1.0 / self.config.mtbf),
                "crash",
                mid,
                self.life_epoch[mid],
            )
        if self.membership_hook is not None:
            self.membership_hook()

    def _apply_drain(self, mid: int, tag: int, clock: float) -> None:
        if self.life_epoch[mid] != tag or self.state[mid] not in (
            MACHINE_UP,
            MACHINE_DEGRADED,
        ):
            return
        if self.state[mid] == MACHINE_DEGRADED:
            # The drain window keeps the degraded speed (it ends in a
            # planned down anyway); only the interval accounting closes.
            self.degraded_time[mid] += clock - self.degraded_since[mid]
            self.degraded_since[mid] = None
        self.state[mid] = MACHINE_DRAINING
        self.stats.drains += 1

    def _apply_deg_on(
        self, mid: int, clock: float, ops: MachineOps
    ) -> None:
        config = self.config
        if self.state[mid] == MACHINE_UP:
            ops.sync(mid, clock)
            self.state[mid] = MACHINE_DEGRADED
            machine = self.machines[mid]
            machine.speed = config.degraded_factor
            ops.speed_changed(mid)
            self.degrade_token[mid] += 1
            self.degraded_since[mid] = clock
            self.stats.degrade_episodes += 1
            self._push(
                clock + config.degraded_duration,
                "deg_off",
                mid,
                self.degrade_token[mid],
            )
            ops.mark_dirty(mid)
        # The onset process self-sustains whether or not this episode
        # fired (machine DOWN/DRAINING/already degraded): the next
        # onset is always drawn here, keeping the stream position a
        # pure function of the event sequence.
        self._push(
            clock + self.rng.expovariate(1.0 / config.degraded_mtbf),
            "deg_on",
            mid,
            None,
        )

    def _apply_deg_off(
        self, mid: int, tag: int, clock: float, ops: MachineOps
    ) -> None:
        if (
            self.state[mid] != MACHINE_DEGRADED
            or self.degrade_token[mid] != tag
        ):
            return
        ops.sync(mid, clock)
        self.state[mid] = MACHINE_UP
        machine = self.machines[mid]
        machine.speed = 1.0
        ops.speed_changed(mid)
        self.degraded_time[mid] += clock - self.degraded_since[mid]
        self.degraded_since[mid] = None
        ops.mark_dirty(mid)

    def _apply_outage(self, clock: float) -> None:
        config = self.config
        n = len(self.machines)
        k = int(round(config.blast_fraction * n))
        if k < 1:
            k = 1
        if k > n:
            k = n
        affected = sorted(self.rng.sample(range(n), k))
        for mid in affected:
            if self.state[mid] == MACHINE_DOWN:
                continue
            if config.drain_grace > 0.0:
                self._push(clock, "drain", mid, self.life_epoch[mid])
                self._push(
                    clock + config.drain_grace,
                    "planned_down",
                    mid,
                    self.life_epoch[mid],
                )
            else:
                self._push(
                    clock, "planned_down", mid, self.life_epoch[mid]
                )
        self.stats.outages += 1
        self._push(
            clock + self.rng.expovariate(1.0 / config.correlated_mtbf),
            "outage",
            -1,
            None,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats_dict(self, clock: float) -> dict[str, object]:
        """Counters plus availability, with open intervals closed at
        ``clock`` (non-destructively — the run may continue)."""
        n = len(self.machines)
        down = list(self.down_time)
        degraded = list(self.degraded_time)
        for mid in range(n):
            if self.down_since[mid] is not None:
                down[mid] += clock - self.down_since[mid]
            if self.degraded_since[mid] is not None:
                degraded[mid] += clock - self.degraded_since[mid]
        total = clock * n
        payload = self.stats.as_dict()
        payload.update(
            availability=(
                1.0 - sum(down) / total if total > 0.0 else 1.0
            ),
            degraded_fraction=(
                sum(degraded) / total if total > 0.0 else 0.0
            ),
            down_time=down,
            degraded_time=degraded,
            retry_pending=len(self.retries),
            machine_states=list(self.state),
        )
        return payload

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, object]:
        """JSON-safe full state (checkpoint payload section)."""
        version, internal, gauss = self.rng.getstate()
        return {
            "state": list(self.state),
            "life_epoch": list(self.life_epoch),
            "degrade_token": list(self.degrade_token),
            "down_since": list(self.down_since),
            "degraded_since": list(self.degraded_since),
            "down_time": list(self.down_time),
            "degraded_time": list(self.degraded_time),
            "events": [list(entry) for entry in self.events],
            "retries": [
                [
                    ready,
                    seq,
                    [
                        job.job_id,
                        job.job_type,
                        job.size,
                        job.arrival_time,
                        job.remaining,
                    ],
                ]
                for ready, seq, job in self.retries
            ],
            "attempts": [
                [job_id, count] for job_id, count in self.attempts.items()
            ],
            "seq": self._seq,
            "rng": [version, list(internal), gauss],
            "stats": self.stats.as_dict(),
        }

    def load_state(
        self,
        payload: dict,
        *,
        encode: Callable[[str], int] | None = None,
    ) -> None:
        """Restore :meth:`state_dict` onto this runtime.

        ``encode`` is the run codec's interning function on the
        compiled engine (retry-heap jobs get their type ids back),
        ``None`` on the reference engine.
        """
        self.state = [str(s) for s in payload["state"]]
        self.life_epoch = [int(e) for e in payload["life_epoch"]]
        self.degrade_token = [int(t) for t in payload["degrade_token"]]
        self.down_since = list(payload["down_since"])
        self.degraded_since = list(payload["degraded_since"])
        self.down_time = [float(t) for t in payload["down_time"]]
        self.degraded_time = [float(t) for t in payload["degraded_time"]]
        self.events = [tuple(entry) for entry in payload["events"]]
        heapq.heapify(self.events)
        retries = []
        for ready, seq, job_fields in payload["retries"]:
            job_id, job_type, size, arrival_time, remaining = job_fields
            job = Job(
                job_id=job_id,
                job_type=job_type,
                size=size,
                arrival_time=arrival_time,
                remaining=remaining,
            )
            job.type_code = encode(job_type) if encode is not None else None
            retries.append((ready, seq, job))
        heapq.heapify(retries)
        self.retries = retries
        self.attempts = {
            int(job_id): int(count)
            for job_id, count in payload["attempts"]
        }
        self._seq = int(payload["seq"])
        version, internal, gauss = payload["rng"]
        self.rng.setstate((version, tuple(internal), gauss))
        self.stats = FaultStats(**payload["stats"])
