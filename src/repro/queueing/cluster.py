"""Cluster-scale event core: M machines, one heap-driven event loop.

The seed engine (`run_system`) simulated exactly one machine and
re-scanned the whole system at every event.  This module generalizes it
to an M-machine cluster while *removing* the per-event full rescan:

* :class:`Machine` — one machine's contexts (via its per-machine
  :class:`~repro.queueing.schedulers.Scheduler`), admitted jobs,
  current running set and rates, and its own
  :class:`~repro.queueing.system.SystemMetrics`.
* :class:`Cluster` and :func:`run_loop` — the event loop.  An indexed
  min-heap (lazy deletion keyed by a per-machine epoch) orders the
  machines' next-completion times; each event touches only the machine it
  belongs to.  Untouched machines stay *lazy*: their running sets,
  rates, and metrics intervals are brought up to date only when one of
  their own events (or the final flush) arrives, so an event costs
  O(log M + rescheduling one machine) instead of O(M) scheduler calls.
* :class:`~repro.queueing.ratememo.RunRateMemo` (re-exported here) —
  the per-run rate memo, hoisted out of the old engine loop and
  *shared*: identical machines share one coschedule space, so the memo
  serves every machine's stepping **and** every scheduler's candidate
  probing (MAXIT/SRPT evaluate many multisets per decision; previously
  those lookups bypassed the engine memo).  It wraps any
  :class:`~repro.microarch.rates.RateSource`, including a persisted
  :class:`~repro.microarch.rate_cache.CachedRateSource`.  Probing
  shares the memo only when a scheduler was built on *the same rate
  source object* the run uses — a scheduler probing a different source
  (a counterfactual table, say) keeps doing exactly that.

One event loop advances a run — :func:`run_loop`: admission, routing,
the completion heap, ``dt``, pauses, faults and the stall guard are
defined once.  An *engine* is the set of per-machine operations the
loop calls (:class:`MachineOps`: sync, admit, retire, reschedule, and
the fault-event effects), and the two engines are bit-identical:

* ``engine="compiled"`` (the default, the production engine) —
  :func:`repro.queueing.compiled.compiled_ops`: a per-run
  :class:`~repro.microarch.codec.TypeCodec` interns type names to dense
  int ids, machines keep per-type count vectors, and each policy's
  decision runs as the engine's own ``pick_*`` over memoized candidate
  sets.
* ``engine="legacy"`` (the reference) — :func:`reference_ops`: thin
  adapters over :class:`Machine`'s string-keyed coschedules and every
  scheduler's own ``select``.  They are the shared definition the
  differential harness (``tests/property/test_differential_engines.py``)
  holds the compiled operations to.

Single-machine runs are the M=1 special case:
:func:`repro.queueing.engine.run_system` is now a thin wrapper over
this core, and a property test pins its :class:`SystemMetrics`
bit-identical to the seed engine.  The arithmetic below is therefore
deliberately event-relative (``dt`` first, absolute times only for
heap ordering) so the M=1 path performs the exact floating-point
operations of the seed loop.

Dispatch — which machine an arriving job joins — is delegated to a
:class:`~repro.queueing.dispatch.Dispatcher` (round-robin,
join-shortest-queue, or the LP-guided symbiosis-affinity policy).
"""

from __future__ import annotations

import heapq
from dataclasses import asdict, dataclass, field, fields
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence

from repro.errors import EngineStallError, EstimationError, SimulationError
from repro.microarch.codec import TypeCodec
from repro.microarch.rates import RateSource
from repro.queueing.dispatch import Dispatcher
from repro.queueing.estimation import EstimationConfig, ThroughputEstimator
from repro.queueing.faults import (
    DEFAULT_STALL_EVENTS,
    FaultConfig,
    FaultRuntime,
)
from repro.queueing.job import Job
from repro.queueing.ratememo import RunRateMemo
from repro.queueing.schedulers import Scheduler
from repro.queueing.system import SystemMetrics

__all__ = [
    "RunRateMemo",
    "JobQueue",
    "Machine",
    "ClusterMetrics",
    "Cluster",
    "ClusterRunHandle",
    "RunConfig",
    "LoopState",
    "MachineOps",
    "reference_ops",
    "run_loop",
    "run_cluster",
    "ENGINES",
]

_EPSILON = 1e-9
_INF = float("inf")

#: Recognized values of the ``engine=`` switch; the first is the default.
ENGINES = ("compiled", "legacy")


@dataclass(frozen=True)
class RunConfig:
    """The conditions of one cluster run: the run knobs, declared once.

    :meth:`Cluster.run`, :meth:`Cluster.start`, :func:`run_cluster`,
    :func:`~repro.queueing.sharding.run_sharded` and
    :func:`~repro.queueing.engine.run_system` take these fields as
    keyword arguments and build one ``RunConfig`` from them, so an
    unknown keyword raises ``TypeError``.  A config replays through any
    of them as ``**vars(config)``.  The run handle keeps it as
    :attr:`ClusterRunHandle.config`, and a checkpoint's ``run`` section
    is :meth:`to_jsonable`.

    Attributes:
        warmup_time: observations before this time are discarded.
        horizon: optional hard stop time.
        stop_when_fewer_than: stop once the whole cluster holds fewer
            jobs than this (and the stream is exhausted) — cuts the
            drain tail of saturation runs.
        keep_in_system: per-machine cap on concurrently admitted jobs
            (a bounded backlog).  A due arrival waits outside until its
            dispatch target has room; if every machine is full, the
            stream stalls until a completion.
        max_events: safety bound on processed events (per
            :meth:`ClusterRunHandle.advance` call).
        engine: which per-machine operations the event loop runs — the
            two are bit-identical (pinned by the differential fuzz
            harness in ``tests/property/test_differential_engines.py``):

            * ``"compiled"`` (the default) — the production
              count-vector engine (:mod:`repro.queueing.compiled`):
              dense per-machine type counts, memoized candidate sets,
              event fusion, and machine batching;
            * ``"legacy"`` — the string-keyed reference operations
              (:func:`reference_ops`), kept as the definition the
              compiled engine is tested against.
        engine_options: compiled-engine debug knobs (``{"fuse":
            False}`` / ``{"batch": False}``) used by the isolation
            property tests; either knob off must not change a bit of
            any output.
        rate_source: what the *policies* (schedulers and the
            dispatcher) see — job stepping always uses the true rates.
            ``"oracle"`` reads the rate source itself; with
            ``"estimated"`` every policy decision reads a
            :class:`~repro.queueing.estimation.ThroughputEstimator` fed
            by the run's own observed progress.  With zero noise and
            the warm ``"oracle"`` prior, estimated runs are
            bit-identical to oracle runs (pinned by the differential
            harness).
        estimation: estimator knobs for ``rate_source="estimated"``
            (:class:`~repro.queueing.estimation.EstimationConfig`;
            ``None`` → defaults).
        faults: failure/repair model
            (:class:`~repro.queueing.faults.FaultConfig`), or ``None``
            for none.  A config with no process enabled
            (``FaultConfig()``) is bit-identical to ``None`` — pinned
            by the golden and fuzz harnesses.  Fault stats land in
            :attr:`Cluster.last_fault_stats`.
        stall_events: livelock guard — raise
            :class:`~repro.errors.EngineStallError` after this many
            consecutive events with no clock progress.
    """

    warmup_time: float = 0.0
    horizon: float | None = None
    stop_when_fewer_than: int | None = None
    keep_in_system: int | None = None
    max_events: int = 5_000_000
    engine: str = "compiled"
    engine_options: Mapping[str, bool] | None = None
    rate_source: str = "oracle"
    estimation: EstimationConfig | None = None
    faults: FaultConfig | None = None
    stall_events: int = DEFAULT_STALL_EVENTS

    def __post_init__(self) -> None:
        if self.engine not in ENGINES:
            raise SimulationError(
                f"unknown engine {self.engine!r}; choose compiled (the "
                "default) or legacy"
            )
        if self.rate_source not in ("oracle", "estimated"):
            raise SimulationError(
                f"unknown rate_source {self.rate_source!r}; choose "
                "oracle or estimated"
            )
        if self.faults is not None and not isinstance(
            self.faults, FaultConfig
        ):
            raise SimulationError(
                "faults must be a FaultConfig (or None), got "
                f"{type(self.faults).__name__}"
            )

    def to_jsonable(self) -> dict[str, Any]:
        """JSON-safe dict of every field (a checkpoint's ``run``)."""
        return asdict(self)

    @classmethod
    def from_jsonable(cls, payload: Mapping[str, Any]) -> "RunConfig":
        """Rebuild from :meth:`to_jsonable`.

        A key the payload lacks takes its default: checkpoints written
        before this class existed carry only some of the knobs.  The
        retired ``backend`` key they may carry is ignored.
        """
        knobs = {k: v for k, v in payload.items() if k != "backend"}
        if knobs.get("faults") is not None:
            knobs["faults"] = FaultConfig.from_jsonable(knobs["faults"])
        if knobs.get("estimation") is not None:
            knobs["estimation"] = EstimationConfig(**knobs["estimation"])
        return cls(**knobs)

    def differing_fields(self, other: "RunConfig") -> list[str]:
        """Names of the fields on which ``other`` differs, in order."""
        return [
            f.name
            for f in fields(self)
            if getattr(self, f.name) != getattr(other, f.name)
        ]


def _encoded_stream(stream: Iterator[Job], codec: TypeCodec) -> Iterator[Job]:
    """Intern each arriving job's type id as it enters the run.

    The loop reads every job exactly once, so this is the single point
    where ``job.type_code`` becomes authoritative for the current
    run's codec — jobs recycled from an earlier run (whose codec
    assigned different ids) are re-coded here before anything can
    index with a stale id.
    """
    for job in stream:
        job.type_code = codec.encode(job.job_type)
        yield job


def _uncoded_stream(stream: Iterator[Job]) -> Iterator[Job]:
    """Reference-engine counterpart of :func:`_encoded_stream`: clear
    stale ids so every downstream consumer takes its string path."""
    for job in stream:
        job.type_code = None
        yield job


class _CountingStream:
    """Iterator wrapper counting successful pulls.

    The count is what checkpoints persist: a resumed run rebuilds the
    (deterministic) arrival stream and skips exactly ``pulled`` jobs to
    land on the next un-pulled arrival.
    """

    __slots__ = ("_stream", "pulled")

    def __init__(self, stream: Iterator[Job]) -> None:
        self._stream = stream
        self.pulled = 0

    def __iter__(self) -> "_CountingStream":
        return self

    def __next__(self) -> Job:
        job = next(self._stream)
        self.pulled += 1
        return job


@dataclass
class LoopState:
    """Engine loop state between two events, captured at a pause.

    A pause always lands *between* events — after the clock advanced to
    the next event's time but before any of that event's effects — so
    resuming performs the exact operation sequence of the unpaused
    run.  ``pending`` is the pulled-but-unadmitted head of the arrival
    stream; ``routed`` its already-made dispatch decision (if any);
    ``age_ok`` the compiled engine's per-machine queue-order flags
    (``None`` on the reference engine).
    """

    clock: float
    last_arrival: float
    in_system: int
    full_machines: int
    routed: int | None
    pending: Job | None
    age_ok: tuple[bool, ...] | None = None


class JobQueue(list):
    """A machine's job list with an incremental per-type-code index.

    The compiled engine's picks need the queue grouped by type at every
    event; rebuilding that grouping is O(queue) per event and dominates
    long non-saturated queues.  With the index enabled (compiled runs),
    the grouping is maintained as a delta per admission/completion
    instead: ``by_code[type_id]`` lists the queued jobs of that type in
    admission order (pools may be left empty when a type drains —
    consumers skip those).  The reference engine leaves ``by_code`` as
    ``None``.
    """

    __slots__ = ("by_code",)

    def __init__(self) -> None:
        super().__init__()
        self.by_code: dict[int, list[Job]] | None = None

    def enable_index(self) -> None:
        """Start maintaining the per-type-code index.

        Any jobs already queued (a checkpoint-restored queue) seed the
        pools in list order, which is admission order — the exact
        grouping incremental maintenance would have produced.
        """
        index: dict[int, list[Job]] = {}
        for job in self:
            pool = index.get(job.type_code)
            if pool is None:
                index[job.type_code] = [job]
            else:
                pool.append(job)
        self.by_code = index

    def admit(self, job: Job) -> None:
        """Append an arriving job, keeping the index in sync."""
        self.append(job)
        index = self.by_code
        if index is not None:
            pool = index.get(job.type_code)
            if pool is None:
                index[job.type_code] = [job]
            else:
                pool.append(job)

    def remove_ids(self, done_ids: set[int], codes: set[int | None]) -> None:
        """Drop completed jobs, rebuilding only the affected pools."""
        self[:] = [job for job in self if job.job_id not in done_ids]
        index = self.by_code
        if index is not None:
            for code in codes:
                pool = index.get(code)
                if pool is not None:
                    index[code] = [
                        job for job in pool if job.job_id not in done_ids
                    ]


@dataclass
class Machine:
    """One machine of the cluster: scheduler, jobs, and lazy state.

    ``last_sync`` is the simulation time up to which this machine's
    jobs have been progressed and its metrics observed; between its own
    events the machine's coschedule (and hence every job's rate) is
    constant, so catching up is one interval, not one per cluster
    event.  ``next_completion`` is *relative to* ``last_sync`` — the
    event loop keeps absolute times only inside the heap.
    """

    machine_id: int
    scheduler: Scheduler
    jobs: JobQueue = field(default_factory=JobQueue)
    running: list[Job] = field(default_factory=list)
    coschedule: tuple[str, ...] = ()
    job_rates: dict[str, float] = field(default_factory=dict)
    #: Compiled-engine rate array (per-job rate indexed by type id);
    #: ``None`` on the reference engine.
    rates_by_code: list[float] | None = None
    next_completion: float = _INF
    last_sync: float = 0.0
    metrics: SystemMetrics = field(default_factory=SystemMetrics)
    dirty: bool = True
    epoch: int = 0
    #: Estimated-rate runs install the estimator's observation feed
    #: here; called once per positive-span sync of a busy machine.
    rate_observer: Callable[[tuple[str, ...], float], None] | None = None
    #: Effective speed multiplier — 1.0 normally, the configured
    #: ``degraded_factor`` during a fault-layer DEGRADED episode.
    #: Applied by :meth:`reschedule` as a scale on every per-coschedule
    #: rate (fresh scaled copies; memo entries are never mutated).
    speed: float = 1.0

    def __post_init__(self) -> None:
        # Normalize whatever iterable the caller handed in: every
        # engine then takes JobQueue's incremental removal path, and
        # the O(queue)-per-completion plain-list rebuild is gone.
        if type(self.jobs) is not JobQueue:
            queue = JobQueue()
            queue.extend(self.jobs)
            self.jobs = queue

    @property
    def contexts(self) -> int:
        """Hardware contexts of this machine (from its scheduler)."""
        return self.scheduler.contexts

    def reschedule(self, memo: RunRateMemo, clock: float) -> None:
        """Re-select the running set and its rates (one machine only).

        The reference engine's decision step: the scheduler's own string
        ``select``, validated, then the coschedule's string-keyed rates.
        """
        scheduler = self.scheduler
        running = scheduler.select(self.jobs, clock) if self.jobs else []
        if len(running) > scheduler.contexts:
            raise SimulationError(
                f"{scheduler.name} selected {len(running)} jobs for "
                f"{scheduler.contexts} contexts"
            )
        ids = {job.job_id for job in running}
        if len(ids) != len(running):
            raise SimulationError(f"{scheduler.name} selected a job twice")

        coschedule = tuple(sorted(job.job_type for job in running))
        job_rates = memo.per_job_rates(coschedule)
        speed = self.speed
        if speed != 1.0:
            job_rates = {k: v * speed for k, v in job_rates.items()}
        next_completion = _INF
        for job in running:
            rate = job_rates[job.job_type]
            if rate <= 0.0:
                raise SimulationError(
                    f"job {job.job_id} ({job.job_type}) has zero rate in "
                    "its coschedule"
                )
            next_completion = min(next_completion, job.remaining / rate)
        self.running = running
        self.coschedule = coschedule
        self.job_rates = job_rates
        self.next_completion = next_completion
        self.dirty = False
        self.epoch += 1

    def sync(
        self,
        new_clock: float,
        *,
        span: float | None = None,
        warmup: float = 0.0,
    ) -> None:
        """Progress this machine's running jobs up to ``new_clock``.

        ``span`` is the elapsed time; when the caller knows the exact
        event step (``dt``) it passes it so the M=1 path reproduces the
        seed engine's arithmetic bit for bit — otherwise the span is
        the clock difference since the machine's last sync (the lazy
        catch-up of an untouched machine).
        """
        if span is None:
            span = new_clock - self.last_sync
        work = 0.0
        job_rates = self.job_rates
        for job in self.running:
            step = job_rates[job.job_type] * span
            job.progress(step)
            work += step

        measured = new_clock - max(self.last_sync, warmup)
        if measured > 0.0:
            fraction = measured / span if span > 0.0 else 0.0
            self.metrics.observe_interval(
                measured, self.coschedule, len(self.jobs), work * fraction
            )
        self.scheduler.observe(self.coschedule, span)
        observer = self.rate_observer
        if observer is not None and span > 0.0 and self.coschedule:
            observer(self.coschedule, span)
        self.last_sync = new_clock

    def admit(self, job: Job) -> None:
        """Add an arriving job to the queue (index kept in sync)."""
        self.jobs.admit(job)

    def complete_finished(self, clock: float, warmup: float) -> int:
        """Retire running jobs whose work is done; returns the count.

        Retired jobs leave the machine entirely: their turnaround is
        folded into the streaming metrics here and nothing retains the
        Job object afterwards, so a run's footprint is bounded by the
        jobs *in* the system, never by the jobs it has completed.
        """
        finished = [job for job in self.running if job.done]
        for job in finished:
            job.completion_time = clock
            if clock >= warmup:
                self.metrics.observe_completion(job.turnaround)
        if finished:
            self.jobs.remove_ids(
                {job.job_id for job in finished},
                {job.type_code for job in finished},
            )
        return len(finished)


@dataclass(frozen=True)
class ClusterMetrics:
    """Per-machine metrics of one cluster run, plus aggregates.

    Every machine's metrics cover the same measurement window (idle
    machines accumulate empty intervals, and the run flushes all
    machines to the final clock), so cluster-level rates are sums of
    per-machine rates.
    """

    per_machine: tuple[SystemMetrics, ...]

    @property
    def n_machines(self) -> int:
        """Number of machines in the cluster."""
        return len(self.per_machine)

    def merge(self, other: "ClusterMetrics") -> "ClusterMetrics":
        """Exact machine-wise reduction of two measurement windows.

        Inherits :meth:`SystemMetrics.merge`'s algebra: associative,
        commutative, bit-identical to the monolithic single-window run
        for any split of the same event sequence.
        """
        if self.n_machines != other.n_machines:
            raise SimulationError(
                "cannot merge windows over different machine counts: "
                f"{self.n_machines} vs {other.n_machines}"
            )
        return ClusterMetrics(per_machine=tuple(
            a.merge(b) for a, b in zip(self.per_machine, other.per_machine)
        ))

    @classmethod
    def reduce(cls, windows: Iterable["ClusterMetrics"]) -> "ClusterMetrics":
        """Merge any number of windows (order-independent result)."""
        merged: ClusterMetrics | None = None
        for window in windows:
            merged = window if merged is None else merged.merge(window)
        if merged is None:
            raise SimulationError("no metric windows to reduce")
        return merged

    def to_state(self) -> list[dict[str, object]]:
        """Exact per-machine accumulator states (checkpoint payload)."""
        return [m.to_state() for m in self.per_machine]

    @classmethod
    def from_state(cls, state: Sequence[dict]) -> "ClusterMetrics":
        """Rebuild from :meth:`to_state`, bit-exactly."""
        return cls(per_machine=tuple(
            SystemMetrics.from_state(s) for s in state
        ))

    def machine(self, index: int) -> SystemMetrics:
        """Metrics of one machine."""
        return self.per_machine[index]

    @property
    def completed(self) -> int:
        """Jobs completed inside the window, cluster-wide."""
        return sum(m.completed for m in self.per_machine)

    @property
    def work_done(self) -> float:
        """Weighted work executed inside the window, cluster-wide."""
        return sum(m.work_done for m in self.per_machine)

    @property
    def mean_turnaround(self) -> float:
        """Average turnaround over every completed job in the cluster."""
        if self.completed == 0:
            raise SimulationError("no completions observed")
        total = sum(m.turnaround_sum for m in self.per_machine)
        return total / self.completed

    @property
    def throughput(self) -> float:
        """Cluster throughput: sum of per-machine work rates (WIPC)."""
        return sum(m.throughput for m in self.per_machine)

    @property
    def utilization(self) -> float:
        """Average busy contexts cluster-wide (sum over machines)."""
        return sum(m.utilization for m in self.per_machine)

    @property
    def empty_fraction(self) -> float:
        """Mean per-machine fraction of time with no jobs."""
        return sum(m.empty_fraction for m in self.per_machine) / max(
            self.n_machines, 1
        )


def _stall_error(
    clock: float,
    stalled: int,
    in_system: int,
    pending: Job | None,
    machines: Sequence[Machine],
    fault_rt: FaultRuntime | None,
) -> EngineStallError:
    """Livelock diagnostics of :func:`run_loop`."""
    head = (
        f"job {pending.job_id} @ {pending.arrival_time!r}"
        if pending is not None
        else "none"
    )
    lines = [
        f"event loop stalled: {stalled} consecutive events with no "
        f"clock progress at t={clock!r} "
        f"(in_system={in_system}, pending={head})"
    ]
    for machine in machines[:8]:
        state = (
            fault_rt.state[machine.machine_id]
            if fault_rt is not None
            else "up"
        )
        lines.append(
            f"  machine {machine.machine_id}: state={state} "
            f"jobs={len(machine.jobs)} running={len(machine.running)} "
            f"next_completion={machine.next_completion!r} "
            f"last_sync={machine.last_sync!r} dirty={machine.dirty}"
        )
    if len(machines) > 8:
        lines.append(f"  ... {len(machines) - 8} more machines")
    if fault_rt is not None:
        lines.append(
            f"  faults: events={len(fault_rt.events)} "
            f"retries={len(fault_rt.retries)} "
            f"stats={fault_rt.stats.as_dict()}"
        )
    return EngineStallError("\n".join(lines))


class MachineOps:
    """One engine: the per-machine operations :func:`run_loop` calls.

    The loop owns everything that does not depend on the engine;
    an engine only says how one machine changes.  Every operation
    takes machine indices:

    * ``sync(mid, new_clock, span=None)`` — progress the machine's
      running jobs and observe its metrics up to ``new_clock``.
      ``span`` is the exact event step of a machine already current at
      the clock (the M=1 bit-identity path); ``None`` catches a lazy
      machine up over its whole pending interval.
    * ``admit(mid, job)`` — queue an arriving job.
    * ``retire(mid, when)`` — retire the finished running jobs and
      fold their turnarounds; returns how many finished.
    * ``reschedule(dirty_ids, clock)`` — re-select the running set and
      rates of every dirty machine, in order, appending each decision
      to the run's pick log.
    * ``clear_queue(mid)`` — drop a crashed machine's jobs.
    * ``speed_changed(mid)`` — a degrade edge changed the machine's
      ``speed``.
    * ``age_ok()`` — per-machine flags a pause must carry across a
      checkpoint (``None`` when the engine has none).

    ``admit`` and ``retire`` leave the machine on the ``dirty`` list
    (see :meth:`mark_dirty`).  The fault runtime applies its events
    through this same object.  ``stats`` is the engine's counter
    object, if it keeps one; the loop adds its event count there.
    """

    __slots__ = (
        "machines",
        "dirty",
        "sync",
        "admit",
        "retire",
        "reschedule",
        "clear_queue",
        "speed_changed",
        "age_ok",
        "stats",
    )

    def __init__(
        self,
        machines: Sequence[Machine],
        dirty: list[int],
        *,
        sync: Callable[..., None],
        admit: Callable[[int, Job], None],
        retire: Callable[[int, float], int],
        reschedule: Callable[[list[int], float], None],
        clear_queue: Callable[[int], None],
        speed_changed: Callable[[int], None],
        age_ok: Callable[[], tuple[bool, ...]] | None = None,
        stats=None,
    ) -> None:
        self.machines = machines
        self.dirty = dirty
        self.sync = sync
        self.admit = admit
        self.retire = retire
        self.reschedule = reschedule
        self.clear_queue = clear_queue
        self.speed_changed = speed_changed
        self.age_ok = age_ok
        self.stats = stats

    def mark_dirty(self, mid: int) -> None:
        """Queue a machine for re-selection before the next event."""
        machine = self.machines[mid]
        if not machine.dirty:
            machine.dirty = True
            self.dirty.append(mid)


def reference_ops(
    machines: Sequence[Machine],
    memo: RunRateMemo,
    config: RunConfig,
    *,
    pick_log: list | None = None,
) -> MachineOps:
    """The reference engine (``engine="legacy"``): thin adapters over
    :class:`Machine`, whose ``reschedule`` is the scheduler's own
    string ``select``.  These are the semantics the compiled engine is
    held to."""
    warmup_time = config.warmup_time

    def sync(mid: int, new_clock: float, span: float | None = None) -> None:
        machines[mid].sync(new_clock, span=span, warmup=warmup_time)

    def admit(mid: int, job: Job) -> None:
        machines[mid].admit(job)
        ops.mark_dirty(mid)

    def retire(mid: int, when: float) -> int:
        finished = machines[mid].complete_finished(when, warmup_time)
        # The machine's event always triggers re-selection (the seed
        # engine re-selected after every event, and MAXTP's deficits
        # and SRPT's remaining-time ordering shift even without
        # arrivals).
        ops.mark_dirty(mid)
        return finished

    def reschedule(dirty_ids: list[int], clock: float) -> None:
        for mid in dirty_ids:
            machine = machines[mid]
            machine.reschedule(memo, clock)
            if pick_log is not None:
                pick_log.append(
                    (
                        machine.machine_id,
                        tuple(job.job_id for job in machine.running),
                    )
                )

    def clear_queue(mid: int) -> None:
        del machines[mid].jobs[:]

    def speed_changed(mid: int) -> None:
        # Machine.reschedule re-reads the memo entry every time, so
        # there is no cached scaled rate to invalidate.
        pass

    ops = MachineOps(
        machines,
        [],
        sync=sync,
        admit=admit,
        retire=retire,
        reschedule=reschedule,
        clear_queue=clear_queue,
        speed_changed=speed_changed,
    )
    return ops


def run_loop(
    ops: MachineOps,
    stream: Iterator[Job],
    dispatcher: Dispatcher,
    config: RunConfig,
    *,
    pause_at: float | None = None,
    resume: LoopState | None = None,
    fault_rt: FaultRuntime | None = None,
) -> LoopState | None:
    """The event loop: advance a run through ``ops.machines``.

    Owns admission (due retries first, then due arrivals, and
    shedding), validated routing, the stop conditions, the dirty flush,
    the completion heap, the choice of ``dt``, pauses, the stall guard,
    and the completion/arrival/fault/horizon events; ``ops`` is the
    engine and ``fault_rt`` the run's fault runtime (``None`` without
    faults).  With ``pause_at`` set the loop stops between events once
    the next event would fall past it and returns the
    :class:`LoopState` to resume from (``resume=``); ``None`` means the
    run completed.
    """
    horizon = config.horizon
    stop_when_fewer_than = config.stop_when_fewer_than
    keep_in_system = config.keep_in_system
    max_events = config.max_events
    stall_events = config.stall_events
    machines = ops.machines
    sync = ops.sync
    admit = ops.admit
    retire = ops.retire
    dirty = ops.dirty
    n_machines = len(machines)
    all_ids = list(range(n_machines))
    heappush, heappop = heapq.heappush, heapq.heappop
    if resume is None:
        pending: Job | None = next(stream, None)
        clock = 0.0
        last_arrival = -1.0
        # Dispatch decision made at an arrival event, consumed by the
        # admission at the top of the next iteration (so the event and
        # the admission agree on the target, and round-robin's cursor
        # advances exactly once per job).
        routed: int | None = None
        # Incrementally maintained cluster state, so an event costs
        # O(log M + rescheduling one machine) instead of O(M) scans:
        # jobs currently admitted, and machines at their admission cap.
        in_system = 0
        full_machines = 0
    else:
        pending = resume.pending
        clock = resume.clock
        last_arrival = resume.last_arrival
        routed = resume.routed
        in_system = resume.in_system
        full_machines = resume.full_machines
    # Indexed min-heap of absolute next-completion times; entries are
    # invalidated by bumping the machine's epoch (lazy deletion).
    # Seeded from machines that already hold a valid selection (a no-op
    # on a fresh run, where every machine is dirty); dirty machines are
    # re-selected — and pushed — by the flush below, so a paused run
    # resumes with the same heap top.
    heap: list[tuple[float, int, int]] = []
    dirty.clear()
    for mid, machine in enumerate(machines):
        if machine.dirty:
            dirty.append(mid)
        elif machine.running:
            heappush(
                heap,
                (
                    machine.last_sync + machine.next_completion,
                    mid,
                    machine.epoch,
                ),
            )
    # Stale lazy-deletion entries accumulate one per reschedule; compact
    # once they dominate so heap memory stays O(machines) over
    # arbitrarily long runs.  Rebuilding never changes pop order:
    # ordering depends only on entry values.
    compact_floor = max(64, 4 * n_machines)

    def usable(mid: int) -> bool:
        """Whether a dispatch target can take a job now: it has room
        and, with faults, it is UP or DEGRADED."""
        return (
            keep_in_system is None
            or len(machines[mid].jobs) < keep_in_system
        ) and (fault_rt is None or fault_rt.routable(mid))

    def route(job: Job, clock: float) -> int:
        """Validated dispatch decision among machines with room (with
        faults: UP machines, DEGRADED ones as fallback)."""
        if fault_rt is not None:
            eligible = fault_rt.dispatch_eligible()
        elif keep_in_system is None:
            eligible = all_ids
        else:
            eligible = [
                mid
                for mid in all_ids
                if len(machines[mid].jobs) < keep_in_system
            ]
        target = dispatcher.route(job, machines, eligible, clock)
        if not 0 <= target < n_machines or not usable(target):
            raise SimulationError(
                f"{dispatcher.name} routed to invalid machine {target}"
            )
        return target

    stalled = 0
    events = 0
    try:
        for _ in range(max_events):
            events += 1
            # Fault-mode retries whose backoff elapsed re-enter ahead of
            # new arrivals at the same instant, through the same
            # dispatch layer (skipping DOWN/DRAINING machines).
            if fault_rt is not None:
                while True:
                    retry_job = fault_rt.due_retry(clock)
                    if (
                        retry_job is None
                        or not fault_rt.any_dispatchable()
                    ):
                        break
                    target = route(retry_job, clock)
                    fault_rt.pop_retry()
                    sync(target, clock)
                    admit(target, retry_job)
                    in_system += 1
                    if (
                        keep_in_system is not None
                        and len(machines[target].jobs) >= keep_in_system
                    ):
                        full_machines += 1
            # Admit every arrival due now (handles batched time-zero
            # jobs).  The target machine catches up to the clock before
            # its queue changes, so its pending interval is observed
            # with the pre-arrival job count.
            while (
                pending is not None
                and pending.arrival_time <= clock + _EPSILON
            ):
                if routed is not None and usable(routed):
                    target = routed
                elif fault_rt is not None:
                    if fault_rt.any_dispatchable():
                        target = route(pending, clock)
                    elif fault_rt.should_shed(pending, clock):
                        # Admission-control valve: no machine can take
                        # the job and it has waited out its shed
                        # deadline — drop it and move on.
                        fault_rt.record_shed(pending)
                        routed = None
                        pending = next(stream, None)
                        continue
                    else:
                        break
                elif full_machines < n_machines:
                    target = route(pending, clock)
                else:
                    break
                # An arrival up to _EPSILON after the clock is batched
                # in only at one of its machine's own events, as the
                # single-machine engine batches it; at another
                # machine's event it waits for its own instant, so that
                # event cannot start its work early.
                if (
                    pending.arrival_time > clock
                    and machines[target].last_sync != clock
                ):
                    routed = target
                    break
                routed = None
                if pending.arrival_time < last_arrival - _EPSILON:
                    raise SimulationError("arrivals out of order")
                last_arrival = pending.arrival_time
                sync(target, clock)
                admit(target, pending)
                in_system += 1
                if (
                    keep_in_system is not None
                    and len(machines[target].jobs) >= keep_in_system
                ):
                    full_machines += 1
                pending = next(stream, None)

            if stop_when_fewer_than is not None and pending is None:
                in_flight = in_system + (
                    fault_rt.retry_pending() if fault_rt is not None else 0
                )
                if in_flight < stop_when_fewer_than:
                    break
            if (
                in_system == 0
                and pending is None
                and (fault_rt is None or fault_rt.idle())
            ):
                break
            if horizon is not None and clock >= horizon:
                break

            if dirty:
                ops.reschedule(dirty, clock)
                for mid in dirty:
                    machine = machines[mid]
                    if machine.running:
                        heappush(
                            heap,
                            (
                                machine.last_sync + machine.next_completion,
                                mid,
                                machine.epoch,
                            ),
                        )
                dirty.clear()

            if len(heap) > compact_floor:
                heap = [
                    entry
                    for entry in heap
                    if machines[entry[1]].epoch == entry[2]
                    and machines[entry[1]].running
                ]
                heapq.heapify(heap)

            # Earliest completion across machines (heap top, pruning
            # stale entries), expressed relative to the clock so the
            # M=1 path compares the exact quantities the seed did.
            next_mid: int | None = None
            next_completion = _INF
            while heap:
                _, mid, epoch = heap[0]
                machine = machines[mid]
                if epoch != machine.epoch or not machine.running:
                    heappop(heap)
                    continue
                next_mid = mid
                next_completion = machine.next_completion + (
                    machine.last_sync - clock
                )
                break

            # A due-but-not-admitted arrival (bounded backlog at
            # capacity) must not produce zero-length steps: the next
            # admission can only happen at a completion, so ignore it
            # for time stepping.
            if fault_rt is None:
                can_admit = pending is not None and full_machines < n_machines
                fault_dt = _INF
            else:
                # Fault mode swaps the full_machines gate for a state-
                # aware one (DOWN/DRAINING machines are not targets) and
                # adds the fault layer's own instants: the next fault
                # event, a retry whose backoff elapsed (only while
                # someone could accept it), or a blocked arrival's shed
                # deadline.
                eligible_exists = fault_rt.any_dispatchable()
                can_admit = pending is not None and eligible_exists
                fault_dt = fault_rt.next_wake(
                    clock, eligible_exists, pending
                )
            next_arrival = pending.arrival_time - clock if can_admit else _INF
            dt = (
                next_completion
                if next_completion < next_arrival
                else next_arrival
            )
            if fault_dt < dt:
                dt = fault_dt
            if horizon is not None:
                clamp = horizon - clock
                if clamp < dt:
                    dt = clamp
            if dt == _INF:
                raise SimulationError(
                    "no progress possible: idle with no arrivals"
                )
            if dt < 0.0:
                dt = 0.0
            new_clock = clock + dt

            # Shard boundary: the next event falls past the pause time,
            # so stop *between* events — the clock stays at the last
            # processed event, no machine syncs, and the tail interval
            # is observed (identically) by the next segment.  Placed
            # after the no-progress check so a stuck run raises here
            # exactly as it would unpaused.
            if pause_at is not None and new_clock > pause_at:
                # The next segment runs this pass again; count it there.
                events -= 1
                return LoopState(
                    clock=clock,
                    last_arrival=last_arrival,
                    in_system=in_system,
                    full_machines=full_machines,
                    routed=routed,
                    pending=pending,
                    age_ok=None if ops.age_ok is None else ops.age_ok(),
                )

            # Livelock guard: many same-instant events in a row means the
            # loop is spinning, not simulating (the class of bug a
            # swallowed residual completion causes) — fail loudly with
            # diagnostics instead of burning the max_events budget.
            if dt > 0.0:
                stalled = 0
            else:
                stalled += 1
                if stalled >= stall_events:
                    raise _stall_error(
                        clock, stalled, in_system, pending, machines, fault_rt
                    )

            if next_mid is not None and next_completion <= dt:
                # Completion event: only its machine advances eagerly.
                touched = (next_mid,)
            elif can_admit and next_arrival <= dt:
                # Arrival event: route now (once per job) and advance
                # the target to the arrival instant; the admission
                # happens at the top of the next iteration, as in the
                # seed loop.
                if routed is None or not usable(routed):
                    routed = route(pending, clock)
                touched = (routed,)
            elif fault_rt is not None and fault_dt <= dt:
                # Fault event: the runtime applies (at most) one due
                # event — crash, repair, drain, degrade edge, outage
                # fan-out — through the engine's ops.  Retry/shed
                # instants need no event here: the next iteration's
                # admission phase handles them at the advanced clock.
                clock = new_clock
                removed = fault_rt.on_wake(clock, ops)
                if removed:
                    in_system -= removed
                    if keep_in_system is not None:
                        full_machines = sum(
                            1
                            for m in machines
                            if len(m.jobs) >= keep_in_system
                        )
                continue
            else:
                # Horizon clamp: one final step for every machine (the
                # loop exits at the top of the next iteration).
                touched = all_ids
            # A machine already current at the clock steps by the exact
            # dt (the M=1 bit-identity path); a lazy one catches up
            # over its whole pending interval.
            for mid in touched:
                sync(
                    mid,
                    new_clock,
                    dt if machines[mid].last_sync == clock else None,
                )
            clock = new_clock
            for mid in touched:
                finished = retire(mid, clock)
                if finished:
                    in_system -= finished
                    if keep_in_system is not None:
                        left = len(machines[mid].jobs)
                        if left < keep_in_system <= left + finished:
                            full_machines -= 1
        else:
            raise SimulationError(
                f"simulation exceeded {max_events} events without "
                "terminating"
            )
    finally:
        if ops.stats is not None:
            ops.stats.events += events

    # Flush: lazy machines observe their tail interval (idle machines'
    # empty time included) up to the final clock.
    for mid in all_ids:
        sync(mid, clock)
    return None


class Cluster:
    """M identical-hardware machines behind one dispatch policy.

    Args:
        rates: per-coschedule execution rates (shared by all machines —
            identical machines share one coschedule space, so one
            per-run memo serves the whole cluster).
        schedulers: one per machine; each machine packs its own
            coschedules with its own scheduler instance.
        dispatcher: routes each arriving job to a machine.
    """

    def __init__(
        self,
        rates: RateSource,
        schedulers: Sequence[Scheduler],
        dispatcher: Dispatcher,
    ) -> None:
        if not schedulers:
            raise SimulationError("a cluster needs at least one machine")
        self.rates = rates
        self.schedulers = list(schedulers)
        self.dispatcher = dispatcher
        #: Hit/miss/size counters of the last run's stepping memo (see
        #: :meth:`RunRateMemo.stats_dict`), with the policy memo's
        #: (estimated-rate runs; ``None`` on oracle runs) under
        #: ``"policy"``; ``None`` before any run.
        self.last_memo_stats: dict[str, object] | None = None
        #: Compiled-engine counters of the last run (see
        #: :meth:`repro.queueing.compiled.CompiledEngineStats.as_dict`);
        #: ``None`` before any run and after reference-loop runs.
        self.last_engine_stats: dict[str, object] | None = None
        #: Estimator summary of the last run (see
        #: :meth:`repro.queueing.estimation.ThroughputEstimator.stats_dict`);
        #: ``None`` before any run and after oracle runs.
        self.last_estimator_stats: dict[str, object] | None = None
        #: Fault-layer summary of the last run (see
        #: :meth:`repro.queueing.faults.FaultRuntime.stats_dict`);
        #: ``None`` before any run and after runs without ``faults=``.
        self.last_fault_stats: dict[str, object] | None = None

    @property
    def n_machines(self) -> int:
        """Number of machines."""
        return len(self.schedulers)

    def run(
        self,
        arrivals: Iterable[Job],
        *,
        pick_log: list | None = None,
        **config: Any,
    ) -> ClusterMetrics:
        """Run the cluster to completion and return per-machine metrics.

        ``arrivals`` are jobs in non-decreasing arrival order (one
        global stream; the dispatcher splits it across machines).  The
        keyword arguments are the fields of :class:`RunConfig`.
        ``pick_log`` is an optional list; both engines append one
        ``(machine_id, (job_id, ...))`` entry per scheduling decision,
        in decision order — the pick-sequence trace the differential
        harness compares across engines.
        """
        handle = self.start(arrivals, pick_log=pick_log, **config)
        try:
            handle.advance()
        finally:
            handle.close()
        return handle.result()

    def start(
        self,
        arrivals: Iterable[Job],
        *,
        pick_log: list | None = None,
        **config: Any,
    ) -> "ClusterRunHandle":
        """Begin a pausable run; same arguments as :meth:`run`.

        Returns a :class:`ClusterRunHandle` whose
        :meth:`~ClusterRunHandle.advance` processes events up to a
        pause time per call.  Any segmentation performs the exact
        operation sequence of the single-call :meth:`run` — the
        scale-out contract the sharding and checkpoint layers build on.
        """
        return ClusterRunHandle(
            self, arrivals, RunConfig(**config), pick_log=pick_log
        )


class ClusterRunHandle:
    """One pausable run of a :class:`Cluster` (see :meth:`Cluster.start`).

    Owns the run's memo, machines, stream and scheduler/dispatcher
    bindings, and advances the run in segments.  Each :meth:`advance`
    stops *between* events, so any sequence of segments — including
    segments executed in a different process after a checkpoint
    restore — performs the exact operation sequence of one
    uninterrupted :meth:`Cluster.run`.  Sharded drivers swap per-shard
    metric windows out with :meth:`take_window`; the exact-merge
    algebra of :class:`~repro.queueing.system.SystemMetrics` makes the
    reduced windows bit-identical to the monolithic run's metrics.
    """

    def __init__(
        self,
        cluster: Cluster,
        arrivals: Iterable[Job],
        config: RunConfig,
        *,
        pick_log: list | None = None,
    ) -> None:
        self.cluster = cluster
        #: The run's conditions (validated when built).
        self.config = config
        compiled = config.engine == "compiled"
        dispatcher = cluster.dispatcher
        #: The dispatcher's table re-solve, when it consumes rates.
        self._rebuild = (
            getattr(dispatcher, "rebuild", None)
            if dispatcher.uses_rates
            else None
        )
        self.memo = RunRateMemo(cluster.rates)
        #: Estimated-rate state: the estimator (fed by every machine's
        #: sync) and the policy-side memo over its published estimates.
        #: Both ``None`` on oracle runs.  Stepping always uses
        #: ``self.memo`` (true rates) — only decisions see estimates.
        self.estimator: ThroughputEstimator | None = None
        self.policy_memo: RunRateMemo | None = None
        if config.rate_source == "estimated":
            foreign = sorted(
                {
                    s.name
                    for s in cluster.schedulers
                    if s.rates is not cluster.rates
                }
            )
            if foreign:
                raise EstimationError(
                    "rate_source='estimated' needs every scheduler "
                    "probing the cluster's own rate source so it can "
                    f"be rebound to the estimates; {foreign} probe a "
                    "different source and would silently keep reading "
                    "oracle rates"
                )
            if dispatcher.uses_rates and not callable(self._rebuild):
                raise EstimationError(
                    f"dispatcher {dispatcher.name!r} consumes "
                    "rates but has no rebuild() hook: its oracle-built "
                    "tables would never refresh from observations.  "
                    "Implement rebuild(rates) or run with "
                    "rate_source='oracle'"
                )
            self.estimator = ThroughputEstimator(
                self.memo, config.estimation
            )
            self.policy_memo = RunRateMemo(
                self.estimator, codec=self.memo.codec
            )
        self.machines = [
            Machine(machine_id=i, scheduler=s)
            for i, s in enumerate(cluster.schedulers)
        ]
        if compiled:
            for machine in self.machines:
                machine.jobs.enable_index()
        #: Raw-pull counter around the arrival stream; its ``pulled``
        #: count is what checkpoints persist to fast-forward a rebuilt
        #: stream on restore.
        self.counter = _CountingStream(iter(arrivals))
        self.stream = (
            _encoded_stream(self.counter, self.memo.codec)
            if compiled
            else _uncoded_stream(self.counter)
        )
        self.pick_log = pick_log
        #: Loop state while paused between segments; ``None`` before
        #: the first :meth:`advance` and after completion.
        self.state: LoopState | None = None
        self.finished = False
        self._closed = False
        #: The engine's per-machine operations, built at the first
        #: :meth:`advance` (after any checkpoint restore) and kept
        #: across segments.
        self._ops: MachineOps | None = None
        #: Compiled-engine per-machine count-vector states, kept across
        #: segments (their queue-order flags must survive a pause).
        self._cstates: list | None = None
        self.engine_stats = None
        if compiled:
            from repro.queueing.compiled import CompiledEngineStats

            self.engine_stats = CompiledEngineStats()
        # Hoist the per-run memo into every scheduler that probes the
        # run's own rate source, so candidate evaluation and stepping
        # share one memo (restored on close — schedulers outlive runs).
        # The rebind is identity-conditioned on purpose: a scheduler
        # deliberately built on a *different* rate source (e.g. a
        # counterfactual table) keeps probing its own source.
        self._rebound = [
            s for s in cluster.schedulers if s.rates is cluster.rates
        ]
        #: The memo every policy decision probes: the estimates on
        #: estimated-rate runs, the stepping memo otherwise.
        self.probe_memo = probe_source = (
            self.policy_memo if self.policy_memo is not None else self.memo
        )
        for scheduler in self._rebound:
            scheduler.bind_rates(probe_source)
        # Dispatchers with per-type state (the affinity policy) flatten
        # it onto the run's type ids; unbound on close so a later run —
        # whose codec may assign different ids — starts clean.
        self._bind_codec = getattr(cluster.dispatcher, "bind_codec", None)
        if self._bind_codec is not None and compiled:
            self._bind_codec(self.memo.codec)
        # Estimated mode: wire the observation feed into every machine,
        # start every offline-solved policy from the estimator's priors
        # (estimated runs must not inherit oracle-built tables), and
        # register the re-optimization round fired at each publish.
        if self.estimator is not None:
            for machine in self.machines:
                machine.rate_observer = self.estimator.observe_interval
            policy_memo = self.policy_memo
            self._resolve(policy_memo)

            def _reoptimize(_estimator: ThroughputEstimator) -> None:
                # New epoch published: every memoized estimate is
                # stale.  Flush the policy memo (codec survives, so
                # queue indexes stay valid) — and the compiled
                # engine's per-machine handles on its candidate sets —
                # then re-solve the offline policies against the fresh
                # estimates.
                policy_memo.clear()
                if self._cstates is not None:
                    from repro.queueing.compiled import forget_probes

                    forget_probes(self._cstates)
                self._resolve(policy_memo)

            self.estimator.add_listener(_reoptimize)
        #: Fault layer: one runtime per run, driven by the one event
        #: loop whichever engine's operations it applies events through.
        self.fault_rt: FaultRuntime | None = None
        if config.faults is not None:
            self.fault_rt = FaultRuntime(
                config.faults,
                self.machines,
                keep_in_system=config.keep_in_system,
            )
            # Topology churn re-plans through the estimation layer's
            # hooks: on any membership change (machine down or
            # repaired) the offline policies re-solve over the run's
            # probe source.  With oracle rates the re-solve is
            # value-neutral (same table, same solution) but it
            # exercises the same code path the estimated mode uses.
            self.fault_rt.membership_hook = lambda: self._resolve(
                probe_source
            )

    def _resolve(self, rates: RateSource) -> None:
        """Re-solve the offline policies against ``rates``: every
        rebound scheduler re-optimizes, then a rate-consuming
        dispatcher rebuilds its tables.  Every hook fires; on a run
        memo the hooks asking for one LP share its solve
        (:meth:`RunRateMemo.optimal`)."""
        for scheduler in self._rebound:
            scheduler.reoptimize(rates)
        if self._rebuild is not None:
            self._rebuild(rates)

    def _build_ops(self) -> MachineOps:
        """The engine's per-machine operations over this run's state."""
        if self.config.engine == "legacy":
            return reference_ops(
                self.machines, self.memo, self.config, pick_log=self.pick_log
            )
        from repro.queueing.compiled import _prepare_state, compiled_ops

        self._cstates = _prepare_state(
            self.machines,
            self.probe_memo,
            self.state.age_ok if self.state is not None else None,
        )
        return compiled_ops(
            self.memo,
            self.probe_memo,
            self._cstates,
            self.config,
            stats=self.engine_stats,
            pick_log=self.pick_log,
        )

    @property
    def jobs_pulled(self) -> int:
        """Jobs pulled from the arrival stream so far (incl. pending)."""
        return self.counter.pulled

    def advance(self, pause_at: float | None = None) -> bool:
        """Process events up to ``pause_at`` (or completion).

        Returns ``True`` once the run has completed.  On completion the
        handle closes itself (bindings restored, run stats recorded on
        the cluster), exactly as the single-shot :meth:`Cluster.run`
        does in its ``finally`` block — as it also does if a segment
        raises.
        """
        if self.finished:
            return True
        if self._closed:
            raise SimulationError("cluster run handle already closed")
        try:
            if self._ops is None:
                self._ops = self._build_ops()
            state = run_loop(
                self._ops,
                self.stream,
                self.cluster.dispatcher,
                self.config,
                pause_at=pause_at,
                resume=self.state,
                fault_rt=self.fault_rt,
            )
        except BaseException:
            self.close()
            raise
        self.state = state
        if state is None:
            self.finished = True
            self.close()
        return self.finished

    def take_window(self) -> ClusterMetrics:
        """Detach the metrics window accumulated since the last take.

        Every machine gets a fresh accumulator for the next window;
        :meth:`ClusterMetrics.reduce` over all windows reproduces the
        monolithic run's metrics bit-identically.
        """
        window = ClusterMetrics(
            per_machine=tuple(m.metrics for m in self.machines)
        )
        for machine in self.machines:
            machine.metrics = SystemMetrics()
        return window

    def result(self) -> ClusterMetrics:
        """Metrics accumulated since the last window take (or start)."""
        return ClusterMetrics(
            per_machine=tuple(m.metrics for m in self.machines)
        )

    def close(self) -> None:
        """Restore bindings and record run stats (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for scheduler in self._rebound:
            scheduler.bind_rates(self.cluster.rates)
        if self._bind_codec is not None:
            self._bind_codec(None)
        if self.estimator is not None:
            for machine in self.machines:
                machine.rate_observer = None
        if self.estimator is not None or self.fault_rt is not None:
            # Restore the oracle-built policy state (schedulers and
            # dispatchers outlive runs), which the estimator's epochs or
            # the membership hook re-solved mid-run: the re-solves are
            # deterministic in the true rates, so this reproduces the
            # constructed tables bit for bit.
            self._resolve(self.cluster.rates)
        # Recorded even when a segment raises: a diagnostic path
        # catching the error should see this run's counters, not the
        # previous run's.
        self.cluster.last_memo_stats = {
            **self.memo.stats_dict(),
            "policy": (
                self.policy_memo.stats_dict()
                if self.policy_memo is not None
                else None
            ),
        }
        self.cluster.last_engine_stats = (
            self.engine_stats.as_dict()
            if self.engine_stats is not None
            else None
        )
        self.cluster.last_estimator_stats = (
            self.estimator.stats_dict()
            if self.estimator is not None
            else None
        )
        if self.fault_rt is not None:
            now = max(m.last_sync for m in self.machines)
            self.cluster.last_fault_stats = self.fault_rt.stats_dict(now)
        else:
            self.cluster.last_fault_stats = None


def run_cluster(
    rates: RateSource,
    schedulers: Sequence[Scheduler],
    dispatcher: Dispatcher,
    arrivals: Iterable[Job],
    *,
    pick_log: list | None = None,
    **config: Any,
) -> ClusterMetrics:
    """Build a :class:`Cluster` and run it once (convenience wrapper;
    same arguments as :meth:`Cluster.run`)."""
    cluster = Cluster(rates, schedulers, dispatcher)
    return cluster.run(arrivals, pick_log=pick_log, **config)
