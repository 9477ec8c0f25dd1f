"""Count-vector compiled engine: the production per-machine operations.

Both engines run the one event loop,
:func:`~repro.queueing.cluster.run_loop`; an engine is the set of
per-machine operations the loop calls (sync, admit, retire,
reschedule, and the fault-event effects).  The reference set
(``engine="legacy"``) adapts the generic
:class:`~repro.queueing.cluster.Machine` / ``Scheduler.select`` stack.
This module builds the production set (``engine="compiled"``, the
default of :meth:`~repro.queueing.cluster.Cluster.run`), which
re-expresses per-machine state as **dense type-count vectors** keyed by
the run's :class:`~repro.microarch.codec.TypeCodec`:

* **count vectors** — each machine maintains ``counts[type_id]``
  incrementally at admission/completion, so the probe key of a
  scheduling decision (the capped per-type count tuple) is an O(types)
  scan with no sorting, no ``Counter``, and no per-job pass;
* **event fusion** — consecutive events that leave a machine's count
  vector (and therefore its rates) unchanged are fused: zero-length
  syncs (batched same-instant arrivals, the admission that follows a
  completion in a saturated backlog) are skipped outright, because a
  zero-span sync is a *provable float no-op* on every metric and job
  field; and a departure the scheduler refills with the same type
  multiset reuses the previous coschedule's rate entry without
  touching the memo;
* **machine batching** — when several machines reschedule in one
  dirty-flush (run start, horizon clamp, simultaneous events), those
  with identical count vectors share one probe resolution and — when
  the decision is machine-independent (a unique MAXIT winner) — one
  resolved candidate template, instantiated per machine from its own
  job pools;
* **memoized probe scoring** — MAXIT/SRPT/MAXTP decisions (the
  ``pick_*`` closures below, each policy's one production decision
  path) score the memoized candidate set of the machine's count
  vector.  SRPT's per-type prefix sums perform the exact left-to-right
  float additions of the string ``select``'s ``sum(pool[:count])``.

**Bit-identity is the contract.**  Every float written to a job, a
metric, or a scheduler observation is produced by the same operation,
on the same operands, in the same order as the reference operations;
anything that cannot be made exactly identical (e.g. summing a queue's
affinity by count×weight instead of per job) is deliberately *not*
done.  ``tests/property/test_differential_engines.py`` fuzzes random
(scenario, dispatcher, scheduler, cluster, horizon) configurations and
asserts bit-identical :class:`~repro.queueing.cluster.ClusterMetrics`
and scheduler pick sequences across the two engines, and
``tests/property/test_compiled_invariants.py`` pins the fusion and
batching layers in isolation via the ``fuse``/``batch`` debug knobs.

Schedulers the engine does not specialize (LJF, random, or any
scheduler probing a counterfactual rate source) fall back to their own
string ``select`` — the compiled engine is a superset, never a
restriction.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.errors import SimulationError
from repro.queueing.cluster import MachineOps, RunConfig
from repro.queueing.job import Job
from repro.queueing.ratememo import CandidateSet, ProbeCandidate, RunRateMemo
from repro.queueing.schedulers import (
    FcfsScheduler,
    MaxItScheduler,
    MaxTpScheduler,
    Scheduler,
    SrptScheduler,
    _age_key,
)

__all__ = [
    "CompiledEngineStats",
    "compiled_ops",
    "forget_probes",
]

_INF = float("inf")


@dataclass
class CompiledEngineStats:
    """Observable counters of one compiled-engine run.

    Attributes:
        events: event-loop iterations consumed.
        reschedules: scheduling decisions made.
        fused_syncs: zero-span machine syncs skipped by event fusion.
        fused_entries: reschedules that reused the machine's previous
            coschedule rate entry (departure refilled with the same
            type multiset).
        batch_rounds: dirty-flushes that rescheduled >1 machine.
        batch_shared: reschedules served from a batch-shared template
            (identical count vectors inside one flush).
        max_batch: largest dirty-flush seen.
        probe_hits: probes answered from the memoized candidate sets.
        probe_builds: probes that had to build a candidate set.
    """

    events: int = 0
    reschedules: int = 0
    fused_syncs: int = 0
    fused_entries: int = 0
    batch_rounds: int = 0
    batch_shared: int = 0
    max_batch: int = 1
    probe_hits: int = 0
    probe_builds: int = 0

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly counters plus the derived probe hit rate."""
        probes = self.probe_hits + self.probe_builds
        return {
            "events": self.events,
            "reschedules": self.reschedules,
            "fused_syncs": self.fused_syncs,
            "fused_entries": self.fused_entries,
            "batch_rounds": self.batch_rounds,
            "batch_shared": self.batch_shared,
            "max_batch": self.max_batch,
            "probe_hits": self.probe_hits,
            "probe_builds": self.probe_builds,
            "probe_hit_rate": (
                round(self.probe_hits / probes, 4) if probes else 0.0
            ),
        }


class _MState:
    """Per-machine compiled state riding alongside a ``Machine``.

    The ``Machine`` object stays authoritative for everything the rest
    of the system reads (dispatchers inspect ``machine.jobs``, metrics
    live on ``machine.metrics``); this wrapper only adds the derived
    hot-path state: the incremental count vector, the scheduler
    specialization, and the fusion bookkeeping.
    """

    __slots__ = (
        "machine",
        "counts",
        "kind",
        "observe",
        "zero_obs_safe",
        "rate_observer",
        "age_ok",
        "last_codes_key",
        "probe_cache",
        "maxtp_targets",
        "maxtp_fractions",
        "deficit",
    )

    def __init__(self, machine) -> None:
        self.machine = machine
        #: counts[type_id] = jobs of that type on the machine.
        self.counts: list[int] = []
        #: specialized selector tag; None = generic ``select`` fallback.
        self.kind: str | None = None
        #: the scheduler's observe hook, or None when it is the base
        #: no-op (so steady-state syncs skip a useless call).
        self.observe: Callable | None = None
        #: True when calling observe with dt=0 is a provable no-op
        #: (base hook or MAXTP's ``+= dt``), enabling zero-span fusion.
        self.zero_obs_safe: bool = True
        #: the machine's rate-estimation feed (estimated-rate runs),
        #: or None.  Only ever called with span > 0, so zero-span
        #: fusion never needs it.
        self.rate_observer: Callable | None = None
        #: True while the job list is (arrival, id)-sorted, letting
        #: age-ordered picks slice queue pools without sorting.
        self.age_ok: bool = True
        #: sorted code tuple of the current coschedule (refill fusion).
        self.last_codes_key: tuple[int, ...] | None = None
        #: (size, capped counts_key, CandidateSet) of the last probe,
        #: kept while no count crosses the contexts cap (deep-backlog
        #: steady state: the capped key cannot have changed).
        self.probe_cache: tuple | None = None
        #: MAXTP only: [(names, count_items, codes_key)] in
        #: target-fraction order, interned from ``maxtp_fractions``.
        self.maxtp_targets: list | None = None
        #: MAXTP only: the ``target_fractions`` dict the targets were
        #: interned from; a re-solve replaces the dict, and the next
        #: pick re-interns.
        self.maxtp_fractions: dict | None = None
        #: MAXTP only: the scheduler's bound ``_deficit``.
        self.deficit: Callable | None = None


def _intern_targets(ms: _MState, codec) -> None:
    """Intern MAXTP's LP targets onto the run's type ids (ids are
    engine-internal; candidate enumeration and tie-breaks stay
    name-based)."""
    fractions = ms.machine.scheduler.target_fractions
    ms.maxtp_targets = [
        (
            s,
            tuple((codec.encode(t), c) for t, c in Counter(s).items()),
            tuple(sorted(codec.encode(t) for t in s)),
        )
        for s in fractions
    ]
    ms.maxtp_fractions = fractions


def forget_probes(states: Sequence[_MState]) -> None:
    """Drop every machine's cached candidate set (the probe memo was
    flushed: a new estimator epoch made its rates stale)."""
    for ms in states:
        ms.probe_cache = None


def _prepare_state(
    machines: Sequence,
    probe_memo: RunRateMemo,
    age_ok: tuple[bool, ...] | None = None,
) -> list[_MState]:
    """Classify every machine's scheduler and build its state.

    ``age_ok`` re-applies the queue-order flags of a checkpointed
    pause (they are monotone True -> False within a run, except that a
    crash empties a queue and resets its flag).
    """
    codec = probe_memo.codec
    states = []
    for machine in machines:
        ms = _MState(machine)
        # Seed the count vector from jobs already queued (a
        # checkpoint-restored machine); empty on a fresh run.
        counts = ms.counts
        for job in machine.jobs:
            code = job.type_code
            while code >= len(counts):
                counts.append(0)
            counts[code] += 1
        scheduler = machine.scheduler
        observe = type(scheduler).observe
        if observe is not Scheduler.observe:
            ms.observe = scheduler.observe
            ms.zero_obs_safe = observe is MaxTpScheduler.observe
        ms.rate_observer = machine.rate_observer
        # Specialize only schedulers probing *this run's* memo (the
        # estimates on estimated-rate runs) — one probing a
        # counterfactual source must keep doing exactly that through
        # its own ``select``.
        if scheduler.rates is probe_memo:
            kind = type(scheduler)
            if kind is MaxItScheduler:
                ms.kind = "maxit"
            elif kind is SrptScheduler:
                ms.kind = "srpt"
            elif kind is FcfsScheduler:
                ms.kind = "fcfs"
            elif kind is MaxTpScheduler:
                ms.kind = "maxtp"
                _intern_targets(ms, codec)
                ms.deficit = scheduler._deficit
        states.append(ms)
    if age_ok is not None:
        for ms, ok in zip(states, age_ok):
            ms.age_ok = ok
    return states


def _sorted_pool(pools: dict, by_code: dict, code: int) -> list[Job]:
    """Age-sorted pool cache for machines whose admission order was
    perturbed (out-of-order ids within the arrival epsilon)."""
    pool = pools.get(code)
    if pool is None:
        pool = sorted(by_code[code], key=_age_key)
        pools[code] = pool
    return pool


def compiled_ops(
    memo: RunRateMemo,
    probe_memo: RunRateMemo,
    states: list[_MState],
    config: RunConfig,
    *,
    stats: CompiledEngineStats,
    pick_log: list | None = None,
) -> MachineOps:
    """The compiled engine's per-machine operations for ``run_loop``.

    ``memo`` holds the true rates every machine steps with;
    ``probe_memo`` is the memo the policies decide on (the same object
    on oracle runs, the estimates on estimated-rate runs).  ``states``
    (from :func:`_prepare_state`) outlive a pause, so the count vectors
    and queue-order flags carry over between segments.  ``stats`` is
    filled in as the run progresses (so a raising run still reports
    its counters).  ``config.engine_options`` may turn off the
    ``fuse`` and ``batch`` debug knobs for the isolation property
    tests — disabling them must not change a single bit of any output.
    """
    warmup_time = config.warmup_time
    options = config.engine_options or {}
    fuse = options.get("fuse", True)
    batch = options.get("batch", True)
    machines = [ms.machine for ms in states]
    codec = memo.codec
    probe_cached = probe_memo.probe_cached
    # Filtering a shared full-cap universe looks up coschedules no
    # decision enumerates.  On estimated-rate runs every such lookup
    # cold-starts an estimate, so there the engine builds exactly the
    # string ``select``'s enumeration and the estimator tracks the same
    # coschedules on both engines.
    probe_build = (
        probe_memo.probe_filtered
        if probe_memo is memo
        else probe_memo.probe_candidates
    )
    compiled_entry = memo.compiled_entry
    dirty: list[int] = []

    # Closures, not methods: locals beat attribute lookups here.
    def sync(mid: int, new_clock: float, span: float | None = None) -> None:
        ms = states[mid]
        machine = ms.machine
        last = machine.last_sync
        if fuse and new_clock == last and not span:
            # Zero-span fusion: progress(0.0), a <=0-measured interval,
            # and observe(cos, 0.0) are all exact float no-ops (MAXTP's
            # accumulators only ever hold non-negative values).  Fusing
            # is only valid when the span truly is zero: past clock 2^14
            # an event's exact dt can round below ulp(clock), so
            # new_clock == last with span > 0 — the reference sync
            # still progresses the running jobs by rate * dt there, and
            # skipping it would re-fire the completion forever.
            if not ms.zero_obs_safe:
                ms.observe(machine.coschedule, 0.0)
            stats.fused_syncs += 1
            return
        if span is None:
            span = new_clock - last
        work = 0.0
        rates = machine.rates_by_code
        for job in machine.running:
            step = rates[job.type_code] * span
            remaining = job.remaining - step
            job.remaining = remaining if remaining > 0.0 else 0.0
            work += step
        measured = new_clock - (last if last > warmup_time else warmup_time)
        if measured > 0.0:
            fraction = measured / span if span > 0.0 else 0.0
            machine.metrics.observe_interval(
                measured,
                machine.coschedule,
                len(machine.jobs),
                work * fraction,
            )
        if ms.observe is not None:
            ms.observe(machine.coschedule, span)
        if ms.rate_observer is not None and span > 0.0 and machine.coschedule:
            ms.rate_observer(machine.coschedule, span)
        machine.last_sync = new_clock

    def probe_for(
        ms: _MState, size: int
    ) -> tuple[tuple[tuple[int, int], ...], CandidateSet]:
        """Capped probe key from the count vector, and its candidates."""
        cached = ms.probe_cache
        if cached is not None and cached[0] == size:
            # No count crossed the cap since this was built, so the
            # capped key — and therefore the candidate set — is
            # byte-identical to rebuilding it.
            stats.probe_hits += 1
            return cached[1], cached[2]
        key_items = []
        for code, count in enumerate(ms.counts):
            if count:
                key_items.append(
                    (code, count if count < size else size)
                )
        counts_key = tuple(key_items)
        probe = probe_cached(counts_key, size)
        if probe is None:
            probe = probe_build(counts_key, size)
            stats.probe_builds += 1
        else:
            stats.probe_hits += 1
        ms.probe_cache = (size, counts_key, probe)
        return counts_key, probe

    def instantiate(
        ms: _MState, candidate: ProbeCandidate
    ) -> list[Job]:
        """The candidate's jobs, oldest-first per type (legacy order)."""
        by_code = ms.machine.jobs.by_code
        chosen: list[Job] = []
        if ms.age_ok:
            for code, count in candidate.count_items:
                chosen.extend(by_code[code][:count])
        else:
            pools: dict[int, list[Job]] = {}
            for code, count in candidate.count_items:
                chosen.extend(_sorted_pool(pools, by_code, code)[:count])
        return chosen

    def accumulate_age(
        ms: _MState,
        candidate: ProbeCandidate,
        pools: dict[int, list[Job]],
    ) -> float:
        by_code = ms.machine.jobs.by_code
        age = 0.0
        if ms.age_ok:
            for code, count in candidate.count_items:
                for job in by_code[code][:count]:
                    age += job.arrival_time
        else:
            for code, count in candidate.count_items:
                for job in _sorted_pool(pools, by_code, code)[:count]:
                    age += job.arrival_time
        return age

    def pick_maxit(
        ms: _MState, n_jobs: int, flush_cache: dict | None
    ) -> tuple[list[Job], tuple[int, ...]]:
        size = ms.machine.contexts
        if n_jobs < size:
            size = n_jobs
        counts_key, probe = probe_for(ms, size)
        best = None
        if flush_cache is None:
            group = probe.max_it_group
            if len(group) == 1:
                best = group[0]
        else:
            # Batched flush: machines with identical (capped) count
            # vectors share the resolved winner when it is machine-
            # independent (a unique MAXIT candidate needs no ages).
            cache_key = (counts_key, size)
            if cache_key in flush_cache:
                best = flush_cache[cache_key]
                if best is not None:
                    stats.batch_shared += 1
            else:
                group = probe.max_it_group
                if len(group) == 1:
                    best = group[0]
                # None is cached too: it records "winner is machine-
                # dependent (age tie)", sparing peers the group check.
                flush_cache[cache_key] = best
        if best is None:
            group = probe.max_it_group
            pools: dict[int, list[Job]] = {}
            best_age = None
            for candidate in group:
                age = accumulate_age(ms, candidate, pools)
                if best_age is None or age < best_age:
                    best_age = age
                    best = candidate
        return instantiate(ms, best), best.codes_key

    def pick_srpt(
        ms: _MState, n_jobs: int
    ) -> tuple[list[Job], tuple[int, ...]]:
        size = ms.machine.contexts
        if n_jobs < size:
            size = n_jobs
        _, probe = probe_for(ms, size)
        feasible = probe.feasible
        if not feasible:
            raise SimulationError("no feasible coschedule (zero rates?)")
        by_code = ms.machine.jobs.by_code
        # pools[code] = (jobs shortest-remaining-first, prefix sums) —
        # the prefix sums perform the exact additions of the legacy
        # ``sum(pool[:count])``.
        pools: dict[int, tuple[list[Job], list[float]]] = {}

        def pool(code: int) -> tuple[list[Job], list[float]]:
            entry = pools.get(code)
            if entry is None:
                ordered = sorted(
                    by_code[code],
                    key=lambda job: (job.remaining, job.job_id),
                )
                prefix = [0.0]
                acc = 0.0
                for job in ordered:
                    acc += job.remaining
                    prefix.append(acc)
                entry = (ordered, prefix)
                pools[code] = entry
            return entry

        def age_of(candidate: ProbeCandidate) -> float:
            age = 0.0
            for code, count in candidate.count_items:
                for job in pool(code)[0][:count]:
                    age += job.arrival_time
            return age

        # The string select's key (total_remaining, age) is
        # lexicographic, so ages are computed only on exact ties.
        best = None
        best_total = None
        best_age = None
        for candidate in feasible:
            total_remaining = 0.0
            for code, count, rate in candidate.srpt_items:
                total_remaining += pool(code)[1][count] / rate
            if best_total is None or total_remaining < best_total:
                best = candidate
                best_total = total_remaining
                best_age = None
            elif total_remaining == best_total:
                if best_age is None:
                    best_age = age_of(best)
                age = age_of(candidate)
                if age < best_age:
                    best = candidate
                    best_age = age
        chosen: list[Job] = []
        for code, count in best.count_items:
            chosen.extend(pool(code)[0][:count])
        return chosen, best.codes_key

    def pick_maxtp(
        ms: _MState, n_jobs: int, flush_cache: dict | None
    ) -> tuple[list[Job], tuple[int, ...]]:
        machine = ms.machine
        if n_jobs >= machine.contexts:
            fractions = machine.scheduler.target_fractions
            if fractions is not ms.maxtp_fractions:
                # The LP was re-solved (an estimator epoch or a
                # membership change) since the targets were interned.
                _intern_targets(ms, codec)
            counts = ms.counts
            n_counts = len(counts)
            formable = []
            for target in ms.maxtp_targets:
                for code, count in target[1]:
                    if code >= n_counts or counts[code] < count:
                        break
                else:
                    formable.append(target)
            if formable:
                deficit = ms.deficit
                best = max(
                    formable,
                    key=lambda pair: (
                        deficit(pair[0]),
                        fractions[pair[0]],
                        pair[0],
                    ),
                )
                by_code = machine.jobs.by_code
                chosen: list[Job] = []
                if ms.age_ok:
                    for code, count in best[1]:
                        chosen.extend(by_code[code][:count])
                else:
                    pools: dict[int, list[Job]] = {}
                    for code, count in best[1]:
                        chosen.extend(
                            _sorted_pool(pools, by_code, code)[:count]
                        )
                return chosen, best[2]
        return pick_maxit(ms, n_jobs, flush_cache)

    def decide(
        ms: _MState, clock: float, flush_cache: dict | None
    ) -> None:
        machine = ms.machine
        jobs = machine.jobs
        n_jobs = len(jobs)
        stats.reschedules += 1
        if n_jobs == 0:
            running: list[Job] = []
            codes_key: tuple[int, ...] = ()
        else:
            kind = ms.kind
            if kind == "maxit":
                running, codes_key = pick_maxit(ms, n_jobs, flush_cache)
            elif kind == "srpt":
                running, codes_key = pick_srpt(ms, n_jobs)
            elif kind == "maxtp":
                running, codes_key = pick_maxtp(ms, n_jobs, flush_cache)
            elif kind == "fcfs":
                contexts = machine.contexts
                if ms.age_ok:
                    running = jobs[:contexts]
                else:
                    running = sorted(jobs, key=_age_key)[:contexts]
                codes_key = tuple(
                    sorted(job.type_code for job in running)
                )
            else:
                # Generic fallback: the scheduler's own select, with
                # the legacy validation (a custom scheduler can
                # misbehave; the specialized picks cannot).
                scheduler = machine.scheduler
                running = scheduler.select(jobs, clock)
                if len(running) > scheduler.contexts:
                    raise SimulationError(
                        f"{scheduler.name} selected {len(running)} jobs "
                        f"for {scheduler.contexts} contexts"
                    )
                ids = {job.job_id for job in running}
                if len(ids) != len(running):
                    raise SimulationError(
                        f"{scheduler.name} selected a job twice"
                    )
                codes = []
                for job in running:
                    code = job.type_code
                    if code is None:
                        code = codec.encode(job.job_type)
                        job.type_code = code
                    codes.append(code)
                codes.sort()
                codes_key = tuple(codes)
        if fuse and codes_key == ms.last_codes_key:
            # Refill fusion: the departure was replaced by the same
            # type multiset, so the coschedule entry (names, per-job
            # rates, flat rate array) is unchanged — skip the memo.
            # Degrade edges invalidate ``last_codes_key`` (see
            # ``speed_changed``), so a fused reuse never carries a stale
            # speed scaling.
            stats.fused_entries += 1
            rates_by_code = machine.rates_by_code
        else:
            entry = compiled_entry(codes_key)
            machine.coschedule = entry.names
            # DEGRADED machines step at a scaled rate; decisions keep
            # probing the memo's nominal rates (same split as
            # ``Machine.reschedule``).  Fresh copies — memo entries are
            # shared and must never be mutated.
            speed = machine.speed
            if speed == 1.0:
                machine.job_rates = entry.per_job
                rates_by_code = entry.rates_by_code
            else:
                machine.job_rates = {
                    k: v * speed for k, v in entry.per_job.items()
                }
                rates_by_code = [r * speed for r in entry.rates_by_code]
            machine.rates_by_code = rates_by_code
            ms.last_codes_key = codes_key
        next_completion = _INF
        for job in running:
            rate = rates_by_code[job.type_code]
            if rate <= 0.0:
                raise SimulationError(
                    f"job {job.job_id} ({job.job_type}) has zero rate "
                    "in its coschedule"
                )
            remaining = job.remaining / rate
            if remaining < next_completion:
                next_completion = remaining
        machine.running = running
        machine.next_completion = next_completion
        machine.dirty = False
        machine.epoch += 1
        if pick_log is not None:
            pick_log.append(
                (
                    machine.machine_id,
                    tuple(job.job_id for job in running),
                )
            )

    def reschedule(dirty_ids: list[int], clock: float) -> None:
        flush_cache = None
        if len(dirty_ids) > 1:
            stats.batch_rounds += 1
            if len(dirty_ids) > stats.max_batch:
                stats.max_batch = len(dirty_ids)
            if batch:
                flush_cache = {}
        for mid in dirty_ids:
            decide(states[mid], clock, flush_cache)

    def retire(mid: int, when: float) -> int:
        ms = states[mid]
        machine = ms.machine
        finished = [
            job for job in machine.running if job.remaining <= 1e-12
        ]
        if finished:
            metrics = machine.metrics
            counts = ms.counts
            contexts = machine.contexts
            for job in finished:
                job.completion_time = when
                if when >= warmup_time:
                    metrics.observe_completion(when - job.arrival_time)
                code = job.type_code
                remaining_count = counts[code] - 1
                counts[code] = remaining_count
                if remaining_count < contexts:
                    # The capped count for this type changed (or the
                    # type drained) — the cached probe key is stale.
                    ms.probe_cache = None
            jobs = machine.jobs
            if len(finished) == 1:
                # Common case: one departure.  Identity-scan removal
                # beats rebuilding the whole backlog list (and the
                # dataclass __eq__ a plain ``list.remove`` would run).
                job = finished[0]
                for i, queued in enumerate(jobs):
                    if queued is job:
                        del jobs[i]
                        break
                pool = jobs.by_code[job.type_code]
                for i, queued in enumerate(pool):
                    if queued is job:
                        del pool[i]
                        break
            else:
                done_ids = {job.job_id for job in finished}
                jobs.remove_ids(
                    done_ids, {job.type_code for job in finished}
                )
        if not machine.dirty:
            machine.dirty = True
            dirty.append(mid)
        return len(finished)

    def admit(mid: int, job: Job) -> None:
        ms = states[mid]
        machine = ms.machine
        jobs = machine.jobs
        if ms.age_ok and jobs:
            last = jobs[-1]
            if (job.arrival_time, job.job_id) < (
                last.arrival_time,
                last.job_id,
            ):
                ms.age_ok = False
        machine.admit(job)
        code = job.type_code
        counts = ms.counts
        while code >= len(counts):
            counts.append(0)
        grown_count = counts[code] + 1
        counts[code] = grown_count
        if grown_count <= machine.contexts:
            # The capped count for this type grew — stale probe key.
            ms.probe_cache = None
        if not machine.dirty:
            machine.dirty = True
            dirty.append(mid)

    def clear_queue(mid: int) -> None:
        ms = states[mid]
        queue = ms.machine.jobs
        del queue[:]
        queue.by_code = {}
        counts = ms.counts
        for i in range(len(counts)):
            counts[i] = 0
        # An empty queue is trivially age-sorted again; the probe key
        # and the refill-fusion anchor are both stale.
        ms.age_ok = True
        ms.probe_cache = None
        ms.last_codes_key = None

    def speed_changed(mid: int) -> None:
        # Invalidate refill fusion: the machine's cached rate array
        # carries the old speed scaling.
        states[mid].last_codes_key = None

    def age_ok() -> tuple[bool, ...]:
        return tuple(ms.age_ok for ms in states)

    return MachineOps(
        machines,
        dirty,
        sync=sync,
        admit=admit,
        retire=retire,
        reschedule=reschedule,
        clear_queue=clear_queue,
        speed_changed=speed_changed,
        age_ok=age_ok,
        stats=stats,
    )
